"""Pulse schemes and the exact average-Hamiltonian engine.

A scheme runs the network through N intervals; in interval j node k is
conjugated by basis element pulses[k][j] of its own unitary error
basis.  The engine computes the algebraic average
sum_j times[j] U_j^dag H U_j exactly (fast-control limit, no Trotter
error) in coefficient space: each pulse acts on su(d) through a real
adjoint matrix, so average_model() maps the model's coupling blocks and
local vectors to those of the averaged model without touching the
d^n-dimensional space, and verify_scheme() compares the result with a
target model there.  Pauli pulses on qubits map every sigma to
+-itself, so for them the average is J o F, F the Gram matrix of the
pulse signs, one matrix product; other bases go one row of coupling
blocks per node, in three matrix products.
average_hamiltonian() realizes the average as a dense matrix; the d^n
conjugation average it is tested against lives with the tests.  The
synthesizers pick pulse matrices from orthogonal arrays:

* decoupling: any strength-2 array with one row per node zeroes every
  coupling and every local term;
* selective recoupling: identity pulses on the kept nodes, array rows
  on the rest, leaves exactly the kept sub-model;
* time reversal: array in normal form with the all-identity first
  column dropped, making the remaining columns sum to -H at time
  overhead N-1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import designs, error_basis, netham

RESIDUAL_TOL = 1e-9
_TIME_TOL = 1e-12
_SIGN_TOL = 1e-12
_BAND_ROWS = 512      # rows per product or update of an (mn)^2 array
_RUN_ENTRIES = 1 << 17  # weights or product entries per node run in _pair_average


@dataclass(eq=False)
class PulseScheme:
    n: int
    N: int
    times: np.ndarray = field(repr=False)
    pulses: np.ndarray = field(repr=False)
    bases: list = field(repr=False)
    target_overhead: float = 1.0

    def __post_init__(self):
        self.times = check_times(self.times, self.N)
        self.pulses = np.asarray(self.pulses, dtype=int)
        if self.pulses.shape != (self.n, self.N):
            raise ValueError("pulse matrix must be n x N")
        if len(self.bases) != self.n:
            raise ValueError("need one basis per node")
        for k, b in enumerate(self.bases):
            hi = b.d * b.d
            row = self.pulses[k]
            if row.min() < 1 or row.max() > hi:
                raise ValueError(f"pulse labels of node {k} out of [1, {hi}]")
        check_overhead(self.target_overhead, "target_overhead")

    @property
    def dims(self) -> list:
        return [b.d for b in self.bases]


def check_times(times, N: int) -> np.ndarray:
    """N interval durations as floats, each positive, summing to 1; every
    check fails on NaN."""
    times = np.asarray(times, dtype=float)
    if times.shape != (N,):
        raise ValueError("times must have length N")
    if not np.all(times > 0):
        raise ValueError("interval durations must be positive")
    if not abs(times.sum() - 1.0) <= _TIME_TOL:
        raise ValueError("interval durations must sum to 1")
    return times


def check_overhead(overhead: float, name: str = "overhead"):
    """Refuse an overhead that is not finite and positive, NaN included: a
    zero overhead would certify a do-nothing scheme as decoupling."""
    if not 0 < overhead < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {overhead!r}")


def _adjoint_matrices(basis, sigma: np.ndarray) -> np.ndarray:
    """R[l-1][a, b] = tr(sigma_a E_l^dag sigma_b E_l) / 2 for every label l.

    Conjugation by E_l maps sigma_b to sum_a R[l-1][a, b] sigma_a; the
    matrices are real and orthogonal because E_l is unitary.  The
    row-major vec of E^dag X E is K vec(X), K = E^dag kron E^T, so with the
    K of every element built at once the traces are two products with the
    flattened sigma (sigma_a is Hermitian).
    """
    E = np.array(basis.elements)
    Ed, Et = E.conj().swapaxes(1, 2), E.swapaxes(1, 2)
    K = (Ed[:, :, None, :, None] * Et[:, None, :, None, :]).reshape(len(E), Et[0].size, -1)
    flat = sigma.reshape(len(sigma), -1)
    return (flat.conj() @ K @ flat.T).real / 2.0


def _pulse_signs(R: np.ndarray) -> np.ndarray | None:
    """Diagonals of the adjoint matrices when each is a sign matrix, else None.

    Pauli pulses map every sigma_a to +-sigma_a; the check is numeric, to
    _SIGN_TOL, so a rotated qubit basis or any d >= 3 basis gives None.
    """
    signs = np.sign(np.einsum("laa->la", R))
    if np.abs(R - signs[:, :, None] * np.eye(R.shape[1])).max() > _SIGN_TOL:
        return None
    return signs


def _adjoint(basis, sigma: np.ndarray) -> tuple:
    """(R, _pulse_signs(R)) of one basis."""
    R = _adjoint_matrices(basis, sigma)
    return R, _pulse_signs(R)


@functools.cache
def _standard_adjoint(d: int) -> tuple:
    """_adjoint of the generalized Pauli basis of d, built once and read-only."""
    R, signs = _adjoint(error_basis.generalized_pauli_basis(d), netham._gell_mann(d)[1])
    R.flags.writeable = False
    if signs is not None:
        signs.flags.writeable = False
    return R, signs


def _sign_average(hmodel: netham.PairHamiltonian, sch: PulseScheme, signs: np.ndarray):
    """(J o F, r o X t) with F = X diag(t) X^T, for pulses that act by signs.

    X[(k, a), j] = signs[k, label, a] is the sign of sigma_a under node
    k's pulse in interval j.  F is filled by row bands of its upper
    triangle and mirrored, so it is exactly symmetric and no second
    (mn)^2 array is made; its diagonal blocks are set to exact zeros.
    """
    n, m, t = hmodel.n, hmodel.m, sch.times
    D = n * m
    X = signs[np.arange(n)[:, None, None], (sch.pulses - 1)[:, None, :],
              np.arange(m)[:, None]].reshape(D, sch.N)
    r = hmodel.r * (X @ t)
    F = np.empty((D, D))
    band = m * max(1, _BAND_ROWS // m)
    for i in range(0, D, band):
        j = min(i + band, D)
        G = (X[i:j] * t) @ X[i:].T
        sq = G[:, :j - i]
        sq[...] = np.triu(sq) + np.triu(sq, 1).T
        F[i:j, i:] = G
        F[i:, i:j] = G.T
    nodes = np.arange(n)
    F.reshape(n, m, n, m)[nodes, :, nodes, :] = 0.0
    F *= hmodel.J
    return F, r


def _pair_average(hmodel: netham.PairHamiltonian, sch: PulseScheme, R: np.ndarray,
                  index: np.ndarray):
    """(J, r) of the average, one row of coupling blocks per node: the general route.

    R[index[k], a] is the adjoint matrix of label a + 1 on node k.  Grouped
    by the label pair (a, b) of nodes k and l, block J_kl becomes
    sum_ab w_ab R_ka J_kl R_lb^T.  Row k is taken in runs of nodes l > k,
    at most _RUN_ENTRIES weights or products per node: one bincount gives
    their weights, three products their blocks (R_k against the row, the
    weights contracted over a, the stacked R_l over (b, c)), and the mirror
    blocks are the transposes.
    """
    n, m, s = hmodel.n, hmodel.m, hmodel.d * hmodel.d
    labels = sch.pulses - 1
    J = np.zeros_like(hmodel.J)
    J4, H4 = J.reshape(n, m, n, m), hmodel.J.reshape(n, m, n, m)
    Rl = R.transpose(0, 1, 3, 2).reshape(len(R), s * m, m)      # Rl[i][(b, c), e] = R[i, b, e, c]
    run = max(1, _RUN_ENTRIES // max(sch.N, s * m * m))
    times = np.tile(sch.times, min(run, n))            # the weights of the longest run
    for k in range(n):
        for lo in range(k + 1, n, run):
            hi = min(lo + run, n)
            pair = labels[lo:hi] + (s * s * np.arange(hi - lo)[:, None] + s * labels[k])
            w = np.bincount(pair.ravel(), times[:pair.size], (hi - lo) * s * s)
            RJ = R[index[k]].reshape(s * m, m) @ H4[k, :, lo:hi].transpose(1, 0, 2)
            W = w.reshape(-1, s, s).swapaxes(1, 2) @ RJ.reshape(-1, s, m * m)   # (l, b, (i, c))
            blk = W.reshape(-1, s, m, m).swapaxes(1, 2).reshape(-1, m, s * m) @ Rl[index[lo:hi]]
            J4[k, :, lo:hi] = blk.transpose(1, 0, 2)
            J4[lo:hi, :, k] = blk.transpose(0, 2, 1)
    w = np.bincount((labels + s * np.arange(n)[:, None]).ravel(), np.tile(sch.times, n), n * s)
    Rbar = np.empty((n, m * m))
    for i, Ri in enumerate(R):          # sum_a w_ka R_ka for the nodes k of basis i
        Rbar[index == i] = w.reshape(n, s)[index == i] @ Ri.reshape(s, m * m)
    return J, (Rbar.reshape(n, m, m) @ hmodel.r.reshape(n, m, 1)).reshape(n * m)


def average_model(hmodel: netham.PairHamiltonian, sch: PulseScheme) -> netham.PairHamiltonian:
    """Exact average of the model under the scheme, in coefficient space.

    Each pulse acts on su(d) through its adjoint matrix R, computed from
    the basis unitaries, once per d for the shared generalized Pauli
    basis.  When every R is a sign matrix (Pauli pulses on
    qubits) the average is J o F and r o (X t), one matrix product
    (_sign_average); otherwise row by row of coupling blocks (_pair_average).
    Nothing of size d^n is built.
    """
    if hmodel.n != sch.n:
        raise ValueError("node counts differ")
    if any(d != hmodel.d for d in sch.dims):
        raise ValueError("scheme bases do not match the node dimension")
    sigma = netham._gell_mann(hmodel.d)[1]
    slot = {}                       # each distinct basis once, in order of first use
    index = np.array([slot.setdefault(id(b), len(slot)) for b in sch.bases])
    R, signs = zip(*[_standard_adjoint(b.d) if b is error_basis.generalized_pauli_basis(b.d)
                     else _adjoint(b, sigma) for b in {id(b): b for b in sch.bases}.values()])
    if all(sg is not None for sg in signs):
        J, r = _sign_average(hmodel, sch, np.array(signs)[index])
    else:
        J, r = _pair_average(hmodel, sch, np.array(R), index)
    return netham.PairHamiltonian(hmodel.n, hmodel.d, J, r)


def average_hamiltonian(hmodel: netham.PairHamiltonian, sch: PulseScheme) -> np.ndarray:
    """Exact average of the assembled model under the scheme, as a dense matrix."""
    if hmodel.d ** hmodel.n > netham.HILBERT_CAP:
        raise ValueError(f"Hilbert dimension exceeds {netham.HILBERT_CAP}")
    return netham.assemble(average_model(hmodel, sch))


def _uniform(N: int) -> np.ndarray:
    return np.full(N, 1.0 / N)


def decoupling_scheme(n: int, d: int) -> PulseScheme:
    """Switch off the whole network: strength-2 array over the d^2 labels.

    Efficient (linear-size) arrays exist whenever d is a prime power;
    other dimensions fall back to the exponential product array.
    """
    oa = designs.smallest_oa_for(n, d * d)
    basis = error_basis.generalized_pauli_basis(d)
    return PulseScheme(n, oa.N, _uniform(oa.N), oa.entries, [basis] * n)


def mixed_decoupling_scheme(dims) -> PulseScheme:
    """Decoupling for per-node dimensions via the product array."""
    dims = list(dims)
    entries = designs.mixed_product_array([d * d for d in dims])
    bases = [error_basis.generalized_pauli_basis(d) for d in dims]
    N = entries.shape[1]
    return PulseScheme(len(dims), N, _uniform(N), entries, bases)


def selective_scheme(n: int, d: int, keep) -> PulseScheme:
    """Keep one or two nodes untouched, decouple everything else.

    Kept nodes idle (identity label) while the rest run array rows, so
    the average retains exactly the couplings inside `keep` plus the
    kept local terms.  Node indices are 0-based.  Degenerate case: when
    every node is kept the scheme is a single identity interval.
    """
    keep = sorted(set(keep))
    if not 1 <= len(keep) <= 2 and len(keep) != n:
        raise ValueError("keep must name 1 or 2 nodes")
    if any(not 0 <= k < n for k in keep):
        raise ValueError("keep indices out of range")
    basis = error_basis.generalized_pauli_basis(d)
    others = [k for k in range(n) if k not in keep]
    if not others:
        return PulseScheme(n, 1, np.array([1.0]), np.ones((n, 1), dtype=int),
                           [basis] * n)
    # rows of a strength>=2 array are individually balanced, which is what
    # kills local terms and the kept-vs-rest couplings
    oa = designs.smallest_oa_for(max(2, len(others)), d * d)
    pulses = np.ones((n, oa.N), dtype=int)
    for row, node in enumerate(others):
        pulses[node] = oa.entries[row]
    return PulseScheme(n, oa.N, _uniform(oa.N), pulses, [basis] * n)


def inversion_scheme(n: int, d: int) -> PulseScheme:
    """Simulate -H: normal-form array with the identity column removed.

    The full array averages every term to zero; subtracting the
    identity column leaves -H across the remaining N-1 columns, hence
    time overhead exactly N-1.
    """
    oa = designs.smallest_oa_for(n, d * d)
    oa = designs.normalize_oa(oa)
    if not (oa.entries[:, 0] == 1).all():
        raise RuntimeError("normal form lost the identity column")
    pulses = oa.entries[:, 1:]
    N = oa.N - 1
    basis = error_basis.generalized_pauli_basis(d)
    return PulseScheme(n, N, _uniform(N), pulses, [basis] * n,
                       target_overhead=float(N))


def residual_report(num: float, scale: float) -> dict:
    """Verdict on the residual num / scale, scale the norm of the model under test.

    A zero model has nothing to scale by: its residual is 0 when num is
    exactly 0 and infinite otherwise, so it passes only against a zero
    target.
    """
    residual = float(num / scale) if scale > 0 else (0.0 if num == 0 else math.inf)
    return {"ok": residual <= RESIDUAL_TOL, "residual": residual}


def verify_scheme(hmodel: netham.PairHamiltonian, sch: PulseScheme,
                  target: netham.PairHamiltonian | float | None,
                  overhead: float | None = None) -> dict:
    """Frobenius residual of overhead*average against the target model, from coefficients.

    A number c as target stands for c*hmodel, None for the zero model;
    neither is built.  The residual is relative to the model's own norm, so
    rescaling the model and target together cannot change the verdict.
    """
    sub, c = (target, 1.0) if isinstance(target, netham.PairHamiltonian) else (hmodel, target)
    if (sub.n, sub.d) != (hmodel.n, hmodel.d):
        raise ValueError("target and model differ in n or d")
    overhead = sch.target_overhead if overhead is None else overhead
    check_overhead(overhead)
    diff = average_model(hmodel, sch)
    diff.J *= overhead
    diff.r *= overhead
    if c:                               # by row bands, so no second (mn)^2 array is made
        for i in range(0, diff.J.shape[0], _BAND_ROWS):
            diff.J[i:i + _BAND_ROWS] -= c * sub.J[i:i + _BAND_ROWS]
        diff.r -= c * sub.r
    return residual_report(netham.frobenius_norm(diff), netham.frobenius_norm(hmodel))


# ---------------------------------------------------------------------------
# serialization

def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


def scheme_to_json(sch: PulseScheme) -> dict:
    doc = {
        "n": sch.n,
        "N": sch.N,
        "times": sch.times.tolist(),
        "pulses": sch.pulses.tolist(),
        "target_overhead": sch.target_overhead,
    }
    if _is_standard_basis(sch.bases):
        doc["d"] = sch.bases[0].d
        doc["basis"] = "generalized_pauli"
    else:
        doc["d"] = sch.dims
        doc["basis"] = [[_matrix_to_pairs(e) for e in b.elements] for b in sch.bases]
    return doc


def _is_standard_basis(bases) -> bool:
    """True when every node has the generalized Pauli basis of one common d.

    The shared basis is taken by identity; any other distinct basis
    object is compared with it once, entry by entry.
    """
    distinct = list({id(b): b for b in bases}.values())
    if len({b.d for b in distinct}) != 1:
        return False
    try:
        ref = error_basis.generalized_pauli_basis(distinct[0].d)
    except ValueError:          # a dimension with no standard basis
        return False
    return all(b is ref or all(np.abs(x - y).max() < 1e-12
                               for x, y in zip(b.elements, ref.elements))
               for b in distinct)


def _basis_from_json(d, elements) -> error_basis.UnitaryErrorBasis:
    """One node's custom basis: d^2 matrices of d x d [re, im] pairs."""
    d = netham.json_int({"d": d}, "d")
    pairs = netham.json_floats({"basis": elements}, "basis")
    if d < 1 or pairs.shape != (d * d, d, d, 2):
        raise ValueError(f"a basis of dimension {d} must hold {d * d} "
                         f"{d}x{d} matrices of [re, im] pairs")
    return error_basis.UnitaryErrorBasis(d, pairs.view(complex)[..., 0])


def scheme_from_json(doc: dict) -> PulseScheme:
    if doc.get("basis") == "generalized_pauli":
        d = netham.json_int(doc, "d")
        bases = [error_basis.generalized_pauli_basis(d)] * netham.json_int(doc, "n")
    else:
        dims, mats = doc.get("d"), doc.get("basis")
        if not (isinstance(dims, list) and isinstance(mats, list) and len(dims) == len(mats)):
            raise ValueError("field 'basis' must be 'generalized_pauli' or one basis per "
                             "entry of a list 'd'")
        bases = [_basis_from_json(dd, els) for dd, els in zip(dims, mats)]
    overhead = doc.get("target_overhead", 1.0)
    if isinstance(overhead, bool) or not isinstance(overhead, (int, float)):
        raise ValueError(f"field 'target_overhead' must be a number, got {overhead!r}")
    return PulseScheme(netham.json_int(doc, "n"), netham.json_int(doc, "N"),
                       netham.json_floats(doc, "times"),
                       netham.json_int_rows(doc, "pulses"),
                       bases, float(overhead))
