"""Pulse schemes and the exact average-Hamiltonian engine.

A scheme runs the network through N intervals; in interval j node k is
conjugated by basis element pulses[k][j] of its own unitary error
basis.  The engine computes the algebraic average
sum_j times[j] U_j^dag H U_j exactly (fast-control limit, no Trotter
error) in coefficient space: each pulse acts on su(d) through a real
adjoint matrix, so average_model() maps the model's coupling blocks and
local vectors to those of the averaged model without touching the
d^n-dimensional space, and verify_scheme() compares the result with a
target model there.  The average sees the pulses only through each
node pair's table of label pairs, weighted by time, and one route applies
those tables for every d and every basis.
average_hamiltonian() realizes the average as a dense matrix; the d^n
conjugation average it is tested against lives with the tests.  The
synthesizers pick pulse matrices from orthogonal arrays and run them on
the shared generalized Pauli basis for equal times (_pauli_scheme):

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
_APPLY_ENTRIES = 1 << 18  # entries of Y or of a product per step of _pair_average


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
        self.pulses = netham._whole_numbers(self.pulses, "pulses")
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


def _adjoint_matrices(basis) -> np.ndarray:
    """R[l-1][a, b] = tr(sigma_a E_l^dag sigma_b E_l) / 2 for every label l,
    sigma the Gell-Mann matrices of the basis's d.

    Conjugation by E_l maps sigma_b to sum_a R[l-1][a, b] sigma_a; the
    matrices are real and orthogonal because E_l is unitary.  The
    row-major vec of E^dag X E is K vec(X), K = E^dag kron E^T, so with the
    K of every element built at once the traces are two products with the
    flattened sigma (sigma_a is Hermitian).  Entries within _SIGN_TOL of an
    integer are set to it, so Pauli pulses on qubits act by exact signs
    and decouple to exact zeros.
    """
    E, sigma = np.array(basis.elements), netham._gell_mann(basis.d)
    Ed, Et = E.conj().swapaxes(1, 2), E.swapaxes(1, 2)
    K = (Ed[:, :, None, :, None] * Et[:, None, :, None, :]).reshape(len(E), Et[0].size, -1)
    flat = sigma.reshape(len(sigma), -1)
    R = (flat.conj() @ K @ flat.T).real / 2.0
    whole = np.round(R)
    return np.where(np.abs(R - whole) <= _SIGN_TOL, whole, R)


@functools.cache
def _standard_adjoint(d: int) -> np.ndarray:
    """_adjoint_matrices of the generalized Pauli basis of d, built once and read-only."""
    R = _adjoint_matrices(error_basis.generalized_pauli_basis(d))
    R.flags.writeable = False
    return R


def _pair_average(hmodel: netham.PairHamiltonian, sch: PulseScheme, R: np.ndarray):
    """(J, r) of the average; R[k, a] is the adjoint matrix of label a + 1 on node k.

    The tables w come a band of node pairs at a time from designs._pair_tables,
    at most _APPLY_ENTRIES products a step: Y_b = sum_a w_ab R_ka, then
    Z_b = J_kl^T Y_b^T and the block's transpose sum_b R_lb Z_b.  A step of
    one table builds each row's Y once and its Z in one product.
    """
    n, m, s = hmodel.n, hmodel.m, hmodel.d * hmodel.d
    Ra = R.reshape(n, s, m * m)
    Rx = R.transpose(0, 2, 3, 1).reshape(n, m, m * s)     # Rx[k][c, (e, b)] = R[k, b, c, e]
    equal = bool((sch.times == sch.times[0]).all())
    total = sch.N if equal else 1.0     # counts for equal times, else the times themselves
    J, r = np.zeros_like(hmodel.J), np.empty_like(hmodel.r)
    J4, H4 = J.reshape(n, m, n, m), hmodel.J.reshape(n, m, n, m)
    for k, l, tables in designs._pair_tables(sch.pulses, s, None if equal else sch.times):
        K, L = tables.shape[:2]
        if k == l:                  # the band's own rows: their node tables
            Rbar = (np.einsum("iiaa->ia", tables)[:, None] @ Ra[k:k + K]).reshape(K, m, m) / total
            r[k * m:(k + K) * m] = (Rbar @ hmodel.r[k * m:(k + K) * m].reshape(K, m, 1)).ravel()
        step = max(1, _APPLY_ENTRIES // (L * s * m * m))
        for i in range(0, K, step):
            i2, j = min(i + step, K), max(0, k + i - l)   # band rows i..i2 have pairs from j on
            rows, cols = slice(k + i, k + i2), slice(l + j, l + L)
            lower = np.arange(cols.start, cols.stop) <= np.arange(rows.start, rows.stop)[:, None]
            w = tables[i:i2, j:]
            HJ = H4[rows, :, cols].transpose(0, 2, 3, 1)         # (k, l, e, f): J_kl[f, e]
            if (w[~lower] == w[0, -1]).all():   # one table: each row's Y once, one product for Z
                w, HJ = w[:, -1:], HJ.reshape(i2 - i, 1, -1, m)
            Y = (w.swapaxes(2, 3).reshape(i2 - i, -1, s) @ Ra[rows]).reshape(i2 - i, -1, s, m, m)
            Z = HJ @ Y.transpose(0, 1, 4, 2, 3).reshape(i2 - i, w.shape[1], m, s * m)
            blk = Rx[cols] @ Z.reshape(i2 - i, L - j, m * s, m)     # (k, l, c, i): block_kl^T
            blk /= total
            blk[lower] = 0.0        # l <= k: no pair
            J4[rows, :, cols] += blk.transpose(0, 3, 1, 2)
            J4[cols, :, rows] += blk.transpose(1, 2, 0, 3)
    return J, r


def average_model(hmodel: netham.PairHamiltonian, sch: PulseScheme) -> netham.PairHamiltonian:
    """Exact average of the model under the scheme, in coefficient space.

    Each pulse acts on su(d) through its adjoint matrix R, built once per
    basis.  The pulses enter only through the time w_ab that nodes k and
    l spend with labels a and b: block J_kl becomes
    sum_ab w_ab R_ka J_kl R_lb^T and r_k becomes sum_a w_a R_ka r_k, for
    every d and every basis, a custom one per node included, divided by
    the total time last (_pair_average).  Nothing of size d^n is built.
    """
    if hmodel.n != sch.n:
        raise ValueError("node counts differ")
    if any(d != hmodel.d for d in sch.dims):
        raise ValueError("scheme bases do not match the node dimension")
    adjoint = {id(b): b for b in sch.bases}        # each distinct basis once
    adjoint = {key: _standard_adjoint(b.d) if b is error_basis.generalized_pauli_basis(b.d)
               else _adjoint_matrices(b) for key, b in adjoint.items()}
    J, r = _pair_average(hmodel, sch, np.array([adjoint[id(b)] for b in sch.bases]))
    return netham.PairHamiltonian(hmodel.n, hmodel.d, J, r)


def average_hamiltonian(hmodel: netham.PairHamiltonian, sch: PulseScheme) -> np.ndarray:
    """Exact average of the assembled model under the scheme, as a dense matrix."""
    if hmodel.d ** hmodel.n > netham.HILBERT_CAP:
        raise ValueError(f"Hilbert dimension exceeds {netham.HILBERT_CAP}")
    return netham.assemble(average_model(hmodel, sch))


def _pauli_scheme(pulses: np.ndarray, d: int, overhead: float = 1.0) -> PulseScheme:
    """The scheme of an n x N pulse matrix on the shared generalized Pauli
    basis of d, every interval of equal time."""
    n, N = pulses.shape
    return PulseScheme(n, N, np.full(N, 1.0 / N), pulses,
                       [error_basis.generalized_pauli_basis(d)] * n, overhead)


def decoupling_scheme(n: int, d: int) -> PulseScheme:
    """Switch off the whole network: strength-2 array over the d^2 labels.

    Efficient (linear-size) arrays exist whenever d is a prime power;
    other dimensions fall back to the exponential product array.
    """
    return _pauli_scheme(designs.smallest_oa_for(n, d * d).entries, d)


def mixed_decoupling_scheme(dims) -> PulseScheme:
    """Decoupling for per-node dimensions via the product array."""
    dims = list(dims)
    if not dims:
        raise ValueError("need at least one node dimension")
    entries = designs.mixed_product_array([d * d for d in dims])
    bases = [error_basis.generalized_pauli_basis(d) for d in dims]
    N = entries.shape[1]
    return PulseScheme(len(dims), N, np.full(N, 1.0 / N), entries, bases)


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
    others = [k for k in range(n) if k not in keep]
    if not others:
        return _pauli_scheme(np.ones((n, 1), dtype=int), d)
    # rows of a strength>=2 array are individually balanced, which is what
    # kills local terms and the kept-vs-rest couplings
    oa = designs.smallest_oa_for(max(2, len(others)), d * d)
    pulses = np.ones((n, oa.N), dtype=int)
    pulses[others] = oa.entries[:len(others)]
    return _pauli_scheme(pulses, d)


def inversion_scheme(n: int, d: int) -> PulseScheme:
    """Simulate -H: normal-form array with the identity column removed.

    The full array averages every term to zero; subtracting the
    identity column leaves -H across the remaining N-1 columns, hence
    time overhead exactly N-1.
    """
    oa = designs.normalize_oa(designs.smallest_oa_for(n, d * d))
    if not (oa.entries[:, 0] == 1).all():
        raise RuntimeError("normal form lost the identity column")
    return _pauli_scheme(oa.entries[:, 1:], d, float(oa.N - 1))


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
    overhead = netham.json_float(doc, "target_overhead") if "target_overhead" in doc else 1.0
    return PulseScheme(netham.json_int(doc, "n"), netham.json_int(doc, "N"),
                       netham.json_floats(doc, "times"),
                       netham.json_int_rows(doc, "pulses"), bases, overhead)
