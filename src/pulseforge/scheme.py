"""Pulse schemes and the exact average-Hamiltonian engine.

A scheme runs the network through N intervals; in interval j node k is
conjugated by basis element pulses[k][j] of its own unitary error
basis.  The engine computes the algebraic average
sum_j times[j] U_j^dag H U_j exactly (fast-control limit, no Trotter
error) in coefficient space: each pulse acts on su(d) through a real
adjoint matrix, so average_model() maps the model's coupling blocks and
local vectors to those of the averaged model, built symmetric and not
checked again, without touching the d^n-dimensional space, and
verify_scheme() compares the result with a target model there.  The
average sees the pulses only through each node pair's time-weighted
table of label pairs, applied by one route for every d and every basis.
The adjoint matrices of any unitary error basis sum to zero (the basis
averages every traceless operator away), so a table w counts only through
D = P^T w P, P = [I; -1]: one Gram of indicator rows anchored on the last
label, which drops out of every table and adjoint layout.  The engine walks
a list of the pairs whose D is nonzero: tables u_a + v_b, as a strength-2
array's, give exact zeros at every d, and time reversal's scale H by -1/(N-1).
The shared basis's adjoint layouts are built once per process, a custom
basis's per call.  average_hamiltonian() realizes the average as a dense
matrix; the d^n conjugation average it is tested against lives with the
tests.  The synthesizers pick pulse matrices from orthogonal arrays and run
them on the shared generalized Pauli basis for equal times (_pauli_scheme):

* decoupling: any strength-2 array with one row per node zeroes every
  coupling and every local term, exactly;
* selective recoupling: identity pulses on the kept nodes, array rows
  on the rest, leaves exactly the kept sub-model;
* time reversal: the array as built, its first column all identity,
  with that column dropped, making the remaining columns sum to -H at
  time overhead N-1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import designs, error_basis, netham

RESIDUAL_TOL = 1e-9
_TIME_TOL = 1e-12
_SNAP_TOL = 1e-12        # adjoint entries this close to an integer are set to it
_APPLY_ENTRIES = 1 << 18  # entries of Y or of a product per chunk of average_model


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
        self.pulses = netham.numbers(self.pulses, "pulses", whole=True)
        if self.pulses.shape != (self.n, self.N):
            raise ValueError("pulse matrix must be n x N")
        if len(self.bases) != self.n:
            raise ValueError("need one basis per node")
        hi = np.array([b.d * b.d for b in self.bases])
        out = (self.pulses.min(axis=1) < 1) | (self.pulses.max(axis=1) > hi)
        if out.any():
            k = int(out.argmax())
            raise ValueError(f"pulse labels of node {k} out of [1, {hi[k]}]")
        check_overhead(self.target_overhead, "target_overhead")

    @classmethod
    def _built(cls, n: int, N: int, times: np.ndarray, pulses: np.ndarray, bases: list,
               target_overhead: float) -> PulseScheme:
        """A scheme built with valid times, an n x N int matrix of labels in
        [1, d^2] and one basis per node; not checked."""
        sch = object.__new__(cls)
        sch.n, sch.N, sch.times, sch.pulses = n, N, times, pulses
        sch.bases, sch.target_overhead = bases, target_overhead
        return sch

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
    flattened sigma (sigma_a is Hermitian).  Entries within _SNAP_TOL of an
    integer are set to it, so Pauli pulses on qubits act by exact signs and
    the identity label by exactly I: a table whose anchored part lies on
    the identity pair alone, as in time reversal, scales J_kl exactly.
    Since sum_l E_l X E_l^dag = d tr(X) I for a unitary error basis, the
    matrices of all d^2 labels sum to zero (to rounding); average_model
    relies on that, at every d, to anchor every table on the last label.
    """
    E, sigma = np.array(basis.elements), netham._gell_mann(basis.d)
    Ed, Et = E.conj().swapaxes(1, 2), E.swapaxes(1, 2)
    K = (Ed[:, :, None, :, None] * Et[:, None, :, None, :]).reshape(len(E), Et[0].size, -1)
    flat = sigma.reshape(len(sigma), -1)
    R = (flat.conj() @ K @ flat.T).real / 2.0
    whole = np.round(R)
    return np.where(np.abs(R - whole) <= _SNAP_TOL, whole, R)


def _layouts(R: np.ndarray) -> tuple:
    """(Ra, Rb) of adjoint matrices R less label s: Ra[a] = R[a].ravel(), Rb[a] = R[a].T."""
    return R[:-1].reshape(len(R) - 1, -1), np.ascontiguousarray(R[:-1].transpose(0, 2, 1))


@functools.cache
def _standard_adjoint(d: int) -> tuple:
    """_layouts of the generalized Pauli basis of d, built once and read-only."""
    Ra, Rb = _layouts(_adjoint_matrices(error_basis.generalized_pauli_basis(d)))
    Ra.flags.writeable = Rb.flags.writeable = False
    return Ra, Rb


def average_model(hmodel: netham.PairHamiltonian, sch: PulseScheme) -> netham.PairHamiltonian:
    """Exact average of the model under the scheme, in coefficient space.

    Each pulse acts on su(d) through its adjoint matrix R; R[k, a] is the
    adjoint of label a + 1 on node k, for any basis per node.  The pulses
    enter only through the time w_ab that nodes k and l spend with labels
    a and b: block J_kl becomes sum_ab w_ab R_ka J_kl R_lb^T and r_k becomes
    sum_a w_a R_ka r_k, divided by the total time last.  As sum_a R_ka = 0,
    any u_a + v_b may be taken from a table, so each is anchored on label s,
    which drops out of tables and R alike: D = P^T w P and P^T w_k, with
    P = [I; -1], are one Gram of anchored indicator rows and their sums,
    from designs._pair_tables a band of node pairs at a time.  A band takes
    the labels where its D departs, and walks its pairs l > k whose D is not
    zero in chunks of _APPLY_ENTRIES product entries, all-zero J skipped:
    Y_b = sum_a D_ab R_ka, Z_b = Y_b J_kl, block sum_b Z_b R_lb^T, Y once if
    a chunk's pairs share one D and every node one basis.  Blocks land above the
    diagonal; a band that took one is mirrored once, in strips of _APPLY_ENTRIES
    entries, so the average is exactly symmetric with zero diagonal blocks.
    """
    if hmodel.n != sch.n:
        raise ValueError("node counts differ")
    adjoint = {id(b): b for b in sch.bases}        # each distinct basis once
    if any(b.d != hmodel.d for b in adjoint.values()):
        raise ValueError("scheme bases do not match the node dimension")
    n, m, s = hmodel.n, hmodel.m, hmodel.d * hmodel.d
    adjoint = {key: _standard_adjoint(b.d) if b is error_basis.generalized_pauli_basis(b.d)
               else _layouts(_adjoint_matrices(b)) for key, b in adjoint.items()}
    (Ra, Rb), *others = adjoint.values()            # per-node copies, or one basis's views
    Ra, Rb = (np.array([adjoint[id(b)][x] for b in sch.bases]) if others
              else np.ndarray((n, *y.shape), y.dtype, y, strides=(0, *y.strides))
              for x, y in enumerate((Ra, Rb)))
    total, weights = (sch.N, None) if (sch.times == sch.times[0]).all() else (1.0, sch.times)
    J, r, Hrows = np.zeros(hmodel.J.shape), np.empty(hmodel.r.shape), hmodel.J.reshape(-1, m)
    Jrows = J.view((np.void, J.itemsize * m)).ravel()   # row (k, e, l) holds J_kl[e], one item
    chunk, strip = (max(1, _APPLY_ENTRIES // x) for x in (s * m * m, n * m))   # pairs, rows
    cell, one = np.arange(m)[:, None], slice(None if others else 1)    # one basis: one R
    for k, l, tables, node in designs._pair_tables(sch.pulses, s, weights, anchored=True):
        K, L = tables.shape[:2]
        if k == l:                  # the band's own rows: their node tables
            Rbar = (node[:, None] @ Ra[k:k + K]).reshape(K, m, m) / total
            r[k * m:(k + K) * m] = (Rbar @ hmodel.r[k * m:(k + K) * m].reshape(K, m, 1)).ravel()
            tables[np.arange(K), np.arange(K)] = 0.0    # a node is no pair of its own
        if not tables.any():
            continue                # no pair of the band has a table that counts
        D4, wrote = tables.transpose(0, 2, 1, 3), False     # (k, a, l, b), as built; no block yet
        nz = np.einsum("kalb,kalb->ab", D4, D4) != 0    # (a, b): where the band's D departs
        a, b = (slice(None) if x.all() else x.nonzero()[0] for x in (nz.any(1), nz.any(0)))
        live = np.einsum("kalb,kalb->kl", *(D4[:, a][..., b],) * 2)    # |D|^2 on those labels
        live = (live * (np.arange(l, l + L) > np.arange(k, k + K)[:, None])).ravel().nonzero()[0]
        for c in range(0, len(live), chunk):        # the pairs l > k whose D is not zero
            p, q = np.divmod(live[c:c + chunk], L)
            at = cell * n + ((k + p) * m * n + l + q)   # (e, pair): the rows of J_kl
            HJ = Hrows.take(at, axis=0)
            if not HJ.any():
                continue            # zero blocks average to exact zeros
            D = D4.reshape(-1, m).take(cell[a] * L + (p * m * L + q), axis=0)[..., b]
            g = 1 if not others and (D[:, 1:] == D[:, :-1]).all() else len(p)   # one D: Y once
            D, Rk, Rl = D[:, :g].transpose(1, 2, 0), Ra[k + p[one]][:, a], Rb[l + q[one]][:, b]
            Y = (D.reshape(len(Rk), -1, D.shape[2]) @ Rk).reshape(g, -1, m, m)    # (g, b, x, e)
            Z = Y.swapaxes(1, 2).reshape(g, -1, m) @ HJ.reshape(m, g, -1).transpose(1, 0, 2)
            Z = Z.reshape(g, m, -1, len(p) // g, m).swapaxes(2, 3)    # (g, x, pair, b, f)
            blk = Z.reshape(len(Rl), -1, Rl[0].size // m) @ Rl.reshape(len(Rl), -1, m) / total
            Jrows[at.reshape(m, g, -1).swapaxes(0, 1)] = blk.view(Jrows.dtype).reshape(g, m, -1)
            wrote = True
        for e in range(k * m, (k + K) * m, strip) if wrote else ():   # mirror the band, in strips
            rows, cols = slice(e, min(e + strip, (k + K) * m)), slice(max(e, l * m), (l + L) * m)
            J[cols, rows] += J[rows, cols].T    # a band against itself: columns from e on
    return netham.PairHamiltonian._built(hmodel.n, hmodel.d, J, r)


def average_hamiltonian(hmodel: netham.PairHamiltonian, sch: PulseScheme) -> np.ndarray:
    """Exact average of the assembled model under the scheme, as a dense matrix."""
    if hmodel.d ** hmodel.n > netham.HILBERT_CAP:
        raise ValueError(f"Hilbert dimension exceeds {netham.HILBERT_CAP}")
    return netham.assemble(average_model(hmodel, sch))


def _pauli_scheme(pulses: np.ndarray, d: int, overhead: float = 1.0) -> PulseScheme:
    """The scheme of an n x N int pulse matrix of labels in [1, d^2] on the
    shared generalized Pauli basis of d, every interval of equal time; the
    callers build the matrix valid, so it is not checked again."""
    n, N = pulses.shape
    return PulseScheme._built(n, N, np.full(N, 1.0 / N), pulses,
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
    """Simulate -H: the array as built with its all-identity column 0 removed.

    The full array averages every term to zero; subtracting the
    identity column leaves -H across the remaining N-1 columns, hence
    time overhead exactly N-1.  Every array smallest_oa_for builds has
    that column, so no normal form is taken.
    """
    oa = designs.smallest_oa_for(n, d * d)
    if not (oa.entries[:, 0] == 1).all():
        raise RuntimeError("smallest_oa_for built an array whose column 0 is not all identity")
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
    diff = average_model(hmodel, sch)       # scaled and shifted in place into the difference
    diff.J *= overhead
    diff.r = overhead * diff.r - (c or 0.0) * sub.r     # None is the zero model
    if c:
        for row, want in zip(diff.J, sub.J):    # a row at a time: no second (mn)^2 array
            row -= c * want
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
    d = netham.numbers(d, "field 'd'", 0, whole=True)
    pairs = netham.numbers(elements, "field 'basis'")
    if d < 1 or pairs.shape != (d * d, d, d, 2):
        raise ValueError(f"a basis of dimension {d} must hold {d * d} "
                         f"{d}x{d} matrices of [re, im] pairs")
    return error_basis.UnitaryErrorBasis(d, pairs.view(complex)[..., 0])


def scheme_from_json(doc: dict) -> PulseScheme:
    """The scheme of a file; its n is checked against the pulse matrix before
    one basis per node is built."""
    n, N = (netham.numbers(netham.json_field(doc, k), f"field {k!r}", 0, whole=True) for k in "nN")
    pulses = netham.numbers(netham.json_field(doc, "pulses"), "field 'pulses'", whole=True)
    if pulses.shape != (n, N):
        raise ValueError("pulse matrix must be n x N")
    dims, basis = netham.json_field(doc, "d"), netham.json_field(doc, "basis")
    if basis == "generalized_pauli":
        d = netham.numbers(dims, "field 'd'", 0, whole=True)
        bases = [error_basis.generalized_pauli_basis(d)] * n
    elif isinstance(dims, list) and isinstance(basis, list) and len(dims) == len(basis):
        bases = [_basis_from_json(dd, els) for dd, els in zip(dims, basis)]
    else:
        raise ValueError("field 'basis' must be 'generalized_pauli' or one basis per "
                         "entry of a list 'd'")
    overhead = (netham.numbers(doc["target_overhead"], "field 'target_overhead'", 0)
                if "target_overhead" in doc else 1.0)
    times = netham.numbers(netham.json_field(doc, "times"), "field 'times'")
    return PulseScheme(n, N, times, pulses, bases, overhead)
