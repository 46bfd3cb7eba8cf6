"""Pair-interaction network Hamiltonians on n nodes of dimension d.

A model is stored coordinate-free: a real symmetric coupling matrix J
of shape (m*n, m*n) with m = d^2-1, zero diagonal blocks, plus a local
coefficient vector r.  Block (k, l) holds the coefficients of
sigma_alpha^(k) sigma_beta^(l); the sum runs over ordered pairs k != l,
so an unordered coupling appears twice, once as J_kl and once as its
transpose.  assemble() realizes the model as a dense Hermitian matrix
on the d^n-dimensional Hilbert space, at most HILBERT_CAP wide, for
scheme.average_hamiltonian() and for the tests' dense references;
frobenius_norm() gives that matrix's norm from the coefficients alone,
which is how schemes are certified without it.  embed_terms() writes
it, all nonzero entries at once; a model part (J or r) that is exactly
zero builds nothing.  The index tables, the pair list and
gell_mann_basis(d) are read-only arrays built once per size and shared.
_check_symmetric() is the one check of a real symmetric input, and
json_field() and numbers() are the one reader of the numbers a file or
caller hands in: a missing field, and a ragged, ill-typed, non-finite or
(for labels and sizes) fractional value, are refused there.  Every
model passed in or read is checked, r included; random_model() and
scheme.average_model() build theirs unchecked (PairHamiltonian._built()).
"""

from __future__ import annotations

import functools
import itertools
import reprlib
from dataclasses import dataclass, field

import numpy as np

HILBERT_CAP = 4096

_SHORT = reprlib.Repr()     # a refused value, cut short enough for a one-line error
_SHORT.maxlevel, _SHORT.maxstring, _SHORT.maxlong, _SHORT.maxother = 3, 80, 80, 80


def gell_mann_basis(d: int) -> np.ndarray:
    """Generalized Gell-Mann matrices stacked (d^2-1, d, d): symmetric,
    antisymmetric, then diagonal; a traceless Hermitian basis of su(d) with
    tr(sigma_a sigma_b) = 2 delta_ab.

    For d = 2 this is exactly (sigma_x, sigma_y, sigma_z).
    """
    return _gell_mann(d)


@functools.cache
def _gell_mann(d: int) -> np.ndarray:
    if not 2 <= d <= 4:
        raise ValueError(f"node dimension {d} out of supported range [2, 4]")
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for t in range(l):
            m[t, t] = 1
        m[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    stacked = np.array(mats)
    stacked.flags.writeable = False     # and so are the matrices, its views
    return stacked


def _check_symmetric(M, name: str, tol: float = 1e-12) -> np.ndarray:
    """M as a float array; ValueError naming M when it is not square, not finite (read
    from max|M|, which NaN and inf carry) or max|M - M^T| > tol * max(1, max|M|)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    top = float(np.abs(M).max(initial=0.0))
    if not np.isfinite(top):
        raise ValueError(f"{name} must hold finite numbers")
    asym = M - M.T
    if not np.abs(asym, out=asym).max(initial=0.0) <= tol * max(1.0, top):  # one temporary
        raise ValueError(f"{name} must be symmetric")
    return M


@dataclass(eq=False)
class PairHamiltonian:
    """n-node model: symmetric J with zero diagonal blocks, local vector r."""

    n: int
    d: int
    J: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)

    def __post_init__(self):
        m, mn = self.m, self.m * self.n
        self.r = numbers(self.r, "r")
        if np.shape(self.J) != (mn, mn):
            raise ValueError(f"J must be {mn}x{mn}")
        if self.r.shape != (mn,):
            raise ValueError(f"r must have length {mn}")
        self.J = _check_symmetric(self.J, "J")
        nodes = np.arange(self.n)
        if np.any(self.J.reshape(self.n, m, self.n, m)[nodes, :, nodes, :] != 0.0):
            raise ValueError("diagonal blocks of J must be zero")

    @classmethod
    def _built(cls, n: int, d: int, J: np.ndarray, r: np.ndarray) -> PairHamiltonian:
        """A model built finite, symmetric, zero on the diagonal blocks; not checked.

        The library's one unchecked constructor, because the check reads all of
        the (mn)^2 J: 0.23-0.42 s a model at the caps (1365, 2), (512, 3) and
        (273, 4), one BLAS thread, and a cap command builds two models."""
        h = object.__new__(cls)
        h.n, h.d, h.J, h.r = n, d, J, r
        return h

    @property
    def m(self) -> int:
        return self.d * self.d - 1


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> np.ndarray:
    """np.triu_indices(n, 1) as one read-only (P, 2) array of the node pairs k < l."""
    pairs = np.column_stack(np.triu_indices(n, 1))
    pairs.flags.writeable = False
    return pairs


@functools.lru_cache(maxsize=32)
def _embed_tables(n: int, d: int, k: int, packed: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int32 (local, other) for the (T, k) intp sites packed: op t's entry
    (a, b) lands at local[t, a*d^k + b] + other[t, x] of the flattened H, for each digit
    pattern x of the other nodes; indices below HILBERT_CAP^2 = 2^24 fit int32."""
    sites = np.frombuffer(packed, dtype=np.intp).reshape(-1, k)
    dim, place = d ** n, d ** np.arange(n - 1, -1, -1)
    A = place[sites] @ (np.arange(d ** k)[:, None] // d ** np.arange(k - 1, -1, -1) % d).T
    free = (np.arange(dim)[:, None] // place % d)[:, sites] == 0        # (d^n, T, k)
    local = (A[:, :, None] * dim + A[:, None, :]).astype(np.int32).reshape(len(sites), -1)
    other = (np.nonzero(free.all(axis=2).T)[1] * (dim + 1)).astype(np.int32).reshape(len(sites), -1)
    local.flags.writeable = other.flags.writeable = False
    return local, other


def embed_terms(n: int, d: int, sites, ops, H: np.ndarray | None = None) -> np.ndarray:
    """Dense sum of few-node operators on (C^d)^{tensor n}, added into H (new when None).

    ops[t] is a (d^k, d^k) matrix in the kron order of the ascending nodes
    sites[t] of the (T, k) array `sites`.  Its nonzero entries are written on
    every diagonal digit pattern of the other nodes by one np.add.at, in term
    order, so each entry of H adds up its terms in the order given.
    """
    if d ** n > HILBERT_CAP:
        raise ValueError(f"Hilbert dimension d^n exceeds {HILBERT_CAP}")
    H = np.zeros((d ** n, d ** n), dtype=complex) if H is None else H
    sites, flat = np.asarray(sites, dtype=np.intp), np.asarray(ops).reshape(-1)
    nz = np.flatnonzero(flat)
    if nz.size:
        local, other = _embed_tables(n, d, sites.shape[1], sites.tobytes())
        index = (other[nz // local.shape[1]] + local.reshape(-1)[nz, None]).reshape(-1)
        # a 1-d index keeps np.add.at on its fast path
        np.add.at(H.reshape(-1), index, np.repeat(flat[nz], other.shape[1]))
    return H


def assemble(h: PairHamiltonian) -> np.ndarray:
    """Dense Hermitian realization of the model on (C^d)^{tensor n}.

    J and r are coordinates in the Gell-Mann basis of su(d).  One d^2 x d^2
    operator per pair, sigma_flat^T (2 J_kl) sigma_flat with its axes
    reordered from (i, j, k, l) to (i, k, j, l), then one d x d operator per
    node, are embedded into one matrix, each part (J, r) only when nonzero.
    """
    d, dd, m, n = h.d, h.d * h.d, h.m, h.n
    if d ** n > HILBERT_CAP:
        raise ValueError(f"Hilbert dimension d^n exceeds {HILBERT_CAP}")
    flat, H = _gell_mann(d).reshape(m, dd), np.zeros((d ** n, d ** n), dtype=complex)
    if h.J.any():
        pairs = _pairs(n)
        # ordered-pair convention: J_kl and its transpose both contribute
        blocks = 2.0 * h.J.reshape(n, m, n, m)[pairs[:, 0], :, pairs[:, 1], :]
        ops = (flat.T @ blocks @ flat).reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4)
        embed_terms(n, d, pairs, ops, H)
    if h.r.any():
        embed_terms(n, d, np.arange(n)[:, None], h.r.reshape(n, m) @ flat, H)
    return H


def frobenius_norm(h: PairHamiltonian) -> float:
    """||assemble(h)||_F from the coefficients, without the dense build.

    Products of traceless basis elements on distinct nodes are
    orthogonal, so ||H||_F^2 = d^(n-2) (16 sum_{k<l} ||J_kl||^2 + 2d ||r||^2);
    each unordered pair sits in J twice.  np.vdot makes no (mn)^2 temporary.
    """
    J2, r2 = float(np.vdot(h.J, h.J)), float(np.vdot(h.r, h.r))
    return float(np.sqrt(8.0 * J2 + 2.0 * h.d * r2) * np.sqrt(float(h.d)) ** (h.n - 2))


def random_model(n: int, d: int, seed: int) -> PairHamiltonian:
    """Seeded model coupling every node pair, with coupling and local entries in
    [-1, 1]: one m x m block per pair k < l, in row-major order, then r."""
    return _seeded_model(n, d, seed, _pairs(n))


def _seeded_model(n: int, d: int, seed: int, pairs) -> PairHamiltonian:
    """Seeded model coupling only the (P, 2) node pairs k < l given, in their order:
    np.random.default_rng(seed) draws one m x m block in [-1, 1] per pair, then r."""
    rng = np.random.default_rng(seed)
    m = d * d - 1
    k, l = np.asarray(pairs, dtype=np.intp).reshape(-1, 2).T
    blocks = rng.uniform(-1.0, 1.0, size=(k.size, m, m))
    J = np.zeros((m * n, m * n))
    J4 = J.reshape(n, m, n, m)
    J4[k, :, l, :] = blocks
    J4[l, :, k, :] = blocks.transpose(0, 2, 1)
    r = rng.uniform(-1.0, 1.0, size=m * n)
    return PairHamiltonian._built(n, d, J, r)     # finite, mirrored, diagonal blocks never set


def model_to_json(h: PairHamiltonian) -> dict:
    return {"n": h.n, "d": h.d, "J": h.J.tolist(), "r": h.r.tolist()}


def json_field(doc: dict, key: str):
    """doc[key]; ValueError naming the field when it is missing."""
    if key not in doc:
        raise ValueError(f"field {key!r} is missing")
    return doc[key]


def numbers(values, name: str, ndim: int | None = None, whole: bool = False):
    """values as a float array, an int array when whole, a Python number when ndim == 0.

    ValueError naming `name` when values is ragged or not of rank ndim (any
    rank when None), or holds a non-number, a bool or a non-finite entry, or,
    when whole, a float that is not a whole number below 2^53 or an int beyond
    int64.  Whole floats are read as ints, where a cast would truncate 1.7 to
    a valid label.  Only nested lists are scanned for bools, which numpy reads
    as 0 or 1 beside numbers.  Unsigned ints, listed or numpy, pass up to the
    int64 maximum; numpy reads a Python int beyond it as uint64 (or as an object).
    """
    try:
        array = np.asarray(values)
    except ValueError:                  # ragged
        array = np.empty(0, dtype=object)
    kind, listed = array.dtype.kind, not isinstance(values, np.ndarray)
    if whole and kind == "f" and np.all((array == np.round(array)) & (np.abs(array) < 2 ** 53)):
        array, kind = array.astype(int), "i"
    rows = [values] if listed and array.ndim else []     # a nested list, scanned for bools
    for _ in range(array.ndim - 1 if rows else 0):
        rows = itertools.chain.from_iterable(rows)
    if (kind not in ("iu" if whole else "iuf")
            or ndim is not None and array.ndim != ndim
            or kind == "f" and not np.isfinite(array).all()
            or whole and kind == "u" and array.size and array.max() > np.iinfo(np.int64).max
            or rows and any(bool in set(map(type, row)) for row in rows)):
        if ndim == 0:
            raise ValueError(f"{name} must be {'an integer' if whole else 'a finite number'}, "
                             f"got {_SHORT.repr(values)[:80]}")
        raise ValueError(f"{name} must hold {'integers' if whole else 'finite numbers'}"
                         + (f" in {ndim} dimensions" if ndim else ""))
    array = array.astype(int if whole else float, copy=False)
    return array.item() if ndim == 0 else array


def model_from_json(doc: dict) -> PairHamiltonian:
    n, d = (numbers(json_field(doc, k), f"field {k!r}", 0, whole=True) for k in ("n", "d"))
    return PairHamiltonian(n, d, *(numbers(json_field(doc, k), f"field {k!r}") for k in "Jr"))
