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
which is how schemes are certified without it.  gell_mann_basis(d) is
one read-only (d^2-1, d, d) array, built once per d in a process and
shared.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

HILBERT_CAP = 4096
_SYM_TOL = 1e-12


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


@dataclass(eq=False)
class PairHamiltonian:
    """n-node model: symmetric J with zero diagonal blocks, local vector r."""

    n: int
    d: int
    J: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.d * self.d - 1
        mn = m * self.n
        self.J = np.asarray(self.J, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if self.J.shape != (mn, mn):
            raise ValueError(f"J must be {mn}x{mn}")
        if self.r.shape != (mn,):
            raise ValueError(f"r must have length {mn}")
        scale = max(1.0, float(np.abs(self.J).max(initial=0.0)))
        asym = self.J - self.J.T
        if np.abs(asym, out=asym).max(initial=0.0) > _SYM_TOL * scale:    # one (mn)^2 temporary
            raise ValueError("J must be symmetric")
        nodes = np.arange(self.n)
        if np.any(self.J.reshape(self.n, m, self.n, m)[nodes, :, nodes, :] != 0.0):
            raise ValueError("diagonal blocks of J must be zero")

    @property
    def m(self) -> int:
        return self.d * self.d - 1


def embed_terms(n: int, d: int, terms) -> np.ndarray:
    """Dense sum of few-node operators on (C^d)^{tensor n}.

    `terms` yields (sites, op) with ascending node indices `sites` and op
    of shape (d^len(sites), d^len(sites)) in the kron order of those
    nodes.  Each op is added through a view of the result with the
    other nodes' row and column axes on their diagonal, so no d^n-sized
    temporary is made per term.
    """
    if d ** n > HILBERT_CAP:
        raise ValueError(f"Hilbert dimension d^n exceeds {HILBERT_CAP}")
    H = np.zeros((d ** n, d ** n), dtype=complex)
    tensor = H.reshape((d,) * (2 * n))
    for sites, op in terms:
        rest = [t for t in range(n) if t not in sites]
        cols = [n + t if t in sites else t for t in range(n)]
        out = list(sites) + [n + t for t in sites] + rest
        # with no summed index einsum returns a writeable view of tensor
        view = np.einsum(tensor, list(range(n)) + cols, out)
        view += np.reshape(op, (d,) * (2 * len(sites)) + (1,) * len(rest))
    return H


def assemble(h: PairHamiltonian) -> np.ndarray:
    """Dense Hermitian realization of the model on (C^d)^{tensor n}.

    J and r are coordinates in the Gell-Mann basis of su(d).  One d^2 x d^2
    operator per coupled pair, sigma_flat^T (2 J_kl) sigma_flat with its
    axes reordered from (i, j, k, l) to (i, k, j, l), and one d x d
    operator per node are embedded, each through a view of the result.
    """
    d, dd, m, n = h.d, h.d * h.d, h.m, h.n
    flat = _gell_mann(d).reshape(m, dd)
    k, l = np.triu_indices(n, 1)
    # ordered-pair convention: J_kl and its transpose both contribute
    blocks = 2.0 * h.J.reshape(n, m, n, m)[k, :, l, :]
    pairs = (flat.T @ blocks @ flat).reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4)
    terms = [((a, b), op.reshape(dd, dd)) for a, b, op, J in zip(k, l, pairs, blocks) if J.any()]
    local = h.r.reshape(n, m)
    terms += [((a,), op) for a, op in enumerate((local @ flat).reshape(n, d, d)) if local[a].any()]
    return embed_terms(n, d, terms)


def frobenius_norm(h: PairHamiltonian) -> float:
    """||assemble(h)||_F from the coefficients, without the dense build.

    Products of traceless basis elements on distinct nodes are
    orthogonal, so ||H||_F^2 = d^(n-2) (16 sum_{k<l} ||J_kl||^2 + 2d ||r||^2);
    each unordered pair sits in J twice.
    """
    J2 = float(np.sum(h.J * h.J))
    r2 = float(np.sum(h.r * h.r))
    return float(np.sqrt(8.0 * J2 + 2.0 * h.d * r2) * np.sqrt(float(h.d)) ** (h.n - 2))


def random_model(n: int, d: int, seed: int) -> PairHamiltonian:
    """Seeded dense model with coupling and local entries in [-1, 1]."""
    rng = np.random.default_rng(seed)
    m = d * d - 1
    # one draw for every pair block, in the row-major order of the pairs k < l
    k, l = np.triu_indices(n, 1)
    blocks = rng.uniform(-1.0, 1.0, size=(k.size, m, m))
    J = np.zeros((m * n, m * n))
    J4 = J.reshape(n, m, n, m)
    J4[k, :, l, :] = blocks
    J4[l, :, k, :] = blocks.transpose(0, 2, 1)
    r = rng.uniform(-1.0, 1.0, size=m * n)
    return PairHamiltonian(n, d, J, r)


def model_to_json(h: PairHamiltonian) -> dict:
    return {"n": h.n, "d": h.d, "J": h.J.tolist(), "r": h.r.tolist()}


def json_int(doc: dict, key: str) -> int:
    """Integer field of a loaded JSON document; ValueError when it is
    missing, null or not a whole number."""
    value = doc.get(key)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def json_rows(doc: dict, key: str) -> list:
    """List-of-rows field of a loaded JSON document; ValueError when it is
    missing, null, not a list of lists or ragged."""
    rows = doc.get(key)
    if (not isinstance(rows, list) or not all(isinstance(row, list) for row in rows)
            or len({len(row) for row in rows}) > 1):
        raise ValueError(f"field {key!r} must be a list of equal-length rows")
    return rows


def _holds_bool(value, ndim: int) -> bool:
    """Whether a nested list of ndim >= 1 equal-length levels holds a bool,
    which numpy would promote to 0 or 1 beside numbers; one pass."""
    rows = [value]
    for _ in range(ndim - 1):
        rows = itertools.chain.from_iterable(rows)
    return any(bool in set(map(type, row)) for row in rows)


def _whole_numbers(values, name: str) -> np.ndarray:
    """values as an int array; ValueError naming `name` when an entry is a
    bool or not a whole number.

    Whole-number floats are accepted, as json_int accepts them; a plain
    cast to int would truncate 1.7 to a valid label.  Only a nested list
    is scanned for bools, which numpy would read as 0 or 1 beside numbers.
    """
    array = np.asarray(values)
    if array.dtype.kind == "f" and np.all((array == np.round(array)) & (np.abs(array) < 2 ** 53)):
        array = array.astype(int)
    if array.dtype.kind not in "iu" or (
            not isinstance(values, np.ndarray) and array.ndim and _holds_bool(values, array.ndim)):
        raise ValueError(f"{name} must hold integers")
    return array.astype(int, copy=False)


def json_int_rows(doc: dict, key: str) -> np.ndarray:
    """Integer matrix field of a loaded JSON document; ValueError as for
    json_rows, or when an entry is not a whole number."""
    return _whole_numbers(json_rows(doc, key), f"field {key!r}")


def json_floats(doc: dict, key: str) -> np.ndarray:
    """Number array field (vector or matrix) of a loaded JSON document;
    ValueError when it is missing, null, ragged, or an entry is not a
    finite number.  Shapes are left to the caller."""
    try:
        values = np.array(doc.get(key))
    except ValueError:                  # ragged rows
        values = None
    # str, dict and null entries give kinds U and O, all-bool ones kind b,
    # bools beside numbers kind i or f; a cast to float would read "2" as 2.0
    if (values is None or values.dtype.kind not in "iuf" or not np.isfinite(values).all()
            or (values.ndim and _holds_bool(doc[key], values.ndim))):
        raise ValueError(f"field {key!r} must hold finite numbers")
    return values.astype(float, copy=False)


def json_float(doc: dict, key: str) -> float:
    """Number field of a loaded JSON document; ValueError as for json_floats,
    or when it is not a single number."""
    value = json_floats(doc, key)
    if value.ndim:
        raise ValueError(f"field {key!r} must be a finite number")
    return float(value)


def model_from_json(doc: dict) -> PairHamiltonian:
    return PairHamiltonian(json_int(doc, "n"), json_int(doc, "d"),
                           json_floats(doc, "J"), json_floats(doc, "r"))
