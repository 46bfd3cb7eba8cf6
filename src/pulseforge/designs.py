"""Combinatorial designs behind the pulse schemes.

Two structures are provided: orthogonal arrays of strength 2 (every
ordered symbol pair appears equally often in every row pair) and
difference schemes over cyclic groups (every row-pair difference vector
is balanced).  Constructions are deterministic; verifiers recheck the
defining property exhaustively and report located violations, verify_oa
from the plain label-pair counts of _pair_tables, taken in row bands.

Symbols of an orthogonal array are labels 1..s so they can double as
indices into a unitary basis; difference schemes use residues 0..u-1.
The linear arrays are digit arithmetic plus lookups in the GF(s) tables
of :mod:`pulseforge.gf`, kept with the field vectors once per (s, i);
normal forms are label arithmetic in Z_r x Z_r (s = r^2) or Z_s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gf, netham

OA_SIZE_CAP = 2 ** 24
PRODUCT_SIZE_CAP = 10 ** 6
_BAND_ENTRIES = 1 << 22     # entries: at most a _pair_tables band factor


@dataclass(eq=False)
class OrthogonalArray:
    """Strength-2 array: n rows, N columns, entries in [1, s], index lam.

    lam must be N // s^2, the index of a valid array (N = lam * s^2 for
    n >= 2); a single-row array is vacuously valid.
    """

    n: int
    N: int
    s: int
    lam: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries = netham.numbers(self.entries, "entries", whole=True)
        if self.entries.shape != (self.n, self.N):
            raise ValueError("entry matrix shape does not match (n, N)")
        if self.entries.size and (self.entries.min() < 1 or self.entries.max() > self.s):
            raise ValueError("entries must lie in [1, s]")
        if self.s < 1 or self.lam != self.N // self.s ** 2:
            raise ValueError(f"lambda {self.lam} is not N // s^2 for N = {self.N}, s = {self.s}")


@dataclass(eq=False)
class DifferenceScheme:
    """n x N array over Z_u: row differences hit every residue N/u times."""

    n: int
    N: int
    u: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries = netham.numbers(self.entries, "entries", whole=True)
        if self.entries.shape != (self.n, self.N):
            raise ValueError("entry matrix shape does not match (n, N)")
        if self.u < 1 or self.N % self.u:
            raise ValueError("u must be positive and divide N")
        if self.entries.size and (self.entries.min() < 0 or self.entries.max() >= self.u):
            raise ValueError("entries must lie in [0, u)")


# ---------------------------------------------------------------------------
# constructions

def field_vectors(s: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """(coords, normalized): the vectors of GF(s)^i as i-row arrays.

    Column j of coords holds the vector whose coordinate t is base-s
    digit t of j, as a field encoding.  normalized keeps, in that order,
    the nonzero vectors whose first nonzero coordinate is 1.
    """
    coords = np.arange(s ** i) // s ** np.arange(i)[:, None] % s
    nonzero = coords != 0
    lead = coords[nonzero.argmax(axis=0), np.arange(s ** i)]
    return coords, coords[:, nonzero.any(axis=0) & (lead == 1)]


def rao_hamming_oa(s: int, i: int) -> OrthogonalArray:
    """Linear orthogonal array over GF(s): n = (s^i-1)/(s-1), N = s^i.

    Rows are the projectively normalized nonzero vectors of GF(s)^i
    (first nonzero coordinate = 1), columns all vectors; the entry is
    the 1-based enumeration index of the inner product.  Column 0 is
    the zero vector, so the first column is all ones (identity label).
    """
    return _rao_hamming_rows(s, i, None)


def _rao_hamming_rows(s: int, i: int, n: int | None) -> OrthogonalArray:
    """The first n rows (all for None) of rao_hamming_oa(s, i); the cap counts them all."""
    if gf.is_prime_power(s) is None:
        raise ValueError(f"alphabet size {s} is not a prime power")
    if i < 2:
        raise ValueError("need i >= 2")
    N = s ** i
    full = (N - 1) // (s - 1)
    if full * N > OA_SIZE_CAP:
        raise ValueError(f"n*N = {full * N} entries exceed the {OA_SIZE_CAP} cap")
    add, mul, _, G = _linear_parts(s, i)
    G = G[:, :n]
    # over digits 0..t, column j + s^t c is column j's sum over 0..t-1 plus G_t * c
    entries = mul[G[0]]
    for t in range(1, i):
        entries = add[entries[:, None, :], mul[G[t]][:, :, None]].reshape(G.shape[1], -1)
    return OrthogonalArray(G.shape[1], N, s, s ** (i - 2), np.add(entries, 1, dtype=int))


@functools.lru_cache(maxsize=16)
def _linear_parts(s: int, i: int) -> tuple:
    """(add, mul, C, G): gf.tables of GF(s) and field_vectors(s, i), built once per
    (s, i), read-only, in the narrowest dtype so the (n, N) temporaries stay small."""
    add, mul, C, G = (a.astype(np.min_scalar_type(s - 1))
                      for a in (*gf.tables(gf.field_for_order(s)), *field_vectors(s, i)))
    add.flags.writeable = mul.flags.writeable = C.flags.writeable = G.flags.writeable = False
    return add, mul, C, G


def product_oa(n: int, s: int) -> OrthogonalArray:
    """Exponential fallback: columns enumerate all of [1,s]^n, N = s^n."""
    if n < 1 or s < 2:
        raise ValueError("need n >= 1 and s >= 2")
    entries = mixed_product_array([s] * n)
    N = entries.shape[1]
    return OrthogonalArray(n, N, s, N // s ** 2, entries)


def mixed_product_array(sizes) -> np.ndarray:
    """All tuples over per-row alphabets [1, sizes[k]]; shape (n, prod sizes)."""
    sizes = list(sizes)
    if any(size < 1 for size in sizes):
        raise ValueError(f"alphabet sizes must be at least 1, got {sizes}")
    N = math.prod(sizes)        # exact: an int64 product wraps, to 0 for [4] * 32
    if N > PRODUCT_SIZE_CAP:
        raise ValueError(f"product {N} exceeds the {PRODUCT_SIZE_CAP} cap")
    return np.indices(sizes).reshape(len(sizes), N) + 1


def smallest_oa_for(n: int, s: int) -> OrthogonalArray:
    """Smallest array this package can build with at least n rows.

    For prime-power s: the first n rows of the linear construction with
    the least i whose row count covers n (row deletion preserves the
    defining property).  Otherwise the exponential product array.
    Either way column 0 is the all-identity column: all ones.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if gf.is_prime_power(s) is not None:
        i = 2
        while (s ** i - 1) // (s - 1) < n:
            i += 1
        return _rao_hamming_rows(s, i, n)
    return product_oa(n, s)


def normalize_oa(oa: OrthogonalArray) -> OrthogonalArray:
    """Subtract each row's first entry from the row, in the labels' group.

    For a square alphabet s = r^2, label l stands for divmod(l-1, r) in
    Z_r x Z_r, the labelling of the unitary error bases; otherwise for
    the residue l-1 in Z_s.  The first column becomes all-identity while
    the pair-count property is untouched (each row is relabeled by a
    bijection).
    """
    e = oa.entries - 1
    first = e[:, :1]
    r = math.isqrt(oa.s)
    if r * r == oa.s:
        (hi, lo), (fhi, flo) = np.divmod(e, r), np.divmod(first, r)
        e = (hi - fhi) % r * r + (lo - flo) % r
    else:
        e = (e - first) % oa.s
    return OrthogonalArray(oa.n, oa.N, oa.s, oa.lam, e + 1)


def cyclic_difference_scheme(u: int, n: int) -> DifferenceScheme:
    """Rows k = 0..n-1 of the Z_u multiplication table: entry k*j mod u.

    Rows k and l are balanced iff k-l is invertible mod u, so n may be
    at most the smallest prime factor of u (u itself when u is prime).
    """
    if u < 2:
        raise ValueError("need u >= 2")
    limit = gf._smallest_factor(u)
    if not 1 <= n <= limit:
        raise ValueError(f"row count {n} unsupported for u = {u} (max {limit})")
    return DifferenceScheme(n, u, u, np.arange(n)[:, None] * np.arange(u) % u)


def difference_scheme_for(n: int) -> DifferenceScheme:
    """Some D(n, N) over a cyclic group: the smallest prime u >= n works."""
    u = gf.next_prime(max(2, n))
    return cyclic_difference_scheme(u, n)


# ---------------------------------------------------------------------------
# verification

def _pair_tables(labels: np.ndarray, s: int):
    """Yield (k, l, tables), k <= l: the label-pair counts of the row bands from
    k and l, for verify_oa.  Row k of the (n, N) labels 1..s gives s one-hot
    rows; tables[i, j] is the Gram product of the rows of k + i and l + j.  The
    whole Gram is (n s)^2, unbounded in s (n s = 63252 for rao_hamming_oa(251,
    2)), hence the bands; column chunks of at most _BAND_ENTRIES entries a
    factor are float32 (exact), summed in float64."""
    n, N = labels.shape
    rows = max(1, min(n, math.isqrt(_BAND_ENTRIES) // s))
    cols = max(1, _BAND_ENTRIES // (rows * s))

    def indicators(k: int, c: int) -> np.ndarray:     # rows (k + i, a), columns c..
        block = labels[k:k + rows, None, c:c + cols]
        ind = (block == np.arange(1, s + 1)[:, None]).astype(np.float32)
        return ind.reshape(-1, ind.shape[-1])

    for k in range(0, n, rows):
        for l in range(k, n, rows):
            t = np.zeros((min(rows, n - k) * s, min(rows, n - l) * s))
            for c in range(0, N, cols):
                ind = indicators(k, c)
                t += ind @ (ind if l == k else indicators(l, c)).T    # ind @ ind.T is symmetric
            yield k, l, t.reshape(t.shape[0] // s, s, -1, s).transpose(0, 2, 1, 3)


def verify_oa(oa: OrthogonalArray) -> dict:
    """Exhaustive pair-count check; ok iff every count is lam (violations in row-pair order)."""
    found = [np.empty((5, 0), dtype=int)]
    for k, l, tables in _pair_tables(oa.entries, oa.s):
        at = np.nonzero(tables != oa.lam)
        pair = k + at[0] < l + at[1]         # a row against itself is no pair
        found.append(np.array([k + at[0], l + at[1], *at[2:], tables[at]], dtype=int)[:, pair])
    v = np.concatenate(found, axis=1)
    violations = [{"rows": (k, l), "pair": (a + 1, b + 1), "count": c, "expected": oa.lam}
                  for k, l, a, b, c in v[:, np.lexsort(v[3::-1])].T.tolist()]
    return {"ok": not violations, "violations": violations}


def verify_difference_scheme(ds: DifferenceScheme) -> dict:
    """Row-pair difference vectors must hit every residue N/u times (violations in pair order)."""
    violations, want, u = [], ds.N // ds.u, ds.u
    for k in range(ds.n - 1):       # rows l > k at once, each offset into its own u bins
        diff = (ds.entries[k] - ds.entries[k + 1:]) % u + u * np.arange(ds.n - k - 1)[:, None]
        counts = np.bincount(diff.ravel(), minlength=u * (ds.n - k - 1)).reshape(-1, u)
        l, r = np.nonzero(counts != want)
        violations += [{"rows": (k, k + 1 + i), "element": j, "count": c, "expected": want}
                       for i, j, c in zip(l.tolist(), r.tolist(), counts[l, r].tolist())]
    return {"ok": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# serialization

def design_to_json(obj) -> dict:
    if isinstance(obj, OrthogonalArray):
        return {"kind": "oa", "n": obj.n, "N": obj.N, "s": obj.s,
                "lambda": obj.lam, "entries": obj.entries.tolist()}
    if isinstance(obj, DifferenceScheme):
        return {"kind": "ds", "n": obj.n, "N": obj.N, "u": obj.u,
                "entries": obj.entries.tolist()}
    raise TypeError(f"not a design: {type(obj).__name__}")


def design_from_json(doc: dict):
    kind = netham.json_field(doc, "kind")
    if kind not in ("oa", "ds"):
        raise ValueError(f"unknown design kind: {kind!r}")
    cls, keys = ((OrthogonalArray, ("n", "N", "s", "lambda")) if kind == "oa"
                 else (DifferenceScheme, ("n", "N", "u")))
    entries = netham.numbers(netham.json_field(doc, "entries"), "field 'entries'", whole=True)
    return cls(*(netham.numbers(netham.json_field(doc, k), f"field {k!r}", 0, whole=True)
                 for k in keys), entries)


def entries_to_csv(entries: np.ndarray) -> str:
    """One line per row of a 2-D integer array, entries joined by commas."""
    # tolist() gives Python ints, whose str() costs far less than a numpy scalar's
    return "\n".join(",".join(map(str, row)) for row in entries.tolist()) + "\n"
