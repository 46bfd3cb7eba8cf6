"""Combinatorial designs behind the pulse schemes.

Two structures are provided: orthogonal arrays of strength 2 (every
ordered symbol pair appears equally often in every row pair) and
difference schemes over cyclic groups (every row-pair difference vector
is balanced).  Constructions are deterministic; verifiers recheck the
defining property exhaustively and report located violations.

Symbols of an orthogonal array are labels 1..s so they can double as
indices into a unitary basis; difference schemes use residues 0..u-1.
The linear arrays are digit arithmetic plus lookups in the GF(s) tables
of :mod:`pulseforge.gf`; normal forms are label arithmetic in Z_r x Z_r
(s = r^2) or Z_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf, netham

OA_SIZE_CAP = 2 ** 24
PRODUCT_SIZE_CAP = 10 ** 6
_BAND_ENTRIES = 1 << 22     # one-hot or product entries per factor of a _pair_tables band


@dataclass(eq=False)
class OrthogonalArray:
    """Strength-2 array: n rows, N columns, entries in [1, s], index lam.

    lam is meaningful for n >= 2 (N = lam * s^2); a single-row array
    stores lam = N // s^2 and is vacuously valid.
    """

    n: int
    N: int
    s: int
    lam: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries = netham._whole_numbers(self.entries, "entries")
        if self.entries.shape != (self.n, self.N):
            raise ValueError("entry matrix shape does not match (n, N)")
        if self.entries.size and (self.entries.min() < 1 or self.entries.max() > self.s):
            raise ValueError("entries must lie in [1, s]")


@dataclass(eq=False)
class DifferenceScheme:
    """n x N array over Z_u: row differences hit every residue N/u times."""

    n: int
    N: int
    u: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entries = netham._whole_numbers(self.entries, "entries")
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
    # field elements in the narrowest dtype, so the (n, N) temporaries stay small
    add, mul = (a.astype(np.min_scalar_type(s - 1)) for a in gf.tables(gf.field_for_order(s)))
    coords, rows = field_vectors(s, i)
    assert rows.shape[1] == full
    rows = rows[:, :n]

    entries = mul[rows[0][:, None], coords[0]]
    for t in range(1, i):
        entries = add[entries, mul[rows[t][:, None], coords[t]]]
    return OrthogonalArray(rows.shape[1], N, s, s ** (i - 2), entries.astype(int) + 1)


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
    n = len(sizes)
    entries = np.empty((n, N), dtype=int)
    j = np.arange(N)
    stride = N
    for k in range(n):
        stride //= sizes[k]
        entries[k] = (j // stride) % sizes[k] + 1
    return entries


def smallest_oa_for(n: int, s: int) -> OrthogonalArray:
    """Smallest array this package can build with at least n rows.

    For prime-power s: the first n rows of the linear construction with
    the least i whose row count covers n (row deletion preserves the
    defining property).  Otherwise the exponential product array.
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
    at most u for prime u and at most the smallest prime factor of u
    otherwise.
    """
    if u < 2:
        raise ValueError("need u >= 2")
    limit = u if gf.is_prime(u) else min(p for p in range(2, u + 1) if u % p == 0)
    if not 1 <= n <= limit:
        raise ValueError(f"row count {n} unsupported for u = {u} (max {limit})")
    j = np.arange(u)
    entries = np.array([(k * j) % u for k in range(n)])
    return DifferenceScheme(n, u, u, entries)


def difference_scheme_for(n: int) -> DifferenceScheme:
    """Some D(n, N) over a cyclic group: the smallest prime u >= n works."""
    u = gf.next_prime(max(2, n))
    return cyclic_difference_scheme(u, n)


# ---------------------------------------------------------------------------
# verification

def _pair_tables(labels: np.ndarray, s: int, weights: np.ndarray | None = None):
    """Yield (k, l, tables), k <= l: the label tables of the row bands from k and l.

    tables[i, j, a, b] counts the columns of the (n, N) matrix of labels
    1..s where row k + i holds a + 1 and row l + j holds b + 1, or sums
    their weights; a band against itself holds row k + i's own counts on
    its diagonal, tables[i, i, a, a].  Labels 2..s come from a one-hot Gram
    product over column chunks, at most _BAND_ENTRIES entries a factor,
    float32 for counts (exact up to 2^24 columns a chunk) and added up in
    float64; label 1 is what they leave of the row totals.
    """
    n, N = labels.shape
    rows = max(1, math.isqrt(_BAND_ENTRIES) // s)
    cols = max(1, _BAND_ENTRIES // (rows * s))
    dtype = np.float32 if weights is None else np.float64
    total = N if weights is None else weights.sum()

    def one_hot(k: int, c: int) -> np.ndarray:     # rows (k + i, a - 2), columns c..
        hot = (labels[k:k + rows, None, c:c + cols] == np.arange(2, s + 1)[:, None]).astype(dtype)
        return hot.reshape(-1, hot.shape[-1])

    node = np.empty((n, s))
    for l in range(0, n, rows):
        for k in range(l, -1, -rows):       # a band against itself first: its node tables
            K, L = min(rows, n - k), min(rows, n - l)
            t = np.zeros((K, s, L, s))
            for c in range(0, N, cols):
                hot = one_hot(k, c)
                left = hot if weights is None else hot * weights[c:c + cols]
                right = hot if l == k else one_hot(l, c)    # hot @ hot.T is one symmetric product
                t[:, 1:, :, 1:] += (left @ right.T).reshape(K, s - 1, L, s - 1)
            if k == l:
                node[l:l + L, 1:] = np.einsum("iaia->ia", t[:, 1:, :, 1:])
                node[l:l + L, 0] = total - node[l:l + L, 1:].sum(axis=1)
            t[:, 1:, :, 0] = node[k:k + K, 1:, None] - t[:, 1:, :, 1:].sum(axis=3)
            t[:, 0] = node[l:l + L] - t[:, 1:].sum(axis=1)
            yield k, l, t.transpose(0, 2, 1, 3)


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
    """Row-pair difference vectors must hit every residue N/u times."""
    violations = []
    want = ds.N // ds.u
    for k in range(ds.n):
        for l in range(k + 1, ds.n):
            diff = (ds.entries[k] - ds.entries[l]) % ds.u
            counts = np.bincount(diff, minlength=ds.u)
            for r in np.flatnonzero(counts != want):
                violations.append({
                    "rows": (k, l),
                    "element": int(r),
                    "count": int(counts[r]),
                    "expected": want,
                })
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
    kind, entries = doc.get("kind"), netham.json_int_rows(doc, "entries")
    n, N = netham.json_int(doc, "n"), netham.json_int(doc, "N")
    if kind == "oa":
        return OrthogonalArray(n, N, netham.json_int(doc, "s"), netham.json_int(doc, "lambda"),
                               entries)
    if kind == "ds":
        return DifferenceScheme(n, N, netham.json_int(doc, "u"), entries)
    raise ValueError(f"unknown design kind: {kind!r}")


def entries_to_csv(entries: np.ndarray) -> str:
    """One line per row of a 2-D integer array, entries joined by commas."""
    # tolist() gives Python ints, whose str() costs far less than a numpy scalar's
    return "\n".join(",".join(map(str, row)) for row in entries.tolist()) + "\n"
