"""Finite field arithmetic GF(p^k) for small prime powers.

An element is its integer encoding ``sum(c_i * p**i)``, where c_i
multiplies x**i; the encoding doubles as the symbol label that design
constructions use.  Products modulo a monic polynomial come from one
recurrence, _shifted, that multiplies elements by x: :func:`tables` runs
it on every element to build the q x q multiplication table, beside the
digitwise addition table, and :func:`field_new` runs it on the candidate
factors to pick the modulus, the lexicographically smallest monic
irreducible polynomial, so every run and every implementation agrees on
the element labeling.  All other arithmetic goes through the two tables.
Each field and its tables are built once in a process and shared; the
tables are read-only.  One trial division, :func:`_smallest_factor`,
tells whether n is prime or a prime power and bounds the rows of a
cyclic difference scheme.

Orders are capped at 2^10, so a table never exceeds a million entries;
everything this package builds needs q <= 313.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 1 << 10


def _smallest_factor(n: int) -> int:
    """Least prime factor of n >= 2: n itself exactly when n is prime."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(2, n)
    while not is_prime(c):
        c += 1
    return c


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k, or None when n is not a prime power."""
    if n < 2:
        return None
    p, k = _smallest_factor(n), 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


@dataclass(frozen=True)
class FieldSpec:
    """Description of GF(p^k); modulus coefficients are stored leading term first."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.p ** self.k

    def __repr__(self):
        return f"GF({self.order})"


def field_new(p: int, k: int) -> FieldSpec:
    """Build GF(p^k) with the lexicographically smallest irreducible modulus.

    Candidates are monic degree-k polynomials ordered by their coefficient
    tuple written leading term first, so e.g. GF(4) always gets x^2+x+1.
    A reducible candidate has a monic factor of degree 1 to k/2, and that
    factor times its nonzero cofactor is 0 modulo the candidate; the first
    candidate under which no such factor times a nonzero element is 0 wins.
    """
    return _field(p, k)


@functools.cache
def _field(p: int, k: int) -> FieldSpec:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    q = p ** k
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds the {MAX_ORDER} cap")
    digits = _digit_table(p, k)
    # the monic polynomials of degree e are encoded in [p^e, 2 p^e)
    factors = digits[[v for e in range(1, k // 2 + 1) for v in range(p ** e, 2 * p ** e)]]
    for low in digits:
        # [r, i, b]: digit i of factor r times the nonzero element b
        if (_shifted(factors, p, low) @ digits[1:].T % p).any(axis=1).all():
            return FieldSpec(p, k, (1, *low[::-1].tolist()))
    raise RuntimeError("irreducible polynomial search failed")


def field_for_order(q: int) -> FieldSpec:
    """GF(q) for a prime power q."""
    pk = is_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    return field_new(*pk)


def tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul): q x q integer tables over the encoding ``sum(c_i * p**i)``.

    add[a, b] and mul[a, b] encode the sum and the product of the
    elements encoded by a and b.
    """
    return _tables(spec)


def _digit_table(p: int, k: int) -> np.ndarray:
    """(q, k): row a holds the base-p digits of a, lowest first."""
    return np.arange(p ** k)[:, None] // p ** np.arange(k) % p


def _shifted(a: np.ndarray, p: int, low: np.ndarray) -> np.ndarray:
    """[r, i, j]: digit i of a[r] * x^j modulo the monic x^k + low(x), for rows a of
    digits and low of coefficients, lowest first; digit i of a[r] * b is [r, i] @ b's."""
    k = a.shape[1]
    times_x = np.eye(k, k, 1, dtype=int)        # row l holds the digits of x^l * x
    times_x[-1] = -low % p
    shifted = np.empty((*a.shape, k), dtype=int)
    shifted[:, :, 0] = a
    for j in range(1, k):
        shifted[:, :, j] = shifted[:, :, j - 1] @ times_x % p
    return shifted


@functools.cache
def _tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    p, k = spec.p, spec.k
    digits = _digit_table(p, k)
    add = sum((digits[:, i, None] + digits[None, :, i]) % p * p ** i for i in range(k))
    shifted = _shifted(digits, p, np.array(spec.modulus[:0:-1]))
    mul = sum((shifted[:, i] @ digits.T) % p * p ** i for i in range(k))
    add.flags.writeable = mul.flags.writeable = False
    return add, mul
