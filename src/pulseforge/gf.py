"""Finite field arithmetic GF(p^k) for small prime powers.

Fields are created with :func:`field_new`, which picks the modulus
deterministically (lexicographically smallest monic irreducible
polynomial), so every run and every implementation agrees on the
element labeling.  An element is its integer encoding ``sum(c_i * p**i)``,
where c_i multiplies x**i; the encoding doubles as the symbol label that
design constructions use.  All arithmetic goes through the q x q
addition and multiplication tables that :func:`tables` builds over these
encodings.  Each field and its tables are built once in a process and
shared; the tables are read-only.  One trial division, :func:`_smallest_factor`,
tells whether n is prime or a prime power and bounds the rows of a cyclic
difference scheme.

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


def _digits(v: int, p: int, length: int) -> list[int]:
    return [v // p ** i % p for i in range(length)]


def _poly_rem(a, m, p):
    # remainder modulo a monic polynomial, coefficients ascending
    dm = len(m) - 1
    a = [c % p for c in a] + [0] * max(0, dm - len(a))
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _is_irreducible(f, p):
    # trial division by every monic polynomial of degree <= deg(f)/2
    k = len(f) - 1
    if k == 1:
        return True
    if f[0] == 0:
        return False
    for d in range(1, k // 2 + 1):
        for v in range(p ** d):
            g = _digits(v, p, d) + [1]
            if not any(_poly_rem(f, g, p)):
                return False
    return True


def field_new(p: int, k: int) -> FieldSpec:
    """Build GF(p^k) with the lexicographically smallest irreducible modulus.

    Candidates are monic degree-k polynomials ordered by their coefficient
    tuple written leading term first, so e.g. GF(4) always gets x^2+x+1.
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
    for low in range(q):
        f = _digits(low, p, k) + [1]
        if _is_irreducible(f, p):
            return FieldSpec(p, k, tuple(reversed(f)))
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


@functools.cache
def _tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    p, k, q = spec.p, spec.k, spec.order
    low = np.array(spec.modulus[:0:-1])       # x^k = -low(x) modulo the monic modulus
    digits = np.arange(q)[:, None] // p ** np.arange(k) % p
    # shifted[a, j] holds the digits of a * x^j, so digit i of a * b is
    # sum_j shifted[a, j, i] * b_j mod p; each step multiplies every a by x
    shifted = [digits]
    for _ in range(k - 1):
        prev = shifted[-1]
        shifted.append((np.hstack([0 * prev[:, :1], prev[:, :-1]]) - prev[:, -1:] * low) % p)
    shifted = np.stack(shifted, axis=1)
    add = np.zeros((q, q), dtype=int)
    mul = np.zeros((q, q), dtype=int)
    for i in range(k):
        add += (digits[:, i, None] + digits[None, :, i]) % p * p ** i
        mul += (shifted[:, :, i] @ digits.T) % p * p ** i
    add.flags.writeable = mul.flags.writeable = False
    return add, mul
