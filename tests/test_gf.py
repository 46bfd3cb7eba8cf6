import itertools

import numpy as np
import pytest

from pulseforge import gf


def _monic_quadratic_is_irreducible(c1, c0, p):
    # oracle: a quadratic is reducible over GF(p) iff it has a root there
    return all((x * x + c1 * x + c0) % p for x in range(p))


def test_primes():
    assert [n for n in range(2, 30) if gf.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not gf.is_prime(1)
    assert gf.next_prime(5) == 5
    assert gf.next_prime(90) == 97


def test_prime_power_detection():
    assert gf.is_prime_power(2) == (2, 1)
    assert gf.is_prime_power(4) == (2, 2)
    assert gf.is_prime_power(8) == (2, 3)
    assert gf.is_prime_power(81) == (3, 4)
    assert gf.is_prime_power(7) == (7, 1)
    assert gf.is_prime_power(1) is None
    assert gf.is_prime_power(12) is None
    assert gf.is_prime_power(100) is None


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    spec = gf.field_new(2, 2)
    assert spec.modulus == (1, 1, 1)
    # oracle: x^2+x+1 is the only monic irreducible quadratic over GF(2)
    irr = [(c1, c0) for c1, c0 in itertools.product(range(2), repeat=2)
           if _monic_quadratic_is_irreducible(c1, c0, 2)]
    assert irr == [(1, 1)]


def test_gf9_modulus_lex_smallest():
    spec = gf.field_new(3, 2)
    assert spec.modulus == (1, 0, 1)
    assert _monic_quadratic_is_irreducible(0, 1, 3)
    # nothing smaller works: x^2 and x^2 shifted by smaller constants are reducible
    assert not _monic_quadratic_is_irreducible(0, 0, 3)


def test_gf8_modulus():
    assert gf.field_new(2, 3).modulus == (1, 0, 1, 1)


def test_gf4_omega_relations():
    add, mul = gf.tables(gf.field_new(2, 2))
    w = 2
    w2 = mul[w, w]
    assert w2 == 3                            # 1 + w under the encoding
    assert add[1, w] == w2
    assert mul[w2, w] == 1                    # w^3 = 1


def test_enumeration_order():
    # encoding sum(c_i p^i): addition is digitwise mod p, 0 and 1 are the
    # identities, and x (encoding p) is a root of the modulus
    for p, k in [(2, 1), (2, 2), (3, 2), (2, 3), (5, 2)]:
        spec = gf.field_new(p, k)
        add, mul = gf.tables(spec)
        q = spec.order
        assert add.shape == mul.shape == (q, q)
        digits = [[(v // p ** i) % p for i in range(k)] for v in range(q)]
        for a, b in itertools.product(range(q), repeat=2):
            want = sum((x + y) % p * p ** i
                       for i, (x, y) in enumerate(zip(digits[a], digits[b])))
            assert add[a, b] == want
        assert (add[0] == range(q)).all() and (mul[1] == range(q)).all()
        if k > 1:
            x, acc, power = p, 0, 1
            for c in reversed(spec.modulus):          # ascending coefficients
                acc = add[acc, mul[c, power]]
                power = mul[power, x]
            assert acc == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_prime_field_tables_are_residues(p):
    add, mul = gf.tables(gf.field_new(p, 1))
    r = np.arange(p)
    assert (add == (r[:, None] + r) % p).all()
    assert (mul == (r[:, None] * r) % p).all()


def _check_units_and_inverses(add, mul, q):
    elems = np.arange(q)
    assert (add[:, 0] == elems).all() and (mul[:, 1] == elems).all()
    assert (mul[:, 0] == 0).all()
    # every element has an additive inverse, every nonzero one a multiplicative one
    assert ((add == 0).sum(axis=1) == 1).all()
    assert ((mul[1:] == 1).sum(axis=1) == 1).all()
    assert (add == add.T).all() and (mul == mul.T).all()


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    spec = gf.field_new(p, k)
    q = spec.order
    add, mul = gf.tables(spec)
    _check_units_and_inverses(add, mul, q)
    a, b, c = np.meshgrid(np.arange(q), np.arange(q), np.arange(q), indexing="ij")
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (3, 3), (3, 4), (7, 2)])
def test_field_axioms_sampled(p, k):
    rng = np.random.default_rng(0xC0FFEE)
    spec = gf.field_new(p, k)
    q = spec.order
    add, mul = gf.tables(spec)
    _check_units_and_inverses(add, mul, q)
    a, b, c = rng.integers(q, size=(3, 200))
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


@pytest.mark.parametrize("q", [4, 8, 9, 27, 81])
def test_multiplicative_group_cyclic(q):
    _, mul = gf.tables(gf.field_for_order(q))

    def order(a):
        # bounded, so a broken table fails instead of looping
        x = a
        for n in range(1, q):
            if x == 1:
                return n
            x = mul[x, a]
        return None

    assert any(order(a) == q - 1 for a in range(1, q))


def test_errors():
    with pytest.raises(ValueError):
        gf.field_new(4, 1)
    with pytest.raises(ValueError):
        gf.field_new(2, 0)
    with pytest.raises(ValueError):
        gf.field_new(2, 17)
    with pytest.raises(ValueError):
        gf.field_new(2, 11)
    with pytest.raises(ValueError):
        gf.field_for_order(6)
    assert gf.field_new(2, 10).order == gf.MAX_ORDER
