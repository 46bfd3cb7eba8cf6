import hashlib
import itertools
import math

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


def test_primes_and_prime_powers_match_a_sieve():
    limit = 5000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    powers = {}
    for p in np.flatnonzero(sieve).tolist():
        q, k = p, 1
        while q < limit:
            powers[q] = (p, k)
            q, k = q * p, k + 1
    for n in range(-3, limit):
        assert gf.is_prime(n) == (n >= 0 and bool(sieve[n])), n
        assert gf.is_prime_power(n) == powers.get(n), n


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


# first 16 hex digits of the sha256 of add then mul, each as little-endian
# int64, for every prime power q <= 256
_TABLE_DIGESTS = {
    2: "e0e2ab06335db0a1", 3: "cffce48c67cbb359", 4: "4450d8a9fbb25198", 5: "85abf1af779bdf17",
    7: "d47d2047798c9f20", 8: "5f037fb7a3a3e3d8", 9: "41dc416798bda53f", 11: "56f1eb01bcf3ddc0",
    13: "2b791b349f218002", 16: "d37030fcdd9c2213", 17: "433889178d737594",
    19: "9b927223af476c1f", 23: "3e767e4a54a2fe23", 25: "44450bee243e95c7",
    27: "6ea69dd87226ced1", 29: "7a753a2780e0cbc8", 31: "208845b517e78600",
    32: "45d5e5be67f0350e", 37: "6b88183848fc678c", 41: "f61cabf3ab3e800b",
    43: "5a4fb0ad509958d1", 47: "94e29e7693946161", 49: "b99967056f7b81a9",
    53: "47adf036f0a9a143", 59: "16dd7f787691954f", 61: "f498d1a9edf96d2c",
    64: "51fcc993f469ca34", 67: "d61519a14d173342", 71: "c7e80adf61cf831d",
    73: "a13f10287ce83bca", 79: "12b2ef81b09f106c", 81: "b645cc2729d47fc7",
    83: "7d2920dbac917cad", 89: "3dd5b4d99f6f49ec", 97: "691e74abbeccfa4d",
    101: "4cd364304821bd47", 103: "3a0e3696b5c8f2d4", 107: "be15a3aefba816b9",
    109: "c6310f4597913f2b", 113: "db3b4cf5ddf32cc0", 121: "c234dd0688802a6d",
    125: "509412ddbd693361", 127: "c182c664d11176a3", 128: "59a18cfe025099e6",
    131: "51283b12910a90d7", 137: "d3affdc53aed8bc9", 139: "e5ace61ae702ea68",
    149: "18a978dd5b6f2c53", 151: "3e542c8b68f0e862", 157: "ad52275aa921910c",
    163: "a90453fe31cc6753", 167: "febb97c4c0b735d5", 169: "b26c6054ad385f11",
    173: "480946b297681dd6", 179: "35ac8c04cf5716b0", 181: "e92cd6e5da5b6af3",
    191: "9567b388de842ed7", 193: "f585aafec1241251", 197: "f08e7338d5bcc03f",
    199: "15be6d285057bbcc", 211: "23b5c341bfe1d22c", 223: "05eb812700c87a81",
    227: "d8ec19172764536f", 229: "87030ed2ea0ed5ca", 233: "d13e1211cdf024b1",
    239: "541ce7ad7363a8bc", 241: "7d533faed3bcc654", 243: "d1a134611ac89f32",
    251: "25450caf77f261fb", 256: "be4b2201ac71c3ba",
}


def test_tables_match_pinned_digests():
    got = {}
    for q in range(2, 257):
        if gf.is_prime_power(q):
            add, mul = gf.tables(gf.field_for_order(q))
            data = b"".join(np.ascontiguousarray(t, "<i8").tobytes() for t in (add, mul))
            got[q] = hashlib.sha256(data).hexdigest()[:16]
    assert got == _TABLE_DIGESTS


# first 16 hex digits of the sha256 of "q:c_k,...,c_0;" (the modulus, leading
# coefficient first) over every prime power q <= gf.MAX_ORDER in order, as
# picked by trial division of coefficient lists
_MODULI_DIGEST = "8412bb7bb185cf63"


def test_every_modulus_matches_the_pinned_digest():
    text = "".join(f"{q}:{','.join(map(str, gf.field_for_order(q).modulus))};"
                   for q in range(2, gf.MAX_ORDER + 1) if gf.is_prime_power(q))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == _MODULI_DIGEST


@pytest.mark.parametrize("p,k", [(p, 2) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
                         + [(p, 3) for p in (2, 3, 5, 7)])
def test_quadratic_and_cubic_moduli_are_the_first_without_a_root(p, k):
    # oracle: a quadratic or cubic is reducible over GF(p) iff it has a root there
    def has_root(coeffs):                     # leading coefficient first
        return any(sum(c * x ** (k - i) for i, c in enumerate(coeffs)) % p == 0
                   for x in range(p))

    modulus = gf.field_new(p, k).modulus
    assert not has_root(modulus)
    for low in itertools.product(range(p), repeat=k):
        if (1, *low) == modulus:
            break
        assert has_root((1, *low)), low
