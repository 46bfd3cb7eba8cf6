import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseforge import designs, gf, scheme, signs

# sha256 of the entries as little-endian int64: the linear array, and the
# normal form of that array with its columns rotated by one (so the first
# column is not already the identity)
PINNED = {
    (4, 3): ("4bc1f7cfd85cf3713c30c17917d9e939c3959e7c8117a01a1af2285cf2a3d9fb",
             "f14840084139a2816ec9892fd98ffb627e8ee961e1a98883e7002da7e2e896c0"),
    (9, 2): ("672465b3556a79983b806c1a564128499f900604aa6c5dc24642832e4bc3e017",
             "ae86d6af8b3d46f4a8314b53b9f3841f664ba5945f3f0411b2938d4c4f523560"),
    (16, 2): ("87e82ab613807e62aa8f23d62c25838e8229616245487910d2f1de0378a084fd",
              "8a46a69c97bc6b26fc5412704f8e0f2102574612165c569e723b6a592a600bee"),
    (8, 3): ("60aeb4c696dba569e5c7278191a8bae5d98ab2f5db57e1533c50ab3035e64913",
             "97980f8bb36d063fad06003dd5210c74446d240e5c2373247aff3f10f9a982df"),
    (3, 5): ("26bee520f35c805933b71d02b57f49ea497483a257ff69b1d456bf3905d13cca",
             "cdf0931c2a852fbbcee76e747abceb79ec9ced848c6252d80641fdc6ff4b1a76"),
}
# Sx, Sy, Sz of spread_signs(m), stacked by rows; test_single_line_rows_frozen
# in test_signs.py gives m = 1 entry by entry
PINNED_SPREAD = {
    2: "a2605ef479cb3b1fb572a6bd34667d354cbe682e1f14ef1fd163d0f60b7190e1",
    3: "555c8c7f611a7168370da201472ab644f7cc3a46e6a879da458942af66d86955",
    4: "0e899a21f5a54c98f7fa77c156348db1840eeeeef33303910d4914c334f09ec7",
}
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]


def _assert_strength2(oa):
    # independent pair-count oracle, no shared code with verify_oa
    for k, l in itertools.combinations(range(oa.n), 2):
        counts = Counter(zip(oa.entries[k].tolist(), oa.entries[l].tolist()))
        for a in range(1, oa.s + 1):
            for b in range(1, oa.s + 1):
                assert counts[(a, b)] == oa.lam, (k, l, a, b)


def test_rao_hamming_shapes():
    oa = designs.rao_hamming_oa(4, 2)
    assert (oa.n, oa.N, oa.lam) == (5, 16, 1)
    oa = designs.rao_hamming_oa(9, 2)
    assert (oa.n, oa.N) == (10, 81)
    oa = designs.rao_hamming_oa(2, 2)
    assert (oa.n, oa.N, oa.lam) == (3, 4, 1)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
def test_rao_hamming_strength2_all_prime_powers(s):
    oa = designs.rao_hamming_oa(s, 2)
    assert oa.lam == 1 and oa.N == s * s
    _assert_strength2(oa)
    assert designs.verify_oa(oa)["ok"]


def test_rao_hamming_first_column_is_identity():
    for s, i in [(2, 2), (3, 2), (4, 2), (2, 3), (4, 3)]:
        oa = designs.rao_hamming_oa(s, i)
        assert (oa.entries[:, 0] == 1).all()


def test_rao_hamming_higher_index():
    oa = designs.rao_hamming_oa(2, 3)
    assert (oa.n, oa.N, oa.lam) == (7, 8, 2)
    _assert_strength2(oa)


def test_product_oa():
    oa = designs.product_oa(2, 4)
    assert (oa.N, oa.lam) == (16, 1)
    _assert_strength2(oa)
    oa = designs.product_oa(3, 4)
    assert (oa.N, oa.lam) == (64, 4)
    _assert_strength2(oa)
    assert designs.product_oa(4, 9).N == 6561
    # first column all identity labels
    assert (designs.product_oa(3, 4).entries[:, 0] == 1).all()


@pytest.mark.parametrize("n, s", [(1, 2), (1, 5), (2, 3), (3, 4), (2, 6), (4, 9), (5, 2)])
def test_product_oa_columns_enumerate_tuples_in_order(n, s):
    # column j is the j-th tuple of [1, s]^n in lexicographic order, the last row fastest
    oa = designs.product_oa(n, s)
    want = np.array(list(itertools.product(range(1, s + 1), repeat=n))).T
    assert np.array_equal(oa.entries, want)
    assert (oa.n, oa.N, oa.s, oa.lam) == (n, s ** n, s, s ** n // s ** 2)


def test_smallest_oa_for():
    assert designs.smallest_oa_for(4, 9).N == 81
    oa = designs.smallest_oa_for(5, 4)
    assert (oa.n, oa.N) == (5, 16)
    oa = designs.smallest_oa_for(6, 4)
    assert (oa.n, oa.N) == (6, 64)
    _assert_strength2(oa)
    # non prime power alphabet falls back to the product construction, whose
    # column 0 is all identity too, so its normal form is itself
    for n in (2, 3):
        oa = designs.smallest_oa_for(n, 6)
        assert oa.N == 6 ** n
        _assert_strength2(oa)
        assert (oa.entries[:, 0] == 1).all()
        assert np.array_equal(designs.normalize_oa(oa).entries, oa.entries)
    with pytest.raises(ValueError):
        designs.smallest_oa_for(1, 4)


@pytest.mark.parametrize("s", [2, 3, 4, 5, 7, 8, 9])
def test_smallest_oa_builds_the_first_rows_of_the_linear_array(s):
    for i in (2, 3):
        full = designs.rao_hamming_oa(s, i)
        for n in sorted({1, 2, (full.n + 1) // 2, full.n - 1, full.n}):
            part = designs._rao_hamming_rows(s, i, n)
            assert np.array_equal(part.entries, full.entries[:n])
            assert (part.n, part.N, part.s, part.lam) == (n, full.N, s, full.lam)
            if n >= 2 and n > (s ** (i - 1) - 1) // (s - 1):   # i is the least that covers n
                oa = designs.smallest_oa_for(n, s)
                assert np.array_equal(oa.entries, full.entries[:n])
                assert (oa.n, oa.N, oa.s, oa.lam) == (n, full.N, s, full.lam)
                # column 0 is the zero vector, all identity: inversion takes it as built
                assert (oa.entries[:, 0] == 1).all()
                assert np.array_equal(designs.normalize_oa(oa).entries, oa.entries)


def test_row_deletion_preserves_validity():
    oa = designs.rao_hamming_oa(3, 2)
    for drop in range(oa.n):
        sub = designs.OrthogonalArray(
            oa.n - 1, oa.N, oa.s, oa.lam, np.delete(oa.entries, drop, axis=0))
        assert designs.verify_oa(sub)["ok"]


def test_column_permutation_preserves_validity():
    rng = np.random.default_rng(7)
    oa = designs.rao_hamming_oa(4, 2)
    perm = rng.permutation(oa.N)
    shuffled = designs.OrthogonalArray(oa.n, oa.N, oa.s, oa.lam, oa.entries[:, perm])
    assert designs.verify_oa(shuffled)["ok"]
    ds = designs.cyclic_difference_scheme(5, 5)
    shuffled = designs.DifferenceScheme(ds.n, ds.N, ds.u, ds.entries[:, perm[:5].argsort()])
    assert designs.verify_difference_scheme(shuffled)["ok"]


def _normalize_row(s, row):
    oa = designs.OrthogonalArray(1, len(row), s, 0, np.array([row]))
    return designs.normalize_oa(oa).entries[0].tolist()


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("s,i", sorted(PINNED))
def test_constructions_match_pinned_digests(s, i):
    oa = designs.rao_hamming_oa(s, i)
    rolled = designs.OrthogonalArray(oa.n, oa.N, s, oa.lam, np.roll(oa.entries, 1, axis=1))
    assert (_digest(oa.entries), _digest(designs.normalize_oa(rolled).entries)) == PINNED[(s, i)]
    assert _digest(designs.normalize_oa(oa).entries) == PINNED[(s, i)][0]


def test_spread_signs_match_pinned_digest():
    for m, want in PINNED_SPREAD.items():
        st = signs.spread_signs(m)
        assert _digest(np.vstack([st.Sx, st.Sy, st.Sz])) == want, m


@settings(max_examples=30)
@given(s=st.sampled_from(PRIME_POWERS), i=st.integers(2, 3), data=st.data())
def test_row_deletion_and_normal_form_keep_strength2(s, i, data):
    oa = designs.rao_hamming_oa(s, i)
    drop = data.draw(st.sets(st.integers(0, oa.n - 1), min_size=1, max_size=oa.n - 1))
    kept = np.delete(oa.entries, sorted(drop), axis=0)
    assert designs.verify_oa(designs.OrthogonalArray(len(kept), oa.N, s, oa.lam, kept))["ok"]
    # each row relabeled by its own random bijection of [1, s], then normalized
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    perms = np.array([rng.permutation(s) for _ in kept])
    relabeled = np.take_along_axis(perms, kept - 1, axis=1) + 1
    norm = designs.normalize_oa(designs.OrthogonalArray(len(kept), oa.N, s, oa.lam, relabeled))
    assert (norm.entries[:, 0] == 1).all()
    assert designs.verify_oa(norm)["ok"]


@settings(max_examples=30)
@given(s=st.sampled_from(PRIME_POWERS), i=st.integers(2, 3), data=st.data())
def test_single_mutation_is_located(s, i, data):
    oa = designs.rao_hamming_oa(s, i)
    k, j = data.draw(st.integers(0, oa.n - 1)), data.draw(st.integers(0, oa.N - 1))
    entries = oa.entries.copy()
    entries[k, j] = (entries[k, j] - 1 + data.draw(st.integers(1, s - 1))) % s + 1
    rep = designs.verify_oa(designs.OrthogonalArray(oa.n, oa.N, s, oa.lam, entries))
    assert not rep["ok"]
    assert all(k in v["rows"] for v in rep["violations"])
    assert {r for v in rep["violations"] for r in v["rows"]} == set(range(oa.n))


def test_groups():
    # non-square alphabets: label l is the residue l-1 in Z_s
    assert _normalize_row(5, [3, 1, 5]) == [1, 4, 3]        # (0, 2, 4) - 2
    assert _normalize_row(3, [2, 1, 3]) == [1, 3, 2]
    # square alphabets s = r^2: label l is divmod(l-1, r) in Z_r x Z_r
    assert _normalize_row(4, [2, 4, 3, 1]) == [1, 3, 4, 2]  # minus (0,1)
    assert _normalize_row(9, [6, 1]) == [1, 8]              # (0,0) - (1,2) = (2,1)


def test_normalize_oa():
    oa = designs.rao_hamming_oa(4, 2)
    rolled = designs.OrthogonalArray(oa.n, oa.N, oa.s, oa.lam, np.roll(oa.entries, 1, axis=1))
    norm = designs.normalize_oa(rolled)
    assert (norm.entries[:, 0] == 1).all()
    assert designs.verify_oa(norm)["ok"]
    # already normal: unchanged
    again = designs.normalize_oa(norm)
    assert (again.entries == norm.entries).all()
    assert (designs.normalize_oa(oa).entries == oa.entries).all()
    # two-row product array, cyclic relabeling
    oa2 = designs.product_oa(2, 3)
    shifted = designs.OrthogonalArray(2, 9, 3, 1, (oa2.entries % 3) + 1)
    norm2 = designs.normalize_oa(shifted)
    assert (norm2.entries[:, 0] == 1).all()
    assert designs.verify_oa(norm2)["ok"]


def test_verify_oa_catches_mutation():
    oa = designs.rao_hamming_oa(3, 2)
    bad = oa.entries.copy()
    bad[1, 4] = bad[1, 4] % 3 + 1
    report = designs.verify_oa(designs.OrthogonalArray(oa.n, oa.N, oa.s, oa.lam, bad))
    assert not report["ok"]
    assert any(v["rows"] == (0, 1) for v in report["violations"])
    v = report["violations"][0]
    assert {"rows", "pair", "count", "expected"} <= set(v)


def _verify_oa_loop(oa):
    """verify_oa's report one row pair at a time: the reference for its pair tables."""
    violations = []
    s = oa.s
    for k in range(oa.n):
        for l in range(k + 1, oa.n):
            codes = (oa.entries[k] - 1) * s + (oa.entries[l] - 1)
            counts = np.bincount(codes, minlength=s * s)
            for c in np.flatnonzero(counts != oa.lam):
                violations.append({"rows": (k, l), "pair": (int(c) // s + 1, int(c) % s + 1),
                                   "count": int(counts[c]), "expected": oa.lam})
    return {"ok": not violations, "violations": violations}


@pytest.mark.parametrize("s", [3, 4])
@pytest.mark.parametrize("rows", [None, 1, 2])
def test_verify_oa_matches_the_pair_loop_on_every_single_entry_change(s, rows, monkeypatch):
    # rows: one band for the whole array, or bands of 1 or 2 rows and 2s-column chunks
    if rows:
        monkeypatch.setattr(designs, "_BAND_ENTRIES", (rows * s) ** 2)
    oa = designs.rao_hamming_oa(s, 2)
    assert designs.verify_oa(oa) == _verify_oa_loop(oa) == {"ok": True, "violations": []}
    for k, j in itertools.product(range(oa.n), range(oa.N)):
        for label in range(1, s + 1):
            if label == oa.entries[k, j]:
                continue
            bad = oa.entries.copy()
            bad[k, j] = label
            bad = designs.OrthogonalArray(oa.n, oa.N, s, oa.lam, bad)
            report = designs.verify_oa(bad)
            assert not report["ok"]
            assert report == _verify_oa_loop(bad), (k, j, label)


@settings(max_examples=80)
@given(n=st.integers(1, 9), s=st.integers(2, 5), N=st.integers(1, 80), rows=st.integers(1, 4),
       last=st.booleans(), equal=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_pair_tables_match_a_bincount_loop(n, s, N, rows, last, equal, seed):
    # one chunk budget, (rows * s)^2, for both engines: _pair_tables counts label
    # pairs w in bands of `rows` rows and column chunks of min(rows, n) * s
    # (designs._BAND_ENTRIES); _anchored_gram (scheme._GRAM_ENTRIES) gives
    # D = P^T w P with P = [I; -1], for every pair, and the node tables P^T w_k,
    # in column chunks of at least n(s - 1), so one chunk or several.  Labels
    # come from a random alphabet, with label s in it or not, so some labels
    # never appear.  Counts are exact, negative entries included; weights, which
    # only the Gram takes, agree to rounding
    rng = np.random.default_rng(seed)
    alphabet = np.append(rng.permutation(s - 1)[:rng.integers(1, s)] + 1, np.full(int(last), s))
    labels = rng.choice(alphabet, size=(n, N))
    weights = None if equal else rng.uniform(0.05, 1.0, N)
    P = np.vstack([np.eye(s - 1), -np.ones((1, s - 1))])

    def counts(*rows, weights=None):      # of a row's labels, or of a row pair's label pairs
        codes = sum((labels[p] - 1) * s ** e for e, p in enumerate(reversed(rows)))
        return np.bincount(codes, weights, s ** len(rows)).reshape((s,) * len(rows))

    def check(got, want):
        assert np.array_equal(got, want) if equal else np.abs(got - want).max() <= 1e-12

    seen = np.zeros((n, n), dtype=bool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_BAND_ENTRIES", (rows * s) ** 2)
        mp.setattr(scheme, "_GRAM_ENTRIES", (rows * s) ** 2)
        for k, l, tables in designs._pair_tables(labels, s):
            for i, j in np.ndindex(*tables.shape[:2]):
                assert np.array_equal(tables[i, j], counts(k + i, l + j))
                seen[k + i, l + j] = True
        D, node = scheme._anchored_gram(labels, s, weights)
    assert seen[np.triu_indices(n)].all()
    assert D.shape == (n, s - 1, n, s - 1) and node.shape == (n, s - 1)
    for k, l in np.ndindex(n, n):
        check(D[k, :, l], P.T @ counts(k, l, weights=weights) @ P)
    for k in range(n):
        check(node[k], counts(k, weights=weights) @ P)


def test_verify_oa_single_row_vacuous():
    single = designs.OrthogonalArray(1, 4, 4, 0, np.array([[1, 2, 3, 4]]))
    assert designs.verify_oa(single)["ok"]


def test_cyclic_difference_scheme():
    ds = designs.cyclic_difference_scheme(2, 2)
    assert ds.entries.tolist() == [[0, 0], [0, 1]]
    assert designs.verify_difference_scheme(ds)["ok"]
    for u, n in [(5, 5), (3, 2), (7, 7), (2, 2)]:
        ds = designs.cyclic_difference_scheme(u, n)
        assert designs.verify_difference_scheme(ds)["ok"]
        # independent oracle
        for k, l in itertools.combinations(range(ds.n), 2):
            diffs = Counter(((ds.entries[k] - ds.entries[l]) % u).tolist())
            assert all(diffs[r] == ds.N // u for r in range(u))


def test_cyclic_difference_scheme_composite_u():
    # rows stay pairwise balanced only up to the smallest prime factor
    ds = designs.cyclic_difference_scheme(4, 2)
    assert designs.verify_difference_scheme(ds)["ok"]
    with pytest.raises(ValueError):
        designs.cyclic_difference_scheme(4, 3)
    with pytest.raises(ValueError):
        designs.cyclic_difference_scheme(9, 4)


def test_cyclic_difference_scheme_row_limit_is_the_smallest_prime_factor():
    # the limit as stated before the shared factor search: u if prime, else
    # its smallest prime factor found by scanning 2..u
    for u in range(2, 401):
        prime = all(u % p for p in range(2, u))
        limit = u if prime else min(p for p in range(2, u + 1) if u % p == 0)
        assert designs.cyclic_difference_scheme(u, limit).n == limit
        for n in (0, limit + 1):
            with pytest.raises(ValueError, match=rf"^row count {n} unsupported for u = {u} "
                                                 rf"\(max {limit}\)$"):
                designs.cyclic_difference_scheme(u, n)


def test_difference_scheme_for():
    ds = designs.difference_scheme_for(6)
    assert ds.u == 7 and ds.n == 6
    assert designs.verify_difference_scheme(ds)["ok"]


def _verify_difference_scheme_loop(ds):
    """verify_difference_scheme's report one row pair at a time: its reference."""
    violations = []
    want = ds.N // ds.u
    for k in range(ds.n):
        for l in range(k + 1, ds.n):
            counts = np.bincount((ds.entries[k] - ds.entries[l]) % ds.u, minlength=ds.u)
            for r in np.flatnonzero(counts != want):
                violations.append({"rows": (k, l), "element": int(r), "count": int(counts[r]),
                                   "expected": want})
    return {"ok": not violations, "violations": violations}


def test_verify_difference_scheme_catches_mutation():
    ds = designs.cyclic_difference_scheme(5, 4)
    bad = ds.entries.copy()
    bad[2, 3] = (bad[2, 3] + 1) % 5
    report = designs.verify_difference_scheme(
        designs.DifferenceScheme(ds.n, ds.N, ds.u, bad))
    assert not report["ok"]
    assert all({"rows", "element", "count", "expected"} <= set(v)
               for v in report["violations"])
    # every single-entry change of a 7 x 7 scheme: the same report as the
    # pair loop, in the same order, with Python ints throughout
    ds = designs.cyclic_difference_scheme(7, 7)
    assert designs.verify_difference_scheme(ds) == _verify_difference_scheme_loop(ds)
    for k, j, x in itertools.product(range(ds.n), range(ds.N), range(1, ds.u)):
        bad = ds.entries.copy()
        bad[k, j] = (bad[k, j] + x) % ds.u
        bad = designs.DifferenceScheme(ds.n, ds.N, ds.u, bad)
        report = designs.verify_difference_scheme(bad)
        assert not report["ok"] and report == _verify_difference_scheme_loop(bad), (k, j, x)
        assert all(type(v) is int for e in report["violations"]
                   for v in (*e["rows"], e["element"], e["count"], e["expected"]))


def test_json_roundtrip_and_csv():
    oa = designs.rao_hamming_oa(3, 2)
    doc = designs.design_to_json(oa)
    assert doc["kind"] == "oa" and doc["lambda"] == 1
    back = designs.design_from_json(doc)
    assert (back.entries == oa.entries).all()
    ds = designs.cyclic_difference_scheme(3, 3)
    doc = designs.design_to_json(ds)
    assert doc["kind"] == "ds" and doc["u"] == 3
    back = designs.design_from_json(doc)
    assert (back.entries == ds.entries).all()
    assert designs.entries_to_csv(oa.entries) == ("1,2,3,1,2,3,1,2,3\n1,1,1,2,2,2,3,3,3\n"
                                                  "1,2,3,2,3,1,3,1,2\n1,2,3,3,1,2,2,3,1\n")
    assert designs.entries_to_csv(ds.entries) == "0,0,0\n0,1,2\n0,2,1\n"
    pm = np.array([[1, -1], [-1, 1]])
    assert designs.entries_to_csv(pm) == "1,-1\n-1,1\n"
    with pytest.raises(TypeError, match="^not a design: object$"):
        designs.design_to_json(object())


def test_mixed_product_array():
    m = designs.mixed_product_array([2, 3])
    assert m.shape == (2, 6)
    cols = {tuple(c) for c in m.T.tolist()}
    assert cols == {(a, b) for a in (1, 2) for b in (1, 2, 3)}
    # columns in lexicographic order, the last row varying fastest
    for sizes in ([2, 3, 4, 5], [3, 1, 2], [1], []):
        want = list(itertools.product(*(range(1, size + 1) for size in sizes)))
        m = designs.mixed_product_array(sizes)
        assert m.shape == (len(sizes), len(want)) and m.T.tolist() == [list(c) for c in want]


def test_oa_refuses_a_lambda_other_than_N_over_s_squared():
    entries = designs.rao_hamming_oa(2, 2).entries          # n = 3, N = 4, s = 2: lambda 1
    assert designs.verify_oa(designs.OrthogonalArray(3, 4, 2, 1, entries))["ok"]
    for lam in (0, 2, 5):
        with pytest.raises(ValueError, match="^lambda"):
            designs.OrthogonalArray(3, 4, 2, lam, entries)
    with pytest.raises(ValueError, match="^lambda"):          # s = 0 divides nothing
        designs.OrthogonalArray(1, 0, 0, 0, np.zeros((1, 0), dtype=int))


@pytest.mark.parametrize("bad", [[[1.5, 2.2, 3.9, 4.0]], [[True, 2, 3, 4]]])
def test_oa_refuses_fractional_and_bool_entries(bad):
    # a cast to int stored [1.5, 2.2, 3.9, 4.0] as the valid row [1, 2, 3, 4]
    with pytest.raises(ValueError, match="entries must hold integers"):
        designs.OrthogonalArray(1, 4, 4, 0, bad)
    oa = designs.OrthogonalArray(1, 4, 4, 0, [[1.0, 2.0, 3.0, 4.0]])
    assert oa.entries.dtype == int and oa.entries.tolist() == [[1, 2, 3, 4]]


@pytest.mark.parametrize("bad", [[[0.5, 1, 2]], [[False, 1, 2]]])
def test_difference_scheme_refuses_fractional_and_bool_entries(bad):
    with pytest.raises(ValueError, match="entries must hold integers"):
        designs.DifferenceScheme(1, 3, 3, bad)
    ds = designs.DifferenceScheme(1, 3, 3, [[0.0, 1.0, 2.0]])
    assert ds.entries.dtype == int and ds.entries.tolist() == [[0, 1, 2]]


def test_construction_errors():
    with pytest.raises(ValueError):
        designs.rao_hamming_oa(6, 2)
    with pytest.raises(ValueError):
        designs.rao_hamming_oa(4, 1)
    with pytest.raises(ValueError):
        designs.rao_hamming_oa(9, 7)
    with pytest.raises(ValueError):
        designs.product_oa(9, 9)
    with pytest.raises(ValueError):
        designs.product_oa(32, 4)
    # 4^32 = 2^64 wraps to 0 in an int64 product, which passed the cap
    with pytest.raises(ValueError, match="exceeds"):
        designs.mixed_product_array([4] * 32)
    for sizes in ([2, 0], [3, -1, 3]):
        with pytest.raises(ValueError, match="at least 1"):
            designs.mixed_product_array(sizes)
    with pytest.raises(ValueError, match="^need n >= 1 and s >= 2$"):
        designs.product_oa(0, 4)
    with pytest.raises(ValueError, match="^need u >= 2$"):
        designs.cyclic_difference_scheme(1, 1)
    for bad in ([[0, 1, 3]], [[-1, 1, 2]]):
        with pytest.raises(ValueError, match=r"^entries must lie in \[0, u\)$"):
            designs.DifferenceScheme(1, 3, 3, bad)


def test_linear_array_entry_cap_refuses_before_building(monkeypatch):
    # n*N entries of 4.29e9, 1.43e9 and 4.4e8: s^i alone is below 10^5 for each
    def refuse(*args):
        raise AssertionError("array built before the size check")
    # the per-(s, i) constants the construction reads, and what they are built from
    monkeypatch.setattr(designs, "_linear_parts", refuse)
    monkeypatch.setattr(designs, "field_vectors", refuse)
    monkeypatch.setattr(gf, "tables", refuse)
    for s, i in ((2, 16), (4, 8), (9, 5)):
        with pytest.raises(ValueError, match="cap"):
            designs.rao_hamming_oa(s, i)
