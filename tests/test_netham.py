import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pulseforge import bounds, graphcolor, harmonic, netham, scheme

import oracle

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_gell_mann_d2_is_pauli():
    sigma = netham.gell_mann_basis(2)
    assert sigma.shape == (3, 2, 2)
    assert np.allclose(sigma[0], SX)
    assert np.allclose(sigma[1], SY)
    assert np.allclose(sigma[2], SZ)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gell_mann_gram(d):
    sigma = netham.gell_mann_basis(d)
    assert sigma.shape == (d * d - 1, d, d)
    for a, sa in enumerate(sigma):
        assert abs(np.trace(sa)) < 1e-12
        assert np.abs(sa - sa.conj().T).max() < 1e-12
        for bb, sb in enumerate(sigma):
            want = 2.0 if a == bb else 0.0
            assert abs(np.trace(sa @ sb) - want) < 1e-12


def test_gell_mann_range():
    with pytest.raises(ValueError):
        netham.gell_mann_basis(5)


def test_assemble_single_zz_pair():
    J = np.zeros((6, 6))
    J[2, 5] = J[5, 2] = 0.5     # zz entry of block (0,1) and its transpose
    h = netham.PairHamiltonian(2, 2, J, np.zeros(6))
    assert np.allclose(netham.assemble(h), np.kron(SZ, SZ))


def test_assemble_complete_zz_three_nodes():
    h = oracle.complete_coupling_model(3, 2, alpha=2, coeff=0.5)
    got = netham.assemble(h)
    eye = np.eye(2)
    want = (np.kron(np.kron(SZ, SZ), eye)
            + np.kron(np.kron(SZ, eye), SZ)
            + np.kron(eye, np.kron(SZ, SZ)))
    assert np.allclose(got, want)


def test_assemble_local_terms_only():
    r = np.array([0.3, 0.0, -1.2, 0.0, 0.7, 0.0])
    h = netham.PairHamiltonian(2, 2, np.zeros((6, 6)), r)
    eye = np.eye(2)
    want = 0.3 * np.kron(SX, eye) - 1.2 * np.kron(SZ, eye) + 0.7 * np.kron(eye, SY)
    assert np.allclose(netham.assemble(h), want)


def test_assemble_linear_and_traceless():
    a = netham.random_model(3, 2, 11)
    b = netham.random_model(3, 2, 12)
    mix = netham.PairHamiltonian(3, 2, 2.0 * a.J + b.J, 2.0 * a.r + b.r)
    assert np.allclose(netham.assemble(mix),
                       2.0 * netham.assemble(a) + netham.assemble(b))
    traceless = netham.PairHamiltonian(3, 2, a.J, np.zeros(9))
    assert abs(np.trace(netham.assemble(traceless))) < 1e-9


def _kron_chain_assemble(h, sigma):
    """One full kron chain per nonzero coefficient: the slow reference."""
    def embed(placed):
        out = np.eye(1, dtype=complex)
        for k in range(h.n):
            out = np.kron(out, placed.get(k, np.eye(h.d)))
        return out

    dim = h.d ** h.n
    H = np.zeros((dim, dim), dtype=complex)
    m = h.m
    J4 = h.J.reshape(h.n, m, h.n, m)
    for k in range(h.n):
        for l in range(k + 1, h.n):
            blk = J4[k, :, l]
            for a, b in zip(*np.nonzero(blk)):
                H += 2.0 * blk[a, b] * embed({k: sigma[a], l: sigma[b]})
        for a in range(m):
            if h.r[k * m + a]:
                H += h.r[k * m + a] * embed({k: sigma[a]})
    return H


def _sparse_model(n, d, rng):
    # zero some coupling blocks and local terms, as graph-supported models have
    h = netham.random_model(n, d, int(rng.integers(2 ** 31)))
    m = h.m
    J, r = h.J.copy(), h.r.copy()
    for k in range(n):
        for l in range(k + 1, n):
            if rng.random() < 0.3:
                J[k * m:(k + 1) * m, l * m:(l + 1) * m] = 0.0
                J[l * m:(l + 1) * m, k * m:(k + 1) * m] = 0.0
        if rng.random() < 0.3:
            r[k * m:(k + 1) * m] = 0.0
    return netham.PairHamiltonian(n, d, J, r)


@settings(max_examples=25)
@given(n=st.integers(1, 4), d=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1))
def test_assemble_matches_kron_chain(n, d, seed):
    rng = np.random.default_rng(seed)
    h = _sparse_model(n, d, rng)
    want = _kron_chain_assemble(h, netham.gell_mann_basis(d))
    got = netham.assemble(h)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@st.composite
def _embedding(draw):
    """(n, d, site rows of each arity, seed): d^n <= 256, 0-6 terms on 1-3 nodes."""
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 5 if d < 4 else 4))
    groups = []
    for k in sorted(draw(st.sets(st.integers(1, min(3, n)), min_size=1, max_size=2)), reverse=True):
        rows = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k), max_size=6))
        rows = [sorted(r) for r in rows]
        if len(rows) > 1 and draw(st.booleans()):
            rows.append(rows[0])            # a site set twice: the order of its terms counts
        groups.append(rows)
    return n, d, groups, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60)
@given(case=_embedding())
@example(case=(1, 2, [[]], 0))                  # one node, no terms
@example(case=(1, 3, [[[0], [0]]], 7))          # one node, one site set twice
def test_embed_terms_matches_the_term_loop_bit_for_bit(case):
    # mixed magnitudes make every sum depend on its order; zeroed entries
    # are skipped by the scatter and added as zeros by the loop
    n, d, groups, seed = case
    rng = np.random.default_rng(seed)
    got = want = None
    for rows in groups:
        k = len(rows[0]) if rows else 1
        shape = (len(rows), d ** k, d ** k)
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        ops *= 10.0 ** rng.integers(-8, 9, shape)
        ops[rng.random(shape) < rng.random()] = 0.0
        got = netham.embed_terms(n, d, np.reshape(rows, (len(rows), k)).astype(int), ops, got)
        want = oracle.embed_terms_loop(n, d, zip(rows, ops), want)
    assert np.array_equal(got, want)


def _zero_part_models(n, d, seed):
    """Models whose J, r or both are exactly zero, and one coupling a single pair alone."""
    h, m = netham.random_model(n, d, seed), d * d - 1
    one = np.zeros_like(h.J)
    one[:m, m:2 * m], one[m:2 * m, :m] = h.J[:m, m:2 * m], h.J[m:2 * m, :m]
    zeros = (np.zeros_like(h.J), np.zeros_like(h.r))
    return {"J zero": (zeros[0], h.r), "r zero": (h.J, zeros[1]), "both zero": zeros,
            "one pair": (one, zeros[1])}


@pytest.mark.parametrize("n,d", [(5, 2), (4, 3), (3, 4)])
def test_zero_parts_build_nothing_and_change_no_bit(n, d, monkeypatch):
    # a part that is exactly zero is neither multiplied out nor embedded; every
    # model is bit for bit the term loop over every pair and node operator,
    # zero operators included, built by the products assemble documents
    m = d * d - 1
    flat = netham.gell_mann_basis(d).reshape(m, -1)
    k, l = np.triu_indices(n, 1)
    calls = []
    embed = netham.embed_terms
    monkeypatch.setattr(netham, "embed_terms", lambda *a: calls.append(a) or embed(*a))
    for kind, (J, r) in _zero_part_models(n, d, n + d).items():
        h = netham.PairHamiltonian(n, d, J, r)
        calls.clear()
        got = netham.assemble(h)
        assert len(calls) == (J.any() + r.any()), kind
        ops = flat.T @ (2.0 * J.reshape(n, m, n, m)[k, :, l, :]) @ flat
        ops = ops.reshape(-1, d, d, d, d).transpose(0, 1, 3, 2, 4)
        terms = [*zip(zip(k, l), ops), *zip(((x,) for x in range(n)), r.reshape(n, m) @ flat)]
        want = oracle.embed_terms_loop(n, d, terms)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), kind


def test_the_scatter_needs_under_an_eighth_of_h_beside_it():
    # 3^7 with dense pair ops is the cap size with the most writes per entry of H
    h = netham.random_model(7, 3, 0)
    netham.assemble(h)                          # index tables cached, as in a warm process
    tracemalloc.start()
    try:
        H = netham.assemble(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - H.nbytes < H.nbytes / 8


def test_dense_builds_above_the_cap_are_refused_before_allocating():
    # a 2^13-wide complex matrix would take 1 GiB, the zero model's included
    h, C = netham.random_model(13, 2, 0), harmonic.random_network(13, 2, 0).C
    sch = scheme.decoupling_scheme(13, 2)
    zero = netham.PairHamiltonian(13, 2, np.zeros_like(h.J), np.zeros_like(h.r))
    tracemalloc.start()
    try:
        for build in (lambda: netham.assemble(h), lambda: netham.assemble(zero),
                      lambda: harmonic.coupling_hamiltonian(C, 13, 2),
                      lambda: scheme.average_hamiltonian(h, sch)):
            with pytest.raises(ValueError, match="exceeds 4096"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=25)
@given(n=st.integers(1, 4), d=st.sampled_from([2, 3, 4]), scale=st.floats(1e-12, 1e12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_frobenius_norm_closed_form(n, d, scale, seed):
    h = _sparse_model(n, d, np.random.default_rng(seed))
    h = netham.PairHamiltonian(n, d, scale * h.J, scale * h.r)
    want = np.linalg.norm(netham.assemble(h))
    assert netham.frobenius_norm(h) == pytest.approx(want, rel=1e-12)


def test_frobenius_norm_zero_model():
    assert netham.frobenius_norm(netham.PairHamiltonian(3, 2, np.zeros((9, 9)),
                                                        np.zeros(9))) == 0.0


def test_random_model_invariants_and_determinism():
    h1 = netham.random_model(4, 3, 100)
    h2 = netham.random_model(4, 3, 100)
    h3 = netham.random_model(4, 3, 101)
    assert np.array_equal(h1.J, h2.J) and np.array_equal(h1.r, h2.r)
    assert not np.array_equal(h1.J, h3.J)
    assert np.abs(h1.J).max() <= 1.0 and np.abs(h1.r).max() <= 1.0
    m = h1.m
    for k in range(4):
        assert np.all(h1.J[k * m:(k + 1) * m, k * m:(k + 1) * m] == 0)
    assert np.array_equal(h1.J, h1.J.T)     # exactly, as the model skips the check



@pytest.mark.parametrize("n,d,seed,digest", [
    (8, 2, 0, "9c3b73dc8e1bcbc34057e4ab7ae7bedacc74373f394885a8ad55cf939937702a"),
    (5, 3, 4, "b285ab88f8cf16eb7783e8ff3e7b1b7fd7af0feeda908cea7713e46595e3c89f"),
    (12, 4, 7, "3e5d0dc2e3c109677094bef984fb3c438434ac12d8a43aadf535f68a40689cef")])
def test_random_model_pinned(n, d, seed, digest):
    # the draws of one block per pair in row-major pair order, then r
    h = netham.random_model(n, d, seed)
    assert hashlib.sha256(h.J.tobytes() + h.r.tobytes()).hexdigest() == digest


def test_model_validation():
    with pytest.raises(ValueError):
        netham.PairHamiltonian(2, 2, np.ones((6, 6)), np.zeros(6))   # diag blocks
    J = np.zeros((6, 6))
    J[0, 3] = 1.0                                                    # asymmetric
    with pytest.raises(ValueError):
        netham.PairHamiltonian(2, 2, J, np.zeros(6))
    with pytest.raises(ValueError):
        netham.PairHamiltonian(2, 2, np.zeros((5, 5)), np.zeros(6))
    with pytest.raises(ValueError):
        netham.assemble(netham.random_model(13, 2, 0))               # 2^13 > cap


def _symmetric_entry_points():
    """(name of the matrix, call on it, a valid matrix) for each library entry
    point that takes a real symmetric matrix."""
    C = harmonic.random_network(4, 3, 1).C
    return [
        ("J", lambda M: netham.PairHamiltonian(2, 2, M, np.zeros(6)),
         netham.random_model(2, 2, 0).J),
        ("C", lambda M: harmonic.OscillatorNetwork(4, 3, M), C),
        ("J", lambda M: bounds.tau_min(C, M), C),
        ("Jtilde", lambda M: bounds.tau_min(M, C), C),
        ("S", lambda M: bounds.tau_min_rescaled(C, C, M), np.ones((2, 2))),
        ("T", graphcolor.weighted_chromatic_index, C),
        ("T", harmonic.gram_synthesis_report, C),
    ]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symmetric_inputs_refuse_non_finite_entries(bad):
    # planted on both sides of the diagonal, so the matrix stays symmetric;
    # the corner entry lies outside the diagonal blocks of the two-node model
    for name, call, M in _symmetric_entry_points():
        call(M)
        M = M.copy()
        M[0, -1] = M[-1, 0] = bad
        with pytest.raises(ValueError, match=f"^{name} must hold finite numbers"):
            call(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_local_vector_refuses_non_finite_entries(bad):
    r = np.zeros(6)
    netham.PairHamiltonian(2, 2, np.zeros((6, 6)), r)
    r[2] = bad
    with pytest.raises(ValueError, match="^r must hold finite numbers"):
        netham.PairHamiltonian(2, 2, np.zeros((6, 6)), r)


def test_only_models_from_outside_are_checked(monkeypatch):
    # random_model and average_model build symmetric models with zero diagonal
    # blocks and skip the check; the public constructor and the loader run it
    names = []
    check = netham._check_symmetric

    def counted(M, name, *args):
        names.append(name)
        return check(M, name, *args)
    monkeypatch.setattr(netham, "_check_symmetric", counted)
    h = netham.random_model(5, 3, 2)
    for sch in (scheme.decoupling_scheme(5, 3), scheme.inversion_scheme(5, 3)):
        scheme.average_model(h, sch)
        scheme.verify_scheme(h, sch, -1.0)
    assert names == []
    netham.PairHamiltonian(h.n, h.d, h.J, h.r)
    assert names == ["J"]
    netham.model_from_json(netham.model_to_json(h))
    assert names == ["J", "J"]


@pytest.mark.parametrize("rel, ok", [(1e-13, True), (1e-9, False)])
def test_symmetry_verdict_is_scale_free(rel, ok):
    C = harmonic.random_network(5, 2, 3).C
    C /= np.abs(C).max()
    C[0, 1] += rel              # the relative asymmetry, as largest entry is 1
    for scale in (1.0, 1e6):
        for call in (lambda M: harmonic.OscillatorNetwork(5, 2, M),
                     graphcolor.weighted_chromatic_index):
            if ok:
                call(scale * C)
            else:
                with pytest.raises(ValueError, match="^[CT] must be symmetric"):
                    call(scale * C)


def test_model_json_roundtrip():
    h = netham.random_model(3, 2, 9)
    back = netham.model_from_json(netham.model_to_json(h))
    assert np.allclose(back.J, h.J) and np.allclose(back.r, h.r)
    doc = netham.model_to_json(h)
    doc["J"][0][0] = 1.0
    with pytest.raises(ValueError):
        netham.model_from_json(doc)


@pytest.mark.parametrize("bad, shown", [
    (list(range(10 ** 5)), "got [0, 1, 2, 3, 4, 5, ...]"),
    ("x" * 10 ** 5, "got 'xxx"),
    (10 ** 1000, "got 1000"),
    ([[[list(range(10 ** 3))] * 10] * 10] * 10, "got [[[[...], "),
    (1.5, "got 1.5"),
], ids=["list", "string", "int", "nested", "float"])
def test_a_refused_value_is_cut_short(bad, shown):
    # the one-line error names the value, not all of it
    with pytest.raises(ValueError) as err:
        netham.numbers(bad, "field 'n'", 0, whole=True)
    message = str(err.value)
    assert message.startswith("field 'n' must be an integer, got ") and shown in message
    assert len(message) < 200


@pytest.mark.parametrize("values, ndim, message", [
    (np.array([2 ** 63, 5], dtype=np.uint64), None, "field 'x' must hold integers$"),
    (np.array(2 ** 63, dtype=np.uint64), 0, "field 'x' must be an integer, got "),
    (np.uint64(2 ** 63), 0, "field 'x' must be an integer, got "),
    (np.uint64(5), 0, None),
    (np.uint64(5), None, None),
], ids=["array", "0-d", "scalar", "scalar-accepted", "scalar-accepted-any-rank"])
def test_unsigned_ints_beyond_int64_are_refused(values, ndim, message):
    # a cast to int64 would wrap 2^63 to -2^63; the int64 maximum itself is kept,
    # and a numpy scalar reads as a 0-d array does
    if message is None:
        assert netham.numbers(values, "field 'x'", ndim, whole=True) == 5
    else:
        with pytest.raises(ValueError, match=f"^{message}"):
            netham.numbers(values, "field 'x'", ndim, whole=True)
    top = np.array([2 ** 63 - 1, 5], dtype=np.uint64)
    assert netham.numbers(top, "field 'x'", whole=True).tolist() == [2 ** 63 - 1, 5]
