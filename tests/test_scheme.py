import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseforge import designs, error_basis, graphcolor, netham, scheme, signs

import oracle

SZ = np.diag([1.0, -1.0]).astype(complex)


def _scaled(h, c):
    return netham.PairHamiltonian(h.n, h.d, c * h.J, c * h.r)


def _identity_scheme(n, d, N=3):
    basis = error_basis.generalized_pauli_basis(d)
    times = np.array([0.2, 0.5, 0.3])[:N]
    times = times / times.sum()
    return scheme.PulseScheme(n, N, times, np.ones((n, N), dtype=int), [basis] * n)


def test_identity_scheme_returns_h():
    h = netham.random_model(2, 2, 1)
    H = netham.assemble(h)
    avg = scheme.average_hamiltonian(h, _identity_scheme(2, 2))
    assert np.abs(avg - H).max() < 1e-12


def test_two_qubit_product_oa_decouples():
    oa = designs.product_oa(2, 4)
    basis = error_basis.generalized_pauli_basis(2)
    sch = scheme.PulseScheme(2, 16, np.full(16, 1 / 16), oa.entries, [basis] * 2)
    h = netham.random_model(2, 2, 42)
    avg = scheme.average_hamiltonian(h, sch)
    assert np.abs(avg).max() < 1e-10


def test_five_qubit_rao_hamming_decouples():
    oa = designs.rao_hamming_oa(4, 2)
    basis = error_basis.generalized_pauli_basis(2)
    sch = scheme.PulseScheme(5, 16, np.full(16, 1 / 16), oa.entries, [basis] * 5)
    h = netham.random_model(5, 2, 7)
    assert np.abs(scheme.average_hamiltonian(h, sch)).max() < 1e-10


def test_decoupling_scheme_sizes():
    assert scheme.decoupling_scheme(4, 3).N == 81
    assert scheme.decoupling_scheme(5, 2).N == 16
    assert scheme.decoupling_scheme(2, 2).N == 16
    assert scheme.decoupling_scheme(6, 2).N == 64


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (5, 2), (3, 3)])
def test_decoupling_sweep(n, d):
    sch = scheme.decoupling_scheme(n, d)
    for seed in range(3):
        h = netham.random_model(n, d, seed)
        rep = scheme.verify_scheme(h, sch, _scaled(h, 0.0))
        assert rep["ok"], rep


def test_selective_keep_two():
    h = oracle.complete_coupling_model(3, 2, alpha=2, coeff=0.5, with_local=True)
    sch = scheme.selective_scheme(3, 2, keep={0, 1})
    avg = scheme.average_hamiltonian(h, sch)
    eye = np.eye(2)
    want = (np.kron(np.kron(SZ, SZ), eye)
            + 0.5 * np.kron(np.kron(SZ, eye), eye)
            + 0.5 * np.kron(np.kron(eye, SZ), eye))
    assert np.abs(avg - want).max() < 1e-10


def test_selective_keep_one():
    h = oracle.complete_coupling_model(3, 2, alpha=2, coeff=0.5, with_local=True)
    sch = scheme.selective_scheme(3, 2, keep={0})
    avg = scheme.average_hamiltonian(h, sch)
    want = 0.5 * np.kron(SZ, np.eye(4))
    assert np.abs(avg - want).max() < 1e-10


def test_selective_keep_all_degenerate():
    h = netham.random_model(2, 2, 3)
    sch = scheme.selective_scheme(2, 2, keep={0, 1})
    assert sch.N == 1
    assert np.abs(scheme.average_hamiltonian(h, sch) - netham.assemble(h)).max() < 1e-12


def test_selective_random_models():
    # the kept sub-model is exactly what survives
    for keep in ({0}, {2}, {0, 2}):
        h = netham.random_model(4, 2, 55)
        sch = scheme.selective_scheme(4, 2, keep)
        m = h.m
        J = np.zeros_like(h.J)
        ks = sorted(keep)
        if len(ks) == 2:
            a, b = ks
            J4 = h.J.reshape(h.n, m, h.n, m)
            J[a * m:(a + 1) * m, b * m:(b + 1) * m] = J4[a, :, b]
            J[b * m:(b + 1) * m, a * m:(a + 1) * m] = J4[b, :, a]
        r = np.zeros_like(h.r)
        for k in ks:
            r[k * m:(k + 1) * m] = h.r[k * m:(k + 1) * m]
        rep = scheme.verify_scheme(h, sch, netham.PairHamiltonian(h.n, h.d, J, r))
        assert rep["ok"], (keep, rep)


def test_selective_errors():
    with pytest.raises(ValueError):
        scheme.selective_scheme(4, 2, keep={0, 1, 2})
    with pytest.raises(ValueError):
        scheme.selective_scheme(3, 2, keep=set())
    with pytest.raises(ValueError):
        scheme.selective_scheme(3, 2, keep={5})


def test_inversion_two_qubits_zz():
    # the array as built is its own normal form: at both sides of each step
    # of the array size and at the caps, the pulses are the normal form's
    for d, ns in ((2, (2, 5, 6, 21, 22, 85, 86, 341, 342, 1365)),
                  (3, (2, 10, 11, 91, 92, 512)), (4, (2, 17, 18, 273))):
        for n in ns:
            want = designs.normalize_oa(designs.smallest_oa_for(n, d * d)).entries[:, 1:]
            assert np.array_equal(scheme.inversion_scheme(n, d).pulses, want), (n, d)
    sch = scheme.inversion_scheme(2, 2)
    assert sch.N == 15 and sch.target_overhead == 15.0
    J = np.zeros((6, 6))
    J[2, 5] = J[5, 2] = 0.5
    h = netham.PairHamiltonian(2, 2, J, np.zeros(6))
    avg = scheme.average_hamiltonian(h, sch)
    H = np.kron(SZ, SZ)
    assert np.abs(15.0 * avg + H).max() < 1e-10


@pytest.mark.parametrize("n,d,overhead", [(2, 2, 15), (5, 2, 15), (3, 3, 80)])
def test_inversion_random_models(n, d, overhead):
    sch = scheme.inversion_scheme(n, d)
    assert sch.N == overhead
    for seed in (0, 1):
        h = netham.random_model(n, d, seed)
        rep = scheme.verify_scheme(h, sch, _scaled(h, -1.0))
        assert rep["ok"], rep


def test_verify_scheme_wrong_overhead():
    sch = scheme.inversion_scheme(2, 2)
    h = netham.random_model(2, 2, 9)
    assert scheme.verify_scheme(h, sch, _scaled(h, -1.0), overhead=sch.N + 1)["ok"] is False
    assert scheme.verify_scheme(h, sch, _scaled(h, -1.0))["ok"] is True


def test_pairwise_sufficiency():
    # the (0,1) coupling average only sees rows 0 and 1 of the pulse matrix
    m = 3
    J = np.zeros((4 * m, 4 * m))
    blk = np.arange(9).reshape(3, 3) / 10.0
    J[0 * m:1 * m, 1 * m:2 * m] = blk
    J[1 * m:2 * m, 0 * m:1 * m] = blk.T
    h = netham.PairHamiltonian(4, 2, J, np.zeros(4 * m))
    sch = scheme.decoupling_scheme(4, 2)
    base = scheme.average_hamiltonian(h, sch)
    swapped = sch.pulses.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    sch2 = scheme.PulseScheme(4, sch.N, sch.times, swapped, sch.bases)
    assert np.abs(scheme.average_hamiltonian(h, sch2) - base).max() < 1e-12


def test_clique_sharing_preserves_heisenberg():
    # identical pulse rows leave the exchange coupling untouched
    m = 3
    J = np.zeros((2 * m, 2 * m))
    for a in range(3):
        J[a, m + a] = J[m + a, a] = 0.5
    h = netham.PairHamiltonian(2, 2, J, np.zeros(2 * m))
    H = netham.assemble(h)
    oa = designs.smallest_oa_for(2, 4)
    basis = error_basis.generalized_pauli_basis(2)
    pulses = np.vstack([oa.entries[0], oa.entries[0]])
    sch = scheme.PulseScheme(2, oa.N, np.full(oa.N, 1 / oa.N), pulses, [basis] * 2)
    assert np.abs(scheme.average_hamiltonian(h, sch) - H).max() < 1e-10


def test_mixed_decoupling():
    rng = np.random.default_rng(13)
    dims = [2, 3, 2]

    def rand_traceless(d):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a + a.conj().T
        return a - np.trace(a) / d * np.eye(d)

    def embed(placed):
        out = np.eye(1, dtype=complex)
        for k, d in enumerate(dims):
            out = np.kron(out, placed.get(k, np.eye(d)))
        return out

    H = np.zeros((12, 12), dtype=complex)
    for k in range(3):
        for l in range(k + 1, 3):
            for _ in range(2):
                H += embed({k: rand_traceless(dims[k]), l: rand_traceless(dims[l])})
        H += embed({k: rand_traceless(dims[k])})
    sch = scheme.mixed_decoupling_scheme(dims)
    assert sch.N == 4 * 9 * 4
    assert np.abs(oracle.conjugation_average(H, sch)).max() < 1e-10


def test_mixed_decoupling_refuses_an_oversized_product():
    # 4^32 = 2^64 columns: an int64 product wraps to 0 and used to end in a ZeroDivisionError
    with pytest.raises(ValueError, match="exceeds"):
        scheme.mixed_decoupling_scheme([2] * 32)


def test_mixed_decoupling_refuses_no_nodes():
    # the empty product is 1: an empty dimension list made a scheme of n = 0, N = 1
    with pytest.raises(ValueError, match="at least one node"):
        scheme.mixed_decoupling_scheme([])


@pytest.mark.parametrize("pulses", [[[1.7, 4.9]], [[True, 2]], [[1, 2.5]], np.array([[True, False]])])
def test_scheme_refuses_fractional_and_bool_labels(pulses):
    # a cast to int stored 1.7 and 4.9 as the valid labels 1 and 4
    basis = error_basis.generalized_pauli_basis(2)
    with pytest.raises(ValueError, match="pulses must hold integers"):
        scheme.PulseScheme(1, 2, [0.5, 0.5], pulses, [basis])
    sch = scheme.PulseScheme(1, 2, [0.5, 0.5], [[1.0, 4.0]], [basis])
    assert sch.pulses.dtype == int and sch.pulses.tolist() == [[1, 4]]


def test_scheme_validation():
    basis = error_basis.generalized_pauli_basis(2)
    with pytest.raises(ValueError):
        scheme.PulseScheme(1, 2, np.array([0.5, 0.6]), np.ones((1, 2), dtype=int), [basis])
    with pytest.raises(ValueError):
        scheme.PulseScheme(1, 2, np.array([1.0, -0.0]), np.ones((1, 2), dtype=int), [basis])
    with pytest.raises(ValueError):
        scheme.PulseScheme(1, 2, np.array([0.5, 0.5]), np.array([[1, 5]]), [basis])
    # a NaN duration fails the positivity check, as PhaseScheme's does
    with pytest.raises(ValueError, match="must be positive"):
        scheme.PulseScheme(1, 2, np.array([np.nan, 0.5]), np.ones((1, 2), dtype=int), [basis])
    with pytest.raises(ValueError, match="^pulse matrix must be n x N$"):
        scheme.PulseScheme(1, 2, np.array([0.5, 0.5]), np.ones((2, 2), dtype=int), [basis])
    with pytest.raises(ValueError, match="^need one basis per node$"):
        scheme.PulseScheme(1, 2, np.array([0.5, 0.5]), np.ones((1, 2), dtype=int), [basis] * 2)
    h = netham.random_model(3, 2, 0)
    with pytest.raises(ValueError):
        scheme.average_hamiltonian(h, _identity_scheme(2, 2))
    with pytest.raises(ValueError, match="^scheme bases do not match the node dimension$"):
        scheme.average_model(h, scheme.decoupling_scheme(3, 3))


def test_scheme_file_n_is_checked_before_the_bases_are_built():
    # one shared basis per node of n = 10^8 would be an 800 MB list
    doc = scheme.scheme_to_json(scheme.decoupling_scheme(3, 2))
    doc["n"] = 10 ** 8
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="pulse matrix must be n x N"):
            scheme.scheme_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_scheme_json_roundtrip():
    sch = scheme.inversion_scheme(2, 2)
    doc = scheme.scheme_to_json(sch)
    assert doc["basis"] == "generalized_pauli" and doc["d"] == 2
    back = scheme.scheme_from_json(doc)
    assert (back.pulses == sch.pulses).all()
    assert back.target_overhead == 15.0
    mixed = scheme.mixed_decoupling_scheme([2, 3])
    doc = scheme.scheme_from_json(scheme.scheme_to_json(mixed))
    assert doc.dims == [2, 3]
    h2 = netham.random_model(2, 2, 31)
    sch2 = scheme.decoupling_scheme(2, 2)
    rt = scheme.scheme_from_json(scheme.scheme_to_json(sch2))
    a = scheme.average_hamiltonian(h2, sch2)
    b = scheme.average_hamiltonian(h2, rt)
    assert np.abs(a - b).max() < 1e-12


def _conjugated_basis(d, rng):
    """Generalized Pauli basis conjugated by a random unitary V: V^dag E V."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    V, _ = np.linalg.qr(z)
    ref = error_basis.generalized_pauli_basis(d)
    return error_basis.UnitaryErrorBasis(d, [V.conj().T @ e @ V for e in ref.elements])


@settings(max_examples=40)
@given(n=st.integers(1, 4), d=st.sampled_from([2, 3, 4]), N=st.integers(1, 12),
       custom=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_average_model_matches_dense_oracle(n, d, N, custom, seed):
    rng = np.random.default_rng(seed)
    h = netham.random_model(n, d, int(rng.integers(2 ** 31)))
    times = rng.uniform(0.05, 1.0, N)
    basis = _conjugated_basis(d, rng) if custom else error_basis.generalized_pauli_basis(d)
    sch = scheme.PulseScheme(n, N, times / times.sum(),
                             rng.integers(1, d * d + 1, size=(n, N)), [basis] * n)
    if custom:
        sch = scheme.scheme_from_json(scheme.scheme_to_json(sch))
        assert len({id(b) for b in sch.bases}) == n    # one basis object per node
    H = netham.assemble(h)
    want = oracle.conjugation_average(H, sch)
    avg = scheme.average_model(h, sch)
    assert np.array_equal(avg.J, avg.J.T)
    got = netham.assemble(avg)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(H)
    assert np.abs(scheme.average_hamiltonian(h, sch) - got).max() == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_custom_bases_still_match_the_oracle(d):
    # a rotated qubit basis, and d = 3 bases read back from a scheme file's
    # basis list, one object per node, after the shared constants are built
    rng = np.random.default_rng(d)
    scheme.average_model(netham.random_model(3, d, 0), scheme.decoupling_scheme(3, d))
    N = 7
    times = rng.uniform(0.05, 1.0, N)
    sch = scheme.PulseScheme(3, N, times / times.sum(), rng.integers(1, d * d + 1, size=(3, N)),
                             [_conjugated_basis(d, rng)] * 3)
    if d == 3:
        sch = scheme.scheme_from_json(scheme.scheme_to_json(sch))
        assert len({id(b) for b in sch.bases}) == 3
    assert not scheme._is_standard_basis(sch.bases)
    h = netham.random_model(3, d, 1)
    H = netham.assemble(h)
    got = scheme.average_hamiltonian(h, sch)
    assert np.linalg.norm(got - oracle.conjugation_average(H, sch)) <= 1e-12 * np.linalg.norm(H)


def test_a_custom_basis_without_a_standard_one_is_written_out():
    # there is no generalized Pauli basis for d = 9, so a shift/clock basis
    # built here is a custom basis, stored element by element
    d = 9
    X = np.roll(np.eye(d), 1, axis=0)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    elements = [np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)
                for a in range(d) for b in range(d)]
    basis = error_basis.UnitaryErrorBasis(d, elements)
    sch = scheme.PulseScheme(1, 3, np.full(3, 1 / 3), [[1, 40, 81]], [basis])
    doc = json.loads(json.dumps(scheme.scheme_to_json(sch)))
    assert doc["d"] == [9] and len(doc["basis"][0]) == 81
    back = scheme.scheme_from_json(doc)
    assert np.array_equal(back.pulses, sch.pulses) and np.array_equal(back.times, sch.times)
    assert all(np.array_equal(x, y) for x, y in zip(back.bases[0].elements, elements))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_copy_of_the_standard_basis_averages_to_the_same_bits(d):
    # a copy is not the shared basis, so its adjoint matrices are computed
    # per call, by the same arithmetic
    standard = error_basis.generalized_pauli_basis(d)
    copy = error_basis.UnitaryErrorBasis(d, [e.copy() for e in standard.elements])
    sch = scheme.inversion_scheme(3, d)
    twin = scheme.PulseScheme(3, sch.N, sch.times, sch.pulses, [copy] * 3, sch.target_overhead)
    assert scheme._is_standard_basis(twin.bases)
    h = netham.random_model(3, d, 2)
    a, b = scheme.average_model(h, sch), scheme.average_model(h, twin)
    assert np.array_equal(a.J, b.J) and np.array_equal(a.r, b.r)
    assert scheme.scheme_to_json(sch) == scheme.scheme_to_json(twin)


@settings(max_examples=40)
@given(n=st.integers(1, 4), d=st.sampled_from([2, 3, 4]), N=st.integers(1, 12),
       custom=st.booleans(), c=st.floats(-2.0, 2.0), overhead=st.floats(0.1, 100.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_verify_scheme_matches_dense_residual(n, d, N, custom, c, overhead, seed):
    rng = np.random.default_rng(seed)
    h = netham.random_model(n, d, int(rng.integers(2 ** 31)))
    target = _scaled(netham.random_model(n, d, int(rng.integers(2 ** 31))), c)
    times = rng.uniform(0.05, 1.0, N)
    basis = _conjugated_basis(d, rng) if custom else error_basis.generalized_pauli_basis(d)
    sch = scheme.PulseScheme(n, N, times / times.sum(),
                             rng.integers(1, d * d + 1, size=(n, N)), [basis] * n)
    H = netham.assemble(h)
    dense = overhead * oracle.conjugation_average(H, sch) - netham.assemble(target)
    want = np.linalg.norm(dense) / np.linalg.norm(H)
    rep = scheme.verify_scheme(h, sch, target, overhead)
    assert rep["residual"] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_verify_scheme_refuses_bad_overhead():
    # a zero overhead would pass an identity scheme as decoupling
    h = netham.random_model(3, 2, 5)
    sch = _identity_scheme(3, 2)
    for overhead in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            scheme.verify_scheme(h, sch, None, overhead)
        with pytest.raises(ValueError, match="target_overhead"):
            scheme.PulseScheme(3, sch.N, sch.times, sch.pulses, sch.bases, overhead)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (180, 2)])
def test_number_target_equals_scaled_model(n, d):
    # c stands for c * model, which verify_scheme never builds; overhead / c
    # overflows for a subnormal c, so the average must not be divided by c
    h = netham.random_model(n, d, 8)
    for sch in (scheme.decoupling_scheme(n, d), scheme.inversion_scheme(n, d)):
        for c in (-1.0, 0.0, 0.5, 1e-310):
            assert scheme.verify_scheme(h, sch, c) == scheme.verify_scheme(h, sch, _scaled(h, c))
    assert scheme.verify_scheme(h, sch, 0.0) == scheme.verify_scheme(h, sch, None)


def test_verify_scheme_refuses_mismatched_target():
    h = netham.random_model(3, 2, 5)
    sch = scheme.decoupling_scheme(3, 2)
    for target in (netham.random_model(4, 2, 5), netham.random_model(3, 3, 5)):
        with pytest.raises(ValueError, match="differ in n or d"):
            scheme.verify_scheme(h, sch, target)


def test_tiny_model_identity_scheme_fails():
    # an identity scheme does nothing; a tiny model must not make it look decoupling
    h = _scaled(netham.random_model(3, 2, 21), 1e-11)
    rep = scheme.verify_scheme(h, _identity_scheme(3, 2), _scaled(h, 0.0))
    assert rep["ok"] is False
    assert rep["residual"] == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["decouple", "invert"])
def test_residual_is_scale_free(kind):
    h = netham.random_model(4, 2, 22)
    if kind == "decouple":
        sch, target = scheme.decoupling_scheme(4, 2), lambda m: _scaled(m, 0.0)
    else:
        sch, target = scheme.inversion_scheme(4, 2), lambda m: _scaled(m, -1.0)
    small = scheme.verify_scheme(h, sch, target(h))
    big = scheme.verify_scheme(_scaled(h, 1e6), sch, target(_scaled(h, 1e6)))
    assert small["ok"] and big["ok"]
    assert big["residual"] == pytest.approx(small["residual"], abs=1e-14)


def test_zero_model_passes_only_against_zero_target():
    zero = netham.PairHamiltonian(2, 2, np.zeros((6, 6)), np.zeros(6))
    sch = scheme.decoupling_scheme(2, 2)
    assert scheme.verify_scheme(zero, sch, zero) == {"ok": True, "residual": 0.0}
    target = _scaled(netham.random_model(2, 2, 1), 1e-20)
    rep = scheme.verify_scheme(zero, sch, target)
    assert rep["ok"] is False and rep["residual"] == np.inf


def _adjoint_stack(sch):
    """Adjoint matrices of each distinct basis and every node's index into them."""
    distinct = list({id(b): b for b in sch.bases}.values())
    index = np.array([[id(x) for x in distinct].index(id(b)) for b in sch.bases])
    return np.array([scheme._adjoint_matrices(b) for b in distinct]), index


def _loop_average(h, sch):
    """The pair-loop reference, fed the adjoint matrices of the scheme's own bases."""
    R, index = _adjoint_stack(sch)
    return _pair_loop_reference(h, sch, R[index])


def _pair_loop_reference(h, sch, R):
    """(J, r) of the average one node pair at a time: the reference for average_model.

    Intervals are grouped by the label pair of each node pair, and block
    J_kl becomes sum_ab w_ab R_ka J_kl R_lb^T, taken as two tensordots.
    """
    n, m, s = h.n, h.m, h.d * h.d
    labels = sch.pulses - 1
    J, J4 = np.zeros_like(h.J), h.J.reshape(n, m, n, m)
    r = np.empty_like(h.r)
    for k in range(n):
        w = np.bincount(labels[k], weights=sch.times, minlength=s)
        r[k * m:(k + 1) * m] = np.tensordot(w, R[k], 1) @ h.r[k * m:(k + 1) * m]
        for l in range(k + 1, n):
            w = np.bincount(labels[k] * s + labels[l], weights=sch.times,
                            minlength=s * s).reshape(s, s)
            left = np.tensordot(w, R[k] @ J4[k, :, l], (0, 0))
            blk = np.tensordot(left, R[l], ([0, 2], [0, 2]))
            J[k * m:(k + 1) * m, l * m:(l + 1) * m] = blk
            J[l * m:(l + 1) * m, k * m:(k + 1) * m] = blk.T
    return J, r


@settings(max_examples=60)
@given(n=st.integers(1, 7), d=st.sampled_from([2, 3, 4]), N=st.integers(1, 40),
       run=st.integers(1, 8), narrow=st.booleans(), apply=st.sampled_from([1, 1 << 20]),
       seed=st.integers(0, 2 ** 32 - 1), design=st.booleans())
def test_row_batched_average_matches_pair_loop(n, d, N, run, narrow, apply, seed, design):
    # nodes share one standard basis or have their own conjugated one; the
    # anchored Gram sums column chunks of n * (d^2 - 1) intervals (narrow), so
    # more than one when N is larger, or takes every interval at once, and
    # blocks are applied one pair at a time or all at once, and mirrored one
    # row at a time or all at once.
    # Pulse rows are random labels, or rows of a strength-2 array, some
    # repeated and some all-identity, so that one chunk mixes zero anchored
    # tables (distinct rows, an identity row against an array row), ones on
    # the identity pair alone (two identity rows) and full ones (a repeated row).
    # Some coupling blocks are zero, at random and at times every pair between
    # two runs of `run` nodes, so some chunks hold only zero blocks and some
    # schemes write none
    rng = np.random.default_rng(seed)
    h = netham.random_model(n, d, int(rng.integers(2 ** 31)))
    if design:
        oa = designs.smallest_oa_for(max(2, n), d * d)
        pulses = oa.entries[rng.integers(0, min(oa.n, 3), n)]
        pulses[rng.random(n) < 0.3] = 1
        N = oa.N
    else:
        pulses = rng.integers(1, d * d + 1, size=(n, N))
    # equal times give float32 counts as tables, unequal ones float64 weights
    times = rng.uniform(0.05, 1.0, N) if rng.random() < 0.5 else np.ones(N)
    standard = error_basis.generalized_pauli_basis(d)
    bases = [_conjugated_basis(d, rng) if rng.random() < 0.5 else standard for _ in range(n)]
    sch = scheme.PulseScheme(n, N, times / times.sum(), pulses, bases)
    zero = rng.random((n, n)) < 0.3
    if rng.random() < 0.5:
        u, v = rng.integers(0, n, 2) // run * run
        zero[u:u + run, v:v + run] = True
    h.J.reshape(n, h.m, n, h.m).transpose(0, 2, 1, 3)[zero | zero.T] = 0.0
    with pytest.MonkeyPatch.context() as mp:
        if narrow:
            mp.setattr(scheme, "_GRAM_ENTRIES", 1)
        mp.setattr(scheme, "_APPLY_ENTRIES", apply)
        mp.setattr(scheme, "_STRIP_ENTRIES", apply)
        avg = scheme.average_model(h, sch)
    J_ref, r_ref = _loop_average(h, sch)
    # exactly what the unchecked model promises: symmetric to the sign of a zero,
    # zero diagonal blocks, finite
    assert avg.J.tobytes() == avg.J.T.tobytes()
    nodes = np.arange(n)
    assert not avg.J.reshape(n, h.m, n, h.m)[nodes, :, nodes, :].any()
    assert np.isfinite(avg.J).all() and np.isfinite(avg.r).all()
    assert np.abs(avg.J - J_ref).max(initial=0.0) <= 1e-12
    assert np.abs(avg.r - r_ref).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_adjoint_matrices_match_trace_loop(d):
    sigma = netham.gell_mann_basis(d)
    rng = np.random.default_rng(d)
    for basis in (error_basis.generalized_pauli_basis(d), _conjugated_basis(d, rng)):
        R = scheme._adjoint_matrices(basis)
        want = np.array([[[np.trace(sa @ E.conj().T @ sb @ E).real / 2 for sb in sigma]
                          for sa in sigma] for E in basis.elements])
        assert np.abs(R - want).max() <= 1e-14


def _qubit_scheme(kind, n, rng):
    if kind == "decouple":
        return scheme.decoupling_scheme(n, 2)
    if kind == "invert":
        return scheme.inversion_scheme(n, 2)
    if kind == "selective":
        return scheme.selective_scheme(n, 2, keep=rng.choice(n, size=min(n, 2), replace=False))
    if kind == "colored":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        return graphcolor.colored_decoupling_scheme(graphcolor.InteractionGraph(n, set(pairs)), 2)
    N = int(rng.integers(1, 20))
    times = rng.uniform(0.05, 1.0, N)
    return scheme.PulseScheme(n, N, times / times.sum(), rng.integers(1, 5, size=(n, N)),
                              [error_basis.generalized_pauli_basis(2)] * n)


@settings(max_examples=60)
@given(n=st.integers(1, 6), kind=st.sampled_from(["random", "decouple", "invert", "selective",
                                                  "colored"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sign_route_matches_pair_loop(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind in ("decouple", "invert") and n < 2:
        n = 2
    sch = _qubit_scheme(kind, n, rng)
    h = netham.random_model(n, 2, int(rng.integers(2 ** 31)))
    avg = scheme.average_model(h, sch)
    J, r = _loop_average(h, sch)
    assert np.array_equal(avg.J, avg.J.T)
    assert np.abs(avg.J - J).max() <= 1e-12 and np.abs(avg.r - r).max() <= 1e-12


def test_every_basis_matches_the_pair_loop():
    # Pauli qubit pulses, a rotated qubit basis (non-diagonal adjoint
    # matrices), mixed per-node bases and d >= 3 bases all take one route.
    # Rows A, I, I, A, A (I all identity) put the pair of I rows between
    # pairs of A rows, whose table it does not share, in one chunk
    rng = np.random.default_rng(3)
    schemes = [make(n, 2) for n in (3, 4)
               for make in (scheme.decoupling_scheme, scheme.inversion_scheme)]
    A, I = designs.smallest_oa_for(2, 4).entries[1], np.ones(16, dtype=int)
    schemes.append(scheme._pauli_scheme(np.array([A, I, I, A, A]), 2))
    rotated = _conjugated_basis(2, rng)
    schemes += [scheme.PulseScheme(3, 4, np.full(4, 0.25), rng.integers(1, 5, size=(3, 4)),
                                   [rotated] * 3),
                scheme.PulseScheme(2, 4, np.full(4, 0.25), rng.integers(1, 5, size=(2, 4)),
                                   [error_basis.generalized_pauli_basis(2), rotated])]
    for n, d in ((3, 3), (2, 4)):
        schemes += [scheme.decoupling_scheme(n, d), scheme.inversion_scheme(n, d),
                    scheme.selective_scheme(n, d, keep=[0])]
    for i, sch in enumerate(schemes):
        h = netham.random_model(sch.n, sch.dims[0], i)
        avg = scheme.average_model(h, sch)
        J, r = _loop_average(h, sch)
        assert np.array_equal(avg.J, avg.J.T)
        assert np.abs(avg.J - J).max() <= 1e-12 and np.abs(avg.r - r).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 5, 6, 21, 40])
def test_sign_route_decouples_exactly(n):
    # a strength-2 array gives every pair one constant table, and the adjoint
    # matrices of any unitary error basis sum to zero, so every d averages to
    # exact zeros: a constant table's blocks are never computed
    for d in (2, 3, 4):
        h = netham.random_model(n, d, n)
        sch = scheme.decoupling_scheme(n, d)
        avg = scheme.average_model(h, sch)
        assert not avg.J.any() and not avg.r.any(), d
        assert scheme.verify_scheme(h, sch, None) == {"ok": True, "residual": 0.0}


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (2, 4)])
def test_product_array_decouples_exactly(n, d):
    oa = designs.product_oa(n, d * d)
    sch = scheme.PulseScheme(n, oa.N, np.full(oa.N, 1.0 / oa.N), oa.entries,
                             [error_basis.generalized_pauli_basis(d)] * n)
    h = netham.random_model(n, d, 7)
    avg = scheme.average_model(h, sch)
    assert not avg.J.any() and not avg.r.any()
    assert scheme.verify_scheme(h, sch, None) == {"ok": True, "residual": 0.0}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 5, 21])
def test_inversion_scales_the_model(n, d):
    # every pair table is constant but for one fewer identity pair, and label
    # 1 acts as exactly I, so each block and local term is scaled by -1/(N-1)
    h = netham.random_model(n, d, n + d)
    sch = scheme.inversion_scheme(n, d)
    avg = scheme.average_model(h, sch)
    assert np.abs(avg.J + h.J / sch.N).max() <= 1e-15 * np.abs(h.J).max() / sch.N
    assert np.abs(avg.r + h.r / sch.N).max() <= 1e-15 * np.abs(h.r).max() / sch.N


@pytest.mark.parametrize("d", [2, 3, 4])
def test_walk_matches_the_pair_loop_when_label_one_is_not_exactly_i(d):
    # time reversal gives every pair one anchored table, on the identity pair
    # alone; two kept nodes of a selective scheme give their pair such a table
    # and every other pair a zero one, which the list of pairs leaves out.
    # Label 1 is nudged off I (the adjoint matrices still sum to zero), so the
    # blockwise exit is not taken and the walk's products are not exact
    R = scheme._adjoint_matrices(error_basis.generalized_pauli_basis(d))
    R[0, 0, 1] += 1e-3
    R[1, 0, 1] -= 1e-3
    n = 5
    h = netham.random_model(n, d, d)
    for sch in (scheme.inversion_scheme(n, d), scheme.selective_scheme(n, d, keep=[1, 3])):
        with pytest.MonkeyPatch.context() as mp:
            # the standard basis's layouts are what the engine reads, cached or not
            mp.setattr(scheme, "_standard_adjoint", lambda _: scheme._layouts(R))
            mp.setattr(scheme, "_APPLY_ENTRIES", 1)         # one pair a chunk
            avg = scheme.average_model(h, sch)
        J, r = _pair_loop_reference(h, sch, np.array([R] * n))
        assert np.array_equal(avg.J, avg.J.T)
        assert np.abs(avg.J - J).max() <= 1e-12 and np.abs(avg.r - r).max() <= 1e-12
    assert scheme._layouts(R)[2] is False       # so the walk, not the blockwise exit, ran


@pytest.mark.parametrize("d", [2, 3, 4])
def test_walk_reads_only_the_pairs_above_the_diagonal(d):
    # the walk averages each pair l > k once and mirrors its block, so the
    # Gram's tables below the diagonal must not count: NaN there would reach J
    # through any product or liveness pass that read it.  One changed entry of
    # a strength-2 array (equal times: counts) and the array at unequal times
    # (weights) both leave live tables
    n = 7
    h = netham.random_model(n, d, d)
    oa, gram = designs.smallest_oa_for(n, d * d), scheme._anchored_gram
    pulses = oa.entries.copy()
    pulses[3, 2] = pulses[3, 2] % (d * d) + 1
    times = np.random.default_rng(d).uniform(0.1, 1.0, oa.N)
    unequal = scheme.PulseScheme(n, oa.N, times / times.sum(), oa.entries,
                                 [error_basis.generalized_pauli_basis(d)] * n)

    def lower_nan(*args):
        D4, node = gram(*args)
        k, l = np.tril_indices(n, -1)
        D4[k, :, l] = np.nan
        return D4, node
    for sch in (scheme._pauli_scheme(pulses, d), unequal):
        want = scheme.average_model(h, sch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "_anchored_gram", lower_nan)
            got = scheme.average_model(h, sch)
        assert want.J.any()
        assert got.J.tobytes() == want.J.tobytes() and got.r.tobytes() == want.r.tobytes()


def _average_and_exit(h, sch):
    """average_model's result, and whether it scaled J blockwise: its test that
    every pair table lies on the identity pair ran and passed."""
    passed, test = [], scheme._on_label_one

    def spy(tables, first):
        ok = test(tables, first)
        if tables.ndim == 4:
            passed.append(ok)
        return ok
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme, "_on_label_one", spy)
        avg = scheme.average_model(h, sch)
    return avg, passed == [True]


def _walked(h, sch):
    """average_model with no table taken to lie on label 1 alone: the walk, for J and r."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme, "_on_label_one", lambda *_: False)
        return scheme.average_model(h, sch)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 5, 13, 40])
def test_identity_pair_exit_gives_the_walks_bits(n, d):
    # time reversal's pair tables are all -e1 e1^T in counts, and selective
    # recoupling's N e1 e1^T on the kept pair and zero elsewhere; all-identity
    # rows at unequal times give weights on the identity pair alone.  Label 1
    # acts as exactly I, so J and r are scaled blockwise, with the walk's bits.
    # One kept node leaves no pair table at all, only its node table.
    # Zero couplings and local terms must give +0.0, as the walk's zeros do
    h = netham.random_model(n, d, n * d)
    h.J.reshape(n, h.m, n, h.m)[[0, 1], :, [1, 0]] = 0.0
    h.r[::3] = 0.0
    times = np.random.default_rng(n).uniform(0.1, 1.0, 6)
    basis = error_basis.generalized_pauli_basis(d)
    for sch, scales in ((scheme.inversion_scheme(n, d), True),
                        (scheme.selective_scheme(n, d, [0]), False),
                        (scheme.selective_scheme(n, d, [0, n - 1]), True),
                        (scheme.PulseScheme(n, 6, times / times.sum(), np.ones((n, 6), dtype=int),
                                            [basis] * n), True)):
        avg, scaled = _average_and_exit(h, sch)
        walk = _walked(h, sch)
        assert scaled is scales
        assert avg.J.tobytes() == walk.J.tobytes() and avg.r.tobytes() == walk.r.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_identity_pair_exit_matches_the_pair_loop(d):
    # one changed entry of time reversal, on node 3, leaves the tables of the
    # pairs among nodes 0-2 on the identity pair and moves the others off it,
    # and a repeated row of selective recoupling moves one pair's table off it
    # while node 0's stay on it: the walk.  Per-node rotated bases keep label 1
    # exactly I (entries snap to integers): the exit, as for all-identity rows
    # at unequal times
    n, rng = 5, np.random.default_rng(d)
    h = netham.random_model(n, d, d)
    inv, sel = scheme.inversion_scheme(n, d), scheme.selective_scheme(n, d, [0, 1])
    pulses, repeated = inv.pulses.copy(), sel.pulses.copy()
    pulses[3, 2] = pulses[3, 2] % (d * d) + 1
    repeated[3] = repeated[2]
    times = rng.uniform(0.1, 1.0, 7)
    rotated = [_conjugated_basis(d, rng) for _ in range(n)]
    for sch, scales in (
            (scheme.PulseScheme(n, inv.N, inv.times, pulses, inv.bases), False),
            (scheme.PulseScheme(n, sel.N, sel.times, repeated, sel.bases), False),
            (scheme.PulseScheme(n, inv.N, inv.times, inv.pulses, rotated), True),
            (scheme.PulseScheme(n, 7, times / times.sum(), np.ones((n, 7), dtype=int),
                                rotated), True)):
        avg, scaled = _average_and_exit(h, sch)
        J, r = _loop_average(h, sch)
        assert scaled is scales
        assert np.array_equal(avg.J, avg.J.T)
        assert np.abs(avg.J - J).max() <= 1e-12 and np.abs(avg.r - r).max() <= 1e-12


def _live_tables(sch, s):
    """The anchored tables D_kl of the pairs k < l whose table is not zero."""
    D4, _ = scheme._anchored_gram(sch.pulses, s, None)
    return [D4[k, :, l] for k, l in zip(*np.triu_indices(sch.n, 1)) if D4[k, :, l].any()]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [4, 7, 10, 17])
def test_synthesized_schemes_have_one_live_table(n, d):
    # the law behind average_model's blockwise exit and the rings' skipped
    # chunks: decoupling has no live pair, and the live pairs of time reversal,
    # of a selective scheme (its kept pair) and of a coloured ring (pairs of
    # one colour, which share a balanced array row, and which a ring's model
    # does not couple) share exactly one table
    s = d * d
    assert _live_tables(scheme.decoupling_scheme(n, d), s) == []
    ring = graphcolor.InteractionGraph(n, {(k, (k + 1) % n) for k in range(n)})
    same_colour = n // 2 * (n // 2 - 1) if n % 2 == 0 else None     # two colours when even
    for sch, count in ((scheme.inversion_scheme(n, d), n * (n - 1) // 2),
                       (scheme.selective_scheme(n, d, [0, 3]), 1),
                       (graphcolor.colored_decoupling_scheme(ring, d), same_colour)):
        tables = _live_tables(sch, s)
        assert count is None or len(tables) == count
        assert len(tables) > 0 and len({t.tobytes() for t in tables}) == 1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_selective_scheme_removes_blocks_exactly(d):
    # a kept node against an array row has a table u_a + v_b, and two array
    # rows a constant one: both anchor to zero, so no block but the kept pair's
    # is computed, and the balanced rows' local terms are exactly zero too
    n, m = 6, d * d - 1
    h = netham.random_model(n, d, d)
    avg = scheme.average_model(h, scheme.selective_scheme(n, d, keep=[0, 3]))
    J4 = avg.J.reshape(n, m, n, m).copy()
    J4[0, :, 3] = J4[3, :, 0] = 0.0
    assert not J4.any()
    assert not avg.r.reshape(n, m)[[1, 2, 4, 5]].any()


@pytest.mark.parametrize("pulses, message", [
    ([[1, 4], [5, 9], [4, 1]], None),
    ([[1, 4], [5, 9], [5, 1]], r"node 2 out of \[1, 4\]"),
    ([[1, 4], [10, 1], [0, 1]], r"node 1 out of \[1, 9\]"),
    ([[0, 4], [1, 1], [1, 1]], r"node 0 out of \[1, 4\]"),
])
def test_scheme_names_the_first_node_with_a_label_out_of_range(pulses, message):
    # each node's labels are checked against its own basis, d = 2, 3 and 2
    bases = [error_basis.generalized_pauli_basis(d) for d in (2, 3, 2)]
    if message is None:
        assert scheme.PulseScheme(3, 2, [0.5, 0.5], pulses, bases).dims == [2, 3, 2]
        return
    with pytest.raises(ValueError, match="pulse labels of " + message):
        scheme.PulseScheme(3, 2, [0.5, 0.5], pulses, bases)


def test_synthesized_schemes_and_arrays_pass_the_label_checks(monkeypatch):
    # every synthesizer goes through the checked constructors, so it reads its
    # labels through netham.numbers, as a scheme or design file does
    calls = []
    numbers = netham.numbers
    monkeypatch.setattr(netham, "numbers", lambda *a, **k: calls.append(a[1]) or numbers(*a, **k))

    def reads(build):
        calls.clear()
        build()
        return calls[:]
    ring = graphcolor.InteractionGraph(5, {(k, (k + 1) % 5) for k in range(5)})
    for d in (2, 3, 4):
        for build in (lambda: scheme.decoupling_scheme(6, d), lambda: scheme.inversion_scheme(6, d),
                      lambda: scheme.selective_scheme(6, d, [0, 3]),
                      lambda: graphcolor.colored_decoupling_scheme(ring, d)):
            assert reads(build) == ["entries", "pulses"], d
    triple, oa = signs.spread_signs(2), designs.product_oa(3, 4)
    assert reads(lambda: signs.signs_to_pulse_scheme(triple)) == ["pulses"]
    for build in (lambda: designs.rao_hamming_oa(4, 2), lambda: designs.product_oa(3, 4),
                  lambda: designs.normalize_oa(oa)):
        assert reads(build) == ["entries"]
    with pytest.raises(ValueError, match=r"pulse labels of node 0 out of \[1, 4\]"):
        scheme._pauli_scheme(np.array([[1, 5]]), 2)
