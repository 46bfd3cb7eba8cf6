import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseforge import bounds, designs, harmonic

import oracle


def _net(n, d, seed=0):
    return harmonic.random_network(n, d, seed)


def _hc(net):
    return harmonic.coupling_hamiltonian(net.C, net.n, net.d)


def test_coupling_hamiltonian_two_modes():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = harmonic.OscillatorNetwork(2, 2, C)
    H = _hc(net)
    want = np.zeros((4, 4))
    want[1, 2] = want[2, 1] = 1.0       # |01><10| + |10><01|
    assert np.abs(H - want).max() < 1e-12


def test_coupling_hamiltonian_basics():
    net = harmonic.OscillatorNetwork(3, 2, np.zeros((3, 3)))
    assert np.abs(_hc(net)).max() == 0.0
    net = _net(3, 3, seed=1)
    H = _hc(net)
    assert np.abs(H - H.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        _hc(harmonic.OscillatorNetwork(13, 2, np.zeros((13, 13))))


def test_network_validation():
    with pytest.raises(ValueError):
        harmonic.OscillatorNetwork(2, 2, np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        harmonic.OscillatorNetwork(2, 2, np.eye(2))
    with pytest.raises(ValueError):
        harmonic.OscillatorNetwork(2, 1, np.zeros((2, 2)))


def test_phase_scheme_validation():
    with pytest.raises(ValueError):
        harmonic.PhaseScheme(1, 2, np.array([[1.0, 0.5]]))
    with pytest.raises(ValueError):
        harmonic.PhaseScheme(1, 2, np.ones((1, 2)), np.array([0.5, 0.6]))
    # NaN fails the duration and modulus checks, as PulseScheme's do
    with pytest.raises(ValueError, match="must be positive"):
        harmonic.PhaseScheme(1, 2, np.ones((1, 2)), np.array([np.nan, 0.5]))
    with pytest.raises(ValueError, match="modulus 1"):
        harmonic.PhaseScheme(1, 2, np.array([[1.0, np.nan]]))


def test_phase_average_identical_rows_keep_h():
    net = _net(3, 2, seed=2)
    ps = harmonic.PhaseScheme(3, 4, np.tile(np.exp(2j * np.pi * np.arange(4) / 4), (3, 1)))
    avg, ceff = harmonic.phase_average(net, ps)
    assert np.abs(avg - _hc(net)).max() < 1e-10
    assert np.abs(ceff - net.C).max() < 1e-12


def test_phase_average_fourier_two_modes():
    net = _net(2, 3, seed=3)
    ps = harmonic.fourier_phase_scheme(2)
    assert np.allclose(ps.phases, [[1, 1], [1, -1]])
    avg, ceff = harmonic.phase_average(net, ps)
    assert np.abs(avg).max() < 1e-10
    assert np.abs(ceff).max() < 1e-12


def test_ds_decoupling_hadamard_case():
    ds = designs.cyclic_difference_scheme(2, 2)
    net = _net(2, 2, seed=4)
    ps = harmonic.ds_decoupling(net, ds)
    assert np.allclose(ps.phases, [[1, 1], [1, -1]])
    avg, _ = harmonic.phase_average(net, ps)
    assert np.abs(avg).max() < 1e-10


def test_ds_decoupling_five_modes():
    ds = designs.cyclic_difference_scheme(5, 5)
    net = _net(5, 3, seed=5)
    ps = harmonic.ds_decoupling(net, ds)
    assert ps.N == 5
    avg, _ = harmonic.phase_average(net, ps)
    assert np.abs(avg).max() < 1e-10
    with pytest.raises(ValueError):
        harmonic.ds_decoupling(_net(6, 2), ds)


@settings(max_examples=30)
@given(n=st.integers(1, 3), d=st.integers(2, 4), N=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_phase_average_matches_conjugation_loop(n, d, N, seed):
    rng = np.random.default_rng(seed)
    net = _net(n, d, seed=int(rng.integers(2 ** 31)))
    times = rng.uniform(0.05, 1.0, N)
    ps = harmonic.PhaseScheme(n, N, np.exp(2j * np.pi * rng.random((n, N))), times / times.sum())
    H = _hc(net)
    levels = np.arange(d)
    want = np.zeros_like(H)
    for j in range(N):
        U = np.eye(1, dtype=complex)
        for k in range(n):
            U = np.kron(U, np.diag(ps.phases[k, j] ** levels))
        want += ps.times[j] * (U.conj().T @ H @ U)
    got, _ = harmonic.phase_average(net, ps)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(H).max())


def _oracle_gap(net, ps):
    """Frobenius distance of phase_average from the weight-matrix oracle,
    relative to the network's dense Hamiltonian."""
    got, _ = harmonic.phase_average(net, ps)
    return np.linalg.norm(got - oracle.phase_average(net, ps)) / max(1.0, np.linalg.norm(_hc(net)))


def test_phase_average_matches_oracle_weights_benchmark_cases():
    net = _net(5, 4, seed=50)
    assert _oracle_gap(net, harmonic.fourier_inversion(5)) <= 1e-10
    net = _net(6, 3, seed=51)
    ps = harmonic.ds_decoupling(net, designs.difference_scheme_for(6))
    assert _oracle_gap(net, ps) <= 1e-10


@settings(max_examples=30)
@given(n=st.integers(1, 5), d=st.sampled_from([2, 3, 4]), N=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_phase_average_matches_oracle_weights(n, d, N, seed):
    rng = np.random.default_rng(seed)
    net = _net(n, d, seed=int(rng.integers(2 ** 31)))
    times = rng.uniform(0.05, 1.0, N)
    ps = harmonic.PhaseScheme(n, N, np.exp(2j * np.pi * rng.random((n, N))), times / times.sum())
    assert _oracle_gap(net, ps) <= 1e-10


def test_phase_average_builds_one_dense_matrix(monkeypatch):
    calls = []
    build = harmonic.coupling_hamiltonian
    monkeypatch.setattr(harmonic, "coupling_hamiltonian",
                        lambda *a: calls.append(a) or build(*a))
    net = _net(4, 3, seed=52)
    ps = harmonic.fourier_inversion(4)
    avg, ceff = harmonic.phase_average(net, ps)
    assert len(calls) == 1
    assert np.array_equal(avg, build(ceff, 4, 3))


@settings(max_examples=40)
@given(n=st.integers(2, 5), d=st.sampled_from([2, 3, 4]), N=st.integers(1, 6),
       hermitian=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_verify_phase_scheme_matches_dense_residual(n, d, N, hermitian, seed):
    rng = np.random.default_rng(seed)
    net = _net(n, d, seed=int(rng.integers(2 ** 31)))
    times = rng.uniform(0.05, 1.0, N)
    ps = harmonic.PhaseScheme(n, N, np.exp(2j * np.pi * rng.random((n, N))), times / times.sum())
    T = np.triu(rng.uniform(-1, 1, (n, n)) + 1j * hermitian * rng.uniform(-1, 1, (n, n)), 1)
    T += T.conj().T
    overhead = float(rng.uniform(0.1, 5.0))
    got = harmonic.verify_phase_scheme(net, ps, T, overhead)["residual"]
    dense = overhead * oracle.phase_average(net, ps) - harmonic.coupling_hamiltonian(T, n, d)
    want = np.linalg.norm(dense) / np.linalg.norm(_hc(net))
    assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_verify_phase_scheme_refuses_mismatches():
    net = _net(3, 2, seed=12)
    ps = harmonic.fourier_inversion(3)
    assert harmonic.verify_phase_scheme(net, ps, -net.C, 2.0)["ok"]
    with pytest.raises(ValueError, match="diagonal"):
        harmonic.verify_phase_scheme(net, ps, np.eye(3) - net.C, 2.0)
    with pytest.raises(ValueError, match="disagree on n"):
        harmonic.verify_phase_scheme(net, harmonic.fourier_inversion(4), -net.C, 2.0)
    with pytest.raises(ValueError, match="3 x 3"):
        harmonic.verify_phase_scheme(net, ps, np.zeros((2, 2)), 2.0)
    for overhead in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            harmonic.verify_phase_scheme(net, ps, -net.C, overhead)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_fourier_fallback_decouples_any_n(n):
    net = _net(n, 2, seed=n)
    ps = harmonic.fourier_phase_scheme(n)
    avg, _ = harmonic.phase_average(net, ps)
    assert np.abs(avg).max() < 1e-10


def test_gram_positive_semidefinite():
    for ps in (harmonic.fourier_phase_scheme(4),
               harmonic.fourier_inversion(5),
               harmonic.ds_decoupling(_net(3, 2), designs.cyclic_difference_scheme(3, 3))):
        ev = np.linalg.eigvalsh(ps.phases.conj() @ ps.phases.T)
        assert ev.min() > -1e-10


def test_clique_recoupling_single_clique():
    net = _net(3, 2, seed=7)
    ps = harmonic.clique_recoupling(net, [[0, 1, 2]])
    avg, ceff = harmonic.phase_average(net, ps)
    assert np.abs(avg - _hc(net)).max() < 1e-10
    assert np.abs(ceff - net.C).max() < 1e-12


def test_clique_recoupling_two_pairs():
    net = _net(4, 2, seed=8)
    ps = harmonic.clique_recoupling(net, [[0, 1], [2, 3]])
    assert abs(ps.times.sum() - 1.0) < 1e-12
    _, ceff = harmonic.phase_average(net, ps)
    assert abs(ceff[0, 1] - net.C[0, 1]) < 1e-12
    assert abs(ceff[2, 3] - net.C[2, 3]) < 1e-12
    for k, l in [(0, 2), (0, 3), (1, 2), (1, 3)]:
        assert abs(ceff[k, l]) < 1e-10


def test_clique_recoupling_with_explicit_ds():
    net = _net(4, 2, seed=9)
    ds = designs.cyclic_difference_scheme(3, 2)
    ps = harmonic.clique_recoupling(net, [[0, 1], [2, 3]], ds)
    assert ps.N == 3
    _, ceff = harmonic.phase_average(net, ps)
    assert abs(ceff[0, 1] - net.C[0, 1]) < 1e-12
    assert abs(ceff[0, 2]) < 1e-10


def test_clique_recoupling_singletons_decouple():
    net = _net(4, 2, seed=10)
    ps = harmonic.clique_recoupling(net, [[0], [1], [2], [3]])
    avg, _ = harmonic.phase_average(net, ps)
    assert np.abs(avg).max() < 1e-10


def test_clique_recoupling_validation():
    net = _net(3, 2)
    with pytest.raises(ValueError):
        harmonic.clique_recoupling(net, [[0, 1]])
    with pytest.raises(ValueError):
        harmonic.clique_recoupling(net, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        harmonic.clique_recoupling(net, [[0, 1], [2, 5]])


def test_fourier_inversion_two_modes():
    ps = harmonic.fourier_inversion(2)
    assert np.allclose(ps.phases, [[-1.0], [1.0]])
    G = ps.phases.conj() @ ps.phases.T
    assert np.allclose(np.diag(G), 1.0)
    assert abs(G[0, 1] + 1.0) < 1e-12


def test_fourier_inversion_gram_exact():
    ps = harmonic.fourier_inversion(5)
    G = ps.phases.conj() @ ps.phases.T
    assert np.allclose(np.diag(G), 4.0)
    off = G - np.diag(np.diag(G))
    assert np.abs(off + (np.ones((5, 5)) - np.eye(5))).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fourier_inversion_average(n):
    net = _net(n, 3, seed=20 + n)
    ps = harmonic.fourier_inversion(n)
    H = _hc(net)
    avg, ceff = harmonic.phase_average(net, ps)
    assert np.abs((n - 1) * avg + H).max() < 1e-10 * max(1.0, np.abs(H).max())
    assert np.abs((n - 1) * ceff + net.C).max() < 1e-10


def test_harmonic_j_matrix_spectrum():
    J = harmonic.harmonic_j_matrix(3, 2)
    ev = np.linalg.eigvalsh(J)
    nz = ev[np.abs(ev) > 1e-12]
    assert sorted(np.round(nz, 9).tolist()) == [-1, -1, -1, -1, 2, 2]


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 3), (5, 4)])
def test_harmonic_j_matrix_tau_min(n, d):
    J = harmonic.harmonic_j_matrix(n, d)
    assert abs(bounds.tau_min(-J, J) - (n - 1)) < 1e-9


def test_gram_synthesis_all_minus_one():
    n = 5
    T = -(np.ones((n, n)) - np.eye(n))
    rep = harmonic.gram_synthesis_report(T)
    assert abs(rep["lower"] - (n - 1)) < 1e-9


def test_gram_synthesis_zero_target():
    rep = harmonic.gram_synthesis_report(np.zeros((4, 4)))
    assert rep["lower"] == 0.0 and rep["upper"] == 0.0
    assert rep["constructive"]
    net = _net(4, 2, seed=30)
    out = harmonic.compose_schedule(net, rep["schedule"])
    assert np.abs(out["coupling"]).max() < 1e-12
    assert out["overhead"] == 0.0


def test_gram_synthesis_k4():
    T = np.ones((4, 4)) - np.eye(4)
    T[0, 1] = T[1, 0] = -1.0
    T[2, 3] = T[3, 2] = -1.0
    rep = harmonic.gram_synthesis_report(T)
    assert rep["upper"] == 3.0
    assert len(rep["schedule"]) == 3
    net = _net(4, 2, seed=31)
    out = harmonic.compose_schedule(net, rep["schedule"])
    assert abs(out["overhead"] - 3.0) < 1e-12
    assert np.abs(out["coupling"] - T * net.C).max() < 1e-10


def test_gram_synthesis_fractional_and_errors():
    T = np.zeros((3, 3))
    T[0, 1] = T[1, 0] = 0.5
    rep = harmonic.gram_synthesis_report(T)
    assert rep["schedule"] is None and not rep["constructive"]
    assert "fractional" in rep["note"]
    bad = np.zeros((3, 3))
    bad[0, 1] = bad[1, 0] = 1.5
    with pytest.raises(ValueError):
        harmonic.gram_synthesis_report(bad)
    with pytest.raises(ValueError):
        harmonic.gram_synthesis_report(np.triu(np.ones((3, 3)), 1))


def test_flip_rows():
    net = _net(2, 2, seed=33)
    ps = harmonic.clique_recoupling(net, [[0, 1]])
    flipped = harmonic.flip_rows(ps, [0])
    _, ceff = harmonic.phase_average(net, flipped)
    assert abs(ceff[0, 1] + net.C[0, 1]) < 1e-12


def test_harmonic_json_roundtrips():
    net = _net(3, 2, seed=40)
    back = harmonic.network_from_json(harmonic.network_to_json(net))
    assert np.allclose(back.C, net.C) and back.d == 2
    ps = harmonic.fourier_inversion(3)
    rt = harmonic.phase_scheme_from_json(harmonic.phase_scheme_to_json(ps))
    assert np.abs(rt.phases - ps.phases).max() < 1e-15
    assert np.allclose(rt.times, ps.times)
