import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseforge import bounds, netham, scheme

import oracle


def _complete_zz_J(n):
    return oracle.complete_coupling_model(n, 2, alpha=2, coeff=1.0).J


def test_majorizes_basics():
    assert bounds.majorizes([1, 0, -1], [2, 0, -2])
    assert bounds.majorizes([1, 0, -1], [1, 0, -1])
    assert not bounds.majorizes([2, 0, -2], [1, 0, -1])
    # unequal totals fail even when prefixes are fine
    assert not bounds.majorizes([0, 0, 0], [1, 1, 1])
    with pytest.raises(ValueError):
        bounds.majorizes([1, -1], [1, 0, -1])


def test_majorization_sum_rule_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        A = rng.normal(size=(6, 6))
        A = A + A.T
        B = rng.normal(size=(6, 6))
        B = B + B.T
        sab = np.linalg.eigvalsh(A + B)
        sa = np.linalg.eigvalsh(A)
        sb = np.linalg.eigvalsh(B)
        assert bounds.majorizes(sab, sa + sb, tol=1e-8)


def test_tau_min_identity_and_scaling():
    J = netham.random_model(3, 2, 4).J
    assert abs(bounds.tau_min(J, J) - 1.0) < 1e-9
    assert abs(bounds.tau_min(2.0 * J, J) - 2.0) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tau_min_complete_zz_inversion(n):
    J = _complete_zz_J(n)
    assert abs(bounds.tau_min(-J, J) - (n - 1)) < 1e-9


def test_tau_min_bracket():
    for n in (3, 4):
        J = _complete_zz_J(n)
        t = bounds.tau_min(-J, J)
        x = np.linalg.eigvalsh(-J)
        y = np.linalg.eigvalsh(J)
        assert not bounds.majorizes(x, t * (1 - 1e-6) * y, tol=1e-12)
        assert bounds.majorizes(x, t * (1 + 1e-6) * y, tol=1e-12)


def test_tau_min_mixing_upper_bound():
    # convex mixing by block-orthogonal conjugations scaled to total time tau
    rng = np.random.default_rng(23)
    n, m = 3, 3
    J = netham.random_model(n, 2, 8).J
    tau = 2.5
    for _ in range(5):
        terms = np.zeros_like(J)
        w = rng.random(4)
        w /= w.sum()
        for j in range(4):
            U = np.zeros((n * m, n * m))
            for k in range(n):
                q, _ = np.linalg.qr(rng.normal(size=(m, m)))
                U[k * m:(k + 1) * m, k * m:(k + 1) * m] = q
            terms += tau * w[j] * U @ J @ U.T
        assert bounds.tau_min(terms, J) <= tau * (1 + 1e-6)


def test_tau_min_infeasible():
    # prefix sums of a traceless descending spectrum stay positive until the
    # end, so a vanishing denominator can only come from J = 0
    Jt = np.diag([1.0, 0.5, -0.5, -1.0])
    assert bounds.tau_min(Jt, np.zeros((4, 4))) == float("inf")
    assert bounds.tau_min(np.zeros((4, 4)), np.zeros((4, 4))) == 0.0


def test_tau_min_input_validation():
    ok = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        bounds.tau_min(np.array([[0.0, 1.0], [0.0, 0.0]]), ok)
    with pytest.raises(ValueError):
        bounds.tau_min(np.eye(2), ok)                      # trace 2
    with pytest.raises(ValueError):
        bounds.tau_min(np.diag([1.0, 0.0, -1.0]), ok)      # shape mismatch
    with pytest.raises(ValueError, match="^Jtilde must be square$"):
        bounds.tau_min(np.ones((2, 3)), ok)


def test_rescaled_special_cases():
    J = _complete_zz_J(4)
    ones = np.ones((4, 4))
    assert abs(bounds.tau_min_rescaled(-J, J, ones) - bounds.tau_min(-J, J)) < 1e-12
    assert bounds.tau_min_rescaled(-J, J, np.zeros((4, 4))) == 0.0
    with pytest.raises(ValueError):
        bounds.tau_min_rescaled(-J, J, np.triu(np.ones((4, 4))))
    for n in (0, 5):             # no blocks, and 5 blocks of a 12 x 12 matrix
        with pytest.raises(ValueError, match="blocks do not divide"):
            bounds.rescaled_search(-J, J, n)


def test_rescaled_search_zz():
    J = _complete_zz_J(4)
    best, S = bounds.rescaled_search(-J, J, 4, trials=100)
    assert best >= 3.0 - 1e-9
    assert np.allclose(S, S.T)
    assert set(np.unique(S)) <= {-1.0, 1.0}


@pytest.mark.parametrize("n,alpha", [(3, 0), (4, 1), (5, 2), (6, 2)])
def test_inversion_lower_bound_complete(n, alpha):
    J = oracle.complete_coupling_model(n, 2, alpha=alpha, coeff=1.0).J
    assert abs(bounds.inversion_lower_bound(J) - (n - 1)) < 1e-9


def test_inversion_lower_bound_two_nodes():
    J = oracle.complete_coupling_model(2, 2, alpha=2, coeff=0.7).J
    assert abs(bounds.inversion_lower_bound(J) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        bounds.inversion_lower_bound(np.zeros((4, 4)))


def test_inversion_bound_below_tau_min():
    for seed in range(10):
        J = netham.random_model(3, 2, seed).J
        assert bounds.inversion_lower_bound(J) <= bounds.tau_min(-J, J) + 1e-9


def test_spectral_check_hamiltonian():
    h = netham.random_model(2, 2, 44)
    H = netham.assemble(h)
    sch = scheme.inversion_scheme(2, 2)
    overhead = sch.target_overhead
    avg = scheme.average_hamiltonian(h, sch)
    assert oracle.spectral_check_hamiltonian(overhead * avg, H, overhead)
    assert not oracle.spectral_check_hamiltonian(overhead * avg, H, 0.5)


def test_bound_report_shape():
    J = _complete_zz_J(3)
    rep = bounds.bound_report(-J, J, 3, trials=20)
    assert rep["lower_bound"] is True
    assert abs(rep["tau_min"] - 2.0) < 1e-9
    assert abs(rep["inversion_bound"] - 2.0) < 1e-9
    assert rep["rescaled_max"] >= rep["tau_min"] - 1e-12
    assert len(rep["S_argmax"]) == 3


# -- reference: both spectra decomposed, prefix ratios in an explicit loop ----

def _ref_tau_min(Jt, J):
    x = np.linalg.eigvalsh(Jt)[::-1]
    y = np.linalg.eigvalsh(J)[::-1]
    cx, cy = np.cumsum(x), np.cumsum(y)
    best = 0.0
    for k in range(len(x) - 1):
        if cy[k] <= bounds.TOL:
            if cx[k] > bounds.TOL:
                return math.inf
            continue
        best = max(best, cx[k] / cy[k])
    return best


def _ref_rescaled(Jt, J, S):
    K = np.kron(S, np.ones((J.shape[0] // len(S),) * 2))
    return _ref_tau_min(Jt * K, J * K)


def _ref_search(Jt, J, n, trials, seed):
    # the same seeded draws as rescaled_search, in the same order
    rng = np.random.default_rng(seed)
    best_S = np.ones((n, n))
    best = _ref_rescaled(Jt, J, best_S)
    for _ in range(trials):
        S = _random_signs(rng, n)
        val = _ref_rescaled(Jt, J, S)
        if val > best:
            best, best_S = val, S
    return best, best_S


def _close(got, want):
    return got == want or math.isclose(got, want, rel_tol=1e-12)


def _random_traceless(rng, n, m, pair_shaped):
    D = n * m
    A = rng.normal(size=(D, D))
    A = A + A.T
    if pair_shaped:
        # a coupling matrix: zero m x m blocks on the diagonal
        A = (A.reshape(n, m, n, m) * (1 - np.eye(n))[:, None, :, None]).reshape(D, D)
    # traceless diagonal blocks keep every rescaling by S traceless
    block_means = np.diagonal(A).reshape(n, m).mean(axis=1)
    return A - np.diag(np.repeat(block_means, m))


def _random_signs(rng, n):
    S = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
    return np.triu(S) + np.triu(S, 1).T


@settings(max_examples=40)
@given(n=st.integers(2, 5), m=st.integers(1, 3), pair_shaped=st.booleans(),
       scale=st.sampled_from([0.0, 1e-10, 1.0, 1e3]), seed=st.integers(0, 2 ** 32 - 1))
def test_single_spectrum_route_matches_two_decompositions(n, m, pair_shaped, scale, seed):
    rng = np.random.default_rng(seed)
    J = scale * _random_traceless(rng, n, m, pair_shaped)
    other = _random_traceless(rng, n, m, pair_shaped)
    S = _random_signs(rng, n)
    for Jt in (-J, J, other):
        assert _close(bounds.tau_min(Jt, J), _ref_tau_min(Jt, J))
        assert _close(bounds.tau_min_rescaled(Jt, J, S), _ref_rescaled(Jt, J, S))
    if scale == 0.0:
        assert bounds.tau_min(-J, J) == 0.0
        assert bounds.tau_min(other, J) == math.inf
        return
    rep = bounds.bound_report(-J, J, n, trials=5, seed=seed)
    best, _ = _ref_search(-J, J, n, 5, seed)
    ev = np.linalg.eigvalsh(J)
    assert _close(rep["tau_min"], _ref_tau_min(-J, J))
    assert _close(rep["rescaled_max"], best)
    assert _close(rep["inversion_bound"], ev[-1] / -ev[0])
    assert _close(bounds.tau_min_rescaled(-J, J, np.array(rep["S_argmax"])), rep["rescaled_max"])


@pytest.mark.parametrize("trials", [0, 1, 7])
def test_bound_report_decomposes_once_per_evaluation(monkeypatch, trials):
    # one spectrum for tau_min, reused for the all-ones trial and the
    # inversion bound, and one per random trial, for -J and +J alike
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(1) or eigvalsh(M))
    J = netham.random_model(4, 2, 3).J
    for Jt in (-J, J):
        calls.clear()
        bounds.bound_report(Jt, J, 4, trials=trials)
        assert len(calls) == trials + 1
    calls.clear()
    bounds.tau_min(0.5 * J, J)               # any other target decomposes both sides
    assert len(calls) == 2


@pytest.mark.parametrize("n,d,seed", [(2, 2, 0), (3, 2, 1), (4, 3, 2), (5, 2, 3)])
def test_plus_j_report_equals_two_spectrum_reference(n, d, seed):
    # Jtilde = +J reads its spectrum from J's, and reports the bits that
    # decomposing both sides gives, the argmax of the search included
    J = netham.random_model(n, d, seed).J
    rep = bounds.bound_report(J, J, n, trials=5, seed=seed)
    best, S = _ref_search(J, J, n, 5, seed)
    ev = np.linalg.eigvalsh(J)
    assert rep["tau_min"] == _ref_tau_min(J, J)
    assert rep["rescaled_max"] == best
    assert np.array_equal(np.array(rep["S_argmax"]), S)
    assert rep["inversion_bound"] == float(ev[-1] / -ev[0])


def test_seeded_search_argmax_pinned_to_reference():
    J = netham.random_model(6, 2, 11).J
    rep = bounds.bound_report(-J, J, 6, trials=40, seed=5)
    best, S = _ref_search(-J, J, 6, 40, 5)
    assert np.array_equal(np.array(rep["S_argmax"]), S)
    assert _close(rep["rescaled_max"], best)


def _block_traced_J():
    # traceless, but its two 2 x 2 diagonal blocks have traces 1 and -1
    J = np.zeros((4, 4))
    J[0, 0], J[2, 2] = 1.0, -1.0
    J[0, 2] = J[2, 0] = 0.5
    return J


def test_rescaled_search_refuses_diagonal_blocks_with_a_trace(monkeypatch):
    # an S with S_kk = -1 would flip one block and leave the rescaled J with a
    # trace, so the search is refused up front, before any spectrum is taken
    J = _block_traced_J()
    assert bounds.tau_min(-J, J) == 1.0
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(1) or eigvalsh(M))
    for search in (lambda: bounds.bound_report(-J, J, 2),
                   lambda: bounds.rescaled_search(-J, J, 2),
                   lambda: bounds.rescaled_search(np.zeros((4, 4)), J, 2, trials=0)):
        with pytest.raises(ValueError, match="traceless diagonal blocks"):
            search()
    assert calls == []


def test_direct_rescaling_names_the_blocks_with_a_trace(monkeypatch):
    # J itself is traceless; only its rescaling by an S with S_11 = -1 is not,
    # so the message names the diagonal blocks, before any spectrum is taken
    J = _block_traced_J()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(1) or eigvalsh(M))
    with pytest.raises(ValueError, match="traceless diagonal blocks in J$"):
        bounds.tau_min_rescaled(-J, J, np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert calls == []


def test_search_trials_check_nothing(monkeypatch):
    # the inputs are checked once per call; every trial runs on matrices
    # derived from them, so the number of symmetry checks does not grow with it
    counts = []
    check = netham._check_symmetric
    J = netham.random_model(4, 2, 3).J
    for trials in (0, 50):
        names = []
        monkeypatch.setattr(netham, "_check_symmetric",
                            lambda M, name, *a: names.append(name) or check(M, name, *a))
        bounds.bound_report(-J, J, 4, trials=trials)
        counts.append(len(names))
    assert counts[0] == counts[1] == 1
