import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulseforge import netham

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
    assert np.allclose(h1.J, h1.J.T)



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


def test_model_json_roundtrip():
    h = netham.random_model(3, 2, 9)
    back = netham.model_from_json(netham.model_to_json(h))
    assert np.allclose(back.J, h.J) and np.allclose(back.r, h.r)
    doc = netham.model_to_json(h)
    doc["J"][0][0] = 1.0
    with pytest.raises(ValueError):
        netham.model_from_json(doc)
