import itertools

import numpy as np
import pytest

import oracle
from pulseforge import error_basis, netham, scheme


def test_d2_elements():
    b = error_basis.generalized_pauli_basis(2)
    assert len(b.elements) == 4
    assert np.allclose(b.elements[0], np.eye(2))
    assert np.allclose(b.elements[1], np.diag([1, -1]))           # Z
    assert np.allclose(b.elements[2], [[0, 1], [1, 0]])           # X
    assert np.allclose(b.elements[3], [[0, -1], [1, 0]])          # XZ


@pytest.mark.parametrize("d", range(2, 9))
def test_weyl_elements_match_matrix_powers(d):
    # label (a, b) is X^a Z^b, as the direct construction by matrix powers gives it
    w = np.exp(2j * np.pi / d)
    X = np.roll(np.eye(d), 1, axis=0)
    Z = np.diag(w ** np.arange(d))
    b = error_basis.generalized_pauli_basis(d)
    for l, e in enumerate(b.elements, start=1):
        a, c = divmod(l - 1, d)
        want = np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, c)
        assert np.abs(e - want).max() <= 1e-15, (a, c)


@pytest.mark.parametrize("d", range(2, 9))
def test_unitarity_and_orthogonality(d):
    b = error_basis.generalized_pauli_basis(d)
    eye = np.eye(d)
    for e in b.elements:
        assert np.abs(e.conj().T @ e - eye).max() < 1e-12
    for i in range(d * d):
        for j in range(d * d):
            ip = np.trace(b.elements[i].conj().T @ b.elements[j]) / d
            want = 1.0 if i == j else 0.0
            assert abs(ip - want) < 1e-12


def test_projective_group_compatibility():
    # product of labels matches product of elements up to a unit phase
    for d in (2, 3, 4):
        b = error_basis.generalized_pauli_basis(d)
        for l1 in range(1, d * d + 1):
            for l2 in range(1, d * d + 1):
                # labels multiply as their (a, b) pairs add, componentwise mod d
                (a1, b1), (a2, b2) = divmod(l1 - 1, d), divmod(l2 - 1, d)
                prod = b.elements[l1 - 1] @ b.elements[l2 - 1]
                target = b.elements[(a1 + a2) % d * d + (b1 + b2) % d]
                overlap = np.trace(target.conj().T @ prod) / d
                assert abs(abs(overlap) - 1.0) < 1e-12


def _average(basis, labels, a):
    """Uniform conjugation average of a over the basis elements with these labels.

    The dense oracle, on a one-node scheme pulsed by each label for an
    equal time.
    """
    N = len(labels)
    sch = scheme.PulseScheme(1, N, np.full(N, 1.0 / N), [list(labels)], [basis])
    return oracle.conjugation_average(a, sch)


def _kills_su(basis, labels) -> bool:
    return all(np.abs(_average(basis, labels, s)).max() <= 1e-8
               for s in netham.gell_mann_basis(basis.d))


def test_annihilate_traceless():
    b2 = error_basis.generalized_pauli_basis(2)
    b3 = error_basis.generalized_pauli_basis(3)
    assert np.abs(_average(b2, range(1, 5), np.diag([1.0, -1.0]))).max() < 1e-12
    assert np.abs(_average(b3, range(1, 10), np.diag([1.0, 0.0, -1.0]))).max() < 1e-12
    # the trace part is fixed
    for d in (2, 3, 4):
        b = error_basis.generalized_pauli_basis(d)
        assert np.allclose(_average(b, range(1, d * d + 1), np.eye(d)), np.eye(d))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_annihilate_full_su_basis(d):
    b = error_basis.generalized_pauli_basis(d)
    for s in netham.gell_mann_basis(d):
        assert np.abs(_average(b, range(1, d * d + 1), s)).max() < 1e-12


def test_conjugation_preserves_su():
    b = error_basis.generalized_pauli_basis(3)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = a + a.conj().T
    a -= np.trace(a) / 3 * np.eye(3)
    for e in b.elements:
        c = e.conj().T @ a @ e
        assert abs(np.trace(c)) < 1e-12
        assert np.abs(c - c.conj().T).max() < 1e-12


def test_minimality():
    # no uniform average over fewer than d^2 basis elements kills su(d):
    # every proper subset for d = 2, 100 seeded size-8 subsets for d = 3
    b2 = error_basis.generalized_pauli_basis(2)
    assert _kills_su(b2, range(1, 5))
    for size in range(1, 4):
        for subset in itertools.combinations(range(1, 5), size):
            assert not _kills_su(b2, subset), subset
    b3 = error_basis.generalized_pauli_basis(3)
    assert _kills_su(b3, range(1, 10))
    rng = np.random.default_rng(0xC0FFEE)
    for _ in range(100):
        pick = rng.choice(9, size=8, replace=False)
        assert not _kills_su(b3, pick + 1), pick


def test_basis_validation():
    with pytest.raises(ValueError):
        error_basis.generalized_pauli_basis(9)
    with pytest.raises(ValueError):
        error_basis.UnitaryErrorBasis(2, [np.eye(2)] * 4)     # not orthogonal
    bad = [np.diag([1.0, -1.0]), np.array([[0, 1], [1, 0]]),
           np.array([[0, -1j], [1j, 0]]), np.eye(2)]
    with pytest.raises(ValueError):
        error_basis.UnitaryErrorBasis(2, bad)                 # identity not first
    good = list(error_basis.generalized_pauli_basis(2).elements)
    for i, e, msg in ((2, 2 * good[2], "element 3 is not unitary"),
                      (1, np.full((2, 2), np.nan), "element 2 is not unitary"),
                      (3, np.eye(3), "element 4 is not 2x2")):
        with pytest.raises(ValueError, match=msg):
            error_basis.UnitaryErrorBasis(2, good[:i] + [e] + good[i + 1:])
    with pytest.raises(ValueError, match="elements 2 and 4 are not trace-orthogonal"):
        error_basis.UnitaryErrorBasis(2, good[:3] + [good[1]])
