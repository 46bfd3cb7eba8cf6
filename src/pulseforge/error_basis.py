"""Unitary error bases: the pulse alphabet that array symbols index.

A basis for dimension d has d^2 unitaries, pairwise orthogonal under
tr(A^dag B)/d, labeled by Z_d x Z_d with (0,0) mapped to the identity.
Conjugation averaged over the whole basis kills every traceless
Hermitian operator, which is the mechanism behind decoupling; the
library averages in coupling-coefficient space (:mod:`pulseforge.scheme`),
and the dense conjugation average is the tests' reference.

Label l in [1, d^2] stands for (a, b) = divmod(l-1, d); this matches
the label arithmetic of :func:`pulseforge.designs.normalize_oa`, so
array normal forms and basis labels compose consistently.  The
generalized Pauli basis of each d is built and checked once in a
process and shared; its elements are read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-12


@dataclass(eq=False)
class UnitaryErrorBasis:
    d: int
    elements: tuple = field(repr=False)

    def __post_init__(self):
        self.elements = tuple(self.elements)    # no caller can swap an element in place
        check_error_basis(self)


def check_error_basis(basis: UnitaryErrorBasis):
    """Raise unless unitarity, trace-orthogonality and the identity label hold.

    Comparisons are written as not (err <= TOL), so NaN entries fail.
    """
    d = basis.d
    if len(basis.elements) != d * d:
        raise ValueError(f"need d^2 = {d * d} elements, got {len(basis.elements)}")
    eye = np.eye(d)
    if not np.abs(basis.elements[0] - eye).max() <= TOL:
        raise ValueError("element with label (0,0) must be the identity")
    # the first misshapen element is reported unless an earlier one is not unitary
    shaped = next((i for i, e in enumerate(basis.elements) if e.shape != (d, d)), d * d)
    E = np.array(basis.elements[:shaped], dtype=complex).reshape(shaped, d, d)
    gram = np.einsum("lji,ljk->lik", E.conj(), E) - eye
    bad = np.flatnonzero(~(np.abs(gram).max(axis=(1, 2), initial=0.0) <= TOL))
    if bad.size:
        raise ValueError(f"element {bad[0] + 1} is not unitary")
    if shaped < d * d:
        raise ValueError(f"element {shaped + 1} is not {d}x{d}")
    flat = E.reshape(d * d, d * d)
    inner = np.triu(flat.conj() @ flat.T / d, 1)
    bad = np.argwhere(~(np.abs(inner) <= TOL))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"elements {i + 1} and {j + 1} are not trace-orthogonal")


def generalized_pauli_basis(d: int) -> UnitaryErrorBasis:
    """Shift/clock basis: label (a, b) maps to X^a Z^b.

    X|j> = |j+1 mod d>, Z|j> = e^{2 pi i j/d}|j>.  For d = 2 the
    elements are 1, Z, X, XZ, phase-equivalent to the Pauli basis.
    """
    return _generalized_pauli(d)


@functools.cache
def _generalized_pauli(d: int) -> UnitaryErrorBasis:
    if not 2 <= d <= 8:
        raise ValueError(f"node dimension {d} out of supported range [2, 8]")
    w = np.exp(2j * np.pi / d)
    # X^a Z^b holds the diagonal of Z^b, a running product, a rows down
    zpow = np.cumprod([np.ones(d)] + [w ** np.arange(d)] * (d - 1), axis=0)
    a, b, j = np.ix_(range(d), range(d), range(d))
    E = np.zeros((d, d, d, d), dtype=complex)
    E[a, b, (j + a) % d, j] = zpow[b, j]
    E.flags.writeable = False           # and so are the element views
    return UnitaryErrorBasis(d, E.reshape(d * d, d, d))
