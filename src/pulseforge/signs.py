"""Qubit decoupling via sign matrices.

Conjugating a Pauli operator by 1, sigma_x, sigma_y or sigma_z leaves
it fixed up to a sign, so a qubit pulse scheme is fully described by
three n x N sign matrices (one per Pauli axis).  Decoupling needs
every pair of the 3n rows orthogonal and every row balanced; the
entrywise product Sx*Sy = Sz is forced by the conjugation table.

Triples come from one source: relabeling a strength-2 array over four
symbols.  The line partition of F4^m is the linear array over GF(4)
relabeled, with sigma_x and sigma_y swapped and the columns in
digit-reversed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import designs, netham, scheme

# signs acquired by (sigma_x, sigma_y, sigma_z) under conjugation by
# 1, sigma_x, sigma_y, sigma_z (in that symbol order)
SIGN_TABLE = {
    "x": (1, 1, -1, -1),
    "y": (1, -1, 1, -1),
    "z": (1, -1, -1, 1),
}

# conjugating element of each column pattern (sx, sy, sz) as a shift/clock
# label, indexed by the sign bits 4[sx < 0] + 2[sy < 0] + [sz < 0]: I, Z, X
# and XZ (sigma_y and XZ differ by a phase only, so they conjugate
# identically); 0 marks the four patterns with sx * sy != sz
_LABEL_OF_SIGN_BITS = np.array([1, 0, 0, 3, 0, 4, 2, 0])

# SIGN_TABLE's y, x and z rows, read-only: Sx, Sy, Sz of the line partition at
# a field entry [0, 1, w, w^2], and Sy, Sx, Sz of an array at a symbol 1..4
_SIGN_ROWS = np.array([SIGN_TABLE[axis] for axis in "yxz"])
_SIGN_ROWS.flags.writeable = False


@dataclass(eq=False)
class SignTriple:
    n: int
    N: int
    Sx: np.ndarray = field(repr=False)
    Sy: np.ndarray = field(repr=False)
    Sz: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("Sx", "Sy", "Sz"):
            M = netham.numbers(getattr(self, name), name, whole=True)
            if M.shape != (self.n, self.N):
                raise ValueError(f"{name} must be n x N")
            if not np.all(np.abs(M) == 1):
                raise ValueError(f"{name} entries must be +-1")
            setattr(self, name, M)


def oa_to_signs(oa: designs.OrthogonalArray) -> SignTriple:
    """Relabel a strength-2 array over four symbols into a sign triple.

    Symbol j means conjugation by the j-th element of (1, sigma_x,
    sigma_y, sigma_z); each Pauli row is an entrywise table lookup.
    """
    if oa.s != 4:
        raise ValueError("need a four-symbol array")
    Sy, Sx, Sz = _SIGN_ROWS.take(oa.entries - 1, axis=1)
    return SignTriple(oa.n, oa.N, Sx, Sy, Sz)


def spread_signs(m: int) -> SignTriple:
    """Sign triple from the line partition of F4^m.

    The (4^m-1)/3 lines {v, w*v, w^2*v} partition the nonzero vectors;
    line v gives rows chi(<w v, c>), chi(<w^2 v, c>), chi(<v, c>) over
    all c, chi the additive character of F4 that is -1 at 1 and w: all
    distinct non-constant rows of the 2m-fold tensor power of the 2x2
    Hadamard matrix, pairwise orthogonal.  So Sx, Sy, Sz are SIGN_TABLE's
    y, x, z rows read at the linear GF(4) array's entry <v, c>, column j
    taking c with j's base-4 digits reversed (first coordinate highest).
    """
    if not 1 <= m <= 4:
        raise ValueError("m out of supported range [1, 4]")
    entries = designs._linear_entries(4, m, None)
    Sx, Sy, Sz = _SIGN_ROWS.take(entries[:, np.arange(4 ** m).reshape((4,) * m).T.ravel()], axis=1)
    return SignTriple(len(entries), 4 ** m, Sx, Sy, Sz)


def verify_signs(st: SignTriple) -> dict:
    """Check Schur product, 3n-row orthogonality and zero row sums.

    count is the number of violations; the list holds the first 16: Schur
    breaks by (row, column), then non-orthogonal row pairs i < j in
    row-major order, then nonzero row sums.
    """
    # in floats the Gram product runs in BLAS; sums of +-1 are exact there
    rows = np.vstack([st.Sx, st.Sy, st.Sz]).astype(float)
    tags = [(axis, k) for axis in ("x", "y", "z") for k in range(st.n)]
    G, sums = rows @ rows.T, rows.sum(axis=1)
    G[np.arange(len(G))[:, None] >= np.arange(len(G))] = 0      # keep the pairs i < j
    schur, pairs, unbalanced = (np.flatnonzero(a) for a in (st.Sx * st.Sy != st.Sz, G, sums))
    violations = [{"kind": "schur", "row": k, "column": j}
                  for k, j in zip(*(a.tolist() for a in np.divmod(schur[:16], st.N)))]
    violations += [{"kind": "orthogonality", "rows": (tags[i], tags[j]), "dot": int(G[i, j])}
                   for i, j in zip(*np.divmod(pairs[:16 - len(violations)], len(G)))]
    violations += [{"kind": "row_sum", "row": tags[i], "sum": int(sums[i])}
                   for i in unbalanced[:16 - len(violations)]]
    count = schur.size + pairs.size + unbalanced.size
    return {"ok": not count, "count": count, "violations": violations}


def signs_to_pulse_scheme(st: SignTriple) -> scheme.PulseScheme:
    """Recover the pulse sequence: each sign column names its conjugator.

    The four valid (sx, sy, sz) patterns are distinct, so the lookup is
    unique; anything else means the triple is corrupted.
    """
    pulses = _LABEL_OF_SIGN_BITS[4 * (st.Sx < 0) + 2 * (st.Sy < 0) + (st.Sz < 0)]
    bad = np.argwhere(pulses == 0)
    if bad.size:
        k, j = bad[0]
        pat = (int(st.Sx[k, j]), int(st.Sy[k, j]), int(st.Sz[k, j]))
        raise ValueError(f"invalid sign pattern {pat} at row {k}, column {j}")
    return scheme._pauli_scheme(pulses, 2)


def signs_to_json(st: SignTriple) -> dict:
    return {"n": st.n, "N": st.N, "Sx": st.Sx.tolist(),
            "Sy": st.Sy.tolist(), "Sz": st.Sz.tolist()}


def signs_from_json(doc: dict) -> SignTriple:
    n, N = (netham.numbers(netham.json_field(doc, k), f"field {k!r}", 0, whole=True) for k in "nN")
    return SignTriple(n, N, *(netham.numbers(netham.json_field(doc, k), f"field {k!r}", whole=True)
                              for k in ("Sx", "Sy", "Sz")))
