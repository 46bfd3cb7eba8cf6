"""Qubit decoupling via sign matrices.

Conjugating a Pauli operator by 1, sigma_x, sigma_y or sigma_z leaves
it fixed up to a sign, so a qubit pulse scheme is fully described by
three n x N sign matrices (one per Pauli axis).  Decoupling needs
every pair of the 3n rows orthogonal and every row balanced; the
entrywise product Sx*Sy = Sz is forced by the conjugation table.

Triples come from two sources: relabeling a strength-2 array over four
symbols, or the line partition of F4^m, whose character map phi turns
each line into three rows of a real Hadamard matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import designs, gf, netham, scheme

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

# phi: F4 -> rows of the order-4 Hadamard matrix, indexed by the fixed
# field-element encoding [0, 1, w, w^2]
PHI = np.array([
    (1, 1, 1, 1),
    (1, -1, -1, 1),
    (1, -1, 1, -1),
    (1, 1, -1, -1),
])


@dataclass(eq=False)
class SignTriple:
    n: int
    N: int
    Sx: np.ndarray = field(repr=False)
    Sy: np.ndarray = field(repr=False)
    Sz: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("Sx", "Sy", "Sz"):
            M = netham._whole_numbers(getattr(self, name), name)
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
    lut = {axis: np.array(t) for axis, t in SIGN_TABLE.items()}
    idx = oa.entries - 1
    return SignTriple(oa.n, oa.N, lut["x"][idx], lut["y"][idx], lut["z"][idx])


def spread_signs(m: int) -> SignTriple:
    """Sign triple from the line partition of F4^m.

    The (4^m-1)/3 lines partition the nonzero vectors into triples
    {v, w*v, w^2*v}; mapping each vector through the coordinatewise
    character phi gives all distinct non-constant rows of the 2m-fold
    tensor power of the 2x2 Hadamard matrix, pairwise orthogonal by
    construction.
    """
    if not 1 <= m <= 4:
        raise ValueError("m out of supported range [1, 4]")
    _, mul = gf.tables(gf.field_new(2, 2))
    N = 4 ** m
    digits, reps = designs.field_vectors(4, m)
    n = (N - 1) // 3
    assert reps.shape[1] == n

    def rows(v):
        # kron over coordinates: coordinate t picks the column's base-4
        # digit m-1-t, the first factor being the most significant
        out = np.ones((n, N), dtype=int)
        for t in range(m):
            out *= PHI[v[t][:, None], digits[m - 1 - t]]
        return out

    # w and w^2 encode as 2 and 3
    Sx, Sy, Sz = rows(mul[2, reps]), rows(mul[3, reps]), rows(reps)
    return SignTriple(n, N, Sx, Sy, Sz)


def verify_signs(st: SignTriple) -> dict:
    """Check Schur product, 3n-row orthogonality and zero row sums."""
    violations = []
    if not np.array_equal(st.Sx * st.Sy, st.Sz):
        bad = np.argwhere(st.Sx * st.Sy != st.Sz)
        for k, j in bad[:16]:
            violations.append({"kind": "schur", "row": int(k), "column": int(j)})
    # in floats the Gram product runs in BLAS; sums of +-1 are exact there
    rows = np.vstack([st.Sx, st.Sy, st.Sz]).astype(float)
    tags = [(axis, k) for axis in ("x", "y", "z") for k in range(st.n)]
    G = rows @ rows.T
    for i, j in np.argwhere(np.triu(G, 1)):
        violations.append({"kind": "orthogonality",
                           "rows": (tags[i], tags[j]),
                           "dot": int(G[i, j])})
    sums = rows.sum(axis=1)
    for i in np.flatnonzero(sums):
        violations.append({"kind": "row_sum", "row": tags[i], "sum": int(sums[i])})
    return {"ok": not violations, "violations": violations}


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
    return SignTriple(netham.json_int(doc, "n"), netham.json_int(doc, "N"),
                      *(netham.json_int_rows(doc, key) for key in ("Sx", "Sy", "Sz")))
