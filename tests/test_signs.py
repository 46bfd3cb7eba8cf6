import numpy as np
import pytest

from pulseforge import designs, netham, scheme, signs


def _zero(h):
    return netham.PairHamiltonian(h.n, h.d, np.zeros_like(h.J), np.zeros_like(h.r))


def _assert_all_checks(st):
    rep = signs.verify_signs(st)
    assert rep["ok"], rep["violations"][:3]


def test_single_line_rows_frozen():
    st = signs.spread_signs(1)
    assert (st.n, st.N) == (1, 4)
    assert st.Sx.tolist() == [[1, -1, 1, -1]]
    assert st.Sy.tolist() == [[1, 1, -1, -1]]
    assert st.Sz.tolist() == [[1, -1, -1, 1]]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_spread_shapes_and_checks(m):
    st = signs.spread_signs(m)
    assert st.N == 4 ** m
    assert st.n == (4 ** m - 1) // 3
    _assert_all_checks(st)


def test_spread_rows_are_hadamard():
    # the 3n rows plus the all-ones row form a full orthogonal +-1 basis
    st = signs.spread_signs(2)
    H = np.vstack([np.ones(st.N, dtype=int), st.Sx, st.Sy, st.Sz])
    assert H.shape == (st.N, st.N)
    assert np.array_equal(H @ H.T, st.N * np.eye(st.N, dtype=int))


def test_spread_m_out_of_range():
    with pytest.raises(ValueError):
        signs.spread_signs(0)
    with pytest.raises(ValueError):
        signs.spread_signs(5)


def test_oa_to_signs_single_row():
    oa = designs.product_oa(1, 4)
    st = signs.oa_to_signs(oa)
    assert st.Sx.tolist() == [[1, 1, -1, -1]]
    assert st.Sy.tolist() == [[1, -1, 1, -1]]
    assert st.Sz.tolist() == [[1, -1, -1, 1]]


def test_oa_to_signs_product_block_pattern():
    st = signs.oa_to_signs(designs.product_oa(2, 4))
    ones = np.ones(4, dtype=int)
    sx = np.array([1, 1, -1, -1])
    assert np.array_equal(st.Sx[0], np.kron(sx, ones))
    assert np.array_equal(st.Sx[1], np.kron(ones, sx))
    _assert_all_checks(st)


def test_oa_to_signs_rao_hamming():
    st = signs.oa_to_signs(designs.rao_hamming_oa(4, 2))
    assert (st.n, st.N) == (5, 16)
    _assert_all_checks(st)


def test_oa_to_signs_wrong_alphabet():
    with pytest.raises(ValueError):
        signs.oa_to_signs(designs.product_oa(2, 3))


def test_schur_identity_from_table():
    for j in range(4):
        assert (signs.SIGN_TABLE["x"][j] * signs.SIGN_TABLE["y"][j]
                == signs.SIGN_TABLE["z"][j])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spread_scheme_decouples(seed):
    st = signs.spread_signs(2)
    sch = signs.signs_to_pulse_scheme(st)
    model = netham.random_model(st.n, 2, seed=seed)
    rep = scheme.verify_scheme(model, sch, _zero(model))
    assert rep["ok"], rep["residual"]


@pytest.mark.parametrize("seed", [3, 4])
def test_oa_scheme_decouples(seed):
    st = signs.oa_to_signs(designs.rao_hamming_oa(4, 2))
    sch = signs.signs_to_pulse_scheme(st)
    model = netham.random_model(st.n, 2, seed=seed)
    rep = scheme.verify_scheme(model, sch, _zero(model))
    assert rep["ok"], rep["residual"]


def test_roundtrip_signs_scheme_signs():
    # conjugation signs of the recovered pulses reproduce the triple
    st = signs.spread_signs(2)
    sch = signs.signs_to_pulse_scheme(st)
    lut = {a: np.array(t) for a, t in signs.SIGN_TABLE.items()}
    # pulse labels 1,2,3,4 = I, Z, X, XZ; as conjugators these sit at
    # table positions 1, 4, 2, 3 (XZ acts like sigma_y)
    pos = {1: 0, 2: 3, 3: 1, 4: 2}
    idx = np.vectorize(pos.get)(sch.pulses)
    assert np.array_equal(lut["x"][idx], st.Sx)
    assert np.array_equal(lut["y"][idx], st.Sy)
    assert np.array_equal(lut["z"][idx], st.Sz)


def test_invalid_pattern_raises():
    st = signs.spread_signs(1)
    st.Sz = st.Sz.copy()
    st.Sz[0, 0] = -1
    with pytest.raises(ValueError, match="invalid sign pattern"):
        signs.signs_to_pulse_scheme(st)


def test_verify_signs_locates_schur_break():
    st = signs.spread_signs(1)
    st.Sz = st.Sz.copy()
    st.Sz[0, 2] *= -1
    rep = signs.verify_signs(st)
    assert not rep["ok"]
    kinds = {v["kind"] for v in rep["violations"]}
    assert "schur" in kinds
    assert {"kind": "schur", "row": 0, "column": 2} in rep["violations"]


def test_verify_signs_locates_orthogonality_break():
    st = signs.spread_signs(2)
    # overwrite one x-row with another to break orthogonality, then fix
    # Schur locally so only the pairing violations remain
    st.Sx = st.Sx.copy()
    st.Sz = st.Sz.copy()
    st.Sx[0] = st.Sx[1]
    st.Sz[0] = st.Sx[0] * st.Sy[0]
    rep = signs.verify_signs(st)
    assert not rep["ok"]
    # every non-orthogonal pair of the 3n rows, in the row-major order of (i, j)
    rows = np.vstack([st.Sx, st.Sy, st.Sz])
    tags = [(axis, k) for axis in "xyz" for k in range(st.n)]
    want = [{"kind": "orthogonality", "rows": (tags[i], tags[j]), "dot": int(rows[i] @ rows[j])}
            for i in range(3 * st.n) for j in range(i + 1, 3 * st.n) if rows[i] @ rows[j]]
    assert len(want) > 1
    assert [v for v in rep["violations"] if v["kind"] == "orthogonality"] == want


def _all_violations(st):
    # every violation, one by one, in the order verify_signs lists them
    rows = np.vstack([st.Sx, st.Sy, st.Sz])
    tags = [(axis, k) for axis in "xyz" for k in range(st.n)]
    return ([{"kind": "schur", "row": k, "column": j} for k in range(st.n) for j in range(st.N)
             if st.Sx[k, j] * st.Sy[k, j] != st.Sz[k, j]]
            + [{"kind": "orthogonality", "rows": (tags[i], tags[j]), "dot": int(rows[i] @ rows[j])}
               for i in range(3 * st.n) for j in range(i + 1, 3 * st.n) if rows[i] @ rows[j]]
            + [{"kind": "row_sum", "row": tags[i], "sum": int(rows[i].sum())}
               for i in range(3 * st.n) if rows[i].sum()])


def test_verify_signs_counts_every_schur_break():
    # flipping all of Sz breaks the product at each of the 5 x 16 entries and
    # keeps every dot product and row sum at zero
    st = signs.spread_signs(2)
    st.Sz = -st.Sz
    rep = signs.verify_signs(st)
    assert rep["count"] == 80 and not rep["ok"]
    assert rep["violations"] == [{"kind": "schur", "row": 0, "column": j} for j in range(16)]


@pytest.mark.parametrize("pattern", [[1, 2, 3, 4], [1, 1, 2, 2], [1, 2, 1, 3]])
def test_verify_signs_counts_all_and_lists_the_first_16(pattern):
    # repeated rows break orthogonality; unbalanced ones break the row sums;
    # a broken Sz breaks the product too
    oa = designs.OrthogonalArray(4, 16, 4, 1, [pattern * 4] * 4)
    for st in (signs.oa_to_signs(oa), signs.spread_signs(2)):
        st.Sz = st.Sz.copy()
        st.Sz[1, ::5] = 1
        want = _all_violations(st)
        rep = signs.verify_signs(st)
        assert rep == {"ok": False, "count": len(want), "violations": want[:16]}
    st = signs.spread_signs(3)
    assert signs.verify_signs(st) == {"ok": True, "count": 0, "violations": []}


def test_verify_signs_row_sum_break():
    st = signs.spread_signs(1)
    st.Sx = np.ones_like(st.Sx)
    rep = signs.verify_signs(st)
    assert any(v["kind"] == "row_sum" for v in rep["violations"])


def test_constructor_validation():
    with pytest.raises(ValueError, match="n x N"):
        signs.SignTriple(2, 4, np.ones((1, 4), int), np.ones((2, 4), int),
                         np.ones((2, 4), int))
    with pytest.raises(ValueError, match=r"\+-1"):
        signs.SignTriple(1, 4, np.array([[1, 0, 1, 1]]),
                         np.ones((1, 4), int), np.ones((1, 4), int))


@pytest.mark.parametrize("bad", [[[1.5, -1]], [[True, -1]]])
def test_constructor_refuses_fractional_and_bool_signs(bad):
    # a cast to int read 1.5 as the valid sign 1
    with pytest.raises(ValueError, match="Sx must hold integers"):
        signs.SignTriple(1, 2, bad, [[1, 1]], [[1, -1]])
    st = signs.SignTriple(1, 2, [[1.0, -1.0]], [[1, 1]], [[1, -1]])
    assert st.Sx.dtype == int and st.Sx.tolist() == [[1, -1]]


# a fractional or boolean size, or a non-integer sign, would be truncated to a valid one
@pytest.mark.parametrize("key,bad", [("n", 1.9), ("n", True), ("N", None),
                                     ("Sx", [[True, -1, 1, -1]]), ("Sy", [[1.2, -1, -1, 1]])])
def test_json_rejects_malformed_fields(key, bad):
    doc = {**signs.signs_to_json(signs.spread_signs(1)), key: bad}
    with pytest.raises(ValueError, match=f"field '{key}'"):
        signs.signs_from_json(doc)


def test_json_roundtrip():
    st = signs.spread_signs(2)
    doc = signs.signs_to_json(st)
    back = signs.signs_from_json(doc)
    assert back.n == st.n and back.N == st.N
    assert np.array_equal(back.Sx, st.Sx)
    assert np.array_equal(back.Sy, st.Sy)
    assert np.array_equal(back.Sz, st.Sz)
    _assert_all_checks(back)
