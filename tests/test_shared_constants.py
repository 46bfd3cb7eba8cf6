"""Per-dimension constants: built once per process, shared and read-only.

The error and su(d) bases, the GF(q) specs and tables, the linear
arrays' narrowed tables and field vectors, the standard basis's adjoint
layouts, the node-pair list and the dense embedding's index tables are
memoised behind the public functions; custom bases are used as given.
The linear-array parts, the pair list and the index tables are kept for
a bounded number of sizes.
"""

import inspect
import itertools
import json

import numpy as np
import pytest

from pulseforge import designs, error_basis, gf, harmonic, netham, scheme, signs

_MEMOS = (netham._gell_mann, error_basis._generalized_pauli, gf._field, gf._tables,
          designs._linear_parts, scheme._standard_adjoint, netham._pairs, netham._embed_tables)
_BOUNDED = (designs._linear_parts, netham._pairs, netham._embed_tables)


def _tables(n: int, d: int, sites) -> tuple:
    sites = np.asarray(sites, dtype=np.intp)
    return netham._embed_tables(n, d, sites.shape[1], sites.tobytes())


def test_repeated_calls_return_the_same_object():
    for d in range(2, 9):
        assert error_basis.generalized_pauli_basis(d) is error_basis.generalized_pauli_basis(d)
    for d in (2, 3, 4):
        assert netham.gell_mann_basis(d) is netham.gell_mann_basis(d)
        assert netham._gell_mann(d) is netham.gell_mann_basis(d)
        assert scheme._standard_adjoint(d) is scheme._standard_adjoint(d)
        assert designs._linear_parts(d * d, 2) is designs._linear_parts(d * d, 2)
    for p, k in ((2, 1), (2, 2), (3, 2), (2, 3), (7, 1)):
        spec = gf.field_new(p, k)
        assert gf.field_new(p, k) is spec
        assert gf.field_for_order(p ** k) is spec
        assert gf.tables(spec) is gf.tables(spec)
        # an equal spec built by hand shares the tables
        assert gf.tables(gf.FieldSpec(p, k, spec.modulus)) is gf.tables(spec)
    for n in (1, 2, 5, 12):
        assert netham._pairs(n) is netham._pairs(n)
        assert netham._pairs(n).tolist() == np.column_stack(np.triu_indices(n, 1)).tolist()
    for n, d, sites in ((5, 3, netham._pairs(5)), (4, 4, [[0], [1], [2]]), (6, 2, [[0, 2, 5]])):
        local, other = _tables(n, d, sites)
        # an equal site array built anew finds the same tables
        again = _tables(n, d, np.array(sites).tolist())
        assert again[0] is local and again[1] is other


def test_refused_arguments_are_not_cached():
    for fn, bad in ((error_basis.generalized_pauli_basis, (9,)), (netham.gell_mann_basis, (5,)),
                    (gf.field_new, (4, 1)), (gf.field_new, (2, 11))):
        for _ in range(2):
            with pytest.raises(ValueError):
                fn(*bad)


def _shared_arrays():
    for d in range(2, 9):
        yield from error_basis.generalized_pauli_basis(d).elements
    for d in (2, 3, 4):
        yield from netham.gell_mann_basis(d)
        yield netham.gell_mann_basis(d)
        yield from scheme._standard_adjoint(d)
    for q in (2, 4, 9, 16, 251):
        yield from gf.tables(gf.field_for_order(q))
    for s, i in ((4, 1), (4, 6), (9, 4), (16, 3), (251, 2)):
        yield from designs._linear_parts(s, i)
    for n in range(2, 7):
        yield netham._pairs(n)
        yield from _tables(n, 2, netham._pairs(n))
        yield from _tables(n, 3, np.arange(n)[:, None])


def test_a_write_to_any_shared_array_raises():
    arrays = list(_shared_arrays())
    assert len(arrays) > 200
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
        with pytest.raises(ValueError, match="read-only"):
            a += 0


def test_no_element_of_a_shared_basis_can_be_replaced():
    for d in range(2, 9):
        b = error_basis.generalized_pauli_basis(d)
        with pytest.raises(TypeError):
            b.elements[1] = b.elements[2]
        assert b.elements[1] is not b.elements[2]


def test_the_size_caches_are_bounded():
    for memo in _BOUNDED:
        assert memo.cache_info().maxsize is not None
    for n in range(1, 2 * netham._pairs.cache_info().maxsize):
        netham._pairs(n)
    for sites in itertools.combinations(range(8), 3):      # 56 site sets
        _tables(8, 2, [sites])
    for s, i in itertools.product((2, 3, 4, 5, 7, 8), range(1, 5)):     # 24 (s, i)
        designs._linear_parts(s, i)
    for memo in _BOUNDED:
        info = memo.cache_info()
        assert info.currsize == info.maxsize, memo


# n on both sides of every step of the linear array's size, up to the CLI cap
_SIZE_STEPS = {2: (2, 5, 6, 21, 22, 85, 86, 341, 342, 1365), 3: (2, 10, 11, 91, 92, 512),
               4: (2, 17, 18, 273)}


@pytest.mark.parametrize("d", sorted(_SIZE_STEPS))
def test_cached_linear_arrays_equal_builds_from_scratch(d):
    # the reference looks up sum_t G[t, r] C[t, c] column by column in fresh
    # field vectors and GF(s) tables; the library builds from its cached
    # constants, both right after they are dropped and when they are warm
    s = d * d
    add, mul = (a.astype(np.uint8) for a in gf.tables(gf.field_for_order(s)))
    for n in _SIZE_STEPS[d]:
        i = 2
        while (s ** i - 1) // (s - 1) < n:
            i += 1
        coords, rows = designs.field_vectors(s, i)
        want = mul[rows[0, :n, None], coords[0]]
        for t in range(1, i):
            want = add[want, mul[rows[t, :n, None], coords[t]]]
        want += 1
        for cold in (True, False):
            if cold:
                designs._linear_parts.cache_clear()
            oa = designs.smallest_oa_for(n, s)
            assert (oa.n, oa.N, oa.lam) == (n, s ** i, s ** (i - 2))
            assert np.array_equal(oa.entries, want)
            assert np.array_equal(scheme.decoupling_scheme(n, d).pulses, want)
            assert np.array_equal(scheme.inversion_scheme(n, d).pulses, want[:, 1:])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_writes_to_built_arrays_reach_no_later_build(d):
    builds = (lambda: scheme.decoupling_scheme(6, d).pulses,
              lambda: scheme.inversion_scheme(6, d).pulses,
              lambda: designs.rao_hamming_oa(d * d, 2).entries,
              lambda: signs.spread_signs(d).Sx,
              *(lambda t=t: designs.field_vectors(d * d, 2)[t] for t in (0, 1)))
    want = [build().copy() for build in builds]
    for build in builds:
        out = build()
        assert out.flags.writeable
        out[...] = 0
        for again, w in zip(builds, want):
            assert np.array_equal(again(), w)


def _outputs(d: int) -> list:
    """average_model, average_hamiltonian and scheme_to_json of three schemes,
    and the assembled model and oscillator network."""
    out = []
    for sch in (scheme.decoupling_scheme(3, d), scheme.inversion_scheme(3, d),
                scheme.selective_scheme(3, d, keep=[0, 2])):
        h = netham.random_model(3, d, 5)
        avg = scheme.average_model(h, sch)
        out.append((avg.J, avg.r, scheme.average_hamiltonian(h, sch),
                    json.dumps(scheme.scheme_to_json(sch), sort_keys=True)))
    net = harmonic.random_network(4, d, 5)
    out.append((net.C, netham.assemble(netham.random_model(4, d, 5)),
                harmonic.coupling_hamiltonian(net.C, 4, d), ""))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cold_and_warm_calls_agree_bit_for_bit(d):
    for memo in _MEMOS:
        memo.cache_clear()
    cold = _outputs(d)
    assert all(memo.cache_info().currsize for memo in _MEMOS)
    hits = [memo.cache_info().hits for memo in _MEMOS]
    warm = _outputs(d)
    # GF(q) specs and tables are read only when designs._linear_parts builds
    assert all(memo.cache_info().hits > h for memo, h in zip(_MEMOS, hits)
               if memo not in (gf._field, gf._tables))
    for (J, r, H, doc), (J2, r2, H2, doc2) in zip(cold, warm):
        assert np.array_equal(J, J2) and np.array_equal(r, r2) and np.array_equal(H, H2)
        assert doc == doc2


def test_public_names_stay_plain_functions():
    # perfbench/tracing.py wraps only the public attributes for which
    # inspect.isfunction holds; a functools.cache object under a public
    # name would escape its spans and call counts
    for mod in (error_basis, gf, harmonic, netham, scheme):
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                assert inspect.isfunction(obj) or inspect.isclass(obj), f"{mod.__name__}.{name}"
