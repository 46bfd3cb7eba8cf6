"""Per-dimension constants: built once per process, shared and read-only.

The error and su(d) bases, the GF(q) specs and tables, the standard
basis's adjoint matrices, the node-pair list and the dense embedding's
index tables are memoised behind the public functions; custom bases are
used as given.  The pair list and the index tables are kept for a
bounded number of sizes.
"""

import inspect
import itertools
import json

import numpy as np
import pytest

from pulseforge import error_basis, gf, harmonic, netham, scheme

_MEMOS = (netham._gell_mann, error_basis._generalized_pauli, gf._field, gf._tables,
          scheme._standard_adjoint, netham._pairs, netham._embed_tables)
_BOUNDED = (netham._pairs, netham._embed_tables)


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
        yield scheme._standard_adjoint(d)
    for q in (2, 4, 9, 16, 251):
        yield from gf.tables(gf.field_for_order(q))
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
    for memo in _BOUNDED:
        info = memo.cache_info()
        assert info.currsize == info.maxsize, memo


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
    assert all(memo.cache_info().hits > h for memo, h in zip(_MEMOS, hits))
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
