import numpy as np
import pytest

from pulseforge import graphcolor, netham, scheme


def _zero(h):
    return netham.PairHamiltonian(h.n, h.d, np.zeros_like(h.J), np.zeros_like(h.r))


def _proper_vertex(g, colors):
    return all(colors[u] != colors[v] for u, v in g.edges)


def _proper_edge(g, colors):
    if set(colors) != g.edges:
        return False
    for e in g.edges:
        for f in g.edges:
            if e != f and set(e) & set(f) and colors[e] == colors[f]:
                return False
    return True


def _path(n):
    return graphcolor.InteractionGraph(n, {(i, i + 1) for i in range(n - 1)})


def _complete(n):
    return graphcolor.InteractionGraph(n, {(u, v) for u in range(n) for v in range(u + 1, n)})


def test_vertex_coloring_complete():
    for n in (3, 4, 5, 6):
        g = _complete(n)
        rep = graphcolor.vertex_coloring(g)
        assert rep["count"] == n and rep["exact"]
        assert _proper_vertex(g, rep["colors"])


def test_vertex_coloring_small_cases():
    g = graphcolor.InteractionGraph(4, set())
    rep = graphcolor.vertex_coloring(g)
    assert rep["count"] == 1
    rep = graphcolor.vertex_coloring(_path(5))
    assert rep["count"] == 2 and rep["exact"]
    # odd cycle needs three colors
    g = graphcolor.InteractionGraph(5, {(i, (i + 1) % 5) for i in range(5)})
    assert graphcolor.vertex_coloring(g)["count"] == 3


def test_vertex_coloring_greedy_path():
    g = graphcolor.InteractionGraph(15, {(i, (i + 1) % 15) for i in range(15)})
    rep = graphcolor.vertex_coloring(g)
    assert not rep["exact"]
    assert _proper_vertex(g, rep["colors"])


def _supported_model(g, d, seed):
    h = netham.random_model(g.n, d, seed)
    m = h.m
    J, J4 = np.zeros_like(h.J), h.J.reshape(g.n, m, g.n, m)
    for u, v in g.edges:
        J[u * m:(u + 1) * m, v * m:(v + 1) * m] = J4[u, :, v]
        J[v * m:(v + 1) * m, u * m:(u + 1) * m] = J4[v, :, u]
    return netham.PairHamiltonian(g.n, d, J, h.r)


def test_colored_decoupling_bipartite():
    g = graphcolor.InteractionGraph(6, {(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)})
    sch = graphcolor.colored_decoupling_scheme(g, 2)
    assert sch.N == 16          # two colors, not six rows
    for seed in range(3):
        h = _supported_model(g, 2, seed)
        rep = scheme.verify_scheme(h, sch, _zero(h))
        assert rep["ok"], rep


@pytest.mark.parametrize("d", [2, 3, 4])
def test_colored_decoupling_of_a_ring_is_exact(d):
    # nodes of one color share a row, and their pair's anchored table is full,
    # but the model does not couple them; every edge joins two array rows, whose
    # constant table anchors to zero, so the average is exactly the zero model
    g = graphcolor.InteractionGraph(6, {(k, (k + 1) % 6) for k in range(6)})
    h = _supported_model(g, d, d)
    sch = graphcolor.colored_decoupling_scheme(g, d)
    assert scheme.verify_scheme(h, sch, None) == {"ok": True, "residual": 0.0}


@pytest.mark.parametrize("d", [2, 3, 4])
def test_colored_decoupling_fails_off_the_graph(d):
    # two nodes of one color run the same pulse row, so a coupling between
    # them that the graph does not hold survives the average: one such block
    # must fail the certificate
    g = graphcolor.InteractionGraph(6, {(k, (k + 1) % 6) for k in range(6)})
    sch = graphcolor.colored_decoupling_scheme(g, d)
    u, v = next((u, v) for u in range(6) for v in range(u + 1, 6)
                if (u, v) not in g.edges and (sch.pulses[u] == sch.pulses[v]).all())
    h = _supported_model(g, d, d)
    assert scheme.verify_scheme(h, sch, None)["ok"]
    m = h.m
    block = netham.random_model(2, d, d).J[:m, m:]
    h.J[u * m:(u + 1) * m, v * m:(v + 1) * m] = block
    h.J[v * m:(v + 1) * m, u * m:(u + 1) * m] = block.T
    assert not scheme.verify_scheme(h, sch, None)["ok"]


def test_colored_decoupling_star():
    g = graphcolor.InteractionGraph(5, {(0, k) for k in range(1, 5)})
    sch = graphcolor.colored_decoupling_scheme(g, 2)
    assert sch.N == 16
    h = _supported_model(g, 2, 11)
    assert scheme.verify_scheme(h, sch, _zero(h))["ok"]


def test_colored_decoupling_complete_is_plain():
    g = _complete(3)
    sch = graphcolor.colored_decoupling_scheme(g, 2)
    plain = scheme.decoupling_scheme(3, 2)
    assert sch.N == plain.N
    h = netham.random_model(3, 2, 5)
    assert scheme.verify_scheme(h, sch, _zero(h))["ok"]


def test_colored_decoupling_edgeless():
    g = graphcolor.InteractionGraph(3, set())
    sch = graphcolor.colored_decoupling_scheme(g, 2)
    h = netham.PairHamiltonian(3, 2, np.zeros((9, 9)), np.arange(9) / 10.0)
    assert scheme.verify_scheme(h, sch, _zero(h))["ok"]


def test_edge_coloring_small():
    rep = graphcolor.edge_coloring(_complete(4))
    assert rep["count"] == 3 and rep["exact"]
    g1 = graphcolor.InteractionGraph(2, {(0, 1)})
    assert graphcolor.edge_coloring(g1)["count"] == 1
    rep = graphcolor.edge_coloring(_complete(3))
    assert rep["count"] == 3    # odd complete graph is class two
    assert graphcolor.edge_coloring(graphcolor.InteractionGraph(3, set()))["count"] == 0


def test_edge_coloring_petersen():
    edges = {(i, (i + 1) % 5) for i in range(5)}
    edges |= {(i + 5, (i + 2) % 5 + 5) for i in range(5)}
    edges |= {(i, i + 5) for i in range(5)}
    g = graphcolor.InteractionGraph(10, edges)
    rep = graphcolor.edge_coloring(g)
    assert not rep["exact"]
    assert rep["count"] <= 4
    assert _proper_edge(g, rep["colors"])


@pytest.mark.parametrize("seed", range(8))
def test_edge_coloring_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 30))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.25}
    if not edges:
        return
    g = graphcolor.InteractionGraph(n, edges)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    rep = graphcolor.edge_coloring(g)
    assert _proper_edge(g, rep["colors"])
    assert rep["count"] <= max(deg) + 1


def _exact_edge_coloring_loop(edges, deg):
    """The former dedicated exact edge search: the reference for the line-graph route."""
    delta = max(deg)
    order = sorted(edges, key=lambda e: -(deg[e[0]] + deg[e[1]]))
    for k in (delta, delta + 1):
        assign = {}
        used = {}

        def dfs(i):
            if i == len(order):
                return True
            u, v = order[i]
            for c in range(k):
                if c not in used.get(u, set()) and c not in used.get(v, set()):
                    assign[(u, v)] = c
                    used.setdefault(u, set()).add(c)
                    used.setdefault(v, set()).add(c)
                    if dfs(i + 1):
                        return True
                    used[u].discard(c)
                    used[v].discard(c)
                    del assign[(u, v)]
            return False

        if dfs(0):
            return assign, k
    raise RuntimeError("edge coloring search failed")  # Delta+1 always works


def _check_against_edge_loop(g):
    rep = graphcolor.edge_coloring(g)
    assert _proper_edge(g, rep["colors"]) and rep["exact"]
    assert set(rep["colors"].values()) == set(range(rep["count"]))
    if g.edges:
        deg = [sum(v in e for e in g.edges) for v in range(g.n)]
        colors, k = _exact_edge_coloring_loop(sorted(g.edges), deg)
        assert _proper_edge(g, colors)
        assert rep["count"] == k
    else:
        assert rep["count"] == 0


def test_exact_edge_coloring_matches_the_edge_search_on_every_subgraph_of_k5():
    all_edges = sorted(_complete(5).edges)
    for mask in range(1 << len(all_edges)):
        edges = {e for i, e in enumerate(all_edges) if mask >> i & 1}
        _check_against_edge_loop(graphcolor.InteractionGraph(5, edges))


@pytest.mark.parametrize("seed", range(6))
def test_exact_edge_coloring_matches_the_edge_search_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        size = int(rng.integers(1, min(graphcolor.EXACT_EDGE_LIMIT, len(pairs)) + 1))
        edges = {pairs[i] for i in rng.choice(len(pairs), size, replace=False)}
        _check_against_edge_loop(graphcolor.InteractionGraph(n, edges))


def test_misra_gries_direct():
    # force the constructive path on instances small enough to cross-check
    for maker, bound in [(lambda: _complete(4), 4),
                         (lambda: _complete(5), 5),
                         (lambda: _path(6), 3)]:
        g = maker()
        deg = [0] * g.n
        for u, v in g.edges:
            deg[u] += 1
            deg[v] += 1
        colors, count = graphcolor._misra_gries(g.n, sorted(g.edges), deg)
        assert _proper_edge(g, colors)
        assert count <= bound


def test_weighted_chromatic_index():
    T = np.ones((4, 4)) - np.eye(4)
    T[0, 1] = T[1, 0] = -1.0
    assert graphcolor.weighted_chromatic_index(T) == 3.0
    assert graphcolor.weighted_chromatic_index(np.zeros((3, 3))) == 0.0
    T = np.zeros((3, 3))
    T[0, 1] = T[1, 0] = 0.5
    assert graphcolor.weighted_chromatic_index(T) == 0.5


def test_weighted_chromatic_index_two_levels():
    # star edges at strength 1 plus one stronger edge
    T = np.zeros((4, 4))
    for k in (1, 2, 3):
        T[0, k] = T[k, 0] = 1.0
    T[1, 2] = T[2, 1] = 2.0
    # levels: (0,1] with 4 edges Delta=3 -> 3 colors; (1,2] single edge -> 1
    assert graphcolor.weighted_chromatic_index(T) == 3.0 + 1.0


def test_weighted_chromatic_index_monotone():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = 5
        A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        A = np.triu(A, 1)
        A = A + A.T
        B = A + np.triu(rng.random((n, n)) * 0.3, 1)
        B = np.triu(B, 1) + np.triu(B, 1).T
        assert graphcolor.weighted_chromatic_index(A) <= \
            graphcolor.weighted_chromatic_index(B) + 1e-12


def test_threshold_decomposition():
    T = np.zeros((3, 3))
    T[0, 1] = T[1, 0] = 0.5
    T[1, 2] = T[2, 1] = 1.0
    levels = graphcolor.threshold_decomposition(T)
    assert [lv["lo"] for lv in levels] == [0.0, 0.5]
    assert [lv["hi"] for lv in levels] == [0.5, 1.0]
    assert levels[0]["edges"] == [(0, 1), (1, 2)]
    assert levels[1]["edges"] == [(1, 2)]


def test_graph_validation_and_json():
    with pytest.raises(ValueError):
        graphcolor.InteractionGraph(3, {(1, 1)})
    with pytest.raises(ValueError):
        graphcolor.InteractionGraph(3, {(0, 5)})
    with pytest.raises(ValueError):
        graphcolor.InteractionGraph(3, {(0, 1)}, {(0, 2): 1.0})
    with pytest.raises(ValueError):
        graphcolor.InteractionGraph(3, {(0, 1)}, {(0, 1): -2.0})
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least one vertex"):
            graphcolor.InteractionGraph(n, set())
    g = graphcolor.InteractionGraph(4, {(0, 1), (2, 3)}, {(0, 1): 0.5})
    doc = graphcolor.graph_to_json(g)
    back = graphcolor.graph_from_json(doc)
    assert back.n == 4 and back.edges == g.edges
    assert back.weights == {(0, 1): 0.5}


def test_an_edge_given_twice_with_different_weights_is_refused():
    # either direction, in a graph or a graph file; the same weight twice is one edge
    with pytest.raises(ValueError, match=r"edge \(0, 1\) given twice, weights 0.5 and 2.0"):
        graphcolor.InteractionGraph(3, {(0, 1)}, {(0, 1): 0.5, (1, 0): 2.0})
    for edges in ([[0, 1, 0.5], [1, 0, 2.0]], [[0, 1, 0.5], [0, 1, 2.0]]):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) given twice"):
            graphcolor.graph_from_json({"n": 3, "edges": edges})
    g = graphcolor.graph_from_json({"n": 3, "edges": [[0, 1, 0.5], [1, 0, 0.5]]})
    assert g.weights == {(0, 1): 0.5}
    assert graphcolor.graph_to_json(g) == {"n": 3, "edges": [[0, 1, 0.5]]}
