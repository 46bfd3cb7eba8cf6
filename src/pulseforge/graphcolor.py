"""Interaction graphs and the colorings the schemes are built from.

Vertex colorings shrink decoupling schemes for partially coupled
networks: nodes of one color share a pulse row, so the array only
needs as many rows as colors.  Edge colorings split a coupling target
into matchings executed one step at a time; their weighted version
W_T integrates the chromatic index over the coupling-strength levels
of a target matrix T.

One exact search colors the vertices of small graphs (<= 12 vertices, so
<= 12 edges for an edge coloring, the vertex coloring of the line graph),
which covers every worked example; larger inputs get greedy vertex and
Misra-Gries Delta+1 edge colorings, flagged as inexact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from . import designs, netham, scheme

EXACT_VERTEX_LIMIT = 12


def _canon(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


@dataclass(eq=False)
class InteractionGraph:
    """n vertices and the pairs (u, v), u < v, that couple; how strongly changes no coloring.

    n and the vertices are integers (numpy ones included), or TypeError."""

    n: int
    edges: set = field(default_factory=set)

    def __post_init__(self):
        self.n = operator.index(self.n)
        if self.n < 1:
            raise ValueError(f"a graph needs at least one vertex, got n = {self.n}")
        canon = set()
        for u, v in self.edges:
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            canon.add(_canon(u, v))
        self.edges = canon

    def adjacency(self) -> list:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


# ---------------------------------------------------------------------------
# vertex coloring

def _exact_vertex_coloring(n, adj):
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    for k in range(n + 1):
        colors = {}

        def dfs(i):
            if i == n:
                return True
            v = order[i]
            used = {colors[u] for u in adj[v] if u in colors}
            top = min(k, max(colors.values(), default=-1) + 2)
            for c in range(top):
                if c not in used:
                    colors[v] = c
                    if dfs(i + 1):
                        return True
                    del colors[v]
            return False

        if dfs(0):
            return colors, k
    raise RuntimeError("coloring search failed")


def _greedy_vertex_coloring(n, adj):
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    colors = {}
    for v in order:
        used = {colors[u] for u in adj[v] if u in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors, max(colors.values(), default=-1) + 1


def vertex_coloring(g: InteractionGraph) -> dict:
    """Proper coloring report: {"colors", "count", "exact"}."""
    exact = g.n <= EXACT_VERTEX_LIMIT
    colors, k = (_exact_vertex_coloring if exact else _greedy_vertex_coloring)(g.n, g.adjacency())
    return {"colors": colors, "count": k, "exact": exact}


def colored_decoupling_scheme(g: InteractionGraph, d: int) -> scheme.PulseScheme:
    """Decouple a partially coupled network with a coloring-sized array.

    Nodes of equal color get identical pulse rows; couplings can only
    sit on edges, whose endpoints differ in color, so every coupling
    sees a full strength-2 row pair.  Local terms die because each row
    is balanced.
    """
    rep = vertex_coloring(g)
    chi = rep["count"]
    oa = designs.smallest_oa_for(max(2, chi), d * d)
    return scheme._pauli_scheme(oa.entries[[rep["colors"][v] for v in range(g.n)]], d)


# ---------------------------------------------------------------------------
# edge coloring

def _misra_gries(n, edges, deg):
    # constructive Delta+1 coloring via fans and alternating-path flips
    K = max(deg) + 1
    ecol = {}
    adjc = [dict() for _ in range(n)]   # vertex -> color -> neighbor

    def is_free(x, c):
        return c not in adjc[x]

    def first_free(x):
        for c in range(K):
            if c not in adjc[x]:
                return c
        raise RuntimeError("palette exhausted")

    # put colors an uncolored edge, drop uncolors a colored one
    def put(u, v, c):
        ecol[_canon(u, v)] = c
        adjc[u][c] = v
        adjc[v][c] = u

    def drop(u, v):
        c = ecol.pop(_canon(u, v))
        del adjc[u][c]
        del adjc[v][c]

    for u, v in edges:
        fan = [v]
        infan = {v}
        while True:
            nxt = None
            for c, w in adjc[u].items():
                if w not in infan and is_free(fan[-1], c):
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
            infan.add(nxt)
        c = first_free(u)
        d = first_free(fan[-1])
        if not is_free(u, d):
            # flip colors c/d along the maximal alternating path from u
            path = []
            x, col = u, d
            while col in adjc[x]:
                y = adjc[x][col]
                path.append((x, y, col))
                x, col = y, (c if col == d else d)
            for a, b, _ in path:
                drop(a, b)
            for a, b, col in path:
                put(a, b, c if col == d else d)
        # longest fan prefix that is still a fan and ends where d is free
        w_idx = None
        for i in range(len(fan)):
            if i > 0 and not is_free(fan[i - 1], ecol[_canon(u, fan[i])]):
                break
            if is_free(fan[i], d):
                w_idx = i
        if w_idx is None:
            raise RuntimeError("fan rotation failed")
        shift = [ecol[_canon(u, fan[t + 1])] for t in range(w_idx)]
        for t in range(1, w_idx + 1):
            drop(u, fan[t])
        for t in range(w_idx):
            put(u, fan[t], shift[t])
        put(u, fan[w_idx], d)
    return ecol, max(ecol.values(), default=-1) + 1


def edge_coloring(g: InteractionGraph) -> dict:
    """Proper edge coloring report: {"colors", "count", "exact"}.

    The count is Delta or Delta+1 in both paths; only the exact search
    certifies which one is optimal.
    """
    edges = sorted(g.edges)
    if len(edges) <= EXACT_VERTEX_LIMIT:
        # the line graph: one vertex per edge, adjacent when two edges share an endpoint
        line = [{j for j, f in enumerate(edges) if j != i and set(e) & set(f)}
                for i, e in enumerate(edges)]
        colors, k = _exact_vertex_coloring(len(edges), line)
        return {"colors": {e: colors[i] for i, e in enumerate(edges)}, "count": k, "exact": True}
    deg = np.bincount(np.ravel(edges), minlength=g.n).tolist()
    colors, k = _misra_gries(g.n, edges, deg)
    return {"colors": colors, "count": k, "exact": False}


# ---------------------------------------------------------------------------
# weighted chromatic index

def threshold_decomposition(T: np.ndarray) -> list:
    """Level sets of |T|: one entry per threshold gap with its edge coloring."""
    T = netham._check_symmetric(T, "T")
    n = T.shape[0]
    u, v = np.triu_indices(n, 1)
    mags = np.abs(T[u, v])
    levels = []
    prev = 0.0
    for t in np.unique(mags[mags > 0]).tolist():
        live = mags > prev
        edges = list(zip(u[live].tolist(), v[live].tolist()))     # in row order, as sorted
        levels.append({"lo": prev, "hi": t, "edges": edges,
                       "coloring": edge_coloring(InteractionGraph(n, edges))})
        prev = t
    return levels


def weighted_chromatic_index(T: np.ndarray) -> float:
    """Integral of the chromatic index over the coupling levels of T."""
    return float(sum((lv["hi"] - lv["lo"]) * lv["coloring"]["count"]
                     for lv in threshold_decomposition(T)))


# ---------------------------------------------------------------------------
# serialization

def graph_to_json(g: InteractionGraph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in sorted(g.edges)]}


def graph_from_json(doc: dict) -> InteractionGraph:
    edges = netham.numbers(netham.json_field(doc, "edges"), "field 'edges'", whole=True)
    if edges.shape != (0,) and edges.shape[1:] != (2,):      # [] or (E, 2)
        raise ValueError("field 'edges' must be a list of [u, v] rows")
    return InteractionGraph(netham.numbers(netham.json_field(doc, "n"), "field 'n'", 0, whole=True),
                            set(map(tuple, edges.tolist())))
