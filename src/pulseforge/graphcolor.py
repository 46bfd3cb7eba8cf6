"""Interaction graphs and the colorings the schemes are built from.

Vertex colorings shrink decoupling schemes for partially coupled
networks: nodes of one color share a pulse row, so the array only
needs as many rows as colors.  Edge colorings split a coupling target
into matchings executed one step at a time; their weighted version
W_T integrates the chromatic index over the coupling-strength levels
of a target matrix T.

Exact searches run for small instances (<= 12 vertices resp. <= 10
edges, which covers every worked example); larger inputs use greedy
vertex coloring and a constructive Delta+1 edge coloring, flagged as
inexact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import designs, netham, scheme

EXACT_VERTEX_LIMIT = 12
EXACT_EDGE_LIMIT = 10


def _canon(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


@dataclass(eq=False)
class InteractionGraph:
    n: int
    edges: set = field(default_factory=set)
    weights: dict | None = None

    def __post_init__(self):
        canon = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            canon.add(_canon(u, v))
        self.edges = canon
        if self.weights is not None:
            self.weights = {_canon(*e): w for e, w in self.weights.items()}
            for e, w in self.weights.items():
                if e not in self.edges:
                    raise ValueError(f"weight on missing edge {e}")
                if w <= 0:
                    raise ValueError(f"weight of edge {e} must be positive")

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
    for k in range(1, n + 1):
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
    adj = g.adjacency()
    if g.n <= EXACT_VERTEX_LIMIT:
        colors, k = _exact_vertex_coloring(g.n, adj)
        return {"colors": colors, "count": k, "exact": True}
    colors, k = _greedy_vertex_coloring(g.n, adj)
    return {"colors": colors, "count": k, "exact": False}


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

def _exact_edge_coloring(edges, deg):
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

    def put(u, v, c):
        e = _canon(u, v)
        old = ecol.get(e)
        if old is not None:
            del adjc[u][old]
            del adjc[v][old]
        ecol[e] = c
        adjc[u][c] = v
        adjc[v][c] = u

    def drop(u, v):
        e = _canon(u, v)
        old = ecol.pop(e, None)
        if old is not None:
            del adjc[u][old]
            del adjc[v][old]

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
            if i > 0:
                cc = ecol.get(_canon(u, fan[i]))
                if cc is None or not is_free(fan[i - 1], cc):
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
    if not g.edges:
        return {"colors": {}, "count": 0, "exact": True}
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    edges = sorted(g.edges)
    if len(edges) <= EXACT_EDGE_LIMIT:
        colors, k = _exact_edge_coloring(edges, deg)
        return {"colors": colors, "count": k, "exact": True}
    colors, k = _misra_gries(g.n, edges, deg)
    return {"colors": colors, "count": k, "exact": False}


# ---------------------------------------------------------------------------
# weighted chromatic index

def threshold_decomposition(T: np.ndarray) -> list:
    """Level sets of |T|: one entry per threshold gap with its edge coloring."""
    T = np.asarray(T, dtype=float)
    n = T.shape[0]
    if T.shape != (n, n) or np.abs(T - T.T).max(initial=0.0) > 1e-12:
        raise ValueError("T must be symmetric")
    mags = sorted({abs(T[u, v]) for u in range(n) for v in range(u + 1, n)
                   if abs(T[u, v]) > 0})
    levels = []
    prev = 0.0
    for t in mags:
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if abs(T[u, v]) > prev}
        rep = edge_coloring(InteractionGraph(n, edges))
        levels.append({"lo": prev, "hi": t, "edges": sorted(edges),
                       "coloring": rep})
        prev = t
    return levels


def weighted_chromatic_index(T: np.ndarray) -> float:
    """Integral of the chromatic index over the coupling levels of T."""
    return float(sum((lv["hi"] - lv["lo"]) * lv["coloring"]["count"]
                     for lv in threshold_decomposition(T)))


# ---------------------------------------------------------------------------
# serialization

def graph_to_json(g: InteractionGraph) -> dict:
    edges = []
    for u, v in sorted(g.edges):
        if g.weights and (u, v) in g.weights:
            edges.append([u, v, g.weights[(u, v)]])
        else:
            edges.append([u, v])
    return {"n": g.n, "edges": edges}


def graph_from_json(doc: dict) -> InteractionGraph:
    items = doc.get("edges")
    if not (isinstance(items, list)
            and all(isinstance(item, list) and len(item) in (2, 3) for item in items)):
        raise ValueError("field 'edges' must be a list of [u, v] or [u, v, weight] rows")
    edges, weights = set(), {}
    for item in items:
        u, v = (netham.json_int({"vertex": x}, "vertex") for x in item[:2])
        edges.add((u, v))
        if len(item) > 2:
            weights[(u, v)] = netham.json_float({"edge weight": item[2]}, "edge weight")
    return InteractionGraph(netham.json_int(doc, "n"), edges, weights or None)
