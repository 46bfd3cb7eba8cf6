"""Spans and counters for the ten pulseforge layers, installed from outside.

`Tracer.install()` replaces every public function of each layer module by
a wrapper, at module-attribute level.  Calls between modules
(``netham.assemble`` from scheme) and within a module (``rao_hamming_oa``
from ``smallest_oa_for``) look the name up in the module namespace, so
they reach the wrapper.  Names bound with ``from ... import`` are wrapped
where they are bound and belong to that layer (``bounds.eigvals_sym``).

Per-element field arithmetic, reached through the FieldElement
operators, is counted but not timed; its time stays in the caller.

A span is [id, parent, name, layer, start, end, op, raised].  Spans stay
in memory; the worker writes them out when the run ends.  A layer's self
time is the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

from pulseforge import (bounds, cli, designs, error_basis, gf, graphcolor,
                        harmonic, netham, scheme, signs)

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (
    gf, designs, netham, error_basis, scheme, bounds, graphcolor, harmonic, signs, cli)}
LAYERS = tuple(MODULES)
GF_COUNTED = frozenset({"add", "neg", "mul", "inv", "element", "zero", "one"})


class Tracer:
    """Span and counter store; `op` names the operation spans belong to."""

    def __init__(self):
        self.op = None
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self):
        """Start a new pass: drop spans and counters, keep the wrappers."""
        self.spans = []
        self.calls = Counter()       # "layer.function" -> calls
        self.failed = Counter()      # layer -> calls that raised
        self.count = Counter()       # named work counters
        self.peak = Counter()        # named maxima
        self.searches = {}           # rescaled_search span -> trial bounds

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, layer, time.perf_counter(), None, self.op, False])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, raised: bool = False):
        self._stack.pop()
        span = self.spans[sid]
        span[5] = time.perf_counter()
        span[7] = raised

    def self_times(self) -> Counter:
        """Self time per layer; the values add up to the root spans' duration."""
        child = Counter()
        for _, parent, _, _, t0, t1, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = Counter()
        for sid, _, _, layer, t0, t1, _, _ in self.spans:
            out[layer] += (t1 - t0) - child[sid]
        return out

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        observe = _OBSERVERS.get(key)
        sig = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            sid = self.open(key, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, raised=True)
                self.failed[layer] += 1
                raise
            self.close(sid)
            if observe:
                observe(self, sid, sig.bind(*args, **kwargs).arguments, result)
            return result
        return wrapper

    def _counted(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[layer] += 1
                raise
        return wrapper

    def install(self):
        for layer, mod in MODULES.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("pulseforge.")):
                    continue
                wrap = self._counted if layer == "gf" and name in GF_COUNTED else self._timed
                self._saved.append((mod, name, fn))
                setattr(mod, name, wrap(layer, name, fn))

    def uninstall(self):
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)


# -- observers: work counters taken at the layer boundary ----------------------

def _assemble(t, sid, a, H):
    t.count["netham.dense_bytes"] += H.nbytes


def _average_of_matrix(t, sid, a, acc):
    N, dim = a["sch"].N, acc.shape[0]
    t.count["scheme.intervals"] += N
    # two complex dim^3 products per interval, 8 real flops per multiply-add
    t.count["scheme.avg_flops"] += 16 * N * dim ** 3
    # per interval: U, H, U^dag H (write, read), product (write, read), accumulator (read, write)
    t.count["scheme.avg_bytes"] += 9 * 16 * dim * dim * N


def _phase_average(t, sid, a, result):
    net, ps = a["net"], a["ps"]
    t.count["harmonic.avg_flops"] += 16 * ps.N * (net.d ** net.n) ** 3


def _entries(t, sid, a, design):
    t.count["designs.entries_built"] += design.n * design.N


def _pairs(t, sid, a, rep):
    design = next(iter(a.values()))
    t.count["designs.pair_checks"] += design.n * (design.n - 1) // 2


def _sign_rows(t, sid, a, st):
    t.count["signs.rows_built"] += 3 * st.n


def _eig(t, sid, a, ev):
    t.peak["bounds.eig_dim_max"] = max(t.peak["bounds.eig_dim_max"], len(ev))


def _tau_rescaled(t, sid, a, value):
    parent = t.spans[sid][1]
    if parent is not None and t.spans[parent][2] == "bounds.rescaled_search":
        t.searches.setdefault(parent, []).append(value)


def _rescaled_search(t, sid, a, result):
    # the all-ones start is tried first; each later raise of the best is a gain
    values = t.searches.pop(sid, [])
    best, gains = (values[0] if values else 0.0), 0
    for v in values[1:]:
        if v > best:
            best, gains = v, gains + 1
    t.count["bounds.search_gains"] += gains
    t.count["bounds.search_trials"] += max(0, len(values) - 1)


def _edge_coloring(t, sid, a, rep):
    t.count["graphcolor.exact"] += bool(rep["exact"])


_OBSERVERS = {
    "netham.assemble": _assemble,
    "scheme.average_of_matrix": _average_of_matrix,
    "harmonic.phase_average": _phase_average,
    "designs.rao_hamming_oa": _entries,
    "designs.product_oa": _entries,
    "designs.normalize_oa": _entries,
    "designs.cyclic_difference_scheme": _entries,
    "designs.verify_oa": _pairs,
    "designs.verify_difference_scheme": _pairs,
    "signs.spread_signs": _sign_rows,
    "signs.oa_to_signs": _sign_rows,
    "bounds.eigvals_sym": _eig,
    "bounds.tau_min_rescaled": _tau_rescaled,
    "bounds.rescaled_search": _rescaled_search,
    "graphcolor.edge_coloring": _edge_coloring,
}
