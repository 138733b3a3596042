"""Spans around calls into walklab's layers, recorded from outside the package.

A layer is a walklab module.  `Tracer.install` replaces each public function
of a layer module, in every walklab namespace that holds it, with a wrapper
that records a span: name, start, end, parent span, op id, and an optional
size figure.  Spans stay in memory until the run writes them out.

A span is recorded when a call enters a layer from outside it, or when the
function is in KERNELS: the step kernels, whose per-call cost the benchmark
reports although `engine.step` calls them from inside `engine`, and
`secular_value`, which `solve_alpha` calls and the benchmark counts.
Calls that stay inside one layer (for example `mode_spectrum` calling
`closed_form_cos` once per Fourier mode) run unwrapped in effect, so the
trace adds a few microseconds per recorded span and nothing per mode.
"""

from __future__ import annotations

import importlib
import inspect
import time
import weakref

LAYERS = ("graphs", "engine", "runner", "spectral", "search", "oracle", "cli")

KERNELS = frozenset({
    "engine.apply_coin", "engine.apply_shift", "engine.vertex_probabilities",
    "engine.step", "search.secular_value",
})

#: Evolve entry points.  Untraced runs wrap only these and the first
#: `Graph.neighbors` call on each graph, so site updates per second can be
#: measured, less the neighbour-table builds, without tracing the rest of
#: the package.
EVOLVE = frozenset({"runner.run_walk", "runner.amplify"})
NEIGHBORS_FIRST = "graphs.neighbors_first"

# size figure stored with a span: f(args, result)
_SIZES = {
    "graphs.build_graph": lambda args, result: result.n,
    "oracle.dense_unitary": lambda args, result: result.dim,
    "spectral.mode_spectrum": lambda args, result: len(result.entries),
}

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """Span recorder; `op` tags every span with the op that is running."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._seen_graphs = weakref.WeakSet()

    # -- installation ------------------------------------------------------

    def install(self, only=None) -> None:
        """Wrap every public layer function, or just the names in `only`.

        `Graph.neighbors` is always wrapped.  With `only`, just its first
        call on each graph is recorded, so the trace stays a few spans per op.
        """
        pkg = importlib.import_module("walklab")
        mods = {layer: importlib.import_module(f"walklab.{layer}") for layer in LAYERS}
        namespaces = [vars(pkg)] + [vars(m) for m in mods.values()]
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                public = (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                          and not name.startswith("_") and not inspect.isgeneratorfunction(fn))
                qual = f"{layer}.{name}"
                if public and (only is None or qual in only):
                    self._replace_everywhere(namespaces, fn, self._wrap(qual, fn))
        graph_cls = mods["graphs"].Graph
        self._patch_attr(graph_cls, "neighbors",
                         self._wrap_neighbors(graph_cls.neighbors, every_call=only is None))
        if only is not None:
            return
        dense_cls = mods["oracle"].DenseOperator
        self._patch_attr(dense_cls, "unitarity_defect",
                         self._wrap("oracle.unitarity_defect", dense_cls.unitarity_defect))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def _replace_everywhere(self, namespaces, fn, wrapped) -> None:
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is fn:
                    self._patches.append((ns, key, fn))
                    ns[key] = wrapped

    def _patch_attr(self, cls, attr, wrapped) -> None:
        self._patches.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapped)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _inside(self, layer: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][NAME].startswith(layer)

    def _wrap(self, qual: str, fn):
        layer = qual.split(".", 1)[0] + "."
        size = _SIZES.get(qual)
        always = qual in KERNELS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not always and self._inside(layer):
                return fn(*args, **kwargs)
            idx = self._open(qual)
            rec = self.spans[idx]
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                self._stack.pop()
            if size is not None:
                rec[SIZE] = size(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_neighbors(self, fn, every_call: bool):
        """Graph.neighbors, with the first call on each Graph named apart:
        that call is the one that pays for any neighbour-table build.  Later
        calls are recorded only if `every_call`."""
        seen = self._seen_graphs
        clock = time.perf_counter

        def neighbors(graph, vertex):
            first = graph not in seen
            seen.add(graph)
            if not first and (not every_call or self._inside("graphs.")):
                return fn(graph, vertex)
            idx = self._open(NEIGHBORS_FIRST if first else "graphs.neighbors")
            rec = self.spans[idx]
            rec[START] = clock()
            try:
                return fn(graph, vertex)
            finally:
                rec[END] = clock()
                self._stack.pop()

        return neighbors


# -- analysis ----------------------------------------------------------------


def duration(span) -> float:
    return span[END] - span[START]


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += duration(span)
    return [duration(s) - child[i] for i, s in enumerate(spans)]


def time_less_table_builds(spans, ids) -> float:
    """Time of the spans `ids`, less the first `Graph.neighbors` calls nested in
    them at any depth.  Those calls build a graph's neighbour table, which is
    graphs' work even when `runner.run_walk` triggers it."""
    ids = set(ids)
    if not ids:
        return 0.0
    builds = 0.0
    for i in range(min(ids), len(spans)):  # a child span comes after its parent
        if spans[i][NAME] == NEIGHBORS_FIRST:
            parent = spans[i][PARENT]
            while parent >= 0 and parent not in ids:
                parent = spans[parent][PARENT]
            if parent >= 0:
                builds += duration(spans[i])
    return sum(duration(spans[i]) for i in ids) - builds


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
