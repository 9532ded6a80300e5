"""Span tracing of the ``casecontrol`` layers from outside the library.

``install`` wraps every public function of the layer modules at every
module binding (so ``smoothing.fit_ipf``, imported from ``loglinear``, is
traced too) and the public methods of ``ContingencyTable`` and
``SmoothedEstimates``.  Each call records a span: name, start, end, parent
span and pass number.  Spans stay in memory in flat arrays and are written
out when the run ends.  The library itself is not edited.

Per-pass metrics come from the spans: calls, busy time (the union of a
name's spans, so recursion is not counted twice), self time (a span's
duration minus the part its children cover), busy time per module, and the
counters that observers take from arguments and results (IRLS iterations,
IPF sweeps split by decomposable and cyclic generating classes, candidate
fits per accepted edge, computed covariance bytes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("tables", "measures", "graphs", "loglinear", "logit", "smoothing", "special",
          "reproduce")
TRACED_CLASSES = {"tables": ("ContingencyTable",), "smoothing": ("SmoothedEstimates",)}
PASS = "pass"


# -- decomposability ------------------------------------------------------------

def is_decomposable(generators) -> bool:
    """GYO reduction: a generating class is decomposable iff, as a
    hypergraph, it reduces to nothing by repeatedly deleting variables that
    occur in one generator only and generators contained in another."""
    edges = [frozenset(g) for g in generators]
    while edges:
        counts = Counter(v for e in edges for v in e)
        reduced = [frozenset(v for v in e if counts[v] > 1) for e in edges]
        # of two equal generators the first is kept
        kept = [e for i, e in enumerate(reduced)
                if e and not any(e < f or (e == f and j < i)
                                 for j, f in enumerate(reduced) if j != i)]
        if kept == edges:
            return False
        edges = kept
    return True


# -- spans -----------------------------------------------------------------------

class Tracer:
    """In-memory span store.  One tracer per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_no = array("i")
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._pass = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_no.append(self._pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counters[self._pass][key] += value

    def run_pass(self, pass_no: int, fn, *args):
        """Run ``fn(*args)`` under a root span for pass ``pass_no``."""
        self._pass = pass_no
        idx = self.open(self._id(PASS))
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, observe=None):
        name_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, idx, args, kwargs, result)
            return result

        return traced

    def spans_by_pass(self) -> dict[int, list[tuple[str, float, float, int]]]:
        """Spans of each pass as (name, start, end, parent), parents indexed
        into the pass's own list (-1 for none)."""
        out: dict[int, list] = defaultdict(list)
        where = {}
        for i in range(len(self.name)):
            spans = out[self.pass_no[i]]
            where[i] = len(spans)
            parent = self.parent[i]
            spans.append((self.names[self.name[i]], self.start[i], self.end[i],
                          where[parent] if parent >= 0 else -1))
        return dict(out)

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            start=self.start, end=self.end, parent=self.parent,
                            pass_no=self.pass_no)


# -- observers: counts taken from arguments and results ----------------------------

def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _observe_fit_ipf(tracer, idx, args, kwargs, fit):
    kind = "decomposable" if is_decomposable(_arg(args, kwargs, 1, "spec").generators) else "cyclic"
    tracer.count(f"loglinear.fit_ipf.{kind}.calls")
    tracer.count(f"loglinear.fit_ipf.{kind}.busy_s", tracer.end[idx] - tracer.start[idx])
    tracer.count(f"loglinear.fit_ipf.{kind}.sweeps", fit.iterations)
    tracer.count("loglinear.fit_ipf.nonconverged", int(not fit.converged))


def _observe_fit_logit(tracer, idx, args, kwargs, fit):
    tracer.count("logit.fit_logit.irls_iters", fit.iterations)
    tracer.count("logit.fit_logit.nonconverged", int(not fit.converged))


def _observe_forward_select(tracer, idx, args, kwargs, graph):
    # spans are appended in call order, so every span after this one's
    # start is one of its descendants
    fit_id = tracer._id("loglinear.fit_ipf")
    tracer.count("loglinear.forward_select.fits",
                 sum(1 for n in tracer.name[idx + 1:] if n == fit_id))
    tracer.count("loglinear.forward_select.edges", len(graph.edges))


def _observe_logcount_covariance(tracer, idx, args, kwargs, cov):
    tracer.count("loglinear.logcount_covariance.bytes", cov.nbytes)


OBSERVERS = {
    "loglinear.fit_ipf": _observe_fit_ipf,
    "logit.fit_logit": _observe_fit_logit,
    "loglinear.forward_select": _observe_forward_select,
    "loglinear.logcount_covariance": _observe_logcount_covariance,
}


def install(tracer: Tracer):
    """Wrap the layers' public functions and methods; returns an undo callable."""
    originals = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"casecontrol.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                originals[obj] = tracer.wrap(name, obj, OBSERVERS.get(name))
    undo = []
    for mod in [m for n, m in list(sys.modules.items())
                if n == "casecontrol" or n.startswith("casecontrol.")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in originals:
                undo.append((mod, attr, obj))
                setattr(mod, attr, originals[obj])
    for layer, classes in TRACED_CLASSES.items():
        mod = importlib.import_module(f"casecontrol.{layer}")
        for cname in classes:
            cls = getattr(mod, cname)
            for attr, obj in list(vars(cls).items()):
                if not attr.startswith("_") and inspect.isfunction(obj):
                    undo.append((cls, attr, obj))
                    setattr(cls, attr, tracer.wrap(f"{layer}.{attr}", obj))

    def restore():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return restore


# -- per-pass metrics -------------------------------------------------------------

def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def pass_metrics(spans, counters=None) -> dict[str, float]:
    """Metrics of one pass from its spans (name, start, end, parent).

    ``<name>.calls``, ``<name>.busy_s`` (union of the name's spans),
    ``<name>.self_s`` (each span minus the union of its children, clipped
    to the span) and ``<module>.busy_s`` (union of the module's spans), plus
    the observer counters."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        children[parent].append(i)
    out: dict[str, float] = defaultdict(float)
    by_name, by_module = defaultdict(list), defaultdict(list)
    for i, (name, start, end, _) in enumerate(spans):
        if name == PASS:
            continue
        out[f"{name}.calls"] += 1
        kids = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]]
        out[f"{name}.self_s"] += (end - start) - _covered([k for k in kids if k[1] > k[0]])
        by_name[name].append((start, end))
        by_module[name.split(".", 1)[0]].append((start, end))
    for name, intervals in by_name.items():
        out[f"{name}.busy_s"] = _covered(intervals)
    for module, intervals in by_module.items():
        out[f"{module}.busy_s"] = _covered(intervals)
    for key, value in (counters or {}).items():
        out[key] += value
    edges = out.get("loglinear.forward_select.edges", 0)
    out["loglinear.forward_select.fits_per_edge"] = (
        out.get("loglinear.forward_select.fits", 0) / edges if edges else 0.0)
    return dict(out)

