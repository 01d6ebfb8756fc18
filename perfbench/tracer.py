"""Outside-in span tracer for forestdom's public names.

The tracer rebinds each public name in ``TARGETS`` to a wrapper that
records a span: name, parent span, start and end.  forestdom modules
import functions by name, so a function is rebound in every
``forestdom.*`` module that holds it; methods are wrapped on their class.
Generators are consumed inside their span.  Spans live in flat arrays in
memory and are written out once, at the end of a run.  Nothing in the
package is edited: leaving the ``with`` block restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

# (span name, defining module, attribute, kind, work counter)
#   kind: "function", "method", "classmethod" or "generator"
#   work: how to read the span's work counts from (args, result)
TARGETS = [
    ("degseq.DegreeSequence", "forestdom.degseq", "DegreeSequence.__init__", "method", None),
    ("degseq.DegreeSequence", "forestdom.degseq", "DegreeSequence.parse", "classmethod", None),
    ("degseq.validate", "forestdom.degseq", "validate", "function", None),
    ("degseq.peel_k2", "forestdom.degseq", "peel_k2", "function", None),
    ("formulas.extremal_values", "forestdom.formulas", "extremal_values", "function", None),
    ("forest.Forest", "forestdom.forest", "Forest.__init__", "method", "vertices"),
    ("forest.domination_number", "forestdom.forest", "Forest.domination_number", "method", "vertices"),
    ("forest.independence_number", "forestdom.forest", "Forest.independence_number", "method", None),
    ("forest.internal_dominating_set", "forestdom.forest", "Forest.internal_dominating_set", "method", None),
    ("forest.io", "forestdom.forest", "read_forest", "function", None),
    ("forest.io", "forestdom.forest", "write_forest", "function", None),
    ("construct.extremal_build", "forestdom.construct", "extremal_build", "function", None),
    ("construct.realize_any", "forestdom.construct", "realize_any", "function", None),
    ("construct.matched_support_forest", "forestdom.construct", "matched_support_forest", "function", None),
    ("construct.all_support_tree", "forestdom.construct", "all_support_tree", "function", None),
    ("oracle.empirical_extremes", "forestdom.oracle", "empirical_extremes", "function", "report"),
    ("oracle.enumerate_realizations", "forestdom.oracle", "enumerate_realizations", "generator", "yields"),
    ("oracle.swap_search_gamma", "forestdom.oracle", "swap_search_gamma", "function", None),
    ("cli.main", "forestdom.cli", "main", "function", None),
]


def _work(kind: Optional[str], args: tuple, result) -> tuple[int, int]:
    """Work counts of one span: (vertices,), (yields,) or (labeled, iso)."""
    if kind == "vertices":
        return args[0].n, 0  # args[0] is the Forest, fully built on return
    if kind == "yields":
        return len(result), 0
    if kind == "report":
        return result.realization_count_labeled, result.realization_count_iso
    return 0, 0


class Tracer:
    """Records spans while ``active`` inside a ``with`` block.

    Use as ``with tracer: ...``; the wrappers record only while
    ``tracer.active`` is true, so the caller can leave its own checks out.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work1 = array("q")
        self.work2 = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.active = False

    # -- span recording -------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work1.append(0)
        self.work2.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, work: tuple[int, int] = (0, 0)) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self.work1[idx], self.work2[idx] = work

    def __len__(self) -> int:
        return len(self.name)

    # -- rebinding ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, kind: str, work: Optional[str]) -> Callable:
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            counts = (0, 0)
            try:
                result = fn(*args, **kwargs)
                if kind == "generator":
                    result = list(result)
                counts = _work(work, args, result)
            finally:
                tracer.close(idx, counts)
            return iter(result) if kind == "generator" else result

        return wrapper

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key == "forestdom" or key.startswith("forestdom.")]
        for name, module, attr, kind, work in TARGETS:
            home = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if kind == "classmethod":
                    self._rebind(cls, meth, classmethod(self._wrap(name, raw.__func__, kind, work)))
                else:
                    self._rebind(cls, meth, self._wrap(name, raw, kind, work))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, kind, work)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._rebind(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as gzipped JSON columns."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "work1": self.work1.tolist(),
            "work2": self.work2.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle)


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and their durations can simply be subtracted.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def layer_stats(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded in [lo, hi), one pass.

    ``<layer>.calls`` and ``.self_s`` for every layer, plus the work
    counts the metric names promise: Forest and domination ``vertices``,
    enumeration ``yields``, ``labeled``/``iso`` realizations and their
    ratio, and ``dp_calls``, the domination DPs run inside swap search.
    """
    names = tracer.names
    parent = [p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]]
    own = self_times(parent, tracer.start[lo:hi], tracer.end[lo:hi])
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    work1: dict[str, int] = defaultdict(int)
    work2: dict[str, int] = defaultdict(int)
    nid = tracer.name[lo:hi]
    swap_id = tracer.name_id("oracle.swap_search_gamma")
    dom_id = tracer.name_id("forest.domination_number")
    dp_calls = 0
    for i, n in enumerate(nid):
        key = names[n]
        calls[key] += 1
        selfs[key] += own[i]
        work1[key] += tracer.work1[lo + i]
        work2[key] += tracer.work2[lo + i]
        if n == dom_id:
            p = parent[i]
            while p >= 0 and nid[p] != swap_id:
                p = parent[p]
            dp_calls += p >= 0
    out: dict[str, float] = {}
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = selfs[name]
    out["forest.Forest.vertices"] = work1["forest.Forest"]
    out["forest.domination_number.vertices"] = work1["forest.domination_number"]
    out["oracle.enumerate_realizations.yields"] = work1["oracle.enumerate_realizations"]
    labeled = work1["oracle.empirical_extremes"]
    iso = work2["oracle.empirical_extremes"]
    out["oracle.empirical_extremes.labeled"] = labeled
    out["oracle.empirical_extremes.iso"] = iso
    out["oracle.empirical_extremes.iso_per_labeled"] = iso / labeled if labeled else 0.0
    out["oracle.swap_search_gamma.dp_calls"] = dp_calls
    return out
