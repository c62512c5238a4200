"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the analyzer.  Instead it patches the public
entry point of each layer, in the module that calls it, with a wrapper
that records one span per call: ``[name, start, end, parent]``.  Spans
live in memory; :func:`self_times` turns them into per-layer self time
(a span's duration minus the part of it that its children cover).

Two liveness rules keep a later rename in ``src/`` from silently reading
a layer as zero: :meth:`SpanLog.install` raises when a named entry point
is missing, and :func:`check_liveness` raises when an entry point that
should carry work on a workload recorded no call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "COUNT_POINTS",
    "SPAN_POINTS",
    "DeadEntryPoint",
    "MissingEntryPoint",
    "SpanLog",
    "check_liveness",
    "self_times",
]

#: (span name, module patched, attribute path in that module).  Functions
#: are patched where the pipeline looks them up, methods on their class.
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("analysis.pipeline", "repro.analysis.passes", "AnalysisPipeline.analyze_source"),
    ("frontend.parse", "repro.analysis.passes", "parse_program"),
    ("lowering.lower", "repro.analysis.passes", "lower_program_incremental"),
    ("lowering.unroll", "repro.lowering.lower", "unroll_loops"),
    ("ir.verify", "repro.analysis.passes", "verify_module"),
    ("pointer.steensgaard", "repro.analysis.passes", "steensgaard"),
    ("threads.tcg", "repro.analysis.passes", "build_thread_call_graph"),
    ("threads.mhp", "repro.threads.mhp", "MhpAnalysis.__init__"),
    ("vfg.dataflow", "repro.vfg.dataflow", "DataDependenceAnalysis.run"),
    ("vfg.summaries", "repro.analysis.passes", "compute_summaries"),
    ("vfg.interference", "repro.vfg.interference", "InterferenceAnalysis.run"),
    ("checkers.run", "repro.checkers.base", "SourceSinkChecker.run"),
    ("checkers.run", "repro.checkers.doublefree", "DoubleFreeChecker.run"),
    ("detection.search", "repro.detection.search", "PathSearcher.search"),
    ("detection.encode", "repro.detection.realizability", "RealizabilityChecker.formula_for"),
    ("detection.order", "repro.detection.partial_order", "OrderConstraintBuilder.load_store_order"),
    ("smt.solve", "repro.detection.realizability", "solve_formula"),
    ("interp.confirm", "repro.interp.confirm", "confirm_all"),
)

#: Entry points too hot for a span (about 10^5 calls on detect192): the
#: wrapper only counts calls.
COUNT_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("threads.happens_before", "repro.threads.mhp", "MhpAnalysis.happens_before"),
)


class MissingEntryPoint(RuntimeError):
    """A wrap point names an attribute its module no longer has."""


class DeadEntryPoint(RuntimeError):
    """A wrap point that should carry work on a workload recorded no call."""


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) of a wrap point, or raise."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        if not hasattr(owner, part):
            raise MissingEntryPoint(f"{module_name}.{path}: no attribute {part!r}")
        owner = getattr(owner, part)
    # A class must define the method itself: patching an inherited one
    # would shadow the parent's wrapper and record the call twice.
    defined = vars(owner) if isinstance(owner, type) else None
    if (defined is not None and attr not in defined) or not hasattr(owner, attr):
        raise MissingEntryPoint(f"{module_name}.{path}: entry point is missing")
    return owner, attr


class SpanLog:
    """In-memory span and call-count recorder.

    ``spans`` holds ``[name, start, end, parent_index]`` lists.  Parents
    come from a per-thread stack; a span opened on a thread whose stack
    is empty (the daemon's worker thread) is parented to ``root``, the
    benchmark's own operation span, when one is open.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls: Counter = Counter()
        self.root: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self.calls[name] += 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # ----- patching ---------------------------------------------------------

    def install(
        self,
        span_points: Sequence[Tuple[str, str, str]] = SPAN_POINTS,
        count_points: Sequence[Tuple[str, str, str]] = COUNT_POINTS,
    ) -> None:
        """Patch every wrap point; all are resolved before any is patched."""
        resolved = [
            (name, *_resolve(module, path), True) for name, module, path in span_points
        ] + [(name, *_resolve(module, path), False) for name, module, path in count_points]
        for name, owner, attr, timed in resolved:
            original = getattr(owner, attr)
            wrapper = self._spanned(name, original) if timed else self._counted(name, original)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _spanned(self, name: str, fn):
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = log.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(index)

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Total self time per span name: duration minus child coverage."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        own = (end - start) - _covered(start, end, children.get(index, ()))
        totals[name] = totals.get(name, 0.0) + own
    return totals


def check_liveness(calls: Counter, required: Iterable[str], workload: str) -> None:
    """Raise :class:`DeadEntryPoint` naming every required point with no call."""
    dead = sorted(name for name in required if calls.get(name, 0) == 0)
    if dead:
        raise DeadEntryPoint(
            f"{workload}: entry point(s) recorded zero calls: {', '.join(dead)}"
        )
