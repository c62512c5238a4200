"""Source-sink checker framework (paper §5).

A checker instantiates the guarded-reachability template: enumerate
source nodes, search the VFG forward, match sink uses of the reached
values, and keep only the paths the SMT solver proves realizable.  Bug
reports carry the witness path and the constraints — the paper's
"concise bug reports with a limited number of relevant statements".

The enumeration layer is demand-driven (sink-directed): each checker
declares its *sink node set* (the VFG definitions whose uses can be a
sink for the property), a backward :class:`SinkReachabilityIndex` over
that set prunes the forward DFS, and an incremental guard prefix cuts
quick-unsat subtrees mid-search.

Detection has one pipeline: the per-source loop of
:meth:`SourceSinkChecker.run`, which searches one source, solves its
candidates in discovery order and reports the first realizable path of
each key.  Path queries are independent (§5.2), and so are sources, as
long as the sources of one statement stay together (they share the
per-key dedup).  With ``detect_workers > 1`` the same loop runs in a
process pool, each worker over a part of the sources, and the parent
merges the per-source outcomes in source order — so the report list is
the serial one, in order, at every width.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..ir.instructions import (
    FreeInst,
    Instruction,
    LoadInst,
    SinkInst,
    StoreInst,
)
from ..ir.values import Variable
from ..smt.terms import BoolTerm
from ..vfg.builder import VFGBundle
from ..vfg.graph import DefNode, VFGNode
from ..detection.reachability import SinkReachabilityIndex
from ..detection.realizability import PathQuery, RealizabilityChecker
from ..detection.search import (
    PathSearcher,
    SearchLimits,
    SearchStatistics,
    TruncationEvent,
    ValueFlowPath,
)
from ..testing.faults import fault_point

__all__ = ["BugReport", "SourceSinkChecker", "UseIndex"]


@dataclass
class SuppressedCandidate:
    """A source→sink pair the solver proved unrealizable, with the reason
    (``guard-contradiction`` vs ``order-violation``) — useful for triage
    and for quantifying where Canary's precision comes from."""

    kind: str
    source: Instruction
    sink: Instruction
    reason: str

    def describe(self) -> str:
        return (
            f"[suppressed {self.kind}] ℓ{self.source.label} -> ℓ{self.sink.label}"
            f" ({self.reason})"
        )


@dataclass
class BugReport:
    """One confirmed (realizable) source→sink finding."""

    kind: str
    source: Instruction
    sink: Instruction
    path: str
    inter_thread: bool
    witness_order: Dict[str, int] = field(default_factory=dict)
    #: the model's extern/atom assignments, for witness replay
    witness_env: Dict[str, Dict] = field(default_factory=dict)
    statements: List[Instruction] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"[{self.kind}] {self.source.location} -> {self.sink.location}"
            + ("  (inter-thread)" if self.inter_thread else ""),
            f"  source: ℓ{self.source.label}: {self.source.brief()}",
            f"  sink:   ℓ{self.sink.label}: {self.sink.brief()}",
            f"  value flow: {self.path}",
        ]
        if self.witness_order:
            order = sorted(self.witness_order.items(), key=lambda kv: kv[1])
            lines.append(
                "  witness interleaving: " + " < ".join(name for name, _v in order)
            )
        return "\n".join(lines)

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.kind, self.source.label, self.sink.label)


class UseIndex:
    """Where each SSA variable is used as a pointer / as plain data."""

    def __init__(self, bundle: VFGBundle) -> None:
        self.pointer_uses: Dict[Variable, List[Instruction]] = {}
        self.data_uses: Dict[Variable, List[Instruction]] = {}
        for inst in bundle.module.all_instructions():
            if isinstance(inst, LoadInst) and isinstance(inst.pointer, Variable):
                self.pointer_uses.setdefault(inst.pointer, []).append(inst)
            elif isinstance(inst, StoreInst):
                if isinstance(inst.pointer, Variable):
                    self.pointer_uses.setdefault(inst.pointer, []).append(inst)
            elif isinstance(inst, FreeInst) and isinstance(inst.pointer, Variable):
                self.pointer_uses.setdefault(inst.pointer, []).append(inst)
            elif isinstance(inst, SinkInst):
                for arg in inst.args:
                    if isinstance(arg, Variable):
                        self.data_uses.setdefault(arg, []).append(inst)

    def pointer_def_nodes(self, *use_classes) -> Set[VFGNode]:
        """DefNodes of variables with a pointer use of the given classes."""
        return {
            DefNode(var)
            for var, uses in self.pointer_uses.items()
            if any(isinstance(u, use_classes) for u in uses)
        }


#: one source to search from: (origin node, source statement, alias guard)
Source = Tuple[VFGNode, Instruction, BoolTerm]


@dataclass
class SourceOutcome:
    """Everything checking one source produced.  The checker merges these
    in source order, whether the source ran in this process or in a
    detection worker."""

    reports: List[BugReport] = field(default_factory=list)
    suppressed: List[SuppressedCandidate] = field(default_factory=list)
    search: SearchStatistics = field(default_factory=SearchStatistics)
    truncations: List[TruncationEvent] = field(default_factory=list)
    undecided: int = 0


def partition_sources(
    source_list: Sequence[Source], parts: int
) -> List[Tuple[Tuple[int, int], ...]]:
    """Split sources into at most ``parts`` parts of ``(index, label)``
    pairs.  Sources of one statement (one label) share the per-key dedup,
    so they go to the same part; label groups are dealt round-robin in
    order of first appearance.  Empty parts are dropped."""
    groups: Dict[int, List[Tuple[int, int]]] = {}
    for idx, (_origin, inst, _guard) in enumerate(source_list):
        groups.setdefault(inst.label, []).append((idx, inst.label))
    buckets: List[List[Tuple[int, int]]] = [[] for _ in range(max(1, parts))]
    for g, members in enumerate(groups.values()):
        buckets[g % len(buckets)].extend(members)
    return [tuple(b) for b in buckets if b]


class SourceSinkChecker:
    """Template for guarded-reachability bug checking."""

    kind: str = "generic"

    def __init__(
        self,
        bundle: VFGBundle,
        limits: SearchLimits = SearchLimits(),
        realizability: Optional[RealizabilityChecker] = None,
        inter_thread_only: bool = True,
        max_reports_per_source: int = 8,
        collect_suppressed: bool = False,
        sink_reachability: bool = True,
        guard_pruning: bool = True,
        detect_workers: int = 1,
        budget=None,
        tracer=None,
    ) -> None:
        from ..obs.tracer import NULL_TRACER

        #: optional repro.obs Tracer: one ``enumerate`` span per source
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.bundle = bundle
        self.limits = limits
        self.realizability = realizability or RealizabilityChecker(bundle)
        self.inter_thread_only = inter_thread_only
        self.max_reports_per_source = max_reports_per_source
        self.collect_suppressed = collect_suppressed
        self.sink_reachability = sink_reachability
        # Guard pruning skips exactly the candidates the solver would
        # refute — the ones the suppressed-candidate diagnostics exist to
        # explain — so the diagnostic mode turns it off.
        self.guard_pruning = guard_pruning and not collect_suppressed
        #: processes for the per-source loop (1 = in this process)
        self.detect_workers = max(1, detect_workers)
        #: optional repro.analysis.budget.Budget — checked between sources
        #: (detection workers get one with the wall time that remains)
        self.budget = budget
        self.suppressed: List[SuppressedCandidate] = []
        self.uses = UseIndex(bundle)
        self.search_stats = SearchStatistics()
        self.truncation_events: List[TruncationEvent] = []
        self.statistics = {
            "sources": 0,
            "candidates": 0,
            "reports": 0,
            # candidates whose realizability came back UNKNOWN: a budget
            # outcome, neither reported nor counted as solver-refuted
            "undecided": 0,
        }

    # ----- subclass API -----------------------------------------------------

    def sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
        """(origin node, source statement, alias guard) triples to search
        from.  For object-rooted searches (UAF, double-free) the origin is
        the freed object's node and the alias guard is the condition under
        which the source statement actually touches that object."""
        raise NotImplementedError

    def sinks_at(
        self, var: Variable, source_inst: Instruction
    ) -> Iterable[Instruction]:
        """Sink statements triggered by the value reaching ``var``."""
        raise NotImplementedError

    def sink_node_set(self) -> Optional[Set[VFGNode]]:
        """The VFG nodes at which :meth:`sinks_at` could ever yield a sink
        (an over-approximation, independent of the source statement).

        Drives the sink-reachability index; ``None`` (the
        property-agnostic default) disables it.
        """
        return None

    def extra_constraints(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[BoolTerm, ...]:
        return ()

    def extra_statements(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[Instruction, ...]:
        """Statements beyond path + endpoints whose order variables the
        checker's ``extra_constraints`` mention; they join the Φ_po and
        mutual-exclusion universe of the query (e.g. the local write of
        an RMW pair for the atomicity checker)."""
        return ()

    def admit(self, source: Instruction, sink: Instruction, path: ValueFlowPath) -> bool:
        """Property-specific pre-SMT filter.

        "Inter-thread" means the defect involves more than one thread —
        either the value flows across threads (an interference edge on
        the path) or the source and sink statements can run in different
        threads.  Whether the required *order* is feasible is decided by
        the solver (Φ_po and the checker's extra order constraints), not
        here: a free-then-join-then-use bug is ordered yet inter-thread.
        """
        if source is sink:
            return False
        if not self.inter_thread_only:
            return True
        if path.has_interference():
            return True
        threads_a = self.bundle.tcg.threads_of(source)
        threads_b = self.bundle.tcg.threads_of(sink)
        return any(a != b for a in threads_a for b in threads_b)

    # ----- enumeration plumbing ----------------------------------------------

    def _reach_index(self) -> Optional[SinkReachabilityIndex]:
        """The backward index over this checker's sink set, built once
        per run (``None`` when pruning is off or there is no sink set)."""
        if not self.sink_reachability:
            return None
        sinks = self.sink_node_set()
        if not sinks:
            return None
        return SinkReachabilityIndex(self.bundle.vfg, sinks, self.limits.context_depth)

    # ----- driver -----------------------------------------------------------

    def run(self) -> List[BugReport]:
        source_list = list(self.sources())
        self.statistics["sources"] = len(source_list)
        outcomes = None
        if self.detect_workers > 1:
            outcomes = self._run_pool(source_list)
        if outcomes is None:
            outcomes = self._run_serial(source_list)
        reports: List[BugReport] = []
        for outcome in outcomes:
            reports.extend(outcome.reports)
            self.suppressed.extend(outcome.suppressed)
            self.search_stats.merge(outcome.search)
            self.truncation_events.extend(outcome.truncations)
            self.statistics["undecided"] += outcome.undecided
        # Enumeration counters live in self.search_stats (the driver
        # surfaces them separately); candidates is shared vocabulary.
        self.statistics["candidates"] = self.search_stats.candidates
        self.statistics["reports"] += len(reports)
        return reports

    def _run_serial(self, source_list: Sequence[Source]) -> List[SourceOutcome]:
        """The per-source loop: one outcome per source, in order."""
        index = self._reach_index()
        claimed: Set[Tuple] = set()
        outcomes: List[SourceOutcome] = []
        for source in source_list:
            if self.budget is not None and self.budget.note_expired(
                f"checker:{self.kind}"
            ):
                break  # wall budget expired: report what we have so far
            outcomes.append(self._check_source(source, index, claimed))
        return outcomes

    def _check_source(
        self,
        source: Source,
        index: Optional[SinkReachabilityIndex],
        claimed: Set[Tuple],
    ) -> SourceOutcome:
        """Search one source and solve its candidates in discovery order.

        ``claimed`` holds the keys already reported (and, with
        ``collect_suppressed``, already explained) by earlier sources of
        the same statement: the first realizable path of a key wins."""
        origin, source_inst, alias_guard = source
        outcome = SourceOutcome()

        def on_node(node: VFGNode, path: ValueFlowPath) -> int:
            if not isinstance(node, DefNode):
                return 0
            emitted = 0
            for sink_inst in self.sinks_at(node.var, source_inst):
                key = (self.kind, source_inst.label, sink_inst.label)
                if key in claimed:
                    continue
                if not self.admit(source_inst, sink_inst, path):
                    continue
                emitted += 1
                if len(outcome.reports) >= self.max_reports_per_source:
                    # Report budget exhausted: the candidate still counts
                    # against max_paths_per_source but is not solved.
                    continue
                query = PathQuery(
                    path=ValueFlowPath(origin=path.origin, edges=list(path.edges)),
                    source_inst=source_inst,
                    sink_inst=sink_inst,
                    extra_constraints=self.extra_constraints(source_inst, sink_inst),
                    alias_guard=alias_guard,
                    extra_statements=self.extra_statements(source_inst, sink_inst),
                )
                result = self.realizability.check(query)
                if not result.realizable:
                    if result.verdict == "unknown":
                        # Budget outcome, not a refutation: recording it
                        # as suppressed would mislabel it as
                        # solver-proved infeasible.
                        outcome.undecided += 1
                    elif self.collect_suppressed and key + ("s",) not in claimed:
                        claimed.add(key + ("s",))
                        outcome.suppressed.append(
                            SuppressedCandidate(
                                kind=self.kind,
                                source=source_inst,
                                sink=sink_inst,
                                reason=self.realizability.explain_refutation(query),
                            )
                        )
                    continue
                claimed.add(key)
                outcome.reports.append(self._make_report(query, result))
            return emitted

        searcher = PathSearcher(
            self.bundle, self.limits, reach_index=index, guard_pruning=self.guard_pruning
        )
        with self.tracer.span("enumerate", checker=self.kind, source=source_inst.label):
            searcher.search(origin, on_node, alias_guard=alias_guard)
        outcome.search = searcher.stats
        outcome.truncations = [
            TruncationEvent(origin=repr(origin), limit=limit, count=count)
            for limit, count in sorted(searcher.truncations.items())
        ]
        return outcome

    def _make_report(self, query: PathQuery, result) -> BugReport:
        source_inst, sink_inst = query.source_inst, query.sink_inst
        src_threads = self.bundle.tcg.threads_of(source_inst)
        sink_threads = self.bundle.tcg.threads_of(sink_inst)
        return BugReport(
            kind=self.kind,
            source=source_inst,
            sink=sink_inst,
            path=query.path.describe(self.bundle),
            inter_thread=query.path.has_interference()
            or any(a != b for a in src_threads for b in sink_threads),
            witness_order=result.witness_order,
            witness_env=result.witness_env,
            statements=query.path.statements(self.bundle),
        )

    # ----- the process pool ---------------------------------------------------

    def _run_pool(self, source_list: Sequence[Source]) -> Optional[List[SourceOutcome]]:
        """The per-source loop across a process pool, one part of the
        sources per worker; outcomes come back in source order.

        Returns ``None`` when the pool cannot help or cannot run (fewer
        than two parts, pool creation failed, a worker died) — the
        caller then runs the loop in this process, so the run always
        completes with the same reports.  Workers get a budget holding
        the wall time that remains.
        """
        parts = partition_sources(source_list, self.detect_workers)
        if len(parts) < 2:
            return None
        realizability = self.realizability
        payload = {
            "wall_seconds": None if self.budget is None else self.budget.remaining(),
            "bundle": self.bundle,
            "kind": self.kind,
            "limits": self.limits,
            "checker": {
                "inter_thread_only": self.inter_thread_only,
                "max_reports_per_source": self.max_reports_per_source,
                "collect_suppressed": self.collect_suppressed,
                "sink_reachability": self.sink_reachability,
                "guard_pruning": self.guard_pruning,
            },
            "solver": {
                "solver_max_conflicts": realizability.solver_max_conflicts,
                "order_constraints": realizability.order_constraints,
                "memory_model": realizability.orders.memory_model,
                "model_locks": realizability.orders.lock_analysis is not None,
                "solver_timeout": realizability.solver_timeout,
            },
        }
        try:
            with ProcessPoolExecutor(
                max_workers=len(parts),
                initializer=_init_detect_worker,
                initargs=(payload,),
            ) as pool:
                results = list(pool.map(_detect_part, parts))
        except (OSError, RuntimeError, ImportError, EOFError, pickle.PicklingError) as exc:
            realizability._note_pool_failure("detect", exc)
            return None
        if self.budget is not None:
            # An expired budget stopped the workers between sources.
            self.budget.note_expired(f"checker:{self.kind}")
        module = self.bundle.module
        indexed: List[Tuple[int, SourceOutcome]] = []
        for part_outcomes, solver_counts in results:
            indexed.extend(part_outcomes)
            for key, value in solver_counts.items():
                if value:
                    realizability._count(key, value)
        realizability.metrics.counter("detect.shards").add(len(parts))
        indexed.sort(key=lambda pair: pair[0])
        outcomes = [outcome for _idx, outcome in indexed]
        for outcome in outcomes:
            outcome.reports = [
                _relabel(r, module.instruction_at) for r in outcome.reports
            ]
            outcome.suppressed = [
                _relabel(c, module.instruction_at) for c in outcome.suppressed
            ]
        return outcomes


def _relabel(item, convert):
    """A report or suppressed candidate with its statements passed through
    ``convert`` — to labels in a worker, back to this module's
    instructions in the parent."""
    changes = {"source": convert(item.source), "sink": convert(item.sink)}
    if isinstance(item, BugReport):
        changes["statements"] = [convert(s) for s in item.statements]
    return replace(item, **changes)


#: worker-process state: the payload from :func:`_init_detect_worker`
#: (shipped once per worker, not once per part) and the checker built
#: from it on the first part
_WORKER: Dict[str, object] = {}


def _init_detect_worker(payload: dict) -> None:
    _WORKER.clear()
    _WORKER["payload"] = payload


def _detect_part(part: Tuple[Tuple[int, int], ...]):
    """Pool target: the serial per-source loop over one part of the
    sources.  Returns ``([(index, outcome)], solver counter deltas)`` with
    every statement replaced by its label."""
    fault_point("worker:detect")
    if "checker" not in _WORKER:
        _WORKER["checker"] = _worker_checker(_WORKER["payload"])
    checker, source_list = _WORKER["checker"]
    for idx, label in part:
        if idx >= len(source_list) or source_list[idx][1].label != label:
            raise RuntimeError("detection worker enumerated different sources")
    before = dict(checker.realizability.statistics)
    outcomes = checker._run_serial([source_list[idx] for idx, _label in part])
    solver_counts = {
        key: value - before.get(key, 0)
        for key, value in checker.realizability.statistics.items()
    }
    portable = []
    for (idx, _label), outcome in zip(part, outcomes):
        outcome.reports = [_relabel(r, lambda inst: inst.label) for r in outcome.reports]
        outcome.suppressed = [
            _relabel(c, lambda inst: inst.label) for c in outcome.suppressed
        ]
        portable.append((idx, outcome))
    return portable, solver_counts


def _worker_checker(payload: dict):
    """Rebuild the parent's checker (with a worker-local solver stack and
    budget) and its source list."""
    from . import ALL_CHECKERS  # the package imports this module
    from ..analysis.budget import Budget

    bundle = payload["bundle"]
    solver = payload["solver"]
    budget = Budget(payload["wall_seconds"], solver_seconds=solver["solver_timeout"])
    lock_analysis = None
    if solver["model_locks"]:
        from ..threads.locks import LockAnalysis

        lock_analysis = LockAnalysis(bundle.module)
    realizability = RealizabilityChecker(
        bundle,
        solver_max_conflicts=solver["solver_max_conflicts"],
        order_constraints=solver["order_constraints"],
        lock_analysis=lock_analysis,
        memory_model=solver["memory_model"],
        solver_timeout=solver["solver_timeout"],
        budget=budget,
    )
    checker = ALL_CHECKERS[payload["kind"]](
        bundle,
        limits=payload["limits"],
        realizability=realizability,
        budget=budget,
        **payload["checker"],
    )
    return checker, list(checker.sources())
