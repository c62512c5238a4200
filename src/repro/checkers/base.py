"""Source-sink checker framework (paper §5).

A checker instantiates the guarded-reachability template: enumerate
source nodes, search the VFG forward, match sink uses of the reached
values, and keep only the paths the SMT solver proves realizable.  Bug
reports carry the witness path and the constraints — the paper's
"concise bug reports with a limited number of relevant statements".

The enumeration layer is demand-driven (sink-directed): each checker
declares its *sink node set* (the VFG definitions whose uses can be a
sink for the property), a backward :class:`SinkReachabilityIndex` over
that set prunes the forward DFS, an incremental guard prefix cuts
quick-unsat subtrees mid-search, and — in parallel mode — a streaming
pipeline feeds discovered paths to the solver pool while enumeration is
still running (no enumerate-all barrier).
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
from ..detection.reachability import ReachabilityIndexCache, SinkReachabilityIndex
from ..detection.realizability import PathQuery, RealizabilityChecker
from ..detection.search import (
    PathSearcher,
    SearchLimits,
    SearchStatistics,
    TruncationEvent,
    ValueFlowPath,
    _detect_shard,
    _init_detect_worker,
    partition_sink_labels,
)

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


#: one enumerated candidate crossing the producer→coordinator queue:
#: (source index, per-source sequence, key, path edges, source, sink)
_Candidate = Tuple[int, int, Tuple[str, int, int], tuple, Instruction, Instruction]


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
        parallel_solving: bool = False,
        solver_workers: int = 4,
        solver_backend: str = "thread",
        sink_reachability: bool = True,
        guard_pruning: bool = True,
        dead_memo: bool = True,
        index_cache: Optional[ReachabilityIndexCache] = None,
        streaming: bool = True,
        enumeration_workers: int = 2,
        detect_workers: int = 1,
        budget=None,
        tracer=None,
    ) -> None:
        from ..obs.tracer import NULL_TRACER

        #: optional repro.obs Tracer: per-source ``enumerate`` spans
        #: (explicitly parented — producers run on helper threads)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.parallel_solving = parallel_solving
        self.solver_workers = solver_workers
        self.solver_backend = solver_backend
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
        self.dead_memo = dead_memo
        self.index_cache = index_cache
        self.streaming = streaming
        self.enumeration_workers = max(1, enumeration_workers)
        self.detect_workers = max(1, detect_workers)
        #: when set, ``_enumerate_candidates`` emits only candidates whose
        #: sink label is in this set — the per-shard restriction of the
        #: detection-sharding workers.  Enumeration itself is unrestricted
        #: (same DFS region, same per-source limits as serial), so the
        #: union of shard candidate sets equals the serial candidate set
        #: even when truncation budgets fire.
        self._sink_filter: Optional[Set[int]] = None
        #: optional repro.analysis.budget.Budget — serial mode checks it
        #: between sources and winds down on expiry (parallel modes rely
        #: on per-query solver deadlines plus pass-boundary checks)
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

        Drives the sink-reachability index and the dead-state memo;
        ``None`` (the property-agnostic default) disables both.
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

    def _reach_index(
        self, sinks: Optional[Set[VFGNode]]
    ) -> Optional[SinkReachabilityIndex]:
        if not self.sink_reachability or not sinks:
            return None
        cache = self.index_cache
        if cache is None:
            return SinkReachabilityIndex(
                self.bundle.vfg, sinks, self.limits.context_depth
            )
        return cache.get(self.bundle.vfg, sinks, self.limits.context_depth)

    def _make_searcher(
        self,
        index: Optional[SinkReachabilityIndex],
        sinks: Optional[Set[VFGNode]],
    ) -> PathSearcher:
        return PathSearcher(
            self.bundle,
            self.limits,
            reach_index=index,
            guard_pruning=self.guard_pruning,
            dead_memo=self.dead_memo,
            sink_nodes=sinks,
        )

    def _note_search(self, origin: VFGNode, searcher: PathSearcher) -> None:
        """Merge one source's enumeration counters and truncations."""
        self.search_stats.merge(searcher.stats)
        for limit, count in sorted(searcher.truncations.items()):
            self.truncation_events.append(
                TruncationEvent(origin=repr(origin), limit=limit, count=count)
            )

    def _merged_statistics(self) -> None:
        # Enumeration counters live in self.search_stats (the driver
        # surfaces them separately); candidates is shared vocabulary.
        self.statistics["candidates"] = self.search_stats.candidates

    # ----- driver -----------------------------------------------------------

    def run(self) -> List[BugReport]:
        if (
            self.detect_workers > 1
            and self.solver_backend == "process"
            and not self.collect_suppressed
        ):
            # Per-sink sharding across the process pool.  Suppressed-
            # candidate diagnostics need live parent-side refutation
            # queries, so that mode stays on the in-process paths.  A
            # ``None`` return means the pool could not run — fall through
            # to the streaming/batch/serial ladder below.
            reports = self._run_sharded()
            if reports is not None:
                self._merged_statistics()
                self.statistics["reports"] += len(reports)
                return reports
        sinks = self.sink_node_set()
        index = self._reach_index(sinks)
        source_list = list(self.sources())
        self.statistics["sources"] = len(source_list)
        if self.parallel_solving:
            if self.streaming:
                reports = self._run_streaming(source_list, index, sinks)
            else:
                reports = self._run_batch(source_list, index, sinks)
        else:
            reports = self._run_serial(source_list, index, sinks)
        self._merged_statistics()
        self.statistics["reports"] += len(reports)
        return reports

    def _run_serial(
        self,
        source_list: Sequence[Tuple[VFGNode, Instruction, BoolTerm]],
        index: Optional[SinkReachabilityIndex],
        sinks: Optional[Set[VFGNode]],
    ) -> List[BugReport]:
        reports: List[BugReport] = []
        reported_keys: Set[Tuple] = set()
        for origin, source_inst, alias_guard in source_list:
            if self.budget is not None and self.budget.note_expired(
                f"checker:{self.kind}"
            ):
                break  # wall budget expired: report what we have so far
            found_here = 0

            def on_node(node: VFGNode, path: ValueFlowPath) -> int:
                nonlocal found_here
                if not isinstance(node, DefNode):
                    return 0
                emitted = 0
                for sink_inst in self.sinks_at(node.var, source_inst):
                    key = (self.kind, source_inst.label, sink_inst.label)
                    if key in reported_keys:
                        continue
                    if not self.admit(source_inst, sink_inst, path):
                        continue
                    emitted += 1
                    if found_here >= self.max_reports_per_source:
                        # Report budget exhausted: the candidate still
                        # counts against max_paths_per_source (as it
                        # does in batch/streaming mode) but is not
                        # solved — matching the pre-streaming policy of
                        # at most max_reports_per_source keys per source.
                        continue
                    query = PathQuery(
                        path=ValueFlowPath(origin=path.origin, edges=list(path.edges)),
                        source_inst=source_inst,
                        sink_inst=sink_inst,
                        extra_constraints=self.extra_constraints(
                            source_inst, sink_inst
                        ),
                        alias_guard=alias_guard,
                        extra_statements=self.extra_statements(
                            source_inst, sink_inst
                        ),
                    )
                    result = self.realizability.check(query)
                    if not result.realizable:
                        if result.verdict == "unknown":
                            # Budget outcome, not a refutation: recording
                            # it as suppressed would mislabel it as
                            # solver-proved infeasible.
                            self.statistics["undecided"] += 1
                        elif self.collect_suppressed:
                            key_s = (self.kind, source_inst.label, sink_inst.label, "s")
                            if key_s not in reported_keys:
                                reported_keys.add(key_s)
                                self.suppressed.append(
                                    SuppressedCandidate(
                                        kind=self.kind,
                                        source=source_inst,
                                        sink=sink_inst,
                                        reason=self.realizability.explain_refutation(
                                            query
                                        ),
                                    )
                                )
                        continue
                    reported_keys.add(key)
                    found_here += 1
                    reports.append(self._make_report(query, result))
                return emitted

            searcher = self._make_searcher(index, sinks)
            with self.tracer.span("enumerate", checker=self.kind, source=source_inst.label):
                searcher.search(origin, on_node, alias_guard=alias_guard)
            self._note_search(origin, searcher)
        return reports

    def _enumerate_candidates(
        self,
        source_list: Sequence[Tuple[VFGNode, Instruction, BoolTerm]],
        index: Optional[SinkReachabilityIndex],
        sinks: Optional[Set[VFGNode]],
        emit,
        span_parent=None,
    ) -> None:
        """Enumerate every source (possibly on a thread pool), calling
        ``emit(candidate)`` for each admitted (source, sink, path).

        Unlike serial mode, a key is *not* claimed when a candidate is
        emitted — every enumerated path of a (source, sink) pair becomes
        a query, exactly the set serial mode would have checked, so the
        modes agree even when a pair's first path is unrealizable but a
        later one is realizable.  Candidates are tagged with a
        (source-index, sequence) ordinal; replaying the serial reporting
        policy over the ordinal-sorted verdicts reproduces serial mode's
        bug keys.

        Producers never build SMT terms (interning is not thread-safe):
        ``extra_constraints`` is deferred to the coordinator.
        """
        # Producer threads have no ambient span stack: parent their
        # enumerate spans explicitly under the checker (detect) span —
        # streaming mode captures the context before forking producers.
        enum_parent = (
            span_parent if span_parent is not None else self.tracer.current_context()
        )

        def enumerate_one(idx: int) -> None:
            origin, source_inst, alias_guard = source_list[idx]
            seq = 0

            def on_node(node: VFGNode, path: ValueFlowPath) -> int:
                nonlocal seq
                if not isinstance(node, DefNode):
                    return 0
                emitted = 0
                sink_filter = self._sink_filter
                for sink_inst in self.sinks_at(node.var, source_inst):
                    key = (self.kind, source_inst.label, sink_inst.label)
                    if not self.admit(source_inst, sink_inst, path):
                        continue
                    # The sequence counts every admitted candidate — even
                    # ones a shard filter drops — so ``seq`` is the *serial*
                    # ordinal of the candidate in any worker, and truncation
                    # budgets fire at exactly the serial point.
                    emitted += 1
                    if sink_filter is None or sink_inst.label in sink_filter:
                        emit(
                            (idx, seq, key, tuple(path.edges), source_inst, sink_inst)
                        )
                    seq += 1
                return emitted

            searcher = self._make_searcher(index, sinks)
            with self.tracer.span(
                "enumerate",
                parent=enum_parent,
                checker=self.kind,
                source=source_inst.label,
            ):
                searcher.search(origin, on_node, alias_guard=alias_guard)
            with self._enum_lock:
                self._note_search(origin, searcher)

        self._enum_lock = threading.Lock()
        if self.enumeration_workers <= 1 or len(source_list) <= 1:
            for idx in range(len(source_list)):
                enumerate_one(idx)
            return
        with ThreadPoolExecutor(max_workers=self.enumeration_workers) as pool:
            futures = [
                pool.submit(enumerate_one, idx) for idx in range(len(source_list))
            ]
            for future in futures:
                future.result()  # propagate enumeration errors

    def _replay_serial_policy(
        self,
        ordered: Sequence[Tuple[_Candidate, PathQuery]],
        results: Sequence,
    ) -> List[BugReport]:
        """§5.2: path queries are mutually independent — decided on the
        pool, then materialized in candidate order.  Walking in
        enumeration order reproduces the serial policy exactly: the
        first realizable path of a key wins and each source reports at
        most ``max_reports_per_source`` keys."""
        reports: List[BugReport] = []
        reported_keys: Set[Tuple[str, int, int]] = set()
        per_source: Dict[int, int] = {}
        suppressed_keys: Set[Tuple[str, int, int]] = set()
        for ((_idx, _seq, key, _edges, source_inst, sink_inst), query), result in zip(
            ordered, results
        ):
            if key in reported_keys:
                continue  # an earlier path already proved this pair
            if result.realizable:
                source_label = query.source_inst.label
                if per_source.get(source_label, 0) >= self.max_reports_per_source:
                    continue
                per_source[source_label] = per_source.get(source_label, 0) + 1
                reported_keys.add(key)
                reports.append(self._make_report(query, result))
            elif result.verdict == "unknown":
                # Budget outcome: never recorded as solver-refuted.
                self.statistics["undecided"] += 1
            elif self.collect_suppressed and key not in suppressed_keys:
                suppressed_keys.add(key)
                self.suppressed.append(
                    SuppressedCandidate(
                        kind=self.kind,
                        source=query.source_inst,
                        sink=query.sink_inst,
                        reason=self.realizability.explain_refutation(query),
                    )
                )
        return reports

    def _build_query(self, candidate: _Candidate, source_list) -> PathQuery:
        idx, _seq, _key, edges, source_inst, sink_inst = candidate
        origin, _inst, alias_guard = source_list[idx]
        return PathQuery(
            path=ValueFlowPath(origin=origin, edges=list(edges)),
            source_inst=source_inst,
            sink_inst=sink_inst,
            extra_constraints=self.extra_constraints(source_inst, sink_inst),
            alias_guard=alias_guard,
            extra_statements=self.extra_statements(source_inst, sink_inst),
        )

    def _run_streaming(
        self,
        source_list: Sequence[Tuple[VFGNode, Instruction, BoolTerm]],
        index: Optional[SinkReachabilityIndex],
        sinks: Optional[Set[VFGNode]],
    ) -> List[BugReport]:
        """The enumerate→solve pipeline: producer threads run per-source
        DFS, pushing candidates into a bounded queue; the coordinator
        (this thread) assembles Φ_all and streams it to the solver pool
        while enumeration continues.  Verdicts are replayed over the
        (source, sequence)-sorted candidates, preserving the serial
        equivalence guarantee."""
        if not source_list:
            return []
        fifo: "queue.Queue" = queue.Queue(maxsize=max(64, 8 * self.solver_workers))
        _DONE = object()

        def emit(candidate: _Candidate) -> None:
            fifo.put(candidate)

        # Captured on the coordinator, where the detect span is ambient.
        enum_ctx = self.tracer.current_context()

        def produce() -> None:
            try:
                self._enumerate_candidates(
                    source_list, index, sinks, emit, span_parent=enum_ctx
                )
            finally:
                fifo.put(_DONE)

        stream = self.realizability.open_stream(
            max_workers=self.solver_workers, backend=self.solver_backend
        )
        entries: List[Tuple[_Candidate, PathQuery, int]] = []
        producer = threading.Thread(target=produce, name=f"{self.kind}-enum")
        producer.start()
        try:
            while True:
                item = fifo.get()
                if item is _DONE:
                    break
                query = self._build_query(item, source_list)
                ordinal = stream.submit(query)
                entries.append((item, query, ordinal))
        finally:
            producer.join()
            results = stream.finish()
        # Enumeration across sources interleaves nondeterministically;
        # the (source-index, sequence) ordinal restores the order serial
        # mode would have produced.
        entries.sort(key=lambda e: (e[0][0], e[0][1]))
        ordered = [(cand, query) for cand, query, _ord in entries]
        verdicts = [results[ordinal] for _cand, _query, ordinal in entries]
        return self._replay_serial_policy(ordered, verdicts)

    def _run_batch(
        self,
        source_list: Sequence[Tuple[VFGNode, Instruction, BoolTerm]],
        index: Optional[SinkReachabilityIndex],
        sinks: Optional[Set[VFGNode]],
    ) -> List[BugReport]:
        """PR 1 batch mode (kept for comparison/ablation): enumerate all
        paths first, then decide the whole batch on the pool."""
        pending: List[_Candidate] = []
        self._enumerate_candidates(source_list, index, sinks, pending.append)
        pending.sort(key=lambda c: (c[0], c[1]))
        if not pending:
            return []
        queries = [self._build_query(c, source_list) for c in pending]
        results = self.realizability.check_many(
            queries,
            parallel=True,
            max_workers=self.solver_workers,
            backend=self.solver_backend,
        )
        return self._replay_serial_policy(list(zip(pending, queries)), results)

    # ----- per-sink detection sharding ---------------------------------------

    def _run_sharded(self) -> Optional[List[BugReport]]:
        """Dispatch sink-label shards across a process pool and merge.

        Returns ``None`` when sharding cannot run (nothing to shard over,
        pool creation failed, a worker died, or the payload would not
        pickle) — the caller then falls through to the in-process paths,
        so a sharded run always completes.  The run budget stays parent-
        side: workers see only the static per-query solver timeout.
        """
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        universe: Set[int] = set()
        for uses in (self.uses.pointer_uses, self.uses.data_uses):
            for insts in uses.values():
                universe.update(inst.label for inst in insts)
        shards = partition_sink_labels(universe, self.detect_workers)
        if len(shards) < 2:
            return None  # 0/1 sink families: nothing to shard over
        realizability = self.realizability
        payload = {
            "bundle": self.bundle,
            "kind": self.kind,
            "limits": self.limits,
            "checker_kwargs": {
                "inter_thread_only": self.inter_thread_only,
                "max_reports_per_source": self.max_reports_per_source,
                "sink_reachability": self.sink_reachability,
                "guard_pruning": self.guard_pruning,
                "dead_memo": self.dead_memo,
            },
            "solver": {
                "use_cube_and_conquer": realizability.use_cube_and_conquer,
                "solver_max_conflicts": realizability.solver_max_conflicts,
                "order_constraints": realizability.order_constraints,
                "memory_model": realizability.orders.memory_model,
                "model_locks": realizability.orders.lock_analysis is not None,
                "solver_timeout": realizability.solver_timeout,
            },
        }
        try:
            with ProcessPoolExecutor(
                max_workers=len(shards),
                initializer=_init_detect_worker,
                initargs=(payload,),
            ) as pool:
                shard_results = list(pool.map(_detect_shard, shards))
        except (
            OSError,
            RuntimeError,
            ImportError,
            EOFError,
            pickle.PicklingError,
        ) as exc:
            realizability._note_pool_failure("detect-shard", exc)
            return None
        rows = [row for res in shard_results for row in res["rows"]]
        # Every row carries its true serial (source-index, sequence)
        # ordinal — see _enumerate_candidates — so this sort restores the
        # exact order serial mode solves candidates in.
        rows.sort(key=lambda r: (r["idx"], r["seq"]))
        reports = self._replay_rows(rows)
        # Every shard walks the identical DFS, so enumeration counters and
        # truncations are byte-equal across shards: adopt the first
        # shard's verbatim (summing would multiply-count the walk).
        first = shard_results[0]
        self.statistics["sources"] = first["sources"]
        self.search_stats = SearchStatistics(**first["search_stats"])
        self.truncation_events = [
            TruncationEvent(origin=origin, limit=limit, count=count)
            for origin, limit, count in first["truncations"]
        ]
        # Solver work really is partitioned: sum it into the run counters.
        for res in shard_results:
            for key, value in res["solver_stats"].items():
                if value:
                    realizability._count(key, value)
        realizability.metrics.counter("detect.shards").add(len(shards))
        return reports

    def shard_rows(self, shard: Sequence[int]) -> dict:
        """Worker half of detection sharding: run the serial enumeration
        (identical DFS region, prunes, and truncation accounting), emit
        only candidates whose sink label is in ``shard``, solve them in
        enumeration order, and return plain picklable rows plus the
        counters the parent adopts."""
        self._sink_filter = frozenset(shard)
        sinks = self.sink_node_set()
        index = self._reach_index(sinks)
        source_list = list(self.sources())
        pending: List[_Candidate] = []
        self._enumerate_candidates(source_list, index, sinks, pending.append)
        pending.sort(key=lambda c: (c[0], c[1]))
        rows: List[dict] = []
        for cand in pending:
            query = self._build_query(cand, source_list)
            result = self.realizability.check(query)
            src_threads = self.bundle.tcg.threads_of(query.source_inst)
            sink_threads = self.bundle.tcg.threads_of(query.sink_inst)
            rows.append(
                {
                    "idx": cand[0],
                    "seq": cand[1],
                    "source": query.source_inst.label,
                    "sink": query.sink_inst.label,
                    "realizable": result.realizable,
                    "verdict": result.verdict,
                    "witness_order": dict(result.witness_order),
                    "witness_env": dict(result.witness_env),
                    "path": query.path.describe(self.bundle),
                    "inter_thread": query.path.has_interference()
                    or any(a != b for a in src_threads for b in sink_threads),
                    "statements": [
                        s.label for s in query.path.statements(self.bundle)
                    ],
                }
            )
        return {
            "rows": rows,
            "sources": len(source_list),
            "search_stats": self.search_stats.as_dict(),
            "truncations": [
                (e.origin, e.limit, e.count) for e in self.truncation_events
            ],
            "solver_stats": dict(self.realizability.statistics),
        }

    def _replay_rows(self, rows: Sequence[dict]) -> List[BugReport]:
        """The serial reporting policy over ordinal-sorted shard rows —
        the row-level twin of :meth:`_replay_serial_policy`, rehydrating
        statements through the parent's own module by label."""
        module = self.bundle.module
        reports: List[BugReport] = []
        reported_keys: Set[Tuple[str, int, int]] = set()
        per_source: Dict[int, int] = {}
        for row in rows:
            key = (self.kind, row["source"], row["sink"])
            if key in reported_keys:
                continue
            if row["realizable"]:
                if per_source.get(row["source"], 0) >= self.max_reports_per_source:
                    continue
                per_source[row["source"]] = per_source.get(row["source"], 0) + 1
                reported_keys.add(key)
                reports.append(
                    BugReport(
                        kind=self.kind,
                        source=module.instruction_at(row["source"]),
                        sink=module.instruction_at(row["sink"]),
                        path=row["path"],
                        inter_thread=row["inter_thread"],
                        witness_order=row["witness_order"],
                        witness_env=row["witness_env"],
                        statements=[
                            module.instruction_at(label)
                            for label in row["statements"]
                        ],
                    )
                )
            elif row["verdict"] == "unknown":
                self.statistics["undecided"] += 1
        return reports

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
