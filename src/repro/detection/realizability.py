"""Realizability checking of value-flow paths (paper §5.2).

For a candidate source→sink path, assemble

    Φ_all(π) = Φ_guards(π) ∧ Φ_ls(π) ∧ Φ_po(π) ∧ Φ_extra

(Eq. 5 plus the checker-specific constraints such as ``O_free < O_use``)
and decide it with the SMT solver.  SAT means the path corresponds to a
feasible sequentially-consistent interleaving and the bug is reported,
together with a *witness order* extracted from the model.

Per the paper, path queries are mutually independent, so batches can be
solved in parallel.  Two backends implement that:

* ``'process'`` — formulas are assembled in the parent, deduplicated,
  and shipped to a ``ProcessPoolExecutor`` (terms pickle structurally
  and re-intern in the worker; results come back as plain dicts).  This
  is the only backend that actually scales the pure-Python solver past
  the GIL.
* ``'thread'`` — a ``ThreadPoolExecutor`` fallback for environments
  where spawning processes is unavailable or the batch is tiny.

Either way, verdicts are memoized in a :class:`VerdictCache` keyed on
the canonicalized Φ_all (interning makes structural equality identity,
so the formula object itself is the key), shared across all checkers of
one ``Canary`` run.  Statistics are accumulated under a lock and merged
from workers, so counters are exact under any backend.

Fault tolerance: a dead worker process (OOM-killed, segfaulted, or
fault-injected) is never silent.  The streaming path retries the
affected formula on a respawned pool with exponential backoff before
re-solving it in-process; every pool failure is counted in the solver
statistics (``pool_failures`` / ``pool_retries`` / ``pool_local_solves``)
with the triggering exception recorded, and
:meth:`RealizabilityChecker.degradation_summary` turns the counters into
the report's degradation warnings.  Per-query budgets
(``solver_timeout`` seconds, optionally clipped by the run's
:class:`~repro.analysis.budget.Budget`) ride along with each payload, so
a stalled query returns ``UNKNOWN`` (reason recorded) instead of
wedging a worker.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ir.instructions import Instruction
from ..obs.metrics import Counter, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanContext, SpanRecorder, Tracer
from ..smt.solver import SAT, UNKNOWN, UNSAT, Solver, solve_formula
from ..smt.terms import TRUE, BoolTerm, and_
from ..vfg.builder import VFGBundle
from .partial_order import OrderConstraintBuilder, order_var
from .search import ValueFlowPath

__all__ = [
    "PathQuery",
    "RealizabilityChecker",
    "RealizabilityResult",
    "StreamingSolver",
    "VerdictCache",
]

#: backends accepted by check_many / AnalysisConfig.solver_backend
BACKENDS = ("thread", "process")


@dataclass
class PathQuery:
    """One candidate bug: a path plus its endpoint statements.

    ``alias_guard`` carries non-order side conditions (e.g. the freed
    object's pointed-to-by guard); ``extra_constraints`` carry the
    checker's order requirements (e.g. ``O_free < O_use``).  The split
    lets :meth:`RealizabilityChecker.explain_refutation` attribute an
    UNSAT verdict to guards vs. ordering.
    """

    path: ValueFlowPath
    source_inst: Optional[Instruction]
    sink_inst: Optional[Instruction]
    extra_constraints: Tuple[BoolTerm, ...] = ()
    alias_guard: BoolTerm = TRUE
    #: additional statements (beyond path + endpoints) whose order
    #: variables the checker's extra_constraints mention — they join the
    #: Φ_po / mutual-exclusion statement universe and contribute their
    #: own path conditions (e.g. the local write of an RMW pair for the
    #: atomicity checker).
    extra_statements: Tuple[Instruction, ...] = ()


@dataclass
class RealizabilityResult:
    realizable: bool
    verdict: str  # 'sat' | 'unsat' | 'unknown'
    formula: BoolTerm = TRUE
    witness_order: Dict[str, int] = field(default_factory=dict)
    #: the model's non-order assignments, for witness replay:
    #: {'ints': extern-name -> int, 'bools': atom-name -> bool}
    witness_env: Dict[str, Dict] = field(default_factory=dict)
    #: why an 'unknown' verdict was undecided ('conflicts', 'deadline',
    #: 'theory-rounds'); empty for decided verdicts.  An UNKNOWN is a
    #: budget outcome, never evidence of (un)realizability.
    unknown_reason: str = ""


#: a cached verdict: (verdict, ints, bool atoms, unknown reason)
_CacheEntry = Tuple[str, Dict[str, int], Dict[str, bool], str]


class VerdictCache:
    """Structural Φ_all → verdict memo, shared across checkers of a run.

    Keys are the formula terms themselves: the term DSL hash-conses, so
    two structurally identical Φ_all are the same object and repeated
    queries (the common case when many paths share guards and order
    skeletons, cf. DFI's reuse of solved sub-queries) hit the cache.
    Entries store only plain data — safe to materialize into fresh
    :class:`RealizabilityResult`\\ s and to populate from any backend.
    Thread-safe; hit/miss counters are exact.
    """

    def __init__(self) -> None:
        self._entries: Dict[BoolTerm, _CacheEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def peek(self, formula: BoolTerm) -> Optional[_CacheEntry]:
        """Look up without touching the hit/miss counters (callers count
        via :meth:`record` once they commit to using the answer)."""
        with self._lock:
            return self._entries.get(formula)

    def record(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def store(self, formula: BoolTerm, entry: _CacheEntry) -> None:
        with self._lock:
            self._entries[formula] = entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _solve_payload(payload):
    """Module-level process-pool target (must be picklable by name).

    The payload is ``(formula, max_conflicts, use_cube, timeout)`` or —
    when tracing is on — a 5-tuple whose last element is the submitting
    span's :class:`~repro.obs.tracer.SpanContext` (or ``None``).  With a
    5-tuple the return grows a sixth element: the worker's span records,
    which ride back for :meth:`~repro.obs.tracer.Tracer.ingest` so a
    query solved in another process still nests under its checker span.
    """
    from ..testing.faults import fault_point

    recorder = None
    if len(payload) == 5:
        formula, max_conflicts, use_cube, timeout, ctx = payload
        recorder = SpanRecorder(ctx)
    else:
        formula, max_conflicts, use_cube, timeout = payload
    fault_point("worker:solve")  # pool-death injection site (workers only)
    if recorder is None:
        return solve_formula(
            formula,
            max_conflicts=max_conflicts,
            use_cube=use_cube,
            timeout=timeout,
        )
    with recorder.span("solver.query", pooled=True) as span:
        result = solve_formula(
            formula,
            max_conflicts=max_conflicts,
            use_cube=use_cube,
            timeout=timeout,
            recorder=recorder,
        )
        span.set("verdict", result[0])
    return result + (recorder.records,)


class RealizabilityChecker:
    """Assembles Φ_all and decides it."""

    def __init__(
        self,
        bundle: VFGBundle,
        use_cube_and_conquer: bool = False,
        solver_max_conflicts: Optional[int] = 100_000,
        order_constraints: bool = True,
        lock_analysis=None,
        memory_model: str = "sc",
        backend: str = "thread",
        cache: Optional[VerdictCache] = None,
        solver_timeout: Optional[float] = None,
        budget=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown solver backend {backend!r} (want one of {BACKENDS})")
        self.bundle = bundle
        self.orders = OrderConstraintBuilder(
            bundle, lock_analysis=lock_analysis, memory_model=memory_model
        )
        self.use_cube_and_conquer = use_cube_and_conquer
        self.solver_max_conflicts = solver_max_conflicts
        self.solver_timeout = solver_timeout
        #: optional repro.analysis.budget.Budget — clips per-query
        #: timeouts to the run's remaining wall budget (parent-side only;
        #: the budget object never crosses a process boundary)
        self.budget = budget
        self.order_constraints = order_constraints
        self.backend = backend
        self.cache = cache
        self._stats_lock = threading.Lock()
        self._last_pool_error = ""
        #: the single home of the solver counters; shared with the run's
        #: AnalysisReport when the pipeline constructs the checker
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Pre-register the full legacy counter set in its historical
        # order so the ``statistics`` view is shape-stable from birth.
        self._counters: Dict[str, Counter] = {}
        for key in (
            "queries",
            "sat",
            "unsat",
            "unknown",
            "unknown_conflicts",
            "unknown_deadline",
            "cache_hits",
            "cache_misses",
        ):
            self._counter(key)
        self._counter("solve_seconds").add(0.0)  # promote to float
        for key in ("pool_failures", "pool_retries", "pool_local_solves"):
            self._counter(key)

    def _counter(self, key: str) -> Counter:
        """The ``solver.<key>`` counter (get-or-create, memoized).

        All mutation happens under ``_stats_lock`` so multi-counter
        updates in :meth:`_bump` stay atomic as a group."""
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self.metrics.counter(f"solver.{key}")
        return counter

    @property
    def statistics(self) -> Dict[str, int]:
        """Legacy view: the ``solver.*`` registry counters, plain dict."""
        return self.metrics.namespace("solver")

    def query_timeout(self) -> Optional[float]:
        """Per-query wall budget: ``solver_timeout`` clipped to the run
        budget's remaining wall time (evaluated at submission)."""
        timeout = self.solver_timeout
        if self.budget is not None:
            clipped = self.budget.query_timeout()
            if clipped is not None:
                timeout = clipped if timeout is None else min(timeout, clipped)
        return timeout

    # ----- formula assembly -------------------------------------------------

    def formula_for(self, query: PathQuery) -> BoolTerm:
        parts: List[BoolTerm] = []
        # Φ_guards: the aggregated guards along the path (Eq. 5) plus the
        # endpoint statements' own path conditions.
        mentioned: List[Instruction] = []
        for edge in query.path.edges:
            parts.append(edge.guard)
            if edge.kind == "load" and self.order_constraints:
                parts.append(self.orders.load_store_order(edge))  # Φ_ls
                mentioned.extend(self.orders.interfering_stores(edge))
        if query.source_inst is not None:
            parts.append(query.source_inst.guard)
        if query.sink_inst is not None:
            parts.append(query.sink_inst.guard)
        for extra in query.extra_statements:
            parts.append(extra.guard)
        if self.order_constraints:
            # Φ_po over every statement involved (Eq. 4).
            statements = query.path.statements(self.bundle)
            for endpoint in (query.source_inst, query.sink_inst):
                if endpoint is not None:
                    statements.append(endpoint)
            statements.extend(query.extra_statements)
            parts.append(self.orders.program_order(statements))
            # Lock/unlock extension: mutual exclusion over everything the
            # formula mentions (path, endpoints, interfering stores).
            parts.append(self.orders.mutex_exclusion(statements + mentioned))
            # Condition-variable extension: signal→wait edges for every
            # wait statement the formula mentions.
            parts.append(self.orders.signal_wait_order(statements + mentioned))
        parts.append(query.alias_guard)
        parts.extend(query.extra_constraints)
        return and_(*parts)

    def guards_only_formula(self, query: PathQuery) -> BoolTerm:
        """Only Φ_guards (edge guards + endpoint path conditions + alias
        guard) — no Φ_ls, no Φ_po, no checker order constraints."""
        parts: List[BoolTerm] = [query.alias_guard]
        for edge in query.path.edges:
            parts.append(edge.guard)
        if query.source_inst is not None:
            parts.append(query.source_inst.guard)
        if query.sink_inst is not None:
            parts.append(query.sink_inst.guard)
        return and_(*parts)

    def explain_refutation(self, query: PathQuery) -> str:
        """Why was an unrealizable candidate refuted?

        * ``'guard-contradiction'`` — the aggregated branch/alias guards
          alone are UNSAT (the Fig. 2 class);
        * ``'order-violation'`` — the guards are consistent but no total
          order satisfies Φ_ls ∧ Φ_po plus the checker's requirements
          (the Fig. 5(b) / fork-join class).
        """
        solver = Solver(
            max_conflicts=self.solver_max_conflicts, timeout=self.query_timeout()
        )
        solver.add(self.guards_only_formula(query))
        if solver.check() is UNSAT:
            return "guard-contradiction"
        return "order-violation"

    # ----- deciding ---------------------------------------------------------

    def _bump(
        self,
        verdict: str,
        cache_hit: Optional[bool],
        seconds: float,
        reason: str = "",
    ) -> None:
        """Merge one query's counters (thread-safe; exact under any pool)."""
        with self._stats_lock:
            self._counter("queries").add(1)
            self._counter(verdict).add(1)
            if verdict == UNKNOWN and reason:
                self._counter(f"unknown_{reason.replace('-', '_')}").add(1)
            if cache_hit is not None:
                self._counter("cache_hits" if cache_hit else "cache_misses").add(1)
            self._counter("solve_seconds").add(seconds)
        if self.cache is not None and cache_hit is not None:
            self.cache.record(cache_hit)

    def _note_pool_failure(self, context: str, exc: BaseException) -> None:
        """Record one worker/pool death — never swallowed silently."""
        with self._stats_lock:
            self._counter("pool_failures").add(1)
            self._last_pool_error = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
            if context:
                self._last_pool_error += f" [{context}]"

    def _count(self, key: str, delta: int = 1) -> None:
        with self._stats_lock:
            self._counter(key).add(delta)

    def degradation_summary(self) -> List[str]:
        """Human-readable degradation warnings for the analysis report:
        pool deaths (with how the work was recovered) and budget-starved
        queries.  Empty when nothing degraded."""
        out: List[str] = []
        s = self.statistics
        if s["pool_failures"]:
            detail = f" ({self._last_pool_error})" if self._last_pool_error else ""
            out.append(
                f"solver pool: {s['pool_failures']} worker failure(s){detail};"
                f" {s['pool_retries']} retried on a fresh pool,"
                f" {s['pool_local_solves']} re-solved locally"
            )
        if s.get("unknown_deadline"):
            out.append(
                f"solver: {s['unknown_deadline']} query(ies) hit the per-query"
                " deadline (verdict unknown, candidate not reported)"
            )
        return out

    def _absorb(self, data):
        """Normalize a ``_solve_payload`` return: ingest any worker span
        records (6-tuple form) and hand back the plain 5-tuple."""
        if len(data) == 6:
            self.tracer.ingest(data[5])
            return data[:5]
        return data

    def _materialize(
        self,
        formula: BoolTerm,
        verdict: str,
        ints: Dict[str, int],
        bools: Dict[str, bool],
        reason: str = "",
    ) -> RealizabilityResult:
        """Rebuild a result from plain (picklable / cacheable) solve data."""
        if verdict != SAT:
            # UNSAT: refuted.  UNKNOWN: budget exhausted — soundy choice,
            # do not report (low FP bias), but carry the reason so callers
            # can distinguish "proved infeasible" from "gave up".
            return RealizabilityResult(False, verdict, formula, unknown_reason=reason)
        witness: Dict[str, int] = {}
        witness_env: Dict[str, Dict] = {"ints": {}, "bools": dict(bools)}
        for name, value in ints.items():
            if name.startswith("O") and name[1:].isdigit():
                # Statement order variables O<label>.
                witness[name] = value
            else:
                witness_env["ints"][name] = value
        return RealizabilityResult(True, SAT, formula, witness, witness_env)

    def check(self, query: PathQuery) -> RealizabilityResult:
        return self.check_formula(self.formula_for(query))

    def check_formula(
        self,
        formula: BoolTerm,
        parent: Optional[SpanContext] = None,
    ) -> RealizabilityResult:
        """Decide one assembled Φ_all, consulting the verdict cache.

        ``parent`` overrides the span parent when the call runs on a
        helper thread (check_many's thread pool) whose ambient span
        stack is empty."""
        tracer = self.tracer
        if self.cache is not None:
            entry = self.cache.peek(formula)
            if entry is not None:
                verdict, ints, bools, reason = entry
                with tracer.span(
                    "solver.query", parent=parent, cached=True
                ) as span:
                    span.set("verdict", verdict)
                self._bump(verdict, cache_hit=True, seconds=0.0, reason=reason)
                return self._materialize(formula, verdict, ints, bools, reason)
        recorder = None
        with tracer.span("solver.query", parent=parent, cached=False) as span:
            if tracer.enabled:
                recorder = tracer.recorder(span.context())
            verdict, ints, bools, seconds, reason = solve_formula(
                formula,
                max_conflicts=self.solver_max_conflicts,
                use_cube=self.use_cube_and_conquer,
                timeout=self.query_timeout(),
                recorder=recorder,
            )
            span.set("verdict", verdict)
            if reason:
                span.set("unknown_reason", reason)
        if recorder is not None:
            tracer.ingest(recorder.records)
        if self.cache is not None:
            self.cache.store(formula, (verdict, ints, bools, reason))
            self._bump(verdict, cache_hit=False, seconds=seconds, reason=reason)
        else:
            self._bump(verdict, cache_hit=None, seconds=seconds, reason=reason)
        return self._materialize(formula, verdict, ints, bools, reason)

    def check_many(
        self,
        queries: Sequence[PathQuery],
        parallel: bool = False,
        max_workers: int = 4,
        backend: Optional[str] = None,
    ) -> List[RealizabilityResult]:
        """Decide many independent path queries (§5.2: parallelizable).

        ``backend`` overrides the checker's default: ``'process'`` ships
        formulas to a process pool (real parallelism for the pure-Python
        solver), ``'thread'`` uses the in-process pool.  Falls back to
        threads automatically if the process pool cannot be created.
        """
        if not parallel or len(queries) < 2:
            return [self.check(q) for q in queries]
        backend = backend or self.backend
        max_workers = max(1, max_workers)
        # Formula assembly touches the VFG bundle and order builder, so it
        # stays in the parent; only pure terms cross the pool boundary.
        formulas = [self.formula_for(q) for q in queries]
        if backend == "process":
            try:
                return self._check_formulas_process(formulas, max_workers)
            except (OSError, RuntimeError, ImportError) as exc:
                # e.g. sandboxed fork or a dead worker (BrokenProcessPool is
                # a RuntimeError) — record it, degrade to the thread pool.
                self._note_pool_failure("batch", exc)
        # Pool threads have no ambient span stack: parent their query
        # spans explicitly under this (submitting) thread's open span.
        ctx = self.tracer.current_context()
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(
                pool.map(lambda f: self.check_formula(f, parent=ctx), formulas)
            )

    def open_stream(
        self,
        max_workers: int = 4,
        backend: Optional[str] = None,
        max_inflight: Optional[int] = None,
    ) -> "StreamingSolver":
        """A bounded enumerate→solve pipeline: submit path queries as the
        searcher discovers them; verdicts come back in submission order
        from :meth:`StreamingSolver.finish`."""
        return StreamingSolver(
            self,
            max_workers=max_workers,
            backend=backend or self.backend,
            max_inflight=max_inflight,
        )

    def _check_formulas_process(
        self,
        formulas: Sequence[BoolTerm],
        max_workers: int,
    ) -> List[RealizabilityResult]:
        cache = self.cache
        results: List[Optional[RealizabilityResult]] = [None] * len(formulas)
        cached: List[Tuple[int, BoolTerm, _CacheEntry]] = []
        todo: Dict[BoolTerm, List[int]] = {}
        for i, formula in enumerate(formulas):
            entry = cache.peek(formula) if cache is not None else None
            if entry is not None:
                cached.append((i, formula, entry))
            else:
                # Duplicate formulas are solved once (interning makes the
                # dict collapse them) and fanned back out below.
                todo.setdefault(formula, []).append(i)
        unique = list(todo)
        solved = []
        if unique:
            timeout = self.query_timeout()
            base = (self.solver_max_conflicts, self.use_cube_and_conquer, timeout)
            if self.tracer.enabled:
                ctx = self.tracer.current_context()
                payloads = [(f,) + base + (ctx,) for f in unique]
            else:
                payloads = [(f,) + base for f in unique]
            chunksize = max(1, len(payloads) // (4 * max_workers))
            # Raising here (before any statistics commit) lets check_many
            # fall back to the thread pool with exact counters.
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                solved = [
                    self._absorb(data)
                    for data in pool.map(_solve_payload, payloads, chunksize=chunksize)
                ]
        for i, formula, (verdict, ints, bools, reason) in cached:
            self._bump(verdict, cache_hit=True, seconds=0.0, reason=reason)
            results[i] = self._materialize(formula, verdict, ints, bools, reason)
        for formula, (verdict, ints, bools, seconds, reason) in zip(unique, solved):
            if cache is not None:
                cache.store(formula, (verdict, ints, bools, reason))
            for occurrence, i in enumerate(todo[formula]):
                # The first occurrence paid for the solve; further
                # occurrences of the same formula are in-batch reuse.
                hit: Optional[bool] = occurrence > 0 if cache is not None else None
                self._bump(
                    verdict,
                    cache_hit=hit,
                    seconds=seconds if occurrence == 0 else 0.0,
                    reason=reason,
                )
                results[i] = self._materialize(formula, verdict, ints, bools, reason)
        return results  # type: ignore[return-value]


class StreamingSolver:
    """Overlaps path enumeration with SMT solving (the streaming half of
    the sink-directed enumeration engine).

    The PR 1 batch engine enumerated *all* paths, then solved the batch —
    a barrier that leaves the solver pool idle during enumeration and the
    enumerator idle during solving.  This class removes the barrier:
    :meth:`submit` assembles Φ_all for one query (formula assembly stays
    on the caller's thread — term interning is not thread-safe, so the
    checker routes all submissions through its coordinator thread) and
    immediately ships unique, uncached formulas to the worker pool, while
    the DFS keeps producing.

    Backpressure: at most ``max_inflight`` unique formulas are in flight;
    further submissions block, bounding memory no matter how fast the
    enumerator runs.  Duplicates (interning makes structural equality
    identity) and verdict-cache hits never occupy a slot.

    :meth:`finish` returns verdicts in submission order with statistics
    accounted exactly like the batch path: the first occurrence of a
    formula pays the solve time and the cache miss, later occurrences
    are in-batch reuse, pre-cached formulas are hits.  If the process
    pool cannot be created (or dies mid-run), affected formulas are
    re-solved in-process, so a stream always completes.
    """

    def __init__(
        self,
        checker: RealizabilityChecker,
        max_workers: int = 4,
        backend: str = "process",
        max_inflight: Optional[int] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        self.checker = checker
        self.max_workers = max(1, max_workers)
        self.backend = backend
        self.max_inflight = max_inflight or 4 * self.max_workers
        #: pool-death recovery: a failed formula is resubmitted to a fresh
        #: pool up to ``max_retries`` times (sleeping ``retry_backoff *
        #: 2**attempt`` between tries) before local in-process solving.
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff
        self._sem = threading.Semaphore(self.max_inflight)
        self._pool = None
        self._pool_failed = False
        #: per submission: (formula, disposition, cached-entry-or-None)
        self._entries: List[Tuple[BoolTerm, str, Optional[_CacheEntry]]] = []
        self._futures: Dict[BoolTerm, Future] = {}
        self._finished = False

    # ----- producing ---------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is not None or self._pool_failed:
            return self._pool
        if self.backend == "process":
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            except (OSError, RuntimeError, ImportError):
                self._pool = None  # sandboxed fork etc. — degrade to threads
        if self._pool is None:
            try:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            except (OSError, RuntimeError):
                self._pool_failed = True
        return self._pool

    def submit(self, query: PathQuery) -> int:
        """Assemble and enqueue one query; returns its submission ordinal."""
        if self._finished:
            raise RuntimeError("stream already finished")
        return self.submit_formula(self.checker.formula_for(query))

    def _payload(self, formula: BoolTerm):
        """One worker payload; tracing appends the submitting thread's
        span context so worker spans nest under the checker span."""
        checker = self.checker
        base = (
            formula,
            checker.solver_max_conflicts,
            checker.use_cube_and_conquer,
            checker.query_timeout(),
        )
        if checker.tracer.enabled:
            return base + (checker.tracer.current_context(),)
        return base

    def submit_formula(self, formula: BoolTerm) -> int:
        cache = self.checker.cache
        entry = cache.peek(formula) if cache is not None else None
        if entry is not None:
            self._entries.append((formula, "cached", entry))
            return len(self._entries) - 1
        if formula in self._futures:
            self._entries.append((formula, "dup", None))
            return len(self._entries) - 1
        pool = self._ensure_pool()
        future: Optional[Future] = None
        if pool is not None:
            payload = self._payload(formula)
            self._sem.acquire()  # backpressure: bounded in-flight window
            try:
                future = pool.submit(_solve_payload, payload)
            except (OSError, RuntimeError) as exc:
                self.checker._note_pool_failure("submit", exc)
                self._sem.release()
                future = None
            else:
                future.add_done_callback(lambda _f: self._sem.release())
        if future is not None:
            self._futures[formula] = future
            self._entries.append((formula, "first", None))
        else:
            # No pool at all: mark for in-process solving at finish time.
            self._futures.setdefault(formula, None)  # type: ignore[arg-type]
            self._entries.append((formula, "first", None))
        return len(self._entries) - 1

    # ----- draining ----------------------------------------------------------

    def _await_with_retry(self, formula: BoolTerm, future: Future):
        """Collect one pooled verdict, surviving pool death.

        A future that raises (``BrokenProcessPool``, a pickling error, a
        fault-injected worker crash) is *recorded* — never swallowed —
        via :meth:`RealizabilityChecker._note_pool_failure`, then the
        formula is resubmitted to a freshly spawned pool with exponential
        backoff.  After ``max_retries`` failed attempts the caller falls
        back to solving in-process (returns ``None``)."""
        checker = self.checker
        payload = self._payload(formula)
        for attempt in range(self.max_retries + 1):
            try:
                return checker._absorb(future.result())
            except Exception as exc:
                checker._note_pool_failure("stream", exc)
                if attempt >= self.max_retries:
                    return None
                time.sleep(self.retry_backoff * (2**attempt))
                # Discard the (likely broken) pool and respawn before the
                # resubmission.  No semaphore juggling: futures of a broken
                # pool still run their done-callbacks, releasing the slot.
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                    self._pool = None
                pool = self._ensure_pool()
                if pool is None:
                    return None
                try:
                    future = pool.submit(_solve_payload, payload)
                except (OSError, RuntimeError) as submit_exc:
                    checker._note_pool_failure("resubmit", submit_exc)
                    return None
                checker._count("pool_retries")
        return None

    def finish(self) -> List[RealizabilityResult]:
        """Wait for all verdicts; results are in submission order."""
        self._finished = True
        checker = self.checker
        cache = checker.cache
        results: List[RealizabilityResult] = []
        solved: Dict[BoolTerm, Tuple[str, Dict, Dict, float, str]] = {}
        occurrences: Dict[BoolTerm, int] = {}
        try:
            for formula, disposition, entry in self._entries:
                if disposition == "cached":
                    verdict, ints, bools, reason = entry  # type: ignore[misc]
                    checker._bump(verdict, cache_hit=True, seconds=0.0, reason=reason)
                    results.append(
                        checker._materialize(formula, verdict, ints, bools, reason)
                    )
                    continue
                data = solved.get(formula)
                if data is None:
                    future = self._futures[formula]
                    data = None
                    if future is not None:
                        data = self._await_with_retry(formula, future)
                    if data is None:
                        # Last line of defence: the pool never existed or
                        # retries were exhausted — solve on this thread so
                        # the stream still completes.
                        if future is not None:
                            checker._count("pool_local_solves")
                        tracer = checker.tracer
                        recorder = None
                        with tracer.span("solver.query", cached=False, local=True) as qspan:
                            if tracer.enabled:
                                recorder = tracer.recorder(qspan.context())
                            data = solve_formula(
                                formula,
                                max_conflicts=checker.solver_max_conflicts,
                                use_cube=checker.use_cube_and_conquer,
                                timeout=checker.query_timeout(),
                                recorder=recorder,
                            )
                            qspan.set("verdict", data[0])
                        if recorder is not None:
                            tracer.ingest(recorder.records)
                    solved[formula] = data
                    if cache is not None:
                        verdict, ints, bools, _seconds, reason = data
                        cache.store(formula, (verdict, ints, bools, reason))
                verdict, ints, bools, seconds, reason = data
                occ = occurrences.get(formula, 0)
                occurrences[formula] = occ + 1
                hit: Optional[bool] = occ > 0 if cache is not None else None
                checker._bump(
                    verdict,
                    cache_hit=hit,
                    seconds=seconds if occ == 0 else 0.0,
                    reason=reason,
                )
                results.append(
                    checker._materialize(formula, verdict, ints, bools, reason)
                )
        finally:
            self.close()
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    @property
    def pending(self) -> int:
        return len(self._entries)
