"""Realizability checking of value-flow paths (paper §5.2).

For a candidate source→sink path, assemble

    Φ_all(π) = Φ_guards(π) ∧ Φ_ls(π) ∧ Φ_po(π) ∧ Φ_extra

(Eq. 5 plus the checker-specific constraints such as ``O_free < O_use``)
and decide it with the SMT solver.  SAT means the path corresponds to a
feasible sequentially-consistent interleaving and the bug is reported,
together with a *witness order* extracted from the model.

Path queries are mutually independent (§5.2); the checkers exploit
that at the level of whole sources (``detect_workers``, see
:mod:`repro.checkers.base`), so this module decides one query at a time.
Verdicts are memoized in a :class:`VerdictCache` keyed on the
canonicalized Φ_all (interning makes structural equality identity, so
the formula object itself is the key), shared across all checkers of one
``Canary`` run.  Per-query budgets (``solver_timeout`` seconds,
optionally clipped by the run's :class:`~repro.analysis.budget.Budget`)
make a stalled query return ``UNKNOWN`` with the reason recorded.  A
dead detection worker is counted in ``pool_failures`` with the
triggering exception, and :meth:`RealizabilityChecker.degradation_summary`
turns the counters into the report's degradation warnings.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.instructions import Instruction
from ..obs.metrics import Counter, MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..smt.solver import SAT, UNKNOWN, UNSAT, Solver, solve_formula
from ..smt.terms import TRUE, BoolTerm, and_
from ..vfg.builder import VFGBundle
from .partial_order import OrderConstraintBuilder
from .search import ValueFlowPath

__all__ = [
    "PathQuery",
    "RealizabilityChecker",
    "RealizabilityResult",
    "VerdictCache",
]


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
    Entries store only plain data, materialized into fresh
    :class:`RealizabilityResult`\\ s.  Thread-safe (the daemon shares
    one cache across concurrent requests); hit/miss counters are exact.
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
        cache: Optional[VerdictCache] = None,
        solver_timeout: Optional[float] = None,
        budget=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
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
        self.cache = cache
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
        self._counter("pool_failures")

    def _counter(self, key: str) -> Counter:
        """The ``solver.<key>`` counter (get-or-create, memoized)."""
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
        """Merge one query's counters."""
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
        self._counter("pool_failures").add(1)
        self._last_pool_error = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        if context:
            self._last_pool_error += f" [{context}]"

    def _count(self, key: str, delta: int = 1) -> None:
        self._counter(key).add(delta)

    def degradation_summary(self) -> List[str]:
        """Human-readable degradation warnings for the analysis report:
        detection pool deaths and budget-starved queries.  Empty when
        nothing degraded."""
        out: List[str] = []
        s = self.statistics
        if s["pool_failures"]:
            detail = f" ({self._last_pool_error})" if self._last_pool_error else ""
            out.append(
                f"detection pool: {s['pool_failures']} worker failure(s){detail};"
                " its sources were re-run in-process"
            )
        if s.get("unknown_deadline"):
            out.append(
                f"solver: {s['unknown_deadline']} query(ies) hit the per-query"
                " deadline (verdict unknown, candidate not reported)"
            )
        return out

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

    def check_formula(self, formula: BoolTerm) -> RealizabilityResult:
        """Decide one assembled Φ_all, consulting the verdict cache."""
        tracer = self.tracer
        if self.cache is not None:
            entry = self.cache.peek(formula)
            if entry is not None:
                verdict, ints, bools, reason = entry
                with tracer.span("solver.query", cached=True) as span:
                    span.set("verdict", verdict)
                self._bump(verdict, cache_hit=True, seconds=0.0, reason=reason)
                return self._materialize(formula, verdict, ints, bools, reason)
        recorder = None
        with tracer.span("solver.query", cached=False) as span:
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
