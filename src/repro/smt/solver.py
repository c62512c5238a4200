"""Lazy DPLL(T) solver: CDCL SAT core + difference-logic theory.

This is the "dedicated SMT solver" of the paper's workflow (Fig. 1): the
aggregated guards and partial-order constraints of a value-flow path are
asserted here and :meth:`Solver.check` decides realizability.

Architecture (classic lazy SMT):

1. assertions are lightly simplified (:mod:`repro.smt.simplify`) and
   Tseitin-encoded to CNF (:mod:`repro.smt.cnf`);
2. the CDCL core (:mod:`repro.smt.sat`) enumerates propositional models;
3. the difference-logic solver (:mod:`repro.smt.theory`) checks the
   arithmetic literals of each model; an inconsistency yields a negative
   cycle whose literals form a blocking clause, and the loop repeats.

Unsatisfiable cores from the theory are exactly the bounds on one
negative cycle, so blocking clauses are short and convergence is fast on
Canary's order constraints.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .cnf import CnfEncoder
from .sat import SAT, UNKNOWN, UNSAT, SatSolver
from .simplify import quick_unsat
from .terms import (
    And,
    BoolConst,
    BoolTerm,
    BoolVar,
    Eq,
    FALSE,
    IntVar,
    Le,
    Lt,
    Not,
    Or,
    TRUE,
    and_,
    le,
    or_,
)
from .theory import DifferenceLogicSolver, ZERO_NAME, negate_bound, normalize_atom

__all__ = [
    "Solver",
    "Model",
    "Result",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "is_satisfiable",
    "solve_formula",
]

Result = str

_eq_cache: Dict[BoolTerm, BoolTerm] = {}


def _eliminate_eq(term: BoolTerm) -> BoolTerm:
    """Rewrite every ``Eq(a, b)`` atom as ``Le(a, b) and Le(b, a)``.

    After this pass every arithmetic atom is a single difference bound
    whose negation is again a single difference bound, so the lazy theory
    loop never needs to case-split on disequalities.
    """
    cached = _eq_cache.get(term)
    if cached is not None:
        return cached
    out = term
    if isinstance(term, Eq):
        out = and_(le(term.lhs, term.rhs), le(term.rhs, term.lhs))
    elif isinstance(term, Not):
        arg = _eliminate_eq(term.arg)
        if arg is not term.arg:
            out = ~arg
    elif isinstance(term, (And, Or)):
        args = [_eliminate_eq(a) for a in term.args]
        # Rebuild only when an Eq was rewritten below: the term was built
        # by and_/or_, so rebuilding it unchanged would give it back.
        if any(new is not old for new, old in zip(args, term.args)):
            out = (and_ if isinstance(term, And) else or_)(*args)
    _eq_cache[term] = out
    return out


class Model:
    """A satisfying assignment for booleans and integer variables."""

    def __init__(self, bools: Dict[BoolTerm, bool], ints: Dict[str, int]) -> None:
        self._bools = bools
        self._ints = ints

    def bool_value(self, atom: BoolTerm) -> Optional[bool]:
        return self._bools.get(atom)

    def int_value(self, var) -> Optional[int]:
        name = var.name if isinstance(var, IntVar) else str(var)
        return self._ints.get(name)

    def eval(self, term) -> Optional[object]:
        """Evaluate a term under the model (None if underdetermined)."""
        if isinstance(term, BoolConst):
            return term.value
        if isinstance(term, BoolVar):
            return self._bools.get(term)
        if isinstance(term, Not):
            v = self.eval(term.arg)
            return None if v is None else not v
        if isinstance(term, And):
            vals = [self.eval(a) for a in term.args]
            if any(v is False for v in vals):
                return False
            if all(v is True for v in vals):
                return True
            return None
        if isinstance(term, Or):
            vals = [self.eval(a) for a in term.args]
            if any(v is True for v in vals):
                return True
            if all(v is False for v in vals):
                return False
            return None
        if isinstance(term, (Le, Lt, Eq)):
            direct = self._bools.get(term)
            if direct is not None:
                return direct
            lhs = self._eval_int(term.lhs)
            rhs = self._eval_int(term.rhs)
            if lhs is None or rhs is None:
                return None
            if isinstance(term, Le):
                return lhs <= rhs
            if isinstance(term, Lt):
                return lhs < rhs
            return lhs == rhs
        if isinstance(term, IntVar):
            return self._ints.get(term.name)
        return None

    def _eval_int(self, term) -> Optional[int]:
        from .terms import Add, IntConst, Sub

        if isinstance(term, IntConst):
            return term.value
        if isinstance(term, IntVar):
            return self._ints.get(term.name, 0)
        if isinstance(term, Add):
            a, b = self._eval_int(term.lhs), self._eval_int(term.rhs)
            return None if a is None or b is None else a + b
        if isinstance(term, Sub):
            a, b = self._eval_int(term.lhs), self._eval_int(term.rhs)
            return None if a is None or b is None else a - b
        return None

    def order(self) -> Dict[str, int]:
        """The integer assignment — for Canary, a witness interleaving."""
        return dict(self._ints)

    def bool_assignments(self) -> Dict[BoolTerm, bool]:
        """All boolean atom assignments (atoms as terms)."""
        return dict(self._bools)


class Solver:
    """One-shot SMT solver instance (create, ``add`` assertions, ``check``).

    ``max_conflicts`` bounds the CDCL core per :meth:`check`;
    ``timeout`` (seconds) sets a wall deadline spanning the whole lazy
    loop (SAT search *and* theory rounds).  Exhausting either yields
    :data:`UNKNOWN` — distinct from both verdicts — with the cause in
    :attr:`unknown_reason` (``'conflicts'``, ``'deadline'``, or
    ``'theory-rounds'``).
    """

    def __init__(
        self,
        max_theory_rounds: int = 10_000,
        max_conflicts: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self._assertions: List[BoolTerm] = []
        self._max_theory_rounds = max_theory_rounds
        self._max_conflicts = max_conflicts
        self._timeout = timeout
        self._model: Optional[Model] = None
        #: why the last check() returned UNKNOWN (None otherwise)
        self.unknown_reason: Optional[str] = None
        self.statistics: Dict[str, int] = {"theory_rounds": 0, "sat_conflicts": 0, "quick_refuted": 0}

    def add(self, *terms: BoolTerm) -> None:
        for t in terms:
            self._assertions.append(t)

    # Assertion-stack interface (check() is stateless over the assertion
    # list, so push/pop are exact).
    def push(self) -> None:
        self._scopes = getattr(self, "_scopes", [])
        self._scopes.append(len(self._assertions))

    def pop(self) -> None:
        scopes = getattr(self, "_scopes", [])
        if not scopes:
            raise IndexError("pop without matching push")
        del self._assertions[scopes.pop() :]

    def assertions(self) -> List[BoolTerm]:
        return list(self._assertions)

    def check(self) -> Result:
        self._model = None
        self.unknown_reason = None
        deadline = (
            time.monotonic() + self._timeout if self._timeout is not None else None
        )
        formula = and_(*self._assertions) if self._assertions else TRUE
        if formula is TRUE:
            self._model = Model({}, {})
            return SAT
        if formula is FALSE or quick_unsat(formula):
            self.statistics["quick_refuted"] += 1
            return UNSAT
        formula = _eliminate_eq(formula)
        if formula is FALSE:
            return UNSAT
        if formula is TRUE:
            self._model = Model({}, {})
            return SAT
        encoder = CnfEncoder()
        encoder.add_assertion(formula)
        sat = SatSolver()
        sat.ensure_var(encoder.num_vars)
        for clause in encoder.clauses:
            if not sat.add_clause(clause):
                return UNSAT
        # (SAT var, its bounds) per theory atom, in variable order; atoms
        # outside the fragment stay free booleans.
        theory_vars: List[Tuple[int, Tuple]] = []
        for var, atom in encoder.theory_atoms().items():
            try:
                bounds = normalize_atom(atom)
            except ValueError:
                continue
            if bounds is not None:
                theory_vars.append((var, bounds))
        for _ in range(self._max_theory_rounds):
            if deadline is not None and time.monotonic() >= deadline:
                self.unknown_reason = "deadline"
                return UNKNOWN
            self.statistics["theory_rounds"] += 1
            result = sat.solve(max_conflicts=self._max_conflicts, deadline=deadline)
            self.statistics["sat_conflicts"] = sat.conflicts
            if result is UNSAT:
                return UNSAT
            if result is UNKNOWN:
                self.unknown_reason = sat.unknown_reason or "conflicts"
                return UNKNOWN
            model = sat.model
            theory = DifferenceLogicSolver()
            for var, bounds in theory_vars:
                value = model.get(var)
                if value is None:
                    continue
                if value:
                    for b in bounds:
                        theory.assert_bound(b, var)
                else:
                    theory.assert_bound(negate_bound(bounds[0]), -var)
            core = theory.check()
            if core is None:
                self._model = self._build_model(encoder, model, theory)
                return SAT
            if not sat.add_clause(sorted({-lit for lit in core})):
                return UNSAT
        self.unknown_reason = "theory-rounds"
        return UNKNOWN

    def _build_model(self, encoder: CnfEncoder, sat_model: Dict[int, bool], theory: DifferenceLogicSolver) -> Model:
        bools: Dict[BoolTerm, bool] = {}
        for var, atom in encoder.atom_of_var.items():
            if var in sat_model:
                bools[atom] = sat_model[var]
        ints = theory.model()
        ints.pop(ZERO_NAME, None)
        return Model(bools, ints)

    def model(self) -> Optional[Model]:
        return self._model


def is_satisfiable(*terms: BoolTerm) -> bool:
    """Convenience one-shot satisfiability query."""
    solver = Solver()
    solver.add(*terms)
    return solver.check() is SAT


def solve_formula(
    formula: BoolTerm,
    max_conflicts: Optional[int] = None,
    use_cube: bool = False,
    timeout: Optional[float] = None,
    recorder=None,
) -> Tuple[Result, Dict[str, int], Dict[str, bool], float, str]:
    """Decide one formula and return only plain picklable data.

    Every path query goes through here: ``(verdict, int_assignment,
    bool_atom_assignment, solve_seconds, unknown_reason)``.  The result
    deliberately contains no ``Model`` or term objects, so it can be
    cached and carried across processes as plain data.  ``timeout`` is
    the per-query wall budget in seconds (relative, so it is meaningful
    in any process); an exhausted budget yields ``UNKNOWN`` with
    ``unknown_reason`` set (``''`` on decided verdicts).

    ``recorder`` is an optional :class:`~repro.obs.tracer.SpanRecorder`;
    when given, the solve is wrapped in a ``solver.solve`` span carrying
    the verdict and the solver's own counters (theory rounds, SAT
    conflicts).

    Every query gets a fresh :class:`Solver` (or cube-and-conquer split),
    so the answer is a pure function of the arguments: nothing a query
    leaves behind can change a later query's verdict or model.
    """
    from ..testing.faults import fault_point

    span = recorder.span("solver.solve", cube=use_cube) if recorder is not None else None
    t0 = time.perf_counter()
    t0_mono = time.monotonic()
    fault_point("solver:solve")
    if timeout is not None:
        # The budget is anchored at query entry: time lost before the
        # solver proper starts (e.g. an injected stall) counts against it.
        timeout = max(0.0, timeout - (time.monotonic() - t0_mono))
    reason = ""
    if use_cube:
        from .portfolio import cube_solve_model

        verdict, model, reason = cube_solve_model(
            formula, max_conflicts=max_conflicts, timeout=timeout, recorder=recorder
        )
    else:
        solver = Solver(max_conflicts=max_conflicts, timeout=timeout)
        solver.add(formula)
        verdict = solver.check()
        model = solver.model()
        reason = solver.unknown_reason or ""
        if span is not None:
            for key, value in solver.statistics.items():
                span.set(key, value)
    ints: Dict[str, int] = {}
    bools: Dict[str, bool] = {}
    if verdict is SAT and model is not None:
        ints = model.order()
        for atom, truth in model.bool_assignments().items():
            if isinstance(atom, BoolVar):
                bools[atom.name] = truth
    if verdict is not UNKNOWN:
        reason = ""
    if span is not None:
        span.set("verdict", verdict)
        if reason:
            span.set("unknown_reason", reason)
        span.__exit__(None, None, None)
    return verdict, ints, bools, time.perf_counter() - t0, reason
