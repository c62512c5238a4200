"""Lightweight semi-decision procedures (paper §5.2, first optimization).

Canary filters guard conjunctions with cheap syntactic checks *before*
invoking the full SMT solver, "to filter out conditions having any
apparent contradictions" — this keeps the expensive solver off the
obviously-infeasible edges during VFG construction.  The procedures here
are sound but incomplete: :func:`quick_unsat` returning ``True`` means
definitely unsatisfiable; ``False`` means "don't know".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .terms import And, BoolTerm, FALSE, Le, Lt, Eq, Not, TRUE, conjuncts
from .theory import (
    DifferenceBound,
    IncrementalBoundStore,
    ZERO_NAME,
    negate_bound,
    normalize_atom,
)

__all__ = ["GuardPrefix", "quick_unsat", "simplify_conjunction"]


def _literal_bounds(lit: BoolTerm) -> Optional[Sequence[DifferenceBound]]:
    """Difference bounds entailed by one literal, or None if non-arithmetic."""
    negated = isinstance(lit, Not)
    atom = lit.arg if negated else lit
    if not isinstance(atom, (Le, Lt, Eq)):
        return None
    try:
        bounds = normalize_atom(atom)
    except ValueError:
        return None
    if bounds is None:
        return None
    if not negated:
        return bounds
    if isinstance(atom, Eq):
        return None  # not(a == b) is a disjunction: out of scope for the quick check
    return (negate_bound(bounds[0]),)


def quick_unsat(term: BoolTerm) -> bool:
    """Cheap sufficient test for unsatisfiability of a guard.

    Detects (1) complementary boolean literals in the top-level
    conjunction (the ``theta and not theta`` pattern of the paper's
    Fig. 2) and (2) negative cycles among the conjunction's difference
    bounds (contradictory order constraints, paper Ex. 5.1).
    """
    if term is FALSE:
        return True
    if term is TRUE:
        return False
    lits = list(conjuncts(term))
    lit_set = set(lits)
    arith: List[DifferenceBound] = []
    for lit in lits:
        if isinstance(lit, Not) and lit.arg in lit_set:
            return True
        bounds = _literal_bounds(lit)
        if bounds is not None:
            arith.extend(bounds)
    if arith:
        return _has_negative_cycle(arith)
    return False


def _has_negative_cycle(bounds: List[DifferenceBound]) -> bool:
    nodes = {ZERO_NAME}
    for b in bounds:
        nodes.add(b.x)
        nodes.add(b.y)
    dist: Dict[str, int] = {v: 0 for v in nodes}
    edges: List[Tuple[str, str, int]] = [(b.y, b.x, b.c) for b in bounds]
    for _ in range(len(nodes)):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return False
    return True


class GuardPrefix:
    """Incremental :func:`quick_unsat` over a growing guard conjunction.

    The path searcher folds one edge guard at a time into this store as
    the DFS descends, and pops it on backtrack.  :meth:`push` returns
    whether the running prefix is now *definitely* unsatisfiable — in
    which case the whole subtree below the edge can be cut, because
    every completed path's Φ_all conjoins a superset of the prefix.

    Soundness mirrors :func:`quick_unsat`: the boolean check finds
    complementary literals among the accumulated top-level conjuncts,
    the arithmetic check finds negative cycles among their difference
    bounds — both sufficient conditions, both checked incrementally
    (set membership / :class:`IncrementalBoundStore` relaxation) instead
    of re-scanning the whole conjunction per candidate path.

    The prefix never *constructs* terms (complements are detected via an
    atom set, not by building ``Not`` nodes), so it is safe to run on
    enumeration worker threads while formula assembly stays on the
    coordinator thread.
    """

    def __init__(self) -> None:
        self._store = IncrementalBoundStore()
        self._lits: Set[BoolTerm] = set()
        self._neg_args: Set[BoolTerm] = set()  # atoms appearing under Not
        self._order: List[BoolTerm] = []  # unique literals, push order
        self._frames: List[int] = []  # per-push: count of literals added
        self._unsat_depth: Optional[int] = None
        #: memoized fingerprint() tuple; None = stale.  The dead-state
        #: memo asks for the fingerprint at every DFS node, while pushes
        #: that add literals are comparatively rare (guards repeat along
        #: sibling paths), so caching turns the common case into O(1).
        self._fp: Optional[Tuple[BoolTerm, ...]] = None

    @property
    def unsat(self) -> bool:
        return self._unsat_depth is not None

    def __len__(self) -> int:
        return len(self._order)

    def push(self, guard: BoolTerm) -> bool:
        """Fold one guard into the prefix; True = prefix now unsat."""
        self._frames.append(0)
        self._store.push()
        if self.unsat:
            return True
        if guard is TRUE:
            return False
        for lit in conjuncts(guard):
            if lit is TRUE:
                continue
            if lit is FALSE:
                self._mark_unsat()
                return True
            if lit in self._lits:
                continue
            if isinstance(lit, Not):
                if lit.arg in self._lits:
                    self._mark_unsat()
                    return True
            elif lit in self._neg_args:
                self._mark_unsat()
                return True
            self._lits.add(lit)
            if isinstance(lit, Not):
                self._neg_args.add(lit.arg)
            self._order.append(lit)
            self._fp = None
            self._frames[-1] += 1
            bounds = _literal_bounds(lit)
            if bounds is not None:
                for bound in bounds:
                    if self._store.assert_bound(bound):
                        self._mark_unsat()
                        return True
        return False

    def _mark_unsat(self) -> None:
        self._unsat_depth = len(self._frames) - 1

    def pop(self) -> None:
        added = self._frames.pop()
        if added:
            self._fp = None
        for _ in range(added):
            lit = self._order.pop()
            self._lits.discard(lit)
            if isinstance(lit, Not):
                self._neg_args.discard(lit.arg)
        self._store.pop()
        if self._unsat_depth is not None and self._unsat_depth >= len(self._frames):
            self._unsat_depth = None

    def fingerprint(self) -> Tuple[BoolTerm, ...]:
        """The accumulated literal set as a hashable key.

        Terms are interned, so the tuple is cheap to hash; it is
        insertion-ordered, which under-approximates set equality (two
        orderings of the same set get distinct keys) — fine for the
        dead-state memo, which only loses a hit, never soundness.
        """
        if self._fp is None:
            self._fp = tuple(self._order)
        return self._fp


def simplify_conjunction(term: BoolTerm) -> BoolTerm:
    """Normalize a guard conjunction; returns FALSE if quickly refutable.

    The smart constructors in :mod:`repro.smt.terms` already flatten,
    deduplicate, and cancel complementary literals, so this adds only the
    arithmetic quick check on top.
    """
    if quick_unsat(term):
        return FALSE
    return term
