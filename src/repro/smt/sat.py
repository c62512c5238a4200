"""CDCL SAT solver.

A self-contained conflict-driven clause-learning solver with the standard
modern ingredients: two-watched-literal propagation, first-UIP conflict
analysis, VSIDS-style variable activity, phase saving, Luby restarts, and
activity-driven learnt-clause garbage collection.  It is the
propositional engine underneath the lazy DPLL(T) loop in
:mod:`repro.smt.solver`.

Clauses may be added between :meth:`SatSolver.solve` calls (the DPLL(T)
loop adds theory blocking clauses this way); the solver always returns to
decision level zero before yielding control, on *every* exit path —
including the conflict-budget and deadline UNKNOWN exits — so an
instance can always be re-solved after more clauses arrive.  Root
assignments are permanent, so ``add_clause`` drops root-falsified
literals and skips root-satisfied clauses outright.

Learnt clauses carry activities; when the learnt database outgrows its
budget, :meth:`SatSolver._reduce_db` drops the cold half (never binary
clauses or clauses locked as propagation reasons).

Literals follow the DIMACS convention: variable ``v`` is the positive
integer ``v`` and its negation is ``-v``.

Search is resource-bounded two ways: a **conflict budget**
(``max_conflicts``) and a **wall-clock deadline** (``deadline``, a
``time.monotonic`` instant polled cheaply during search).  Exhausting
either returns :data:`UNKNOWN` — never conflated with :data:`UNSAT` —
with the cause recorded in :attr:`SatSolver.unknown_reason`
(``'conflicts'`` or ``'deadline'``).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["SatSolver", "SAT", "UNSAT", "UNKNOWN"]

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    Uses the finite-state reformulation of Een & Sorensson: find the
    subsequence block containing position ``i`` and reduce into it until
    the position sits at a block boundary ``2^k - 1``.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _Clause:
    __slots__ = ("lits", "learnt", "activity", "removed")

    def __init__(self, lits: List[int], learnt: bool = False) -> None:
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.removed = False


class SatSolver:
    """CDCL solver over clauses added with :meth:`add_clause`."""

    def __init__(self) -> None:
        self._num_vars = 0
        # watch lists indexed by literal: +v -> 2*(v-1), -v -> 2*(v-1)+1
        self._watches: List[List[_Clause]] = []
        self._assign: List[int] = []  # var-1 -> 0 unassigned, +1 true, -1 false
        self._level: List[int] = []
        self._reason: List[Optional[_Clause]] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._prop_head = 0
        self._activity: List[float] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        # indexed max-heap over variable activity (MiniSat's order_heap):
        # _heap holds var numbers, _heap_pos maps var-1 -> heap index (-1 =
        # not enqueued).  Decisions pop the root in O(log n) instead of
        # scanning every variable.  The heap is rebuilt at every solve();
        # between calls variable activity is the source of truth.
        self._heap: List[int] = []
        self._heap_pos: List[int] = []
        self._phase: List[bool] = []
        self._seen: List[bool] = []  # reusable conflict-analysis buffer
        self._seen_clear: List[int] = []
        #: False once the clause set is known UNSAT (root facts never retract)
        self._ok = True
        self._learnts: List[_Clause] = []
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._max_learnts = 0  # 0 = derive from clause count on first solve
        self._num_clauses = 0  # attached problem (non-learnt) clauses
        self.model: Dict[int, bool] = {}
        self.conflicts = 0
        self.propagations = 0
        self.restarts = 0
        self.learned = 0
        self.db_reductions = 0
        #: why the last solve() returned UNKNOWN ('conflicts'|'deadline')
        self.unknown_reason: Optional[str] = None

    # ----- variable / clause management -------------------------------

    def ensure_var(self, v: int) -> None:
        grow = v - self._num_vars
        if grow <= 0:
            return
        self._num_vars = v
        self._assign.extend([0] * grow)
        self._level.extend([-1] * grow)
        self._reason.extend([None] * grow)
        self._activity.extend([0.0] * grow)
        self._phase.extend([False] * grow)
        self._seen.extend([False] * grow)
        self._watches.extend([[] for _ in range(2 * grow)])
        self._heap_pos.extend([-1] * grow)

    # ----- activity heap ----------------------------------------------

    def _heap_sift_up(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        v = heap[i]
        a = act[v - 1]
        while i > 0:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv - 1] >= a:
                break
            heap[i] = pv
            pos[pv - 1] = i
            i = parent
        heap[i] = v
        pos[v - 1] = i

    def _heap_sift_down(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        n = len(heap)
        v = heap[i]
        a = act[v - 1]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and act[heap[right] - 1] > act[heap[child] - 1]:
                child = right
            cv = heap[child]
            if a >= act[cv - 1]:
                break
            heap[i] = cv
            pos[cv - 1] = i
            i = child
        heap[i] = v
        pos[v - 1] = i

    def _heap_insert(self, v: int) -> None:
        if self._heap_pos[v - 1] >= 0:
            return
        self._heap_pos[v - 1] = len(self._heap)
        self._heap.append(v)
        self._heap_sift_up(len(self._heap) - 1)

    def _rebuild_heap(self) -> None:
        """Reset the decision heap to every unassigned variable."""
        heap, pos, assign = self._heap, self._heap_pos, self._assign
        for v in heap:
            pos[v - 1] = -1
        heap[:] = [v for v in range(1, self._num_vars + 1) if assign[v - 1] == 0]
        # descending activity order is a valid max-heap
        act = self._activity
        heap.sort(key=lambda v: -act[v - 1])
        for i, v in enumerate(heap):
            pos[v - 1] = i

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the instance is now (or already)
        UNSAT.

        Must be called at decision level zero (which holds whenever the
        solver is not inside :meth:`solve`).  Root assignments never
        retract, so literals they falsify are dropped and a clause one of
        them satisfies is skipped.
        """
        assert not self._trail_lim, "clauses must be added at level 0"
        if not self._ok:
            return False
        assign = self._assign
        out: List[int] = []
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var > self._num_vars:
                self.ensure_var(var)
            val = assign[var - 1]
            if val:
                if (val > 0) == (lit > 0):
                    return True  # satisfied at root
                continue  # falsified at root: drop literal
            out.append(lit)
        if len(out) > 1:
            unique = set(out)
            if len(unique) < len(out):
                out = list(dict.fromkeys(out))
            for lit in out:
                if -lit in unique:
                    return True  # tautology
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None) or self._propagate() is not None:
                self._ok = False
                return False
            return True
        self._attach(_Clause(out))
        self._num_clauses += 1
        return True

    def _attach(self, clause: _Clause) -> None:
        lits = clause.lits
        lit = lits[0]
        self._watches[(abs(lit) - 1) * 2 + (lit > 0)].append(clause)
        lit = lits[1]
        self._watches[(abs(lit) - 1) * 2 + (lit > 0)].append(clause)

    # ----- assignment primitives --------------------------------------

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        idx = (lit if lit > 0 else -lit) - 1
        val = self._assign[idx]
        if val:
            return (val > 0) == (lit > 0)
        self._assign[idx] = 1 if lit > 0 else -1
        self._level[idx] = len(self._trail_lim)
        self._reason[idx] = reason
        self._phase[idx] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None."""
        watches = self._watches
        trail = self._trail
        assign = self._assign
        while self._prop_head < len(trail):
            lit = trail[self._prop_head]
            self._prop_head += 1
            self.propagations += 1
            # watchers of -lit live at the index of literal -lit
            watchers = watches[(abs(lit) - 1) * 2 + (lit < 0)]
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                if clause.removed:
                    watchers[i] = watchers[-1]
                    watchers.pop()
                    continue
                lits = clause.lits
                if lits[0] == -lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                val = assign[abs(first) - 1]
                if val and (val > 0) == (first > 0):
                    i += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    other = lits[k]
                    val = assign[abs(other) - 1]
                    if not val or (val > 0) == (other > 0):
                        lits[1], lits[k] = other, lits[1]
                        watches[(abs(other) - 1) * 2 + (other > 0)].append(clause)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        moved = True
                        break
                if moved:
                    continue
                if not self._enqueue(first, clause):
                    self._prop_head = len(trail)
                    return clause
                i += 1
        return None

    # ----- conflict analysis -------------------------------------------

    def _bump_var(self, v: int) -> None:
        act = self._activity
        act[v - 1] += self._var_inc
        if act[v - 1] > 1e100:
            # in-place rescale; relative order is unchanged so the heap
            # needs no rebuild
            for i in range(len(act)):
                act[i] *= 1e-100
            self._var_inc *= 1e-100
        if self._heap_pos[v - 1] >= 0:
            self._heap_sift_up(self._heap_pos[v - 1])

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learnts:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        """First-UIP conflict analysis: (learnt clause, backtrack level)."""
        level = self._decision_level()
        seen = self._seen
        to_clear = self._seen_clear
        learnt: List[int] = []
        counter = 0
        p: Optional[int] = None
        reason_lits = conflict.lits
        self._bump_clause(conflict)
        idx = len(self._trail) - 1
        while True:
            for q in reason_lits:
                if p is not None and q == p:
                    continue
                vq = abs(q) - 1
                if not seen[vq] and self._level[vq] > 0:
                    seen[vq] = True
                    to_clear.append(vq)
                    self._bump_var(abs(q))
                    if self._level[vq] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self._trail[idx]) - 1]:
                idx -= 1
            p = self._trail[idx]
            idx -= 1
            seen[abs(p) - 1] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(p) - 1]
            if reason.learnt:
                self._bump_clause(reason)
            reason_lits = reason.lits
        for v in to_clear:
            seen[v] = False
        del to_clear[:]
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        max_i = max(range(1, len(learnt)), key=lambda i: self._level[abs(learnt[i]) - 1])
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self._level[abs(learnt[1]) - 1]

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            idx = abs(lit) - 1
            self._assign[idx] = 0
            self._reason[idx] = None
            self._heap_insert(idx + 1)
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._prop_head = min(self._prop_head, len(self._trail))

    # ----- learnt-clause database --------------------------------------

    def _reduce_db(self) -> int:
        """Drop the cold half of the learnt database (activity order),
        sparing binary clauses and clauses locked as propagation reasons.
        Removal is lazy: watch lists evict flagged clauses on traversal."""
        self.db_reductions += 1
        locked = set()
        for lit in self._trail:
            reason = self._reason[abs(lit) - 1]
            if reason is not None:
                locked.add(id(reason))
        learnts = sorted(self._learnts, key=lambda c: c.activity)
        limit = len(learnts) // 2
        kept: List[_Clause] = []
        removed = 0
        for i, clause in enumerate(learnts):
            if i < limit and len(clause.lits) > 2 and id(clause) not in locked:
                clause.removed = True
                removed += 1
            else:
                kept.append(clause)
        self._learnts = kept
        return removed

    # ----- search -------------------------------------------------------

    # ----- learnt-clause database --------------------------------------

    def _reduce_db(self) -> int:
        """Drop the cold half of the learnt database (activity order),
        sparing binary clauses and clauses locked as propagation reasons.
        Removal is lazy: watch lists evict flagged clauses on traversal."""
        self.db_reductions += 1
        locked = set()
        for lit in self._trail:
            reason = self._reason[abs(lit) - 1]
            if reason is not None:
                locked.add(id(reason))
        learnts = sorted(self._learnts, key=lambda c: c.activity)
        limit = len(learnts) // 2
        kept: List[_Clause] = []
        removed = 0
        for i, clause in enumerate(learnts):
            if i < limit and len(clause.lits) > 2 and id(clause) not in locked:
                clause.removed = True
                removed += 1
            else:
                kept.append(clause)
        self._learnts = kept
        return removed

    # ----- search -------------------------------------------------------

    def _pick_branch_var(self) -> int:
        # Pop the most active unassigned variable.  Assigned variables
        # linger in the heap (removal is lazy) and are skipped here; every
        # unassigned variable is guaranteed to be present because
        # unassignment re-inserts it.
        heap, pos, assign = self._heap, self._heap_pos, self._assign
        while heap:
            v = heap[0]
            pos[v - 1] = -1
            last = heap.pop()
            if heap:
                heap[0] = last
                pos[last - 1] = 0
                self._heap_sift_down(0)
            if assign[v - 1] == 0:
                return v
        return 0

    def solve(
        self,
        max_conflicts: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> str:
        """Run CDCL search to completion, the conflict budget, or the
        ``deadline`` (a ``time.monotonic`` instant), whichever is first.
        All exit paths return at decision level zero."""
        self.unknown_reason = None
        if not self._ok:
            return UNSAT
        if deadline is not None and time.monotonic() >= deadline:
            self.unknown_reason = "deadline"
            return UNKNOWN
        self._rebuild_heap()
        if self._max_learnts == 0:
            self._max_learnts = max(256, 2 * self._num_clauses)
        conflicts_here = 0
        restart_idx = 1
        restart_budget = 32 * _luby(restart_idx)
        # Poll the clock every few decisions (a syscall per decision would
        # dominate on small instances); conflicts poll unconditionally.
        ticks = 0
        while True:
            if deadline is not None:
                ticks += 1
                if ticks >= 16:
                    ticks = 0
                    if time.monotonic() >= deadline:
                        self._backtrack(0)
                        self.unknown_reason = "deadline"
                        return UNKNOWN
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return UNSAT
                learnt, bt = self._analyze(conflict)
                self._backtrack(bt)
                self.learned += 1
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._ok = False
                        self._backtrack(0)
                        return UNSAT
                else:
                    clause = _Clause(learnt, learnt=True)
                    self._attach(clause)
                    self._learnts.append(clause)
                    self._enqueue(learnt[0], clause)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                if max_conflicts is not None and conflicts_here >= max_conflicts:
                    self._backtrack(0)
                    self.unknown_reason = "conflicts"
                    return UNKNOWN
                if deadline is not None and time.monotonic() >= deadline:
                    self._backtrack(0)
                    self.unknown_reason = "deadline"
                    return UNKNOWN
                if conflicts_here >= restart_budget:
                    restart_idx += 1
                    restart_budget = conflicts_here + 32 * _luby(restart_idx)
                    self.restarts += 1
                    self._backtrack(0)
                if len(self._learnts) > self._max_learnts:
                    # Reasons are locked, so reduction is safe mid-search.
                    self._reduce_db()
                    self._max_learnts += self._max_learnts // 2
                continue
            var = self._pick_branch_var()
            if var == 0:
                self.model = {
                    v: value == 1 for v, value in enumerate(self._assign, 1)
                }
                self._backtrack(0)
                return SAT
            self._trail_lim.append(len(self._trail))
            self._enqueue(var if self._phase[var - 1] else -var, None)
