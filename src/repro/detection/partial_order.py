"""Execution-order constraint generation (paper §4.2.2 and §5.1).

Every statement ℓ gets a strict-order variable ``O_ℓ`` (an SMT integer).
Two families of constraints are built here:

* ``Φ_po`` (Eq. 4) — program order: intra-thread control-flow order and
  inter-thread fork/join order, encoded for every pair of statements that
  the structural happens-before analysis can order;
* ``Φ_ls`` (Eq. 2) — load-store order for an indirect value-flow edge:
  the store happens before the load, and no other interfering store to
  the same object lands in between.

As the paper notes, order constraints between statements whose order is
statically known are folded via happens-before instead of being left to
the solver.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..ir.instructions import Instruction, StoreInst
from ..ir.values import MemObject
from ..smt.terms import TRUE, BoolTerm, IntTerm, and_, implies, int_var, lt, or_
from ..threads.mhp import MhpAnalysis
from ..vfg.builder import VFGBundle
from ..vfg.graph import VFGEdge

__all__ = ["order_var", "OrderConstraintBuilder"]


def order_var(inst: Instruction) -> IntTerm:
    """The strict-order variable ``O_ℓ`` of a statement."""
    return int_var(f"O{inst.label}")


class OrderConstraintBuilder:
    """Builds Φ_po and Φ_ls for a value-flow path.

    With a :class:`~repro.threads.locks.LockAnalysis` attached, also adds
    mutual-exclusion constraints between critical sections of the same
    mutex (the future-work lock/unlock extension).
    """

    def __init__(
        self,
        bundle: VFGBundle,
        lock_analysis=None,
        memory_model: str = "sc",
    ) -> None:
        if memory_model not in ("sc", "tso", "pso"):
            raise ValueError(f"unknown memory model {memory_model!r}")
        self.bundle = bundle
        self.mhp: MhpAnalysis = bundle.mhp
        self.lock_analysis = lock_analysis
        self.memory_model = memory_model
        self._condvars = None

    @property
    def condvars(self):
        """Lazily built :class:`~repro.threads.condvars.CondVarAnalysis`."""
        if self._condvars is None:
            from ..threads.condvars import CondVarAnalysis

            self._condvars = CondVarAnalysis(self.bundle.module, self.mhp)
        return self._condvars

    # ----- Φ_po (Eq. 4) -----------------------------------------------------

    def program_order_pair(self, a: Instruction, b: Instruction) -> BoolTerm:
        """``PO(a, b)``: the program-order relation between two statements,
        or TRUE when they are unordered (concurrent).

        Under the relaxed-memory extension (paper future work 2), some
        intra-thread orders are dropped: TSO lets a store pass a later
        load of a different location; PSO additionally lets stores to
        different locations reorder.  Fork/join edges always order (they
        act as full fences).
        """
        if a is b:
            return TRUE
        if self.mhp.happens_before(a, b):
            if self._relaxed(a, b):
                return TRUE
            return lt(order_var(a), order_var(b))
        if self.mhp.happens_before(b, a):
            if self._relaxed(b, a):
                return TRUE
            return lt(order_var(b), order_var(a))
        return TRUE

    def _relaxed(self, first: Instruction, second: Instruction) -> bool:
        """Is the program order ``first <P second`` dropped by the model?

        Only *same-function* pairs relax — cross-thread fork/join orders
        are fences.  Pairs on the same memory object stay ordered (the
        models preserve per-location coherence); without a must-alias
        proof we only relax pairs whose pointers are distinct SSA values.
        """
        if self.memory_model == "sc":
            return False
        from ..ir.instructions import LoadInst, StoreInst

        same_func = self.bundle.module.function_of(first) == (
            self.bundle.module.function_of(second)
        )
        if not same_func:
            return False
        if isinstance(first, StoreInst) and isinstance(second, LoadInst):
            return first.pointer is not second.pointer  # TSO and PSO
        if self.memory_model == "pso" and isinstance(first, StoreInst) and isinstance(
            second, StoreInst
        ):
            return first.pointer is not second.pointer
        return False

    def program_order(self, statements: Sequence[Instruction]) -> BoolTerm:
        """Φ_po over all statement pairs of a path (Eq. 4)."""
        parts: List[BoolTerm] = []
        unique: List[Instruction] = []
        seen = set()
        for s in statements:
            if s is not None and s.label not in seen:
                seen.add(s.label)
                unique.append(s)
        for i in range(len(unique)):
            for j in range(i + 1, len(unique)):
                parts.append(self.program_order_pair(unique[i], unique[j]))
        return and_(*parts)

    # ----- Φ_ls (Eq. 2) -----------------------------------------------------

    def load_store_order(self, edge: VFGEdge) -> BoolTerm:
        """Φ_ls for one indirect (store→load) value-flow edge.

        ``O_s < O_l`` plus, for every other store ``s'`` that may write the
        same object and may interleave, ``O_s' < O_s or O_l < O_s'`` —
        guarded by the condition under which ``s'`` actually writes the
        object, which keeps the encoding path-sensitive.
        """
        store, load, obj = edge.store, edge.load, edge.obj
        if store is None or load is None or obj is None:
            return TRUE
        parts: List[BoolTerm] = []
        if not self.mhp.happens_before(store, load):
            parts.append(lt(order_var(store), order_var(load)))
        for other, alias_guard in self.bundle.object_stores.get(obj, ()):  # S(l)
            if other is store:
                continue
            if not self._may_intervene(other, store, load):
                continue
            no_overwrite = or_(
                lt(order_var(other), order_var(store)),
                lt(order_var(load), order_var(other)),
            )
            parts.append(implies(and_(other.guard, alias_guard), no_overwrite))
            # Pin the intervening store with its statically-known order
            # relative to both endpoints, otherwise the solver may place
            # it anywhere and the disjunction above loses its teeth.
            parts.append(self.program_order_pair(other, store))
            parts.append(self.program_order_pair(other, load))
        return and_(*parts)

    def interfering_stores(self, edge: VFGEdge) -> List[StoreInst]:
        """The S(l) stores whose order variables Φ_ls mentions — needed by
        callers that add further constraints about them (e.g. mutexes)."""
        store, load, obj = edge.store, edge.load, edge.obj
        if store is None or load is None or obj is None:
            return []
        return [
            other
            for other, _g in self.bundle.object_stores.get(obj, ())
            if other is not store and self._may_intervene(other, store, load)
        ]

    # ----- mutual exclusion (lock/unlock extension) --------------------------

    def mutex_exclusion(self, statements: Sequence[Instruction]) -> BoolTerm:
        """Mutual-exclusion constraints for every pair of statements in
        distinct same-mutex critical sections that may run in parallel."""
        if self.lock_analysis is None:
            return TRUE
        parts: List[BoolTerm] = []
        seen_regions = set()
        unique: List[Instruction] = []
        seen = set()
        for s in statements:
            if s is not None and s.label not in seen:
                seen.add(s.label)
                unique.append(s)
        for i, a in enumerate(unique):
            for b in unique[i + 1 :]:
                if not self.mhp.may_happen_in_parallel(a, b):
                    continue
                for ra, rb in self.lock_analysis.common_mutex_regions(a, b):
                    key = tuple(sorted((ra.lock.label, rb.lock.label)))
                    if key in seen_regions:
                        continue
                    seen_regions.add(key)
                    parts.append(
                        or_(
                            lt(order_var(ra.unlock), order_var(rb.lock)),
                            lt(order_var(rb.unlock), order_var(ra.lock)),
                        )
                    )
        # Section-internal orders for every region touched.
        for s in unique:
            for region in self.lock_analysis.regions_of(s):
                parts.append(lt(order_var(region.lock), order_var(s)))
                parts.append(lt(order_var(s), order_var(region.unlock)))
        return and_(*parts)

    # ----- signal→wait edges (condition-variable extension) -------------------

    def signal_wait_order(self, statements: Sequence[Instruction]) -> BoolTerm:
        """Signal→wait ordering edges for every wait statement on a path.

        For each ``wait(c)`` the disjunction ``⋁ O_s < O_w`` over the
        condition's signal sites forces *some* signal before the wait;
        each mentioned signal is additionally pinned to the other path
        statements via its statically-known program order (mirroring the
        Φ_ls treatment of interfering stores).  Signal/wait edges are
        fences — no memory-model relaxation applies (``_relaxed`` only
        weakens load/store pairs).
        """
        cv = self.condvars
        if not cv.has_sync():
            return TRUE
        unique: List[Instruction] = []
        seen = set()
        for s in statements:
            if s is not None and s.label not in seen:
                seen.add(s.label)
                unique.append(s)
        # The waits that constrain this formula: those in the statement
        # universe, plus those ordered before some statement in it (a
        # path statement after a wait inherits the signal ordering the
        # same way a statement inside a lock region inherits O_lock<O_s).
        waits = []
        wseen = set()
        for cond in cv.conditions:
            for w in cv.waits_of(cond):
                if w.label in wseen:
                    continue
                if any(
                    w is st or self.mhp.happens_before(w, st) for st in unique
                ):
                    wseen.add(w.label)
                    waits.append(w)
        parts: List[BoolTerm] = []
        mentioned: List[Instruction] = []
        for w in waits:
            signals = cv.signals_of(w.cond)
            if not signals:
                continue  # un-signalled condition: no constraint (soundy)
            disj = [
                lt(order_var(s), order_var(w))
                for s in signals
                if not self.mhp.happens_before(w, s)
            ]
            if not disj:
                # Every signal is ordered after the wait: the wait can
                # never be released, so nothing past it executes.
                from ..smt.terms import FALSE

                return FALSE
            parts.append(or_(*disj))
            mentioned.extend(
                s for s in signals if not self.mhp.happens_before(w, s)
            )
            for st in unique:
                parts.append(self.program_order_pair(w, st))
        for s in mentioned:
            for st in unique:
                parts.append(self.program_order_pair(s, st))
        return and_(*parts)

    def _may_intervene(
        self, other: StoreInst, store: StoreInst, load: Instruction
    ) -> bool:
        """Can ``other`` possibly execute between ``store`` and ``load``?

        Statically-ordered stores (happens-before the store, or after the
        load) cannot; everything else can: stores that may happen in
        parallel with either endpoint, and same-thread stores between the
        endpoints (the intra-procedural kill analysis already refined the
        edge guard, but cross-function same-thread stores still need the
        constraint).
        """
        if self.mhp.happens_before(other, store):
            return False
        return not self.mhp.happens_before(load, other)
