"""Atomicity-violation checker (ROADMAP item 4; cf. Kusano & Wang's
thread-modular analysis, PAPERS.md).

Source: the *read* of a local read–modify–write pair — a load ``r`` of
an escaped cell followed, in the same function, by a store ``w`` whose
value data-depends on the loaded value (the classic unprotected
``*c = *c + 1`` idiom).  Sink: a remote store to an alias of the same
cell.  The violation is the remote write landing *between* the pair:

    O_r < O_s' < O_w

which goes to the solver as the checker's extra order constraints, with
``w`` joining the query's statement universe (``extra_statements``) so
Φ_po and the mutual-exclusion/signal→wait extensions see it.  When the
pair sits in a critical section and the remote write takes the same
mutex, the exclusion constraints make the interleaving UNSAT — only a
region-free window (or a wrong/missing lock) is reported.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.instructions import Instruction, LoadInst, StoreInst
from ..ir.values import Value, Variable, sorted_objects
from ..smt.terms import TRUE, BoolTerm, lt
from ..vfg.graph import DefNode, ObjNode, VFGNode
from ..detection.partial_order import order_var
from .base import SourceSinkChecker

__all__ = ["AtomicityViolationChecker"]

#: cap on the def-chain walk that establishes the RMW data dependence
_DEP_WALK_LIMIT = 64


class AtomicityViolationChecker(SourceSinkChecker):
    kind = "atomicity-violation"

    #: read label -> the store completing its RMW pair (built by sources())
    _partner: Optional[Dict[int, StoreInst]] = None

    def sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
        interference = self.bundle.interference
        self._partner = {}
        for func in self.bundle.module.functions.values():
            for i, r in enumerate(func.body):
                if not (isinstance(r, LoadInst) and isinstance(r.pointer, Variable)):
                    continue
                read_objs = {
                    obj
                    for obj in interference.points_to_objects(r.pointer)
                    if obj in interference.escaped
                }
                if not read_objs:
                    continue
                pair = self._find_write(func.body[i + 1 :], r, read_objs, interference)
                if pair is None:
                    continue
                w, common = pair
                self._partner[r.label] = w
                for obj in sorted_objects(common):
                    alias = interference.pted_guard(obj, DefNode(r.pointer))
                    yield ObjNode(obj), r, alias if alias is not None else TRUE

    def _find_write(self, rest, r: LoadInst, read_objs, interference):
        """The nearest later same-function store whose value data-depends
        on the loaded value and that may write one of the read objects."""
        for w in rest:
            if not (isinstance(w, StoreInst) and isinstance(w.pointer, Variable)):
                continue
            if not self._depends_on(w.value, r.dst):
                continue
            common = read_objs & interference.points_to_objects(w.pointer)
            if common:
                return w, common
        return None

    def _depends_on(self, value: Value, target: Variable) -> bool:
        """Does ``value`` data-depend on ``target`` through SSA defs
        (copies, phis, arithmetic)?"""
        def_index = self.bundle.def_index
        seen: Set[Variable] = set()
        stack: List[Value] = [value]
        budget = _DEP_WALK_LIMIT
        while stack and budget > 0:
            budget -= 1
            v = stack.pop()
            if not isinstance(v, Variable) or v in seen:
                continue
            if v is target:
                return True
            seen.add(v)
            d = def_index.get(v)
            if d is not None and not isinstance(d, (LoadInst, StoreInst)):
                stack.extend(d.used_values())
        return False

    def sinks_at(
        self, var: Variable, source_inst: Instruction
    ) -> Iterable[Instruction]:
        w = self._partner_of(source_inst)
        if w is None:
            return
        orders = self.realizability.orders
        mhp = self.bundle.mhp
        for use in self.uses.pointer_uses.get(var, ()):
            if not isinstance(use, StoreInst):
                continue
            if use is source_inst or use is w:
                continue
            # The remote write must be able to land inside the window:
            # concurrent with at least one end of the pair, and not
            # signal/wait-ordered entirely before the read or after the
            # write.
            if not (
                mhp.may_happen_in_parallel(use, source_inst)
                or mhp.may_happen_in_parallel(use, w)
            ):
                continue
            condvars = orders.condvars
            if condvars.has_sync() and (
                condvars.ordered_before(use, source_inst)
                or condvars.ordered_before(w, use)
            ):
                continue
            yield use

    def sink_node_set(self) -> Set[VFGNode]:
        return self.uses.pointer_def_nodes(StoreInst)

    def extra_constraints(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[BoolTerm, ...]:
        w = self._partner_of(source_inst)
        if w is None:
            return ()
        return (
            lt(order_var(source_inst), order_var(sink_inst)),
            lt(order_var(sink_inst), order_var(w)),
        )

    def extra_statements(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[Instruction, ...]:
        w = self._partner_of(source_inst)
        return () if w is None else (w,)

    def _partner_of(self, source_inst: Instruction) -> Optional[StoreInst]:
        if self._partner is None:
            for _ in self.sources():  # build the pair index
                pass
        return self._partner.get(source_inst.label)
