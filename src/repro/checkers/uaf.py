"""Inter-thread use-after-free checker (paper §5 and §7.2).

Source: a ``free(p)`` statement.  The dangling value is the pointer
``p``; the search starts from the *definition* of ``p``, whose forward
value flows (copies, stores into shared memory, cross-thread loads)
enumerate every alias of the freed pointer.  Sink: any dereference of an
alias (load, store or a second free — the latter reported by the
double-free checker instead).

The realizability query adds ``O_free < O_use``: the dereference must be
able to execute *after* the free in some feasible interleaving.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from ..ir.instructions import FreeInst, Instruction, LoadInst, StoreInst
from ..ir.values import Variable, sorted_objects
from ..smt.terms import TRUE, BoolTerm, lt
from ..vfg.graph import DefNode, ObjNode, VFGNode
from ..detection.partial_order import order_var
from .base import SourceSinkChecker

__all__ = ["UseAfterFreeChecker"]


class UseAfterFreeChecker(SourceSinkChecker):
    kind = "use-after-free"

    def sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
        # Search from each *freed object*: its VFG reachability enumerates
        # every alias of the dangling cell, in every thread.
        interference = self.bundle.interference
        for inst in self.bundle.module.all_instructions():
            if isinstance(inst, FreeInst) and isinstance(inst.pointer, Variable):
                for obj in sorted_objects(interference.points_to_objects(inst.pointer)):
                    alias = interference.pted_guard(obj, DefNode(inst.pointer))
                    yield ObjNode(obj), inst, alias if alias is not None else TRUE

    def sinks_at(
        self, var: Variable, source_inst: Instruction
    ) -> Iterable[Instruction]:
        for use in self.uses.pointer_uses.get(var, ()):
            # Dereferences only; double-free is a separate property.
            if isinstance(use, (LoadInst, StoreInst)) and use is not source_inst:
                yield use

    def sink_node_set(self) -> Set[VFGNode]:
        # Any variable with a dereferencing use; sinks_at only refines
        # this (drops the source statement itself).
        return self.uses.pointer_def_nodes(LoadInst, StoreInst)

    def extra_constraints(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[BoolTerm, ...]:
        return (lt(order_var(source_inst), order_var(sink_inst)),)
