"""Order-violation checker (ROADMAP item 4): use before the intended
init/publication order.

Source: a store ``s`` to an escaped cell that is *superseded* — a later
store ``s'`` in the same function overwrites the cell (the paper's
publication idiom: write the payload, then publish the final value; the
intermediate value was never meant to be observed remotely).  Sink: a
remote load that observes ``s``'s value (the VFG's store→load edge
starting the path).

No extra constraints are needed: the load edge's Φ_ls already demands
``O_s < O_l`` with no intervening overwrite, so observing the stale
value means ``O_l < O_s'`` — impossible under SC program order
(``O_s < O_s'`` pins the pair), possible exactly when something relaxes
or unorders it: PSO's store-store reordering (different SSA pointers,
``pso_store_reorder.mcc``), a concurrent writer with no common lock
(``lock_wrong_mutex.mcc``'s shape), or a missing signal→wait edge.  The
checker therefore *inherits* its memory-model and synchronization
awareness wholesale from the Φ encoding.
"""

from __future__ import annotations

from typing import Iterable, Set, Tuple

from ..ir.instructions import Instruction, LoadInst, StoreInst
from ..ir.values import Variable, sorted_objects
from ..smt.terms import TRUE, BoolTerm
from ..vfg.graph import DefNode, StoreNode, VFGNode
from .base import SourceSinkChecker

__all__ = ["OrderViolationChecker"]


class OrderViolationChecker(SourceSinkChecker):
    kind = "order-violation"

    def sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
        interference = self.bundle.interference
        module = self.bundle.module
        mhp = self.bundle.mhp
        for inst in module.all_instructions():
            if not (isinstance(inst, StoreInst) and isinstance(inst.pointer, Variable)):
                continue
            for obj in sorted_objects(interference.points_to_objects(inst.pointer)):
                if obj not in interference.escaped:
                    continue
                superseded = any(
                    other is not inst
                    and module.function_of(other) == module.function_of(inst)
                    and other.label > inst.label
                    and mhp.happens_before(inst, other)
                    for other, _guard in interference.object_stores.get(obj, ())
                )
                if not superseded:
                    continue
                alias = interference.pted_guard(obj, DefNode(inst.pointer))
                yield StoreNode(inst), inst, alias if alias is not None else TRUE

    def sinks_at(
        self, var: Variable, source_inst: Instruction
    ) -> Iterable[Instruction]:
        # The observation is the load that fetched the superseded value:
        # the reached definition itself when it is a load (the path's
        # store→load edge carries the Φ_ls that makes the staleness
        # claim precise).
        inst = self.bundle.def_index.get(var)
        if (
            isinstance(inst, LoadInst)
            and inst is not source_inst
            and not self.bundle.mhp.happens_before(inst, source_inst)
        ):
            yield inst

    def sink_node_set(self) -> Set[VFGNode]:
        return {
            DefNode(inst.dst)
            for inst in self.bundle.module.all_instructions()
            if isinstance(inst, LoadInst)
        }
