"""Double-free checker.

Source and sink are both ``free`` statements reaching the same memory
object through aliased pointers; the query requires the two frees to be
orderable (``O_f1 < O_f2``).  Unordered pairs are deduplicated so each
offending pair is reported once.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from ..ir.instructions import FreeInst, Instruction
from ..ir.values import Variable, sorted_objects
from ..smt.terms import TRUE, BoolTerm, lt
from ..vfg.graph import DefNode, ObjNode, VFGNode
from ..detection.partial_order import order_var
from .base import BugReport, SourceSinkChecker

__all__ = ["DoubleFreeChecker"]


class DoubleFreeChecker(SourceSinkChecker):
    kind = "double-free"

    def sources(self) -> Iterable[Tuple[VFGNode, Instruction, BoolTerm]]:
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
            if isinstance(use, FreeInst) and use is not source_inst:
                yield use

    def sink_node_set(self) -> Set[VFGNode]:
        return self.uses.pointer_def_nodes(FreeInst)

    def extra_constraints(
        self, source_inst: Instruction, sink_inst: Instruction
    ) -> Tuple[BoolTerm, ...]:
        return (lt(order_var(source_inst), order_var(sink_inst)),)

    def run(self) -> List[BugReport]:
        reports = super().run()
        # (f1, f2) and (f2, f1) describe the same defect: keep one.
        seen: Set[Tuple[int, int]] = set()
        unique: List[BugReport] = []
        for report in reports:
            pair = tuple(sorted((report.source.label, report.sink.label)))
            if pair in seen:
                continue
            seen.add(pair)
            unique.append(report)
        return unique
