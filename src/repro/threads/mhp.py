"""May-happen-in-parallel (MHP) analysis and structural happens-before.

The paper (§6) uses an MHP analysis to prune load/store pairs that can
never interfere before running Alg. 2, and (§5.1) derives the
inter-thread part of the program order ``<P`` from fork/join semantics:

* everything in a child thread happens after the fork that created it;
* everything in a child thread happens before any statement following a
  matching join in an ancestor.

``lock``/``unlock`` are deliberately *not* used to refine MHP, matching
the paper ("the partial order constraints do not attempt to identify all
the program orders enforced by other synchronization semantics"); the
hooks are in place for the future-work extension.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir.instructions import ForkInst, Instruction, JoinInst
from ..ir.module import IRModule
from .callgraph import MAIN_THREAD, ThreadCallGraph

__all__ = ["MhpAnalysis"]


class MhpAnalysis:
    """Structural happens-before and MHP queries over a thread call graph."""

    def __init__(self, graph: ThreadCallGraph) -> None:
        self.graph = graph
        self.module = graph.module
        # tid -> (function name of fork site, fork label)
        self._fork_site: Dict[str, Tuple[str, int]] = {}
        # tid -> list of (function name, join label) joining it
        self._join_sites: Dict[str, List[Tuple[str, int]]] = {}
        #: (label a, label b) -> happens_before(a, b).  Every input of the
        #: answer (function_of, threads_of, fork/join sites) is keyed by
        #: label, so the pair determines it on this object.
        self._hb_memo: Dict[Tuple[int, int], bool] = {}
        self._index()

    def _index(self) -> None:
        for tid, thread in self.graph.threads.items():
            if thread.fork is not None:
                self._fork_site[tid] = (
                    self.module.function_of(thread.fork),
                    thread.fork.label,
                )
        # Match joins to threads by source-level thread name within the
        # functions of the parent thread.
        for func_name, func in self.module.functions.items():
            for inst in func.body:
                if isinstance(inst, JoinInst):
                    for tid, thread in self.graph.threads.items():
                        if thread.name_in_source == inst.thread:
                            self._join_sites.setdefault(tid, []).append(
                                (func_name, inst.label)
                            )

    # ----- happens-before -------------------------------------------------

    def happens_before(self, a: Instruction, b: Instruction) -> bool:
        """True when ``a`` structurally happens before ``b`` under *every*
        thread assignment (sound for use as a pruning relation)."""
        key = (a.label, b.label)
        known = self._hb_memo.get(key)
        if known is None:
            known = self._hb_memo[key] = self._happens_before(a, b)
        return known

    def _happens_before(self, a: Instruction, b: Instruction) -> bool:
        threads_a = self.graph.threads_of(a)
        threads_b = self.graph.threads_of(b)
        if not threads_a or not threads_b:
            return False
        return all(
            self._hb_under(a, ta, b, tb) for ta in threads_a for tb in threads_b
        )

    def _hb_under(self, a: Instruction, ta: str, b: Instruction, tb: str) -> bool:
        if ta == tb:
            func_a = self.module.function_of(a)
            func_b = self.module.function_of(b)
            if func_a == func_b:
                return a.label < b.label
            return False  # cross-function same-thread order unresolved here
        # a's thread is an ancestor of b's: a hb b iff a precedes the fork
        # (in the fork's function) on the ancestry chain.
        chain = self._fork_chain(tb)
        for parent_tid, fork_func, fork_label in chain:
            if parent_tid == ta:
                return (
                    self.module.function_of(a) == fork_func and a.label <= fork_label
                )
        # b's thread joined a's thread: a hb b iff a join of ta precedes b
        # in b's function and b's thread can execute that join.
        func_b = self.module.function_of(b)
        for join_func, join_label in self._join_sites.get(ta, ()):
            if (
                join_func == func_b
                and join_label < b.label
                and tb in self.graph.threads_of_function.get(join_func, ())
            ):
                return True
        return False

    def _fork_chain(self, tid: str) -> List[Tuple[str, str, int]]:
        """[(parent tid, fork function, fork label)] from tid up to main."""
        out: List[Tuple[str, str, int]] = []
        cur = tid
        while True:
            thread = self.graph.threads[cur]
            if thread.fork is None or thread.parent is None:
                break
            out.append(
                (thread.parent, self.module.function_of(thread.fork), thread.fork.label)
            )
            cur = thread.parent
        return out

    # ----- MHP --------------------------------------------------------------

    def may_happen_in_parallel(self, a: Instruction, b: Instruction) -> bool:
        """True when some thread assignment runs ``a`` and ``b`` in
        different threads with neither ordered before the other."""
        threads_a = self.graph.threads_of(a)
        threads_b = self.graph.threads_of(b)
        for ta in threads_a:
            for tb in threads_b:
                if ta == tb:
                    continue
                if not self._hb_under(a, ta, b, tb) and not self._hb_under(
                    b, tb, a, ta
                ):
                    return True
        return False
