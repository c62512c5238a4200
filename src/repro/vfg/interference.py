"""Alg. 2 — interference-dependence analysis.

Starting from the intra-thread VFG of Alg. 1, this stage:

1. runs the *escape analysis* (Alg. 2 lines 12-23): the escaped set is
   seeded with objects passed at fork sites (plus globals, which every
   thread can reach) and closed under "an object stored into an escaped
   object escapes";
2. computes each escaped object's *pointed-to-by* set ``Pted(o)`` — the
   variables reachable from the object's node in the VFG — together with
   the aggregated guards of the traversed edges (line 21);
3. pairs stores and loads whose pointers share an escaped object: pairs
   in different threads that may happen in parallel become *interference
   edges* (``Φ_alias`` guard, Eq. 1); ordered same-thread pairs missed by
   the intra-procedural pass become additional data-dependence edges
   (the line-9 update);
4. iterates — new edges extend reachability, which may enlarge both the
   escaped set and the Pted sets (the cyclic dependence the paper
   describes) — until no more edges are introduced.

The load-store order part of the guard (``Φ_ls``, Eq. 2) is generated
lazily at the bug-checking stage (:mod:`repro.detection.realizability`)
where the set ``S(l)`` is final; the edge records the (store, load,
object) triple it needs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.instructions import ForkInst, LoadInst, StoreInst
from ..ir.values import MemObject, Value, Variable, sorted_objects
from ..smt.terms import FALSE, TRUE, BoolTerm, and_, or_
from ..smt.simplify import quick_unsat
from ..threads.mhp import MhpAnalysis
from .dataflow import DataDependenceAnalysis
from .graph import DefNode, ObjNode, StoreNode, ValueFlowGraph, VFGNode

__all__ = ["InterferenceAnalysis"]

#: widening threshold: after this many guard refinements of one node the
#: aggregated guard is widened to TRUE (sound for edge discovery)
_GUARD_UPDATE_CAP = 4


class InterferenceAnalysis:
    """Runs Alg. 2, mutating the VFG produced by Alg. 1 in place."""

    def __init__(
        self,
        dataflow: DataDependenceAnalysis,
        mhp: MhpAnalysis,
        max_rounds: int = 20,
        use_mhp: bool = True,
        prune_guards: bool = True,
        summary_index=None,
        metrics=None,
    ) -> None:
        self.use_mhp = use_mhp
        self.prune_guards = prune_guards
        self.dataflow = dataflow
        self.module = dataflow.module
        self.tcg = dataflow.tcg
        self.vfg: ValueFlowGraph = dataflow.vfg
        self.mhp = mhp
        self.max_rounds = max_rounds
        #: per-function summary layer (:mod:`repro.vfg.summaries`); when
        #: present the fixpoint walks the demand-loading view and looks up
        #: store/load candidates through the merged site indexes instead
        #: of scanning every site for every object — same edges, same
        #: order, fewer touched shards
        self.summary_index = summary_index
        self.metrics = metrics
        self._graph = summary_index.view if summary_index is not None else dataflow.vfg
        self.escaped: Set[MemObject] = set()
        #: escaped object -> {node: aggregated guard}
        self.pted: Dict[MemObject, Dict[VFGNode, BoolTerm]] = {}
        #: escaped object -> [(store, alias guard)] — the S(l) index for Φ_ls
        self.object_stores: Dict[MemObject, List[Tuple[StoreInst, BoolTerm]]] = {}
        self.interference_edge_count = 0
        self.rounds = 0
        #: guard-widening events (aggregated guard forced to TRUE at
        #: the _GUARD_UPDATE_CAP refinement)
        self.widenings = 0
        #: all line-9/interference edges added by this analysis
        self.edges_added = 0
        self._points_back_cache: Dict[Variable, Set[MemObject]] = {}

    def __getstate__(self):
        """The metrics registry (holds a lock) stays parent-side when the
        finished analysis ships to a detection worker."""
        state = dict(self.__dict__)
        state["metrics"] = None
        return state

    # ----- public -----------------------------------------------------------

    def run(self) -> ValueFlowGraph:
        self._seed_escaped()
        for _ in range(self.max_rounds):
            self.rounds += 1
            self._compute_pted()
            self._close_escaped()
            self._compute_pted()  # newly escaped objects need Pted too
            added = self._add_interference_edges()
            if not added:
                break
            self._points_back_cache.clear()
        self._index_object_stores()
        if self.metrics is not None:
            self.metrics.counter("interference.rounds").add(self.rounds)
            self.metrics.counter("interference.widenings").add(self.widenings)
            self.metrics.counter("interference.edges_added").add(self.edges_added)
            self.metrics.counter("interference.interference_edges").add(
                self.interference_edge_count
            )
            self.metrics.gauge("interference.escaped_objects").set(len(self.escaped))
        return self.vfg

    # ----- escape analysis (lines 12-23) -------------------------------------

    def _seed_escaped(self) -> None:
        self.escaped.update(self.module.globals.values())
        self.escaped.update(self.dataflow.fork_escaped)
        # Fork arguments whose pts was unresolved at Alg. 1 time: recover
        # the objects by backward reachability from the argument value.
        for func in self.module.functions.values():
            for inst in func.body:
                if isinstance(inst, ForkInst):
                    for arg in inst.args:
                        if isinstance(arg, Variable):
                            self.escaped.update(self._objects_pointed_by(arg))

    def _close_escaped(self) -> None:
        """Close under: storing a pointer to o' into an escaped object
        makes o' escape (Alg. 2 lines 14-18)."""
        changed = True
        while changed:
            changed = False
            escaping_ptrs = self._pointer_vars_of_escaped()
            for store in self._stores_through(escaping_ptrs):
                if not isinstance(store.value, Variable):
                    continue
                for obj in self._objects_pointed_by(store.value):
                    if obj not in self.escaped:
                        self.escaped.add(obj)
                        changed = True

    def _stores_through(self, ptrs: Set[Variable]) -> Iterable[StoreInst]:
        """Stores whose pointer is one of ``ptrs``, in global site order.

        With the summary layer this is an index lookup (positions merged
        across the touched pointers, then sorted — the same ascending
        subsequence the whole-list scan would yield); without it, the
        original scan over every store.
        """
        index = self.summary_index
        if index is None:
            return [
                s
                for s in self.dataflow.all_stores
                if isinstance(s.pointer, Variable) and s.pointer in ptrs
            ]
        positions: List[int] = []
        for var in ptrs:
            positions.extend(index.store_positions(var))
        positions.sort()
        all_stores = self.dataflow.all_stores
        return [all_stores[pos] for pos in positions]

    def _pointer_vars_of_escaped(self) -> Set[Variable]:
        out: Set[Variable] = set()
        for obj in self.escaped:
            for node in self.pted.get(obj, ()):
                if isinstance(node, DefNode):
                    out.add(node.var)
        return out

    def points_to_objects(self, var: Variable) -> Set[MemObject]:
        """Public query: the objects ``var`` may point to, per the VFG
        (backward reachability to object nodes).  Used by the checkers to
        resolve which memory a ``free``/dereference touches."""
        return self._objects_pointed_by(var)

    def pted_guard(self, obj: MemObject, node: VFGNode) -> Optional[BoolTerm]:
        """The aggregated pointed-to-by guard of ``node`` for ``obj``
        (None when the node is not in Pted(obj))."""
        return self.pted.get(obj, {}).get(node)

    def _objects_pointed_by(self, var: Variable) -> Set[MemObject]:
        """Objects o with ObjNode(o) → ... → def(var): the pointer targets
        of ``var`` discoverable in the current VFG (backward reachability)."""
        cached = self._points_back_cache.get(var)
        if cached is not None:
            return cached
        seen: Set[VFGNode] = set()
        out: Set[MemObject] = set()
        stack: List[VFGNode] = [DefNode(var)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if isinstance(node, ObjNode):
                out.add(node.obj)
                continue
            for edge in self.vfg.in_edges(node):
                stack.append(edge.src)
        self._points_back_cache[var] = out
        return out

    # ----- pointed-to-by sets (lines 19-23) -----------------------------------

    def _compute_pted(self) -> None:
        for obj in self.escaped:
            self.pted[obj] = self._reach_with_guards(ObjNode(obj))

    def _reach_with_guards(self, origin: VFGNode) -> Dict[VFGNode, BoolTerm]:
        """Forward reachability from ``origin`` aggregating edge guards
        (disjunction over paths, conjunction along a path), with widening
        to TRUE after :data:`_GUARD_UPDATE_CAP` refinements per node."""
        guards: Dict[VFGNode, BoolTerm] = {origin: TRUE}
        updates: Dict[VFGNode, int] = {}
        worklist: List[VFGNode] = [origin]
        graph = self._graph
        while worklist:
            node = worklist.pop()
            node_guard = guards[node]
            for edge in graph.out_edges(node):
                new_guard = and_(node_guard, edge.guard)
                if new_guard is FALSE:
                    continue
                old = guards.get(edge.dst)
                if old is None:
                    guards[edge.dst] = new_guard
                    worklist.append(edge.dst)
                    continue
                merged = or_(old, new_guard)
                if merged is old:
                    continue
                count = updates.get(edge.dst, 0) + 1
                updates[edge.dst] = count
                if count >= _GUARD_UPDATE_CAP:
                    self.widenings += 1
                    guards[edge.dst] = TRUE
                else:
                    guards[edge.dst] = merged
                worklist.append(edge.dst)
        guards.pop(origin, None)
        return guards

    # ----- interference edges (lines 2-10) --------------------------------------

    def _add_interference_edges(self) -> int:
        added = 0
        # Content order: edges land in the VFG's adjacency lists in the
        # order they are added, and the path search follows that order.
        for obj in sorted_objects(self.escaped):
            pted = self.pted.get(obj, {})
            if not pted:
                continue
            stores = self._pted_sites(pted, kind="store")
            loads = self._pted_sites(pted, kind="load")
            for store, alpha in stores:
                for load, beta in loads:
                    added += self._try_edge(obj, store, alpha, load, beta)
        self.edges_added += added
        return added

    def _pted_sites(self, pted: Dict[VFGNode, BoolTerm], kind: str) -> List[Tuple]:
        """``(site, alias guard)`` pairs whose pointer is in Pted, in
        global site order — via the merged summary index (positions of
        the Pted pointer variables, sorted: the identical ascending
        subsequence) or the original whole-list scan."""
        index = self.summary_index
        if index is None:
            sites = (
                self.dataflow.all_stores if kind == "store" else self.dataflow.all_loads
            )
            return [
                (s, pted[DefNode(s.pointer)])
                for s in sites
                if isinstance(s.pointer, Variable) and DefNode(s.pointer) in pted
            ]
        lookup = index.store_positions if kind == "store" else index.load_positions
        positions: List[int] = []
        for node in pted:
            if isinstance(node, DefNode):
                positions.extend(lookup(node.var))
        positions.sort()
        sites = self.dataflow.all_stores if kind == "store" else self.dataflow.all_loads
        return [(sites[pos], pted[DefNode(sites[pos].pointer)]) for pos in positions]

    def _try_edge(
        self,
        obj: MemObject,
        store: StoreInst,
        alpha: BoolTerm,
        load: LoadInst,
        beta: BoolTerm,
    ) -> int:
        if self.use_mhp:
            interthread = self.mhp.may_happen_in_parallel(store, load)
        else:
            # Ablation: no MHP pruning — any cross-thread pair interferes.
            ts = self.tcg.threads_of(store)
            tl = self.tcg.threads_of(load)
            interthread = any(a != b for a in ts for b in tl)
        if not interthread:
            # Same-thread pair: only a forward, compatible pair can be a
            # missed data dependence (line-9 update); a store that can
            # never precede the load is skipped statically.
            if not self.mhp.happens_before(store, load):
                return 0
        guard = and_(store.guard, load.guard, alpha, beta)
        if guard is FALSE:
            return 0
        if self.prune_guards and quick_unsat(guard):
            return 0
        edge = self.vfg.add_edge(
            StoreNode(store),
            DefNode(load.dst),
            guard,
            "load",
            obj=obj,
            store=store,
            load=load,
            interthread=interthread,
        )
        if edge is None:
            return 0
        if self.summary_index is not None:
            # Mirror into the demand-loading view; the just-assigned
            # ordinal is num_edges - 1 (add_edge appends).
            self.summary_index.view.add_overlay(edge, self.vfg.num_edges - 1)
        if interthread:
            self.interference_edge_count += 1
        return 1

    # ----- Φ_ls support ------------------------------------------------------

    def _index_object_stores(self) -> None:
        """Final store index per escaped object, used by the checker to
        build the no-overwrite part of Φ_ls (the S(l) of Eq. 2)."""
        for obj in self.escaped:
            pted = self.pted.get(obj, {})
            self.object_stores[obj] = self._pted_sites(pted, kind="store")
        # Objects never escaped still need S(l) for intra-thread edges.
        for obj, targeted in self.dataflow.store_targets.items():
            if obj not in self.object_stores:
                self.object_stores[obj] = list(targeted)
