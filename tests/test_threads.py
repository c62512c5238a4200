"""Tests for Steensgaard points-to, thread call graph, happens-before/MHP."""

import pytest

from repro.frontend import parse_program
from repro.ir import ForkInst, FreeInst, JoinInst, LoadInst, SinkInst, StoreInst
from repro.lowering import lower_program
from repro.pointer import steensgaard
from repro.threads import MhpAnalysis, build_thread_call_graph

from programs import FIG2_BUG_FREE, FORK_IN_LOOP, JOIN_PROTECTED, SIMPLE_UAF


def lower(src):
    return lower_program(parse_program(src))


def setup(src):
    module = lower(src)
    tcg = build_thread_call_graph(module)
    return module, tcg, MhpAnalysis(tcg)


def find(module, func, cls, nth=0):
    found = [i for i in module.functions[func].body if isinstance(i, cls)]
    return found[nth]


class TestSteensgaard:
    def test_direct_fork_target(self):
        module = lower(SIMPLE_UAF)
        pts = steensgaard(module)
        fork = find(module, "main", ForkInst)
        assert pts.callees(fork.callee) == {"worker"}

    def test_function_pointer_through_variable(self):
        module = lower(
            """
            void work() {}
            void main() {
                int* fp = work;
                fork(t, fp);
            }
            """
        )
        pts = steensgaard(module)
        fork = find(module, "main", ForkInst)
        assert "work" in pts.callees(fork.callee)

    def test_function_pointer_through_memory(self):
        module = lower(
            """
            void work() {}
            void main() {
                int** slot = malloc();
                *slot = work;
                int* fp = *slot;
                fork(t, fp);
            }
            """
        )
        pts = steensgaard(module)
        fork = find(module, "main", ForkInst)
        assert "work" in pts.callees(fork.callee)

    def test_may_alias_same_object(self):
        module = lower("void main() { int* p = malloc(); int* q = p; *q = 1; }")
        pts = steensgaard(module)
        main = module.functions["main"]
        p = main.body[0].dst
        store = find(module, "main", StoreInst)
        assert pts.may_alias(p, store.pointer)

    def test_no_alias_distinct_objects(self):
        module = lower("void main() { int* p = malloc(); int* q = malloc(); }")
        pts = steensgaard(module)
        main = module.functions["main"]
        p, q = main.body[0].dst, main.body[2].dst
        assert not pts.may_alias(p, q)


class TestThreadCallGraph:
    def test_main_plus_fork(self):
        _module, tcg, _ = setup(SIMPLE_UAF)
        assert len(tcg.threads) == 2
        assert "main" in tcg.threads
        child = next(t for t in tcg.threads.values() if t.tid != "main")
        assert child.entry == "worker"
        assert child.parent == "main"

    def test_fork_in_loop_two_threads(self):
        _module, tcg, _ = setup(FORK_IN_LOOP)
        assert len(tcg.threads) == 3  # main + 2 unrolled forks

    def test_threads_of_function(self):
        module, tcg, _ = setup(FIG2_BUG_FREE)
        assert tcg.threads_of_function["main"] == {"main"}
        (worker_tid,) = tcg.threads_of_function["thread1"]
        assert worker_tid.startswith("t@")

    def test_function_shared_by_threads(self):
        module, tcg, _ = setup(
            """
            void helper() {}
            void main() { helper(); fork(t, worker); }
            void worker() { helper(); }
            """
        )
        assert len(tcg.threads_of_function["helper"]) == 2

    def test_reverse_topological_order(self):
        module, tcg, _ = setup(
            """
            void c() {}
            void b() { c(); }
            void a() { b(); }
            void main() { a(); }
            """
        )
        order = tcg.reverse_topological_functions()
        assert order.index("c") < order.index("b") < order.index("a")
        assert order.index("a") < order.index("main")

    def test_nested_forks(self):
        _module, tcg, _ = setup(
            """
            void inner() {}
            void outer() { fork(t2, inner); }
            void main() { fork(t1, outer); }
            """
        )
        assert len(tcg.threads) == 3
        inner_thread = next(t for t in tcg.threads.values() if t.entry == "inner")
        assert tcg.threads[inner_thread.parent].entry == "outer"

    def test_ancestors(self):
        _module, tcg, _ = setup(
            """
            void inner() {}
            void outer() { fork(t2, inner); }
            void main() { fork(t1, outer); }
            """
        )
        inner_tid = next(t.tid for t in tcg.threads.values() if t.entry == "inner")
        chain = tcg.ancestors(inner_tid)
        assert chain[-1] == "main"
        assert len(chain) == 2


class TestHappensBefore:
    def test_same_function_label_order(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        main = module.functions["main"].body
        assert mhp.happens_before(main[0], main[1])
        assert not mhp.happens_before(main[1], main[0])

    def test_before_fork_hb_child(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        store_main = find(module, "main", StoreInst)  # before the fork
        free_child = find(module, "worker", FreeInst)
        assert mhp.happens_before(store_main, free_child)
        assert not mhp.happens_before(free_child, store_main)

    def test_after_fork_not_hb_child(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        load_main = find(module, "main", LoadInst)  # after the fork
        free_child = find(module, "worker", FreeInst)
        assert not mhp.happens_before(load_main, free_child)
        assert not mhp.happens_before(free_child, load_main)

    def test_join_orders_child_before_parent_continuation(self):
        module, _tcg, mhp = setup(JOIN_PROTECTED)
        child_store = find(module, "worker", StoreInst)
        print_sink = find(module, "main", SinkInst)  # after join(t)
        assert mhp.happens_before(child_store, print_sink)

    def test_join_does_not_order_statements_before_it(self):
        module, _tcg, mhp = setup(JOIN_PROTECTED)
        child_store = find(module, "worker", StoreInst)
        load_main = find(module, "main", LoadInst, nth=0)  # c = *x, before join
        assert not mhp.happens_before(child_store, load_main)

    @pytest.mark.parametrize(
        "src", [SIMPLE_UAF, JOIN_PROTECTED, FORK_IN_LOOP, FIG2_BUG_FREE]
    )
    def test_memo_agrees_with_direct_computation(self, src):
        module, _tcg, mhp = setup(src)
        insts = [i for f in module.functions.values() for i in f.body]
        for _round in range(2):  # the second round answers from the memo
            for a in insts:
                for b in insts:
                    assert mhp.happens_before(a, b) == mhp._happens_before(a, b)

    def test_memo_keyed_by_label_pair(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        a, b = module.functions["main"].body[:2]
        assert mhp.happens_before(a, b)
        assert mhp._hb_memo == {(a.label, b.label): True}
        assert not mhp.happens_before(b, a)
        assert mhp._hb_memo[(b.label, a.label)] is False


class TestMhp:
    def test_parallel_after_fork(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        load_main = find(module, "main", LoadInst)
        free_child = find(module, "worker", FreeInst)
        assert mhp.may_happen_in_parallel(load_main, free_child)

    def test_not_parallel_before_fork(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        store_main = find(module, "main", StoreInst)
        free_child = find(module, "worker", FreeInst)
        assert not mhp.may_happen_in_parallel(store_main, free_child)

    def test_not_parallel_after_join(self):
        module, _tcg, mhp = setup(JOIN_PROTECTED)
        child_store = find(module, "worker", StoreInst)
        print_sink = find(module, "main", SinkInst)
        assert not mhp.may_happen_in_parallel(child_store, print_sink)

    def test_same_thread_never_parallel(self):
        module, _tcg, mhp = setup(SIMPLE_UAF)
        main = module.functions["main"].body
        assert not mhp.may_happen_in_parallel(main[0], main[1])

    def test_sibling_threads_parallel(self):
        module, _tcg, mhp = setup(
            """
            void a() { int* p = malloc(); free(p); }
            void b() { int* q = malloc(); free(q); }
            void main() { fork(t1, a); fork(t2, b); }
            """
        )
        free_a = find(module, "a", FreeInst)
        free_b = find(module, "b", FreeInst)
        assert mhp.may_happen_in_parallel(free_a, free_b)
