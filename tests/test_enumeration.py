"""Tests for the sink-directed enumeration engine: the incremental
difference-bound store, the GuardPrefix quick-unsat filter, the
sink-reachability index, and — end to end — the guarantee that all three
prunes are exact with respect to the reported bug keys.
"""

import pathlib

import pytest

from repro.analysis import AnalysisConfig, Canary
from repro.detection import (
    PathSearcher,
    ReachabilityIndexCache,
    SearchLimits,
    SinkReachabilityIndex,
)
from repro.detection.reachability import INFINITE_AVAIL
from repro.smt import GuardPrefix, TRUE, FALSE, and_, bool_var, int_var, lt, not_, quick_unsat
from repro.smt.theory import DifferenceBound, IncrementalBoundStore
from repro.vfg.graph import ValueFlowGraph
from repro.__main__ import main as repro_main

from test_corpus import CORPUS_FILES, _parse_directives
from test_parallel_engine import report_list, suppressed_list
from programs import SIMPLE_UAF

CORPUS = pathlib.Path(__file__).parent / "corpus"


# ----- IncrementalBoundStore -------------------------------------------------


class TestIncrementalBoundStore:
    def test_consistent_bounds_stay_sat(self):
        store = IncrementalBoundStore()
        store.push()
        assert not store.assert_bound(DifferenceBound("a", "b", 5))  # a - b <= 5
        assert not store.assert_bound(DifferenceBound("b", "c", 3))
        assert not store.unsat

    def test_negative_cycle_detected(self):
        store = IncrementalBoundStore()
        store.push()
        assert not store.assert_bound(DifferenceBound("a", "b", -1))  # a < b
        assert store.assert_bound(DifferenceBound("b", "a", -1))  # b < a: cycle
        assert store.unsat

    def test_pop_restores_satisfiability(self):
        store = IncrementalBoundStore()
        store.push()
        store.assert_bound(DifferenceBound("a", "b", -1))
        store.push()
        assert store.assert_bound(DifferenceBound("b", "a", -1))
        assert store.unsat
        store.pop()
        assert not store.unsat
        # The surviving frame still constrains: re-adding re-conflicts.
        store.push()
        assert store.assert_bound(DifferenceBound("b", "a", -1))
        store.pop()
        store.pop()

    def test_zero_length_cycle_is_sat(self):
        store = IncrementalBoundStore()
        store.push()
        assert not store.assert_bound(DifferenceBound("a", "b", 0))  # a <= b
        assert not store.assert_bound(DifferenceBound("b", "a", 0))  # b <= a: a == b
        assert not store.unsat


# ----- GuardPrefix -----------------------------------------------------------


def _guard_sequences():
    p, q = bool_var("p"), bool_var("q")
    x, y, z = int_var("x"), int_var("y"), int_var("z")
    return [
        # boolean complement across pushes
        [p, q, not_(p)],
        # arithmetic cycle across pushes: x < y, y < z, z < x
        [lt(x, y), lt(y, z), lt(z, x)],
        # satisfiable chain
        [p, lt(x, y), lt(y, z)],
        # conjunction guards (one push folds several literals)
        [and_(p, lt(x, y)), and_(q, lt(y, x))],
        # duplicate literals must not break pop bookkeeping
        [p, p, not_(q), lt(x, y), lt(x, y)],
        [TRUE, p, TRUE],
        [FALSE],
    ]


class TestGuardPrefix:
    @pytest.mark.parametrize("guards", _guard_sequences())
    def test_matches_quick_unsat_on_full_conjunction(self, guards):
        """After pushing a whole sequence, the prefix verdict agrees with
        the batch semi-decision procedure on the same conjunction."""
        prefix = GuardPrefix()
        for g in guards:
            prefix.push(g)
        assert prefix.unsat == quick_unsat(and_(*guards))

    @pytest.mark.parametrize("guards", _guard_sequences())
    def test_push_pop_roundtrip(self, guards):
        """Popping everything restores the empty state exactly."""
        prefix = GuardPrefix()
        for g in guards:
            prefix.push(g)
        for _ in guards:
            prefix.pop()
        assert len(prefix) == 0
        assert not prefix.unsat
        assert prefix.fingerprint() == ()

    def test_unsat_clears_on_pop_of_offending_frame(self):
        p = bool_var("p")
        prefix = GuardPrefix()
        prefix.push(p)
        assert prefix.push(not_(p))
        assert prefix.unsat
        prefix.pop()
        assert not prefix.unsat
        prefix.pop()

    def test_prefix_detects_mid_sequence_not_just_at_end(self):
        x, y = int_var("x"), int_var("y")
        prefix = GuardPrefix()
        assert not prefix.push(lt(x, y))
        assert prefix.push(lt(y, x))  # caught at the push, not at a batch check

    def test_fingerprint_reflects_literal_set(self):
        p, q = bool_var("p"), bool_var("q")
        prefix = GuardPrefix()
        prefix.push(p)
        fp1 = prefix.fingerprint()
        prefix.push(q)
        assert prefix.fingerprint() != fp1
        prefix.push(q)  # duplicate: no change
        assert prefix.fingerprint() == (p, q)
        prefix.pop()
        prefix.pop()
        assert prefix.fingerprint() == fp1


# ----- SinkReachabilityIndex -------------------------------------------------


def _graph(edges):
    vfg = ValueFlowGraph()
    for src, dst, kind, *rest in edges:
        callsite = rest[0] if rest else None
        vfg.add_edge(src, dst, TRUE, kind, callsite=callsite)
    return vfg


class TestSinkReachabilityIndex:
    def test_direct_chain(self):
        vfg = _graph([("a", "b", "direct"), ("b", "s", "direct")])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 0
        assert index.can_enter("a")
        assert not index.can_enter("unrelated")

    def test_dead_branch_excluded(self):
        vfg = _graph([("a", "b", "direct"), ("a", "dead", "direct")])
        index = SinkReachabilityIndex(vfg, {"b"})
        assert index.can_enter("a")
        assert not index.can_enter("dead")

    def test_ret_edge_requires_budget(self):
        # a -ret-> s: the path pops one base level, so entering `a` with
        # no pops available (inside a forked thread) is inadmissible.
        vfg = _graph([("a", "s", "ret", 7)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 1
        assert index.can_enter("a", avail=INFINITE_AVAIL)
        assert index.can_enter("a", avail=1)
        assert not index.can_enter("a", avail=0)

    def test_call_edge_absorbs_ret(self):
        # a -call-> b -ret-> s: balanced parentheses, zero net need.
        vfg = _graph([("a", "b", "call", 3), ("b", "s", "ret", 3)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 0
        assert index.min_need("b") == 1

    def test_fork_edge_rejects_pending_pops(self):
        # a -forkarg-> b -ret-> s: the suffix below the fork needs a pop,
        # but a fork marker can never be popped — `a` is unreachable.
        vfg = _graph([("a", "b", "forkarg", 1), ("b", "s", "ret", 2)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("b") == 1
        assert index.min_need("a") is None
        assert not index.can_enter("a")

    def test_fork_edge_admits_balanced_suffix(self):
        vfg = _graph([("a", "b", "forkarg", 1), ("b", "s", "direct")])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.min_need("a") == 0

    def test_num_sinks_counts_seeds_not_zero_needs(self):
        # The call edge gives `a` need 0 without making it a sink.
        vfg = _graph([("a", "s", "call", 1)])
        index = SinkReachabilityIndex(vfg, {"s"})
        assert index.num_sinks == 1
        assert index.min_need("a") == 0


class TestReachabilityIndexCache:
    def test_same_sink_set_shares_index(self):
        vfg = _graph([("a", "s", "direct")])
        cache = ReachabilityIndexCache()
        i1 = cache.get(vfg, {"s"})
        i2 = cache.get(vfg, {"s"})
        assert i1 is i2
        assert cache.builds == 1 and cache.shared_hits == 1

    def test_distinct_sink_sets_build_separately(self):
        vfg = _graph([("a", "s", "direct"), ("a", "t", "direct")])
        cache = ReachabilityIndexCache()
        assert cache.get(vfg, {"s"}) is not cache.get(vfg, {"t"})
        assert cache.builds == 2 and len(cache) == 2

    def test_mutation_invalidates_cached_index(self):
        vfg = _graph([("a", "s", "direct")])
        cache = ReachabilityIndexCache()
        stale = cache.get(vfg, {"s"})
        assert not stale.can_enter("b")
        vfg.add_edge("b", "a", TRUE, "direct")
        fresh = cache.get(vfg, {"s"})
        assert fresh is not stale
        assert fresh.can_enter("b")


# ----- end-to-end exactness --------------------------------------------------


def _keys(report):
    return sorted(b.key for b in report.bugs)


def _visits(report):
    return sum(st.get("visits", 0) for st in report.search_statistics.values())


_UNPRUNED = dict(
    sink_reachability=False, incremental_guard_pruning=False, dead_state_memo=False
)


class TestPrunedEquivalence:
    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_corpus_same_keys_and_fewer_visits(self, path):
        """The three prunes never change the reported bug keys, and never
        visit more nodes than the reference DFS."""
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        base = dict(checkers=checkers, **overrides)
        reference = Canary(AnalysisConfig(**_UNPRUNED, **base)).analyze_source(
            text, filename=path.name
        )
        pruned = Canary(AnalysisConfig(**base)).analyze_source(
            text, filename=path.name
        )
        assert _keys(reference) == _keys(pruned), path.name
        assert _visits(pruned) <= _visits(reference), path.name

    @pytest.mark.parametrize(
        "path", CORPUS_FILES[::3], ids=[p.stem for p in CORPUS_FILES[::3]]
    )
    @pytest.mark.parametrize("workers", [2, 8])
    def test_corpus_pool_matches_serial(self, path, workers):
        """The pruned search gives the same report list, in order, and the
        same enumeration counters whether the per-source loop runs in this
        process or across a detection pool."""
        text = path.read_text()
        _expects, checkers, overrides = _parse_directives(text)
        overrides.pop("detect_workers", None)
        base = dict(checkers=checkers, use_cache=False, **overrides)
        serial = Canary(AnalysisConfig(**base)).analyze_source(
            text, filename=path.name
        )
        pooled = Canary(
            AnalysisConfig(detect_workers=workers, **base)
        ).analyze_source(text, filename=path.name)
        assert report_list(pooled) == report_list(serial), path.name
        assert pooled.search_statistics == serial.search_statistics
        assert suppressed_list(pooled) == suppressed_list(serial)

    def test_pruning_actually_fires_somewhere(self):
        """At least one corpus program exercises each prune counter."""
        totals = {"pruned_unreachable": 0, "pruned_guard": 0}
        for path in CORPUS_FILES:
            text = path.read_text()
            _expects, checkers, overrides = _parse_directives(text)
            report = Canary(
                AnalysisConfig(checkers=checkers, **overrides)
            ).analyze_source(text, filename=path.name)
            for st in report.search_statistics.values():
                for key in totals:
                    totals[key] += st.get(key, 0)
        assert totals["pruned_unreachable"] > 0
        assert totals["pruned_guard"] > 0


# ----- truncation warnings and config plumbing -------------------------------


class TestTruncationWarnings:
    def test_depth_limit_surfaces_warning(self):
        report = Canary(AnalysisConfig(max_path_depth=1)).analyze_source(SIMPLE_UAF)
        assert any("max_depth" in w for w in report.truncation_warnings)
        assert "warning:" in report.describe_statistics()

    def test_visit_budget_surfaces_warning(self):
        report = Canary(AnalysisConfig(max_search_visits=1)).analyze_source(SIMPLE_UAF)
        assert any("max_visits" in w for w in report.truncation_warnings)

    def test_untruncated_run_has_no_warnings(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert report.truncation_warnings == []

    def test_enumeration_line_in_statistics(self):
        report = Canary(AnalysisConfig()).analyze_source(SIMPLE_UAF)
        assert "enumeration:" in report.describe_statistics()
        assert _visits(report) > 0


class TestCliFlags:
    def test_max_depth_flag_truncates(self, capsys):
        rc = repro_main(
            [str(CORPUS / "uaf_basic.mcc"), "--max-depth", "1", "--stats"]
        )
        out = capsys.readouterr().out
        assert rc == 0  # too shallow to reach the sink: no findings
        assert "max_depth" in out

    def test_max_visits_flag_accepted(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc"), "--max-visits", "100000"])
        assert rc == 1
        assert "1 finding(s)" in capsys.readouterr().out

    def test_max_paths_flag_accepted(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc"), "--max-paths", "64"])
        assert rc == 1

    def test_no_pruning_flag_same_findings(self, capsys):
        rc = repro_main([str(CORPUS / "uaf_basic.mcc"), "--no-pruning"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "use-after-free" in out
