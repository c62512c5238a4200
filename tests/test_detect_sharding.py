"""The detection pool (:class:`repro.checkers.base.SourceSinkChecker`
with ``detect_workers > 1``).

The contract is byte-identical results: each worker runs the serial
per-source loop over its part of the sources, the sources of one
statement stay in one part (they share the per-key dedup), and the
parent merges the per-source outcomes in source order.  So the report
list — keys, paths and witnesses, in order — the suppressed candidates
and the search statistics equal the serial run's at every width.
Degradation: a dying pool falls back to the in-process loop with the
same reports.
"""

from types import SimpleNamespace

import pytest

from repro import AnalysisConfig, Canary
from repro.analysis.budget import Budget
from repro.checkers import UseAfterFreeChecker
from repro.checkers.base import partition_sources
from repro.testing import faults
from repro.testing.faults import FaultPlan, inject

from fuzz_gen import detection_scaled_program, scaled_program
from test_corpus import CORPUS_FILES, _parse_directives
from test_parallel_engine import report_list, suppressed_list

SCALED = scaled_program(n_groups=10, helpers_per_group=2)
DETECT_HEAVY = detection_scaled_program(n_threads=8, n_slots=2, pad_functions=4)

SHARDING_CORPUS = [
    p
    for p in CORPUS_FILES
    if p.stem
    in {
        "mixed_all_checkers",
        "doublefree_cross_thread",
        "uaf_sibling_threads",
        "nullderef_shared",
        "leak_shared_memory",
        "uaf_guarded_infeasible",
    }
]


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.clear()


def _run(text, **overrides):
    overrides.setdefault("use_cache", False)
    return Canary(AnalysisConfig(**overrides)).analyze_source(text)


def _sources(labels):
    """Fake source triples: only the statement label matters."""
    return [(None, SimpleNamespace(label=label), None) for label in labels]


class TestPartition:
    def test_sources_of_one_statement_share_a_part(self):
        parts = partition_sources(_sources([9, 3, 9, 7, 3, 4]), 3)
        flat = sorted(idx for part in parts for idx, _label in part)
        assert flat == list(range(6))
        owner = {label: i for i, part in enumerate(parts) for _idx, label in part}
        for i, part in enumerate(parts):
            assert all(owner[label] == i for _idx, label in part)

    def test_round_robin_is_deterministic_and_disjoint(self):
        # Label groups are dealt in order of first appearance.
        parts = partition_sources(_sources([9, 3, 9, 7, 3, 4]), 2)
        assert parts == [((0, 9), (2, 9), (3, 7)), ((1, 3), (4, 3), (5, 4))]
        assert parts == partition_sources(_sources([9, 3, 9, 7, 3, 4]), 2)

    def test_empty_buckets_dropped(self):
        assert partition_sources(_sources([5, 5]), 4) == [((0, 5), (1, 5))]
        assert partition_sources([], 4) == []

    def test_single_shard(self):
        assert partition_sources(_sources([2, 1]), 1) == [((0, 2), (1, 1))]


class TestExactness:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_scaled_subject_equal_at_every_width(self, workers):
        ref = _run(SCALED)
        rep = _run(SCALED, detect_workers=workers)
        assert report_list(rep) == report_list(ref)
        assert rep.vfg_summary == ref.vfg_summary
        assert rep.metrics.snapshot().get("detect.shards", 0) >= 2

    @pytest.mark.parametrize("workers", [2, 8])
    def test_detection_heavy_subject(self, workers):
        ref = _run(DETECT_HEAVY)
        rep = _run(DETECT_HEAVY, detect_workers=workers)
        assert report_list(rep) == report_list(ref)
        # Each source is searched by exactly one worker, so the merged
        # counters describe the same single search.
        assert rep.search_statistics == ref.search_statistics
        assert rep.checker_statistics == ref.checker_statistics
        assert rep.solver_statistics["queries"] == ref.solver_statistics["queries"]

    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize(
        "path", SHARDING_CORPUS, ids=[p.stem for p in SHARDING_CORPUS]
    )
    def test_corpus_keys_equal(self, path, workers):
        text = path.read_text()
        _expects, checkers, config = _parse_directives(text)
        base = dict(config, checkers=checkers, use_cache=False)
        ref = Canary(AnalysisConfig(**base)).analyze_source(text)
        rep = Canary(AnalysisConfig(**base, detect_workers=workers)).analyze_source(text)
        assert report_list(rep) == report_list(ref)
        assert rep.search_statistics == ref.search_statistics

    @pytest.mark.parametrize("stem", ["clean_handoff", "mixed_all_checkers"])
    def test_suppressed_candidates_equal_at_width_two(self, stem):
        # Suppressed-candidate diagnostics run in the workers too: each
        # refutation is explained where it was solved.
        text = (CORPUS_FILES[0].parent / f"{stem}.mcc").read_text()
        _expects, checkers, config = _parse_directives(text)
        base = dict(config, checkers=checkers, collect_suppressed=True)
        ref = _run(text, **base)
        rep = _run(text, detect_workers=2, **base)
        assert rep.metrics.snapshot().get("detect.shards", 0) >= 2
        assert rep.suppressed
        assert suppressed_list(rep) == suppressed_list(ref)
        assert report_list(rep) == report_list(ref)
        assert rep.search_statistics == ref.search_statistics


class TestDegradation:
    def test_shard_pool_death_falls_back(self):
        ref = _run(SCALED)
        with inject(FaultPlan.make(die=["worker:detect"])):
            rep = _run(SCALED, detect_workers=4)
        assert report_list(rep) == report_list(ref)
        assert rep.search_statistics == ref.search_statistics
        snap = rep.metrics.snapshot()
        assert snap.get("solver.pool_failures", 0) >= 1
        assert "detect.shards" not in snap
        assert any("worker failure" in w for w in rep.degradation_warnings)

    def test_shard_pool_death_die_once(self, tmp_path):
        ref = _run(SCALED)
        plan = FaultPlan.make(
            die=["worker:detect"], die_once_path=str(tmp_path / "died")
        )
        with inject(plan):
            rep = _run(SCALED, detect_workers=4)
        assert report_list(rep) == report_list(ref)
        assert rep.metrics.snapshot().get("solver.pool_failures", 0) >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_expired_wall_budget_stops_every_source(self, workers):
        # Workers get the wall time that remains, so an expired run
        # budget stops them before their first source, as it stops the
        # in-process loop.
        bundle = _run(DETECT_HEAVY).bundle
        budget = Budget(wall_seconds=0.0)
        checker = UseAfterFreeChecker(bundle, budget=budget, detect_workers=workers)
        assert checker.run() == []
        assert checker.statistics["sources"] > 1
        assert checker.search_stats.visits == 0
        assert budget.expirations == ["checker:use-after-free"]
        pooled = "detect.shards" in checker.realizability.metrics.snapshot()
        assert pooled == (workers > 1)
