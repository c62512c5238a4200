"""The per-function summary layer (:mod:`repro.vfg.summaries`).

Covers the exactness contract (identical adjacency, identical bug keys
with summaries on/off), the artifact round-trip (compute → persist →
demand-load), single-edit invalidation (exactly one summary
recomputed), and degradation (a crashing summaries pass falls back to
the unsharded fixpoint without losing findings).
"""

import pytest

from repro import AnalysisConfig, Canary
from repro.testing import faults
from repro.testing.faults import FaultPlan, inject
from repro.vfg.summaries import FunctionVFSummary, compute_summaries

from fuzz_gen import scaled_program
from test_corpus import CORPUS_FILES, _parse_directives

SUBJECT = """
void helper(int** s, int* p) { *s = p; }
void worker(int** s) { int* b = malloc(); helper(s, b); free(b); }
void main() {
    int** slot = malloc();
    int* init = malloc();
    *slot = init;
    fork(t, worker, slot);
    int* v = *slot;
    print(*v);
}
"""

SUBJECT_EDITED = SUBJECT.replace("print(*v);", "print(*v);\n    int z = 1 + 2;")

SCALED = scaled_program(n_groups=6, helpers_per_group=3)


@pytest.fixture(autouse=True)
def _disarm_faults():
    yield
    faults.clear()


def _keys(report):
    return sorted(b.key for b in report.bugs)


def _run(text, **overrides):
    overrides.setdefault("use_cache", False)
    return Canary(AnalysisConfig(**overrides)).analyze_source(text)


class TestExactness:
    def test_view_matches_vfg_adjacency_everywhere(self):
        report = _run(SUBJECT)
        index = report.bundle.summary_index
        assert index is not None
        view = index.view
        # Force every node through the demand loader, then compare each
        # materialized list to the real VFG's — same edges, same order.
        vfg = report.bundle.vfg
        for node in list(vfg.nodes()):
            assert view.out_edges(node) == vfg.out_edges(node)
        view.assert_consistent()
        stats = view.statistics()
        assert stats["shards_loaded"] == stats["shards_total"] == 3

    def test_vfg_summary_identical_on_off(self):
        on = _run(SUBJECT)
        off = _run(SUBJECT, summaries=False)
        assert _keys(on) == _keys(off)
        assert on.vfg_summary == off.vfg_summary
        assert off.bundle.summary_index is None
        assert off.bundle.graph_view() is off.bundle.vfg

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_corpus_keys_equal_on_off(self, path):
        text = path.read_text()
        expects, checkers, config = _parse_directives(text)
        base = dict(config, checkers=checkers, use_cache=False)
        on = Canary(AnalysisConfig(**base)).analyze_source(text)
        off = Canary(AnalysisConfig(**base, summaries=False)).analyze_source(text)
        assert _keys(on) == _keys(off)

    def test_scaled_subject_equal_on_off(self):
        ref = _run(SCALED, summaries=False)
        rep = _run(SCALED)
        assert _keys(rep) == _keys(ref)
        assert len(_keys(rep)) == 2  # the generator's deterministic bugs
        assert rep.vfg_summary == ref.vfg_summary
        snap = rep.metrics.snapshot()
        assert snap["summary.computed"] == snap["summary.functions"]


class TestArtifactRoundTrip:
    def test_persist_and_demand_load_identical_edges(self):
        canary = Canary(AnalysisConfig())
        first = canary.analyze_source(SUBJECT, filename="s.mcc")
        second = canary.analyze_source(SUBJECT_EDITED, filename="s.mcc")
        snap = second.metrics.snapshot()
        # Replayed functions demand-load their persisted summaries; only
        # the edited function (main, last in the bottom-up order) is
        # fingerprinted again.
        assert snap["summary.cache_hits"] == 2
        assert snap["summary.computed"] == 1
        rerun = [
            row["name"].split(":", 1)[1]
            for row in second.pass_statistics
            if row["name"].startswith("dataflow:") and row["status"] == "run"
        ]
        assert rerun == ["main"]
        # Reused summaries are the same artifacts, not recomputed equals.
        assert (
            second.bundle.summary_index.summaries["worker"]
            is first.bundle.summary_index.summaries["worker"]
        )
        cold = _run(SUBJECT_EDITED)
        assert _keys(second) == _keys(cold) == _keys(first)
        assert second.vfg_summary == cold.vfg_summary

    def test_summary_artifact_content(self):
        report = _run(SUBJECT)
        index = report.bundle.summary_index
        summary = index.summaries["worker"]
        assert isinstance(summary, FunctionVFSummary)
        assert summary.fingerprint and len(summary.fingerprint) == 64
        start, end = summary.edge_span
        assert end > start
        # Site positions point back into the global site lists and stay
        # inside the function's own extent.
        dataflow = report.bundle.dataflow
        for positions in summary.ptr_stores.values():
            for pos in positions:
                assert summary.extent[2] <= pos < summary.extent[3]
                assert dataflow.all_stores[pos].pointer in summary.ptr_stores

    def test_fingerprint_tracks_function_content(self):
        # Within one driver the edited function gets a new fingerprint
        # while untouched functions keep their (reused) artifacts.
        canary = Canary(AnalysisConfig())
        first = canary.analyze_source(SUBJECT, filename="s.mcc")
        second = canary.analyze_source(SUBJECT_EDITED, filename="s.mcc")
        fps1 = {n: s.fingerprint for n, s in first.bundle.summary_index.summaries.items()}
        fps2 = {n: s.fingerprint for n, s in second.bundle.summary_index.summaries.items()}
        assert fps1["helper"] == fps2["helper"]
        assert fps1["worker"] == fps2["worker"]
        assert fps1["main"] != fps2["main"]

    def test_compute_summaries_direct(self):
        report = _run(SUBJECT)
        dataflow = report.bundle.dataflow
        index = compute_summaries(dataflow)
        assert set(index.summaries) == {"helper", "worker", "main"}
        total_span = sum(s.num_edges for s in index.summaries.values())
        # Every dataflow edge is owned by exactly one function span; the
        # difference to num_edges is the interference overlay.
        assert total_span <= dataflow.vfg.num_edges


class TestDiskNamespace:
    """The portable on-disk summary namespace: entries keyed by
    content-derived identity, shared across independent processes."""

    def _vfs_files(self, directory):
        import glob
        import os

        return sorted(glob.glob(os.path.join(str(directory), "vfs-*.json")))

    def test_roundtrip_across_instances(self, tmp_path):
        d = str(tmp_path)
        cold = Canary(AnalysisConfig(cache_dir=d, summary_cache_dir=d)).analyze_source(
            SUBJECT
        )
        snap = cold.metrics.snapshot()
        assert snap["summary.disk_stores"] == 3
        assert len(self._vfs_files(tmp_path)) == 3
        # A *fresh* instance (fresh in-memory store — stands in for a new
        # process) analyzing an edited source: the run digest misses, but
        # every unchanged function rehydrates from disk.
        warm = Canary(AnalysisConfig(cache_dir=d, summary_cache_dir=d)).analyze_source(
            SUBJECT_EDITED
        )
        snap2 = warm.metrics.snapshot()
        assert snap2["summary.disk_hits"] == 2
        assert snap2["summary.computed"] == 1
        ref = _run(SUBJECT_EDITED)
        assert _keys(warm) == _keys(ref)
        assert warm.vfg_summary == ref.vfg_summary

    def test_corrupt_entries_recompute_and_heal(self, tmp_path):
        d = str(tmp_path)
        Canary(AnalysisConfig(cache_dir=d, summary_cache_dir=d)).analyze_source(SUBJECT)
        for path in self._vfs_files(tmp_path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("{truncated by a killed writer")
        rep = Canary(AnalysisConfig(cache_dir=d, summary_cache_dir=d)).analyze_source(
            SUBJECT_EDITED
        )
        snap = rep.metrics.snapshot()
        # The two unchanged functions were requested, found corrupt, and
        # recomputed — never a run failure, never a wrong answer.
        assert rep.cache_statistics["disk_corrupt"] == 2
        assert snap.get("summary.disk_hits", 0) == 0
        assert snap["summary.computed"] == 3
        assert _keys(rep) == _keys(_run(SUBJECT_EDITED))
        # Recomputation heals every requested entry in place.
        import json

        healed = 0
        for path in self._vfs_files(tmp_path):
            try:
                json.load(open(path, encoding="utf-8"))
                healed += 1
            except ValueError:
                pass
        assert healed >= 3

    def test_summary_cache_dir_routes_vfs_entries(self, tmp_path):
        runs = tmp_path / "runs"
        sums = tmp_path / "sums"
        runs.mkdir()
        sums.mkdir()
        Canary(
            AnalysisConfig(cache_dir=str(runs), summary_cache_dir=str(sums))
        ).analyze_source(SUBJECT)
        assert len(self._vfs_files(sums)) == 3
        assert not self._vfs_files(runs)

    def test_disk_layer_inactive_without_cache(self, tmp_path):
        rep = _run(SUBJECT)  # use_cache=False
        snap = rep.metrics.snapshot()
        assert "summary.disk_stores" not in snap
        assert "summary.disk_hits" not in snap
        assert not self._vfs_files(tmp_path)


class TestDegradation:
    def test_crashing_summaries_pass_keeps_findings(self):
        with inject(FaultPlan.make(crash=["pass:summaries"])):
            rep = _run(SUBJECT)
        # The summary layer is an accelerator: losing it degrades to the
        # unsharded fixpoint, not to an empty report.
        assert len(_keys(rep)) == 1
        assert rep.bundle.summary_index is None
        failed = [r for r in rep.pass_statistics if r["status"] == "failed"]
        assert [r["name"] for r in failed] == ["summaries"]
        assert any("summary layer" in w for w in rep.degradation_warnings)
        assert _keys(rep) == _keys(_run(SUBJECT))


class TestMetricsAndObservability:
    def test_interference_convergence_metrics(self):
        rep = _run(SCALED)
        snap = rep.metrics.snapshot()
        assert snap["interference.rounds"] == rep.vfg_summary["fixpoint_rounds"]
        assert (
            snap["interference.interference_edges"]
            == rep.vfg_summary["interference_edges"]
        )
        assert snap["interference.edges_added"] >= snap["interference.interference_edges"]
        assert snap["interference.escaped_objects"] == rep.vfg_summary["escaped_objects"]
        assert "interference.widenings" in snap

    def test_metrics_present_without_summaries(self):
        rep = _run(SUBJECT, summaries=False)
        snap = rep.metrics.snapshot()
        assert "interference.rounds" in snap
        assert "summary.functions" not in snap

    def test_demand_loading_skips_untouched_shards(self):
        # Dead helper functions publish nothing and are unreachable from
        # any escaped object or enumerated path: their shards must never
        # materialize.
        text = SUBJECT + "\nvoid dead1() { int a = 1 + 2; }\nvoid dead2() { int b = 2 + 3; }\n"
        rep = _run(text)
        stats = rep.bundle.summary_index.view.statistics()
        assert stats["shards_total"] == 5
        assert stats["shards_loaded"] < stats["shards_total"]

    def test_summaries_pass_row_present(self):
        rep = _run(SUBJECT)
        rows = {r["name"]: r for r in rep.pass_statistics}
        assert rows["summaries"]["status"] == "run"
        assert "3 summaries" in rows["summaries"]["detail"]
