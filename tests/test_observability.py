"""The unified observability layer: tracer, metrics, exporters, gates.

Covers the guarantees ``docs/architecture.md`` §12 documents:

* span nesting/ordering on one thread, explicit parenting across helper
  threads, and cross-process propagation through the solver pool;
* zero overhead with tracing off (the default);
* the :class:`~repro.obs.metrics.MetricsRegistry` instruments and the
  legacy ``AnalysisReport`` accessors being exact views over it;
* exporter round-trips and both directions of every schema validator;
* the ``repro.bench.compare_baselines`` benchmark-regression gate.
"""

import json
import pathlib
import pickle

import pytest

from programs import SIMPLE_UAF
from repro import AnalysisConfig, Canary
from repro.__main__ import main as repro_main
from repro.analysis.driver import AnalysisReport
from repro.bench.baseline import load_bench_results, write_bench_results
from repro.bench.compare_baselines import (
    compare_documents,
    is_timing_key,
    main as compare_main,
    render_deltas,
)
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    SchemaError,
    SpanContext,
    SpanRecorder,
    Tracer,
    read_trace_ndjson,
    run_meta,
    validate_chrome_trace_file,
    validate_metrics_file,
    validate_trace_file,
    write_chrome_trace,
    write_metrics_json,
    write_trace_ndjson,
)
from repro.obs.export import spans_to_chrome_events
from repro.obs.schema import validate_metrics_doc, validate_span
from repro.obs.tracer import NULL_SPAN
from repro.obs.__main__ import main as obs_main

CORPUS = pathlib.Path(__file__).parent / "corpus"


# ----- tracer: nesting, ordering, attributes ---------------------------------


class TestSpans:
    def test_nesting_and_finish_order(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # children finish (and are appended) before their parents
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert inner.end is not None and inner.end >= inner.start
        assert outer.trace_id == inner.trace_id == tracer.trace_id

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = tracer.spans_named("a")[0], tracer.spans_named("b")[0]
        root = tracer.spans_named("root")[0]
        assert a.parent_id == b.parent_id == root.span_id

    def test_attrs_coerced_to_json_scalars(self):
        tracer = Tracer()
        with tracer.span("s", n=3, label="x") as span:
            span.set("obj", object())
        rec = tracer.finished[0]
        assert rec.attrs["n"] == 3 and rec.attrs["label"] == "x"
        assert isinstance(rec.attrs["obj"], str)  # repr()-coerced
        validate_span(rec.as_dict())

    def test_exception_recorded_and_span_closed(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        span = tracer.finished[0]
        assert span.end is not None
        assert "ValueError" in span.attrs["error"]
        assert tracer.current_context() is None  # stack unwound

    def test_explicit_parent_does_not_join_ambient_stack(self):
        # A span parented explicitly (helper-thread work attached to its
        # logical parent) must not become the calling thread's "current"
        # span.
        tracer = Tracer()
        with tracer.span("root") as root:
            ctx = root.context()
            detached = tracer.span("helper", parent=ctx)
            assert tracer.current_context() == ctx  # not the helper
            with tracer.span("child") as child:
                assert child.parent_id == root.span_id
            detached.__exit__(None, None, None)
        helper = tracer.spans_named("helper")[0]
        assert helper.parent_id == root.span_id

    def test_current_context_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current_context() is None
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current_context() == inner.context()
        assert tracer.current_context() is None


class TestDisabledTracer:
    def test_null_tracer_span_is_shared_singleton(self):
        # the off path allocates nothing: every call returns NULL_SPAN
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert NULL_TRACER.span("y", parent=SpanContext("t", "s")) is NULL_SPAN
        assert NULL_SPAN.set("k", "v") is NULL_SPAN
        assert NULL_SPAN.context() is None

    def test_null_tracer_collects_and_ingests_nothing(self):
        with NULL_TRACER.span("ignored"):
            pass
        assert NULL_TRACER.finished == []
        assert NULL_TRACER.current_context() is None
        assert NULL_TRACER.recorder() is None
        assert NULL_TRACER.ingest([{"name": "x"}]) == 0

    def test_canary_defaults_to_disabled_tracing(self):
        canary = Canary(AnalysisConfig(use_cache=False))
        assert canary.tracer is NULL_TRACER
        report = canary.analyze_source(SIMPLE_UAF)
        assert report.num_reports >= 1
        assert NULL_TRACER.finished == []


# ----- cross-process span propagation ----------------------------------------


class TestSpanRecorder:
    def test_recorder_round_trips_through_pickle(self):
        ctx = SpanContext("deadbeef", "s7")
        recorder = SpanRecorder(ctx)
        shipped = pickle.loads(pickle.dumps(recorder))  # parent -> worker
        with shipped.span("solver.query", pooled=True):
            with shipped.span("solver.solve") as solve:
                solve.set("verdict", "sat")
        records = pickle.loads(pickle.dumps(shipped.records))  # worker -> parent
        assert records[0]["parent_index"] is None
        assert records[0]["parent_ctx"] == ("deadbeef", "s7")
        assert records[1]["parent_index"] == 0
        assert records[1]["attrs"]["verdict"] == "sat"

    def test_ingest_rebuilds_subtree_under_parent_ctx(self):
        tracer = Tracer()
        with tracer.span("checker") as parent:
            recorder = tracer.recorder(parent.context())
            with recorder.span("solver.query"):
                with recorder.span("solver.solve"):
                    pass
            assert tracer.ingest(recorder.records) == 2
        by_name = {s.name: s for s in tracer.finished}
        assert by_name["solver.query"].parent_id == parent.span_id
        assert by_name["solver.solve"].parent_id == by_name["solver.query"].span_id

    def test_record_span_attaches_posthoc_work(self):
        recorder = SpanRecorder(None)
        with recorder.span("solver.solve"):
            recorder.record_span("solver.cube", 10.0, 11.5, index=0, verdict="unsat")
        cube = recorder.records[1]
        assert cube["start"] == 10.0 and cube["end"] == 11.5
        assert cube["parent_index"] == 0
        assert cube["attrs"] == {"index": 0, "verdict": "unsat"}

    def test_solver_queries_nest_under_checker_span(self):
        # Every solver.query span nests under the checker span that
        # asked it, inside the one trace of the run.
        tracer = Tracer()
        config = AnalysisConfig(use_cache=False)
        report = Canary(config, tracer=tracer).analyze_source(SIMPLE_UAF)
        assert report.num_reports >= 1
        by_id = {s.span_id: s for s in tracer.finished}

        def ancestors(span):
            names = []
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                names.append(span.name)
            return names

        queries = tracer.spans_named("solver.query")
        assert queries, "no solver.query spans recorded"
        for query in queries:
            chain = ancestors(query)
            assert any(name.startswith("pass:detect:") for name in chain), chain
            assert chain[-1] == "analyze"
        solves = tracer.spans_named("solver.solve")
        assert solves, "no solver.solve spans recorded"
        assert all(by_id[s.parent_id].name == "solver.query" for s in solves)
        # every span of the run belongs to one trace, no dangling parents
        assert all(s.parent_id is None or s.parent_id in by_id for s in tracer.finished)


# ----- metrics registry ------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_promotion_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("solver.queries")
        reg.inc("solver.queries", 2)
        reg.counter("solver.solve_seconds").add(0.0)
        reg.counter("solver.solve_seconds").add(0.25)
        assert reg.value("solver.queries") == 3
        assert reg.value("solver.solve_seconds") == 0.25
        reg.inc("search.visits", 5, checker="use-after-free")
        assert reg.value("search.visits", checker="use-after-free") == 5
        assert reg.value("search.visits") is None  # unlabeled is distinct

    def test_namespace_view_preserves_insertion_order(self):
        reg = MetricsRegistry()
        for key in ("queries", "sat", "unsat", "unknown"):
            reg.counter(f"solver.{key}")
        assert list(reg.namespace("solver")) == ["queries", "sat", "unsat", "unknown"]

    def test_namespace_label_filtering(self):
        reg = MetricsRegistry()
        reg.inc("checker.sources", 4, checker="uaf")
        reg.inc("checker.sources", 2, checker="df")
        reg.inc("checker.unlabeled", 1)
        assert reg.namespace("checker", label=("checker", "uaf")) == {"sources": 4}
        assert reg.namespace("checker") == {"unlabeled": 1}
        assert reg.label_values("checker", "checker") == ["uaf", "df"]

    def test_series_and_snapshot(self):
        reg = MetricsRegistry()
        reg.append("passes", name="parse", status="ran")
        reg.append("passes", name="lower", status="cached")
        reg.inc("cache.hits", 2)
        reg.set("vfg.nodes", 17)
        reg.observe("solver.latency", 0.5)
        reg.observe("solver.latency", 1.5)
        snap = reg.snapshot()
        assert snap["cache.hits"] == 2
        assert snap["vfg.nodes"] == 17
        assert snap["passes"] == [
            {"name": "parse", "status": "ran"},
            {"name": "lower", "status": "cached"},
        ]
        assert snap["solver.latency.count"] == 2
        assert snap["solver.latency.sum"] == 2.0
        assert snap["solver.latency.min"] == 0.5
        assert snap["solver.latency.max"] == 1.5
        assert list(snap) == sorted(snap)
        validate_metrics_doc({"meta": run_meta(), "metrics": snap})

    def test_clear_namespace(self):
        reg = MetricsRegistry()
        reg.inc("solver.queries")
        reg.set("vfg.nodes", 1)
        reg.clear_namespace("solver")
        assert reg.namespace("solver") == {}
        assert reg.value("vfg.nodes") == 1


class TestLegacyAccessorEquivalence:
    """AnalysisReport's historical dict accessors are views over the
    registry: seeding from legacy kwargs must reproduce the dicts
    exactly, including key order."""

    SOLVER = {"queries": 7, "sat": 3, "unsat": 4, "solve_seconds": 0.125}
    CHECKER = {"use-after-free": {"sources": 2, "sinks": 5}}
    SEARCH = {"use-after-free": {"visits": 40, "paths": 6}}
    VFG = {"nodes": 11, "edges": 30}
    TIMINGS = {"parse": 0.01, "solving": 0.2}
    PASSES = [{"name": "parse", "status": "ran"}]
    CACHE = {"hits": 1, "misses": 2}

    def _report(self):
        return AnalysisReport(
            vfg_summary=dict(self.VFG),
            timings=dict(self.TIMINGS),
            peak_memory_bytes=4096,
            solver_statistics=dict(self.SOLVER),
            checker_statistics={k: dict(v) for k, v in self.CHECKER.items()},
            search_statistics={k: dict(v) for k, v in self.SEARCH.items()},
            pass_statistics=[dict(r) for r in self.PASSES],
            cache_statistics=dict(self.CACHE),
        )

    def test_round_trip_shapes_and_order(self):
        report = self._report()
        assert report.solver_statistics == self.SOLVER
        assert list(report.solver_statistics) == list(self.SOLVER)
        assert report.checker_statistics == self.CHECKER
        assert report.search_statistics == self.SEARCH
        assert report.vfg_summary == self.VFG
        assert report.timings == self.TIMINGS
        assert report.pass_statistics == self.PASSES
        assert report.cache_statistics == self.CACHE
        assert report.peak_memory_bytes == 4096
        # float promotion survived the seed
        assert isinstance(report.solver_statistics["solve_seconds"], float)

    def test_accessors_are_registry_views(self):
        report = self._report()
        report.metrics.inc("solver.queries", 3)
        assert report.solver_statistics["queries"] == self.SOLVER["queries"] + 3
        assert report.metrics.value("vfg.nodes") == self.VFG["nodes"]

    def test_live_run_exposes_registry_and_identical_stats(self):
        config = AnalysisConfig(use_cache=False)
        report = Canary(config).analyze_source(SIMPLE_UAF)
        snap = report.metrics.snapshot()
        assert report.solver_statistics["queries"] == snap["solver.queries"]
        assert "parse" in report.timings
        text = report.describe_statistics()
        assert "solver:" in text and "queries" in text


# ----- exporters and schema validators ---------------------------------------


def _sample_tracer():
    tracer = Tracer()
    with tracer.span("analyze", file="x.mcc"):
        with tracer.span("pass:parse"):
            pass
        with tracer.span("solver.query") as q:
            q.set("verdict", "sat")
    return tracer


class TestExporters:
    def test_run_meta_block(self):
        meta = run_meta(config_digest="abc123", suite="enumeration")
        for key in ("schema", "git_sha", "python", "platform", "timestamp"):
            assert key in meta
        assert meta["config_digest"] == "abc123"
        assert meta["suite"] == "enumeration"

    def test_ndjson_round_trip(self, tmp_path):
        tracer = _sample_tracer()
        out = tmp_path / "trace.ndjson"
        assert write_trace_ndjson(tracer.finished, out) == 3
        assert validate_trace_file(out) == 3
        records = read_trace_ndjson(out)
        assert [r["name"] for r in records] == [s.name for s in tracer.finished]
        assert records == [s.as_dict() for s in tracer.finished]

    def test_chrome_trace_export(self, tmp_path):
        tracer = _sample_tracer()
        out = tmp_path / "trace.chrome.json"
        assert write_chrome_trace(tracer.finished, out) == 3
        assert validate_chrome_trace_file(out) == 3
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert all(ev["ph"] == "X" for ev in events)
        by_name = {ev["name"]: ev for ev in events}
        root = by_name["analyze"]
        assert by_name["pass:parse"]["args"]["parent_id"] == root["args"]["span_id"]
        assert by_name["solver.query"]["args"]["verdict"] == "sat"
        # timestamps/durations are microseconds
        span = tracer.spans_named("analyze")[0]
        assert root["ts"] == pytest.approx(span.start * 1e6)
        assert root["dur"] == pytest.approx((span.end - span.start) * 1e6)

    def test_chrome_events_keep_worker_pid(self):
        tracer = Tracer()
        with tracer.span("checker") as parent:
            recorder = SpanRecorder(parent.context())
            recorder.record_span("solver.cube", 1.0, 2.0)
            recorder.records[-1]["pid"] = 99999  # as if from a pool worker
            tracer.ingest(recorder.records)
        events = spans_to_chrome_events(tracer.finished)
        assert {ev["pid"] for ev in events} >= {99999}

    def test_metrics_json_single_registry(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("solver.queries", 2)
        out = tmp_path / "metrics.json"
        doc = write_metrics_json(out, registry=reg, config_digest="cfg")
        assert doc["metrics"]["solver.queries"] == 2
        assert doc["meta"]["config_digest"] == "cfg"
        assert validate_metrics_file(out) == 1

    def test_metrics_json_multi_file(self, tmp_path):
        out = tmp_path / "metrics.json"
        write_metrics_json(
            out, files={"a.mcc": {"solver.queries": 1}, "b.mcc": {"cache.hits": 0}}
        )
        assert validate_metrics_file(out) == 2


class TestSchemaRejections:
    def test_trace_missing_meta_line(self, tmp_path):
        tracer = _sample_tracer()
        bad = tmp_path / "bad.ndjson"
        bad.write_text(
            "\n".join(json.dumps(s.as_dict()) for s in tracer.finished) + "\n"
        )
        with pytest.raises(SchemaError, match="no meta record"):
            validate_trace_file(bad)

    def test_trace_dangling_parent(self, tmp_path):
        tracer = _sample_tracer()
        spans = [s.as_dict() for s in tracer.finished]
        spans[0]["parent_id"] = "s999"
        bad = tmp_path / "bad.ndjson"
        bad.write_text(
            json.dumps({"meta": run_meta(), "kind": "trace"})
            + "\n"
            + "\n".join(json.dumps(s) for s in spans)
        )
        with pytest.raises(SchemaError, match="dangling parent"):
            validate_trace_file(bad)

    def test_span_end_before_start(self):
        tracer = _sample_tracer()
        span = tracer.finished[0].as_dict()
        span["end"] = span["start"] - 1.0
        with pytest.raises(SchemaError, match="end precedes start"):
            validate_span(span)

    def test_chrome_event_without_dur(self, tmp_path):
        bad = tmp_path / "bad.chrome.json"
        bad.write_text(
            json.dumps(
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]}
            )
        )
        with pytest.raises(SchemaError, match="without dur"):
            validate_chrome_trace_file(bad)

    def test_metrics_non_numeric_value(self):
        doc = {"meta": run_meta(), "metrics": {"solver.queries": "three"}}
        with pytest.raises(SchemaError, match="must be numeric"):
            validate_metrics_doc(doc)

    def test_validate_cli(self, tmp_path, capsys):
        tracer = _sample_tracer()
        good = tmp_path / "trace.ndjson"
        write_trace_ndjson(tracer.finished, good)
        assert obs_main(["validate", "--trace", str(good)]) == 0
        bad = tmp_path / "bad.ndjson"
        bad.write_text("{}\n")
        assert obs_main(["validate", "--trace", str(bad)]) == 1
        assert obs_main(["validate", "--trace", str(tmp_path / "absent")]) == 2


# ----- CLI exporters end-to-end ----------------------------------------------


class TestCliExport:
    def test_analyzer_writes_all_three_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "t.ndjson"
        chrome = tmp_path / "t.chrome.json"
        metrics = tmp_path / "m.json"
        rc = repro_main(
            [
                str(CORPUS / "uaf_basic.mcc"),
                "--trace-out",
                str(trace),
                "--trace-chrome",
                str(chrome),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 1  # findings present
        assert validate_trace_file(trace) > 0
        assert validate_chrome_trace_file(chrome) > 0
        assert validate_metrics_file(metrics) > 0
        doc = json.loads(metrics.read_text())
        (file_metrics,) = doc["files"].values()
        assert file_metrics["solver.queries"] >= 1
        assert "config_digest" in doc["meta"]
        names = {r["name"] for r in read_trace_ndjson(trace)}
        assert "analyze" in names
        assert any(n.startswith("pass:") for n in names)
        assert "solver.query" in names


# ----- benchmark baselines and the regression gate ---------------------------


class TestBenchBaselines:
    RESULTS = {
        "dead_fanout": {
            "reference_visits": 125,
            "pruned_visits": 5,
            "visit_reduction": 0.96,
            "reference_wall_s": 0.10,
            "pruned_wall_s": 0.01,
        },
        "warm": {"speedup": 20.0, "warm_seconds": 0.001, "cold_passes_run": 19},
    }

    def _write(self, path, results):
        write_bench_results(path, results)

    def test_write_stamps_meta_and_load_strips_it(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        self._write(path, self.RESULTS)
        doc = json.loads(path.read_text())
        assert "meta" in doc and "git_sha" in doc["meta"]
        meta, results = load_bench_results(path)
        assert meta == doc["meta"]
        assert results == self.RESULTS

    def test_reserved_meta_name_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench_results(tmp_path / "x.json", {"meta": {}})

    def test_loading_pre_meta_baseline(self, tmp_path):
        # baselines committed before the observability layer have no meta
        path = tmp_path / "old.json"
        path.write_text(json.dumps(self.RESULTS))
        meta, results = load_bench_results(path)
        assert meta == {}
        assert results == self.RESULTS

    def test_timing_key_classification(self):
        assert is_timing_key("reference_wall_s")
        assert is_timing_key("cold_seconds")
        assert is_timing_key("speedup")
        assert not is_timing_key("visit_reduction")
        assert not is_timing_key("passes_rerun")

    def test_identical_documents_pass(self):
        deltas = compare_documents(self.RESULTS, self.RESULTS)
        assert not any(d.regressed for d in deltas)

    def test_timing_within_tolerance_passes_and_improvement_always_passes(self):
        fresh = json.loads(json.dumps(self.RESULTS))
        fresh["dead_fanout"]["reference_wall_s"] = 0.12  # +20% < 35%
        fresh["dead_fanout"]["pruned_wall_s"] = 0.001  # 10x faster
        deltas = compare_documents(self.RESULTS, fresh)
        assert not any(d.regressed for d in deltas)

    def test_timing_regression_beyond_tolerance_fails(self):
        fresh = json.loads(json.dumps(self.RESULTS))
        fresh["dead_fanout"]["reference_wall_s"] = 0.30  # 3x slower
        deltas = compare_documents(self.RESULTS, fresh)
        bad = [d for d in deltas if d.regressed]
        assert [(d.benchmark, d.key) for d in bad] == [
            ("dead_fanout", "reference_wall_s")
        ]

    def test_speedup_direction_is_mirrored(self):
        fresh = json.loads(json.dumps(self.RESULTS))
        fresh["warm"]["speedup"] = 60.0  # higher is better: fine
        assert not any(d.regressed for d in compare_documents(self.RESULTS, fresh))
        fresh["warm"]["speedup"] = 5.0  # -75%: regression
        bad = [d for d in compare_documents(self.RESULTS, fresh) if d.regressed]
        assert [(d.benchmark, d.key) for d in bad] == [("warm", "speedup")]

    def test_counter_metrics_are_exact(self):
        fresh = json.loads(json.dumps(self.RESULTS))
        fresh["dead_fanout"]["pruned_visits"] = 6  # within any tolerance, still fails
        bad = [d for d in compare_documents(self.RESULTS, fresh) if d.regressed]
        assert [(d.benchmark, d.key) for d in bad] == [("dead_fanout", "pruned_visits")]

    def test_missing_metric_and_missing_benchmark_regress(self):
        fresh = json.loads(json.dumps(self.RESULTS))
        del fresh["dead_fanout"]["reference_visits"]
        del fresh["warm"]
        bad = {(d.benchmark, d.key) for d in compare_documents(self.RESULTS, fresh) if d.regressed}
        assert bad == {("dead_fanout", "reference_visits"), ("warm", "*")}

    def test_new_metric_is_reported_not_failed(self):
        fresh = json.loads(json.dumps(self.RESULTS))
        fresh["dead_fanout"]["edges_pruned"] = 12
        deltas = compare_documents(self.RESULTS, fresh)
        assert not any(d.regressed for d in deltas)
        assert any(d.status == "new" and d.key == "edges_pruned" for d in deltas)

    def test_gate_cli_doctored_baseline(self, tmp_path, capsys):
        # CI contract: a doctored fresh run exits non-zero and the delta
        # table names the regressed metric.
        baseline = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        self._write(baseline, self.RESULTS)
        fresh = json.loads(json.dumps(self.RESULTS))
        fresh["dead_fanout"]["reference_wall_s"] = 1.0  # 10x slower
        self._write(fresh_path, fresh)
        rc = compare_main([str(baseline), str(fresh_path)])
        out = capsys.readouterr()
        assert rc == 1
        assert "REGRESSION" in out.out
        assert "reference_wall_s" in out.out
        assert "FAIL" in out.err

    def test_gate_cli_clean_pass(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        self._write(baseline, self.RESULTS)
        rc = compare_main([str(baseline), str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no benchmark regressions" in out

    def test_gate_cli_tolerance_flag(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fresh_path = tmp_path / "fresh.json"
        self._write(baseline, self.RESULTS)
        fresh = json.loads(json.dumps(self.RESULTS))
        fresh["dead_fanout"]["reference_wall_s"] = 0.25  # 2.5x
        self._write(fresh_path, fresh)
        assert compare_main([str(baseline), str(fresh_path)]) == 1
        capsys.readouterr()
        assert (
            compare_main([str(baseline), str(fresh_path), "--tolerance", "2.0"]) == 0
        )

    def test_gate_cli_missing_file(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        self._write(baseline, self.RESULTS)
        assert compare_main([str(baseline), str(tmp_path / "absent.json")]) == 2

    def test_render_deltas_table_shape(self):
        deltas = compare_documents(self.RESULTS, self.RESULTS)
        table = render_deltas(deltas)
        lines = table.splitlines()
        assert lines[0].startswith("benchmark")
        assert len(lines) == len(deltas) + 2  # header + rule

    def test_committed_baselines_carry_meta(self):
        root = pathlib.Path(__file__).parent.parent
        for name in ("BENCH_enumeration.json", "BENCH_incremental.json"):
            meta, results = load_bench_results(root / name)
            assert meta.get("git_sha"), name
            assert results, name
