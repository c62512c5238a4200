"""Tests of the benchmark harness's own logic (no analysis is run).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

STRIDE = 1 << 20


# ----- self time -------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    log = [
        ["op", 0.0, 10.0, None],
        ["lower", 1.0, 4.0, 0],
        ["unroll", 2.0, 3.0, 1],
        ["verify", 5.0, 7.0, 0],
    ]
    assert spans.self_times(log) == pytest.approx(
        {"op": 5.0, "lower": 2.0, "unroll": 1.0, "verify": 2.0}
    )


def test_self_time_counts_overlapping_children_once_and_sums_repeats():
    # children adopted from another thread may overlap the client's own
    log = [
        ["request", 0.0, 10.0, None],
        ["pipeline", 1.0, 6.0, 0],
        ["submit", 4.0, 8.0, 0],
        ["request", 20.0, 23.0, None],
    ]
    totals = spans.self_times(log)
    assert totals["request"] == pytest.approx(3.0 + 3.0)
    assert totals["pipeline"] == pytest.approx(5.0)


def _fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def work(self, n):
            return module.helper(n) + 1

    def helper(n):
        return n * 2

    module.Engine = Engine
    module.helper = helper
    sys.modules[module.__name__] = module
    return module


def test_install_records_nested_spans_and_uninstall_restores():
    module = _fake_module()
    original = module.Engine.work
    log = spans.SpanLog()
    log.install(
        span_points=[
            ("engine.work", module.__name__, "Engine.work"),
            ("engine.helper", module.__name__, "helper"),
        ],
        count_points=[],
    )
    try:
        # Engine.work looks helper up in the module, so both are wrapped
        assert module.Engine().work(3) == 7
    finally:
        log.uninstall()
    assert module.Engine.work is original
    assert [s[0] for s in log.spans] == ["engine.work", "engine.helper"]
    assert log.spans[1][3] == 0  # parented to engine.work
    assert log.calls == Counter({"engine.work": 1, "engine.helper": 1})


def test_missing_entry_point_fails_before_patching():
    module = _fake_module()
    original = module.helper
    log = spans.SpanLog()
    with pytest.raises(spans.MissingEntryPoint):
        log.install(
            span_points=[
                ("engine.helper", module.__name__, "helper"),
                ("engine.gone", module.__name__, "Engine.renamed"),
            ],
            count_points=[],
        )
    assert module.helper is original


def test_every_wrap_point_exists_in_the_program():
    sys.path.insert(0, str(W.SRC_DIR))
    log = spans.SpanLog()
    log.install()
    log.uninstall()


def test_dead_entry_point_is_reported_by_name():
    with pytest.raises(spans.DeadEntryPoint, match="detection.encode"):
        spans.check_liveness(
            Counter({"frontend.parse": 1}), ("frontend.parse", "detection.encode"), "detect192"
        )
    spans.check_liveness(Counter({"frontend.parse": 2}), ("frontend.parse",), "scaled721")


# ----- statistics --------------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_if_supported([float(i) for i in range(99)]) is None
    value = run.p90_if_supported([float(i) for i in range(100)])
    assert value == pytest.approx(89.1)
    assert sum(1 for i in range(100) if i > value) == 10


# ----- seeded inputs -------------------------------------------------------------------


def test_edit_sequence_is_a_function_of_the_seed():
    entries = {"scaled721": [f"wthread{g}" for g in range(120)],
               "detect192": [f"wt{t}" for t in range(64)]}
    first = W.edit_plan(7, 20, entries)
    assert first == W.edit_plan(7, 20, entries)
    assert first != W.edit_plan(8, 20, entries)
    assert [name for name, _f in first[:4]] == ["scaled721", "detect192"] * 2
    assert all(f in entries[name] for name, f in first)


def test_corpus_order_is_a_function_of_the_seed():
    files = [Path(f"f{i}.mcc") for i in range(46)]
    order = W.corpus_order(3, 0, files)
    assert order == W.corpus_order(3, 0, files)
    assert sorted(order) == sorted(files)
    assert order != W.corpus_order(3, 1, files)
    assert order != W.corpus_order(4, 0, files)


def test_apply_edit_inserts_a_dead_local_into_the_named_function():
    source = "void wt1(int** s) {\n    free(*s);\n}\n\nvoid wt10(int** s) {\n}\n"
    edited = W.apply_edit(source, "wt1", 4)
    assert edited == source.replace("{\n    free", "{\n    int edit_4 = 4;\n    free", 1)
    with pytest.raises(ValueError):
        W.apply_edit(source, "wt2", 0)


# ----- known answers -------------------------------------------------------------------


def test_expect_directives_parse_ranges_checkers_and_config():
    text = (
        "// EXPECT use-after-free 1 99\n"
        "// EXPECT data-race 0\n"
        "// CONFIG memory_model=pso\n"
        "// CONFIG model_locks=true\n"
        "// CONFIG unroll_depth=3\n"
        "void main() {}\n"
    )
    expects, checkers, config = W.parse_directives(text)
    assert expects == {"use-after-free": (1, 99), "data-race": (0, 0)}
    assert checkers == ("data-race", "use-after-free")
    assert config == {"memory_model": "pso", "model_locks": True, "unroll_depth": 3}
    _e, checkers, _c = W.parse_directives("// CHECKERS double-free,null-deref\n")
    assert checkers == ("double-free", "null-deref")
    assert W.parse_directives("void main() {}\n")[1] == ("use-after-free",)


def test_corpus_verdicts_are_checked_against_expect_ranges():
    expects = {"use-after-free": (1, 99), "data-race": (0, 0)}
    assert W.corpus_wrong_verdicts(expects, Counter({"use-after-free": 2})) == 0
    assert W.corpus_wrong_verdicts(expects, Counter({"data-race": 1})) == 2


def test_subject_verdicts_check_kind_and_reporting_functions():
    functions = ["wthread0", "wthread1", "main"]
    good = [("use-after-free", 0 * STRIDE + 5, 2 * STRIDE + 1),
            ("use-after-free", 1 * STRIDE + 5, 2 * STRIDE + 3)]
    expected = W.expected_bugs("scaled721")
    assert W.wrong_verdicts(W.bug_keys(good, functions, STRIDE), expected) == 0
    misplaced = [good[0], ("use-after-free", 2 * STRIDE, 2 * STRIDE + 3)]
    assert W.wrong_verdicts(W.bug_keys(misplaced, functions, STRIDE), expected) == 2
    assert W.wrong_verdicts(W.bug_keys(good[:1], functions, STRIDE), expected) == 1
    assert sum(W.expected_bugs("detect192").values()) == 192


def test_function_reuse_is_read_from_the_lowering_row():
    import worker

    summary = {"bugs": [], "vfg": {}, "solver": {}, "search": {}, "metrics": {},
               "passes": [{"name": "lower", "status": "run", "detail": "reused 3/10 function(s)"}]}
    counts = worker.counts_of(summary, "void main() {}\n")
    assert (counts["functions_reused"], counts["functions_total"]) == (3, 10)
    summary["passes"][0]["detail"] = "3 of 10 reused"
    with pytest.raises(ValueError):
        worker.counts_of(summary, "")


# ----- the command ---------------------------------------------------------------------


def _fake_results(wrong: int):
    op = {"verdict_s": 1.5, "failed": False, "wrong": wrong, "counts": {}, "traced": False}
    return [{"setup_s": 0.4, "rss_mb": 50.0, "ops": [op, dict(op, verdict_s=2.5)], "trace": None}]


def test_wrong_verdict_exits_nonzero_and_reports_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(run, "collect", lambda *a: _fake_results(wrong=1))
    code = run.main(["--workload", "scaled721", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == 2


def test_right_verdicts_print_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "collect", lambda *a: _fake_results(wrong=0))
    assert run.main(["--workload", "scaled721", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"]["verdict_s.p50"] == {"value": 2.0, "unit": "s"}
    assert set(result["metrics"]) == {name for name, _u in run.END_TO_END}


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(W, "SRC_DIR", tmp_path / "src")
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
