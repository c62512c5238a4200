"""Benchmarks for the staged pass pipeline's incremental re-analysis.

Three scenarios on a multi-function subject:

* **warm** — re-analyzing identical input must execute *zero* passes
  (in particular no pointer/VFG pass) and report identical bug keys;
* **incremental** — after editing one helper function, fewer than half
  of the pipeline's passes re-execute, and the keys still match a fresh
  cold run on the edited source;
* **disk-warm** — with ``cache_dir``, a fresh driver (simulating a new
  process) re-executes only the frontend passes.

Results are written to ``BENCH_incremental.json`` in the repo root;
wall-clock numbers are recorded rather than hard-asserted (CI machines
vary) — the assertions pin the pass counts and the key equivalence.
Each wall-clock number is the median of ``REPEATS`` runs, each from a
fresh driver: these runs take milliseconds, so a single one is too
noisy for the regression gate.
"""

from __future__ import annotations

import pathlib
import statistics
import time

from repro import AnalysisConfig, Canary
from repro.bench import write_bench_results

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "BENCH_incremental.json"

#: pointer/VFG passes — the expensive middle of the pipeline
VFG_PASSES = ("pointer", "tcg", "mhp", "dataflow", "interference")

#: timed runs per scenario; the recorded wall time is their median
REPEATS = 5


def _subject(n_spin: int = 8) -> str:
    """An inter-thread UAF between two workers communicating through a
    global, plus ``n_spin`` arithmetic helpers analyzed alongside them.
    The helpers come after the workers so a helper edit leaves every
    worker label (and the thread structure) untouched."""
    parts = [
        "int *g;",
        "",
        "void w_free() {",
        "  free(g);",
        "}",
        "",
        "void w_use() {",
        "  int x;",
        "  x = *g;",
        "  print(x);",
        "}",
    ]
    for i in range(n_spin):
        parts += [
            "",
            f"int spin{i}(int a) {{",
            f"  int b;",
            f"  b = a + {i};",
            f"  return b * 2;",
            f"}}",
        ]
    parts += [
        "",
        "int main() {",
        "  g = malloc(4);",
        "  fork(t1, w_free);",
        "  fork(t2, w_use);",
    ]
    parts += [f"  spin{i}({i});" for i in range(n_spin)]
    parts += ["  return 0;", "}"]
    return "\n".join(parts)


def _keys(report):
    return sorted(b.key for b in report.bugs)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _vfg_passes_run(report):
    return [
        name
        for name in report.passes_run()
        if name.split(":")[0] in VFG_PASSES
    ]


_results: dict = {}


def _record(name: str, **data) -> None:
    _results[name] = data
    write_bench_results(RESULTS, _results, suite="incremental")


def test_warm_rerun_executes_zero_passes():
    text = _subject()
    cold_walls, warm_walls = [], []
    for _ in range(REPEATS):
        canary = Canary(AnalysisConfig())
        cold, cold_wall = _timed(lambda: canary.analyze_source(text, filename="subject.mcc"))
        warm, warm_wall = _timed(lambda: canary.analyze_source(text, filename="subject.mcc"))
        cold_walls.append(cold_wall)
        warm_walls.append(warm_wall)
    cold_wall = statistics.median(cold_walls)
    warm_wall = statistics.median(warm_walls)

    assert _keys(cold), "subject must report the inter-thread UAF"
    assert _keys(warm) == _keys(cold)
    assert warm.passes_run() == []
    assert _vfg_passes_run(warm) == []
    _record(
        "warm",
        cold_seconds=cold_wall,
        warm_seconds=warm_wall,
        speedup=cold_wall / warm_wall if warm_wall else float("inf"),
        cold_passes_run=len(cold.passes_run()),
        warm_passes_run=len(warm.passes_run()),
    )


def test_single_function_edit_reruns_under_half_the_passes():
    text = _subject()
    # Edit the helper analyzed last: Alg. 1 journal replay is valid for
    # the unbroken prefix of the bottom-up order (later summaries may
    # observe points-to state written while analyzing earlier functions),
    # so an edit invalidates the edited function and everything after it.
    edited = text.replace("b = a + 7;", "b = a + 77;")
    assert edited != text
    cold_walls, incr_walls = [], []
    for _ in range(REPEATS):
        canary = Canary(AnalysisConfig())
        cold, cold_wall = _timed(lambda: canary.analyze_source(text, filename="subject.mcc"))
        incr, incr_wall = _timed(lambda: canary.analyze_source(edited, filename="subject.mcc"))
        cold_walls.append(cold_wall)
        incr_walls.append(incr_wall)
    cold_wall = statistics.median(cold_walls)
    incr_wall = statistics.median(incr_walls)

    total = len(incr.pass_statistics)
    ran = incr.passes_run()
    fraction = len(ran) / total
    assert fraction < 0.5, f"incremental edit re-ran {ran} ({fraction:.0%})"
    # the edit is thread- and sink-irrelevant: the pointer triple and the
    # detection pass must be reused, and the workers' dataflow replays
    for name in ("pointer", "tcg", "mhp", "dataflow:w_free", "dataflow:w_use"):
        assert name not in ran
    assert not any(name.startswith("detect:") for name in ran)
    assert _keys(incr) == _keys(cold)
    fresh = Canary(AnalysisConfig()).analyze_source(edited, filename="subject.mcc")
    assert _keys(incr) == _keys(fresh)
    _record(
        "incremental",
        total_passes=total,
        passes_rerun=len(ran),
        rerun_fraction=fraction,
        rerun_names=ran,
        incremental_seconds=incr_wall,
        cold_seconds=cold_wall,
    )


def test_disk_cache_warm_process(tmp_path):
    text = _subject()
    cfg = AnalysisConfig(cache_dir=str(tmp_path))
    cold = Canary(cfg).analyze_source(text, filename="subject.mcc")
    warm_walls = []
    for _ in range(REPEATS):
        # A fresh driver each time: only the disk layer is shared.
        warm, warm_wall = _timed(
            lambda: Canary(cfg).analyze_source(text, filename="subject.mcc")
        )
        warm_walls.append(warm_wall)
    warm_wall = statistics.median(warm_walls)
    assert _keys(warm) == _keys(cold)
    assert set(warm.passes_run()) == {"parse", "lower"}
    assert _vfg_passes_run(warm) == []
    _record(
        "disk_warm",
        warm_seconds=warm_wall,
        passes_run=sorted(warm.passes_run()),
    )
