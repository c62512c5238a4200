"""Benchmarks for the sink-directed path enumeration engine.

Two stress shapes, each targeting one prune:

* **dead fan-out** — wide copy trees whose leaves are never dereferenced:
  only sink-reachability keeps the DFS out of them;
* **guard diamonds** — branch ladders whose arms contradict the source's
  guard arithmetically: the incremental guard prefix cuts the subtree at
  the first contradictory edge instead of solving every completed path.

Every comparison also asserts the exactness guarantee (identical bug
keys with and without pruning).  Results are written to
``BENCH_enumeration.json`` in the repo root; wall-clock numbers are
recorded there rather than hard-asserted (CI machines vary), except for
generous pathology bounds.
"""

from __future__ import annotations

import pathlib
import time

from repro import AnalysisConfig, Canary
from repro.bench import write_bench_results

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "BENCH_enumeration.json"

_UNPRUNED = dict(
    sink_reachability=False, incremental_guard_pruning=False, dead_state_memo=False
)


def _dead_fanout_program(width: int, depth: int) -> str:
    """One real UAF plus ``width`` copy chains of ``depth`` hops whose
    ends are never dereferenced — pure enumeration waste without the
    reachability index."""
    lines = [
        "void main() {",
        "    int** slot = malloc();",
        "    int* init = malloc();",
        "    *slot = init;",
        "    fork(t, w, slot);",
        "    int* live = *slot;",
        "    print(*live);",
    ]
    for i in range(width):
        lines.append(f"    int* d{i}_0 = *slot;")
        for j in range(depth):
            lines.append(f"    int* d{i}_{j + 1} = d{i}_{j};")
    lines.append("}")
    lines.append("void w(int** s) { int* b = malloc(); *s = b; free(b); }")
    return "\n".join(lines)


def _guard_diamond_program(n_arms: int) -> str:
    """The free happens under ``n >= 3``; every reader arm is guarded by
    ``n < 3`` — all candidates are guard-contradictory, and the prefix
    refutes each arm at its first edge."""
    lines = [
        "extern int n;",
        "void main() {",
        "    int** slot = malloc();",
        "    int* init = malloc();",
        "    *slot = init;",
        "    fork(t, w, slot);",
    ]
    for i in range(n_arms):
        lines.append(f"    if (n < 3) {{ int* v{i} = *slot; print(*v{i}); }}")
    lines.append("}")
    lines.append(
        "void w(int** s) { int* b = malloc();"
        " if (n >= 3) { *s = b; free(b); } }"
    )
    return "\n".join(lines)


def _run(text: str, **overrides):
    t0 = time.perf_counter()
    report = Canary(AnalysisConfig(**overrides)).analyze_source(text)
    wall = time.perf_counter() - t0
    visits = sum(st.get("visits", 0) for st in report.search_statistics.values())
    pruned = sum(
        st.get("pruned_unreachable", 0) + st.get("pruned_guard", 0)
        for st in report.search_statistics.values()
    )
    return report, wall, visits, pruned


def _keys(report):
    return sorted(b.key for b in report.bugs)


_results: dict = {}


def _record(name: str, **data) -> None:
    _results[name] = data
    write_bench_results(RESULTS, _results, suite="enumeration")


def test_dead_fanout_reachability_prune():
    text = _dead_fanout_program(width=12, depth=8)
    ref, ref_wall, ref_visits, _ = _run(text, **_UNPRUNED)
    opt, opt_wall, opt_visits, opt_pruned = _run(text)
    assert _keys(ref) == _keys(opt)
    assert len(opt.bugs) == 1
    assert opt_visits < ref_visits, (
        f"pruned DFS visited {opt_visits} nodes, reference {ref_visits}"
    )
    assert opt_pruned > 0
    _record(
        "dead_fanout",
        reference_visits=ref_visits,
        pruned_visits=opt_visits,
        visit_reduction=1.0 - opt_visits / ref_visits,
        edges_pruned=opt_pruned,
        reference_wall_s=round(ref_wall, 4),
        pruned_wall_s=round(opt_wall, 4),
    )


def test_guard_diamond_prefix_prune():
    # prune_guards=False disables the *construction-time* semi-decision
    # filter (the paper's §5.2 optimization) in both runs, so the
    # contradictions survive into the VFG and only the enumeration-time
    # prefix can cut them — isolating the incremental prune.
    text = _guard_diamond_program(n_arms=10)
    ref, ref_wall, ref_visits, _ = _run(text, prune_guards=False, **_UNPRUNED)
    opt, opt_wall, opt_visits, _ = _run(text, prune_guards=False)
    assert _keys(ref) == _keys(opt) == []
    assert opt_visits <= ref_visits
    guard_cuts = sum(
        st.get("pruned_guard", 0) for st in opt.search_statistics.values()
    )
    assert guard_cuts > 0, "contradictory arms must be cut by the prefix"
    # The reference run decides every contradictory candidate with the
    # solver; the pruned run never even assembles those formulas.
    assert opt.solver_statistics["queries"] <= ref.solver_statistics["queries"]
    _record(
        "guard_diamond",
        reference_visits=ref_visits,
        pruned_visits=opt_visits,
        guard_cuts=guard_cuts,
        reference_queries=ref.solver_statistics["queries"],
        pruned_queries=opt.solver_statistics["queries"],
        reference_wall_s=round(ref_wall, 4),
        pruned_wall_s=round(opt_wall, 4),
    )


def test_check_wall_clock_no_regression():
    """End to end: the pruned engine must not be slower than the
    reference DFS on a mixed workload (generous bound for CI noise)."""
    text = _dead_fanout_program(width=10, depth=6)
    _ref, ref_wall, _, _ = _run(text, **_UNPRUNED)
    _opt, opt_wall, _, _ = _run(text)
    assert opt_wall <= max(ref_wall * 1.5, ref_wall + 0.25)
    _record(
        "wall_clock",
        reference_wall_s=round(ref_wall, 4),
        pruned_wall_s=round(opt_wall, 4),
    )
