"""Time to verdict: the repository's end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A single closed-loop client runs the default ``AnalysisConfig``: one
operation in flight at a time, each in a fresh interpreter (cold
workloads), one interpreter per corpus pass, or one resident analysis
service (``edit_resident``).  Every verdict is checked against the known
answer (see ``workloads.py``); a wrong one makes the run exit 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is a JSON detail record (sample count, p90 when at least ten
samples lie beyond it, and the correctness counts).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads as W  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
#: a whole run, set-up included, must end well inside three minutes
RUN_LIMIT_S = 170.0

#: workload -> worker mode
MODE = {"scaled721": "cold", "detect192": "cold", "corpus": "corpus", "edit_resident": "edit"}
WORKLOADS = tuple(MODE)

END_TO_END = (
    ("verdict_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: span name -> per-layer self-time metric
SPAN_METRICS = {
    "frontend.parse": "frontend.parse_s",
    "lowering.unroll": "lowering.unroll_s",
    "lowering.lower": "lowering.lower_s",
    "ir.verify": "ir.verify_s",
    "pointer.steensgaard": "pointer.steensgaard_s",
    "threads.tcg": "threads.tcg_s",
    "threads.mhp": "threads.mhp_s",
    "vfg.dataflow": "vfg.dataflow_s",
    "vfg.summaries": "vfg.summaries_s",
    "vfg.interference": "vfg.interference_s",
    "checkers.run": "checkers.run_s",
    "detection.search": "detection.search_s",
    "detection.encode": "detection.encode_s",
    "detection.order": "detection.order_s",
    "smt.solve": "smt.solve_s",
    "analysis.pipeline": "analysis.pipeline_s",
    "interp.confirm": "interp.confirm_s",
    "server.request": "server.overhead_s",
}

#: operation count -> per-layer count metric (mean per operation)
COUNT_METRICS = {
    "source_lines": "frontend.source_lines",
    "ir_instructions": "lowering.ir_instructions",
    "vfg_nodes": "vfg.nodes",
    "vfg_edges": "vfg.edges",
    "interference_edges": "vfg.interference_edges",
    "escaped_objects": "vfg.escaped_objects",
    "search_visits": "detection.search_visits",
    "paths": "detection.paths",
    "queries": "smt.queries",
    "warm_families": "smt.warm_families",
    "passes_run": "analysis.passes_run",
    "passes_cached": "analysis.passes_cached",
}

#: ratio metric -> (numerator count, denominator count), summed over operations
RATIO_METRICS = {
    "detection.realizable_frac": ("reports", "queries"),
    "smt.verdict_cache_hit_frac": ("cache_hits", "cache_lookups"),
    "vfg.summary_reuse_frac": ("summaries_reused", "summaries_total"),
    "lowering.functions_reused_frac": ("functions_reused", "functions_total"),
    "interp.confirmed_frac": ("confirmed", "replayed"),
}

PER_LAYER = (
    [(metric, "s") for metric in SPAN_METRICS.values()]
    + [("server.queue_wait_s", "s")]
    + [(metric, "count") for metric in COUNT_METRICS.values()]
    + [("threads.happens_before_calls", "count")]
    + [(metric, "ratio") for metric in RATIO_METRICS]
    + [("trace.unattributed_frac", "ratio"), ("trace.overhead_frac", "ratio")]
)

#: entry points that must record calls when the workload is traced
_ALWAYS_LIVE = (
    "analysis.pipeline", "frontend.parse", "lowering.lower", "lowering.unroll",
    "ir.verify", "vfg.dataflow", "vfg.summaries", "vfg.interference",
    "checkers.run", "detection.search", "detection.encode", "detection.order",
    "smt.solve",
)
_COLD_LIVE = ("pointer.steensgaard", "threads.tcg", "threads.mhp", "threads.happens_before")
REQUIRED_LIVE = {
    "scaled721": _ALWAYS_LIVE + _COLD_LIVE,
    "detect192": _ALWAYS_LIVE + _COLD_LIVE,
    "corpus": _ALWAYS_LIVE + _COLD_LIVE + ("interp.confirm",),
    # an edit leaves the thread skeleton unchanged, so pointer/threads are cached
    "edit_resident": _ALWAYS_LIVE + ("server.request",),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a wrong verdict)."""


# ----- statistics ----------------------------------------------------------------


def p90_if_supported(samples: Sequence[float]) -> Optional[float]:
    """The 90th percentile, or ``None`` unless ten samples lie beyond it."""
    if len(samples) - math.ceil(0.9 * len(samples)) < 10:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


# ----- running workers -------------------------------------------------------------


def run_worker(spec: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one worker process to completion and return its JSON result."""
    spec = dict(spec, spawned_at=time.time())
    timeout = max(5.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=str(W.ROOT),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {timeout:.0f}s: {spec}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"worker failed (exit {proc.returncode}) on {spec}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    """Closed loop: start the next worker only after the last one ended,
    and none that the last one's duration says would overrun ``seconds``."""
    run_deadline = time.perf_counter() + RUN_LIMIT_S
    mode = MODE[workload]
    base = {"mode": mode, "workload": workload, "seed": seed}
    if mode == "edit":
        return [run_worker(dict(base, index=0, trace=trace, seconds=seconds), run_deadline)]
    results: List[Dict[str, Any]] = []
    # traced runs alternate traced and untraced workers to measure overhead
    min_workers = 2 if trace else 1
    start = time.perf_counter()
    last = 0.0
    while len(results) < min_workers or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        index = len(results)
        results.append(
            run_worker(dict(base, index=index, trace=trace and index % 2 == 0), run_deadline)
        )
        last = time.perf_counter() - t0
    return results


# ----- aggregation -----------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def summarize(workload: str, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold worker results into per-operation samples and totals."""
    ops = [op for result in results for op in result["ops"]]
    counts: Counter = Counter()
    for op in ops:
        counts.update(op["counts"])
    # the edit session's set-up requests are verdicts too
    checked = ops + [fill for result in results for fill in result.get("fill", ())]
    return {
        "workload": workload,
        "ops": ops,
        "counts": counts,
        "verdicts": [op["verdict_s"] for op in ops],
        "setup": [r["setup_s"] for r in results],
        "rss_mb": max(r["rss_mb"] for r in results),
        "wrong_verdicts": sum(op["wrong"] for op in checked),
        "failed": sum(1 for op in checked if op["failed"]),
        "attempted": len(checked),
        "unconfirmed_witnesses": counts["replayed"] - counts["confirmed"],
        "replayed": counts["replayed"],
        "traces": [r["trace"] for r in results if r.get("trace")],
    }


def end_to_end(summary: Dict[str, Any]) -> Dict[str, float]:
    return {
        "verdict_s.p50": _median(summary["verdicts"]),
        "setup_s": _median(summary["setup"]),
        "peak_rss_mb": summary["rss_mb"],
    }


def per_layer(summary: Dict[str, Any]) -> Dict[str, float]:
    """Per-operation self times, counts and ratios of the traced run."""
    workload = summary["workload"]
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for trace in summary["traces"]:
        calls.update(trace["calls"])
        self_s.update(trace["self"])
    spans.check_liveness(calls, REQUIRED_LIVE[workload], workload)
    ops = summary["ops"]
    traced = [op for op in ops if op.get("traced")]
    untraced = [op for op in ops if not op.get("traced")]
    n_ops, n_traced = len(ops), max(1, len(traced))
    counts = summary["counts"]
    metrics: Dict[str, float] = {}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = self_s.get(span, 0.0) / n_traced
    metrics["server.queue_wait_s"] = counts.get("queue_wait_s", 0.0) / n_ops
    for count, metric in COUNT_METRICS.items():
        metrics[metric] = counts.get(count, 0) / n_ops
    metrics["threads.happens_before_calls"] = calls.get("threads.happens_before", 0) / n_traced
    for metric, (num, den) in RATIO_METRICS.items():
        metrics[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    traced_s = sum(op["verdict_s"] for op in traced)
    metrics["trace.unattributed_frac"] = self_s.get("op", 0.0) / traced_s if traced_s else 0.0
    metrics["trace.overhead_frac"] = (
        _median([op["verdict_s"] for op in traced])
        / _median([op["verdict_s"] for op in untraced])
        - 1.0
    )
    return metrics


def detail(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The correctness counts and tail latency printed before the result."""
    verdicts = summary["verdicts"]
    out = {
        "workload": summary["workload"],
        "samples": len(verdicts),
        "verdict_s.p90": p90_if_supported(verdicts),
        "wrong_verdicts": summary["wrong_verdicts"],
        "failed_frac": summary["failed"] / max(1, summary["attempted"]),
        "unconfirmed_witnesses": summary["unconfirmed_witnesses"],
        "replayed_witnesses": summary["replayed"],
    }
    if summary["workload"] == "corpus":
        out["corpus_files"] = len(W.corpus_files())
    if summary["workload"] == "edit_resident":
        for name in W.EDIT_FILES:
            out[f"{name}.request_s.p50"] = _median(
                [op["request_s"][name] for op in summary["ops"]]
            )
    return out


def result_line(summary: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    values = per_layer(summary) if trace else end_to_end(summary)
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": summary["wrong_verdicts"] == 0 and summary["unconfirmed_witnesses"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


# ----- entry point -----------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    missing = [p for p in (W.SRC_DIR / "repro", W.TESTS_DIR / "fuzz_gen.py", W.CORPUS_DIR)
               if not p.exists()]
    if missing:
        print(f"perfbench: program under test not found: {missing}", file=sys.stderr)
        return 2
    try:
        summary = summarize(
            args.workload, collect(args.workload, args.seed, args.seconds, bool(args.trace))
        )
        result = result_line(summary, bool(args.trace))
    except (HarnessError, spans.DeadEntryPoint) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(detail(summary)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
