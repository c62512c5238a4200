"""One benchmark process: a cold operation, a corpus pass or an edit session.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json spec>'``; the
last line of standard output is a JSON result.  Each process starts from
a fresh interpreter, as a command-line invocation of the analyzer does,
so no analysis state survives from one cold operation to the next.

Spec keys: ``mode`` (``cold`` | ``corpus`` | ``edit``), ``workload``,
``seed``, ``index`` (operation or pass number), ``trace`` (``cold`` and
``corpus``: trace this process; ``edit``: trace every other round),
``seconds`` (``edit``: measuring time) and ``spawned_at`` (wall clock
just before the process was started, so set-up includes interpreter
start-up).
"""

from __future__ import annotations

import contextlib
import json
import re
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from spans import SpanLog, self_times  # noqa: E402

sys.path[:0] = [str(W.SRC_DIR), str(W.TESTS_DIR)]

from repro import AnalysisConfig, Canary  # noqa: E402
from repro.interp import confirm  # noqa: E402
from repro.ir.module import LABEL_BLOCK_STRIDE  # noqa: E402
from repro.server import AnalysisService  # noqa: E402

#: an edit round that has not answered by then counts as failed
REQUEST_TIMEOUT_S = 120.0
#: timed edit rounds before the session's peak RSS is read (and its minimum)
RSS_ROUNDS = 3
#: the lowering pass row's detail, the only public record of function reuse
_LOWER_DETAIL = re.compile(r"reused (\d+)/(\d+) function")


def _summary_of_report(report) -> Dict[str, Any]:
    return {
        "bugs": [(b.kind, b.source.label, b.sink.label) for b in report.bugs],
        "vfg": report.vfg_summary,
        "solver": report.solver_statistics,
        "search": report.search_statistics,
        "passes": report.pass_statistics,
        "metrics": report.metrics.snapshot(),
        "degraded": bool(report.degradation_warnings) or report.timed_out,
    }


def _summary_of_record(record) -> Dict[str, Any]:
    result = record.result or {}
    return {
        "bugs": [(b["kind"], b["source"], b["sink"]) for b in result.get("bugs", ())],
        "vfg": result.get("vfg_summary", {}),
        "solver": result.get("solver_statistics", {}),
        "search": result.get("search_statistics", {}),
        "passes": result.get("pass_statistics", []),
        "metrics": record.metrics or {},
        "degraded": record.status != "done"
        or bool(result.get("degradation_warnings"))
        or bool(result.get("timed_out")),
    }


def counts_of(summary: Dict[str, Any], source: str) -> Dict[str, float]:
    """The per-operation counts the layer metrics are built from."""
    vfg, solver, metrics = summary["vfg"], summary["solver"], summary["metrics"]
    search = list(summary["search"].values())
    functions_reused = functions_total = 0
    for row in summary["passes"]:
        if row["name"] == "lower" and row["status"] == "run":
            match = _LOWER_DETAIL.match(row.get("detail", ""))
            if match is None:
                raise ValueError(f"unreadable lowering detail: {row.get('detail')!r}")
            functions_reused, functions_total = int(match.group(1)), int(match.group(2))
    summary_reused = metrics.get("summary.cache_hits", 0)
    return {
        "source_lines": len(source.splitlines()),
        "ir_instructions": vfg.get("instructions", 0),
        "vfg_nodes": vfg.get("vfg_nodes", 0),
        "vfg_edges": vfg.get("vfg_edges", 0),
        "interference_edges": vfg.get("interference_edges", 0),
        "escaped_objects": vfg.get("escaped_objects", 0),
        "search_visits": sum(s.get("visits", 0) for s in search),
        "paths": sum(s.get("candidates", 0) for s in search),
        "reports": len(summary["bugs"]),
        "queries": solver.get("queries", 0),
        "cache_hits": solver.get("cache_hits", 0),
        "cache_lookups": solver.get("cache_hits", 0) + solver.get("cache_misses", 0),
        "warm_families": solver.get("incremental_warm_families", 0),
        "passes_run": sum(1 for row in summary["passes"] if row["status"] == "run"),
        "passes_cached": sum(1 for row in summary["passes"] if row["status"] == "cached"),
        "summaries_reused": summary_reused,
        "summaries_total": summary_reused + metrics.get("summary.computed", 0),
        "functions_reused": functions_reused,
        "functions_total": functions_total,
    }


def _subject_check(name: str, summary: Dict[str, Any], source: str) -> int:
    got = W.bug_keys(summary["bugs"], W.function_order(source), LABEL_BLOCK_STRIDE)
    return W.wrong_verdicts(got, W.expected_bugs(name))


def _trace_result(log: Optional[SpanLog]) -> Optional[Dict[str, Any]]:
    if log is None:
        return None
    return {"self": self_times(log.spans), "calls": dict(log.calls)}


@contextlib.contextmanager
def _traced(log: Optional[SpanLog], name: str):
    """A span that also adopts spans opened meanwhile on other threads."""
    if log is None:
        yield
        return
    with log.span(name) as index:
        outer, log.root = log.root, index
        try:
            yield
        finally:
            log.root = outer


@contextlib.contextmanager
def _patched(log: Optional[SpanLog]):
    """Wrap the layer entry points for the duration (no-op untraced)."""
    if log is None:
        yield
        return
    log.install()
    try:
        yield
    finally:
        log.uninstall()


def _failed_op(verdict_s: float) -> Dict[str, Any]:
    traceback.print_exc(file=sys.stderr)
    return {"verdict_s": verdict_s, "failed": True, "wrong": 0, "counts": {}}


def run_cold(spec: Dict[str, Any]) -> Dict[str, Any]:
    name = spec["workload"]
    source = W.subject_source(name, spec["seed"])
    setup_s = time.time() - spec["spawned_at"]
    log = SpanLog() if spec["trace"] else None
    op: Optional[Dict[str, Any]] = None
    with _patched(log):  # outside the try: a missing wrap point is fatal
        t0 = time.perf_counter()
        try:
            with _traced(log, "op"):
                report = Canary(AnalysisConfig(use_cache=False)).analyze_source(
                    source, filename=f"{name}.mcc"
                )
            verdict_s = time.perf_counter() - t0
        except Exception:
            op = _failed_op(time.perf_counter() - t0)
    if op is None:
        summary = _summary_of_report(report)
        op = {
            "verdict_s": verdict_s,
            "failed": summary["degraded"],
            "wrong": _subject_check(name, summary, source),
            "counts": counts_of(summary, source),
        }
    op["traced"] = log is not None
    return {"setup_s": setup_s, "ops": [op], "trace": _trace_result(log)}


def run_corpus_pass(spec: Dict[str, Any]) -> Dict[str, Any]:
    files = W.corpus_order(spec["seed"], spec["index"], W.corpus_files())
    texts = [(path.name, path.read_text()) for path in files]
    setup_s = time.time() - spec["spawned_at"]
    log = SpanLog() if spec["trace"] else None
    ops: List[Dict[str, Any]] = []
    with _patched(log):
        for filename, text in texts:
            expects, checkers, overrides = W.parse_directives(text)
            config = AnalysisConfig(checkers=checkers, **overrides)
            t0 = time.perf_counter()
            try:
                with _traced(log, "op"):
                    report = Canary(config).analyze_source(text, filename=filename)
                    replay = (
                        confirm.confirm_all(report.bundle.module, report.bugs)
                        if config.memory_model == "sc" and report.bundle is not None
                        else []
                    )
                verdict_s = time.perf_counter() - t0
            except Exception:
                ops.append(_failed_op(time.perf_counter() - t0))
                continue
            summary = _summary_of_report(report)
            counts = counts_of(summary, text)
            counts["replayed"] = len(replay)
            counts["confirmed"] = sum(1 for r in replay if r.confirmed)
            ops.append({
                "verdict_s": verdict_s,
                "failed": summary["degraded"],
                "wrong": W.corpus_wrong_verdicts(
                    expects, Counter(kind for kind, _s, _k in summary["bugs"])
                ),
                "counts": counts,
                "traced": log is not None,
            })
    return {"setup_s": setup_s, "ops": ops, "trace": _trace_result(log)}


def _request(service, sources, name, log) -> Dict[str, Any]:
    """One blocking request through the daemon's service, checked."""
    source = sources[name]
    t0 = time.perf_counter()
    with _traced(log, "server.request"):
        record = service.analyze(source, f"{name}.mcc", timeout=REQUEST_TIMEOUT_S)
    verdict_s = time.perf_counter() - t0
    summary = _summary_of_record(record)
    counts = counts_of(summary, source)
    if record.started_at is not None:
        counts["queue_wait_s"] = record.started_at - record.submitted_at
    return {
        "verdict_s": verdict_s,
        "failed": summary["degraded"],
        "wrong": _subject_check(name, summary, source),
        "counts": counts,
    }


def _merge_round(requests: List[Dict[str, Any]]) -> Dict[str, Any]:
    counts: Counter = Counter()
    for request in requests:
        counts.update(request["counts"])
    return {
        "verdict_s": sum(r["verdict_s"] for r in requests),
        "failed": any(r["failed"] for r in requests),
        "wrong": sum(r["wrong"] for r in requests),
        "counts": dict(counts),
        "request_s": {W.EDIT_FILES[i]: r["verdict_s"] for i, r in enumerate(requests)},
    }


def _edit_round(service, sources, plan, log: Optional[SpanLog]) -> Dict[str, Any]:
    """One request per file, in turn, each after applying its next edit."""
    requests = []
    with _traced(log, "op"):
        for name in W.EDIT_FILES:
            index, (_name, function) = next(plan)
            sources[name] = W.apply_edit(sources[name], function, index)
            requests.append(_request(service, sources, name, log))
    return _merge_round(requests)


def run_edit_session(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Fill a resident service with both subjects, then edit until time is up.

    One operation is one edit round.  Set-up is the two cold analyses
    that fill the store plus one warm-up round, whose edits run slower
    than later ones: a cost a resident daemon pays once per session.  Its
    verdicts are checked like every other.  The store grows with every
    round, so peak RSS is read after a fixed number of timed rounds.
    """
    sources = {name: W.subject_source(name, spec["seed"]) for name in W.EDIT_FILES}
    entries = {name: W.thread_entries(name, src) for name, src in sources.items()}
    plan = enumerate(W.edit_plan(spec["seed"], 10_000, entries))
    service = AnalysisService(workers=1)
    log = SpanLog() if spec["trace"] else None
    ops: List[Dict[str, Any]] = []
    try:
        fill = [_request(service, sources, name, None) for name in W.EDIT_FILES]
        fill.append(_edit_round(service, sources, plan, None))
        setup_s = time.time() - spec["spawned_at"]
        start = time.perf_counter()
        last = 0.0
        while len(ops) < RSS_ROUNDS or time.perf_counter() - start + last <= spec["seconds"]:
            # traced sessions trace every other round to measure the overhead
            round_log = log if len(ops) % 2 == 0 else None
            t0 = time.perf_counter()
            with _patched(round_log):
                op = _edit_round(service, sources, plan, round_log)
            last = time.perf_counter() - t0
            op["traced"] = round_log is not None
            ops.append(op)
            if len(ops) == RSS_ROUNDS:
                rss_mb = _rss_mb()
    finally:
        service.shutdown()
    return {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "ops": ops,
        "fill": [{"wrong": r["wrong"], "failed": r["failed"]} for r in fill],
        "trace": _trace_result(log),
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


MODES = {"cold": run_cold, "corpus": run_corpus_pass, "edit": run_edit_session}


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    result = MODES[spec["mode"]](spec)
    result.setdefault("rss_mb", _rss_mb())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
