"""Benchmarks for the detection pool and the disk summary namespace on
the 721-function generator subjects.

Two rows land in ``BENCH_sharding.json`` under the CI regression gate:
the detection pool on a detection-heavy subject (exactness is
hard-asserted; the speedup bar is core-conditional — a single-core host
can only match the serial phase), and the disk-warm summary namespace (a
fresh driver rehydrating 720/721 function summaries from disk after an
edit).  The disk-warm row's times are medians of ``REPEATS`` cold/warm
pairs: the summaries phase takes tens of milliseconds, too little for a
single run to be a stable regression baseline.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import sys

from repro import AnalysisConfig, Canary
from repro.bench import write_bench_results

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from fuzz_gen import detection_scaled_program, scaled_program  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "BENCH_sharding.json"

SUBJECT = scaled_program(n_groups=120, helpers_per_group=2)

#: the detection-heavy companion at the same module size (721 functions):
#: every writer republishes-and-frees on every slot, so the detect phase
#: (192 SMT-checked candidates) dominates instead of the summary phase.
DETECT_SUBJECT = detection_scaled_program(n_threads=64, n_slots=3, pad_functions=656)

#: cold/warm pairs timed for the disk-warm row (each in fresh cache dirs)
REPEATS = 5


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1

_results: dict = {}


def _record(name: str, **data) -> None:
    _results[name] = data
    write_bench_results(RESULTS, _results, suite="sharding")


def _detect_seconds(report) -> float:
    return sum(
        row["seconds"]
        for row in report.pass_statistics
        if row["name"].startswith("detect:")
    )


def test_detection_sharding_vs_serial():
    """The detection pool on the detection-heavy 721-function subject:
    each worker runs the per-source loop over its own part of the
    sources, so no worker repeats another's search.  Exactness (bug
    keys, witness paths, search statistics) is hard-asserted at every
    worker count; the ≥2x speedup bar applies only where the hardware
    can express it (≥4 usable cores — on a starved CI host the assertion
    degrades to bounded overhead, since a 1-core pool cannot beat the
    serial phase, only match it)."""

    def run(**overrides):
        overrides.setdefault("use_cache", False)
        return Canary(AnalysisConfig(**overrides)).analyze_source(DETECT_SUBJECT)

    serial = run()
    serial_detect = _detect_seconds(serial)
    serial_keys = sorted(b.key for b in serial.bugs)
    assert serial_keys  # the generator's deterministic UAF matrix

    variants = {}
    for workers in (2, 4, 8):
        rep = run(detect_workers=workers)
        assert sorted(b.key for b in rep.bugs) == serial_keys, (
            f"{workers} detect workers diverged"
        )
        assert sorted((b.key, tuple(b.path)) for b in rep.bugs) == sorted(
            (b.key, tuple(b.path)) for b in serial.bugs
        )
        assert rep.search_statistics == serial.search_statistics
        variants[workers] = _detect_seconds(rep)

    best = min(variants.values())
    speedup = serial_detect / max(best, 1e-9)
    cores = _cores()
    if cores >= 4:
        assert speedup >= 2.0, (
            f"detection sharding speedup {speedup:.2f}x on {cores} cores"
            f" ({serial_detect:.3f}s -> {best:.3f}s)"
        )
    else:
        # Starved host: the worker processes time-slice too few cores
        # and each pays pool start-up and its own setup, so the pool
        # cannot beat the serial phase here — the bar is bounded
        # overhead, not speedup.
        assert best <= serial_detect * 2.5, (
            f"sharded detect {best:.3f}s vs serial {serial_detect:.3f}s"
            f" on {cores} core(s)"
        )
    _record(
        "detection_sharding",
        bug_keys=len(serial_keys),
        serial_detect_s=round(serial_detect, 4),
        workers2_detect_s=round(variants[2], 4),
        workers4_detect_s=round(variants[4], 4),
        workers8_detect_s=round(variants[8], 4),
        speedup=round(speedup, 2),
    )


def test_disk_warm_summaries(tmp_path):
    """The portable disk summary namespace on the 721-function subject:
    a fresh driver analyzing an edited source rehydrates 720/721
    summaries from disk instead of refingerprinting the module."""

    def summaries_seconds(report) -> float:
        return sum(
            row["seconds"]
            for row in report.pass_statistics
            if row["name"] == "summaries"
        )

    edited = SUBJECT.replace("void main() {", "void main() {\n    int zz = 1 + 2;")
    cold_times, warm_times = [], []
    for i in range(REPEATS):
        # Fresh directories per pair: the warm run stores its whole-run
        # report, which would answer the next warm run without summaries.
        cache_dir = str(tmp_path / f"pair{i}")
        cache = dict(cache_dir=cache_dir, summary_cache_dir=cache_dir)
        cold = Canary(AnalysisConfig(**cache)).analyze_source(SUBJECT)
        cold_times.append(summaries_seconds(cold))
        # Fresh driver (new in-memory store — a new process in CI terms),
        # edited source: the run digest misses but the summary namespace hits.
        warm = Canary(AnalysisConfig(**cache)).analyze_source(edited)
        warm_times.append(summaries_seconds(warm))
    cold_s = statistics.median(cold_times)
    warm_s = statistics.median(warm_times)
    snap = warm.metrics.snapshot()
    assert snap["summary.disk_hits"] == 720
    assert snap["summary.computed"] == 1
    # Exactness: the disk-warm report equals a cold cacheless run of the
    # same edited source (the edit shifts labels, so the unedited cold
    # run is not the reference).
    ref = Canary(AnalysisConfig(use_cache=False)).analyze_source(edited)
    assert sorted(b.key for b in warm.bugs) == sorted(b.key for b in ref.bugs)
    assert warm.vfg_summary == ref.vfg_summary
    _record(
        "disk_warm_summaries",
        functions=721,
        disk_hits=720,
        recomputed=1,
        cold_summaries_s=round(cold_s, 4),
        diskwarm_summaries_s=round(warm_s, 4),
        speedup=round(cold_s / max(warm_s, 1e-9), 2),
    )
