"""Benchmarks for the realizability engine's verdict cache (paper §5.2).

The workload is a corpus-style MiniCC program scaled until path queries
are genuinely expensive: ``n`` forked workers all publish-and-free into
one shared slot, and ``k`` readers dereference it, so every load edge
drags ``n`` interfering stores into Φ_ls and the run holds ``n × k``
candidates.

The claim pinned here: the cache hit counters are nonzero on a
repeated-query workload.  Repeated queries model what DFI calls reuse
of solved sub-queries: re-checks and checkers sharing path queries hand
the engine the same Φ_all many times.
"""

from __future__ import annotations

from repro.detection import PathQuery, RealizabilityChecker, ValueFlowPath, VerdictCache
from repro.frontend import parse_program
from repro.lowering import lower_program
from repro.vfg import build_vfg


def _shared_slot_program(n_workers: int, n_readers: int) -> str:
    lines = ["void main() {", "    int** slot = malloc();", "    int* init = malloc();", "    *slot = init;"]
    for i in range(n_workers):
        lines.append(f"    fork(t{i}, worker{i}, slot);")
    for j in range(n_readers):
        lines.append(f"    int* v{j} = *slot;")
        lines.append(f"    print(*v{j});")
    lines.append("}")
    for i in range(n_workers):
        lines.append(
            f"void worker{i}(int** s) {{ int* b{i} = malloc(); *s = b{i}; free(b{i}); }}"
        )
    return "\n".join(lines)


def _interference_queries(bundle):
    return [
        PathQuery(
            path=ValueFlowPath(origin=edge.src, edges=[edge]),
            source_inst=None,
            sink_inst=None,
        )
        for edge in bundle.vfg.interference_edges()
    ]


def test_verdict_cache_speeds_repeat_analysis(benchmark):
    """pytest-benchmark target: solving with the cache on a workload whose
    queries repeat (two checker passes over the same bundle)."""
    text = _shared_slot_program(n_workers=6, n_readers=2)
    bundle = build_vfg(lower_program(parse_program(text)))
    queries = _interference_queries(bundle)
    cache = VerdictCache()
    checker = RealizabilityChecker(bundle, cache=cache)
    for q in queries:  # warm pass: every later pass is all cache hits
        checker.check(q)

    def rerun():
        return [checker.check(q).verdict for q in queries]

    verdicts = benchmark(rerun)
    assert all(v in ("sat", "unsat", "unknown") for v in verdicts)
    assert cache.hits > 0
