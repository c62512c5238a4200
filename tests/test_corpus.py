"""Regression corpus runner.

Each ``tests/corpus/*.mcc`` file carries directives in its leading
comments:

* ``// EXPECT <kind> <min> [<max>]`` — expected report count for that
  checker kind (``max`` defaults to ``min``);
* ``// CHECKERS a,b,c``              — checkers to run (default: the
  kinds named in EXPECT lines, or use-after-free);
* ``// CONFIG key=value``            — AnalysisConfig overrides
  (booleans and strings supported).

This is the analyzer's lit-test-style suite: every entry is a distinct
concurrency pattern with a pinned verdict.  Beyond the counts, every
file's exact bug keys — ``(kind, source label, sink label)`` — are pinned
in ``corpus_keys.json``; after an intended change to the reports,
regenerate it with ``PYTHONPATH=src python tests/test_corpus.py``.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Dict, List, Tuple

import pytest

from repro import AnalysisConfig, Canary

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.mcc"))
RECORDED_KEYS = pathlib.Path(__file__).parent / "corpus_keys.json"

_EXPECT_RE = re.compile(r"^//\s*EXPECT\s+(\S+)\s+(\d+)(?:\s+(\d+))?\s*$")
_CHECKERS_RE = re.compile(r"^//\s*CHECKERS\s+(\S+)\s*$")
_CONFIG_RE = re.compile(r"^//\s*CONFIG\s+(\w+)=(\S+)\s*$")


def _parse_directives(text: str):
    expects: Dict[str, Tuple[int, int]] = {}
    checkers: List[str] = []
    config: Dict[str, object] = {}
    for line in text.splitlines():
        m = _EXPECT_RE.match(line.strip())
        if m:
            kind, lo, hi = m.group(1), int(m.group(2)), m.group(3)
            expects[kind] = (lo, int(hi) if hi is not None else lo)
            continue
        m = _CHECKERS_RE.match(line.strip())
        if m:
            checkers = [c.strip() for c in m.group(1).split(",")]
            continue
        m = _CONFIG_RE.match(line.strip())
        if m:
            key, raw = m.group(1), m.group(2)
            if raw in ("true", "false"):
                config[key] = raw == "true"
            elif raw.isdigit():
                config[key] = int(raw)
            else:
                config[key] = raw
    if not checkers:
        checkers = sorted(expects) or ["use-after-free"]
    return expects, tuple(checkers), config


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_program(path: pathlib.Path):
    expects = _parse_directives(path.read_text())[0]
    assert expects, f"{path.name}: no EXPECT directive"
    report = _analyze(path)
    counts: Dict[str, int] = {}
    for bug in report.bugs:
        counts[bug.kind] = counts.get(bug.kind, 0) + 1
    for kind, (lo, hi) in expects.items():
        got = counts.get(kind, 0)
        assert lo <= got <= hi, (
            f"{path.name}: expected {lo}..{hi} {kind} report(s), got {got}\n"
            + "\n".join(b.describe() for b in report.bugs)
        )
    recorded = json.loads(RECORDED_KEYS.read_text())
    assert _bug_keys(report) == recorded.get(path.name), (
        f"{path.name}: bug keys differ from {RECORDED_KEYS.name}"
    )


def _analyze(path: pathlib.Path):
    text = path.read_text()
    _expects, checkers, overrides = _parse_directives(text)
    config = AnalysisConfig(checkers=checkers, **overrides)
    return Canary(config).analyze_source(text, filename=path.name)


def _bug_keys(report) -> List[List]:
    return sorted([b.kind, b.source.label, b.sink.label] for b in report.bugs)


def test_corpus_not_empty():
    assert len(CORPUS_FILES) >= 20


if __name__ == "__main__":
    keys = {path.name: _bug_keys(_analyze(path)) for path in CORPUS_FILES}
    rows = ",\n".join(f" {json.dumps(name)}: {json.dumps(k)}" for name, k in keys.items())
    RECORDED_KEYS.write_text("{\n" + rows + "\n}\n")
    print(f"recorded {sum(map(len, keys.values()))} keys over {len(keys)} files")
