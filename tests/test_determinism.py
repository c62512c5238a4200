"""Cross-run identity: independent processes must mint byte-identical
IR names, summary fingerprints, VFG summaries, and bug keys.

This is the end-to-end contract behind the portable disk summary
namespace — identity keys computed in one process must mean the same
thing in another, regardless of hash seed, import order, or interning
state.  The subprocess tests run the full pipeline twice under
*different* ``PYTHONHASHSEED`` values and compare JSON dumps byte for
byte.  The in-process tests analyse one input twice in the same
interpreter: nothing a run leaves behind (solver state included) may
change the next run's keys or witnesses.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import AnalysisConfig, Canary
from repro.analysis.fingerprint import report_to_portable
from repro.ir.values import VariableNamer
from repro.server import AnalysisService

from fuzz_gen import detection_scaled_program
from test_corpus import CORPUS_FILES

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

DRIVER = textwrap.dedent(
    """
    import json, sys
    from repro import AnalysisConfig, Canary

    text = open(sys.argv[1]).read()
    rep = Canary(AnalysisConfig(use_cache=False)).analyze_source(text)
    index = rep.bundle.summary_index
    fps = {n: s.fingerprint for n, s in index.summaries.items()} if index else {}
    print(json.dumps({
        "keys": sorted(str(b.key) for b in rep.bugs),
        "vfg": rep.vfg_summary,
        "fps": fps,
        "vars": sorted(
            v.name
            for fn in rep.bundle.module.functions.values()
            for inst in fn.body
            if (v := getattr(inst, "target", None)) is not None
        ),
    }, sort_keys=True))
    """
)


def _pipeline_dump(path, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER, str(path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


class TestVariableNamer:
    def test_names_are_pure_functions_of_scope_prefix_ordinal(self):
        a = VariableNamer("f")
        b = VariableNamer("f")
        seq_a = [a.fresh("tmp").name, a.fresh("tmp").name, a.fresh("phi").name]
        seq_b = [b.fresh("tmp").name, b.fresh("tmp").name, b.fresh("phi").name]
        assert seq_a == seq_b == ["f::tmp", "f::tmp#1", "f::phi"]

    def test_scopes_do_not_collide(self):
        assert VariableNamer("f").fresh("tmp").name != VariableNamer("g").fresh("tmp").name

    def test_source_name_passthrough(self):
        v = VariableNamer("f").fresh("load", source_name="p")
        assert v.name == "f::load"
        assert v.source_name == "p"

    def test_separators_cannot_occur_in_identifiers(self):
        # ``::`` and ``#`` are not legal MiniCC identifier characters, so
        # scoped names can never collide with user variables.
        v = VariableNamer("worker").fresh("tmp")
        assert "::" in v.name


class TestCrossProcess:
    @pytest.mark.parametrize("stem", ["uaf_basic", "mixed_all_checkers"])
    def test_two_processes_differ_only_in_hashseed(self, stem):
        path = next(p for p in CORPUS_FILES if p.stem == stem)
        first = _pipeline_dump(path, "1")
        second = _pipeline_dump(path, "4242")
        assert first == second
        payload = json.loads(first)
        assert payload["fps"]
        assert all("::" in name for name in payload["vars"] if "::" in name)

    def test_full_corpus_fingerprints_stable(self, tmp_path):
        # One subprocess per seed over the whole corpus (batched in a
        # single interpreter each, to keep this test affordable).
        batch = textwrap.dedent(
            """
            import json, sys
            from repro import AnalysisConfig, Canary
            out = {}
            for path in sys.argv[1:]:
                rep = Canary(AnalysisConfig(use_cache=False)).analyze_source(
                    open(path).read()
                )
                index = rep.bundle.summary_index
                out[path] = {
                    "keys": sorted(str(b.key) for b in rep.bugs),
                    "fps": {n: s.fingerprint for n, s in index.summaries.items()}
                    if index
                    else {},
                }
            print(json.dumps(out, sort_keys=True))
            """
        )
        files = [str(p) for p in CORPUS_FILES]
        dumps = []
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=REPO_SRC)
            proc = subprocess.run(
                [sys.executable, "-c", batch, *files],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            dumps.append(proc.stdout)
        assert dumps[0] == dumps[1]


def _witness_dump(portable):
    """The report list of a portable report, in report order, as JSON:
    keys, paths and witnesses."""
    return json.dumps(portable["bugs"], sort_keys=True)


class TestRunHistory:
    """The report list, in order, must not depend on what the process
    analysed before (memory objects hash by identity, so any set of them
    iterated on the way to the VFG or a report shows up here)."""

    SOURCE = detection_scaled_program(n_threads=5, n_slots=3, pad_functions=0)

    def test_same_input_twice_in_one_process(self):
        dumps = [
            _witness_dump(
                report_to_portable(
                    Canary(AnalysisConfig(use_cache=False)).analyze_source(self.SOURCE)
                )
            )
            for _ in range(2)
        ]
        assert json.loads(dumps[0]), "subject produced no reports"
        assert dumps[0] == dumps[1]

    def test_same_input_twice_through_one_service(self):
        service = AnalysisService(AnalysisConfig(use_cache=False), workers=1)
        try:
            dumps = []
            for _ in range(2):
                record = service.analyze(self.SOURCE, timeout=120)
                assert record.status == "done", record.status
                dumps.append(_witness_dump(record.result))
        finally:
            service.shutdown()
        assert json.loads(dumps[0]), "subject produced no reports"
        assert dumps[0] == dumps[1]
