"""Inputs and known answers of the benchmark's workloads.

Everything here is decided by the benchmark, not by the analyzer: the
generated subjects come from ``tests/fuzz_gen.py``, whose injected bugs
are known by construction, and the corpus answers come from each file's
``// EXPECT`` directives.  A verdict is checked by the kind of each
report and by the functions that hold its source and sink, found from
the declaration order of the generated text (the lowering gives function
``i`` the label block ``i``).
"""

from __future__ import annotations

import random
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
TESTS_DIR = ROOT / "tests"
CORPUS_DIR = TESTS_DIR / "corpus"

SCALED_SHAPE = {"n_groups": 120, "helpers_per_group": 2}
#: ``detection_scaled_program`` is deterministic: it takes no seed
DETECT_SHAPE = {"n_threads": 64, "n_slots": 3, "pad_functions": 656}

_FUNC_RE = re.compile(r"^void (\w+)\(", re.M)
_EXPECT_RE = re.compile(r"^//\s*EXPECT\s+(\S+)\s+(\d+)(?:\s+(\d+))?\s*$")
_CHECKERS_RE = re.compile(r"^//\s*CHECKERS\s+(\S+)\s*$")
_CONFIG_RE = re.compile(r"^//\s*CONFIG\s+(\w+)=(\S+)\s*$")

# ----- generated subjects ----------------------------------------------------


def subject_source(name: str, seed: int) -> str:
    """Source text of a generated subject (``scaled721`` or ``detect192``)."""
    import fuzz_gen

    if name == "scaled721":
        return fuzz_gen.scaled_program(seed, **SCALED_SHAPE)
    if name == "detect192":
        return fuzz_gen.detection_scaled_program(**DETECT_SHAPE)
    raise ValueError(f"unknown subject {name!r}")


def expected_bugs(name: str) -> Counter:
    """The injected bugs of a subject, as (kind, source fn, sink fn) counts.

    ``scaled_program`` injects one use-after-free in each of its first two
    groups: ``wthread<g>`` frees what main then dereferences.  In
    ``detection_scaled_program`` every writer thread ``wt<t>`` frees on each
    of the three slots main dereferences: 64 x 3 = 192.
    """
    if name == "scaled721":
        return Counter({("use-after-free", f"wthread{g}", "main"): 1 for g in range(2)})
    if name == "detect192":
        return Counter(
            {("use-after-free", f"wt{t}", "main"): DETECT_SHAPE["n_slots"]
             for t in range(DETECT_SHAPE["n_threads"])}
        )
    raise ValueError(f"unknown subject {name!r}")


def function_order(source: str) -> List[str]:
    return _FUNC_RE.findall(source)


def bug_keys(
    bugs: Iterable[Tuple[str, int, int]], functions: Sequence[str], stride: int
) -> Counter:
    """(kind, source label, sink label) triples -> (kind, source fn, sink fn)
    counts; ``stride`` is the lowering's label block size."""
    def owner(label: int) -> str:
        index = label // stride
        return functions[index] if index < len(functions) else f"<block {index}>"

    return Counter((kind, owner(src), owner(sink)) for kind, src, sink in bugs)


def wrong_verdicts(got: Counter, expected: Counter) -> int:
    """Reports missing from or extra to the known answer."""
    return sum(((got - expected) + (expected - got)).values())


def thread_entries(name: str, source: str) -> List[str]:
    """Functions of a subject that run as forked-thread entries."""
    pattern = re.compile(r"wthread\d+" if name == "scaled721" else r"wt\d+")
    return [f for f in function_order(source) if pattern.fullmatch(f)]


# ----- edit_resident -----------------------------------------------------------

EDIT_FILES = ("scaled721", "detect192")


def edit_plan(seed: int, rounds: int, entries: Dict[str, List[str]]) -> List[Tuple[str, str]]:
    """The seeded edit sequence: per round one (file, function) per file,
    alternating files, each function drawn from that file's thread entries."""
    rng = random.Random(f"edit:{seed}")
    return [
        (name, rng.choice(entries[name])) for _ in range(rounds) for name in EDIT_FILES
    ]


def apply_edit(source: str, function: str, index: int) -> str:
    """Insert the dead local ``int edit_<i> = <i>;`` at the top of ``function``."""
    pattern = re.compile(r"^(void " + re.escape(function) + r"\([^)]*\) \{\n)", re.M)
    edited, count = pattern.subn(
        lambda m: m.group(1) + f"    int edit_{index} = {index};\n", source, count=1
    )
    if count != 1:
        raise ValueError(f"function {function!r} not found for edit {index}")
    return edited


# ----- corpus ------------------------------------------------------------------


def corpus_files() -> List[Path]:
    return sorted(CORPUS_DIR.glob("*.mcc"))


def corpus_order(seed: int, pass_index: int, files: Sequence[Path]) -> List[Path]:
    order = list(files)
    random.Random(f"corpus:{seed}:{pass_index}").shuffle(order)
    return order


def parse_directives(text: str):
    """(expects, checkers, config overrides) from a corpus file's comments.

    ``// EXPECT <kind> <min> [<max>]`` pins a report-count range (max
    defaults to min); ``// CHECKERS a,b`` names the checkers (default: the
    EXPECT kinds, else use-after-free); ``// CONFIG key=value`` overrides
    an ``AnalysisConfig`` field (true/false, integers, strings).
    """
    expects: Dict[str, Tuple[int, int]] = {}
    checkers: List[str] = []
    config: Dict[str, object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        m = _EXPECT_RE.match(line)
        if m:
            lo = int(m.group(2))
            expects[m.group(1)] = (lo, int(m.group(3)) if m.group(3) else lo)
            continue
        m = _CHECKERS_RE.match(line)
        if m:
            checkers = [c.strip() for c in m.group(1).split(",") if c.strip()]
            continue
        m = _CONFIG_RE.match(line)
        if m:
            key, value = m.group(1), m.group(2)
            if value in ("true", "false"):
                config[key] = value == "true"
            elif value.isdigit():
                config[key] = int(value)
            else:
                config[key] = value
    if not checkers:
        checkers = sorted(expects) or ["use-after-free"]
    return expects, tuple(checkers), config


def corpus_wrong_verdicts(expects: Dict[str, Tuple[int, int]], kinds: Counter) -> int:
    """EXPECT kinds whose report count falls outside the pinned range."""
    return sum(1 for kind, (lo, hi) in expects.items() if not lo <= kinds.get(kind, 0) <= hi)
