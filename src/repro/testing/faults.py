"""Deterministic fault injection for the degradation paths.

The resource-governance layer promises that a crashing pass, a stalled
solver query, or a dying worker process degrades one report instead of
taking down the run.  Promises about error paths rot unless they are
exercised, so the pipeline carries named **fault points** — cheap no-op
hooks (:func:`fault_point`) at the places failures occur in the wild:

* ``pass:<name>`` — entry of every pipeline pass (``pass:pointer``,
  ``pass:interference``, ``pass:detect:use-after-free``, ...);
* ``solver:solve`` — entry of :func:`repro.smt.solver.solve_formula`,
  i.e. every SMT query, in the driver or in a detection worker;
* ``worker:detect`` — start of each detection-pool task
  (``detect_workers > 1``), used to simulate pool deaths.

A :class:`FaultPlan` arms a set of points with one of three behaviors:

* **crash** — raise :class:`FaultError` (a pass/checker exception);
* **stall** — sleep ``stall_seconds`` (a slow query that should trip
  the per-query solver deadline);
* **die** — ``os._exit`` the current *worker process* (a pool death;
  a guard makes this a no-op in the main process, so the driver is
  never killed).  With ``die_once_path`` set, only the first worker to
  reach the point dies (a crash-then-recover scenario); without it,
  every worker dies.

Plans install into a module global *and* the ``CANARY_FAULTS``
environment variable (JSON), so forked/spawned pool workers observe the
same plan.  Everything is deterministic: which points fire is fixed by
the plan, and :func:`plan_from_seed` derives a reproducible plan from an
integer seed — CI runs the suite under a ``CANARY_FAULT_SEED`` matrix to
sweep scenarios without any test-side randomness.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "SEED_ENV_VAR",
    "FaultError",
    "FaultPlan",
    "clear",
    "fault_point",
    "inject",
    "install",
    "plan_from_seed",
]

ENV_VAR = "CANARY_FAULTS"
SEED_ENV_VAR = "CANARY_FAULT_SEED"

#: exit status of a worker killed by a ``die`` fault (diagnosable in CI logs)
DIE_EXIT_CODE = 86

#: the process that imported this module first (the analysis driver);
#: ``die`` points only ever fire in a *different* (worker) process.
_MAIN_PID = os.getpid()


class FaultError(RuntimeError):
    """Raised by an armed ``crash`` fault point."""


@dataclass(frozen=True)
class FaultPlan:
    """Which fault points fire, and how."""

    crash: FrozenSet[str] = frozenset()
    stall: FrozenSet[str] = frozenset()
    die: FrozenSet[str] = frozenset()
    #: raise ``KeyboardInterrupt`` — control flow that must *propagate*
    #: out of the pipeline (degradation catches never swallow it)
    interrupt: FrozenSet[str] = frozenset()
    #: raise :class:`~repro.analysis.budget.BudgetExceededError` — a hard
    #: budget unwind that must likewise propagate, never degrade
    cancel: FrozenSet[str] = frozenset()
    stall_seconds: float = 0.2
    #: when set, a ``die`` point kills only the first worker to reach it
    #: (the path file is the cross-process "already died" token)
    die_once_path: Optional[str] = None

    @staticmethod
    def make(
        crash: Iterable[str] = (),
        stall: Iterable[str] = (),
        die: Iterable[str] = (),
        interrupt: Iterable[str] = (),
        cancel: Iterable[str] = (),
        stall_seconds: float = 0.2,
        die_once_path: Optional[str] = None,
    ) -> "FaultPlan":
        return FaultPlan(
            crash=frozenset(crash),
            stall=frozenset(stall),
            die=frozenset(die),
            interrupt=frozenset(interrupt),
            cancel=frozenset(cancel),
            stall_seconds=stall_seconds,
            die_once_path=die_once_path,
        )

    # ----- (de)serialization (env-var transport to pool workers) ---------

    def to_json(self) -> str:
        return json.dumps(
            {
                "crash": sorted(self.crash),
                "stall": sorted(self.stall),
                "die": sorted(self.die),
                "interrupt": sorted(self.interrupt),
                "cancel": sorted(self.cancel),
                "stall_seconds": self.stall_seconds,
                "die_once_path": self.die_once_path,
            }
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        data = json.loads(text)
        return FaultPlan.make(
            crash=data.get("crash", ()),
            stall=data.get("stall", ()),
            die=data.get("die", ()),
            interrupt=data.get("interrupt", ()),
            cancel=data.get("cancel", ()),
            stall_seconds=data.get("stall_seconds", 0.2),
            die_once_path=data.get("die_once_path"),
        )

    def points(self) -> FrozenSet[str]:
        return self.crash | self.stall | self.die | self.interrupt | self.cancel


@dataclass
class _State:
    plan: Optional[FaultPlan] = None
    #: fired-point counters (main process only; diagnostics for tests)
    fired: Dict[str, int] = field(default_factory=dict)
    #: env-var parse memo: (raw value, parsed plan)
    env_memo: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


_state = _State()
_lock = threading.Lock()


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process and (via the environment) in every
    pool worker forked or spawned afterwards."""
    with _lock:
        _state.plan = plan
        _state.fired = {}
    os.environ[ENV_VAR] = plan.to_json()


def clear() -> None:
    with _lock:
        _state.plan = None
        _state.env_memo = (None, None)
    os.environ.pop(ENV_VAR, None)


@contextmanager
def inject(plan: FaultPlan):
    """``with inject(plan): ...`` — arm, run, always disarm."""
    previous_env = os.environ.get(ENV_VAR)
    install(plan)
    try:
        yield plan
    finally:
        clear()
        if previous_env is not None:
            os.environ[ENV_VAR] = previous_env


def fired(name: str) -> int:
    """How often ``name`` fired in this process (test diagnostics)."""
    with _lock:
        return _state.fired.get(name, 0)


def _active_plan() -> Optional[FaultPlan]:
    plan = _state.plan
    if plan is not None:
        return plan
    # Worker processes inherit only the environment copy of the plan.
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    memo_raw, memo_plan = _state.env_memo
    if raw == memo_raw:
        return memo_plan
    try:
        plan = FaultPlan.from_json(raw)
    except (ValueError, KeyError):
        plan = None
    with _lock:
        _state.env_memo = (raw, plan)
    return plan


def fault_point(name: str) -> None:
    """A named hook on a production code path; no-op unless a plan arms it.

    Ordering on a multiply-armed point: die, then stall, then
    interrupt/cancel, then crash — so a single point can model "slow,
    then fails" by arming stall+crash.
    """
    plan = _active_plan()
    if plan is None:
        return
    in_worker = os.getpid() != _MAIN_PID
    armed = name in plan.points()
    if not armed:
        return
    with _lock:
        _state.fired[name] = _state.fired.get(name, 0) + 1
    if name in plan.die and in_worker:
        if plan.die_once_path is not None:
            try:
                # O_EXCL: exactly one worker wins the token and dies.
                fd = os.open(
                    plan.die_once_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.close(fd)
            except FileExistsError:
                pass
            else:
                os._exit(DIE_EXIT_CODE)
        else:
            os._exit(DIE_EXIT_CODE)
    if name in plan.stall:
        time.sleep(plan.stall_seconds)
    if name in plan.interrupt:
        raise KeyboardInterrupt(f"injected interrupt at {name!r}")
    if name in plan.cancel:
        from ..analysis.budget import BudgetExceededError

        raise BudgetExceededError(where=name, reason="injected budget expiry")
    if name in plan.crash:
        raise FaultError(f"injected fault at {name!r}")


# ----- seeded scenario sampling (the CI fault matrix) -----------------------

#: points a seeded plan may crash — every one must degrade gracefully
CRASHABLE_POINTS = (
    "pass:verify",
    "pass:pointer",
    "pass:tcg",
    "pass:mhp",
    "pass:interference",
    "pass:detect:use-after-free",
)


def plan_from_seed(seed: int, stall_seconds: float = 0.2) -> FaultPlan:
    """A deterministic fault scenario for an integer seed.

    Seed 0 is the empty plan (the control row of the CI matrix).  Other
    seeds deterministically pick a crash point, and every third seed
    additionally stalls the solver — covering crash-only, crash+stall
    combinations without randomness inside any single run.
    """
    if seed <= 0:
        return FaultPlan()
    crash = {CRASHABLE_POINTS[(seed - 1) % len(CRASHABLE_POINTS)]}
    stall = {"solver:solve"} if seed % 3 == 0 else set()
    return FaultPlan.make(crash=crash, stall=stall, stall_seconds=stall_seconds)


def seed_from_env(default: int = 0) -> int:
    """The CI matrix seed (``CANARY_FAULT_SEED``), or ``default``."""
    try:
        return int(os.environ.get(SEED_ENV_VAR, default))
    except ValueError:
        return default
