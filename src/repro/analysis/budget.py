"""Unified resource budgets for one analysis run.

The paper's evaluation runs every subject under a hard wall-clock budget
and treats timeouts as first-class outcomes (§7: the 12-hour cap behind
every "NA" cell).  :class:`Budget` is the reproduction's equivalent: one
object carrying

* a **wall-clock deadline** for the whole run (``timeout_seconds``) that
  the pipeline checks cooperatively at pass boundaries and the checkers
  check between sources — on expiry the run winds down and returns a
  partial :class:`~repro.analysis.driver.AnalysisReport` flagged
  ``timed_out`` instead of hanging;
* a **soft per-pass budget** (``pass_timeout_seconds``): a pass that
  overruns it is *not* interrupted (passes are not preemptible) but the
  overrun is surfaced as a degradation warning, so pathological phases
  are visible even when the run completes;
* a **per-query solver deadline** (``solver_timeout_seconds``): every
  SMT query — in-process or in a detection worker — carries a relative
  timeout; the CDCL loop checks it and returns ``UNKNOWN`` with the
  reason recorded.

Budgets are cooperative: nothing is killed, every observation point
polls :meth:`expired` and degrades.  The object never crosses a process
boundary — detection workers build their own from the wall time that
remains.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

__all__ = ["Budget", "BudgetExceededError"]


class BudgetExceededError(Exception):
    """Control-flow exception for hard budget expiry / cancellation.

    Raised by callers that need a run to *unwind now* — the daemon's
    request cancellation, or a fault-injected hard expiry — rather than
    wind down cooperatively.  It is deliberately **not** a degradation:
    the pass-isolation catches in :mod:`repro.analysis.passes` re-raise
    it (alongside ``KeyboardInterrupt``-family interrupts, which never
    match ``except Exception`` in the first place) instead of converting
    the unwind into a ``degradation_warnings`` entry, so a cancelled run
    fails loudly instead of masquerading as a degraded-but-complete
    report.
    """

    def __init__(self, where: str = "", reason: str = "budget exceeded") -> None:
        super().__init__(f"{reason} at {where}" if where else reason)
        self.where = where
        self.reason = reason


class Budget:
    """Wall-clock / per-pass / per-solver-query budgets for one run.

    All three limits are optional (``None`` = unlimited); the default
    ``Budget()`` never expires, so callers can thread one object through
    unconditionally instead of special-casing "no budget".
    """

    def __init__(
        self,
        wall_seconds: Optional[float] = None,
        pass_seconds: Optional[float] = None,
        solver_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.wall_seconds = wall_seconds
        self.pass_seconds = pass_seconds
        self.solver_seconds = solver_seconds
        self._clock = clock
        self.started_at = clock()
        self._deadline = (
            self.started_at + wall_seconds if wall_seconds is not None else None
        )
        #: observation points at which expiry was noticed (for reports)
        self.expirations: List[str] = []
        #: external cancellation reason (daemon shutdown, client abort);
        #: a cancelled budget reads as expired at every observation point
        self.cancelled: Optional[str] = None

    @classmethod
    def from_config(cls, config) -> "Budget":
        """Budget for one run of the given :class:`AnalysisConfig`."""
        return cls(
            wall_seconds=config.timeout_seconds,
            pass_seconds=config.pass_timeout_seconds,
            solver_seconds=config.solver_timeout_seconds,
        )

    # ----- wall clock -------------------------------------------------------

    @property
    def unlimited(self) -> bool:
        return (
            self.wall_seconds is None
            and self.pass_seconds is None
            and self.solver_seconds is None
        )

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def remaining(self) -> Optional[float]:
        """Seconds until the wall deadline (never negative); None = unlimited."""
        if self.cancelled is not None:
            return 0.0
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def expired(self) -> bool:
        if self.cancelled is not None:
            return True
        return self._deadline is not None and self._clock() >= self._deadline

    def cancel(self, reason: str = "cancelled") -> None:
        """Externally cancel the run: every subsequent cooperative check
        observes expiry and the run winds down with partial results."""
        self.cancelled = reason

    def note_expired(self, where: str) -> bool:
        """Cooperative check: record the observation point on expiry."""
        if not self.expired():
            return False
        self.expirations.append(where)
        return True

    # ----- derived limits ---------------------------------------------------

    def over_pass_budget(self, seconds: float) -> bool:
        """Did a pass overrun its *soft* budget?  (Informational only.)"""
        return self.pass_seconds is not None and seconds > self.pass_seconds

    def query_timeout(self, floor: float = 0.05) -> Optional[float]:
        """The per-solver-query timeout, clipped to the remaining wall
        budget so late queries cannot overshoot the run deadline.

        ``floor`` keeps in-flight queries decidable during wind-down: a
        query issued after expiry still gets a tiny budget, returning
        ``UNKNOWN`` quickly instead of zero-budget thrash.
        """
        timeout = self.solver_seconds
        remaining = self.remaining()
        if remaining is not None:
            clipped = max(remaining, floor)
            timeout = clipped if timeout is None else min(timeout, clipped)
        return timeout

    def describe(self) -> str:
        parts = []
        if self.wall_seconds is not None:
            parts.append(f"wall {self.wall_seconds:g}s")
        if self.pass_seconds is not None:
            parts.append(f"pass {self.pass_seconds:g}s (soft)")
        if self.solver_seconds is not None:
            parts.append(f"solver query {self.solver_seconds:g}s")
        return ", ".join(parts) if parts else "unlimited"
