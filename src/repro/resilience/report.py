"""Sweep health reports: one summary object per fabric run.

A fault-tolerant sweep never throws away a grid — it degrades points
into quarantined, retried, or timed-out results.  :class:`SweepReport`
is the roll-up of that triage: built from any list of
:class:`~repro.engine.SweepResult`, it counts what succeeded, what was
served from the store, what needed retries, what was quarantined (and
why), and how many validation warnings the surviving values carry.
The ``repro-zoo`` CLI prints it after every sweep; ``--resume`` runs
read it to show exactly how much work the store saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

__all__ = ["SweepReport"]


@dataclass
class SweepReport:
    """Aggregate outcome of one sweep.

    ``quarantined`` counts failed points (they stay in the result list
    with their error and attempt count instead of sinking the sweep);
    ``timed_out`` is the subset killed by a
    :class:`~repro.resilience.DeadlinePolicy`; ``crashed`` the subset
    lost to worker death (``BrokenProcessPool`` on the process
    executor, ``WorkerLost`` on the worker fleet).  ``retried`` counts
    points that needed more than one attempt, whether or not they
    eventually succeeded.  ``recomputed`` is ``total - cached`` — on a
    ``--resume`` run, the points the store could not serve.
    """

    total: int = 0
    ok: int = 0
    cached: int = 0
    retried: int = 0
    quarantined: int = 0
    timed_out: int = 0
    crashed: int = 0
    warnings: int = 0
    attempts: int = 0
    seconds: float = 0.0
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def recomputed(self) -> int:
        """Points actually solved this run (not served from the store)."""
        return self.total - self.cached

    @classmethod
    def from_results(cls, results: Sequence[Any]) -> "SweepReport":
        """Summarize a list of :class:`~repro.engine.SweepResult`."""
        report = cls(total=len(results))
        for result in results:
            report.attempts += getattr(result, "attempts", 1) or 1
            report.seconds += getattr(result, "seconds", 0.0) or 0.0
            if getattr(result, "cached", False):
                report.cached += 1
            if (getattr(result, "attempts", 1) or 1) > 1:
                report.retried += 1
            report.warnings += len(getattr(result, "warnings", ()) or ())
            error = getattr(result, "error", None)
            if error is None:
                report.ok += 1
                continue
            report.quarantined += 1
            exc_name = str(error).split(":", 1)[0].strip()
            report.errors[exc_name] = report.errors.get(exc_name, 0) + 1
            if exc_name == "DeadlineExceeded":
                report.timed_out += 1
            elif exc_name in ("BrokenProcessPool", "WorkerLost"):
                report.crashed += 1
        return report

    @property
    def healthy(self) -> bool:
        """Every point succeeded and no value raised a warning?"""
        return self.quarantined == 0 and self.warnings == 0

    def describe(self) -> str:
        """One-line-per-fact summary for CLI output and logs."""
        lines: List[str] = [
            f"sweep report: {self.total} points,"
            f" ok={self.ok} cached={self.cached}"
            f" recomputed={self.recomputed} retried={self.retried}"
            f" quarantined={self.quarantined}"
            f" (timed_out={self.timed_out}, crashed={self.crashed})"
            f" warnings={self.warnings}"
        ]
        if self.errors:
            kinds = ", ".join(
                f"{name} x{count}" for name, count in sorted(self.errors.items())
            )
            lines.append(f"quarantine causes: {kinds}")
        lines.append(
            f"attempts={self.attempts} compute_seconds={self.seconds:.3f}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
