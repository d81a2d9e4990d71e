"""Figure 2 — C1 as a function of the traceback length L.

The paper plots the probability of non-converging traceback paths
against L at a fixed SNR, observing that it decreases with L and
"stabilizes past L = 5m" — the empirical rule of thumb for choosing
traceback depth.  The driver fans the L sweep across
:func:`repro.engine.sweep` workers (each point builds and checks its
own convergence model), prints the series with the relative change per
step (the quantitative version of "stabilizes"), and renders a small
ASCII log-scale plot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..engine import sweep
from ..pctl import ModelChecker
from ..zoo import build as zoo_build
from .report import banner, format_table

__all__ = ["Figure2Result", "run", "main"]


@dataclass
class Figure2Result:
    lengths: List[int]
    values: List[float]
    states: List[int]
    snr_db: float
    seconds: float

    @property
    def is_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.values, self.values[1:]))

    def marginal_changes(self) -> List[float]:
        """Absolute change |C1(L+1) - C1(L)| per unit L.

        The paper's "stabilizes past L = 5m" is a linear-scale reading:
        C1 decays roughly geometrically, so the *absolute* step change
        collapses after a few multiples of the channel memory.
        """
        return [abs(b - a) for a, b in zip(self.values, self.values[1:])]


def _check_point(
    length: int, snr_db: float, horizon: Optional[int]
) -> Tuple[float, int]:
    """One sweep point: build the convergence model at ``length``, check C1.

    Module-level (not a closure) so ``executor="process"`` can pickle it.
    """
    scenario = zoo_build(
        "viterbi-convergence",
        {"snr_db": snr_db, "traceback_length": length},
    )
    checker = ModelChecker(scenario.chain)
    prop = "S=? [ nonconv ]" if horizon is None else f"R=? [ I={horizon} ]"
    return float(checker.check(prop).value), scenario.reduced_states


def run(
    lengths: Sequence[int] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
    snr_db: float = 8.0,
    horizon: Optional[int] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
) -> Figure2Result:
    """Sweep the traceback length; C1 via steady state (or ``R=?[I=h]``
    when ``horizon`` is given, as in the paper).

    Each sweep point is independent (own model, own checker), so the
    points can fan across ``executor`` workers ("process" or
    "remote"; the default "serial" runs them in-process, in order).
    """
    start = time.perf_counter()
    results = sweep(
        partial(_check_point, snr_db=snr_db, horizon=horizon),
        list(lengths),
        executor=executor,
        max_workers=max_workers,
        on_error="raise",
    )
    elapsed = time.perf_counter() - start
    return Figure2Result(
        lengths=list(lengths),
        values=[r.value[0] for r in results],
        states=[r.value[1] for r in results],
        snr_db=snr_db,
        seconds=elapsed,
    )


def _ascii_plot(lengths: Sequence[int], values: Sequence[float],
                width: int = 48) -> str:
    """Log-scale scatter of C1 vs L."""
    logs = [math.log10(max(v, 1e-300)) for v in values]
    low, high = min(logs), max(logs)
    span = max(high - low, 1e-9)
    lines = []
    for length, value, lv in zip(lengths, values, logs):
        position = int((lv - low) / span * (width - 1))
        lines.append(
            f"L={length:<3d} |" + " " * position + "*" +
            " " * (width - position - 1) + f"| {value:.3e}"
        )
    return "\n".join(lines)


def main(
    lengths: Sequence[int] = (2, 3, 4, 5, 6, 7, 8, 9, 10),
    snr_db: float = 8.0,
) -> str:
    result = run(lengths, snr_db)
    lines = [banner("Figure 2 - C1 as a function of L")]
    lines.append(
        format_table(
            ["L"] + [str(length) for length in result.lengths],
            [
                ["C1"] + result.values,
                ["states"] + result.states,
            ],
        )
    )
    lines.append(_ascii_plot(result.lengths, result.values))
    changes = result.marginal_changes()
    lines.append(
        f"shape checks: strictly decreasing: {result.is_decreasing};"
        f" absolute change per step falls from {changes[0]:.2e} to"
        f" {changes[-1]:.2e} (stabilization past L ~= 5m on a linear"
        " scale, as in the paper's plot)"
    )
    report = "\n".join(lines)
    print(report)
    return report


if __name__ == "__main__":
    main()
