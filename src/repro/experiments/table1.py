"""Table I — Error properties for a Viterbi decoder.

Paper setting: SNR = 5 dB, traceback L = 6, T = 300; properties P1
(best case), P2 (average case), P3 (worst case) checked on the full
model ``M`` and the reduced model ``M_R``; the paper reports

    P1: 53,558,744 -> 8,505,363 states,  90.80 s, result 3e-15
    P2: 53,558,744 -> 8,505,363 states, 184.13 s, result 0.2394
    P3: 107,504,890 -> 16,435,490 states, 365.68 s, result ~= 1

This experiment rebuilds both models at a laptop-scale quantizer (L=6,
5 levels, saturating path metrics at 6: the paper's L=6 with a coarser
front end, so ``M`` stays an explicit chain in memory), checks the same
three properties on each, and reports states/time/value.  The shape
claims are: the reduced model is several times smaller, values agree
exactly between ``M`` and ``M_R``, and P1 ~ 0 << P2 << P3 ~ 1 at this
SNR.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..core.metrics import average_case_error, best_case_error, worst_case_error
from ..pctl import ModelChecker
from ..viterbi import ViterbiModelConfig
from ..zoo import build as zoo_build
from ..zoo import viterbi_family_params
from .report import banner, format_table

__all__ = ["Table1Row", "run", "main", "PAPER_REFERENCE"]

#: The paper's reported numbers, for side-by-side display.
PAPER_REFERENCE = {
    "P1": (53_558_744, 8_505_363, 90.80, 3e-15),
    "P2": (53_558_744, 8_505_363, 184.13, 0.2394),
    "P3": (107_504_890, 16_435_490, 365.68, 1.0),
}


@dataclass
class Table1Row:
    """One property's measurement (our scale)."""

    name: str
    property_string: str
    states_full: int
    states_reduced: int
    seconds: float
    value_full: float
    value_reduced: float

    @property
    def values_agree(self) -> bool:
        return abs(self.value_full - self.value_reduced) < 1e-9


def run(
    config: Optional[ViterbiModelConfig] = None, horizon: int = 300
) -> List[Table1Row]:
    """Check P1/P2/P3 on M and M_R; returns one row per property."""
    config = config or ViterbiModelConfig(traceback_length=6, num_levels=5)
    rows: List[Table1Row] = []

    # Both chains come from the scenario zoo (keep_full=True gives the
    # full model M alongside the abstraction quotient M_R).
    start = time.perf_counter()
    scenario = zoo_build(
        "viterbi-memory-m", viterbi_family_params(config), keep_full=True
    )
    build_seconds = time.perf_counter() - start

    # One checker (and so one engine, one cache set) per chain: P1 and
    # P2 against M and M_R share whatever per-chain work they need.
    checker_full = ModelChecker(scenario.full_chain)
    checker_reduced = ModelChecker(scenario.chain)
    for spec in (best_case_error(horizon), average_case_error(horizon)):
        t0 = time.perf_counter()
        value_full = checker_full.check(spec.property_string).value
        value_reduced = checker_reduced.check(spec.property_string).value
        elapsed = time.perf_counter() - t0 + build_seconds
        rows.append(
            Table1Row(
                name=spec.name,
                property_string=spec.property_string,
                states_full=scenario.full_states,
                states_reduced=scenario.reduced_states,
                seconds=elapsed,
                value_full=float(value_full),
                value_reduced=float(value_reduced),
            )
        )

    # P3 uses the error-counter extension of both models (the paper's
    # larger Table-I state counts for P3).
    spec = worst_case_error(horizon, threshold=1)
    t0 = time.perf_counter()
    p3 = zoo_build(
        "viterbi-errcnt",
        viterbi_family_params(config, error_count=True),
        keep_full=True,
    )
    value_full = ModelChecker(p3.full_chain).check(spec.property_string).value
    value_reduced = ModelChecker(p3.chain).check(spec.property_string).value
    elapsed = time.perf_counter() - t0
    rows.append(
        Table1Row(
            name=spec.name,
            property_string=spec.property_string,
            states_full=p3.full_states,
            states_reduced=p3.reduced_states,
            seconds=elapsed,
            value_full=float(value_full),
            value_reduced=float(value_reduced),
        )
    )
    return rows


def main(config: Optional[ViterbiModelConfig] = None, horizon: int = 300) -> str:
    """Run and render the experiment; returns the printed report."""
    rows = run(config, horizon)
    lines = [banner("Table I - Error properties for a Viterbi decoder")]
    table_rows = []
    for row in rows:
        paper = PAPER_REFERENCE[row.name]
        table_rows.append(
            [
                row.name,
                row.states_full,
                row.states_reduced,
                f"{row.seconds:.2f}",
                row.value_reduced,
                paper[0],
                paper[1],
                paper[3],
            ]
        )
    lines.append(
        format_table(
            [
                "Prop",
                "States (M)",
                "States (M_R)",
                "Time s",
                "Result",
                "Paper M",
                "Paper M_R",
                "Paper result",
            ],
            table_rows,
        )
    )
    lines.append(
        "shape checks: reduction factor"
        f" {rows[0].states_full / rows[0].states_reduced:.1f}x;"
        f" M vs M_R agree: {all(r.values_agree for r in rows)};"
        f" P1={rows[0].value_reduced:.2e} << P2={rows[1].value_reduced:.4f}"
        f" << P3={rows[2].value_reduced:.4f}"
    )
    report = "\n".join(lines)
    print(report)
    return report


if __name__ == "__main__":
    main()
