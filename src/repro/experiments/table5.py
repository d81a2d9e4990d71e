"""Table V — BER for the MIMO detectors vs T, plus the simulation duel.

Paper (RI = 3): 1x2 at 8 dB gives 0.277 / 0.291 / 0.296 at
T = 5 / 10 / 20; 1x4 at 12 dB gives 1.08e-5 at every horizon.  The
accompanying text is the paper's headline argument: simulating 1e7
steps estimates 1.07e-5 for the 1x4 system — matching the
model-checked value — while 1e5 steps see *zero* errors, i.e.
simulation at realistic budgets cannot resolve low BERs that model
checking computes exactly.

The driver model-checks ``R=? [I=T]`` for both detectors, then runs the
Monte-Carlo baseline twice (a short run expected to see no errors at
high diversity, and a long run expected to agree with the model).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from ..engine import sweep_values
from ..mimo import MimoSystemConfig
from ..pctl import ModelChecker
from ..sim import BerEstimate, rule_of_three_upper_bound, simulate_detector_ber
from ..zoo import build as zoo_build
from ..zoo import mimo_family_params
from .report import banner, format_table

__all__ = ["Table5Row", "Table5Result", "run", "main", "PAPER_REFERENCE"]

PAPER_REFERENCE = {
    ("1x2", 5): 0.277,
    ("1x2", 10): 0.291,
    ("1x2", 20): 0.296,
    ("1x4", 5): 1.08e-5,
    ("1x4", 10): 1.08e-5,
    ("1x4", 20): 1.08e-5,
    "sim_long": 1.07e-5,
    "RI": 3,
}


@dataclass
class Table5Row:
    system: str
    horizons: List[int]
    values: List[float]
    states: int


@dataclass
class Table5Result:
    rows: List[Table5Row]
    short_sim: Optional[BerEstimate]
    long_sim: Optional[BerEstimate]
    model_ber_high_diversity: float
    seconds: float


def _check_system(
    item: Tuple[str, MimoSystemConfig], horizons: Sequence[int]
) -> Table5Row:
    """One sweep point per antenna configuration: build the reduced
    detector, then batch all horizons through one checker/engine.
    Module-level so ``executor="process"`` can pickle it."""
    name, config = item
    scenario = zoo_build("mimo-1xN", mimo_family_params(config))
    checker = ModelChecker(scenario.chain)
    results = checker.check_many([f"R=? [ I={t} ]" for t in horizons])
    return Table5Row(
        system=name,
        horizons=list(horizons),
        values=[float(r.value) for r in results],
        states=scenario.reduced_states,
    )


def run(
    configs: Optional[List[Tuple[str, MimoSystemConfig]]] = None,
    horizons: Sequence[int] = (5, 10, 20),
    short_sim_steps: int = 100_000,
    long_sim_steps: int = 2_000_000,
    with_simulation: bool = True,
    executor: str = "serial",
) -> Table5Result:
    if configs is None:
        configs = [
            ("1x2", MimoSystemConfig(num_rx=2, snr_db=8.0)),
            ("1x4", MimoSystemConfig(num_rx=4, snr_db=12.0)),
        ]
    start = time.perf_counter()
    rows: List[Table5Row] = sweep_values(
        partial(_check_system, horizons=tuple(horizons)),
        list(configs),
        executor=executor,
    )

    short_sim = long_sim = None
    model_ber = rows[-1].values[-1]
    if with_simulation:
        # The paper's duel, both halves at our scale: the short run on
        # the highest-diversity system sees zero errors (simulation
        # cannot resolve the BER), while a long run on the lower-
        # diversity system — whose BER a few million steps *can*
        # resolve — agrees with the model-checked value.
        short_sim = simulate_detector_ber(
            configs[-1][1], num_steps=short_sim_steps, seed=0
        )
        long_sim = simulate_detector_ber(
            configs[0][1], num_steps=long_sim_steps, seed=1
        )
    elapsed = time.perf_counter() - start
    return Table5Result(
        rows=rows,
        short_sim=short_sim,
        long_sim=long_sim,
        model_ber_high_diversity=model_ber,
        seconds=elapsed,
    )


def main(
    configs: Optional[List[Tuple[str, MimoSystemConfig]]] = None,
    horizons: Sequence[int] = (5, 10, 20),
    with_simulation: bool = True,
) -> str:
    result = run(configs, horizons, with_simulation=with_simulation)
    lines = [banner("Table V - BER for MIMO detectors vs T")]
    table_rows = []
    for row in result.rows:
        table_rows.append(
            [row.system + " (ours)"] + row.values + [row.states]
        )
        table_rows.append(
            [row.system + " (paper)"]
            + [PAPER_REFERENCE.get((row.system, t), "-") for t in row.horizons]
            + ["-"]
        )
    lines.append(
        format_table(
            ["MIMO"] + [f"T={t}" for t in result.rows[0].horizons] + ["states"],
            table_rows,
        )
    )
    if result.short_sim is not None:
        bound = rule_of_three_upper_bound(result.short_sim.trials)
        lines.append(
            f"simulation duel: on {result.rows[-1].system}, model BER ="
            f" {result.model_ber_high_diversity:.3e} but a"
            f" {result.short_sim.trials}-step simulation sees"
            f" {result.short_sim.errors} errors"
            f" (can only conclude BER < {bound:.1e});"
            f" on {result.rows[0].system}, a {result.long_sim.trials}-step"
            f" simulation gives {result.long_sim}"
            f" vs model {result.rows[0].values[-1]:.3e}"
        )
    ber_1x2 = result.rows[0].values[-1]
    ber_high = result.rows[-1].values[-1]
    lines.append(
        f"shape check: diversity gap {ber_1x2:.3e} >> {ber_high:.3e}"
        f" ({ber_1x2 / max(ber_high, 1e-300):.1e}x)"
    )
    report = "\n".join(lines)
    print(report)
    return report


if __name__ == "__main__":
    main()
