"""Table II — Symmetry reduction of the MIMO detector.

Paper setting: 1x2 detector at SNR 8 dB and 1x4 at 12 dB; PRISM prunes
sub-1e-15 branches on the 1x4 model.  Reported:

    1x2: 569,480 -> 32,088 states (factor 18)
    1x4: 524,288 ->  1,320 states (factor 400)

At our quantizer scale the full 1x2 model is explicitly built (so the
factor is *measured*, and the quotient's soundness is verifiable
against it); the 1x4 full model's size is exact by counting its product
support (every quantizer cell has positive probability), while its
quotient is built directly via on-the-fly symmetry reduction.  The
shape claim: the reduction factor grows steeply with the number of
symmetric blocks — 1x4's factor is orders beyond 1x2's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

from ..engine import sweep_values
from ..mimo import MimoSystemConfig, full_state_count
from ..zoo import build as zoo_build
from ..zoo import mimo_family_params
from .report import banner, format_table

__all__ = ["Table2Row", "run", "main", "PAPER_REFERENCE"]

PAPER_REFERENCE = {
    "1x2": (569_480, 32_088, 18),
    "1x4": (524_288, 1_320, 400),
}


@dataclass
class Table2Row:
    system: str
    states_full: int
    states_reduced: int
    seconds: float
    full_was_built: bool

    @property
    def reduction_factor(self) -> float:
        return self.states_full / self.states_reduced


def _build_system(
    item: Tuple[str, MimoSystemConfig], branch_cutoff: float
) -> Table2Row:
    """One sweep point: build one detector system (module-level so
    ``executor="process"`` can pickle it)."""
    name, config = item
    start = time.perf_counter()
    params = mimo_family_params(config, branch_cutoff=branch_cutoff)
    # Build the full model explicitly only when it is small enough to
    # hold its (dense-row) matrix; otherwise the pipeline counts it
    # exactly.  The threshold is decided up front so the quotient is
    # built exactly once either way.
    built = full_state_count(config) <= 5_000
    scenario = zoo_build("mimo-1xN", params, keep_full=built)
    return Table2Row(
        system=name,
        states_full=scenario.full_states,
        states_reduced=scenario.reduced_states,
        seconds=time.perf_counter() - start,
        full_was_built=built,
    )


def run(
    configs: Optional[List[Tuple[str, MimoSystemConfig]]] = None,
    branch_cutoff: float = 1e-15,
    executor: str = "serial",
) -> List[Table2Row]:
    """Build the detectors (reduced always; full where tractable).

    The per-system builds are independent and fan across
    :func:`repro.engine.sweep` workers; the default is ``"serial"``
    because this table *reports* per-system build seconds, and timing
    inside concurrent workers would inflate each row with contention
    from the others.  Pass ``executor="process"`` for parallel builds
    with honest per-row timing.
    """
    if configs is None:
        configs = [
            ("1x2", MimoSystemConfig(num_rx=2, snr_db=8.0)),
            ("1x4", MimoSystemConfig(num_rx=4, snr_db=12.0)),
        ]
    return sweep_values(
        partial(_build_system, branch_cutoff=branch_cutoff),
        list(configs),
        executor=executor,
    )


def main(
    configs: Optional[List[Tuple[str, MimoSystemConfig]]] = None,
) -> str:
    rows = run(configs)
    lines = [banner("Table II - Symmetry reduction of MIMO detector")]
    table_rows = []
    for row in rows:
        paper = PAPER_REFERENCE.get(row.system, ("-", "-", "-"))
        table_rows.append(
            [
                row.system,
                f"{row.states_full}{'' if row.full_was_built else ' (counted)'}",
                row.states_reduced,
                f"{row.reduction_factor:.0f}",
                paper[0],
                paper[1],
                paper[2],
            ]
        )
    lines.append(
        format_table(
            [
                "MIMO",
                "States (M)",
                "States (M_R)",
                "Factor",
                "Paper M",
                "Paper M_R",
                "Paper factor",
            ],
            table_rows,
        )
    )
    if len(rows) >= 2:
        lines.append(
            "shape check: factor grows with antennas:"
            f" {rows[0].reduction_factor:.0f}x -> {rows[-1].reduction_factor:.0f}x"
        )
    report = "\n".join(lines)
    print(report)
    return report


if __name__ == "__main__":
    main()
