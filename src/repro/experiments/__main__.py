"""Run every experiment: ``python -m repro.experiments [--quick]``.

``--quick`` shrinks the Viterbi models (shorter traceback) so the whole
evaluation finishes in well under a minute; the default runs the
paper-shaped configurations (Table I at the paper's traceback L=6 with
a 5-level quantizer, Figure 2 over L=2..10) at laptop scale.
"""

from __future__ import annotations

import argparse

from ..viterbi import ViterbiModelConfig
from . import figure2, table1, table2, table3, table4, table5


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce every table and figure of the paper.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the Viterbi models for a fast smoke run",
    )
    parser.add_argument(
        "--no-simulation",
        action="store_true",
        help="skip the Monte-Carlo cross-checks in Table V",
    )
    args = parser.parse_args()

    if args.quick:
        table1_config = ViterbiModelConfig(traceback_length=4, num_levels=5)
        figure_lengths = (2, 3, 4, 5, 6)
    else:
        table1_config = ViterbiModelConfig(traceback_length=6, num_levels=5)
        figure_lengths = (2, 3, 4, 5, 6, 7, 8, 9, 10)

    table1.main(table1_config)
    print()
    table2.main()
    print()
    table3.main()
    print()
    table4.main()
    print()
    table5.main(with_simulation=not args.no_simulation)
    print()
    figure2.main(lengths=figure_lengths)


if __name__ == "__main__":
    main()
