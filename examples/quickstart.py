"""Quickstart: statistical guarantees in a dozen lines.

Three parts:

1. the general-purpose layer — define any DTMC, check any pCTL
   property;
2. the paper's headline flow — one object that builds the (reduced)
   Viterbi RTL model and returns guaranteed performance figures;
3. the engine layer — pick a solver backend, batch properties over
   shared factorizations, and sweep scenario grids across workers.

Run:  python examples/quickstart.py
"""

from repro import (
    PerformanceAnalyzer,
    SolverConfig,
    check,
    dtmc_from_dict,
    grid,
    sweep_values,
)


def part1_any_dtmc() -> None:
    """Model checking on a hand-written chain."""
    print("-- part 1: any DTMC, any pCTL property " + "-" * 24)

    # A tiny retransmission protocol: try to send; success with 0.9,
    # transient error with 0.1; one retry allowed before giving up.
    chain = dtmc_from_dict(
        {
            "try1": {"sent": 0.9, "try2": 0.1},
            "try2": {"sent": 0.9, "failed": 0.1},
            "sent": {"sent": 1.0},
            "failed": {"failed": 1.0},
        },
        initial="try1",
        labels={"ok": ["sent"], "dead": ["failed"]},
    )

    for prop in [
        "P=? [ F ok ]",          # eventual delivery probability
        "P=? [ F<=1 ok ]",       # delivered first try
        "P>=0.98 [ F ok ]",      # a guarantee with a bound
    ]:
        print(f"  {prop:24s} -> {check(chain, prop).value}")


def part2_paper_flow() -> None:
    """The paper's methodology through the high-level API."""
    print("-- part 2: guaranteed Viterbi performance " + "-" * 21)

    analyzer = PerformanceAnalyzer.for_viterbi()  # reduced model M_R
    print(" ", analyzer.best_case(300))     # P1: P=? [ G<=300 !flag ]
    print(" ", analyzer.average_case(300))  # P2: R=? [ I=300 ]
    print(" ", analyzer.ber())              # S=? [ flag ] == BER

    preconditions = analyzer.steady_state_preconditions()
    print(
        f"  steady state is guaranteed: irreducible={preconditions['irreducible']},"
        f" aperiodic={preconditions['aperiodic']},"
        f" RI={analyzer.reachability_iterations()}"
    )


def part3_engine_layer() -> None:
    """Solver backends, batched checking, and scenario sweeps."""
    print("-- part 3: solver engine and scenario sweeps " + "-" * 18)

    # Any backend, same answer: direct, lu, power, jacobi, gauss-seidel.
    analyzer = PerformanceAnalyzer.for_viterbi(
        solver=SolverConfig(method="lu")
    )
    # One batch = one set of factorizations / precomputations.
    for guarantee in analyzer.check_many(
        ["P=? [ F flag ]", "R=? [ F flag ]", "S=? [ flag ]"]
    ):
        print(" ", guarantee)

    # Sweep a scenario grid (in order here; executor="process" leases
    # shards to forked workers, which needs a module-level function).
    from repro.viterbi import ViterbiModelConfig, build_convergence_model

    def c1_at(point):
        config = ViterbiModelConfig(
            snr_db=point["snr_db"], traceback_length=point["length"]
        )
        chain = build_convergence_model(config).chain
        return check(chain, "S=? [ nonconv ]").value

    points = grid(snr_db=[6.0, 8.0], length=[3, 4])
    for point, c1 in zip(points, sweep_values(c1_at, points)):
        print(f"  L={point['length']} @ {point['snr_db']:.0f} dB -> C1 = {c1:.3e}")


if __name__ == "__main__":
    part1_any_dtmc()
    part2_paper_flow()
    part3_engine_layer()
