"""Discrete-Time Markov Chain substrate.

Explicit-state DTMC representation plus the analyses probabilistic
model checking needs: reachability, SCC/BSCC structure, transient
distributions, steady state, and a state-space builder with symmetry
and cutoff hooks.
"""

from .chain import DTMC, DTMCValidationError, dtmc_from_dict
from .builder import (
    ExplorationLimitError,
    ExplorationResult,
    build_array_dtmc,
    build_dtmc,
    build_iid_dtmc,
)
from .graph import (
    backward_reachable,
    bottom_sccs,
    constrained_backward_reachable,
    is_aperiodic,
    is_irreducible,
    period,
    reachability_iterations,
    reachable_states,
    strongly_connected_components,
)
from .linear import SolverError, gauss_seidel_solve, jacobi_solve, power_solve
from .rewards import RewardStructure, attach_reward
from .simulate import PathSampler, sample_path
from .sparse_utils import as_csr
from .steady_state import (
    ReducibleChainError,
    absorption_probabilities,
    assert_ergodic,
    long_run_distribution,
    long_run_reward,
    power_iteration,
    stationary_distribution,
)
from .transient import (
    bounded_invariance,
    bounded_reachability,
    cumulative_reward,
    distribution_at,
    distribution_trajectory,
    expected_visits,
    instantaneous_reward,
)

__all__ = [
    "DTMC",
    "DTMCValidationError",
    "dtmc_from_dict",
    "ExplorationLimitError",
    "ExplorationResult",
    "build_array_dtmc",
    "build_dtmc",
    "build_iid_dtmc",
    "backward_reachable",
    "bottom_sccs",
    "constrained_backward_reachable",
    "is_aperiodic",
    "is_irreducible",
    "period",
    "reachability_iterations",
    "reachable_states",
    "strongly_connected_components",
    "SolverError",
    "gauss_seidel_solve",
    "jacobi_solve",
    "power_solve",
    "RewardStructure",
    "attach_reward",
    "PathSampler",
    "sample_path",
    "as_csr",
    "ReducibleChainError",
    "absorption_probabilities",
    "assert_ergodic",
    "long_run_distribution",
    "long_run_reward",
    "power_iteration",
    "stationary_distribution",
    "bounded_invariance",
    "bounded_reachability",
    "cumulative_reward",
    "distribution_at",
    "distribution_trajectory",
    "expected_visits",
    "instantaneous_reward",
]
