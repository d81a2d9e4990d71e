"""The array-explored Viterbi models against their per-state definitions.

Every Viterbi builder explores kernel-table rows one BFS level at a
time (:func:`repro.dtmc.builder.build_array_dtmc`).  The per-state
transitions (``full_transition`` and friends) stay the reference:
:func:`repro.dtmc.builder.build_dtmc` on them must give the same states
in the same order, the same reachability iterations, the same CSR
structure, labels, rewards and initial vector.  Probabilities may
differ only by the rounding of the row normalisation (a vectorised
sum against Python's ``sum``).
"""

import numpy as np
import pytest

from repro.dtmc.builder import ExplorationLimitError, build_dtmc
from repro.pctl import check
from repro.viterbi import (
    ViterbiKernel,
    ViterbiModelConfig,
    ViterbiReducedErrcntState,
    build_convergence_model,
    build_error_count_model,
    build_full_model,
    build_reduced_error_count_model,
    build_reduced_model,
    convergence_transition,
    error_count_transition,
    full_transition,
    reduced_error_count_transition,
    reduced_transition,
)
from repro.viterbi.convergence import ViterbiConvergenceState
from repro.viterbi.dtmc_model import ViterbiErrcntState, _initial_full_state
from repro.viterbi.reduced_model import _initial_reduced_state

#: Probabilities are normalised by a vectorised row sum; two rounding
#: orders of a row summing to 1 differ by a few ulps.
DATA_TOLERANCE = 1e-15

FLAG_LABELS = {"flag": lambda s: bool(s.flag)}
FLAG_REWARDS = {"flag": lambda s: float(s.flag)}
ERRCNT_LABELS = {**FLAG_LABELS, "overflow": lambda s: s.errcnt > 1}


def _convergence_reference(kernel):
    length = kernel.config.traceback_length
    return dict(
        transition_fn=convergence_transition(kernel),
        initial=ViterbiConvergenceState(kernel.initial_pm(), 0, 0),
        labels={"nonconv": lambda s: s.count >= length},
        rewards={"nonconv": lambda s: float(s.count >= length)},
    )


#: name -> (array builder, reference build_dtmc arguments, label).
MODELS = {
    "full": (
        build_full_model,
        lambda k: dict(
            transition_fn=full_transition(k),
            initial=_initial_full_state(k),
            labels=FLAG_LABELS,
            rewards=FLAG_REWARDS,
        ),
        "flag",
    ),
    "errcnt": (
        build_error_count_model,
        lambda k: dict(
            transition_fn=error_count_transition(k),
            initial=ViterbiErrcntState(*_initial_full_state(k), 0),
            labels=ERRCNT_LABELS,
            rewards=FLAG_REWARDS,
        ),
        "flag",
    ),
    "reduced": (
        build_reduced_model,
        lambda k: dict(
            transition_fn=reduced_transition(k),
            initial=_initial_reduced_state(k),
            labels=FLAG_LABELS,
            rewards=FLAG_REWARDS,
        ),
        "flag",
    ),
    "reduced-errcnt": (
        build_reduced_error_count_model,
        lambda k: dict(
            transition_fn=reduced_error_count_transition(k),
            initial=ViterbiReducedErrcntState(*_initial_reduced_state(k), 0),
            labels=ERRCNT_LABELS,
            rewards=FLAG_REWARDS,
        ),
        "flag",
    ),
    "convergence": (build_convergence_model, _convergence_reference, "nonconv"),
}

MEMORY_1 = [
    dict(traceback_length=3, num_levels=3, snr_db=2.0),
    dict(traceback_length=4, num_levels=5, snr_db=8.0),
    dict(traceback_length=5, num_levels=3, snr_db=8.0),
    dict(traceback_length=5, num_levels=5, snr_db=2.0),
]
MEMORY_2 = [
    dict(traceback_length=3, num_levels=3, snr_db=8.0, taps=(1.0, 0.5, 0.5)),
    dict(traceback_length=3, num_levels=5, snr_db=2.0, taps=(1.0, 1.0, 1.0)),
    dict(traceback_length=4, num_levels=3, snr_db=2.0, taps=(1.0, 0.5, 0.5)),
]

CASES = [
    pytest.param(name, params, id=f"{name}-m1-{i}")
    for name in MODELS
    for i, params in enumerate(MEMORY_1)
] + [
    pytest.param(name, params, id=f"{name}-m2-{i}")
    for name in ("full", "errcnt")
    for i, params in enumerate(MEMORY_2)
]


@pytest.mark.parametrize("name,params", CASES)
def test_array_build_matches_per_state_reference(name, params):
    build, reference, label = MODELS[name]
    config = ViterbiModelConfig(**params)
    fast = build(config)
    slow = build_dtmc(**reference(ViterbiKernel(config)))

    assert fast.states == slow.states
    assert fast.index == slow.index
    assert fast.bfs_levels == slow.bfs_levels
    a, b = fast.chain.transition_matrix, slow.chain.transition_matrix
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.abs(a.data - b.data).max() <= DATA_TOLERANCE
    assert np.array_equal(
        fast.chain.initial_distribution, slow.chain.initial_distribution
    )
    assert fast.chain.labels.keys() == slow.chain.labels.keys()
    for key, vector in slow.chain.labels.items():
        assert np.array_equal(fast.chain.labels[key], vector), key
    assert fast.chain.rewards.keys() == slow.chain.rewards.keys()
    for key, vector in slow.chain.rewards.items():
        assert np.array_equal(fast.chain.rewards[key], vector), key

    for prop in (f"S=? [ {label} ]", f"P=? [ F<=50 {label} ]"):
        assert check(fast.chain, prop).value == pytest.approx(
            check(slow.chain, prop).value, abs=1e-12
        ), prop


def test_kernel_tables_follow_branch_order():
    """Row ``(pm id, code)`` of the tables is :meth:`ViterbiKernel.branches`
    of that pm and those past bits, in order, padded with zeros."""
    kernel = ViterbiKernel(ViterbiModelConfig(taps=(1.0, 0.5, 0.5)))
    for pm_id, pm in enumerate(kernel.pm_vectors):
        for code in range(4):
            past = (code & 1, code >> 1)
            prob, new_pm, survivors, bit = kernel.step(
                np.array([pm_id]), np.array([code])
            )
            branches = kernel.branches(pm, past)
            assert prob[0, len(branches):].sum() == 0.0
            for j, (p, (npm, surv, x_new, _q)) in enumerate(branches):
                assert prob[0, j] == p
                assert kernel.pm_vectors[new_pm[0, j]] == npm
                assert kernel.survivor_tuples[survivors[0, j]] == surv
                assert tuple(kernel.survivor[survivors[0, j]]) == surv
                assert bit[0, j] == x_new
        assert kernel.best[pm_id] == min(range(4), key=lambda s: (pm[s], s))


@pytest.mark.parametrize("name", MODELS)
def test_max_states_limits_every_builder(name):
    build = MODELS[name][0]
    config = ViterbiModelConfig(traceback_length=3, num_levels=3)
    states = build(config).num_states
    assert build(config, max_states=states).num_states == states
    with pytest.raises(ExplorationLimitError):
        build(config, max_states=states - 1)
