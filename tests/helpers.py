"""Shared test utilities: small reference chains and random-chain strategies."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.dtmc import DTMC, dtmc_from_dict
from repro.store import ResultStore


class UnpicklableStore(ResultStore):
    """A store that refuses to be pickled, so a sweep that ships its
    store to a worker fails with ``TypeError``."""

    def __reduce__(self):
        raise TypeError("this ResultStore must stay in the calling process")


def knuth_yao_die() -> DTMC:
    """Knuth-Yao simulation of a fair die with a fair coin.

    The canonical PRISM example: 13 states, terminal states labeled
    ``one`` .. ``six`` each reached with probability 1/6.
    """
    transitions = {
        "s0": {"s1": 0.5, "s2": 0.5},
        "s1": {"s3": 0.5, "s4": 0.5},
        "s2": {"s5": 0.5, "s6": 0.5},
        "s3": {"s1": 0.5, "d1": 0.5},
        "s4": {"d2": 0.5, "d3": 0.5},
        "s5": {"d4": 0.5, "d5": 0.5},
        "s6": {"s2": 0.5, "d6": 0.5},
    }
    labels = {
        "one": ["d1"],
        "two": ["d2"],
        "three": ["d3"],
        "four": ["d4"],
        "five": ["d5"],
        "six": ["d6"],
        "done": ["d1", "d2", "d3", "d4", "d5", "d6"],
    }
    return dtmc_from_dict(transitions, initial="s0", labels=labels)


def two_state_chain(p: float = 0.5, q: float = 0.3) -> DTMC:
    """Ergodic two-state chain: a -> b with prob p, b -> a with prob q."""
    return dtmc_from_dict(
        {"a": {"a": 1 - p, "b": p}, "b": {"a": q, "b": 1 - q}},
        initial="a",
        labels={"in_b": ["b"]},
        rewards={"hit": {"b": 1.0}},
    )


def gamblers_ruin(n: int = 5, p: float = 0.5) -> DTMC:
    """Gambler's ruin on {0..n} with win probability p, absorbing ends."""
    transitions = {}
    for i in range(1, n):
        transitions[i] = {i + 1: p, i - 1: 1 - p}
    transitions[0] = {0: 1.0}
    transitions[n] = {n: 1.0}
    return dtmc_from_dict(
        transitions,
        initial=n // 2,
        labels={"ruin": [0], "win": [n]},
    )


def leak_chain(leak: float) -> DTMC:
    """``s`` reaches ``goal`` with probability ``1 - leak`` and an
    absorbing ``sink`` otherwise; one step from ``s`` earns reward 1."""
    row = {"goal": 1.0 - leak, "sink": leak} if leak else {"goal": 1.0}
    return dtmc_from_dict(
        {"s": row, "goal": {"goal": 1.0}, "sink": {"sink": 1.0}},
        initial="s",
        labels={"goal": ["goal"]},
        rewards={"steps": {"s": 1.0}},
    )


def random_stochastic_matrix(draw, max_states: int = 6):
    """Hypothesis helper drawing a random row-stochastic matrix."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    rows = []
    for _ in range(n):
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
        weights = np.asarray(weights)
        rows.append(weights / weights.sum())
    return np.vstack(rows)


@st.composite
def random_dtmcs(draw, max_states: int = 6) -> DTMC:
    """Strategy producing small random ergodic-ish DTMCs with a label."""
    matrix = random_stochastic_matrix(draw, max_states)
    n = matrix.shape[0]
    labels = {"mark": np.array([i % 2 == 0 for i in range(n)])}
    rewards = {"unit": np.ones(n), "mark": labels["mark"].astype(float)}
    return DTMC(matrix, 0, labels=labels, rewards=rewards)


def count_parses(monkeypatch) -> list:
    """Patch the pCTL parser to record each parse; returns the record."""
    from repro.pctl import parser

    parses: list = []
    original = parser._Parser.parse

    def counting(self):
        parses.append(self)
        return original(self)

    monkeypatch.setattr(parser._Parser, "parse", counting)
    return parses
