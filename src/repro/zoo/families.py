"""Built-in chain families: the paper's case studies plus stress chains.

Importing this module (which ``repro.zoo`` does eagerly) registers:

``mimo-1xN``
    The 1xN ML MIMO detector (Section IV-B, Tables II & V) across
    antenna counts, quantizer resolutions and SNR; reduced by the
    paper's on-the-fly block-multiset symmetry quotient.
``mimo-NRx2``
    The N_R x 2 two-transmit detector — the paper's Eq.-14/15 worked
    example — under the same symmetry reduction.
``viterbi-memory-m``
    The RTL Viterbi decoder (Section IV-A) across traceback lengths,
    quantizers and channel memories.  Memory 1 uses the paper's c/w
    abstraction ``M_R``; memory >= 2 has no hand reduction, so the
    pipeline falls back to coarsest lumping of the full model.
``viterbi-errcnt``
    The error-counter extension (the paper's larger P3 model) with the
    same abstraction.
``viterbi-convergence``
    The traceback-convergence model behind property C1 / Figure 2
    (already minimal by construction).
``birth-death``
    Synthetic birth-death chain with reflecting boundaries — a
    solver/sweep stress family whose size is one knob.
``random-sparse``
    Seeded random sparse chains with i.i.d. block structure: states
    fall into ``num_blocks`` groups, transition mass depends only on
    the group and spreads uniformly inside the target group.  Strongly
    lumpable *by construction* (quotient = block graph), so it
    exercises the lumping fallback at any size with a known answer.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Mapping

import numpy as np
from scipy import sparse

from ..dtmc.builder import ExplorationResult
from ..dtmc.chain import DTMC
from ..mimo import (
    MimoSystemConfig,
    build_detector_model,
    build_detector_model_2tx,
    full_state_count,
    full_state_count_2tx,
)
from ..viterbi import (
    ViterbiModelConfig,
    build_convergence_model,
    build_error_count_model,
    build_full_model,
    build_reduced_error_count_model,
    build_reduced_model,
)
from .pipeline import FULL_BUILD_LIMIT, FamilyBuild
from .registry import model_family

__all__ = [
    "BUILTIN_FAMILIES",
    "mimo_family_params",
    "viterbi_family_params",
    "convergence_family_params",
]

#: Names this module registers, in registration order.
BUILTIN_FAMILIES = (
    "mimo-1xN",
    "mimo-NRx2",
    "viterbi-memory-m",
    "viterbi-errcnt",
    "viterbi-convergence",
    "birth-death",
    "random-sparse",
)


# ----------------------------------------------------------------------
# MIMO detector families (symmetry reduction)
# ----------------------------------------------------------------------

def _mimo_config(params: Mapping[str, Any]) -> MimoSystemConfig:
    return MimoSystemConfig(
        num_rx=params["num_rx"],
        snr_db=params["snr_db"],
        num_y_levels=params["num_y_levels"],
        y_range=tuple(params["y_range"]),
        num_h_levels=params["num_h_levels"],
        h_range=tuple(params["h_range"]),
    )


@model_family(
    "mimo-1xN",
    description="1xN ML MIMO detector, block-multiset symmetry quotient",
    defaults={
        "num_rx": 2,
        "snr_db": 8.0,
        "num_y_levels": 3,
        "y_range": (-1.5, 1.5),
        "num_h_levels": 2,
        "h_range": (-1.5, 1.5),
        "branch_cutoff": 0.0,
    },
    default_property="P=? [ F<=10 flag ]",
    tags=("mimo", "paper"),
)
def _build_mimo_1xn(params: Mapping[str, Any]) -> FamilyBuild:
    config = _mimo_config(params)
    cutoff = float(params["branch_cutoff"])
    count = full_state_count(config)
    build_full = None
    if count <= FULL_BUILD_LIMIT:
        build_full = functools.partial(
            build_detector_model, config, reduced=False, branch_cutoff=cutoff
        )
    return FamilyBuild(
        build_reduced=functools.partial(
            build_detector_model, config, reduced=True, branch_cutoff=cutoff
        ),
        build_full=build_full,
        full_state_count=count,
        reduction="symmetry",
        respect=("flag",),
    )


@model_family(
    "mimo-NRx2",
    description="N_R x 2 two-transmit detector (paper Eq. 14/15 example)",
    defaults={
        "num_rx": 2,
        "snr_db": 8.0,
        "num_y_levels": 2,
        "y_range": (-1.5, 1.5),
        "num_h_levels": 2,
        "h_range": (-1.5, 1.5),
        "branch_cutoff": 0.0,
    },
    default_property="P=? [ F<=10 flag ]",
    tags=("mimo", "paper"),
)
def _build_mimo_nrx2(params: Mapping[str, Any]) -> FamilyBuild:
    config = _mimo_config(params)
    cutoff = float(params["branch_cutoff"])
    count = full_state_count_2tx(config)
    build_full = None
    if count <= FULL_BUILD_LIMIT:
        build_full = functools.partial(
            build_detector_model_2tx, config, reduced=False, branch_cutoff=cutoff
        )
    return FamilyBuild(
        build_reduced=functools.partial(
            build_detector_model_2tx, config, reduced=True, branch_cutoff=cutoff
        ),
        build_full=build_full,
        full_state_count=count,
        reduction="symmetry",
        respect=("flag",),
    )


# ----------------------------------------------------------------------
# Viterbi decoder families (abstraction / lumping fallback)
# ----------------------------------------------------------------------

def _viterbi_config(params: Mapping[str, Any]) -> ViterbiModelConfig:
    taps = params.get("taps")
    if taps is None:
        taps = (1.0,) * (int(params.get("memory", 1)) + 1)
    kwargs: Dict[str, Any] = dict(
        snr_db=params["snr_db"],
        traceback_length=params["traceback_length"],
        num_levels=params["num_levels"],
        quantizer_low=params["quantizer_low"],
        quantizer_high=params["quantizer_high"],
        pm_max=params["pm_max"],
        taps=tuple(taps),
    )
    if "error_count_cap" in params:
        kwargs["error_count_cap"] = params["error_count_cap"]
    return ViterbiModelConfig(**kwargs)


def mimo_family_params(
    config: MimoSystemConfig, branch_cutoff: float = 0.0
) -> Dict[str, Any]:
    """Translate a :class:`MimoSystemConfig` into ``mimo-1xN`` /
    ``mimo-NRx2`` family parameters (the experiment drivers' bridge
    from their historical config objects to the registry)."""
    return {
        "num_rx": config.num_rx,
        "snr_db": config.snr_db,
        "num_y_levels": config.num_y_levels,
        "y_range": tuple(config.y_range),
        "num_h_levels": config.num_h_levels,
        "h_range": tuple(config.h_range),
        "branch_cutoff": branch_cutoff,
    }


def viterbi_family_params(
    config: ViterbiModelConfig, error_count: bool = False
) -> Dict[str, Any]:
    """Translate a :class:`ViterbiModelConfig` into ``viterbi-memory-m``
    (or, with ``error_count=True``, ``viterbi-errcnt``) parameters."""
    params: Dict[str, Any] = {
        "memory": config.memory,
        "taps": tuple(config.taps),
        "snr_db": config.snr_db,
        "traceback_length": config.traceback_length,
        "num_levels": config.num_levels,
        "quantizer_low": config.quantizer_low,
        "quantizer_high": config.quantizer_high,
        "pm_max": config.pm_max,
    }
    if error_count:
        params["error_count_cap"] = config.error_count_cap
    return params


def convergence_family_params(config: ViterbiModelConfig) -> Dict[str, Any]:
    """Translate a :class:`ViterbiModelConfig` into
    ``viterbi-convergence`` parameters."""
    params = viterbi_family_params(config)
    del params["memory"]
    return params


@model_family(
    "viterbi-memory-m",
    description="RTL Viterbi decoder across traceback length and memory m",
    defaults={
        "memory": 1,
        "taps": None,  # overrides memory when given, e.g. (1.0, 0.5, 0.5)
        "snr_db": 5.0,
        "traceback_length": 3,
        "num_levels": 3,
        "quantizer_low": -3.0,
        "quantizer_high": 3.0,
        "pm_max": 6,
    },
    default_property="P=? [ F<=50 flag ]",
    tags=("viterbi", "paper"),
)
def _build_viterbi(params: Mapping[str, Any]) -> FamilyBuild:
    config = _viterbi_config(params)
    build_reduced = None
    reduction = "lumping"
    if config.memory == 1:
        build_reduced = functools.partial(build_reduced_model, config)
        reduction = "abstraction"
    return FamilyBuild(
        build_reduced=build_reduced,
        build_full=functools.partial(build_full_model, config),
        reduction=reduction,
        respect=("flag",),
    )


@model_family(
    "viterbi-errcnt",
    description="Viterbi decoder with saturating error counter (P3 model)",
    defaults={
        "memory": 1,
        "taps": None,
        "snr_db": 5.0,
        "traceback_length": 3,
        "num_levels": 3,
        "quantizer_low": -3.0,
        "quantizer_high": 3.0,
        "pm_max": 6,
        "error_count_cap": 2,
    },
    default_property="P=? [ F<=300 overflow ]",
    tags=("viterbi", "paper"),
)
def _build_viterbi_errcnt(params: Mapping[str, Any]) -> FamilyBuild:
    config = _viterbi_config(params)
    build_reduced = None
    reduction = "lumping"
    if config.memory == 1:
        build_reduced = functools.partial(
            build_reduced_error_count_model, config
        )
        reduction = "abstraction"
    return FamilyBuild(
        build_reduced=build_reduced,
        build_full=functools.partial(build_error_count_model, config),
        reduction=reduction,
        respect=("flag", "overflow"),
    )


@model_family(
    "viterbi-convergence",
    description="Traceback-convergence model for C1 (Figure 2)",
    defaults={
        "taps": None,
        "snr_db": 8.0,
        "traceback_length": 4,
        "num_levels": 5,
        "quantizer_low": -3.0,
        "quantizer_high": 3.0,
        "pm_max": 6,
    },
    default_property="P=? [ F<=50 nonconv ]",
    tags=("viterbi", "paper"),
)
def _build_viterbi_convergence(params: Mapping[str, Any]) -> FamilyBuild:
    config = _viterbi_config(params)
    return FamilyBuild(
        build_full=functools.partial(build_convergence_model, config),
        reduction="none",
        respect=("nonconv",),
    )


# ----------------------------------------------------------------------
# Synthetic stress families
# ----------------------------------------------------------------------

def _wrap_chain(chain: DTMC) -> ExplorationResult:
    """Adapt a directly-constructed DTMC to the builder's result type."""
    states = list(chain.states) if chain.states is not None else []
    return ExplorationResult(
        chain=chain,
        states=states,
        index={s: i for i, s in enumerate(states)},
        bfs_levels=0,
    )


@model_family(
    "birth-death",
    description="Birth-death chain with reflecting boundaries (stress)",
    defaults={"n": 16, "p_up": 0.3, "p_down": 0.2},
    default_property="P=? [ F<=100 goal ]",
    tags=("synthetic", "stress"),
)
def _build_birth_death(params: Mapping[str, Any]) -> FamilyBuild:
    n = int(params["n"])
    p_up = float(params["p_up"])
    p_down = float(params["p_down"])
    if n < 2:
        raise ValueError("birth-death needs n >= 2 states")
    if p_up <= 0 or p_down <= 0 or p_up + p_down > 1.0:
        raise ValueError("need p_up, p_down > 0 with p_up + p_down <= 1")

    def build() -> ExplorationResult:
        # Tridiagonal CSR assembled straight from arrays — O(n) numpy,
        # so 10^5+-state stress chains build in milliseconds.  Each row
        # holds (down, stay, up) in column order; the zeros (no down
        # move from 0, no up move from n - 1, no stay when
        # p_up + p_down == 1) are left out, as `eliminate_zeros` would.
        # int32 indices where they fit, so the constructor has nothing
        # to narrow.
        up = np.full(n, p_up)
        up[-1] = 0.0
        down = np.full(n, p_down)
        down[0] = 0.0
        stay = 1.0 - up - down
        values = np.stack([down, stay, up], axis=1)
        stored = values != 0.0
        index = np.int32 if 3 * n <= np.iinfo(np.int32).max else np.int64
        columns = np.arange(-1, n - 1, dtype=index)[:, None] + np.arange(3, dtype=index)
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(stored.sum(axis=1), out=indptr[1:])
        matrix = sparse.csr_matrix(
            (values[stored], columns[stored], indptr), shape=(n, n)
        )
        init = np.zeros(n)
        init[0] = 1.0
        level = np.arange(n, dtype=np.float64)
        chain = DTMC(
            matrix,
            init,
            labels={
                "goal": level == n - 1,
                "empty": level == 0,
            },
            rewards={"level": level},
            states=list(range(n)),
        )
        return _wrap_chain(chain)

    return FamilyBuild(
        build_full=build,
        reduction="lumping",
        respect=("goal",),
    )


@model_family(
    "random-sparse",
    description="Seeded random sparse chain with i.i.d. block structure",
    defaults={"n": 64, "num_blocks": 8, "degree": 3, "seed": 0},
    default_property="P=? [ F<=30 goal ]",
    tags=("synthetic", "stress"),
)
def _build_random_sparse(params: Mapping[str, Any]) -> FamilyBuild:
    n = int(params["n"])
    b = int(params["num_blocks"])
    degree = int(params["degree"])
    seed = int(params["seed"])
    if not (1 <= b <= n):
        raise ValueError("need 1 <= num_blocks <= n")
    if not (1 <= degree <= b):
        raise ValueError("need 1 <= degree <= num_blocks")

    def build() -> ExplorationResult:
        rng = np.random.default_rng(seed)
        block_of = np.arange(n) * b // n  # contiguous, non-empty blocks
        sizes = np.bincount(block_of, minlength=b)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        # Block-level transition structure: each block jumps to `degree`
        # blocks with random (renormalized) weights.  The RNG stream is
        # identical to the historical per-state builder, so a given seed
        # still produces the same chain.
        pattern_cols: List[np.ndarray] = []
        pattern_vals: List[np.ndarray] = []
        for blk in range(b):
            targets = rng.choice(b, size=degree, replace=False)
            weights = rng.random(degree) + 0.1
            weights /= weights.sum()
            # Ascending targets emit each row already sorted.
            order = np.argsort(targets)
            targets, weights = targets[order], weights[order]
            pattern_cols.append(
                np.concatenate(
                    [np.arange(starts[t], starts[t + 1]) for t in targets]
                )
            )
            pattern_vals.append(
                np.concatenate(
                    [np.full(sizes[t], w / sizes[t])
                     for t, w in zip(targets, weights)]
                )
            )
        # Every state of a block shares its block's row pattern; blocks
        # are contiguous, so the CSR arrays are tiled patterns — O(nnz)
        # numpy instead of a per-transition Python loop, making
        # 10^5+-state instances (the lumping-fallback stress scale)
        # build in well under a second.
        row_nnz = np.array([cols.size for cols in pattern_cols], dtype=np.int64)
        indices = np.concatenate(
            [np.tile(pattern_cols[blk], sizes[blk]) for blk in range(b)]
        )
        data = np.concatenate(
            [np.tile(pattern_vals[blk], sizes[blk]) for blk in range(b)]
        )
        indptr = np.concatenate([[0], np.cumsum(np.repeat(row_nnz, sizes))])
        matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        matrix.sort_indices()
        init = np.zeros(n)
        init[: sizes[0]] = 1.0 / sizes[0]
        chain = DTMC(
            matrix,
            init,
            labels={"goal": block_of == b - 1},
            rewards={"block": block_of.astype(np.float64)},
            states=list(range(n)),
        )
        return _wrap_chain(chain)

    return FamilyBuild(
        build_full=build,
        reduction="lumping",
        respect=("goal",),
    )
