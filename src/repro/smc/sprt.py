"""Wald's Sequential Probability Ratio Test for qualitative properties.

Decides hypotheses of the form ``P(property) >= theta`` against
``P(property) < theta`` by sampling paths until the accumulated
likelihood ratio crosses Wald's thresholds — Younes & Simmons' approach
to statistical model checking of qualitative pCTL, complementing the
additive-error estimator in :mod:`repro.smc.hoeffding`.

The test uses an indifference region ``theta ± half_width``: inside it
either answer is acceptable; outside it the error probabilities are
bounded by ``alpha`` (false reject) and ``beta`` (false accept).

Batched trials (the ``trials(rng, n) -> bool ndarray`` protocol of
:mod:`repro.smc.trials`) are consumed in geometrically growing chunks;
the cumulative log-likelihood ratio is scanned *inside* each chunk in
the exact accumulation order of the sequential test, so early stopping
is preserved and the data-dependent ``samples`` count is identical to
what a scalar one-trial-at-a-time run of the same outcome sequence
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .trials import BatchTrials, ScalarTrial, is_batch_trial

__all__ = ["SprtResult", "sprt_decide"]

#: Chunk schedule of the batched test: start small so clear-cut cases
#: draw few samples, double up to a cap that bounds per-chunk memory.
_CHUNK_START = 64
_CHUNK_MAX = 8192

#: Paths drawn before a test that has not decided gives up.
_MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class SprtResult:
    """Decision of one SPRT run.

    ``accept`` is True when the hypothesis ``p >= theta`` was accepted.
    ``samples`` is the (data-dependent) number of paths drawn.
    """

    accept: bool
    samples: int
    theta: float
    half_width: float
    alpha: float
    beta: float

    def __str__(self) -> str:
        verdict = ">=" if self.accept else "<"
        return (
            f"P {verdict} {self.theta} (indifference ±{self.half_width},"
            f" {self.samples} samples)"
        )


def sprt_decide(
    trial: Union[ScalarTrial, BatchTrials],
    theta: float,
    half_width: float = 0.01,
    alpha: float = 0.01,
    beta: float = 0.01,
    seed: Optional[int] = 0,
) -> SprtResult:
    """Run the SPRT for ``H0: p >= theta + half_width`` vs
    ``H1: p <= theta - half_width``.

    Accepting H0 is reported as ``accept=True`` (the property holds
    with probability at least ``theta``).  ``trial`` may be scalar or
    batched (see :mod:`repro.smc.trials`); a batched trial runs the
    chunked test described in the module docstring.
    """
    p0 = theta + half_width
    p1 = theta - half_width
    if not 0.0 < p1 < p0 < 1.0:
        raise ValueError(
            "need 0 < theta - half_width < theta + half_width < 1"
        )
    log_a = math.log((1.0 - alpha) / beta)
    log_b = math.log(alpha / (1.0 - beta))
    # Per-sample log-likelihood-ratio increments of H1 vs H0.
    inc_success = math.log(p1 / p0)
    inc_failure = math.log((1.0 - p1) / (1.0 - p0))

    rng = np.random.default_rng(seed)

    def result(accept: bool, samples: int) -> SprtResult:
        return SprtResult(accept, samples, theta, half_width, alpha, beta)

    if is_batch_trial(trial):
        llr = 0.0
        samples = 0
        chunk = _CHUNK_START
        while samples < _MAX_SAMPLES:
            chunk = min(chunk, _MAX_SAMPLES - samples)
            outcomes = np.asarray(trial(rng, chunk), dtype=bool)
            increments = np.where(outcomes, inc_success, inc_failure)
            # Prepending the carried LLR reproduces the sequential
            # left-to-right float accumulation exactly, so threshold
            # crossings land on the same sample as the scalar test.
            cumulative = np.cumsum(np.concatenate(([llr], increments)))[1:]
            crossed = (cumulative >= log_a) | (cumulative <= log_b)
            if crossed.any():
                first = int(np.argmax(crossed))
                return result(
                    bool(cumulative[first] <= log_b), samples + first + 1
                )
            llr = float(cumulative[-1])
            samples += chunk
            chunk = min(chunk * 2, _CHUNK_MAX)
    else:
        llr = 0.0
        samples = 0
        while samples < _MAX_SAMPLES:
            samples += 1
            llr += inc_success if trial(rng) else inc_failure
            if llr >= log_a:
                return result(False, samples)
            if llr <= log_b:
                return result(True, samples)
    raise RuntimeError(
        f"SPRT did not terminate within {_MAX_SAMPLES} samples; p is likely"
        " inside the indifference region - widen it or use APMC"
    )
