"""Viterbi decoder case study: RTL implementation and DTMC models.

* :mod:`trellis`, :mod:`decoder` — the bit-true device (trellis
  geometry, ACS, truncated traceback).
* :mod:`dtmc_model` — the paper's full model ``M`` (+ P3 error-counter
  variant) and the kernel tables every model is explored from.
* :mod:`reduced_model` — the property-preserving reduction ``M_R`` with
  the explicit abstraction function ``F_abs``.
* :mod:`convergence` — the traceback-convergence model for property C1.
"""

from .convergence import (
    ViterbiConvergenceState,
    build_convergence_model,
    convergence_transition,
)
from .decoder import BlockMLSequenceDetector, RTLViterbiDecoder
from .dtmc_model import (
    ViterbiFullState,
    ViterbiKernel,
    ViterbiModelConfig,
    build_error_count_model,
    build_full_model,
    error_count_transition,
    full_transition,
    traceback_flag,
)
from .reduced_model import (
    ViterbiReducedErrcntState,
    ViterbiReducedState,
    abstraction_function,
    build_reduced_error_count_model,
    build_reduced_model,
    reduced_error_count_transition,
    reduced_flag,
    reduced_transition,
)
from .trellis import ACSResult, Trellis

__all__ = [
    "ViterbiConvergenceState",
    "build_convergence_model",
    "convergence_transition",
    "BlockMLSequenceDetector",
    "RTLViterbiDecoder",
    "ViterbiFullState",
    "ViterbiKernel",
    "ViterbiModelConfig",
    "build_error_count_model",
    "build_full_model",
    "error_count_transition",
    "full_transition",
    "traceback_flag",
    "ViterbiReducedErrcntState",
    "ViterbiReducedState",
    "abstraction_function",
    "build_reduced_error_count_model",
    "build_reduced_model",
    "reduced_error_count_transition",
    "reduced_flag",
    "reduced_transition",
    "ACSResult",
    "Trellis",
]
