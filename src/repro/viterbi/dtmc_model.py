"""Full DTMC model ``M`` of the RTL Viterbi decoder (Section IV-A).

State variables follow the paper exactly:

* ``pm`` — the normalized, saturated path metrics (pm0, pm1);
* ``prev`` — survivor pointers of the last ``L`` trellis stages,
  newest first (the paper's ``prev0_i`` / ``prev1_i``);
* ``x``    — the actual data bits of the last ``L`` steps, newest first
  (the paper's ``x_i``);
* ``flag`` — 1 iff the bit decoded this cycle (for the cycle ``L-1``
  steps ago) is wrong.  ``flag`` is a deterministic function of the
  other variables, so carrying it costs no extra states.

One DTMC transition = one clock cycle:  the data bit ``x_0'`` is drawn
uniformly, the received quantization level ``q`` is drawn from the
exact Gaussian cell probabilities given the noiseless ISI output of
``(x_0', x_0)`` (the paper's probabilistic function ``Gamma_p``,
Eq. 2), and the remaining variables follow deterministically
(Eqs. 3-5).

An extended model with a saturating error counter supports the paper's
worst-case property P3 (``P=? [ F<=T errcnt>1 ]``), matching the larger
state count reported for P3 in Table I.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..comm.channel import PartialResponseTransmitter
from ..comm.quantizer import UniformQuantizer
from ..comm.snr import noise_sigma
from ..dtmc.builder import ExplorationResult, build_array_dtmc
from .trellis import Trellis

__all__ = [
    "ViterbiModelConfig",
    "ViterbiFullState",
    "ViterbiKernel",
    "traceback_flag",
    "full_transition",
    "error_count_transition",
    "build_full_model",
    "build_error_count_model",
]

ViterbiFullState = namedtuple("ViterbiFullState", ["pm", "prev", "x", "flag"])
ViterbiErrcntState = namedtuple(
    "ViterbiErrcntState", ["pm", "prev", "x", "flag", "errcnt"]
)


@dataclass(frozen=True)
class ViterbiModelConfig:
    """Parameters of the Viterbi case study.

    Defaults are a laptop-scale setting (L=4, a 5-level quantizer,
    path metrics saturating at 6) whose full model has about 2,000
    states; the paper runs L=6 with a finer quantizer on a 53M-state
    model.  Every experiment exposes these as knobs.

    Attributes
    ----------
    snr_db:
        Es/N0 in dB (per-bit symbol energy 1); the paper's Table I uses
        5 dB.
    traceback_length:
        The paper's ``L`` (number of stored trellis stages).
    num_levels:
        Receiver quantizer levels.
    quantizer_low / quantizer_high:
        Quantizer range; must cover the ISI alphabet {-2, 0, +2}.
    pm_max:
        Path-metric saturation bound.
    error_count_cap:
        Saturation bound of the P3 error counter.
    """

    snr_db: float = 5.0
    traceback_length: int = 4
    num_levels: int = 5
    quantizer_low: float = -3.0
    quantizer_high: float = 3.0
    pm_max: int = 6
    error_count_cap: int = 2
    taps: Tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.traceback_length < 2:
            raise ValueError("traceback_length must be >= 2")
        if self.error_count_cap < 1:
            raise ValueError("error_count_cap must be >= 1")
        if len(self.taps) < 2:
            raise ValueError("need taps for the current bit and >=1 past bit")
        if self.traceback_length <= self.memory:
            raise ValueError("traceback_length must exceed the channel memory")

    @property
    def memory(self) -> int:
        """Channel memory ``m`` (the paper's case studies use m = 1)."""
        return len(self.taps) - 1

    def make_quantizer(self) -> UniformQuantizer:
        return UniformQuantizer(
            self.num_levels, self.quantizer_low, self.quantizer_high
        )

    def make_transmitter(self) -> PartialResponseTransmitter:
        return PartialResponseTransmitter(self.taps)

    def make_trellis(self) -> Trellis:
        return Trellis(
            self.make_transmitter(), self.make_quantizer(), pm_max=self.pm_max
        )

    @property
    def sigma(self) -> float:
        return noise_sigma(self.snr_db, symbol_energy=1.0)


class ViterbiKernel:
    """The probabilistic function ``Gamma_p`` shared by ``M`` and ``M_R``.

    Maps ``(pm, previous bits)`` to the distribution over
    ``(new pm, new survivors, new bit, q index)``.  Both the full and
    the reduced model draw from this same kernel — which is why the
    reduction preserves probabilistic behaviour (the paper's Part B).
    All Gaussian cell probabilities and ACS results are cached;
    :meth:`branches` serves the per-state reference transitions.

    The array builders read the same kernel as tables, closed at
    construction so every id below is an exact table index:

    * ``pm_vectors`` — every path-metric vector reachable from
      :meth:`initial_pm` under ACS, indexed by *pm id* (id 0 is the
      initial vector); ``survivor_tuples`` — every survivor tuple ACS
      emits, by *survivor id* (id 0 is the all-zero cold-start tuple).
    * ``branch_prob[code, j]`` and ``branch_bit[code, j]`` — probability
      and new data bit of branch ``j`` when the past bits, newest first,
      are ``bits`` with ``code = sum(bits[i] << i)``; ``next_pm[pm id,
      code, j]`` and ``next_survivors[pm id, code, j]`` — the branch's
      ACS result as ids.  Branch ``j`` is the ``j``-th entry of
      :meth:`branches`; codes with fewer branches are padded with
      probability-0 entries.
    * ``best[pm id]`` — the trellis state of least path metric (lowest
      index on ties, as in :func:`traceback_flag`); ``survivor[survivor
      id, trellis state]`` — the predecessor that tuple selects.
    """

    def __init__(self, config: ViterbiModelConfig) -> None:
        self.config = config
        self.trellis = config.make_trellis()
        self.quantizer = config.make_quantizer()
        self.transmitter = config.make_transmitter()
        sigma = config.sigma
        memory = config.memory
        # q-level distribution for each (new bit, past bits...) tuple
        # (newest past bit first — the paper's m=1 case keys on
        # (x[n], x[n-1])).
        self._q_dist: Dict[Tuple[int, ...], List[Tuple[float, int]]] = {}
        for bits in itertools.product((0, 1), repeat=memory + 1):
            mean = self.transmitter.output(list(bits))
            probabilities = self.quantizer.cell_probabilities(mean, sigma)
            self._q_dist[bits] = [
                (float(p), int(i))
                for i, p in enumerate(probabilities)
                if p > 0.0
            ]
        self._acs_cache: Dict[Tuple[Tuple[int, ...], int], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._close_tables()

    def _close_tables(self) -> None:
        memory = self.config.memory
        num_states = self.trellis.num_states
        per_code = [
            self.branches(self.initial_pm(), [(code >> i) & 1 for i in range(memory)])
            for code in range(1 << memory)
        ]
        width = max(len(branches) for branches in per_code)
        self.branch_prob = np.zeros((len(per_code), width))
        self.branch_bit = np.zeros((len(per_code), width), dtype=np.int64)
        q_of = np.zeros((len(per_code), width), dtype=np.int64)
        for code, branches in enumerate(per_code):
            for j, (probability, (_pm, _surv, x_new, q_index)) in enumerate(branches):
                self.branch_prob[code, j] = probability
                self.branch_bit[code, j] = x_new
                q_of[code, j] = q_index
        levels = sorted({q for _p, (_pm, _s, _x, q) in itertools.chain(*per_code)})

        def intern(table, index, value) -> int:
            slot = index.get(value)
            if slot is None:
                slot = index[value] = len(table)
                table.append(value)
            return slot

        self.pm_vectors: List[Tuple[int, ...]] = []
        self.survivor_tuples: List[Tuple[int, ...]] = []
        pm_ids: Dict[Tuple[int, ...], int] = {}
        survivor_ids: Dict[Tuple[int, ...], int] = {}
        intern(self.pm_vectors, pm_ids, self.initial_pm())
        intern(self.survivor_tuples, survivor_ids, (0,) * num_states)
        acs_pm: List[List[int]] = []
        acs_survivors: List[List[int]] = []
        for pm in self.pm_vectors:  # grows while it is walked: a BFS
            pm_row = [0] * self.quantizer.num_levels
            survivor_row = [0] * self.quantizer.num_levels
            for q_index in levels:
                new_pm, survivors = self.acs(pm, q_index)
                pm_row[q_index] = intern(self.pm_vectors, pm_ids, new_pm)
                survivor_row[q_index] = intern(
                    self.survivor_tuples, survivor_ids, survivors
                )
            acs_pm.append(pm_row)
            acs_survivors.append(survivor_row)
        self.next_pm = np.array(acs_pm, dtype=np.int64)[:, q_of]
        self.next_survivors = np.array(acs_survivors, dtype=np.int64)[:, q_of]
        self.best = np.array(
            [min(range(num_states), key=lambda s: (pm[s], s)) for pm in self.pm_vectors],
            dtype=np.int64,
        )
        self.survivor = np.array(self.survivor_tuples, dtype=np.int64)

    def acs(self, pm: Tuple[int, ...], q_index: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Cached add-compare-select: ``(new pm, survivors)``."""
        key = (pm, q_index)
        cached = self._acs_cache.get(key)
        if cached is None:
            result = self.trellis.acs(pm, q_index)
            cached = (result.path_metrics, result.survivors)
            self._acs_cache[key] = cached
        return cached

    def branches(
        self, pm: Tuple[int, ...], x_prev
    ) -> List[Tuple[float, Tuple[Tuple[int, ...], Tuple[int, ...], int, int]]]:
        """All probabilistic outcomes of one cycle.

        Returns ``(probability, (new_pm, survivors, x_new, q_index))``
        with the data bit uniform over {0, 1} and ``q`` from the exact
        quantized-Gaussian distribution.  ``x_prev`` is the previous
        data bit (memory 1) or the tuple of the last ``m`` bits, newest
        first.
        """
        past = (x_prev,) if isinstance(x_prev, int) else tuple(x_prev)
        out = []
        for x_new in (0, 1):
            for p_q, q_index in self._q_dist[(x_new,) + past]:
                new_pm, survivors = self.acs(pm, q_index)
                out.append((0.5 * p_q, (new_pm, survivors, x_new, q_index)))
        return out

    def initial_pm(self) -> Tuple[int, ...]:
        return self.trellis.initial_metrics()

    def step(self, pm: np.ndarray, code: np.ndarray):
        """One cycle for ``k`` states at once, from the tables.

        ``pm`` holds pm ids and ``code`` past-bits codes, shape ``(k,)``;
        returns ``(probability, new pm id, survivor id, new bit)``, each
        of shape ``(k, B)`` in the branch order of :meth:`branches`.
        """
        return (
            self.branch_prob[code],
            self.next_pm[pm, code],
            self.next_survivors[pm, code],
            self.branch_bit[code],
        )


def traceback_flag(
    pm: Tuple[int, ...], prev: Tuple[Tuple[int, ...], ...], x: Tuple[int, ...]
) -> int:
    """The paper's ``F_E`` (Eq. 5): traceback through all stored stages
    and compare the decoded bit with the actual bit ``x_{L-1}``."""
    state = min(range(len(pm)), key=lambda s: (pm[s], s))
    for stage in prev[:-1]:
        state = stage[state]
    return int((state & 1) != x[-1])


def full_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of the full model ``M`` (Eqs. 2-5)."""

    memory = kernel.config.memory

    def transition(state: ViterbiFullState):
        branches = []
        for probability, (new_pm, survivors, x_new, _q) in kernel.branches(
            state.pm, state.x[:memory]
        ):
            new_prev = (survivors,) + state.prev[:-1]
            new_x = (x_new,) + state.x[:-1]
            flag = traceback_flag(new_pm, new_prev, new_x)
            branches.append(
                (probability, ViterbiFullState(new_pm, new_prev, new_x, flag))
            )
        return branches

    return transition


def error_count_transition(kernel: ViterbiKernel) -> Callable:
    """Transition function of the full model with the saturating P3
    error counter: ``errcnt' = min(errcnt + flag', cap)``."""
    base = full_transition(kernel)
    cap = kernel.config.error_count_cap

    def transition(state: ViterbiErrcntState):
        return [
            (probability, ViterbiErrcntState(*nxt, min(state.errcnt + nxt.flag, cap)))
            for probability, nxt in base(state)
        ]

    return transition


def _initial_full_state(kernel: ViterbiKernel) -> ViterbiFullState:
    length = kernel.config.traceback_length
    pm = kernel.initial_pm()
    prev = (tuple([0] * kernel.trellis.num_states),) * length
    x = (0,) * length
    return ViterbiFullState(pm, prev, x, traceback_flag(pm, prev, x))


# ----------------------------------------------------------------------
# Array form of the full model.  A state is the row
#   [pm id, prev ids (L, newest first), x bits (L, newest first), flag]
# (+ errcnt for the P3 model); pm and survivor ids index the kernel
# tables, where id 0 is the cold-start value of each.
# ----------------------------------------------------------------------

def _full_step(kernel: ViterbiKernel):
    """Vectorised :func:`full_transition`: shift the registers, gather
    the kernel tables, and fold the traceback (Eq. 5) as array gathers.
    Columns past the flag (the error counter) are left to the caller."""
    length = kernel.config.traceback_length
    code_weights = 1 << np.arange(kernel.config.memory)

    def step(rows: np.ndarray):
        prev = rows[:, 1 : 1 + length]
        x = rows[:, 1 + length : 1 + 2 * length]
        prob, new_pm, survivors, bit = kernel.step(
            rows[:, 0], x[:, : code_weights.size] @ code_weights
        )
        out = np.empty(prob.shape + rows.shape[1:], dtype=np.int64)
        out[..., 0] = new_pm
        out[..., 1] = survivors
        out[..., 2 : 1 + length] = prev[:, None, :-1]
        out[..., 1 + length] = bit
        out[..., 2 + length : 1 + 2 * length] = x[:, None, :-1]
        state = kernel.best[new_pm]
        for stage in range(1, length):
            state = kernel.survivor[out[..., stage], state]
        out[..., 1 + 2 * length] = (state & 1) != out[..., 2 * length]
        return prob, out

    return step


def count_errors(step, cap: int):
    """``step`` extended with the saturating P3 error counter in the last
    column, after the flag: ``errcnt' = min(errcnt + flag', cap)``."""

    def counted(rows: np.ndarray):
        prob, out = step(rows)
        out[..., -1] = np.minimum(rows[:, None, -1] + out[..., -2], cap)
        return prob, out

    return counted


def _full_radix(kernel: ViterbiKernel):
    length = kernel.config.traceback_length
    return (
        [len(kernel.pm_vectors)]
        + [len(kernel.survivor_tuples)] * length
        + [2] * length
        + [2]
    )


def decode_rows(state_type, rows: np.ndarray, fields) -> list:
    """State objects of type ``state_type`` from explored state rows.

    ``fields`` gives, in field order, each field's column slice and a
    function making the field's value from the list of those columns'
    ints; each distinct value is made once and shared.
    """
    columns = []
    for block, make in fields:
        field_rows = rows[:, block]
        codes = np.ravel_multi_index(field_rows.T, field_rows.max(axis=0) + 1)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        values = np.empty(first.size, dtype=object)
        for i, combo in enumerate(field_rows[first].tolist()):
            values[i] = make(combo)
        columns.append(values[inverse])
    # tuple.__new__ builds each namedtuple in C, skipping the Python-level
    # __new__ that would only repack the same fields.
    return list(map(tuple.__new__, itertools.repeat(state_type), zip(*columns)))


def _full_fields(kernel: ViterbiKernel):
    """Column slices and value makers of ``ViterbiFullState``'s fields."""
    length = kernel.config.traceback_length
    survivor_tuples = kernel.survivor_tuples
    return [
        (slice(0, 1), lambda ids: kernel.pm_vectors[ids[0]]),
        (
            slice(1, 1 + length),
            lambda ids: tuple([survivor_tuples[i] for i in ids]),
        ),
        (slice(1 + length, 1 + 2 * length), tuple),
        (slice(1 + 2 * length, 2 + 2 * length), lambda bits: bits[0]),
    ]


def build_full_model(
    config: Optional[ViterbiModelConfig] = None, *, max_states: Optional[int] = None
) -> ExplorationResult:
    """Explore the full Viterbi DTMC ``M``.

    The chain carries the label ``flag`` and a matching reward
    structure (the paper's reward model), so P1/P2/P3-style properties
    check directly.  States are explored as kernel-table rows
    (:func:`~repro.dtmc.builder.build_array_dtmc`) and kept as
    :class:`ViterbiFullState` objects; :func:`full_transition` is the
    per-state definition the tests compare against.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    start = _initial_full_state(kernel)
    return build_array_dtmc(
        _full_step(kernel),
        initial=[0] * (2 * config.traceback_length + 1) + [start.flag],
        radix=_full_radix(kernel),
        labels={"flag": lambda rows: rows[:, -1] == 1},
        rewards={"flag": lambda rows: rows[:, -1].astype(np.float64)},
        decode=lambda rows: decode_rows(
            ViterbiFullState, rows, _full_fields(kernel)
        ),
        max_states=max_states,
    )


def build_error_count_model(
    config: Optional[ViterbiModelConfig] = None, *, max_states: Optional[int] = None
) -> ExplorationResult:
    """Full model extended with a saturating error counter for P3.

    ``errcnt`` accumulates decoded-bit errors up to
    ``config.error_count_cap``; the paper's worst-case property is
    ``P=? [ F<=T errcnt>1 ]``.  This is the larger "P3" model of
    Table I; :func:`error_count_transition` is its per-state reference.
    """
    config = config or ViterbiModelConfig()
    kernel = ViterbiKernel(config)
    start = _initial_full_state(kernel)
    return build_array_dtmc(
        count_errors(_full_step(kernel), config.error_count_cap),
        initial=[0] * (2 * config.traceback_length + 1) + [start.flag, 0],
        radix=_full_radix(kernel) + [config.error_count_cap + 1],
        labels={
            "flag": lambda rows: rows[:, -2] == 1,
            "overflow": lambda rows: rows[:, -1] > 1,
        },
        rewards={"flag": lambda rows: rows[:, -2].astype(np.float64)},
        decode=lambda rows: decode_rows(
            ViterbiErrcntState,
            rows,
            _full_fields(kernel) + [(slice(-1, None), lambda n: n[0])],
        ),
        max_states=max_states,
    )
