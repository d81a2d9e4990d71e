"""Golden values: the numbers a result store banks, pinned.

For every zoo family at its defaults this pins the exact value (to a
relative 1e-9) and the APMC estimate at seed 0, epsilon 0.05, delta
0.1 (exactly), plus the infinite reward of the leak chain.  The store's
default salt carries ``repro.store.NUMERICS_REVISION``, so rows banked
under older numerics stay history and are never served as hits, but
only if the revision moves whenever these values do.  A failure here
after an intended change means: bump ``NUMERICS_REVISION`` in
``repro/store/result_store.py`` and re-pin the values below.
"""

import numpy as np
import pytest

from repro import zoo
from repro.engine import SmcConfig
from repro.pctl import check

from helpers import leak_chain

#: family -> (exact value, APMC estimate), pinned under revision 1.
GOLDEN = {
    "birth-death": (0.39744358652398754, 0.415),
    "mimo-1xN": (0.006137802207794845, 0.0033333333333333335),
    "mimo-NRx2": (0.9815257233157664, 0.98),
    "random-sparse": (0.9593844333518722, 0.945),
    "viterbi-convergence": (0.45753854793705406, 0.4533333333333333),
    "viterbi-errcnt": (0.670089364287023, 0.65),
    "viterbi-memory-m": (0.34446589855051196, 0.335),
}

SMC = SmcConfig(epsilon=0.05, delta=0.1, seed=0)

MOVED = (
    "a banked value moved: bump NUMERICS_REVISION in"
    " repro/store/result_store.py and re-pin GOLDEN"
)


def test_every_family_is_pinned():
    assert set(GOLDEN) == {family.name for family in zoo.list_models()}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_exact_value(family):
    result = zoo.sweep(family, points=[{}], executor="serial")[0]
    assert result.value == pytest.approx(GOLDEN[family][0], rel=1e-9), MOVED


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_apmc_estimate(family):
    result = zoo.sweep(
        family, points=[{}], backend="apmc", smc=SMC, executor="serial"
    )[0]
    assert result.value.estimate == GOLDEN[family][1], MOVED


def test_leak_chain_reward_is_infinite():
    assert check(leak_chain(1e-13), "R=? [ F goal ]").value == np.inf, MOVED
