"""Chaos suite for the fault-tolerant sweep fabric (repro.resilience).

Covers the ISSUE-7 acceptance surface:

* retry policies: attempt budgets, exception allowlists, deterministic
  exponential backoff with per-point jitter;
* deadline policies: watchdog kills on the serial/thread executors,
  lease budgets on the process executor;
* crash recovery: worker kills (``BrokenProcessPool``) survive at the
  cost of the dead worker's lease alone, the poisoned point is
  bisected out and quarantined, every surviving point's value is
  bit-identical to the serial path, and a Ctrl-C keeps every finished
  lease and leaves no worker behind;
* checkpoint/resume: an interrupted store-backed sweep resumed against
  the same store recomputes only the missing points and returns values
  identical to an uninterrupted cold run;
* the regression satellite: a failed point is *never* banked in the
  ResultStore and never served as a warm hit;
* guarantee validation: NaN/Inf/range violations downgrade to
  structured ``ValidationWarning`` records on the result;
* ``SweepReport`` triage counts and the abbreviated-traceback /
  ``attempts`` post-mortem fields.

All injected faults are deterministic (:class:`FaultInjector` keeps a
filesystem scoreboard), so every scenario reproduces across executors
and machines.
"""

import functools
import math
import multiprocessing
import os
import signal
import sys
import time

import pytest

from repro import dtmc_from_dict
from repro.core import Guarantee
from repro.engine import sweep, sweep_check
from repro.engine.sweep import SweepInterrupted, SweepResult, _abbreviate_traceback
from repro.resilience import (
    DeadlineExceeded,
    DeadlinePolicy,
    Fault,
    FaultInjector,
    InjectedFault,
    RetryPolicy,
    SweepReport,
    ValidationWarning,
    formula_kind,
    validate_guarantee,
    validate_monotone,
)
from repro.store import ResultStore

FORMULA = "P=? [ F<=50 goal ]"


def _square(point):
    """Module-level sweep fn (picklable) for chaos runs."""
    return point["x"] ** 2


def _tiny_chain(point):
    """Module-level build fn (picklable) for sweep_check chaos runs."""
    p = float(point["p"])
    return dtmc_from_dict(
        {0: {0: 1.0 - p, 1: p}, 1: {1: 1.0}},
        initial=0,
        labels={"goal": [1]},
    )


def _poisoned_build(point):
    if point.get("poison"):
        raise RuntimeError("poisoned build")
    return _tiny_chain(point)


def _deep_raise(point, depth=6):
    if depth:
        return _deep_raise(point, depth - 1)
    raise ValueError("boom at the bottom")


# ----------------------------------------------------------------------
# Policies: coercion, retry decisions, deterministic backoff
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_coerce_accepts_int_policy_none(self):
        assert RetryPolicy.coerce(None) is None
        assert RetryPolicy.coerce(4) == RetryPolicy(max_attempts=4)
        policy = RetryPolicy(max_attempts=2, backoff=0.5)
        assert RetryPolicy.coerce(policy) is policy

    def test_coerce_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            RetryPolicy.coerce(True)
        with pytest.raises(TypeError):
            RetryPolicy.coerce("3")

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)

    def test_should_retry_respects_budget_and_allowlist(self):
        policy = RetryPolicy(max_attempts=3, retry_on=(KeyError,))
        assert policy.should_retry(KeyError("x"), 1)
        assert policy.should_retry(KeyError("x"), 2)
        assert not policy.should_retry(KeyError("x"), 3)  # budget spent
        assert not policy.should_retry(ValueError("x"), 1)  # not listed

    def test_bare_exception_class_normalized_to_tuple(self):
        policy = RetryPolicy(retry_on=KeyError)
        assert policy.retry_on == (KeyError,)

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff=1.0, backoff_factor=2.0, jitter=0.1)
        first = policy.delay('{"x": 1}', 1)
        assert first == policy.delay('{"x": 1}', 1)  # pure function
        assert 0.9 <= first <= 1.1  # base 1.0 +- 10%
        second = policy.delay('{"x": 1}', 2)
        assert 1.8 <= second <= 2.2  # base 2.0 +- 10%
        assert first != policy.delay('{"x": 2}', 1)  # per-point jitter

    def test_delay_clamped_and_zero_without_backoff(self):
        assert RetryPolicy().delay("k", 1) == 0.0
        capped = RetryPolicy(backoff=10.0, max_backoff=12.0, jitter=0.0)
        assert capped.delay("k", 5) == 12.0


class TestDeadlinePolicy:
    def test_coerce_accepts_number_policy_none(self):
        assert DeadlinePolicy.coerce(None) is None
        assert DeadlinePolicy.coerce(2.5) == DeadlinePolicy(timeout=2.5)
        policy = DeadlinePolicy(timeout=1.0, grace=0.0)
        assert DeadlinePolicy.coerce(policy) is policy

    def test_coerce_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            DeadlinePolicy.coerce(True)
        with pytest.raises(TypeError):
            DeadlinePolicy.coerce("fast")

    def test_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            DeadlinePolicy(timeout=0.0)
        with pytest.raises(ValueError, match="grace"):
            DeadlinePolicy(timeout=1.0, grace=-1.0)


# ----------------------------------------------------------------------
# Fault injector: deterministic chaos on demand
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_transient_raise_then_success(self, tmp_path):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="raise", times=2))], tmp_path
        )
        wrapped = injector.wrap(_square)
        with pytest.raises(InjectedFault):
            wrapped({"x": 1})
        with pytest.raises(InjectedFault):
            wrapped({"x": 1})
        assert wrapped({"x": 1}) == 1  # third call: fault budget spent
        assert wrapped({"x": 3}) == 9  # unplanned points never fault
        assert injector.attempts({"x": 1}) == 3

    def test_corrupt_fault_replaces_value(self, tmp_path):
        injector = FaultInjector(
            [({"x": 2}, Fault(kind="corrupt", corrupt_value=float("nan")))],
            tmp_path,
        )
        assert math.isnan(injector.wrap(_square)({"x": 2}))

    def test_reset_clears_the_scoreboard(self, tmp_path):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="raise", times=1))], tmp_path
        )
        with pytest.raises(InjectedFault):
            injector.wrap(_square)({"x": 1})
        injector.reset()
        assert injector.attempts({"x": 1}) == 0
        with pytest.raises(InjectedFault):  # the fault is armed again
            injector.wrap(_square)({"x": 1})

    def test_sample_is_seed_deterministic(self, tmp_path):
        points = [{"x": i} for i in range(50)]
        fault = Fault(kind="raise")
        first = FaultInjector.sample(
            points, fault, tmp_path / "a", rate=0.2, seed=7
        )
        second = FaultInjector.sample(
            points, fault, tmp_path / "b", rate=0.2, seed=7
        )
        assert first.plan.keys() == second.plan.keys()
        assert 0 < len(first.plan) < len(points)
        none = FaultInjector.sample(points, fault, tmp_path / "c", rate=0.0)
        assert not none.plan
        everything = FaultInjector.sample(
            points, fault, tmp_path / "d", rate=1.0
        )
        assert len(everything.plan) == len(points)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            Fault(kind="explode")


# ----------------------------------------------------------------------
# Retries on the watchdog executors
# ----------------------------------------------------------------------

class TestRetries:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_transient_fault_absorbed(self, tmp_path, executor):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="raise", times=2))], tmp_path
        )
        results = sweep(
            injector.wrap(_square),
            [{"x": 0}, {"x": 1}, {"x": 2}],
            executor=executor,
            retry=RetryPolicy(max_attempts=3),
        )
        assert [r.value for r in results] == [0, 1, 4]
        assert [r.attempts for r in results] == [1, 3, 1]
        assert all(r.ok for r in results)

    def test_budget_exhaustion_quarantines_with_postmortem(self, tmp_path):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="raise"))], tmp_path
        )
        results = sweep(
            injector.wrap(_square),
            [{"x": 0}, {"x": 1}],
            executor="serial",
            retry=RetryPolicy(max_attempts=2),
        )
        assert results[0].ok and results[0].attempts == 1
        failed = results[1]
        assert not failed.ok
        assert failed.error.startswith("InjectedFault:")
        assert failed.attempts == 2
        assert "InjectedFault" in failed.traceback

    def test_retry_on_allowlist_fails_fast(self, tmp_path):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="raise", times=2))], tmp_path
        )
        results = sweep(
            injector.wrap(_square),
            [{"x": 1}],
            executor="serial",
            retry=RetryPolicy(max_attempts=5, retry_on=(KeyError,)),
        )
        assert not results[0].ok
        assert results[0].attempts == 1  # InjectedFault is not retryable

    def test_bare_int_retry_coerced(self, tmp_path):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="raise", times=1))], tmp_path
        )
        results = sweep(
            injector.wrap(_square), [{"x": 1}], executor="serial", retry=2
        )
        assert results[0].ok and results[0].attempts == 2


# ----------------------------------------------------------------------
# Deadlines on the watchdog executors
# ----------------------------------------------------------------------

class TestDeadlines:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_hang_killed_at_deadline(self, tmp_path, executor):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="hang", hang_seconds=5.0))], tmp_path
        )
        start = time.perf_counter()
        results = sweep(
            injector.wrap(_square),
            [{"x": 0}, {"x": 1}, {"x": 2}],
            executor=executor,
            deadline=0.3,
        )
        assert time.perf_counter() - start < 4.0  # not the 5s hang
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].timed_out
        assert results[1].error.startswith("DeadlineExceeded")
        assert [r.value for r in results] == [0, None, 4]

    def test_deadline_retryable_when_listed(self, tmp_path):
        injector = FaultInjector(
            [({"x": 1}, Fault(kind="hang", times=1, hang_seconds=5.0))],
            tmp_path,
        )
        results = sweep(
            injector.wrap(_square),
            [{"x": 1}],
            executor="serial",
            retry=RetryPolicy(max_attempts=2, retry_on=(DeadlineExceeded,)),
            deadline=DeadlinePolicy(timeout=0.3),
        )
        assert results[0].ok  # first attempt hung, second succeeded
        assert results[0].value == 1
        assert results[0].attempts == 2


def _interrupt_at_three(x):
    if x == 3:
        raise KeyboardInterrupt
    return x


def _sometimes_hangs(point):
    if point["x"] % 10 == 3:
        time.sleep(0.5)
    return point["x"] ** 2


class TestDeadlineLanes:
    """The serial/thread deadline runner hands points to a helper lane
    and abandons it at an overrun: every point must land exactly once,
    in order, and an abandoned lane must never append later."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_abandoned_lanes_never_append(self, executor):
        points = [{"x": i} for i in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            start = time.perf_counter()
            results = sweep(
                _sometimes_hangs, points, executor=executor, max_workers=4,
                deadline=0.1,
            )
            assert time.perf_counter() - start < 5.0
        finally:
            sys.setswitchinterval(interval)
        snapshot = list(results)
        time.sleep(0.7)  # every abandoned lane has woken up by now
        assert results == snapshot
        assert [r.point for r in results] == points
        hung = [p["x"] % 10 == 3 for p in points]
        assert [r.timed_out for r in results] == hung
        assert [r.value for r in results] == [
            None if h else p["x"] ** 2 for p, h in zip(points, hung)
        ]
        assert all(r.attempts == 1 for r in results)

    def test_interrupt_in_a_lane_carries_partials(self):
        with pytest.raises(SweepInterrupted) as exc:
            sweep(_interrupt_at_three, [0, 1, 2, 3, 4], executor="serial", deadline=5.0)
        time.sleep(0.2)
        assert [r.value for r in exc.value.partial] == [0, 1, 2]


# ----------------------------------------------------------------------
# Process executor: crash recovery, bisection, lease deadlines
# ----------------------------------------------------------------------

def _slow_square(x):
    time.sleep(0.2)
    return x * x


def _kill_idle_sibling(scoreboard, x):
    """Point 1 records its worker's pid.  Point 2's first run waits until
    that worker is idle, SIGKILLs it and then kills its own worker."""
    pid_path = os.path.join(scoreboard, "pid")
    if x == 1:
        with open(pid_path + ".tmp", "w") as handle:
            handle.write(str(os.getpid()))
        os.replace(pid_path + ".tmp", pid_path)
    elif x == 2:
        try:
            os.close(os.open(os.path.join(scoreboard, "killed"), os.O_CREAT | os.O_EXCL))
        except FileExistsError:  # the rerun
            return x * x
        deadline = time.monotonic() + 10
        while not os.path.exists(pid_path) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.5)  # the sibling's results are home: it is idle
        with open(pid_path) as handle:
            os.kill(int(handle.read()), signal.SIGKILL)
        time.sleep(0.3)
        os._exit(1)
    return x * x


class TestProcessRecovery:
    def test_worker_kill_quarantined_survivors_identical(self, tmp_path):
        points = [{"x": i} for i in range(12)]
        injector = FaultInjector(
            [({"x": 5}, Fault(kind="kill"))], tmp_path
        )
        chaos = sweep(
            injector.wrap(_square),
            points,
            executor="process",
            shard_size=3,
            max_workers=2,
        )
        serial = sweep(_square, points, executor="serial")
        for index, (got, want) in enumerate(zip(chaos, serial)):
            if index == 5:
                assert not got.ok
                assert got.error.startswith("BrokenProcessPool")
                assert got.attempts >= 2  # implicated across waves
            else:
                assert got.ok
                assert got.value == want.value  # bit-identical survivors

    def test_crash_costs_only_the_dead_workers_lease(self, tmp_path):
        # Every run of a point is recorded on the scoreboard; each then
        # takes 0.3 s, except point 4, which kills its worker.
        slow = Fault(kind="hang", hang_seconds=0.3)
        injector = FaultInjector(
            [({"x": x}, Fault(kind="kill") if x == 4 else slow) for x in range(12)],
            tmp_path,
        )
        results = sweep(
            injector.wrap(_square),
            [{"x": x} for x in range(12)],
            executor="process",
            shard_size=3,
            max_workers=2,
        )
        outside = [x for x in range(12) if not 3 <= x < 6]
        assert {x: injector.attempts({"x": x}) for x in outside} == {
            x: 1 for x in outside
        }
        assert results[4].error.startswith("BrokenProcessPool")
        assert [r.value for r in results] == [
            None if x == 4 else x * x for x in range(12)
        ]

    def test_ctrl_c_keeps_finished_leases_and_leaves_no_worker(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.alarm(1)
        try:
            with pytest.raises(SweepInterrupted) as caught:
                sweep(
                    _slow_square,
                    list(range(40)),
                    executor="process",
                    shard_size=2,
                    max_workers=2,
                )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        partial = caught.value.partial
        assert 0 < len(partial) < 40
        assert len({r.point for r in partial}) == len(partial)
        assert all(r.ok and r.value == r.point**2 for r in partial)
        assert multiprocessing.active_children() == []

    def test_lease_sent_to_a_dead_idle_worker_is_not_charged(self, tmp_path):
        # Leases [0, 2) and [2, 4): the first worker goes idle and is
        # killed from outside; the second dies, and one half of its
        # bisected lease is then offered to the dead idle worker.
        results = sweep(
            functools.partial(_kill_idle_sibling, str(tmp_path)),
            list(range(4)),
            executor="process",
            shard_size=2,
            max_workers=2,
        )
        assert [r.error for r in results] == [None] * 4
        assert [r.value for r in results] == [0, 1, 4, 9]
        assert multiprocessing.active_children() == []

    def test_two_poisoned_points_both_isolated(self, tmp_path):
        points = [{"x": i} for i in range(8)]
        injector = FaultInjector(
            [
                ({"x": 2}, Fault(kind="kill")),
                ({"x": 6}, Fault(kind="kill")),
            ],
            tmp_path,
        )
        results = sweep(
            injector.wrap(_square),
            points,
            executor="process",
            shard_size=4,
            max_workers=2,
        )
        failed = {i for i, r in enumerate(results) if not r.ok}
        assert failed == {2, 6}
        for index, result in enumerate(results):
            if index not in failed:
                assert result.value == index**2

    def test_in_worker_retries_absorb_transients(self, tmp_path):
        points = [{"x": i} for i in range(6)]
        injector = FaultInjector(
            [({"x": 3}, Fault(kind="raise", times=1))], tmp_path
        )
        results = sweep(
            injector.wrap(_square),
            points,
            executor="process",
            shard_size=2,
            max_workers=2,
            retry=RetryPolicy(max_attempts=2),
        )
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [i**2 for i in range(6)]
        assert results[3].attempts == 2

    def test_hard_hang_quarantined_by_pool_budget(self, tmp_path):
        points = [{"x": i} for i in range(6)]
        injector = FaultInjector(
            [({"x": 2}, Fault(kind="hang", hang_seconds=120.0))], tmp_path
        )
        start = time.perf_counter()
        results = sweep(
            injector.wrap(_square),
            points,
            executor="process",
            shard_size=2,
            max_workers=2,
            deadline=DeadlinePolicy(timeout=0.3, grace=0.5),
        )
        assert time.perf_counter() - start < 60.0  # never the 120s hang
        assert [r.ok for r in results] == [True, True, False, True, True, True]
        assert results[2].timed_out
        assert "pool budget" in results[2].error
        survivors = [r.value for i, r in enumerate(results) if i != 2]
        assert survivors == [0, 1, 9, 16, 25]


# ----------------------------------------------------------------------
# Checkpoint/resume and the never-bank-failures satellite
# ----------------------------------------------------------------------

class TestCheckpointResume:
    def test_resume_matches_uninterrupted_cold_run(self, tmp_path):
        points = [{"p": 0.1}, {"p": 0.2}, {"p": 0.3}, {"p": 0.4}]
        cold = sweep_check(_tiny_chain, points, FORMULA, executor="serial")
        with ResultStore(tmp_path / "ckpt.sqlite") as store:
            # "Interrupted" run: only half the grid completed.
            sweep_check(
                _tiny_chain, points[:2], FORMULA,
                executor="serial", store=store,
            )
            resumed = sweep_check(
                _tiny_chain, points, FORMULA,
                executor="serial", store=store,
            )
        assert [r.cached for r in resumed] == [True, True, False, False]
        assert [r.value for r in resumed] == [r.value for r in cold]
        report = SweepReport.from_results(resumed)
        assert report.cached == 2 and report.recomputed == 2

    def test_failed_points_are_never_banked(self, tmp_path):
        points = [{"p": 0.1}, {"p": 0.2, "poison": 1}, {"p": 0.3}]
        with ResultStore(tmp_path / "bank.sqlite") as store:
            first = sweep_check(
                _poisoned_build, points, FORMULA,
                executor="serial", store=store,
            )
            assert [r.ok for r in first] == [True, False, True]
            assert first[1].error.startswith("RuntimeError: poisoned build")
            assert len(store) == 2  # only the successes were banked
            second = sweep_check(
                _poisoned_build, points, FORMULA,
                executor="serial", store=store,
            )
        # The failure was recomputed, never served as a warm hit.
        assert [r.cached for r in second] == [True, False, True]
        assert not second[1].ok

    def test_guarantee_warnings_round_trip_through_store(self, tmp_path):
        flagged = Guarantee(
            metric="ber",
            property_string="P=? [ F flag ]",
            value=1.0000002,
            model_states=4,
            model_transitions=8,
            check_seconds=0.01,
            warnings=validate_guarantee(1.0000002, kind="probability"),
        )
        assert flagged.warnings  # premise: the value is actually flagged
        with ResultStore(tmp_path / "g.sqlite") as store:
            store.put(["g"], "P=? [ F flag ]", flagged, backend="exact")
            row = store.get(["g"], "P=? [ F flag ]", "exact")
        assert row is not None
        assert row.value == flagged
        assert isinstance(row.value.warnings[0], ValidationWarning)


# ----------------------------------------------------------------------
# Guarantee validation: warnings, never exceptions
# ----------------------------------------------------------------------

class TestValidateGuarantee:
    def test_clean_probability_passes(self):
        assert validate_guarantee(0.25, kind="probability") == ()

    def test_nan_flagged(self):
        codes = [w.code for w in validate_guarantee(float("nan"))]
        assert codes == ["nan"]

    def test_probability_range_flagged_with_clip(self):
        warnings = validate_guarantee(1.0 + 1e-6, kind="probability")
        assert [w.code for w in warnings] == ["range"]
        assert warnings[0].clipped == 1.0
        below = validate_guarantee(-0.5, kind="probability")
        assert below[0].clipped == 0.0

    def test_range_tolerance_absorbs_roundoff(self):
        assert validate_guarantee(1.0 + 1e-12, kind="probability") == ()

    def test_infinite_reward_allowed_negative_flagged(self):
        assert validate_guarantee(float("inf"), kind="reward") == ()
        assert [
            w.code for w in validate_guarantee(float("-inf"), kind="reward")
        ] == ["inf"]
        assert [
            w.code for w in validate_guarantee(-0.5, kind="reward")
        ] == ["range"]

    def test_infinite_probability_flagged(self):
        assert [
            w.code for w in validate_guarantee(float("inf"), kind="probability")
        ] == ["inf"]

    def test_kind_derived_from_formula(self):
        assert formula_kind("P=? [ F<=10 goal ]") == "probability"
        assert formula_kind("S=? [ flag ]") == "probability"
        assert formula_kind("R=? [ I=10 ]") == "reward"
        assert formula_kind("not a formula") is None
        assert formula_kind(None) is None
        # A formula string drives the same classification.
        assert validate_guarantee(1.5, formula="P=? [ F<=10 goal ]")

    def test_duck_typed_values_unwrapped(self):
        class FakeApmc:
            estimate = float("nan")

        assert [w.code for w in validate_guarantee(FakeApmc())] == ["nan"]
        assert validate_guarantee(object()) == ()  # nothing checkable

    def test_cross_backend_probe_flags_implausible_exact_value(self):
        chain = _tiny_chain({"p": 0.3})
        agree = validate_guarantee(
            0.9997, formula=FORMULA, cross_check_chain=chain,
            cross_check_epsilon=0.05,
        )
        assert agree == ()
        disagree = validate_guarantee(
            0.2, formula=FORMULA, cross_check_chain=chain,
            cross_check_epsilon=0.05,
        )
        assert [w.code for w in disagree] == ["cross-backend"]

    def test_monotone_inversions_flagged(self):
        assert validate_monotone([0.5, 0.4, 0.3], decreasing=True) == ()
        warnings = validate_monotone(
            [0.5, 0.6, 0.3], decreasing=True, labels=["a", "b", "c"]
        )
        assert [w.code for w in warnings] == ["monotonicity"]
        assert "'b'" in warnings[0].message
        rising = validate_monotone([0.1, 0.05], decreasing=False)
        assert [w.code for w in rising] == ["monotonicity"]

    def test_monotone_skips_failed_points(self):
        assert validate_monotone(
            [0.5, None, float("nan"), 0.4], decreasing=True
        ) == ()


class TestSweepCheckValidation:
    def _patched_results(self, monkeypatch, fake_value, formula=FORMULA,
                         **kwargs):
        import importlib

        # "import repro.engine.sweep" resolves to the sweep *function*
        # (the package re-exports it under the same name).
        sweep_mod = importlib.import_module("repro.engine.sweep")

        def fake_check(entry, **_ignored):
            return fake_value

        monkeypatch.setattr(sweep_mod, "_check_point", fake_check)
        return sweep_check(
            _tiny_chain, [{"p": 0.2}], formula, executor="serial", **kwargs
        )

    def test_nan_value_flagged_not_raised(self, monkeypatch):
        results = self._patched_results(monkeypatch, float("nan"))
        assert results[0].ok  # the sweep itself succeeded
        assert [w.code for w in results[0].warnings] == ["nan"]

    def test_out_of_range_probability_flagged(self, monkeypatch):
        results = self._patched_results(monkeypatch, 1.5)
        assert [w.code for w in results[0].warnings] == ["range"]
        assert results[0].warnings[0].clipped == 1.0

    def test_reward_formula_not_range_checked_against_unit(self, monkeypatch):
        results = self._patched_results(
            monkeypatch, 42.0, formula="R=? [ I=10 ]"
        )
        assert results[0].warnings == ()

    def test_clean_sweep_has_no_warnings(self):
        results = sweep_check(
            _tiny_chain, [{"p": 0.2}], FORMULA, executor="serial"
        )
        assert results[0].ok and results[0].warnings == ()


class TestAnalyzerValidation:
    def test_guarantee_carries_validation_verdict(self):
        from repro.core.analyzer import PerformanceAnalyzer

        analyzer = PerformanceAnalyzer(_tiny_chain({"p": 0.3}), name="tiny")
        guarantee = analyzer.check(FORMULA)
        assert guarantee.is_valid
        assert guarantee.warnings == ()

    def test_flagged_guarantee_str_shows_warnings(self):
        flagged = Guarantee(
            metric="ber", property_string="P=? [ F flag ]", value=1.5,
            model_states=1, model_transitions=1, check_seconds=0.0,
            warnings=validate_guarantee(1.5, kind="probability"),
        )
        assert not flagged.is_valid
        assert "!!" in str(flagged) and "[range]" in str(flagged)


# ----------------------------------------------------------------------
# Post-mortems: report counts, traceback abbreviation, attempts
# ----------------------------------------------------------------------

class TestSweepReport:
    def test_counts_and_describe(self):
        results = [
            SweepResult(point=1, value=1.0, seconds=0.1),
            SweepResult(point=2, value=2.0, seconds=0.2, cached=True),
            SweepResult(point=3, value=3.0, seconds=0.3, attempts=3),
            SweepResult(
                point=4, value=None, seconds=0.4,
                error="DeadlineExceeded: too slow", attempts=2,
            ),
            SweepResult(
                point=5, value=None, seconds=0.5,
                error="BrokenProcessPool: worker died",
            ),
            SweepResult(
                point=6, value=6.0, seconds=0.6,
                warnings=(ValidationWarning(code="nan", message="NaN"),),
            ),
        ]
        report = SweepReport.from_results(results)
        assert report.total == 6
        assert report.ok == 4
        assert report.cached == 1
        assert report.recomputed == 5
        assert report.retried == 2
        assert report.quarantined == 2
        assert report.timed_out == 1
        assert report.crashed == 1
        assert report.warnings == 1
        assert report.errors == {
            "DeadlineExceeded": 1, "BrokenProcessPool": 1,
        }
        assert not report.healthy
        text = report.describe()
        assert "recomputed=5" in text
        assert "quarantined=2" in text
        assert "DeadlineExceeded x1" in text

    def test_worker_lost_counts_as_crashed(self):
        report = SweepReport.from_results(
            [
                SweepResult(point=1, value=1.0, seconds=0.1),
                SweepResult(
                    point=2, value=None, seconds=0.2, attempts=2,
                    error="WorkerLost: worker w3 stopped heartbeating"
                    " while holding [1:2)",
                ),
            ]
        )
        assert report.quarantined == 1
        assert report.crashed == 1
        assert report.timed_out == 0
        assert report.errors == {"WorkerLost": 1}
        assert "crashed=1" in report.describe()

    def test_healthy_clean_run(self):
        report = SweepReport.from_results(
            [SweepResult(point=1, value=1.0, seconds=0.1)]
        )
        assert report.healthy
        assert report.quarantined == 0 and report.warnings == 0


class TestPostMortemFields:
    def test_attempts_defaults_to_one(self):
        result = SweepResult(point=1, value=1.0, seconds=0.0)
        assert result.attempts == 1
        assert result.traceback is None
        assert result.warnings == ()
        assert not result.timed_out

    def test_traceback_abbreviated_to_last_frames(self):
        results = sweep(_deep_raise, [{"x": 0}], executor="serial")
        failed = results[0]
        assert failed.error == "ValueError: boom at the bottom"
        assert failed.traceback.endswith("ValueError: boom at the bottom")
        assert "frames elided" in failed.traceback
        # Abbreviation keeps the tail: the raising frame is present.
        assert "_deep_raise" in failed.traceback

    def test_abbreviate_traceback_short_stacks_untouched(self):
        try:
            raise KeyError("shallow")
        except KeyError as exc:
            text = _abbreviate_traceback(exc)
        assert "frames elided" not in text
        assert text.endswith("KeyError: 'shallow'")
