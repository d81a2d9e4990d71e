"""Tests for the scenario-sweep runner (repro.engine.sweep)."""

import math
import multiprocessing

import pytest

from repro.engine import SweepResult, grid, sweep, sweep_values


def _square(x):
    return x * x


def _flaky(x):
    if x == 2:
        raise ValueError("bad point")
    return x


class TestGrid:
    def test_cartesian_product_in_axis_order(self):
        points = grid(snr_db=[4, 8], levels=[3, 5])
        assert points == [
            {"snr_db": 4, "levels": 3},
            {"snr_db": 4, "levels": 5},
            {"snr_db": 8, "levels": 3},
            {"snr_db": 8, "levels": 5},
        ]

    def test_single_axis(self):
        assert grid(length=[2, 3]) == [{"length": 2}, {"length": 3}]

    def test_empty(self):
        assert grid() == [{}]


class TestSweep:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_results_ordered_and_correct(self, executor):
        results = sweep(_square, [3, 1, 2], executor=executor)
        assert [r.value for r in results] == [9, 1, 4]
        assert [r.point for r in results] == [3, 1, 2]
        assert all(isinstance(r, SweepResult) for r in results)
        assert all(r.ok for r in results)
        assert all(r.seconds >= 0 for r in results)

    def test_error_capture_continues(self):
        results = sweep(_flaky, [1, 2, 3], executor="serial")
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].value is None
        assert "ValueError: bad point" in results[1].error
        assert results[2].value == 3

    def test_error_raise_mode(self):
        with pytest.raises(RuntimeError, match="bad point"):
            sweep(_flaky, [1, 2, 3], executor="serial", on_error="raise")

    def test_sweep_values_raises_on_failure(self):
        assert sweep_values(_square, [2, 4], executor="serial") == [4, 16]
        with pytest.raises(RuntimeError, match="bad point"):
            sweep_values(_flaky, [2], executor="serial")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            sweep(_square, [1], executor="fork-bomb")

    def test_thread_executor_is_gone(self):
        with pytest.raises(ValueError, match="serial, process, remote"):
            sweep(_square, [1, 2], executor="thread")

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            sweep(_square, [1, 2], executor="serial", on_error="ignore")

    def test_process_pool_with_module_function(self):
        assert [
            r.value
            for r in sweep(math.sqrt, [1.0, 4.0, 9.0], executor="process")
        ] == [1.0, 2.0, 3.0]

    def test_process_pool_rejects_unpicklable_function(self):
        # Workers get the sweep as a pickle, as fleet workers do, so a
        # closure fails at once instead of point by point.
        scale = 10
        with pytest.raises(Exception, match="pickle"):
            sweep(lambda p: p * scale, [1, 2], executor="process")
        assert multiprocessing.active_children() == []


class TestExperimentDriversAcrossExecutors:
    """The experiment drivers must work under every executor — in
    particular "process", which requires their sweep functions to be
    picklable (module-level, not closures)."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_figure2_sweep(self, executor):
        from repro.experiments import figure2

        result = figure2.run(lengths=(2, 3), snr_db=8.0, executor=executor)
        assert len(result.values) == 2
        assert result.values[0] > result.values[1] > 0
