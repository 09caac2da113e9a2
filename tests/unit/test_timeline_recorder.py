"""TimelineRecorder edge cases: empty, single-sample and zero-span series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.recorder import TimelineRecorder


class TestTimeWeightedMeanUtilization:
    def test_empty_series_yields_empty_vector(self):
        rec = TimelineRecorder()
        assert rec.time_weighted_mean_utilization().shape == (0,)

    def test_single_sample_returns_that_sample(self):
        rec = TimelineRecorder()
        rec.record_utilization(5.0, np.array([0.25, 0.75]))
        np.testing.assert_allclose(
            rec.time_weighted_mean_utilization(), [0.25, 0.75]
        )

    def test_single_sample_result_is_a_copy(self):
        rec = TimelineRecorder()
        rec.record_utilization(0.0, np.array([0.5, 0.5]))
        out = rec.time_weighted_mean_utilization()
        out[:] = 99.0
        np.testing.assert_allclose(
            rec.time_weighted_mean_utilization(), [0.5, 0.5]
        )

    def test_zero_span_falls_back_to_plain_mean(self):
        """Several samples at one instant (all events at t=0) have no
        elapsed time to weight by."""
        rec = TimelineRecorder()
        rec.record_utilization(0.0, np.array([0.0, 1.0]))
        rec.record_utilization(0.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(
            rec.time_weighted_mean_utilization(), [0.5, 0.5]
        )

    def test_step_function_integral_is_exact(self):
        """Values hold until the next sample; the last sample has no
        duration — the defining property of the step-function integral."""
        rec = TimelineRecorder()
        rec.record_utilization(0.0, np.array([1.0]))
        rec.record_utilization(3.0, np.array([0.0]))
        rec.record_utilization(4.0, np.array([0.5]))
        # 1.0 for 3s + 0.0 for 1s over a 4s span.
        np.testing.assert_allclose(rec.time_weighted_mean_utilization(), [0.75])

    def test_final_sample_value_does_not_leak_into_integral(self):
        rec = TimelineRecorder()
        rec.record_utilization(0.0, np.array([0.2]))
        rec.record_utilization(10.0, np.array([123.0]))
        np.testing.assert_allclose(rec.time_weighted_mean_utilization(), [0.2])


class TestSeriesRetrieval:
    def test_empty_series_shapes(self):
        rec = TimelineRecorder()
        times, values = rec.utilization_series
        assert times.shape == (0,) and values.shape == (0, 0)

    def test_recorded_values_are_copied(self):
        rec = TimelineRecorder()
        sample = np.array([0.1, 0.9])
        rec.record_utilization(0.0, sample)
        sample[:] = -1.0
        _, values = rec.utilization_series
        np.testing.assert_allclose(values[0], [0.1, 0.9])


class TestCarriedResourceWidth:
    """``n_resources`` keeps empty series shaped like non-empty ones."""

    def test_empty_series_keep_declared_width(self):
        rec = TimelineRecorder(n_resources=3)
        times, values = rec.utilization_series
        assert times.shape == (0,) and values.shape == (0, 3)

    def test_empty_mean_utilization_keeps_declared_width(self):
        rec = TimelineRecorder(n_resources=2)
        out = rec.time_weighted_mean_utilization()
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_width_inferred_from_first_sample(self):
        rec = TimelineRecorder()
        assert rec.n_resources is None
        rec.record_utilization(0.0, np.array([0.3, 0.7]))
        assert rec.n_resources == 2
        assert rec.utilization_series[1].shape == (1, 2)

    def test_unrecorded_simulation_recorder_keeps_width(self, tiny_system):
        """The plotting path off a ``record_timeline=False`` run: the
        recorder saw no samples, but its series are system-shaped."""
        from repro.sched.fcfs import FCFSScheduler
        from repro.sim.simulator import Simulator
        from tests.conftest import make_job

        sim = Simulator(tiny_system, FCFSScheduler(window_size=4),
                        record_timeline=False)
        result = sim.run([make_job(job_id=1, nodes=2, runtime=10.0)])
        times, values = result.recorder.utilization_series
        assert times.shape == (0,)
        assert values.shape == (0, tiny_system.n_resources)
        assert result.recorder.time_weighted_mean_utilization().shape == (
            tiny_system.n_resources,
        )


class TestSnapshotRestore:
    def test_round_trip_preserves_samples_and_width(self):
        rec = TimelineRecorder(n_resources=2)
        rec.record_utilization(0.0, np.array([0.1, 0.9]))
        snap = rec.snapshot()
        rec.record_utilization(2.0, np.array([1.0, 1.0]))
        rec.restore(snap)
        times, values = rec.utilization_series
        assert times.tolist() == [0.0]
        np.testing.assert_array_equal(values, [[0.1, 0.9]])
        assert rec.n_resources == 2

    def test_snapshot_is_isolated_from_later_mutation(self):
        rec = TimelineRecorder(n_resources=1)
        sample = np.array([0.5])
        rec.record_utilization(0.0, sample)
        snap = rec.snapshot()
        snap["util_values"][0][:] = 99.0
        np.testing.assert_array_equal(rec.utilization_series[1], [[0.5]])
