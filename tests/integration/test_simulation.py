"""Cross-module integration: every scheduler drives the simulator to
completion while respecting physical invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SCHEDULERS
from repro.cluster.resources import BURST_BUFFER, NODE, ResourceSpec, SystemConfig
from repro.sched.ga import NSGA2Config
from repro.sim.episode import EpisodeState
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace
from tests.conftest import make_job

METHODS = ["heuristic", "optimization", "scalar_rl", "mrsch"]


def capacity_never_exceeded(jobs, system):
    """Sweep the start/end timeline accumulating per-resource usage."""
    events = []
    for job in jobs:
        events.append((job.start_time, 1, job))
        events.append((job.end_time, -1, job))
    events.sort(key=lambda e: (e[0], e[1]))
    usage = {name: 0 for name in system.names}
    for _, sign, job in events:
        for name in system.names:
            usage[name] += sign * job.request(name)
            assert usage[name] <= system.capacity(name), (
                f"{name} over capacity at t={_}"
            )
            assert usage[name] >= 0


@pytest.fixture(scope="module")
def small_workload():
    system = SystemConfig.mini_theta(nodes=32, bb_units=16)
    base = generate_theta_trace(
        ThetaTraceConfig(total_nodes=32, n_jobs=60, mean_interarrival=400.0), seed=3
    )
    jobs = build_workload("S3", base, system, seed=3)
    return system, jobs


@pytest.mark.parametrize("method", METHODS)
class TestAllMethods:
    def _make(self, method, system):
        kwargs = {}
        if method == "optimization":
            kwargs["config"] = NSGA2Config(population=6, generations=2)
        return SCHEDULERS.get(method).build(system, window_size=5, seed=1, **kwargs)

    def test_all_jobs_complete(self, method, small_workload):
        system, jobs = small_workload
        result = Simulator(system, self._make(method, system)).run(jobs)
        assert result.metrics.n_jobs == len(jobs)
        assert all(j.finished for j in result.jobs)

    def test_capacity_invariant(self, method, small_workload):
        system, jobs = small_workload
        result = Simulator(system, self._make(method, system)).run(jobs)
        capacity_never_exceeded(result.jobs, system)

    def test_causality(self, method, small_workload):
        """start ≥ submit, end = start + runtime for every job."""
        system, jobs = small_workload
        result = Simulator(system, self._make(method, system)).run(jobs)
        for job in result.jobs:
            assert job.start_time >= job.submit_time - 1e-9
            assert job.end_time == pytest.approx(job.start_time + job.runtime)

    def test_input_jobs_untouched(self, method, small_workload):
        system, jobs = small_workload
        Simulator(system, self._make(method, system)).run(jobs)
        assert all(j.start_time is None for j in jobs)

    def test_rerun_is_deterministic(self, method, small_workload):
        system, jobs = small_workload
        sched = self._make(method, system)
        r1 = Simulator(system, sched).run(jobs)
        r2 = Simulator(system, sched).run(jobs)
        s1 = sorted((j.job_id, j.start_time) for j in r1.jobs)
        s2 = sorted((j.job_id, j.start_time) for j in r2.jobs)
        assert s1 == s2


class TestSimulatorEdgeCases:
    def test_empty_trace(self, tiny_system):
        sched = SCHEDULERS.get("heuristic").build(tiny_system)
        result = Simulator(tiny_system, sched).run([])
        assert result.metrics.n_jobs == 0
        assert result.makespan == 0.0

    def test_single_job(self, tiny_system):
        sched = SCHEDULERS.get("heuristic").build(tiny_system)
        job = make_job(job_id=1, submit=10.0, runtime=100.0, nodes=4)
        result = Simulator(tiny_system, sched).run([job])
        done = result.jobs[0]
        assert done.start_time == 10.0
        assert done.end_time == 110.0

    def test_oversized_job_rejected(self, tiny_system):
        sched = SCHEDULERS.get("heuristic").build(tiny_system)
        with pytest.raises(ValueError, match="capacity"):
            Simulator(tiny_system, sched).run([make_job(nodes=999)])

    def test_simultaneous_submissions(self, tiny_system):
        sched = SCHEDULERS.get("heuristic").build(tiny_system)
        jobs = [make_job(job_id=i, submit=0.0, runtime=50.0, nodes=4) for i in (1, 2, 3, 4)]
        result = Simulator(tiny_system, sched).run(jobs)
        assert all(j.start_time == 0.0 for j in result.jobs)

    def test_release_visible_to_same_instant_submit(self, tiny_system):
        """A job ending at t frees resources for a job submitted at t."""
        sched = SCHEDULERS.get("heuristic").build(tiny_system)
        first = make_job(job_id=1, submit=0.0, runtime=100.0, nodes=16)
        second = make_job(job_id=2, submit=100.0, runtime=50.0, nodes=16)
        result = Simulator(tiny_system, sched).run([first, second])
        by_id = {j.job_id: j for j in result.jobs}
        assert by_id[2].start_time == 100.0

    def test_instances_triggered_by_events(self, tiny_system, tiny_trace):
        sched = SCHEDULERS.get("heuristic").build(tiny_system)
        result = Simulator(tiny_system, sched).run(tiny_trace)
        # At most one instance per event time; at least one per job.
        assert result.n_scheduling_instances >= len(tiny_trace)

    def test_utilization_in_unit_interval_at_every_instance(self, tiny_system, tiny_trace):
        sched = SCHEDULERS.get("heuristic").build(tiny_system)
        state = EpisodeState(tiny_system)
        state.load(tiny_trace)
        sched.reset()
        values = []
        while state.advance():
            sched.schedule(state.context())
            values.append(state.pool.utilizations().copy())
            state.end_instance()
        values = np.vstack(values)
        assert len(values) == state.finish().n_scheduling_instances
        assert values.shape[1] == tiny_system.n_resources
        assert np.all(values >= 0) and np.all(values <= 1)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 8),      # nodes
            st.integers(0, 4),      # bb
            st.integers(30, 2000),  # runtime
            st.integers(1, 5),      # walltime factor (x runtime, /1)
            st.integers(0, 500),    # gap
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fcfs_invariants_property(jobs_data):
    """Random workloads: completion, capacity and causality always hold."""
    system = SystemConfig(
        resources=(ResourceSpec(NODE, 8), ResourceSpec(BURST_BUFFER, 4))
    )
    t = 0.0
    jobs = []
    for i, (nodes, bb, runtime, wfac, gap) in enumerate(jobs_data):
        t += gap
        jobs.append(
            make_job(job_id=i + 1, submit=t, runtime=float(runtime),
                     walltime=float(runtime * wfac), nodes=nodes, bb=bb)
        )
    sched = SCHEDULERS.get("heuristic").build(system, window_size=4)
    result = Simulator(system, sched, record_timeline=False).run(jobs)
    assert all(j.finished for j in result.jobs)
    capacity_never_exceeded(result.jobs, system)
    for job in result.jobs:
        assert job.start_time >= job.submit_time
