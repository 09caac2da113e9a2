"""Hot-path micro-benchmarks (PR 4's measured surface).

Each benchmark exercises one layer the replay pipeline leans on:

* :func:`bench_fcfs_replay` — end-to-end event-driven replay of a
  saturated Theta-like trace under FCFS+EASY. Dominated by the
  scheduler-loop bookkeeping (window extraction, dequeues, the
  vectorized backfill pass) — the paper-scale scaling term.
* :func:`bench_mrsch_episode` — one MRSch training episode (simulation
  rollout with per-decision DFP scoring + the replay-buffer training
  epoch), i.e. the §III-D curriculum unit of work.
* :func:`bench_pool_accounting` — ResourcePool allocate/release churn
  interleaved with the EASY order-statistic queries
  (``earliest_fit_time`` / ``free_units_at`` / ``can_fit``).
* :func:`bench_dfp_scoring` — per-decision ``forward_scores`` calls
  (the folded inference path), optionally in float32.
* :func:`bench_batched_episodes` — N lockstep inference episodes
  through :class:`~repro.sim.batched.BatchedSimulator` (one
  ``action_scores_batch`` GEMM per macro-step) against the same N
  episodes replayed one at a time, with an end-to-end decision-identity
  check between the two paths.
* :func:`bench_mrsch_theta_decision` — per-decision MRSch state
  maintenance at the paper's real machine geometry (4,392 nodes +
  1,290 BB units → an 11k-element §III-A vector): a deterministic
  §III-C-shaped decision stream replayed through the incremental
  encoder, with the fresh-``encode`` reference timed on the identical
  stream for the speedup claim.

This module deliberately touches only long-stable public APIs
(simulator, schedulers, pool, trace generator, DFP agent), so the very
same file can be dropped onto an older checkout to measure a historical
commit for the ``BENCH_hotpath.json`` trajectory.

Timings are wall-clock (``perf_counter``) around the measured phase
only — trace generation and scheduler construction are setup.
:func:`calibrate` times a fixed NumPy workload so trajectory entries
carry a machine-speed yardstick; regression checks compare
``wall / calibration`` ratios, not raw seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BenchResult",
    "calibrate",
    "bench_fcfs_replay",
    "bench_mrsch_episode",
    "bench_pool_accounting",
    "bench_dfp_scoring",
    "bench_mrsch_theta_decision",
    "bench_batched_episodes",
    "bench_dispatch_overhead",
    "bench_telemetry_overhead",
    "run_suite",
    "list_benches",
    "BENCHES",
    "SCALES",
]


@dataclass
class BenchResult:
    """One benchmark measurement."""

    name: str
    wall_s: float
    #: work units behind ``wall_s`` (jobs replayed, decisions scored …)
    n_units: int
    #: free-form sizing/context (trace size, queue depth, dtype, …)
    meta: dict = field(default_factory=dict)

    @property
    def per_unit_ms(self) -> float:
        return 1e3 * self.wall_s / max(self.n_units, 1)

    def to_json_dict(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "n_units": self.n_units,
            "per_unit_ms": self.per_unit_ms,
            "meta": dict(self.meta),
        }


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed NumPy reference workload (median of runs).

    A machine-speed yardstick: trajectory entries store raw wall time
    *and* ``wall / calibration``, so the regression guard compares
    commits meaningfully even across laptops/CI runners.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 256))
    b = rng.normal(size=(256, 256))
    v = rng.normal(size=200_000)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = a
        for _ in range(60):
            acc = np.tanh(acc @ b * 1e-2)
        np.sort(v.copy())
        times.append(time.perf_counter() - t0)
    times.sort()
    return float(times[len(times) // 2])


# -- workload construction ---------------------------------------------------


def _saturated_trace(n_jobs: int, nodes: int, bb_units: int, seed: int,
                     mean_interarrival: float):
    """A Theta-like trace that keeps deep queues (the hard regime)."""
    from repro.cluster.resources import SystemConfig
    from repro.workload.suites import build_workload
    from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

    system = SystemConfig.mini_theta(nodes=nodes, bb_units=bb_units)
    base = generate_theta_trace(
        ThetaTraceConfig(
            total_nodes=nodes, n_jobs=n_jobs, mean_interarrival=mean_interarrival
        ),
        seed=seed,
    )
    jobs = build_workload("S3", base, system, seed=seed)
    return system, jobs


# -- benchmarks ---------------------------------------------------------------


def bench_fcfs_replay(
    n_jobs: int = 20_000,
    nodes: int = 128,
    bb_units: int = 64,
    mean_interarrival: float = 55.0,
    seed: int = 7,
) -> BenchResult:
    """Replay ``n_jobs`` under FCFS+EASY; the end-to-end hot path."""
    from repro.sched.fcfs import FCFSScheduler
    from repro.sim.simulator import Simulator

    system, jobs = _saturated_trace(n_jobs, nodes, bb_units, seed, mean_interarrival)
    sim = Simulator(system, FCFSScheduler(window_size=10), record_timeline=False)
    t0 = time.perf_counter()
    result = sim.run(jobs)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="fcfs_replay",
        wall_s=wall,
        n_units=n_jobs,
        meta={
            "nodes": nodes,
            "bb_units": bb_units,
            "mean_interarrival": mean_interarrival,
            "makespan": result.makespan,
            "instances": result.n_scheduling_instances,
        },
    )


def bench_mrsch_episode(
    n_jobs: int = 2_500,
    nodes: int = 128,
    bb_units: int = 64,
    mean_interarrival: float = 110.0,
    seed: int = 11,
    agent_seed: int = 5,
) -> BenchResult:
    """One MRSch training episode: rollout + replay training epoch."""
    from repro.core.mrsch import MRSchScheduler
    from repro.core.training import train_episodes

    system, jobs = _saturated_trace(n_jobs, nodes, bb_units, seed, mean_interarrival)
    sched = MRSchScheduler(system, window_size=10, seed=agent_seed)
    t0 = time.perf_counter()
    result = train_episodes(sched, [jobs], system)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="mrsch_episode",
        wall_s=wall,
        n_units=n_jobs,
        meta={
            "nodes": nodes,
            "bb_units": bb_units,
            "mean_interarrival": mean_interarrival,
            "final_loss": result.final_loss(),
        },
    )


def bench_pool_accounting(
    n_rounds: int = 2_000, nodes: int = 512, bb_units: int = 256, seed: int = 3
) -> BenchResult:
    """Allocate/release churn + EASY order-statistic queries."""
    from repro.cluster.resources import ResourcePool, SystemConfig
    from repro.workload.job import Job

    system = SystemConfig.mini_theta(nodes=nodes, bb_units=bb_units)
    pool = ResourcePool(system)
    rng = np.random.default_rng(seed)
    jobs = [
        Job(
            job_id=i,
            submit_time=0.0,
            runtime=float(rng.integers(60, 5000)),
            walltime=float(rng.integers(5000, 20000)),
            requests={
                "node": int(rng.integers(1, nodes // 4)),
                "burst_buffer": int(rng.integers(0, bb_units // 4)),
            },
        )
        for i in range(64)
    ]
    probe = jobs[0]
    active: list[Job] = []
    t0 = time.perf_counter()
    now = 0.0
    n_queries = 0
    for round_i in range(n_rounds):
        now += 10.0
        job = jobs[round_i % len(jobs)]
        if job.job_id in {j.job_id for j in active}:
            pool.release(job)
            active.remove(job)
        elif pool.can_fit(job):
            pool.allocate(job, now)
            active.append(job)
        # An EASY pass worth of queries against the current state.
        shadow = pool.earliest_fit_time(probe, now)
        for name in system.names:
            pool.free_units_at(name, shadow, now)
        for j in jobs[:8]:
            pool.can_fit(j)
        n_queries += 1 + system.n_resources + 8
    wall = time.perf_counter() - t0
    for job in active:
        pool.release(job)
    return BenchResult(
        name="pool_accounting",
        wall_s=wall,
        n_units=n_queries,
        meta={"nodes": nodes, "bb_units": bb_units, "rounds": n_rounds},
    )


def bench_dfp_scoring(
    n_calls: int = 2_000,
    nodes: int = 128,
    bb_units: int = 64,
    window: int = 10,
    seed: int = 9,
    dtype: str | None = None,
) -> BenchResult:
    """Per-decision folded inference (``forward_scores``), B = 1.

    ``dtype="float32"`` opts into the reduced-precision scoring mode on
    checkouts that provide it (silently skipped on older ones, so the
    trajectory driver can run the same file everywhere).
    """
    from repro.cluster.resources import ResourcePool, SystemConfig
    from repro.core.dfp import DFPAgent, DFPConfig
    from repro.core.encoding import StateEncoder

    system = SystemConfig.mini_theta(nodes=nodes, bb_units=bb_units)
    encoder = StateEncoder(system, window_size=window)
    config = DFPConfig(
        state_dim=encoder.state_dim,
        n_measurements=system.n_resources,
        n_actions=window,
        slot_dim=encoder.job_dim,
    )
    agent = DFPAgent(config, rng=seed)
    if dtype is not None and hasattr(agent, "set_inference_dtype"):
        agent.set_inference_dtype(dtype)
    # Report the dtype the network is *configured* with, read back from
    # the agent — not the request. On checkouts without the reduced-
    # precision mode a float32 request silently measures float64, and
    # the trajectory entry must say so (the committed pr3-seed entry is
    # exactly such a run).
    applied_dtype = "float64"
    network = getattr(agent, "network", None)
    if network is not None and hasattr(network, "inference_dtype"):
        applied_dtype = np.dtype(network.inference_dtype).name
    rng = np.random.default_rng(seed)
    pool = ResourcePool(system)
    state = rng.normal(size=encoder.state_dim)
    measurement = pool.utilizations()
    goal = np.full(system.n_resources, 1.0 / system.n_resources)
    agent.action_scores(state, measurement, goal)  # warm buffers/caches
    t0 = time.perf_counter()
    for _ in range(n_calls):
        agent.action_scores(state, measurement, goal)
    wall = time.perf_counter() - t0
    return BenchResult(
        name="dfp_scoring" if dtype is None else f"dfp_scoring_{dtype}",
        wall_s=wall,
        n_units=n_calls,
        meta={
            "state_dim": encoder.state_dim,
            "window": window,
            "dtype": applied_dtype,
            "requested_dtype": dtype or "float64",
        },
    )


def bench_mrsch_theta_decision(
    n_decisions: int = 2_000,
    nodes: int = 4392,
    bb_units: int = 1290,
    window: int = 10,
    seed: int = 13,
) -> BenchResult:
    """Per-decision MRSch state maintenance at full-machine geometry.

    Replays a deterministic §III-C-shaped decision stream — scheduling
    instances of several selections at one clock, allocations on
    fitting picks, releases and a clock advance between instances —
    and accumulates the wall time of the per-decision *state assembly*:
    the §III-A encode plus the feasibility inputs (window request
    matrix + fits vector) the MRSch prior consumes. Pool mutations and
    window bookkeeping run outside the timer, identically for both
    paths. ``wall_s`` measures the incremental pipeline (what the MRSch
    scheduler ships with); the fresh-``encode`` reference — a fresh
    ``StateEncoder.encode`` plus per-job request extraction and
    ``can_fit`` probes, the pre-incremental ``select`` data path — is
    timed on the *identical* stream and reported in ``meta`` together
    with the speedup and a final-state equality check. On checkouts
    predating the incremental encoder the reference path is what gets
    measured (``meta.encoder`` says which).

    DFP scoring cost is deliberately excluded — ``bench_dfp_scoring``
    owns it; this benchmark isolates the per-decision state-maintenance
    term the ROADMAP's full-machine-scale open item named.
    """
    from repro.cluster.resources import ResourcePool, SystemConfig
    from repro.core.encoding import StateEncoder
    from repro.workload.job import Job

    try:
        from repro.core.encoding import IncrementalStateEncoder
    except ImportError:  # pre-PR-5 checkout: measure the reference path
        IncrementalStateEncoder = None

    system = SystemConfig.mini_theta(nodes=nodes, bb_units=bb_units)
    names = system.names

    def make_jobs() -> list[Job]:
        rng = np.random.default_rng(seed)
        return [
            Job(
                job_id=i,
                submit_time=float(rng.integers(0, 50_000)),
                runtime=float(rng.integers(300, 40_000)),
                walltime=float(rng.integers(40_000, 90_000)),
                requests={
                    "node": int(rng.integers(1, max(2, nodes // 8))),
                    "burst_buffer": int(rng.integers(0, max(1, bb_units // 8))),
                },
            )
            for i in range(256)
        ]

    def fresh_decide(encoder):
        def decide(pending, pool, now):
            state = encoder.encode(pending, pool, now)
            reqs = np.array(
                [[job.request(name) for name in names] for job in pending],
                dtype=float,
            )
            fits = np.fromiter(
                (pool.can_fit(job) for job in pending), dtype=bool, count=len(pending)
            )
            return state, reqs, fits

        return decide

    def incremental_decide(encoder):
        return encoder.encode_decision

    def replay(decide) -> tuple[float, np.ndarray]:
        """Drive the decision stream; returns (Σ decision wall, final state).

        The waiting queue is FIFO, as in the simulator: the window is
        the queue head, a start removes its job (later slots shift up),
        and completed jobs re-enter at the *tail* as recycled arrivals
        so the stream never drains.
        """
        rng = np.random.default_rng(seed + 1)
        queue = make_jobs()
        pool = ResourcePool(system)
        active: list[tuple[float, Job]] = []
        now = 0.0
        wall = 0.0
        decisions = 0
        state = None
        while decisions < n_decisions:
            now += float(rng.integers(30, 3_000))
            for end, job in [pair for pair in active if pair[0] <= now]:
                pool.release(job)
                active.remove((end, job))
                queue.append(job)
            selections = 1 + int(rng.integers(0, 4))
            for _ in range(selections):
                pending = queue[:window]
                if not pending:
                    break
                t0 = time.perf_counter()
                state, _, fits = decide(pending, pool, now)
                wall += time.perf_counter() - t0
                decisions += 1
                started = np.flatnonzero(fits)
                if started.size:
                    job = pending[int(started[0])]
                    pool.allocate(job, now)
                    active.append((now + job.runtime, job))
                    queue.remove(job)
                if decisions >= n_decisions:
                    break
        return wall, np.array(state, dtype=float, copy=True)

    reference = StateEncoder(system, window_size=window)
    wall_ref, state_ref = replay(fresh_decide(reference))
    meta = {
        "nodes": nodes,
        "bb_units": bb_units,
        "window": window,
        "state_dim": reference.state_dim,
    }
    if IncrementalStateEncoder is None:
        meta["encoder"] = "fresh"
        wall = wall_ref
    else:
        incremental = IncrementalStateEncoder(StateEncoder(system, window_size=window))
        wall, state_inc = replay(incremental_decide(incremental))
        meta.update(
            encoder="incremental",
            reference_wall_s=wall_ref,
            speedup_vs_fresh=wall_ref / wall if wall > 0 else float("inf"),
            bit_identical=bool(np.array_equal(state_ref, state_inc)),
        )
    return BenchResult(
        name="mrsch_theta_decision",
        wall_s=wall,
        n_units=n_decisions,
        meta=meta,
    )


def bench_batched_episodes(
    n_episodes: int = 32,
    n_jobs: int = 150,
    nodes: int = 4392,
    bb_units: int = 1290,
    mean_interarrival: float = 800.0,
    seed: int = 17,
    agent_seed: int = 5,
    repeats: int = 5,
) -> BenchResult:
    """N lockstep MRSch inference episodes vs N sequential replays.

    The aggregate-throughput claim of the batched substrate: the same N
    episodes (same seeds, same trained-from-init agent weights) are
    replayed once sequentially — one ``forward_scores`` call per
    decision — and once through :class:`~repro.sim.batched
    .BatchedSimulator`, which stacks every episode awaiting a decision
    into ONE ``action_scores_batch`` call per macro-step. ``wall_s`` is
    the batched wall; ``meta`` carries the sequential wall, the
    speedup, the batching statistics actually achieved (calls/rows) and
    an end-to-end decision-identity check between the two paths.

    The default geometry is the paper's real machine (4,392 nodes +
    1,290 burst-buffer units → an ~11k-element §III-A state), in a
    drained-queue regime where nearly every job start is a window
    decision rather than a backfill move: that is exactly where
    per-decision network cost dominates the replay and stacking rows
    into one GEMM pays. At mini-Theta widths the network is a minor
    term and batching is roughly wall-neutral — the bench documents the
    regime honestly instead of hiding it.
    """
    from repro.core.mrsch import MRSchScheduler
    from repro.sim.batched import BatchedSimulator
    from repro.sim.simulator import Simulator

    system, _ = _saturated_trace(8, nodes, bb_units, seed, mean_interarrival)
    jobsets = [
        _saturated_trace(n_jobs, nodes, bb_units, seed + i, mean_interarrival)[1]
        for i in range(n_episodes)
    ]

    # Inference replays consume no RNG, so every repeat reproduces the
    # same decisions; repeats are interleaved and the minimum wall kept
    # per path to suppress scheduler-noise / BLAS-thread interference.
    wall_seq = wall = float("inf")
    seq_results = bat_results = None
    batched = None
    for _ in range(max(1, repeats)):
        seq_sched = MRSchScheduler(system, window_size=10, seed=agent_seed)
        sim = Simulator(system, seq_sched, record_timeline=False)
        t0 = time.perf_counter()
        results = [sim.run(jobs) for jobs in jobsets]
        wall_seq = min(wall_seq, time.perf_counter() - t0)
        seq_results = seq_results or results

        bat_sched = MRSchScheduler(system, window_size=10, seed=agent_seed)
        trial = BatchedSimulator.for_scheduler(
            system, bat_sched, n_episodes, record_timeline=False
        )
        t0 = time.perf_counter()
        results = trial.run(jobsets)
        elapsed = time.perf_counter() - t0
        if elapsed < wall:
            wall, batched = elapsed, trial
        bat_results = bat_results or results

    identical = all(
        [(j.job_id, j.start_time) for j in a.jobs]
        == [(j.job_id, j.start_time) for j in b.jobs]
        for a, b in zip(seq_results, bat_results)
    )
    return BenchResult(
        name="batched_episodes",
        wall_s=wall,
        n_units=n_episodes * n_jobs,
        meta={
            "n_episodes": n_episodes,
            "n_jobs": n_jobs,
            "nodes": nodes,
            "bb_units": bb_units,
            "mean_interarrival": mean_interarrival,
            "repeats": max(1, repeats),
            "state_dim": bat_sched.encoder.state_dim,
            "sequential_wall_s": wall_seq,
            "speedup_vs_sequential": wall_seq / wall if wall > 0 else float("inf"),
            "decision_identical": bool(identical),
            "batch_calls": batched.batch_calls,
            "scored_rows": batched.scored_rows,
        },
    )


def bench_dispatch_overhead(
    n_jobs: int = 120,
    nodes: int = 64,
    bb_units: int = 32,
    n_seeds: int = 2,
    window_size: int = 5,
    seed: int = 3,
    repeats: int = 3,
) -> BenchResult:
    """Per-cell coordination cost of queue dispatch (``repro.dist``).

    The coordination term is *additive*: claim, task-spec read, fsynced
    journal publish, done marker and lease release happen strictly
    before/after a cell executes. Differencing two noisy end-to-end
    walls cannot resolve a ~5 ms/cell term under ±30% cell-execution
    noise, so the bench times the term directly: the full queue path —
    enqueue, inline worker drain, shard merge — with cell results served
    from a pre-computed table through the worker's ``execute`` hook.
    ``wall_s`` is that coordination-only wall (min over interleaved
    repeats); ``meta`` carries the serial execution floor measured on
    the identical grid, ``overhead_fraction`` (coordination wall over
    serial wall — the <10% guard), and a bit-identity check from one
    *real* end-to-end queue run against the serial results. Worker
    process spawn is deliberately out of scope: a fixed per-worker cost,
    not part of the per-cell scaling this bench guards.
    """
    import tempfile

    from repro.dist import QueueWorker, WorkQueue, ensure_enqueued
    from repro.exp.runner import grid_tasks
    from repro.exp.tasks import execute_task
    from repro.experiments.harness import ExperimentConfig

    config = ExperimentConfig(
        nodes=nodes, bb_units=bb_units, n_jobs=n_jobs,
        window_size=window_size, seed=seed,
    )
    tasks = grid_tasks(["heuristic", "scalar_rl"], ["S1"], config, n_seeds=n_seeds)
    execute_task(tasks[0])  # warm imports/caches

    def queue_drain(execute) -> tuple[float, dict]:
        with tempfile.TemporaryDirectory(prefix="bench-dispatch-") as tmp:
            t0 = time.perf_counter()
            queue = WorkQueue(tmp, lease_ttl=30.0)
            queue.write_meta(trace_dir=None)
            ensure_enqueued(queue, tasks)
            QueueWorker(queue, worker_id="bench-inline", execute=execute).run()
            merged = queue.merged_results()
            return time.perf_counter() - t0, merged

    serial_wall = wall = float("inf")
    serial: dict | None = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        results = {task.key(): execute_task(task) for task in tasks}
        serial_wall = min(serial_wall, time.perf_counter() - t0)
        serial = serial or results
        coord_wall, _ = queue_drain(lambda task, *args: serial[task.key()])
        wall = min(wall, coord_wall)

    _, merged = queue_drain(execute_task)  # real end-to-end run
    identical = all(
        merged[key].metrics[w].full_dict() == result.metrics[w].full_dict()
        for key, result in serial.items()
        for w in result.metrics
    )
    meta = {
        "nodes": nodes,
        "bb_units": bb_units,
        "n_jobs": n_jobs,
        "n_cells": len(tasks),
        "repeats": max(1, repeats),
        "serial_wall_s": serial_wall,
        "dispatch": "queue-inline",
        "enqueue": "ensure_enqueued",
        "overhead_fraction": wall / serial_wall if serial_wall > 0 else float("inf"),
        "bit_identical": bool(identical),
    }
    return BenchResult(
        name="dispatch_overhead",
        wall_s=wall,
        n_units=len(tasks),
        meta=meta,
    )


def bench_telemetry_overhead(
    n_jobs: int = 2_000,
    nodes: int = 128,
    bb_units: int = 64,
    mean_interarrival: float = 110.0,
    seed: int = 19,
    agent_seed: int = 5,
    repeats: int = 3,
) -> BenchResult:
    """Wall cost of an enabled telemetry session on the decision path.

    Replays the same MRSch inference episode twice per repeat —
    telemetry disabled, then enabled with the sampled decision-latency
    probe armed and all sinks writing to a real (temporary) directory —
    interleaved, minimum wall kept per path. ``wall_s`` is the
    *enabled* wall so the regression guard tracks the instrumented
    path; ``meta`` carries the disabled wall, the overhead fraction
    (the <2% claim), the sampled-decision count, and a decision
    bit-identity check between the two replays (telemetry consumes no
    RNG and touches no simulation state, so the job start streams must
    be byte-equal).

    The *disabled* cost — the ``None`` attribute check the hot loops
    pay on every selection — is covered by every other benchmark in
    this suite: they all run with telemetry off under the same
    normalized regression guard.
    """
    import tempfile

    import repro.obs as obs
    from repro.core.mrsch import MRSchScheduler
    from repro.sim.simulator import Simulator

    if obs.enabled():
        raise RuntimeError(
            "bench_telemetry_overhead needs telemetry disabled at entry "
            "(it measures enable/disable itself)"
        )
    system, jobs = _saturated_trace(n_jobs, nodes, bb_units, seed, mean_interarrival)

    def replay() -> tuple[float, list]:
        sched = MRSchScheduler(system, window_size=10, seed=agent_seed)
        sim = Simulator(system, sched, record_timeline=False)
        t0 = time.perf_counter()
        result = sim.run(jobs)
        wall = time.perf_counter() - t0
        return wall, [(j.job_id, j.start_time) for j in result.jobs]

    replay()  # warm imports/caches outside both timed paths
    wall_off = wall_on = float("inf")
    starts_off = starts_on = None
    decisions = sampled = 0
    with tempfile.TemporaryDirectory(prefix="bench-telemetry-") as tmp:
        for _ in range(max(1, repeats)):
            wall, starts = replay()
            wall_off = min(wall_off, wall)
            starts_off = starts_off or starts

            session = obs.enable(tmp, sample_decisions=True)
            try:
                wall, starts = replay()
                decisions = session.decision_probe.decisions
                sampled = session.metrics.counter("sched.decisions_sampled").value
            finally:
                obs.disable()
            wall_on = min(wall_on, wall)
            starts_on = starts_on or starts

    return BenchResult(
        name="telemetry_overhead",
        wall_s=wall_on,
        n_units=n_jobs,
        meta={
            "nodes": nodes,
            "bb_units": bb_units,
            "mean_interarrival": mean_interarrival,
            "repeats": max(1, repeats),
            "disabled_wall_s": wall_off,
            "overhead_fraction": (wall_on / wall_off - 1.0)
            if wall_off > 0
            else float("inf"),
            "decisions": decisions,
            "decisions_sampled": sampled,
            "bit_identical": bool(starts_off == starts_on),
        },
    )


#: the suite's benchmarks, in run order: name → (callable, one-line
#: description). ``repro bench --list`` and ``--only`` are driven from
#: this registry, so adding a benchmark here is all a future perf PR
#: needs to do.
BENCHES: dict[str, tuple] = {
    "fcfs_replay": (
        bench_fcfs_replay,
        "end-to-end saturated FCFS+EASY replay (scheduler-loop scaling)",
    ),
    "mrsch_episode": (
        bench_mrsch_episode,
        "one MRSch training episode: rollout + replay training epoch",
    ),
    "pool_accounting": (
        bench_pool_accounting,
        "pool allocate/release churn + EASY order-statistic queries",
    ),
    "dfp_scoring": (
        bench_dfp_scoring,
        "per-decision folded DFP inference (plus a float32 variant)",
    ),
    "mrsch_theta_decision": (
        bench_mrsch_theta_decision,
        "incremental vs fresh per-decision state encoding at Theta geometry",
    ),
    "batched_episodes": (
        bench_batched_episodes,
        "N lockstep MRSch episodes, one batched network call per macro-step",
    ),
    "dispatch_overhead": (
        bench_dispatch_overhead,
        "queue-dispatch coordination cost vs bare serial execution",
    ),
    "telemetry_overhead": (
        bench_telemetry_overhead,
        "enabled-telemetry wall cost on the MRSch decision hot path",
    ),
}

#: benchmark sizings: "full" demonstrates the paper-scale claims,
#: "smoke" finishes in seconds for the CI fast lane
SCALES: dict[str, dict] = {
    "full": {
        "fcfs_replay": {"n_jobs": 20_000, "mean_interarrival": 55.0},
        "mrsch_episode": {"n_jobs": 2_500, "mean_interarrival": 110.0},
        "pool_accounting": {"n_rounds": 2_000},
        "dfp_scoring": {"n_calls": 2_000},
        "mrsch_theta_decision": {"n_decisions": 2_000, "nodes": 4392, "bb_units": 1290},
        "batched_episodes": {"n_episodes": 32, "n_jobs": 150},
        "dispatch_overhead": {"n_jobs": 400, "n_seeds": 3},
        "telemetry_overhead": {"n_jobs": 1_200, "repeats": 3},
    },
    "smoke": {
        "fcfs_replay": {"n_jobs": 1_500, "mean_interarrival": 70.0},
        "mrsch_episode": {"n_jobs": 250, "mean_interarrival": 150.0},
        "pool_accounting": {"n_rounds": 300},
        "dfp_scoring": {"n_calls": 300},
        "mrsch_theta_decision": {"n_decisions": 300, "nodes": 256, "bb_units": 128},
        "batched_episodes": {
            "n_episodes": 4,
            "n_jobs": 60,
            "nodes": 256,
            "bb_units": 128,
            "repeats": 1,
        },
        "dispatch_overhead": {"n_jobs": 400, "n_seeds": 2},
        "telemetry_overhead": {"n_jobs": 200, "repeats": 2},
    },
}


def list_benches() -> list[dict]:
    """Name, description and per-scale sizing of every benchmark."""
    return [
        {
            "name": name,
            "description": description,
            "sizes": {scale: dict(SCALES[scale].get(name, {})) for scale in SCALES},
        }
        for name, (_, description) in BENCHES.items()
    ]


def run_suite(
    scale: str = "full",
    float32: bool = True,
    only: list[str] | None = None,
) -> dict[str, BenchResult]:
    """Run the hot-path benchmarks at ``scale``; keyed by name.

    ``only`` restricts the run to a subset of :data:`BENCHES` (the
    float32 scoring variant rides with ``dfp_scoring``).
    """
    if scale not in SCALES:
        raise ValueError(f"unknown bench scale {scale!r}; choose from {sorted(SCALES)}")
    names = list(BENCHES) if only is None else list(only)
    unknown = sorted(set(names) - set(BENCHES))
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {unknown}; choose from {sorted(BENCHES)}"
        )
    sizes = SCALES[scale]
    results: list[BenchResult] = []
    for name in names:
        func = BENCHES[name][0]
        results.append(func(**sizes.get(name, {})))
        if name == "dfp_scoring" and float32:
            results.append(bench_dfp_scoring(**sizes.get(name, {}), dtype="float32"))
    return {r.name: r for r in results}
