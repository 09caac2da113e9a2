"""End-to-end benchmark of the ``repro`` package, through its public entry points.

One run of one workload (the form BENCHMARK.json's ``command`` takes)::

    python3 benchmarks/e2e/run.py --workload replay_fcfs --seed 7 --seconds 6 --trace 0

prints every metric by name with its unit and, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` times the shipped program and reports the end-to-end
metrics; ``--trace 1`` wraps the layer boundaries (trace.py) and reports
the per-layer ones. Without ``--workload`` the same runs are made for
every workload, each in its own child process, and collected into one
result file; ``--compare A.json B.json`` judges two such files against
the bounds in BENCHMARK.json. README.md describes workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# Pinned before NumPy is first imported (and inherited by every child):
# the boxes this runs on have two cores, and with BLAS threads a
# training workload measures the host scheduler, not the program.
THREAD_ENV = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
)

import check  # noqa: E402
import trace as layer_trace  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: fresh set-up children per run, and how long to keep starting more
#: (cheap set-ups get more samples); ``setup_s`` is their median
SETUP_PROBES = 3
SETUP_SECONDS = 3.0
#: share of ``--seconds`` a traced run spends on its untraced reference
TRACE_REFERENCE_SHARE = 0.4


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- timing ---------------------------------------------------------------------

#: Timed runs a reported median rests on at least (ISSUE 11's K), however
#: short ``--seconds`` is; ``--repeats`` overrides it.
MIN_RUNS = 5


#: What one yardstick reading took, in seconds, on the box the workloads
#: were sized on at its usual speed. Reported times are seconds of a
#: machine on which it reads exactly this.
YARDSTICK_REFERENCE_S = 0.030
#: After each timed call the yardstick is read for this share of the
#: call's duration (at least once).
YARDSTICK_SHARE = 0.1


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed(fn):
    """``(fn(), {"wall_s", "cpu_s"})``, in raw seconds."""
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    result = fn()
    return result, {"wall_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - cpu0}


class Yardstick:
    """Fixed work, read on either side of every timed call.

    The boxes this runs on are small shared VMs whose speed shifts by
    tens of percent for minutes at a time: two ten-seed sets of the same
    commit, twenty minutes apart, had raw ``wall_s`` medians 44% apart on
    ``cold_cli`` and 24% on ``train_mini`` (README, "Steadiness"), which
    no bound the contract allows survives and no repeating inside one run
    averages away. So every end-to-end time is divided by how long this
    kernel took beside it. A reading is a third each of dictionary-and-loop
    bytecode, 64x64 matrix products that stay in cache, and matrix-vector
    products that stream 24 MB — what the six workloads are bound by
    between them; one alone tracked some workloads and not others. The
    kernel uses nothing from ``repro``, so no change to the program moves
    it. Wall time is scaled by the kernel's wall time and CPU time by its
    CPU time, so time stolen from the VM does not leak into ``cpu_s``.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._square = rng.random((64, 64))
        self._wide = rng.random((1500, 2000))
        self._vector = rng.random(2000)
        self._tanh = np.tanh
        self.read()  # first touch of the temporaries
        self._before = self.read_for(0.1)

    def read(self) -> dict:
        """One reading: the kernel's ``{"wall_s", "cpu_s"}``."""
        cpu0, t0 = time.process_time(), time.perf_counter()
        counts: dict[int, float] = {}
        for i in range(60_000):
            counts[i & 1023] = counts.get(i & 1023, 0.0) + i
        a = self._square
        for _ in range(500):
            a = self._tanh(a @ self._square * 0.01) + 0.1
        for _ in range(10):
            self._wide @ self._vector
        return {"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - cpu0}

    def read_for(self, seconds: float) -> list[dict]:
        deadline = time.perf_counter() + seconds
        readings = [self.read()]
        while time.perf_counter() < deadline:
            readings.append(self.read())
        return readings

    def timed(self, fn):
        """:func:`timed`, with each clock's mean reading over the readings
        taken just before and just after the call as ``yardstick_*``."""
        result, sample = timed(fn)
        after = self.read_for(YARDSTICK_SHARE * sample["wall_s"])
        for clock in ("wall_s", "cpu_s"):
            sample[f"yardstick_{clock}"] = statistics.fmean(
                reading[clock] for reading in self._before + after
            )
        self._before = after
        return result, sample


def at_reference_speed(sample: dict, clock: str) -> float:
    """A sample's ``wall_s`` or ``cpu_s`` as the reference machine would
    have measured it: scaled by that clock's yardstick readings."""
    return sample[clock] * YARDSTICK_REFERENCE_S / sample[f"yardstick_{clock}"]


def timed_runs(run_once, time_call, tally: check.Tally, seconds: float,
               repeats: int | None, at_least: int = MIN_RUNS) -> list[dict]:
    """Closed loop, one client: the next run starts when the last returns.

    Runs exactly ``repeats`` times, or else until ``seconds`` have passed
    and ``at_least`` runs are in, and checks every run's cells.
    ``time_call`` is :func:`timed` or a yardstick's.
    """
    samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < (repeats or at_least) or (
        not repeats and time.perf_counter() < deadline
    ):
        results, sample = time_call(run_once)
        samples.append(sample)
        tally.record(results)
    return samples


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def fresh_dir(parent: Path, stem: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=parent))


# -- one iteration of a workload -------------------------------------------------


def run_inline(scenario: dict, tmp: Path):
    import repro.api as api

    return api.run_scenario(scenario, progress=False).results


def run_queue(scenario: dict, tmp: Path):
    import repro.api as api

    queue_dir = fresh_dir(tmp, "queue")
    try:
        return api.run_scenario(
            scenario, queue_dir=queue_dir, n_workers=2, progress=False
        ).results
    finally:
        shutil.rmtree(queue_dir, ignore_errors=True)


def run_cli(scenario: dict, tmp: Path):
    """A fresh ``python -m repro run`` — what every invocation costs a user."""
    import repro.api as api
    from repro.exp.records import TaskResult
    from repro.sim.metrics import MetricReport

    path = tmp / "cold_cli.json"
    path.write_text(json.dumps(scenario))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(path), "--json", "--no-progress"],
        capture_output=True, text=True, check=True,
    )
    doc = json.loads(done.stdout)
    return [
        TaskResult(
            key=task.key(),
            method=task.method,
            seed=task.seed,
            workloads=task.workloads,
            metrics={
                w: MetricReport.from_dict(doc["reports"][w][task.method])
                for w in task.workloads
            },
            wall_time=doc["wall_times"][task.key()],
            source=doc["sources"][task.key()],
        )
        for task in api.load_scenario(scenario).compile()
    ]


RUNNERS = {"inline": run_inline, "queue": run_queue, "cli": run_cli}


def run_queue_traced(tracer: layer_trace.Tracer, scenario: dict, tmp: Path):
    """The queue run with every phase in this process.

    The timed runs use ``run_scenario(queue_dir=...)`` and real worker
    processes, whose calls no wrapper in this process can see; here one
    in-process ``QueueWorker`` drains the same sealed manifest so the
    ``Store`` wrappers record the coordination work.
    """
    import repro.api as api
    from repro.dist import QueueWorker, WorkQueue, ensure_enqueued

    queue_dir = fresh_dir(tmp, "queue")
    try:
        tasks = api.load_scenario(scenario).compile()
        queue = WorkQueue(queue_dir)
        context = {"trace_dir": None, "trace_compact": False, "batch_episodes": 1}

        def enqueue():
            queue.write_meta(**context)
            ensure_enqueued(queue, tasks, context=context)

        tracer.wrap("dist.enqueue", enqueue, coarse=True)()
        worker = QueueWorker(queue, worker_id="bench", spool_dir=tmp / "spool")
        tracer.wrap("dist.drain", worker.run, coarse=True)()
        merged = tracer.wrap("dist.merge", queue.merged_results, coarse=True)()
        return [merged[task.key()] for task in tasks]
    finally:
        shutil.rmtree(queue_dir, ignore_errors=True)


def warm_up(workload: Workload, scenario: dict, tmp: Path, tally: check.Tally) -> None:
    """One untimed run, so lazy imports and first-touch allocation are
    paid before the clock starts — except for ``cold_cli``, whose users
    pay them on every invocation. Training is left out of it: its cost
    is 128 optimiser batches per episode, none of them lazy, and a full
    warm-up would double the run time of the two training workloads."""
    if workload.kind != "cli":
        tally.record(RUNNERS[workload.kind]({**scenario, "train": False}, tmp))


def run_probe(workload: Workload, seed: int, traced: bool = False) -> dict:
    """One fresh set-up child (probe.py): the stages it printed."""
    argv = [sys.executable, str(HERE / "probe.py"), workload.name, str(seed)]
    if traced:
        argv.append("--traced")
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# -- one run of one workload -----------------------------------------------------


def measure_end_to_end(workload: Workload, seed: int, seconds: float,
                       repeats: int | None, tmp: Path, tally: check.Tally) -> dict:
    scenario = workload.scenario_for(seed)

    def run_once():
        return RUNNERS[workload.kind](scenario, tmp)

    warm_up(workload, scenario, tmp, tally)
    yardstick = Yardstick()
    runs = timed_runs(run_once, yardstick.timed, tally, seconds, repeats)
    # Peak memory is read before the set-up children run, so that for the
    # workloads whose work happens in children it is theirs alone.
    peak = peak_rss_mb(include_children=workload.kind != "inline")
    setup: list[dict] = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup) < SETUP_PROBES or time.perf_counter() < deadline:
        setup.append(yardstick.timed(lambda: run_probe(workload, seed))[1])
    walls = [at_reference_speed(s, "wall_s") for s in runs]
    samples = {
        "wall_s": walls,
        "cpu_s": [at_reference_speed(s, "cpu_s") for s in runs],
        "units_per_s": [workload.units / wall for wall in walls],
        "setup_s": [at_reference_speed(s, "wall_s") for s in setup],
    }
    return {
        "metrics": {
            **{name: statistics.median(values) for name, values in samples.items()},
            "peak_rss_mb": peak,
        },
        # at reference speed; `raw` has the seconds as measured, each with
        # the yardstick readings it was scaled by
        "samples": {**samples, "raw": {"runs": runs, "setup": setup}},
    }


def measure_layers(workload: Workload, seed: int, seconds: float,
                   repeats: int | None, tmp: Path, out: Path,
                   tally: check.Tally, names: list[str]) -> dict:
    metrics = dict.fromkeys(names, 0.0)
    scenario = workload.scenario_for(seed)

    def run_once():
        return RUNNERS[workload.kind](scenario, tmp)

    warm_up(workload, scenario, tmp, tally)
    reference = timed_runs(  # layer times are raw seconds, and so is this
        run_once, timed, tally, seconds * TRACE_REFERENCE_SHARE, repeats, at_least=1
    )
    untraced_wall = statistics.median(s["wall_s"] for s in reference)
    deadline = time.perf_counter() + seconds * (1 - TRACE_REFERENCE_SHARE)

    def more_runs(done: int) -> bool:
        return not done or (not repeats and time.perf_counter() < deadline)

    trace_path = out / f"trace-{workload.name}.json"
    runs = 0
    if workload.kind == "cli":
        children = []
        while more_runs(len(children)):
            children.append(run_probe(workload, seed, traced=True))
        runs = len(children)
        for child in children:
            tally.add(child["attempted"], child["failed"], child["reasons"])
        for name in children[0]["layers"]:
            metrics[name] = statistics.fmean(c["layers"][name] for c in children)
        traced_wall = statistics.fmean(c["traced_wall_s"] for c in children)
        with open(trace_path, "w") as handle:
            json.dump({"workload": workload.name, "seed": seed, "runs": runs,
                       "spans": [c["spans"] for c in children]}, handle, indent=1)
    else:
        problems: list[str] = []
        with layer_trace.tracing(
            lambda jobs, result: problems.extend(check.simulation_problems(jobs, result))
        ) as tracer:
            if workload.kind == "queue":
                def traced_once():
                    return run_queue_traced(tracer, scenario, tmp)
            else:
                traced_once = run_once
            while more_runs(runs):
                runs += 1
                tracer.run_id = runs
                tally.record(tracer.wrap("run", traced_once, coarse=True)(), problems)
                del problems[:]
        metrics.update(layer_trace.layer_metrics(tracer, runs))
        traced_wall = tracer.total_s("run") / runs
        tracer.dump(trace_path, workload=workload.name, seed=seed, runs=runs)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall

    probes = [run_probe(workload, seed) for _ in range(SETUP_PROBES)]
    metrics["api.import_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["api.load_compile_s"] = statistics.median(p["load_compile_s"] for p in probes)
    if workload.kind == "queue":
        metrics.update(engine_comparison(scenario, workload.cells, tmp, untraced_wall))
    if workload.kind == "inline" and not workload.scenario["train"]:
        metrics["obs.enabled_wall_ratio"] = telemetry_wall(run_once, tmp) / untraced_wall
    unknown = set(metrics) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {"metrics": metrics, "samples": {"untraced_runs": reference}}


def engine_comparison(scenario: dict, cells: int, tmp: Path, queue_wall: float) -> dict:
    """The same grid through the other two execution paths and the two
    persistence layers of ``ExperimentRunner`` — what the queue's
    coordination and the journal's fsyncs cost relative to them."""
    import repro.api as api

    def wall(**kwargs) -> float:
        t0 = time.perf_counter()
        api.run_scenario(scenario, progress=False, **kwargs)
        return time.perf_counter() - t0

    inline = wall()
    pool = wall(n_workers=2)
    persist_dir = fresh_dir(tmp, "persist")
    cache, journal = persist_dir / "cache", persist_dir / "journal.jsonl"
    try:
        persisted = wall(cache_dir=cache, checkpoint_path=journal)
        recalled = wall(cache_dir=cache)
    finally:
        shutil.rmtree(persist_dir, ignore_errors=True)
    return {
        "exp.inline_wall_s": inline,
        "exp.pool_wall_s": pool,
        "exp.persist_write_ratio": persisted / inline,
        "exp.cache_recall_ms_per_cell": 1e3 * recalled / cells,
        "dist.overhead_ratio": queue_wall / inline,
    }


def telemetry_wall(run_once, tmp: Path) -> float:
    """Wall of one run under ``repro.obs`` (the "< 2% when on" contract)."""
    import repro.obs as obs

    telemetry_dir = fresh_dir(tmp, "telemetry")
    obs.enable(telemetry_dir)
    try:
        t0 = time.perf_counter()
        run_once()
        return time.perf_counter() - t0
    finally:
        obs.disable()
        shutil.rmtree(telemetry_dir, ignore_errors=True)


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 repeats: int | None, out: Path) -> int:
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out.mkdir(parents=True, exist_ok=True)
    tmp = fresh_dir(out, "tmp")
    # Anything the program or a child spools to "the temp dir" stays in
    # the checkout too, and goes with the rest of `tmp`.
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    tally = check.Tally(workload.n_jobs, workload.cells)
    try:
        if traced:
            measured = measure_layers(workload, seed, seconds, repeats, tmp, out, tally,
                                      [m["name"] for m in spec["per_layer"]])
        else:
            measured = measure_end_to_end(workload, seed, seconds, repeats, tmp, tally)
    except Exception as error:
        # A run that raises fails the cells it was asked for; the result
        # line still goes out, with no metrics and `correct: false`.
        traceback.print_exc()
        tally.crashed(error)
        measured = {"metrics": {}, "samples": {}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in measured["metrics"].items()
    }
    for name, metric in metrics.items():
        print(f"{workload.name}  {name:<28} {metric['value']:.6g} {metric['unit']}")
    for reason in tally.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(out / f"run-{workload.name}-trace{int(traced)}.json", "w") as handle:
        json.dump({**summary, "workload": workload.name, "seed": seed,
                   "result_digest": tally.digest, "samples": measured["samples"],
                   "reasons": tally.reasons}, handle, indent=1)
    print(json.dumps(summary))
    return 0 if tally.failed == 0 else 1


# -- every workload, one result file ---------------------------------------------


def commit_id() -> str:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(names, seed: int, seconds: float, repeats: int | None, out: Path) -> int:
    import numpy as np

    out.mkdir(parents=True, exist_ok=True)
    # Throw-away child: the first import pays a cold page cache, which
    # would otherwise land in the first workload's numbers.
    subprocess.run([sys.executable, "-c", "import repro.api, scipy.stats"], check=True)
    doc = {
        "commit": commit_id(), "seed": seed, "seconds": seconds, "repeats": repeats,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "thread_env": THREAD_ENV,
        # informational: what the yardstick read when this file was made
        "machine": {"calibration_s": statistics.median(
            r["wall_s"] for r in Yardstick().read_for(0.5)),
            "yardstick_reference_s": YARDSTICK_REFERENCE_S},
        "workloads": {},
    }
    status = 0
    for name in names:
        entry = doc["workloads"][name] = {}
        for traced in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(traced), "--out", str(out)]
            done = subprocess.run(
                argv + (["--repeats", str(repeats)] if repeats else []),
                stdout=subprocess.PIPE, text=True,
            )
            print("\n".join(done.stdout.splitlines()[:-1]))
            status |= done.returncode
            with open(out / f"run-{name}-trace{traced}.json") as handle:
                entry["per_layer" if traced else "end_to_end"] = json.load(handle)
    path = out / f"e2e-{time.strftime('%Y%m%d-%H%M%S')}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
    print(f"result written to {path}")
    return status


# -- comparing two result files --------------------------------------------------

def quartile_range(run: dict, metric: str) -> tuple[float, float]:
    """First and third quartile of a metric's samples within one run (the
    value itself where a run takes a single reading)."""
    samples = run["samples"].get(metric, [])
    if len(samples) < 2:
        value = run["metrics"][metric]["value"]
        return value, value
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def compare(path_a: str, path_b: str) -> int:
    """B against base A: ``REGRESSED`` when B's median is worse than A's
    by more than the metric's bound and their quartile ranges are apart,
    ``unresolved`` when the gap exceeds the bound but the ranges overlap."""
    with open(path_a) as a, open(path_b) as b:
        doc_a, doc_b = json.load(a), json.load(b)
    bounds = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    regressed = False
    print(f"base A = {path_a} ({doc_a['commit'][:10]}), "
          f"B = {path_b} ({doc_b['commit'][:10]})")
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        run_a = doc_a["workloads"][name]["end_to_end"]
        run_b = doc_b["workloads"][name]["end_to_end"]
        for metric, spec in bounds.items():
            value_a = run_a["metrics"][metric]["value"]
            value_b = run_b["metrics"][metric]["value"]
            ratio = value_b / value_a
            worse = 1 / ratio - 1 if spec["better"] == "higher" else ratio - 1
            verdict = "ok"
            if worse > spec["bound"]:
                low_a, high_a = quartile_range(run_a, metric)
                low_b, high_b = quartile_range(run_b, metric)
                apart = low_b > high_a or high_b < low_a
                verdict = "REGRESSED" if apart else "unresolved"
                regressed |= apart
            print(f"{name:<13} {metric:<12} A={value_a:<10.4g} B={value_b:<10.4g} "
                  f"B/A={ratio:.3f} (base A; {spec['better']} is better, "
                  f"bound {spec['bound']:.0%})  {verdict}")
        fail_a = run_a["failed"] / run_a["attempted"]
        fail_b = run_b["failed"] / run_b["attempted"]
        if fail_b > fail_a:
            print(f"{name:<13} fail_ratio   A={fail_a:.4g} B={fail_b:.4g}  REGRESSED")
            regressed = True
        if doc_a["seed"] == doc_b["seed"] and run_a["result_digest"] != run_b["result_digest"]:
            print(f"{name:<13} result_digest differs: A={run_a['result_digest'][:12]} "
                  f"B={run_b['result_digest'][:12]}")
    return int(regressed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"],
                        help="how long the timed runs of one workload go on")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=None, metavar="K",
                        help="exactly K timed runs (and one traced), whatever --seconds")
    parser.add_argument("--only", default=None, metavar="NAMES",
                        help="comma-separated workloads (default: all)")
    parser.add_argument("--out", type=Path, default=HERE / "results", metavar="DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        parser.error(f"nothing to measure: {SRC / 'repro'} is not in this checkout")
    if args.workload:
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), args.repeats, args.out)
    names = args.only.split(",") if args.only else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    return run_suite(names, args.seed, args.seconds, args.repeats, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
