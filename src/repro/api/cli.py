"""``repro`` — the command-line front door to the scenario API.

Seven subcommands, each a thin shell over :mod:`repro.api`:

``repro list``
    Show every registered scheduler, workload and system with its
    capability metadata.
``repro run scenario.json``
    Load, validate and execute a scenario file on the experiment
    engine; print per-workload metric tables (or ``--json``).
``repro compare --methods mrsch heuristic --workloads S1 S4``
    Run an inline comparison grid without writing a scenario file.
``repro work --queue DIR``
    Join a shared-directory work queue as an elastic worker: claim
    lease-able grid cells, execute them, publish durably, repeat until
    the queue drains (``--wait`` keeps polling for new cells, exiting
    with a distinct status once the run manifest completes). Start or
    kill any number of these, on any host sharing the directory, at any
    point mid-grid. ``--supervise N`` runs N workers under a supervisor
    that respawns crashed processes with exponential backoff and a
    crash-loop circuit breaker.
``repro queue-status --queue DIR``
    One snapshot of a work queue's progress: done/leased/expired cell
    counts, failures, workers seen, and — once workers have published
    metrics snapshots — cells/sec throughput with an ETA.
    ``--watch N`` refreshes the snapshot every N seconds until the
    queue drains.
``repro doctor QUEUE_DIR``
    Audit a queue directory after an incident: corrupt/unsealed
    manifests, orphan or expired leases and tokens, dead coordinators,
    stale worker registrations, leftover staging/temp files, quarantine
    and spool backlog. Dry-run by default; ``--repair`` applies the safe
    mechanical repairs. Exit 0 when the audit is clean.
``repro trace export --telemetry DIR``
    Convert a ``--telemetry`` run's span records into one Chrome-trace
    JSON file that chrome://tracing and https://ui.perfetto.dev load
    directly; ``repro trace summary`` prints span/event/metric counts.

Telemetry: ``repro run --telemetry[=DIR]`` and ``repro work
--telemetry[=DIR]`` enable the :mod:`repro.obs` instrumentation
(structured events, spans, metrics snapshots) rooted at DIR (default
``telemetry/``). Purely observational — decisions, metrics and cache
keys are bit-identical with telemetry on or off.

Exit codes: 0 on success, 1 on a validation/runtime error (with a
single-line message on stderr), 2 on bad command-line usage (argparse).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Sequence

from repro.api.knobs import FLAG_SECTIONS, check_knobs, knob_keys
from repro.api.registry import SCHEDULERS, SYSTEMS, WORKLOADS

__all__ = ["main", "build_parser"]


def _split_names(values: Sequence[str]) -> list[str]:
    """Flatten ``--methods a b`` and ``--methods a,b`` alike."""
    out: list[str] = []
    for value in values:
        out.extend(part for part in value.split(",") if part)
    return out


def _first_line(text: str) -> str:
    return text.splitlines()[0] if text else ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative scenario runner for the MRSch reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list", help="list registered schedulers, workloads and systems"
    )
    p_list.add_argument("--json", action="store_true", help="machine-readable output")

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario .json file")
    p_run.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes (results identical at any "
                            "width; default: the scenario's "
                            "execution.workers, else 1)")
    p_run.add_argument("--queue", default=None, metavar="DIR",
                       help="run on the shared work queue at DIR, not a "
                            "private temporary one: 'repro work' workers "
                            "may join, and a re-run resumes")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's root seed (replaces an "
                            "explicit seeds list)")
    p_run.add_argument("--replications", type=int, default=None, metavar="N",
                       help="override the scenario's replication count")
    train_group = p_run.add_mutually_exclusive_group()
    train_group.add_argument("--train", dest="train", action="store_true",
                             default=None, help="force curriculum training on")
    train_group.add_argument("--no-train", dest="train", action="store_false",
                             help="force curriculum training off")
    p_run.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="enable the on-disk result cache")
    p_run.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="enable resumable JSONL checkpointing")
    p_run.add_argument("--telemetry", nargs="?", const="telemetry", default=None,
                       metavar="DIR",
                       help="record structured telemetry (events, spans, "
                            "metrics) under DIR (default: ./telemetry); "
                            "export with 'repro trace export'. Decisions "
                            "and metrics are bit-identical either way")
    p_run.add_argument("--telemetry-decisions", action="store_true",
                       help="additionally sample scheduler decision "
                            "latencies (1-in-64) into the telemetry "
                            "metrics; requires --telemetry")
    p_run.add_argument("--no-progress", action="store_true",
                       help="suppress the live stderr progress line "
                            "(auto-suppressed off-TTY and with --json)")
    p_run.add_argument("--json", action="store_true", help="machine-readable output")

    p_cmp = sub.add_parser("compare", help="run an inline comparison grid")
    p_cmp.add_argument("--methods", nargs="+", default=None, metavar="NAME",
                       help="schedulers to compare (default: the paper's four)")
    p_cmp.add_argument("--workloads", nargs="+", required=True, metavar="NAME")
    p_cmp.add_argument("--seeds", nargs="+", type=int, default=None, metavar="SEED",
                       help="explicit seed axis (one grid row per seed)")
    p_cmp.add_argument("--seed", type=int, default=2022, help="root seed")
    p_cmp.add_argument("--replications", type=int, default=1, metavar="N")
    p_cmp.add_argument("--nodes", type=int, default=128)
    p_cmp.add_argument("--bb-units", type=int, default=64)
    p_cmp.add_argument("--n-jobs", type=int, default=150)
    p_cmp.add_argument("--window-size", type=int, default=10)
    p_cmp.add_argument("--train", action="store_true",
                       help="curriculum-train trainable methods (slower)")
    p_cmp.add_argument("--workers", type=int, default=1, metavar="N")
    p_cmp.add_argument("--json", action="store_true", help="machine-readable output")

    p_work = sub.add_parser(
        "work",
        help="join a shared work queue as an elastic worker",
        description="Claim, execute and durably publish grid cells from a "
                    "shared-directory work queue (written by "
                    "ExperimentRunner(queue_dir=...), 'repro run "
                    "--queue', or another worker's deterministic grid "
                    "expansion). Workers may be started or killed at any "
                    "time mid-grid: a crashed worker's cells re-issue after "
                    "its lease expires, and re-issued results are "
                    "bit-identical by construction.",
    )
    p_work.add_argument("--queue", required=True, metavar="DIR",
                        help="the work-queue directory")
    p_work.add_argument("--worker-id", default=None, metavar="ID",
                        help="journal-shard / lease owner id "
                             "(default: host-pid-random)")
    p_work.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                        help="lease expiry override in seconds "
                             "(default: 30)")
    p_work.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="idle scan interval")
    p_work.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit after executing N cells")
    p_work.add_argument("--wait", action="store_true",
                        help="keep polling after the queue drains instead "
                             "of exiting (long-lived elastic worker)")
    p_work.add_argument("--cell-timeout", type=float, default=None,
                        metavar="S",
                        help="per-cell execution deadline in seconds: a "
                             "hung cell is abandoned, recorded as a failed "
                             "attempt and its lease released (default: the "
                             "queue meta's execution.cell_timeout_s, if any)")
    p_work.add_argument("--supervise", type=int, default=None, metavar="N",
                        help="run N workers under a supervisor that "
                             "respawns crashed worker processes with "
                             "exponential backoff and opens a circuit "
                             "breaker on a crash loop (exit 2)")
    p_work.add_argument("--max-crashes", type=int, default=5, metavar="N",
                        help="consecutive crashes that open a supervised "
                             "slot's circuit breaker (with --supervise)")
    p_work.add_argument("--backoff", type=float, default=0.5, metavar="S",
                        help="base respawn backoff in seconds, doubled per "
                             "consecutive crash (with --supervise)")
    p_work.add_argument("--telemetry", nargs="?", const="telemetry", default=None,
                        metavar="DIR",
                        help="record structured telemetry under DIR; a "
                             "queue whose coordinator enabled telemetry "
                             "turns this on automatically via meta.json")
    p_work.add_argument("-v", "--verbose", action="count", default=0,
                        help="stderr log level: -v lifecycle events (INFO), "
                             "-vv everything (DEBUG); default WARNING "
                             "(reaps, straggles, failures)")
    p_work.add_argument("-q", "--quiet", action="store_true",
                        help="errors only on stderr")
    p_work.add_argument("--json", action="store_true",
                        help="machine-readable exit report")

    p_qstat = sub.add_parser(
        "queue-status",
        help="show a work queue's progress snapshot",
    )
    p_qstat.add_argument("--queue", required=True, metavar="DIR",
                         help="the work-queue directory")
    p_qstat.add_argument("--watch", type=float, default=None, metavar="S",
                         help="refresh the snapshot every S seconds until "
                              "the queue drains (throughput/ETA appear "
                              "once workers publish metrics snapshots)")
    p_qstat.add_argument("--json", action="store_true",
                         help="machine-readable output (one JSON document "
                              "per refresh with --watch)")

    p_doctor = sub.add_parser(
        "doctor",
        help="audit (and repair) a work-queue directory",
        description="Walk one queue directory and report every anomaly "
                    "the dispatch layer understands: corrupt or unsealed "
                    "run manifests, unpromoted/orphan batch files, dead "
                    "coordinators, orphan and expired leases and "
                    "tokens, stale worker registrations, leftover temp files, "
                    "quarantine contents and spool backlog. Dry-run by "
                    "default: nothing is touched without --repair. Exit "
                    "0 when nothing unrepaired at warning-or-worse "
                    "severity remains, else 1.",
    )
    p_doctor.add_argument("queue_dir", metavar="QUEUE_DIR",
                          help="the work-queue directory to audit")
    p_doctor.add_argument("--repair", action="store_true",
                          help="apply the safe mechanical repairs "
                               "(promote/release/reap/delete); default is "
                               "a dry run that only reports")
    p_doctor.add_argument("--stale-after", type=float, default=300.0,
                          metavar="S",
                          help="age in seconds after which a worker "
                               "registration with no exit record counts "
                               "as stale")
    p_doctor.add_argument("--json", action="store_true",
                          help="machine-readable report")

    p_trace = sub.add_parser(
        "trace",
        help="export or summarize a telemetry run",
        description="Work with the telemetry directory a '--telemetry' run "
                    "wrote. 'export' merges the span records (and, by "
                    "default, the structured events as instant markers) "
                    "into one Chrome-trace JSON file loadable in "
                    "chrome://tracing or https://ui.perfetto.dev; "
                    "'summary' prints span/event/metric roll-ups.",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    t_export = trace_sub.add_parser(
        "export", help="write a Chrome-trace/Perfetto JSON file"
    )
    t_export.add_argument("--telemetry", required=True, metavar="DIR",
                          help="telemetry directory of a --telemetry run")
    t_export.add_argument("--out", default=None, metavar="FILE",
                          help="output path (default: DIR/trace.json)")
    t_export.add_argument("--no-events", action="store_true",
                          help="omit structured events (instant markers)")
    t_summary = trace_sub.add_parser(
        "summary", help="print span/event/metric counts for a telemetry run"
    )
    t_summary.add_argument("--telemetry", required=True, metavar="DIR",
                           help="telemetry directory of a --telemetry run")
    t_summary.add_argument("--json", action="store_true",
                           help="machine-readable output")

    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.api.facade import describe_components

    snapshot = describe_components()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print("Schedulers:")
    for entry in SCHEDULERS.entries():
        flags = ", ".join(
            flag
            for flag, on in (
                ("trainable", entry.trainable),
                ("seeded", entry.seeded),
                ("paper", entry.paper),
            )
            if on
        )
        print(f"  {entry.name:<14} {_first_line(entry.description)}  [{flags}]")
    print("\nWorkloads:")
    for entry in WORKLOADS.entries():
        tag = "case-study" if entry.case_study else "table-III" if entry.paper else "plugin"
        print(f"  {entry.name:<14} {_first_line(entry.description)}  [{tag}]")
    print("\nSystems:")
    for entry in SYSTEMS.entries():
        print(f"  {entry.name:<14} {_first_line(entry.description)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.facade import run_scenario
    from repro.api.scenario import Scenario

    scenario = Scenario.from_file(args.scenario)
    overrides: dict = {}
    if args.seed is not None:
        # An explicit seeds axis would otherwise shadow the new root
        # seed in Scenario.compile — re-seeding replaces it.
        overrides["seed"] = args.seed
        overrides["seeds"] = None
    if args.replications is not None:
        overrides["replications"] = args.replications
        overrides["seeds"] = None
    if args.train is not None:
        overrides["train"] = args.train
    if overrides:
        scenario = scenario.replace(**overrides)

    if args.telemetry_decisions and args.telemetry is None:
        raise ValueError(
            "--telemetry-decisions samples into the telemetry metrics; "
            "enable them with --telemetry[=DIR]"
        )
    telemetry = None
    if args.telemetry is not None:
        import repro.obs as obs

        telemetry = obs.enable(
            args.telemetry, sample_decisions=args.telemetry_decisions
        )
    try:
        result = run_scenario(
            scenario,
            n_workers=args.workers,
            cache_dir=args.cache_dir,
            checkpoint_path=args.checkpoint,
            queue_dir=args.queue,
            # --json output must stay byte-clean even on a TTY.
            progress=False if (args.json or args.no_progress) else None,
        )
    finally:
        if telemetry is not None:
            import repro.obs as obs

            obs.disable()
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        n_cells = len(result.tasks)
        wall = sum(r.wall_time for r in result.results)
        print(
            f"scenario {scenario.name!r} ({scenario.config_hash()}): "
            f"{n_cells} cell(s), {wall:.1f} s task time\n"
        )
        print(result.summary())
        if telemetry is not None and telemetry.directory is not None:
            print(
                f"\ntelemetry written to {telemetry.directory} "
                f"(export: repro trace export --telemetry "
                f"{telemetry.directory})"
            )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.api.facade import compare, render_reports
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(
        nodes=args.nodes,
        bb_units=args.bb_units,
        n_jobs=args.n_jobs,
        window_size=args.window_size,
        seed=args.seed,
    )
    reports = compare(
        workloads=_split_names(args.workloads),
        methods=_split_names(args.methods) if args.methods else None,
        config=config,
        seeds=args.seeds,
        replications=args.replications,
        train=args.train,
        n_workers=args.workers,
    )
    if args.json:
        print(json.dumps(
            {w: {m: r.full_dict() for m, r in per.items()} for w, per in reports.items()},
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(render_reports(reports, "compare"))
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.obs.logbridge import configure_stderr_logging

    configure_stderr_logging(verbose=args.verbose, quiet=args.quiet)
    if args.telemetry is not None:
        obs.enable(args.telemetry)
    try:
        if args.supervise is not None:
            return _run_supervised(args)
        return _run_worker(args)
    finally:
        # A worker may also have enabled telemetry from the queue's
        # meta.json; either way, flush and close on every exit.
        if obs.enabled():
            obs.disable()


def _run_worker(args: argparse.Namespace) -> int:
    """The plain ``repro work`` branch: one inline claim/execute loop."""
    from repro.dist import QueueWorker, StoreUnavailable, WorkQueue
    from repro.exp.tasks import init_worker

    init_worker()  # one of possibly many workers on this machine
    worker = QueueWorker(
        WorkQueue(args.queue, create=False),
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll,
        max_cells=args.max_cells,
        wait_for_work=args.wait,
        cell_timeout_s=args.cell_timeout,
    )
    try:
        report = worker.run()
    except (StoreUnavailable, RuntimeError) as exc:
        # A store that stayed down through the strike budget: the
        # worker already spooled any finished results locally and the
        # message says where — surface it without a traceback wall.
        print(f"repro work: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    else:
        print(
            f"worker {report.worker_id}: {report.cells_done} cell(s) "
            f"executed, {len(report.reaped)} expired lease(s) reaped, "
            f"{len(report.failed)} failed"
            + (f", {len(report.timed_out)} timed out"
               if report.timed_out else "")
            + (f" [{report.exit_reason}]" if report.exit_reason else "")
        )
    return 1 if report.failed else 0


def _run_supervised(args: argparse.Namespace) -> int:
    """The ``repro work --supervise N`` branch: spawn-and-respawn N
    worker processes instead of running one inline loop."""
    from repro.dist import WorkerSupervisor

    supervisor = WorkerSupervisor(
        args.queue,
        args.supervise,
        lease_ttl=args.lease_ttl,
        backoff_base_s=args.backoff,
        max_crashes=args.max_crashes,
        wait_for_work=args.wait,
        cell_timeout_s=args.cell_timeout,
        worker_poll_interval=args.poll,
    )
    try:
        report = supervisor.run()
    except KeyboardInterrupt:
        supervisor.stop()  # exit reason "stopped"
        report = supervisor.report
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    else:
        print(
            f"supervisor: {report.slots} slot(s), {report.spawned} "
            f"spawn(s), {report.crashes} crash(es), {report.strikes} "
            f"lease strike(s)"
            + (f", circuit open on slot(s) {report.circuit_open}"
               if report.circuit_open else "")
            + (f" [{report.exit_reason}]" if report.exit_reason else "")
        )
    return 2 if report.exit_reason == "circuit_open" else 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.dist import audit_queue

    report = audit_queue(
        args.queue_dir,
        repair=args.repair,
        stale_worker_s=args.stale_after,
    )
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_queue_status(args: argparse.Namespace) -> int:
    import time

    from repro.dist import WorkQueue

    queue = WorkQueue(args.queue, create=False)

    def show(status) -> None:
        if args.json:
            print(json.dumps(status.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(status.summary())

    if args.watch is None:
        show(queue.status())
        return 0
    clear = sys.stdout.isatty() and not args.json
    while True:
        status = queue.status()
        if clear:
            # Home + clear-to-end keeps one live panel instead of a
            # scrolling log; off-TTY we just append snapshots.
            sys.stdout.write("\x1b[H\x1b[2J")
        show(status)
        if not args.json:
            print(f"(refreshing every {args.watch:g}s; ctrl-c to stop)")
        sys.stdout.flush()
        if status.pending == 0:
            return 0
        time.sleep(args.watch)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "export":
        from repro.obs import export_chrome_trace

        out = export_chrome_trace(
            args.telemetry, args.out, include_events=not args.no_events
        )
        print(f"wrote {out}")
        return 0

    # summary
    from collections import Counter as _Counter
    from pathlib import Path

    from repro.obs import load_spans, merge_snapshots, read_events

    directory = Path(args.telemetry)
    if not directory.is_dir():
        raise FileNotFoundError(f"telemetry directory not found: {directory}")
    spans = load_spans(directory)
    events = read_events(directory)
    snapshots = []
    for path in sorted(directory.glob("metrics-*.json")):
        try:
            snapshots.append(json.loads(path.read_text()))
        except (json.JSONDecodeError, OSError):
            continue
    metrics = merge_snapshots(snapshots)
    span_names = _Counter(s["name"] for s in spans)
    event_names = _Counter(e.get("event", "?") for e in events)
    if args.json:
        print(json.dumps(
            {"spans": dict(span_names),
             "events": dict(event_names),
             "metrics": metrics},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"telemetry {directory}: {len(spans)} span(s), "
          f"{len(events)} event(s), {len(snapshots)} metrics snapshot(s)")
    for name, count in sorted(span_names.items()):
        print(f"  span   {name:<14} ×{count}")
    for name, count in sorted(event_names.items()):
        print(f"  event  {name:<14} ×{count}")
    for name, value in metrics.get("counters", {}).items():
        print(f"  count  {name:<28} {value}")
    for name, hist in metrics.get("histograms", {}).items():
        print(f"  hist   {name:<28} n={hist.get('count', 0)}")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "work": _cmd_work,
    "queue-status": _cmd_queue_status,
    "doctor": _cmd_doctor,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in FLAG_SECTIONS:
            # Numeric flags are checked before any queue opens or worker starts.
            section = args.command
            check_knobs(section, {key: getattr(args, key) for key in knob_keys(section)})
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
