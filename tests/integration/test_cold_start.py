"""What a fresh interpreter imports before it does any work.

Every ``repro`` invocation is a new process, and without a bytecode
cache each module it imports is compiled again. These tests start fresh
interpreters (as ``test_darshan.py`` does for scipy) and pin which
modules stay unloaded: the package ``__init__``s export lazily, and
stdlib modules that only one code path needs are imported there.

NumPy belongs to the execution layer (pool, simulator, schedulers,
agent, trace builders), which binds it at module level; the spec layer
(scenarios, registries, ``MetricReport``, queue status) never imports
it, so a process loads NumPy at the first cell it runs.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import repro
from repro.dist import WorkQueue

#: the directory holding the ``repro`` package under test; the children
#: start there, so they import this tree whatever the environment says
_SRC = str(Path(repro.__file__).resolve().parents[1])

#: prints the loaded module names after running the script body
_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

#: the ``cold_cli`` benchmark scenario: untrained heuristic + MRSch, two
#: workloads, a 32-node / 16-unit machine
COLD_SCENARIO = {
    "name": "cold_start",
    "methods": ["heuristic", "mrsch"],
    "workloads": ["S1", "S3"],
    "train": False,
    "system": {"name": "mini_theta", "nodes": 32, "bb_units": 16},
    "config": {"n_jobs": 40},
    "seed": 7,
}


def loaded_after(script: str) -> set[str]:
    """Module names loaded once ``script`` ran in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", script + _REPORT],
        capture_output=True, text=True, cwd=_SRC,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_loads(*argv: str) -> set[str]:
    """Modules a ``repro`` command loads (its stdout is discarded); the
    command exits 0, by returning it or through ``SystemExit``."""
    return loaded_after(
        "import contextlib, io\n"
        "from repro.api.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        code = main({list(argv)!r})\n"
        "    except SystemExit as exit:\n"
        "        code = exit.code\n"
        "assert code == 0, code\n"
    )


def test_import_api_loads_no_execution_machinery():
    loaded = loaded_after("import repro.api")
    unwanted = {
        "repro.nn", "repro.core", "repro.core.training", "repro.sched.ga",
        "repro.sched.scalar_rl", "repro.obs.logbridge",
        "logging", "multiprocessing", "concurrent.futures", "repro.dist", "repro.eval",
    }
    assert not unwanted & loaded, sorted(unwanted & loaded)


def test_listing_names_never_loads_the_network_stack():
    """``api/_builtins.py`` promises ``repro list`` does not pay for it."""
    loaded = cli_loads("list")
    assert {"repro.api._builtins", "repro.workload.suites"} <= loaded
    assert not {"repro.nn", "repro.core"} & loaded


def test_prior_method_never_loads_the_network_stack():
    """``prior`` is MRSch's base class: its run builds no agent, so the
    network modules stay out of the process."""
    loaded = loaded_after(
        "from repro.api import run_single\n"
        "from repro.experiments.harness import ExperimentConfig\n"
        "config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=40)\n"
        "result, sched = run_single('S1', 'prior', config)\n"
        "assert sched.name == 'prior' and result.jobs\n"
    )
    assert "repro.core.prior" in loaded
    assert not {"repro.nn", "repro.core.dfp", "repro.core.mrsch"} & loaded


def test_cold_run_loads_only_what_its_cells_run(tmp_path):
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(COLD_SCENARIO))
    loaded = cli_loads("run", str(path), "--json", "--no-progress")
    assert {"repro.core.mrsch", "repro.sched.fcfs", "numpy"} <= loaded
    unwanted = {
        "numpy.ma", "repro.core.training", "repro.eval", "repro.sched.ga",
        "repro.obs.logbridge", "multiprocessing", "concurrent.futures",
        "statistics",
    }
    assert not unwanted & loaded, sorted(unwanted & loaded)


#: the execution layer's entry modules; none is needed to compile a study
EXECUTION = {"numpy", "repro.cluster.resources", "repro.sched.base", "repro.experiments.harness"}


def test_compiling_a_scenario_loads_no_execution_layer():
    loaded = loaded_after(
        "import repro.api\n"
        f"tasks = repro.api.load_scenario({COLD_SCENARIO!r}).compile()\n"
        "assert [t.method for t in tasks] == ['heuristic', 'mrsch']\n"
    )
    assert {"repro.experiments.config", "repro.cluster.system"} <= loaded
    assert not EXECUTION & loaded, sorted(EXECUTION & loaded)


@pytest.mark.parametrize("argv", [
    ("list",), ("list", "--json"), ("--help",), ("queue-status", "--queue", "{queue}"),
    ("doctor", "{queue}"),
], ids=" ".join)
def test_a_command_that_runs_no_cell_loads_no_numpy(argv, tmp_path):
    queue = tmp_path / "queue"
    WorkQueue(queue)  # a fresh, empty queue
    loaded = cli_loads(*(arg.format(queue=queue) for arg in argv))
    assert "repro.api.cli" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("module", ["repro.cluster.resources", "repro.sched.base",
                                    "repro.sched.jobqueue"])
def test_the_execution_layer_binds_numpy_itself(module):
    """No lazy proxy: a per-decision ``np.`` lookup is the module's own."""
    assert importlib.import_module(module).np is numpy


@pytest.mark.parametrize("start_method,inherited", [("fork", True), ("spawn", False)])
def test_forked_workers_inherit_what_a_cell_runs(start_method, inherited):
    """The pool and the worker supervisor take their context from
    ``worker_context``: under ``fork`` it imports the execution layer
    first, so no child imports NumPy on its own."""
    loaded = loaded_after(
        "from repro.exp.tasks import worker_context\n"
        f"worker_context({start_method!r})\n"
    )
    assert (EXECUTION <= loaded) is inherited
    assert ("repro.sim.simulator" in loaded) is inherited


#: the smoke sizing, one untrained cell per method
_GRID = {"workloads": ["S1"], "system": {"name": "mini_theta", "nodes": 32, "bb_units": 16},
         "config": {"n_jobs": 40, "window_size": 5}, "seed": 3, "train": False}


def imported_by_cells(methods: list[str]) -> tuple[set[str], set[str]]:
    """In a fresh interpreter: the modules loaded once the coordinator's
    pre-fork imports (``worker_context("fork", tasks)``) ran for a grid
    of ``methods``, and those a worker's start-up and its cells then
    import on their own."""
    script = (
        "import json, sys\n"
        "import repro.api\n"
        "from repro.exp.tasks import execute_task, init_worker, worker_context\n"
        f"tasks = repro.api.load_scenario({dict(_GRID, methods=methods)!r}).compile()\n"
        "worker_context('fork', tasks)\n"
        "before = set(sys.modules)\n"
        "init_worker()\n"
        "for task in tasks:\n"
        "    execute_task(task)\n"
        "print(json.dumps([sorted(before), sorted(set(sys.modules) - before)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=_SRC,
    )
    assert done.returncode == 0, done.stderr
    before, new = json.loads(done.stdout.splitlines()[-1])
    return set(before), set(new)


def test_the_coordinators_pre_fork_imports_cover_its_cells():
    """A worker's start-up, a heuristic and an MRSch cell import no
    ``repro`` module and no ``statistics`` of their own: a forked worker
    inherits all of it."""
    _, new = imported_by_cells(["heuristic", "mrsch"])
    cell_imports = {m for m in new if m.startswith("repro.") or m == "statistics"}
    assert not cell_imports, sorted(cell_imports)


def test_a_heuristic_grid_forks_without_the_network_stack():
    before, new = imported_by_cells(["heuristic"])
    assert {"repro.sched.fcfs", "repro.workload.darshan"} <= before
    assert not {m for m in before | new if m.startswith("repro.nn")}
