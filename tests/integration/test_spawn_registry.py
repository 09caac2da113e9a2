"""Spawn-started pool workers must resolve plugin registrations.

``@register_*`` decorators run at import time, so a ``fork`` worker
inherits them for free — but a ``spawn`` worker starts a fresh
interpreter that has never imported the plugin module, and a grid task
naming a plugin method would die with an unknown-scheduler error. The
runner therefore ships :func:`repro.api.registry.registration_modules`
through the one worker start-up, which pool and queue workers share.
These tests register a plugin from a temp-dir module and run a smoke
grid under both start methods, through the pool and through the queue.
"""

from __future__ import annotations

import importlib
import sys
import textwrap

import pytest

from repro.api.registry import (
    SCHEDULERS,
    import_plugin_modules,
    registration_modules,
)
from repro.exp import ExperimentRunner, grid_tasks
from repro.experiments.harness import ExperimentConfig

PLUGIN_MODULE = "spawn_probe_plugin"
PLUGIN_SOURCE = textwrap.dedent(
    '''
    """Test plugin: registers an FCFS alias from outside the library."""

    from repro.api import register_scheduler
    from repro.sched.fcfs import FCFSScheduler


    @register_scheduler("spawn_probe", description="FCFS alias (spawn test)")
    class SpawnProbeScheduler(FCFSScheduler):
        pass
    '''
)


@pytest.fixture()
def plugin(tmp_path, monkeypatch):
    (tmp_path / f"{PLUGIN_MODULE}.py").write_text(PLUGIN_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.import_module(PLUGIN_MODULE)
    yield "spawn_probe"
    SCHEDULERS.unregister("spawn_probe")
    sys.modules.pop(PLUGIN_MODULE, None)


@pytest.fixture()
def smoke_config() -> ExperimentConfig:
    return ExperimentConfig(
        nodes=32, bb_units=16, n_jobs=15, window_size=4, seed=41
    )


class TestRegistrationShipping:
    def test_plugin_module_is_listed(self, plugin):
        assert PLUGIN_MODULE in registration_modules()

    def test_builtin_and_main_registrations_are_not_listed(self):
        modules = registration_modules()
        assert all(not m.startswith("repro.") for m in modules)
        assert "__main__" not in modules

    def test_initializer_reimport_is_idempotent(self, plugin):
        """Under fork the initializer runs in a process that already
        imported the plugin — the cached import must not re-register."""
        import_plugin_modules((PLUGIN_MODULE,))
        assert "spawn_probe" in SCHEDULERS


class TestSpawnGridSmoke:
    @pytest.mark.parametrize(
        "start_method", ["spawn", "fork"], ids=["spawn-queue", "fork-queue"]
    )
    def test_plugin_grid_runs_on_queue_workers(
        self, plugin, smoke_config, start_method, tmp_path
    ):
        """The regression: a spawn worker resolving a plugin-registered
        method as a queue worker (which finds the plugin on the parent's
        ``sys.path``, a prepended temp dir). Metrics must equal the
        serial run bit-for-bit."""
        tasks = grid_tasks([plugin], ["S1"], smoke_config, n_seeds=2)
        serial = ExperimentRunner(n_workers=1).run(tasks)
        queued = ExperimentRunner(
            n_workers=2, mp_start_method=start_method, queue_dir=tmp_path / "q",
        ).run(tasks)
        assert [
            (r.key, {w: m.full_dict() for w, m in r.metrics.items()})
            for r in queued
        ] == [
            (r.key, {w: m.full_dict() for w, m in r.metrics.items()})
            for r in serial
        ]
