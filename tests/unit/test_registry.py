"""Tests for the scheduler factory (``repro.api.SCHEDULERS``)."""

import pytest

from repro.api import SCHEDULERS, list_schedulers
from repro.core.mrsch import MRSchScheduler
from repro.sched.fcfs import FCFSScheduler
from repro.sched.ga import GAScheduler
from repro.sched.scalar_rl import ScalarRLScheduler


def test_available_names():
    assert set(list_schedulers()) == {
        "heuristic",
        "optimization",
        "scalar_rl",
        "mrsch",
    }


@pytest.mark.parametrize(
    "name,cls",
    [
        ("heuristic", FCFSScheduler),
        ("optimization", GAScheduler),
        ("scalar_rl", ScalarRLScheduler),
        ("mrsch", MRSchScheduler),
    ],
)
def test_factory_types(name, cls, tiny_system):
    sched = SCHEDULERS.get(name).build(tiny_system, window_size=4, seed=0)
    assert isinstance(sched, cls)
    assert sched.window_size == 4


def test_case_insensitive(tiny_system):
    assert isinstance(SCHEDULERS.get("HEURISTIC").build(tiny_system), FCFSScheduler)


def test_unknown_name(tiny_system):
    with pytest.raises(KeyError, match="unknown scheduler"):
        SCHEDULERS.get("slurm").build(tiny_system)


def test_kwargs_forwarded(tiny_system):
    sched = SCHEDULERS.get("heuristic").build(tiny_system, backfill=False)
    assert sched.backfill_enabled is False
