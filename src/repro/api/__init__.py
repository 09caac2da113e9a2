"""repro.api — the stable declarative surface of the library.

Three layers, each importable from here:

* **Registries** (:mod:`repro.api.registry`) — decorator-based plugin
  points for schedulers, workloads and systems. Registering a component
  makes it addressable by name everywhere: scenario files, the facade,
  the ``repro`` CLI.
* **Scenario** (:mod:`repro.api.scenario`) — a validated, serializable
  experiment description that compiles to
  :class:`~repro.exp.records.ExperimentTask` grids.
* **Facade** (:mod:`repro.api.facade`) — :func:`run_scenario`,
  :func:`compare`, :func:`run_single` and the component listings; every
  call executes on the :class:`~repro.exp.runner.ExperimentRunner`.

This module is the compatibility contract: symbols exported here keep
their signatures across releases, while the implementation modules
behind them may move. Removed from it so far:

* ``run_scenario``'s ``config=`` and ``runner=``, and
  ``Scenario.compile``'s ``config=`` — size a study in the scenario's
  sections (``Scenario.sections_for(config)``) and run a grid on your
  own engine with ``runner.run(scenario.compile())``;
* ``compare``'s ``runner=`` — it takes ``n_workers``;
* ``Scenario.validate_system`` — validation runs it on the scenario's
  own system;
* ``register_scheduler``'s ``multi_resource=``, with
  ``SchedulerEntry.multi_resource`` and the ``multi_resource`` key of
  ``capabilities()`` and ``describe_components()`` (``repro list
  --json``) — every policy handles any number of resources.
"""

from repro.api.facade import (
    ScenarioResult,
    compare,
    describe_components,
    list_schedulers,
    list_systems,
    list_workloads,
    make_system,
    run_scenario,
    run_single,
)
from repro.api.registry import (
    SCHEDULERS,
    SYSTEMS,
    WORKLOADS,
    Registry,
    SchedulerEntry,
    SystemEntry,
    WorkloadEntry,
    paper_methods,
    paper_workloads,
    register_scheduler,
    register_system,
    register_workload,
)
from repro.api.scenario import Scenario, load_scenario

__all__ = [
    # facade
    "run_scenario",
    "compare",
    "run_single",
    "ScenarioResult",
    "list_schedulers",
    "list_workloads",
    "list_systems",
    "make_system",
    "describe_components",
    # scenario spec
    "Scenario",
    "load_scenario",
    # registries
    "Registry",
    "SchedulerEntry",
    "WorkloadEntry",
    "SystemEntry",
    "SCHEDULERS",
    "WORKLOADS",
    "SYSTEMS",
    "register_scheduler",
    "register_workload",
    "register_system",
    "paper_methods",
    "paper_workloads",
]
