"""Pluggable component registries: schedulers, workloads, systems.

Every name-based lookup in the library resolves through one of three
process-global registries:

* :data:`SCHEDULERS` — policies implementing the
  :class:`~repro.sched.base.Scheduler` interface. ``trainable`` and
  ``seeded`` only describe a policy to ``repro list`` (training follows
  ``finish_episode``, not the flag); ``paper`` picks the default
  comparison methods, and the scenario compiler reads ``goal_options``
  and ``allowed_kwargs``;
* :data:`WORKLOADS` — workload builders that transform a base trace
  into the job mix a scenario evaluates (the paper's S1–S10 plus any
  site-specific mixes);
* :data:`SYSTEMS` — factories producing a
  :class:`~repro.cluster.system.SystemConfig`.

Extending the library is a registration, not a core-code edit::

    from repro.api import register_scheduler

    @register_scheduler("random", description="uniform random pick")
    class RandomScheduler(Scheduler):
        ...

    run_scenario({"methods": ["random", "heuristic"], "workloads": ["S4"]})

The paper's built-in components live in :mod:`repro.api._builtins` and
are loaded lazily on first lookup, so importing this module stays
dependency-free (no cycles with the packages whose components it
names).

Note on worker processes: registrations made at runtime are inherited by
``fork``-started workers (the default on Linux) but not by ``spawn``
workers. Plugins therefore register at import time in an importable
module; :func:`registration_modules` lists the modules behind the
current registrations, and every worker's start-up
(:func:`~repro.exp.tasks.init_worker`) re-imports them with
:func:`import_plugin_modules`. Components registered from ``__main__``
cannot be re-imported by name and remain fork-only.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

__all__ = [
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
    "registration_modules",
    "import_plugin_modules",
    "paper_methods",
    "paper_workloads",
]


def _call_adapting(factory: Callable, candidates: dict, kwargs: dict):
    """Call ``factory`` passing only the ``candidates`` it accepts.

    Lets plain classes register directly: ``FCFSScheduler`` takes no
    ``system`` or ``seed``, ``MRSchScheduler`` takes both — the adapter
    inspects the signature instead of forcing one shape on every
    constructor. Explicit user ``kwargs`` are always forwarded and
    *override* colliding candidates (e.g. a per-method ``window_size``
    option beats the grid-wide default) instead of raising a duplicate-
    keyword TypeError.
    """
    try:
        params = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins/C callables: pass everything
        return factory(**{**candidates, **kwargs})
    if not any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        candidates = {k: v for k, v in candidates.items() if k in params}
    return factory(**{**candidates, **kwargs})


@dataclass(frozen=True)
class SchedulerEntry:
    """One registered scheduling policy plus its capability metadata."""

    name: str
    factory: Callable
    description: str = ""
    #: implements ``finish_episode`` and is curriculum-trained by default.
    #: Declared, not derived: a builtin's factory imports its class only
    #: when called, so ``repro list`` never loads the network stack.
    trainable: bool = False
    #: consumes a ``seed`` (stochastic policy or stochastic initialisation)
    seeded: bool = True
    #: one of the paper's §IV-D comparison methods
    paper: bool = False
    #: scenario ``goal`` keys this policy consumes, mapped to the
    #: constructor kwarg each one sets (e.g. ``dynamic → dynamic_goal``)
    goal_options: tuple[tuple[str, str], ...] = ()
    #: :class:`ExperimentConfig` attributes injected as constructor
    #: kwargs by the harness, e.g. ``(("ga_config", "config"),)`` hands
    #: the experiment's GA budget to the NSGA-II scheduler
    config_options: tuple[tuple[str, str], ...] = ()
    #: constructor kwargs the factory accepts, for up-front validation of
    #: scenario options; ``None`` = unknown (accept anything, fail late)
    allowed_kwargs: tuple[str, ...] | None = None

    def build(self, system, window_size: int = 10, seed=None, **kwargs):
        """Instantiate the policy on ``system`` with signature adaptation."""
        candidates = {"system": system, "window_size": window_size, "seed": seed}
        return _call_adapting(self.factory, candidates, kwargs)

    def unknown_kwargs(self, names) -> tuple[str, ...]:
        """The subset of ``names`` this policy's constructor rejects."""
        if self.allowed_kwargs is None:
            return ()
        allowed = set(self.allowed_kwargs) | {"system", "window_size", "seed"}
        return tuple(n for n in names if n not in allowed)

    def capabilities(self) -> dict:
        return {
            "trainable": self.trainable,
            "seeded": self.seeded,
            "paper": self.paper,
            "goal_options": [k for k, _ in self.goal_options],
        }


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload builder.

    ``builder(base_jobs, system, seed)`` returns the transformed job
    list; it must treat ``base_jobs`` as read-only and derive all
    randomness from ``seed`` so scenario replays stay deterministic.
    """

    name: str
    builder: Callable
    description: str = ""
    #: needs the §V-E power-extended system (evaluated case-study style)
    case_study: bool = False
    #: one of the paper's Table III / §V-E rows
    paper: bool = False
    #: resource names the builder assumes the system provides; scenario
    #: validation rejects a system missing any of them up front. The
    #: default matches the Theta-trace builders; register a workload for
    #: exotic systems with ``requires=()`` (or its actual needs).
    requires: tuple[str, ...] = ("node", "burst_buffer")

    def build(self, base_jobs, system, seed=None):
        return self.builder(base_jobs, system, seed)

    def capabilities(self) -> dict:
        return {
            "case_study": self.case_study,
            "paper": self.paper,
            "requires": list(self.requires),
        }


@dataclass(frozen=True)
class SystemEntry:
    """One registered system factory.

    ``factory`` receives the scenario's ``nodes``/``bb_units`` sizing
    (when it accepts them) and returns a
    :class:`~repro.cluster.system.SystemConfig`.
    """

    name: str
    factory: Callable
    description: str = ""

    def build(self, nodes: int | None = None, bb_units: int | None = None):
        candidates = {}
        if nodes is not None:
            candidates["nodes"] = nodes
        if bb_units is not None:
            candidates["bb_units"] = bb_units
        return _call_adapting(self.factory, candidates, {})


@dataclass
class Registry:
    """Ordered name → entry mapping with actionable lookup errors."""

    kind: str
    _entries: dict = field(default_factory=dict)

    def register(self, entry) -> None:
        # Load builtins first so a plugin colliding with a builtin name
        # is rejected here, at its decorator, not at some later lookup.
        _load_builtins()
        # Case-insensitive collision check: lookup falls back to the
        # lowercased name, so "Heuristic" would otherwise silently
        # shadow the builtin "heuristic" for some spellings only.
        clashes = [n for n in self._entries if n.lower() == entry.name.lower()]
        if clashes:
            raise ValueError(
                f"{self.kind} {entry.name!r} is already registered"
                f"{'' if entry.name in clashes else f' (as {clashes[0]!r})'}; "
                f"unregister it first to replace it"
            )
        self._entries[entry.name] = entry

    def unregister(self, name: str) -> None:
        """Remove a registration (plugin teardown / test isolation).

        Case-insensitive, like every other lookup on the registry.
        """
        folded = str(name).lower()
        for key in [n for n in self._entries if n.lower() == folded]:
            del self._entries[key]

    def get(self, name: str):
        _load_builtins()
        entry = self._entries.get(name)
        if entry is None:
            # Case-insensitive fallback, symmetric with register()'s
            # collision check (which guarantees at most one match).
            folded = str(name).lower()
            entry = next(
                (e for n, e in self._entries.items() if n.lower() == folded),
                None,
            )
        if entry is None:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: "
                f"{', '.join(self.names())}"
            )
        return entry

    def names(self) -> tuple[str, ...]:
        _load_builtins()
        return tuple(self._entries)

    def entries(self) -> tuple:
        _load_builtins()
        return tuple(self._entries.values())

    def __contains__(self, name: str) -> bool:
        _load_builtins()
        folded = str(name).lower()
        return any(n.lower() == folded for n in self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


SCHEDULERS = Registry("scheduler")
WORKLOADS = Registry("workload")
SYSTEMS = Registry("system")

_builtins_loaded = False
_builtins_loading = False


def _load_builtins() -> None:
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded or _builtins_loading:
        return
    # The loading flag breaks the recursion: _builtins itself registers
    # entries, and register() calls back into this function. The loaded
    # flag is only set after a *successful* import, and a failed partial
    # import is evicted from sys.modules, so a failure surfaces loudly on
    # every lookup instead of leaving a silently half-populated registry.
    _builtins_loading = True
    try:
        import repro.api._builtins  # noqa: F401  (registers on import)
    except BaseException:
        import sys

        sys.modules.pop("repro.api._builtins", None)
        raise
    finally:
        _builtins_loading = False
    _builtins_loaded = True


# -- spawn-safe plugin shipping -----------------------------------------------


def registration_modules() -> tuple[str, ...]:
    """Importable modules behind the current plugin registrations.

    Derived from each entry's factory/builder ``__module__``; library
    builtins (re-created by the lazy ``_load_builtins`` in any process)
    and ``__main__`` registrations (not importable by name in a spawn
    worker) are excluded. Importing every listed module re-creates the
    runtime registrations, which is exactly what a ``spawn``-started
    worker needs before it resolves plugin names.
    """
    modules: set[str] = set()
    for registry in (SCHEDULERS, WORKLOADS, SYSTEMS):
        for entry in registry.entries():
            obj = getattr(entry, "factory", None) or getattr(entry, "builder", None)
            module = getattr(obj, "__module__", None)
            if not module or module == "__main__" or module.startswith("repro."):
                continue
            modules.add(module)
    return tuple(sorted(modules))


def import_plugin_modules(modules: tuple[str, ...]) -> None:
    """Worker start-up: re-create registrations in a worker.

    Under ``fork`` the modules are already imported and each import is
    a cached no-op; under ``spawn`` the fresh interpreter executes each
    module, whose import-time ``@register_*`` decorators re-register
    the plugins.
    """
    import importlib

    for module in modules:
        importlib.import_module(module)


# -- decorators --------------------------------------------------------------


def _derive_allowed_kwargs(obj: Callable) -> tuple[str, ...] | None:
    """Constructor kwargs a factory accepts, or None when unknowable.

    ``**kwargs`` factories (the lazy builtin wrappers, say) forward to a
    constructor this inspection cannot see, so they return None and
    should declare ``allowed_kwargs`` explicitly at registration.
    """
    try:
        params = inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return None
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return None
    return tuple(n for n in params if n != "self")


def register_scheduler(
    name: str,
    *,
    description: str = "",
    trainable: bool = False,
    seeded: bool = True,
    paper: bool = False,
    goal_options: Mapping[str, str] | tuple[tuple[str, str], ...] = (),
    config_options: Mapping[str, str] | tuple[tuple[str, str], ...] = (),
    allowed_kwargs: tuple[str, ...] | None = None,
) -> Callable:
    """Register a scheduler class or factory under ``name``.

    The decorated callable is invoked as ``factory(system=...,
    window_size=..., seed=..., **kwargs)`` with arguments it does not
    declare filtered out, so plain ``Scheduler`` subclasses register
    without wrapper boilerplate. ``allowed_kwargs`` (derived from the
    signature when possible) lets scenario validation reject a typo'd
    option up front instead of crashing inside a worker.
    """
    if isinstance(goal_options, Mapping):
        goal_options = tuple(goal_options.items())
    if isinstance(config_options, Mapping):
        config_options = tuple(config_options.items())

    def decorator(obj: Callable) -> Callable:
        SCHEDULERS.register(
            SchedulerEntry(
                name=name,
                factory=obj,
                description=description or inspect.getdoc(obj) or "",
                trainable=trainable,
                seeded=seeded,
                paper=paper,
                goal_options=tuple(goal_options),
                config_options=tuple(config_options),
                allowed_kwargs=(
                    allowed_kwargs
                    if allowed_kwargs is not None
                    else _derive_allowed_kwargs(obj)
                ),
            )
        )
        return obj

    return decorator


def register_workload(
    name: str,
    *,
    description: str = "",
    case_study: bool = False,
    paper: bool = False,
    requires: tuple[str, ...] = ("node", "burst_buffer"),
) -> Callable:
    """Register a workload builder ``(base_jobs, system, seed) -> jobs``."""

    def decorator(obj: Callable) -> Callable:
        WORKLOADS.register(
            WorkloadEntry(
                name=name,
                builder=obj,
                description=description or inspect.getdoc(obj) or "",
                case_study=case_study,
                paper=paper,
                requires=tuple(requires),
            )
        )
        return obj

    return decorator


def register_system(name: str, *, description: str = "") -> Callable:
    """Register a system factory ``(nodes=..., bb_units=...) -> SystemConfig``."""

    def decorator(obj: Callable) -> Callable:
        SYSTEMS.register(
            SystemEntry(
                name=name,
                factory=obj,
                description=description or inspect.getdoc(obj) or "",
            )
        )
        return obj

    return decorator


# -- canonical orderings ------------------------------------------------------


def paper_methods() -> tuple[str, ...]:
    """The §IV-D comparison methods, in the paper's reporting order."""
    return tuple(e.name for e in SCHEDULERS.entries() if e.paper)


def paper_workloads(case_study: bool = False) -> tuple[str, ...]:
    """Table III rows (S1–S5), or the §V-E power rows with ``case_study``."""
    return tuple(
        e.name
        for e in WORKLOADS.entries()
        if e.paper and e.case_study == case_study
    )
