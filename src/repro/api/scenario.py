"""The declarative scenario spec and its compilation to experiment tasks.

A :class:`Scenario` is a validated, serializable description of one
study: which **system** to build, which **workloads** to derive, which
**schedulers** to compare, what **goal** emphasis to apply, and how many
**seeds/replications** to run. It compiles to the same
:class:`~repro.exp.records.ExperimentTask` cells the PR-1 harness
produces, so every scenario executes on the
:class:`~repro.exp.runner.ExperimentRunner` with its determinism,
caching and checkpointing guarantees intact — a scenario with the same
content always compiles to tasks with the same config hashes, so the
on-disk result cache keeps working across runs and across processes.

Scenarios load from plain dicts or JSON files (JSON is a strict YAML
subset, so scenario files are valid YAML too; ``.yaml`` files load when
PyYAML happens to be installed). Example::

    {
      "name": "bb-heavy",
      "methods": ["mrsch", "heuristic"],
      "workloads": ["S2", "S4"],
      "system": {"name": "mini_theta", "nodes": 128, "bb_units": 64},
      "seed": 2022,
      "replications": 2,
      "train": true,
      "goal": {"prior_weight": 1.0},
      "config": {"n_jobs": 150, "window_size": 10}
    }

Every validation failure raises :class:`ValueError` naming the offending
field and the accepted alternatives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.api.registry import SCHEDULERS, SYSTEMS, WORKLOADS
from repro.exp.records import ExperimentTask, canonical_json

if TYPE_CHECKING:
    from repro.experiments.harness import ExperimentConfig

__all__ = ["Scenario", "load_scenario"]

#: top-level scenario keys (``schedulers`` is accepted as an alias for
#: ``methods``)
_ALLOWED_KEYS = frozenset(
    {
        "name",
        "description",
        "methods",
        "schedulers",
        "workloads",
        "system",
        "seed",
        "seeds",
        "replications",
        "train",
        "case_study",
        "goal",
        "options",
        "config",
        "evaluation",
        "execution",
    }
)
_SYSTEM_KEYS = frozenset({"name", "nodes", "bb_units"})
_EVALUATION_KEYS = frozenset(
    {"policies", "trace_dir", "bootstrap", "seed", "compact_traces"}
)
_EXECUTION_KEYS = frozenset(
    {"dispatch", "queue_dir", "workers", "lease_ttl", "cell_timeout_s",
     "supervise"}
)
_CONFIG_KEYS = frozenset(
    {
        "n_jobs",
        "window_size",
        "jobs_per_trainset",
        "curriculum_sets",
        "mean_interarrival",
        "ga",
    }
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class Scenario:
    """A declarative, serializable experiment description.

    Construct directly, from :meth:`from_dict`, or from a JSON file via
    :meth:`from_file`. Instances are validated eagerly — every name is
    resolved against the component registries at construction time.
    """

    methods: tuple[str, ...]
    workloads: tuple[str, ...]
    name: str = "scenario"
    description: str = ""
    #: system section: ``{"name": <registry name>, "nodes": n, "bb_units": n}``
    system: Mapping = field(default_factory=lambda: {"name": "mini_theta"})
    seed: int = 2022
    #: explicit seed axis; overrides ``replications``
    seeds: tuple[int, ...] | None = None
    #: independent repetitions (seeds spawned from ``seed`` when > 1)
    replications: int = 1
    train: bool = True
    #: None = derived from the selected workloads' registry metadata
    case_study: bool | None = None
    #: goal emphasis, translated per method via its ``goal_options`` map
    goal: Mapping = field(default_factory=dict)
    #: per-method constructor overrides: ``{"mrsch": {"prior_weight": 0}}``
    options: Mapping = field(default_factory=dict)
    #: :class:`~repro.experiments.harness.ExperimentConfig` overrides
    config: Mapping = field(default_factory=dict)
    #: offline-evaluation section: any non-empty mapping turns on
    #: decision-trace capture for every compiled cell. Keys:
    #: ``policies`` (registered offline policy names compared after the
    #: run), ``trace_dir`` (trace store location, overridable by the
    #: ``run_scenario`` argument), ``bootstrap`` (resample count) and
    #: ``seed`` (bootstrap RNG seed).
    evaluation: Mapping = field(default_factory=dict)
    #: execution section — *how* the grid runs, never *what* it
    #: computes (task keys and metrics are dispatch-invariant). Keys:
    #: ``dispatch`` ("pool" | "queue"), ``queue_dir`` (shared work-queue
    #: directory, required for "queue"), ``workers`` (local worker
    #: count), ``lease_ttl`` (queue-mode lease expiry, seconds),
    #: ``cell_timeout_s`` (queue-mode per-cell execution deadline) and
    #: ``supervise`` (queue mode: respawn crashed local workers).
    execution: Mapping = field(default_factory=dict)

    # -- validation -------------------------------------------------------

    def __post_init__(self) -> None:
        for field_name in ("methods", "workloads", "seeds"):
            value = getattr(self, field_name)
            if value is None and field_name == "seeds":
                continue
            _require(
                not isinstance(value, str),
                f"scenario.{field_name} must be a list of names, not the "
                f"string {value!r}",
            )
            try:
                value = tuple(value)
            except TypeError:
                raise ValueError(
                    f"scenario.{field_name} must be a list, got {value!r}"
                ) from None
            if field_name == "seeds":
                try:
                    value = tuple(int(s) for s in value)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"scenario.seeds must be a list of ints, got {value!r}"
                    ) from None
            object.__setattr__(self, field_name, value)
        _require(bool(self.methods), "scenario needs at least one method")
        _require(bool(self.workloads), "scenario needs at least one workload")
        # Canonicalise method spellings ("MRSch" → "mrsch") so task keys,
        # pivot labels and per-method options all agree on one name.
        object.__setattr__(
            self,
            "methods",
            tuple(self._lookup(SCHEDULERS, m).name for m in self.methods),
        )
        _require(
            len(set(self.methods)) == len(self.methods),
            f"scenario.methods contains duplicates: {list(self.methods)}",
        )
        entries = [self._lookup(WORKLOADS, w) for w in self.workloads]
        _require(
            len({e.name for e in entries}) == len(entries),
            f"scenario.workloads contains duplicates: {list(self.workloads)}",
        )

        flavours = {e.case_study for e in entries}
        _require(
            len(flavours) == 1,
            "scenario mixes case-study (power) and plain workloads: "
            f"{[e.name for e in entries]}; split them into two scenarios",
        )
        flavour = flavours.pop()
        if self.case_study is None:
            object.__setattr__(self, "case_study", flavour)
        else:
            # An explicit flag that contradicts the workloads' registry
            # metadata would crash deep inside a worker (jobs built for
            # the wrong system); reject it here with the remedy.
            _require(
                bool(self.case_study) == flavour,
                f"case_study={self.case_study!r} contradicts the selected "
                f"workloads ({[e.name for e in entries]} are "
                f"{'case-study (power)' if flavour else 'plain'} workloads); "
                "drop the case_study field to derive it automatically",
            )

        _require(
            isinstance(self.system, Mapping),
            f"scenario.system must be a mapping, got {type(self.system).__name__}",
        )
        unknown = set(self.system) - _SYSTEM_KEYS
        _require(
            not unknown,
            f"unknown system field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_SYSTEM_KEYS)}",
        )
        self._lookup(SYSTEMS, self.system.get("name", "mini_theta"))

        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"scenario.seed must be an int, got {self.seed!r}",
        )
        _require(
            isinstance(self.replications, int) and self.replications >= 1,
            f"scenario.replications must be a positive int, got {self.replications!r}",
        )
        _require(
            self.seeds is None or self.replications == 1,
            "give either explicit seeds or replications, not both",
        )
        _require(
            self.seeds is None or len(self.seeds) > 0,
            "scenario.seeds must be non-empty when given",
        )
        _require(
            self.seeds is None or len(set(self.seeds)) == len(self.seeds),
            f"scenario.seeds contains duplicates: {list(self.seeds or ())} "
            "(identical cells would silently collapse to one report)",
        )

        _require(
            isinstance(self.goal, Mapping),
            f"scenario.goal must be a mapping, got {type(self.goal).__name__}",
        )
        if self.goal:
            # Valid goal keys come from the registry (plugins included),
            # not a hardcoded list: a key is usable when some registered
            # scheduler declares it, and must be consumed by at least
            # one *selected* method to have any effect.
            known = {
                key for e in SCHEDULERS.entries() for key, _ in e.goal_options
            }
            unknown = set(self.goal) - known
            _require(
                not unknown,
                f"unknown goal option(s) {sorted(unknown)}; options declared "
                f"by registered schedulers: {sorted(known)}",
            )
            consumed = {
                key
                for m in self.methods
                for key, _ in SCHEDULERS.get(m).goal_options
            }
            dangling = set(self.goal) - consumed
            _require(
                not dangling,
                f"goal option(s) {sorted(dangling)} are consumed by none of "
                f"{list(self.methods)}; schedulers accepting them: "
                f"{self._goal_consumers(dangling)}",
            )

        _require(
            isinstance(self.options, Mapping),
            "scenario.options must map method name -> kwargs mapping",
        )
        canonical_options: dict = {}
        for method, kwargs in self.options.items():
            # Accept the same alternate spellings `methods` accepts.
            canonical = self._lookup(SCHEDULERS, method).name
            _require(
                canonical in self.methods,
                f"options given for {method!r}, which is not in "
                f"scenario.methods {list(self.methods)}",
            )
            _require(
                canonical not in canonical_options,
                f"options given twice for {canonical!r}",
            )
            _require(
                isinstance(kwargs, Mapping),
                f"options[{method!r}] must be a mapping of constructor kwargs",
            )
            canonical_options[canonical] = kwargs
        object.__setattr__(self, "options", canonical_options)
        # Reject typo'd option keys for factories whose constructor
        # kwargs are declared/derivable, instead of a worker TypeError.
        for method in self.methods:
            entry = SCHEDULERS.get(method)
            unknown_kwargs = entry.unknown_kwargs(dict(self._method_extra(method)))
            _require(
                not unknown_kwargs,
                f"options for {method!r} include kwargs its constructor "
                f"does not accept: {list(unknown_kwargs)}; accepted: "
                f"{sorted(entry.allowed_kwargs or ())}",
            )

        _require(
            isinstance(self.evaluation, Mapping),
            f"scenario.evaluation must be a mapping, got "
            f"{type(self.evaluation).__name__}",
        )
        if self.evaluation:
            unknown = set(self.evaluation) - _EVALUATION_KEYS
            _require(
                not unknown,
                f"unknown evaluation field(s) {sorted(unknown)}; "
                f"allowed: {sorted(_EVALUATION_KEYS)}",
            )
            policies = self.evaluation.get("policies")
            if policies is not None:
                _require(
                    isinstance(policies, (list, tuple)) and len(policies) > 0,
                    f"evaluation.policies must be a non-empty list, got {policies!r}",
                )
                # Resolved against the offline-policy registry so a typo
                # fails at load time, not after the whole grid has run.
                from repro.eval.policies import get_eval_policy

                for policy in policies:
                    try:
                        get_eval_policy(policy)
                    except KeyError as exc:
                        raise ValueError(exc.args[0]) from None
            trace_dir = self.evaluation.get("trace_dir")
            _require(
                trace_dir is None or (isinstance(trace_dir, str) and trace_dir),
                f"evaluation.trace_dir must be a non-empty string, got {trace_dir!r}",
            )
            bootstrap = self.evaluation.get("bootstrap")
            _require(
                bootstrap is None
                or (isinstance(bootstrap, int) and not isinstance(bootstrap, bool)
                    and bootstrap >= 1),
                f"evaluation.bootstrap must be a positive int, got {bootstrap!r}",
            )
            eval_seed = self.evaluation.get("seed")
            _require(
                eval_seed is None
                or (isinstance(eval_seed, int) and not isinstance(eval_seed, bool)),
                f"evaluation.seed must be an int, got {eval_seed!r}",
            )
            compact = self.evaluation.get("compact_traces")
            _require(
                compact is None or isinstance(compact, bool),
                f"evaluation.compact_traces must be a bool, got {compact!r}",
            )

        _require(
            isinstance(self.execution, Mapping),
            f"scenario.execution must be a mapping, got "
            f"{type(self.execution).__name__}",
        )
        if self.execution:
            unknown = set(self.execution) - _EXECUTION_KEYS
            _require(
                not unknown,
                f"unknown execution field(s) {sorted(unknown)}; "
                f"allowed: {sorted(_EXECUTION_KEYS)}",
            )
            dispatch = self.execution.get("dispatch", "pool")
            _require(
                dispatch in ("pool", "queue"),
                f"execution.dispatch must be 'pool' or 'queue', got {dispatch!r}",
            )
            queue_dir = self.execution.get("queue_dir")
            _require(
                queue_dir is None or (isinstance(queue_dir, str) and queue_dir),
                f"execution.queue_dir must be a non-empty string, got {queue_dir!r}",
            )
            _require(
                dispatch != "queue" or queue_dir is not None,
                "execution.dispatch='queue' needs execution.queue_dir "
                "(the shared work-queue directory)",
            )
            _require(
                queue_dir is None or dispatch == "queue",
                "execution.queue_dir given but execution.dispatch is "
                "'pool'; set dispatch='queue' to use the work queue",
            )
            workers = self.execution.get("workers")
            _require(
                workers is None
                or (isinstance(workers, int) and not isinstance(workers, bool)
                    and workers >= 1),
                f"execution.workers must be a positive int, got {workers!r}",
            )
            lease_ttl = self.execution.get("lease_ttl")
            _require(
                lease_ttl is None
                or (isinstance(lease_ttl, (int, float))
                    and not isinstance(lease_ttl, bool) and lease_ttl > 0),
                f"execution.lease_ttl must be a positive number, got {lease_ttl!r}",
            )
            cell_timeout = self.execution.get("cell_timeout_s")
            _require(
                cell_timeout is None
                or (isinstance(cell_timeout, (int, float))
                    and not isinstance(cell_timeout, bool) and cell_timeout > 0),
                f"execution.cell_timeout_s must be a positive number, "
                f"got {cell_timeout!r}",
            )
            supervise = self.execution.get("supervise", False)
            _require(
                isinstance(supervise, bool),
                f"execution.supervise must be a bool, got {supervise!r}",
            )

        _require(
            isinstance(self.config, Mapping),
            f"scenario.config must be a mapping, got {type(self.config).__name__}",
        )
        unknown = set(self.config) - _CONFIG_KEYS
        _require(
            not unknown,
            f"unknown config field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_CONFIG_KEYS)}",
        )
        # Surface sizing errors (negative n_jobs, bad curriculum shape,
        # system/sizing mismatches, missing workload resources, unhashable
        # option values) now rather than deep inside a worker at run time.
        self.validate_system(self.build_config())
        try:
            canonical_json(
                [dict(self.goal), *(dict(kw) for kw in self.options.values())]
            )
        except TypeError as exc:
            raise ValueError(
                f"scenario.goal/options values must be JSON-serialisable: {exc}"
            ) from None

    @staticmethod
    def _lookup(registry, name: str):
        try:
            return registry.get(name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None

    @staticmethod
    def _goal_consumers(keys: set) -> dict:
        return {
            key: [
                e.name
                for e in SCHEDULERS.entries()
                if key in dict(e.goal_options)
            ]
            for key in sorted(keys)
        }

    # -- (de)serialisation ------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        """Build and validate a scenario from a plain mapping."""
        _require(
            isinstance(data, Mapping),
            f"scenario must be a mapping, got {type(data).__name__}",
        )
        unknown = set(data) - _ALLOWED_KEYS
        _require(
            not unknown,
            f"unknown scenario field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS - {'schedulers'})}",
        )
        _require(
            not ("methods" in data and "schedulers" in data),
            "give either 'methods' or its alias 'schedulers', not both",
        )
        methods = data.get("methods", data.get("schedulers"))
        _require(methods is not None, "scenario is missing required field 'methods'")
        _require("workloads" in data, "scenario is missing required field 'workloads'")
        kwargs = {k: v for k, v in data.items() if k not in ("methods", "schedulers")}
        # __post_init__ normalises list-like fields (and rejects strings
        # and non-iterables with named-field errors).
        return cls(methods=methods, **kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        """Load a scenario from a JSON (or, with PyYAML, YAML) file."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"scenario file not found: {path}")
        text = path.read_text()
        if path.suffix in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError:
                raise ValueError(
                    f"cannot load {path.name}: PyYAML is not installed; "
                    "write the scenario as JSON (a strict YAML subset)"
                ) from None
            data = yaml.safe_load(text)
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path.name} is not valid JSON: {exc}") from None
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path.name}: {exc}") from None

    def to_dict(self) -> dict:
        """Plain-dict rendering; ``from_dict`` round-trips it exactly."""
        out: dict = {
            "name": self.name,
            "methods": list(self.methods),
            "workloads": list(self.workloads),
            "system": dict(self.system),
            "seed": self.seed,
            "replications": self.replications,
            "train": self.train,
            "case_study": self.case_study,
        }
        if self.description:
            out["description"] = self.description
        if self.seeds is not None:
            out["seeds"] = list(self.seeds)
        if self.goal:
            out["goal"] = dict(self.goal)
        if self.options:
            out["options"] = {m: dict(kw) for m, kw in self.options.items()}
        if self.config:
            out["config"] = dict(self.config)
        if self.evaluation:
            out["evaluation"] = dict(self.evaluation)
        if self.execution:
            out["execution"] = dict(self.execution)
        return out

    def config_hash(self) -> str:
        """Stable digest of the scenario's semantic content.

        Key ordering in source files does not matter; two scenarios with
        the same content hash identically, which is what keeps the task
        config hashes — and therefore the result cache — stable. The
        ``execution`` section is excluded: it decides *how* cells run
        (pool vs queue, worker count), never what they compute, so
        flipping dispatch modes must not invalidate anything.
        """
        doc = self.to_dict()
        doc.pop("execution", None)
        return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]

    # -- compilation ------------------------------------------------------

    def validate_system(self, config: "ExperimentConfig") -> None:
        """Check the workloads' resource requirements against ``config``.

        Runs automatically for the scenario's own config; callers that
        substitute a pre-built :class:`ExperimentConfig` (``compare``,
        ``run_scenario(config=...)``) get the same up-front guarantee
        instead of a ``KeyError`` deep inside a worker.
        """
        system = config.system()
        for workload in self.workloads:
            entry = WORKLOADS.get(workload)
            missing = [r for r in entry.requires if r not in system.names]
            _require(
                not missing,
                f"workload {entry.name!r} requires resource(s) {missing} "
                f"that system {config.system_name!r} "
                f"(resources: {system.names}) does not provide",
            )

    def build_config(self) -> "ExperimentConfig":
        """Materialise the :class:`ExperimentConfig` this scenario sizes.

        A fixed-scale system factory (e.g. ``"theta"``) that ignores the
        sizing arguments defines the experiment's ``nodes``/``bb_units``
        itself — the trace is sized from the built system's capacities,
        and explicitly requesting a different size is an error.
        """
        from repro.cluster.resources import BURST_BUFFER, NODE
        from repro.experiments.harness import ExperimentConfig
        from repro.sched.ga import NSGA2Config

        system_name = self.system.get("name", "mini_theta")
        kwargs: dict = {"seed": self.seed, "system_name": system_name}
        probe = self._lookup(SYSTEMS, system_name).build(
            nodes=self.system.get("nodes"), bb_units=self.system.get("bb_units")
        )
        for key, resource in (("nodes", NODE), ("bb_units", BURST_BUFFER)):
            requested = self.system.get(key)
            if resource in probe.names:
                actual = probe.capacity(resource)
                _require(
                    requested is None or requested == actual,
                    f"system {system_name!r} fixes {resource} at {actual} "
                    f"units; it cannot be resized to {requested}",
                )
                kwargs[key] = actual
            elif requested is not None:
                kwargs[key] = requested
        for key in ("n_jobs", "window_size", "jobs_per_trainset", "mean_interarrival"):
            if key in self.config:
                kwargs[key] = self.config[key]
        if "curriculum_sets" in self.config:
            sets = self.config["curriculum_sets"]
            _require(
                isinstance(sets, (list, tuple)) and len(sets) == 3,
                f"config.curriculum_sets must be a 3-item list, got {sets!r}",
            )
            kwargs["curriculum_sets"] = tuple(int(s) for s in sets)
        if "ga" in self.config:
            ga = self.config["ga"]
            _require(
                isinstance(ga, Mapping),
                f"config.ga must be a mapping of NSGA-II fields, got {ga!r}",
            )
            try:
                kwargs["ga_config"] = NSGA2Config(**ga)
            except TypeError as exc:
                raise ValueError(f"config.ga: {exc}") from None
        return ExperimentConfig(**kwargs)

    def _method_extra(self, method: str) -> tuple[tuple[str, object], ...]:
        """Merged per-method constructor kwargs: goal translation + options."""
        entry = SCHEDULERS.get(method)
        merged: dict = {}
        translations = dict(entry.goal_options)
        for key, value in self.goal.items():
            if key in translations:
                merged[translations[key]] = value
        merged.update(self.options.get(method, {}))
        return tuple(sorted(merged.items()))

    def compile(self, config: "ExperimentConfig | None" = None) -> list[ExperimentTask]:
        """Compile to the (method × seed) grid cells the engine executes.

        Mirrors :func:`repro.exp.runner.grid_tasks` exactly — same seed
        spawning, same cell ordering — so a scenario equivalent to a
        harness comparison produces bit-identical tasks (and therefore
        bit-identical metrics and cache keys). ``config`` overrides the
        scenario-built :class:`ExperimentConfig`; scenario seeds still
        apply.
        """
        from repro.exp.runner import spawn_grid_seeds

        config = config if config is not None else self.build_config()
        if self.seeds is not None:
            seeds = list(self.seeds)
        elif self.replications == 1:
            seeds = [config.seed]
        else:
            seeds = spawn_grid_seeds(config.seed, self.replications)
        return [
            ExperimentTask(
                method=method,
                workloads=self.workloads,
                seed=int(seed),
                config=config,
                train=self.train,
                case_study=bool(self.case_study),
                extra=self._method_extra(method),
                capture_traces=bool(self.evaluation),
            )
            for seed in seeds
            for method in self.methods
        ]

    def replace(self, **changes) -> "Scenario":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


def load_scenario(source: "Scenario | Mapping | str | Path") -> Scenario:
    """Coerce any accepted scenario source into a :class:`Scenario`."""
    if isinstance(source, Scenario):
        return source
    if isinstance(source, Mapping):
        return Scenario.from_dict(source)
    if isinstance(source, (str, Path)):
        return Scenario.from_file(source)
    raise TypeError(
        f"cannot load a scenario from {type(source).__name__}; "
        "pass a Scenario, a mapping, or a file path"
    )
