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

A ``methods`` entry is a registered name or an **arm**, a mapping
``{"label": ..., "method": ..., "options": {...}}``: the method run
under its own label with its own constructor options, so one study can
hold two variants of one method (pure DFP beside guided MRSch is
``{"label": "dfp", "method": "mrsch", "options": {"prior_weight": 0}}``).
Reports are keyed by label; a plain name is its own label.

Every validation failure raises :class:`ValueError` naming the offending
field and the accepted alternatives; each field's kind and range is a
row of :data:`repro.api.knobs.KNOBS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.api.knobs import check_knobs
from repro.api.registry import SCHEDULERS, SYSTEMS, WORKLOADS
from repro.exp.records import ExperimentTask, canonical_json

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig

__all__ = ["Scenario", "load_scenario"]

#: ``config`` keys that copy straight onto :class:`ExperimentConfig` fields
_CONFIG_KEYS = ("n_jobs", "window_size", "jobs_per_trainset", "mean_interarrival")
#: the keys of an arm entry of ``methods``
_ARM_KEYS = ("label", "method", "options")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_finite(value, where: str) -> None:
    """Reject NaN and ±inf anywhere in ``value`` (JSON reads 1e400 as inf)."""
    if isinstance(value, float):
        _require(math.isfinite(value), f"{where} must be finite, got {value!r}")
    elif isinstance(value, Mapping):
        for key, item in value.items():
            _require_finite(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _require_finite(item, f"{where}[{i}]")


@dataclass(frozen=True)
class Scenario:
    """A declarative, serializable experiment description.

    Construct directly, from :meth:`from_dict`, or from a JSON file via
    :meth:`from_file`. Instances are validated eagerly — every name is
    resolved against the component registries at construction time.
    """

    #: registered names and/or arms ``{"label", "method", "options"}``
    methods: tuple[str | Mapping, ...]
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
    #: :class:`~repro.experiments.config.ExperimentConfig` overrides
    config: Mapping = field(default_factory=dict)
    #: execution section — *how* the grid runs, never *what* it
    #: computes (task keys and metrics are dispatch-invariant). Keys:
    #: ``queue_dir`` (shared work-queue directory; without it more than
    #: one worker runs a private temporary queue), ``workers`` (local
    #: worker count), ``lease_ttl`` (queue-mode lease expiry, seconds),
    #: ``cell_timeout_s`` (queue-mode per-cell execution deadline) and
    #: ``supervise`` (queue mode: respawn crashed local workers).
    execution: Mapping = field(default_factory=dict)

    # -- validation -------------------------------------------------------

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            _require_finite(getattr(self, f.name), f"scenario.{f.name}")
        for field_name in ("methods", "workloads", "seeds"):
            value = getattr(self, field_name)
            if value is None and field_name == "seeds":
                continue
            _require(
                not isinstance(value, (str, Mapping)),
                f"scenario.{field_name} must be a list of names, not "
                f"{value!r}",
            )
            try:
                value = tuple(value)
            except TypeError:
                raise ValueError(
                    f"scenario.{field_name} must be a list, got {value!r}"
                ) from None
            object.__setattr__(self, field_name, value)
        check_knobs(
            "scenario", {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        )
        for section in ("system", "config", "execution"):
            check_knobs(section, getattr(self, section))
        _require(bool(self.methods), "scenario needs at least one method")
        _require(bool(self.workloads), "scenario needs at least one workload")
        # Canonicalise method spellings ("MRSch" → "mrsch") so task keys,
        # pivot labels and per-method options all agree on one name.
        object.__setattr__(
            self,
            "methods",
            tuple(self._entry(i, m) for i, m in enumerate(self.methods)),
        )
        labels = self.labels
        _require(
            len(set(labels)) == len(labels),
            f"scenario.methods contains duplicates: {list(labels)}",
        )
        for i, (label, method, _) in enumerate(self.arms):
            others = {m for j, (_, m, _) in enumerate(self.arms) if j != i}
            _require(
                label == method or label not in others,
                f"scenario.methods[{i}].label {label!r} is another entry's "
                "method name; pick a label no other entry runs",
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
                self.case_study == flavour,
                f"case_study={self.case_study!r} contradicts the selected "
                f"workloads ({[e.name for e in entries]} are "
                f"{'case-study (power)' if flavour else 'plain'} workloads); "
                "drop the case_study field to derive it automatically",
            )

        self._lookup(SYSTEMS, self.system.get("name", "mini_theta"))

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
                for m in self.method_names
                for key, _ in SCHEDULERS.get(m).goal_options
            }
            dangling = set(self.goal) - consumed
            _require(
                not dangling,
                f"goal option(s) {sorted(dangling)} are consumed by none of "
                f"{list(self.method_names)}; schedulers accepting them: "
                f"{self._goal_consumers(dangling)}",
            )

        canonical_options: dict = {}
        for method, kwargs in self.options.items():
            # Accept the same alternate spellings `methods` accepts.
            canonical = self._lookup(SCHEDULERS, method).name
            _require(
                canonical in self.method_names,
                f"options given for {method!r}, which is not in "
                f"scenario.methods {list(self.method_names)}",
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
        for label, method, options in self.arms:
            entry = SCHEDULERS.get(method)
            unknown_kwargs = entry.unknown_kwargs(dict(self._method_extra(method, options)))
            _require(
                not unknown_kwargs,
                f"options for {label!r} include kwargs its constructor "
                f"does not accept: {list(unknown_kwargs)}; accepted: "
                f"{sorted(entry.allowed_kwargs or ())}",
            )

        # Surface system/sizing mismatches, missing workload resources and
        # unhashable option values now rather than deep inside a worker.
        self._validate_system(self.build_config())
        try:
            canonical_json([
                dict(self.goal),
                *(dict(kw) for kw in self.options.values()),
                *(dict(options) for _, _, options in self.arms),
            ])
        except TypeError as exc:
            raise ValueError(
                f"scenario.goal/options values must be JSON-serialisable: {exc}"
            ) from None
        # Two entries with one task key would run one cell twice and
        # report it under two labels.
        cells: dict = {}
        for label, method, options in self.arms:
            extra = self._method_extra(method, options)
            twin = cells.setdefault((method, canonical_json(extra)), label)
            _require(
                twin == label,
                f"scenario.methods entries {twin!r} and {label!r} run the same "
                f"cell ({method!r} with options {dict(extra)}); drop one or "
                "give it different options",
            )

    def _entry(self, i: int, entry):
        """A ``methods`` entry with its method name made canonical."""
        if not isinstance(entry, Mapping):
            return self._lookup(SCHEDULERS, entry).name
        where = f"scenario.methods[{i}]"
        unknown = set(entry) - set(_ARM_KEYS)
        _require(
            not unknown,
            f"unknown {where} field(s) {sorted(unknown)}; allowed: {list(_ARM_KEYS)}",
        )
        label = entry.get("label")
        _require(
            isinstance(label, str) and label != "" and "@" not in label,
            f"{where}.label must be a non-empty string without '@', got {label!r}",
        )
        _require("method" in entry, f"{where} is missing required field 'method'")
        options = entry.get("options", {})
        _require(
            isinstance(options, Mapping),
            f"{where}.options must be a mapping of constructor kwargs",
        )
        return {
            "label": label,
            "method": self._lookup(SCHEDULERS, entry["method"]).name,
            "options": dict(options),
        }

    @property
    def arms(self) -> tuple[tuple[str, str, Mapping], ...]:
        """``(label, method, options)`` per ``methods`` entry; a plain
        name is its own label with no options of its own."""
        return tuple(
            (m, m, {}) if isinstance(m, str) else (m["label"], m["method"], m["options"])
            for m in self.methods
        )

    @property
    def labels(self) -> tuple[str, ...]:
        """The report key of each ``methods`` entry, in order."""
        return tuple(label for label, _, _ in self.arms)

    @property
    def method_names(self) -> tuple[str, ...]:
        """The distinct registered methods the entries run, in order."""
        return tuple(dict.fromkeys(method for _, method, _ in self.arms))

    @staticmethod
    def _lookup(registry, name: str):
        _require(
            isinstance(name, str),
            f"{registry.kind} names must be strings, got {name!r}",
        )
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
        check_knobs("scenario", data)
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
            "methods": [
                m if isinstance(m, str) else {**m, "options": dict(m["options"])}
                for m in self.methods
            ],
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
        if self.execution:
            out["execution"] = dict(self.execution)
        return out

    def config_hash(self) -> str:
        """Stable digest of the scenario's semantic content.

        Key ordering in source files does not matter; two scenarios with
        the same content hash identically, which is what keeps the task
        config hashes — and therefore the result cache — stable. The
        ``execution`` section is excluded: it decides *how* cells run
        (inline vs queue, worker count), never what they compute, so
        flipping dispatch modes must not invalidate anything.
        """
        doc = self.to_dict()
        doc.pop("execution", None)
        return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]

    # -- compilation ------------------------------------------------------

    def _validate_system(self, config: "ExperimentConfig") -> None:
        """Check the workloads' resource requirements against ``config``,
        up front instead of as a ``KeyError`` deep inside a worker."""
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

    @staticmethod
    def sections_for(config: "ExperimentConfig") -> dict:
        """The ``system``, ``seed`` and ``config`` sections that size a
        study as ``config`` does; :meth:`build_config` returns ``config``
        exactly from them."""
        sizing = {key: getattr(config, key) for key in _CONFIG_KEYS}
        sizing["curriculum_sets"] = list(config.curriculum_sets)
        sizing["ga"] = dataclasses.asdict(config.ga_config)
        system = {"name": config.system_name, "nodes": config.nodes,
                  "bb_units": config.bb_units}
        return {"system": system, "seed": config.seed, "config": sizing}

    def build_config(self) -> "ExperimentConfig":
        """Materialise the :class:`ExperimentConfig` this scenario sizes.

        A fixed-scale system factory (e.g. ``"theta"``) that ignores the
        sizing arguments defines the experiment's ``nodes``/``bb_units``
        itself — the trace is sized from the built system's capacities,
        and explicitly requesting a different size is an error.
        """
        from repro.cluster.system import BURST_BUFFER, NODE
        from repro.experiments.config import ExperimentConfig
        from repro.sched.ga_config import NSGA2Config

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
        for key in _CONFIG_KEYS:
            if key in self.config:
                kwargs[key] = self.config[key]
        if "curriculum_sets" in self.config:
            kwargs["curriculum_sets"] = tuple(self.config["curriculum_sets"])
        if "ga" in self.config:
            try:
                kwargs["ga_config"] = NSGA2Config(**self.config["ga"])
            except TypeError as exc:
                raise ValueError(f"config.ga: {exc}") from None
        return ExperimentConfig(**kwargs)

    def _method_extra(
        self, method: str, arm_options: Mapping
    ) -> tuple[tuple[str, object], ...]:
        """Merged constructor kwargs of one entry: goal translation, then
        the method's ``options``, then the arm's own options."""
        entry = SCHEDULERS.get(method)
        merged: dict = {}
        translations = dict(entry.goal_options)
        for key, value in self.goal.items():
            if key in translations:
                merged[translations[key]] = value
        merged.update(self.options.get(method, {}))
        merged.update(arm_options)
        return tuple(sorted(merged.items()))

    def compile(self) -> list[ExperimentTask]:
        """Compile to the (method × seed) grid cells the engine executes.

        The cells are :func:`repro.exp.runner.grid_tasks`' on
        :meth:`build_config` (same seed spawning, same cell ordering),
        each given its entry's constructor kwargs and, for an arm whose
        label is not its method's name, that label; so a scenario
        equivalent to a harness comparison produces bit-identical
        tasks, metrics and cache keys.
        """
        from repro.exp.runner import grid_tasks

        tasks = grid_tasks(
            [method for _, method, _ in self.arms],
            self.workloads,
            self.build_config(),
            seeds=self.seeds,
            n_seeds=self.replications,
            train=self.train,
            case_study=bool(self.case_study),
        )
        # grid_tasks orders cells seed-major, then by entry.
        return [
            dataclasses.replace(
                task,
                extra=self._method_extra(method, options),
                label="" if label == method else label,
            )
            for task, (label, method, options) in zip(tasks, itertools.cycle(self.arms))
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
