"""Structured task/result records for the experiment engine.

An :class:`ExperimentTask` is one cell of a (method × workloads × seed)
grid: it fully determines a scheduler instantiation, an optional
curriculum-training pass and the ordered evaluation of one or more
workloads. Tasks are frozen dataclasses so they pickle cleanly across
process boundaries and hash stably for the on-disk result cache.

A :class:`TaskResult` is the matching structured output: one
:class:`~repro.sim.metrics.MetricReport` per evaluated workload plus
provenance (wall time, worker pid, whether the result came from a live
run, the cache or a checkpoint). Both directions of JSON conversion are
lossless, which is what makes caching and resumable checkpointing safe.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.metrics import MetricReport
from repro.utils.durable import seal_line

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig

__all__ = ["ExperimentTask", "TaskResult", "task_key", "canonical_json"]

#: bump when task execution semantics change incompatibly — stale cache
#: entries written under an older scheme are then never reused.
TASK_SCHEMA_VERSION = 1


def _canonicalize(obj):
    """Reduce ``obj`` to JSON-stable primitives (dataclasses included)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            **{
                f.name: _canonicalize(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for hashing")


def _config_state(config) -> tuple:
    """The objects a config's fields hold, a list field copied."""
    return tuple(
        tuple(value) if type(value) is list else value
        for value in vars(config).values()
    )


def _same_objects(old: tuple, new: tuple) -> bool:
    """Whether two states hold the same objects, copies item by item."""
    return len(old) == len(new) and all(
        a is b or (type(a) is tuple and type(b) is tuple and _same_objects(a, b))
        for a, b in zip(old, new)
    )


class _ConfigRendering:
    """One :class:`ExperimentConfig`'s hashing and spec renderings.

    Every cell of a grid shares one config, a mutable dataclass, so the
    last config rendered is remembered with the objects its fields held
    then. A field assigned since (or a list field changed in place)
    renders afresh; the memo keeps those objects alive, so an identity
    it compares cannot have been reused.
    """

    __slots__ = ("config", "state", "canonical", "_spec")

    def __init__(self, config) -> None:
        self.config = config
        self.state = _config_state(config)
        self.canonical = _canonicalize(config)
        self._spec: dict | None = None

    def spec(self) -> dict:
        """The constructor fields (:meth:`ExperimentTask.to_json_dict`'s
        ``config``), a fresh copy per call."""
        if self._spec is None:
            self._spec = dataclasses.asdict(self.config)
        spec = dict(self._spec)
        spec["curriculum_sets"] = list(spec["curriculum_sets"])
        spec["ga_config"] = dict(spec["ga_config"])
        return spec


_last_rendering: _ConfigRendering | None = None


def _rendered(config) -> _ConfigRendering:
    global _last_rendering
    rendering = _last_rendering
    if rendering is None or rendering.config is not config or not _same_objects(
        rendering.state, _config_state(config)
    ):
        rendering = _last_rendering = _ConfigRendering(config)
    return rendering


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for config hashing."""
    return json.dumps(_canonicalize(obj), sort_keys=True, separators=(",", ":"))


#: task fields that determine what execute_task computes — `label` is
#: display provenance, deliberately excluded so relabelling a cell still
#: hits the cache.
_SEMANTIC_FIELDS = ("method", "workloads", "seed", "config", "train", "case_study", "extra")


def task_key(task: "ExperimentTask") -> str:
    """Stable hex digest identifying a task's semantic configuration."""
    fields = {f: _canonicalize(getattr(task, f)) for f in _SEMANTIC_FIELDS if f != "config"}
    fields["config"] = _rendered(task.config).canonical
    # canonical_json of the same payload, the config's part rendered once
    payload = json.dumps(
        {"schema": TASK_SCHEMA_VERSION, "task": fields},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class ExperimentTask:
    """One self-contained grid cell.

    Parameters
    ----------
    method:
        Registered scheduler name (see :data:`repro.api.registry.SCHEDULERS`).
    workloads:
        Workload specs evaluated *in order* by one scheduler instance, so
        train-once/evaluate-many semantics (and the scheduler's RNG
        stream across workloads) match the serial harness exactly.
    seed:
        Root seed of this cell. It overrides ``config.seed``, so one
        config fans out over many seeds without copies.
    config:
        The :class:`~repro.experiments.config.ExperimentConfig` sizing.
    train:
        Curriculum-train trainable methods before evaluation.
    case_study:
        Use the §V-E three-resource (power-extended) system and the
        case-study workload builder.
    extra:
        Additional scheduler-constructor keyword arguments as a tuple of
        (name, value) pairs; values must be JSON primitives so the task
        stays hashable (e.g. ``(("state_module", "cnn"),)``).
    label:
        Display name for result pivoting; defaults to ``method``. Lets
        two cells of the same method (e.g. an MLP-vs-CNN ablation)
        coexist in one grid.
    """

    method: str
    workloads: tuple[str, ...]
    seed: int
    config: "ExperimentConfig"
    train: bool = False
    case_study: bool = False
    extra: tuple[tuple[str, object], ...] = ()
    label: str = ""

    @property
    def display_name(self) -> str:
        return self.label or self.method

    @functools.cached_property
    def _key(self) -> str:
        return task_key(self)

    def key(self) -> str:
        """:func:`task_key` of this cell, hashed once per instance."""
        return self._key

    def to_json_dict(self) -> dict:
        """Lossless JSON rendering (the distributed work queue's task spec).

        The config is flattened to its constructor fields, so the
        round-trip re-validates on load and the reconstructed task hashes
        to the identical :func:`task_key` — a queued cell claimed on
        another host resolves to the same cache/journal entry.
        """
        return {
            "method": self.method,
            "workloads": list(self.workloads),
            "seed": self.seed,
            "config": _rendered(self.config).spec(),
            "train": self.train,
            "case_study": self.case_study,
            "extra": [[name, value] for name, value in self.extra],
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentTask":
        from repro.experiments.config import ExperimentConfig
        from repro.sched.ga_config import NSGA2Config

        config = dict(data["config"])
        config["curriculum_sets"] = tuple(config["curriculum_sets"])
        config["ga_config"] = NSGA2Config(**config["ga_config"])
        return cls(
            method=data["method"],
            workloads=tuple(data["workloads"]),
            seed=int(data["seed"]),
            config=ExperimentConfig(**config),
            train=bool(data.get("train", False)),
            case_study=bool(data.get("case_study", False)),
            extra=tuple((name, value) for name, value in data.get("extra", ())),
            label=data.get("label", ""),
        )


def _hostname() -> str:
    import socket

    return socket.gethostname()


@dataclass
class TaskResult:
    """Structured outcome of one executed (or recalled) task."""

    key: str
    method: str
    seed: int
    workloads: tuple[str, ...]
    metrics: dict[str, MetricReport]
    wall_time: float
    worker_pid: int = field(default_factory=os.getpid)
    #: "run" (executed now), "cache" (result cache hit), "checkpoint"
    #: (restored while resuming an interrupted grid) or "queue" (already
    #: done in the queue directory before the dispatch started)
    source: str = "run"
    label: str = ""
    #: queue-dispatch worker that executed the cell ("" for a cell run
    #: inline)
    worker_id: str = ""
    #: host the cell executed on; with ``worker_id`` this makes merged
    #: multi-worker journal shards auditable
    hostname: str = field(default_factory=_hostname)

    @property
    def display_name(self) -> str:
        return self.label or self.method

    def report(self, workload: str) -> MetricReport:
        return self.metrics[workload]

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "method": self.method,
            "seed": self.seed,
            "workloads": list(self.workloads),
            "metrics": {w: r.full_dict() for w, r in self.metrics.items()},
            "wall_time": self.wall_time,
            "worker_pid": self.worker_pid,
            "source": self.source,
            "label": self.label,
            "worker_id": self.worker_id,
            "hostname": self.hostname,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TaskResult":
        return cls(
            key=data["key"],
            method=data["method"],
            seed=int(data["seed"]),
            workloads=tuple(data["workloads"]),
            metrics={
                w: MetricReport.from_dict(r) for w, r in data["metrics"].items()
            },
            wall_time=float(data["wall_time"]),
            worker_pid=int(data.get("worker_pid", 0)),
            source=data.get("source", "run"),
            label=data.get("label", ""),
            worker_id=data.get("worker_id", ""),
            hostname=data.get("hostname", ""),
        )

    def to_sealed_line(self) -> str:
        """The journal form of a result (checkpoint, queue shards, the
        worker spool): canonical JSON plus a CRC32 seal."""
        return seal_line(json.dumps(self.to_json_dict(), sort_keys=True))

    @classmethod
    def decode(cls, data: object) -> "TaskResult | None":
        """Decode-or-reject for records read back from disk.

        The single rule every persisted-result reader (cache,
        checkpoint journal, queue shards) applies: a document that is
        valid JSON but not a well-formed result — wrong container type,
        missing or null fields, a stale schema — is rejected (None),
        never raised out of the read.
        """
        try:
            return cls.from_json_dict(data)
        except (KeyError, ValueError, TypeError, AttributeError):
            return None
