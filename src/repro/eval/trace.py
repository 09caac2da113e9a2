"""Decision-trace records and their on-disk store.

A :class:`DecisionTrace` is the column-oriented record of every
scheduling decision one simulated replay made: the encoded DFP state,
the measurement and goal vectors, the feasibility/age prior, the live
decision scores (where the policy produced any), the valid-slot mask,
per-slot candidate job features, and the chosen action. Stored as
arrays, a whole trace replays through a policy in one batched forward
pass — no event loop.

Persistence is NPZ+JSONL: each trace is one compressed ``.npz`` (arrays
plus a JSON metadata string), and the :class:`TraceStore` directory
keeps an append-only ``index.jsonl`` with one summary line per recorded
trace. Traces are keyed ``<task_key>_<workload>`` — the same config
hash the experiment engine uses for its result cache — so a trace is
exactly as reusable (and exactly as invalidated by config changes) as
the metrics it was recorded alongside.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.utils.durable import atomic_write

__all__ = ["DecisionTrace", "TraceStore", "trace_key"]

#: bump when the array layout or metadata contract changes incompatibly
TRACE_SCHEMA_VERSION = 1

#: per-slot candidate features appended after the R request fractions
EXTRA_FEATURES = ("walltime", "queued", "fits")

#: float arrays narrowed to float32 by compact storage. ``times`` stays
#: float64 (the simulation clock spans months at second resolution —
#: beyond float32's 24-bit mantissa); ids/masks/actions are not floats.
_COMPACT_ARRAYS = (
    "states",
    "measurements",
    "goals",
    "priors",
    "scores",
    "job_features",
)


def trace_key(task_key: str, workload: str) -> str:
    """The store key of one (task, workload) trace."""
    return f"{task_key}_{workload}"


@dataclass
class DecisionTrace:
    """One replay's scheduling decisions, column-oriented.

    Shapes (``N`` decisions, ``W`` window slots, ``S`` state dim,
    ``M`` measurements, ``F`` job features):

    * ``states`` (N, S) — encoded §III-A state vectors
    * ``measurements`` / ``goals`` (N, M)
    * ``masks`` (N, W) bool — valid (populated) window slots
    * ``priors`` (N, W) — raw feasibility/age prior (zeros when the
      recorded policy used none)
    * ``scores`` (N, W) — the live policy's final decision scores;
      ``NaN`` rows where the policy exposed none (heuristics, ε-greedy
      exploration steps)
    * ``actions`` (N,) — chosen window slot
    * ``times`` (N,) — simulation clock at each decision
    * ``job_ids`` (N, W) — candidate job ids, ``-1`` padding
    * ``job_features`` (N, W, F) — per-slot candidate features: the R
      per-resource request fractions, then ``walltime``, ``queued``
      seconds and a ``fits`` flag (see ``meta["feature_names"]``)
    """

    states: np.ndarray
    measurements: np.ndarray
    goals: np.ndarray
    masks: np.ndarray
    priors: np.ndarray
    scores: np.ndarray
    actions: np.ndarray
    times: np.ndarray
    job_ids: np.ndarray
    job_features: np.ndarray
    meta: dict = field(default_factory=dict)

    _ARRAYS = (
        "states",
        "measurements",
        "goals",
        "masks",
        "priors",
        "scores",
        "actions",
        "times",
        "job_ids",
        "job_features",
    )

    def __post_init__(self) -> None:
        n = self.states.shape[0]
        for name in self._ARRAYS:
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(
                    f"trace arrays disagree on decision count: "
                    f"states has {n}, {name} has {arr.shape[0]}"
                )
        if self.actions.size and (
            (self.actions < 0).any() or (self.actions >= self.window_size).any()
        ):
            raise ValueError("trace actions out of window range")

    # -- shape helpers -----------------------------------------------------

    @property
    def n_decisions(self) -> int:
        return int(self.states.shape[0])

    @property
    def window_size(self) -> int:
        return int(self.masks.shape[1])

    @property
    def key(self) -> str:
        return trace_key(self.meta.get("task_key", ""), self.meta.get("workload", ""))

    def feature_index(self, name: str) -> int:
        """Column of ``name`` in ``job_features`` (see meta)."""
        names = list(self.meta.get("feature_names", ()))
        try:
            return names.index(name)
        except ValueError:
            raise KeyError(
                f"trace has no job feature {name!r}; available: {names}"
            ) from None

    def feature(self, name: str) -> np.ndarray:
        """The (N, W) slice of one per-slot job feature."""
        return self.job_features[:, :, self.feature_index(name)]

    # -- persistence -------------------------------------------------------

    def save(self, path: str | os.PathLike, compact: bool = False) -> None:
        """Write the trace as one compressed NPZ (atomic replace).

        ``compact=True`` stores the float state/score/feature arrays as
        float32 — roughly half the bytes of a paper-scale store — at the
        cost of ~1e-7 relative rounding on replayed scores (decision
        times keep full precision). :meth:`load` widens the arrays back
        to float64, so downstream evaluation code sees one dtype either
        way; ``meta["compact"]`` records which fidelity was stored.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {name: getattr(self, name) for name in self._ARRAYS}
        if compact:
            for name in _COMPACT_ARRAYS:
                payload[name] = np.asarray(payload[name], dtype=np.float32)
        meta = dict(self.meta)
        # Authoritative per-save, overriding any stale flag a reloaded
        # trace may carry in its metadata.
        meta["schema"] = TRACE_SCHEMA_VERSION
        meta["compact"] = bool(compact)
        payload["meta"] = np.array(json.dumps(meta, sort_keys=True))
        atomic_write(
            path,
            lambda handle: np.savez_compressed(handle, **payload),
            binary=True,
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "DecisionTrace":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            # Storage-level details, not trace semantics: drop them so a
            # save → load → save round trip is fidelity-transparent.
            meta.pop("schema", None)
            meta.pop("compact", None)
            arrays = {name: data[name] for name in cls._ARRAYS}
            for name in _COMPACT_ARRAYS:
                # Compact stores come back widened so evaluation code
                # handles exactly one dtype.
                if arrays[name].dtype == np.float32:
                    arrays[name] = arrays[name].astype(np.float64)
            return cls(**arrays, meta=meta)


class TraceStore:
    """A directory of decision traces keyed by ``<task_key>_<workload>``.

    Writes are atomic replaces so concurrent worker processes can
    record into one store; every successful ``put`` also
    appends a one-line JSON summary to ``index.jsonl`` for cheap
    inspection without decompressing any NPZ. The index is strictly
    append-only (rewriting it would break concurrent recording), so a
    re-recorded key appears once per recording — when reading it, the
    last line per key wins; :meth:`keys`/:meth:`load_all` consult the
    NPZ files themselves and are always exact.
    """

    def __init__(self, trace_dir: str | os.PathLike, compact: bool = False) -> None:
        # The directory is created lazily on the first put() so that
        # read-only use (lookups, `repro eval` on a mistyped path) never
        # litters the filesystem with empty stores.
        self.trace_dir = Path(trace_dir)
        #: store new traces as float32 (see :meth:`DecisionTrace.save`);
        #: reading is dtype-agnostic, so compact and full-precision
        #: traces can share one directory.
        self.compact = bool(compact)

    def _path(self, key: str) -> Path:
        return self.trace_dir / f"{key}.npz"

    @property
    def index_path(self) -> Path:
        return self.trace_dir / "index.jsonl"

    def put(self, trace: DecisionTrace) -> str:
        """Persist ``trace``; returns its store key."""
        key = trace.key
        if not trace.meta.get("task_key") or not trace.meta.get("workload"):
            raise ValueError(
                "trace metadata must carry 'task_key' and 'workload' to be stored"
            )
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        trace.save(self._path(key), compact=self.compact)
        entry = {
            "key": key,
            "task_key": trace.meta.get("task_key"),
            "workload": trace.meta.get("workload"),
            "method": trace.meta.get("method", ""),
            "seed": trace.meta.get("seed"),
            "n_decisions": trace.n_decisions,
            "file": f"{key}.npz",
        }
        with open(self.index_path, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return key

    def get(self, task_key: str, workload: str) -> DecisionTrace | None:
        """Load one trace, or None when absent."""
        path = self._path(trace_key(task_key, workload))
        if not path.exists():
            return None
        return DecisionTrace.load(path)

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def stored_compact(self, key: str) -> bool | None:
        """Whether the persisted trace was saved compact (None = absent).

        Reads only the NPZ's metadata member — cheap enough for the
        experiment engine to verify storage *fidelity*, not just
        existence, before honouring a cached result.
        """
        path = self._path(key)
        if not path.exists():
            return None
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
        return bool(meta.get("compact", False))

    def keys(self) -> tuple[str, ...]:
        """Store keys of every persisted trace, sorted."""
        return tuple(sorted(p.stem for p in self.trace_dir.glob("*.npz")))

    def load_all(self, keys: "tuple[str, ...] | list[str] | None" = None) -> list[DecisionTrace]:
        """Load traces for ``keys`` (default: everything in the store)."""
        if keys is None:
            keys = self.keys()
        missing = [k for k in keys if not self.has(k)]
        if missing:
            raise FileNotFoundError(
                f"trace store {self.trace_dir} is missing {missing[:5]}"
            )
        return [DecisionTrace.load(self._path(k)) for k in keys]

    def __len__(self) -> int:
        return sum(1 for _ in self.trace_dir.glob("*.npz"))

    def __contains__(self, key: str) -> bool:
        return self.has(key)
