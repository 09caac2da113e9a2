"""On-disk result cache keyed by task config hash.

Layout: one JSON file per task under the cache directory,
``<cache_dir>/<key>.json``, holding a :class:`TaskResult` rendered by
:meth:`TaskResult.to_json_dict`. Writes are atomic replaces
(:func:`repro.utils.durable.atomic_write`) so concurrent workers (or
interrupted runs) can never leave a torn entry — readers either see a
complete result or nothing.

Because the key hashes the *entire* task (method, workloads, seed,
config, training flags), a cache hit is exact: same inputs, same
deterministic pipeline, same metrics. Changing any knob changes the key.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.exp.records import TaskResult
from repro.utils.durable import atomic_write

__all__ = ["ResultCache"]


class ResultCache:
    """A directory of per-task JSON result files."""

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def get(self, key: str) -> TaskResult | None:
        """Load a cached result, or None on miss/corruption."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            result = TaskResult.decode(json.loads(path.read_text()))
        except json.JSONDecodeError:
            result = None
        if result is not None:
            result.source = "cache"
        # A torn, stale-schema or wrong-shape entry counts as a miss;
        # the task reruns and the entry is rewritten.
        return result

    def put(self, result: TaskResult) -> None:
        """Atomically persist ``result`` under its key."""
        payload = json.dumps(result.to_json_dict(), sort_keys=True)
        atomic_write(
            self._path(result.key), lambda handle: handle.write(payload)
        )

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()
