"""The ``BENCH_hotpath.json`` performance trajectory.

One JSON file at the repository root records how the hot path has moved
over time: an append-only list of entries, each one commit's benchmark
suite run. Raw wall times are kept for reading, but comparisons use the
**normalised** value ``wall_s / calibration_s`` — wall time in units of
a fixed NumPy reference workload timed on the same machine — so a
laptop entry and a CI entry are comparable.

The regression guard (:func:`check_regression`) protects the trajectory
the other way round: CI runs the smoke-scale suite, normalises it, and
fails when any benchmark is more than ``threshold``× slower than the
last committed entry measured at the same scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

from repro.perf.hotpath import BenchResult
from repro.utils.durable import atomic_write

__all__ = [
    "TRAJECTORY_PATH",
    "TRAJECTORY_SCHEMA_VERSION",
    "make_entry",
    "load_trajectory",
    "append_entry",
    "latest_entry",
    "check_regression",
    "format_entry",
]

TRAJECTORY_SCHEMA_VERSION = 1

#: default trajectory location: the repository root
TRAJECTORY_PATH = Path(__file__).resolve().parents[3] / "BENCH_hotpath.json"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def make_entry(
    label: str,
    results: dict[str, BenchResult],
    calibration_s: float,
    scale: str = "full",
    commit: str | None = None,
) -> dict:
    """Assemble one trajectory entry from a suite run."""
    if calibration_s <= 0:
        raise ValueError("calibration_s must be positive")
    return {
        "label": label,
        "commit": _git_commit() if commit is None else commit,
        "date": time.strftime("%Y-%m-%d"),
        "scale": scale,
        "calibration_s": calibration_s,
        "results": {
            name: {
                **r.to_json_dict(),
                "normalized": r.wall_s / calibration_s,
            }
            for name, r in sorted(results.items())
        },
    }


def load_trajectory(path: str | os.PathLike = TRAJECTORY_PATH) -> dict:
    """The trajectory document (an empty skeleton when absent)."""
    path = Path(path)
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA_VERSION, "trajectory": []}
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != TRAJECTORY_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trajectory schema {doc.get('schema')!r} in {path}"
        )
    return doc


def append_entry(entry: dict, path: str | os.PathLike = TRAJECTORY_PATH) -> dict:
    """Append ``entry`` to the trajectory file; returns the document."""
    path = Path(path)
    doc = load_trajectory(path)
    doc["trajectory"].append(entry)

    def dump(handle) -> None:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    atomic_write(path, dump)
    return doc


def latest_entry(
    doc: dict, scale: str | None = None, before_label: str | None = None
) -> dict | None:
    """The most recent entry (optionally: at ``scale``, excluding one label)."""
    for entry in reversed(doc.get("trajectory", [])):
        if scale is not None and entry.get("scale") != scale:
            continue
        if before_label is not None and entry.get("label") == before_label:
            continue
        return entry
    return None


def check_regression(
    current: dict, baseline: dict, threshold: float = 1.5
) -> list[str]:
    """Normalised-slowdown guard: current vs a committed baseline entry.

    Returns one message per benchmark whose ``normalized`` value exceeds
    ``threshold``× the baseline's (empty list = pass). Benchmarks absent
    from either entry are skipped — the guard protects what both runs
    measured.
    """
    failures = []
    base_results = baseline.get("results", {})
    for name, cur in sorted(current.get("results", {}).items()):
        base = base_results.get(name)
        if base is None:
            continue
        ratio = cur["normalized"] / base["normalized"]
        if ratio > threshold:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"{baseline.get('label', '?')} "
                f"(normalized {cur['normalized']:.3f} vs {base['normalized']:.3f}, "
                f"threshold {threshold:.2f}x)"
            )
    return failures


def format_entry(entry: dict) -> str:
    """Human-readable table of one trajectory entry."""
    lines = [
        f"{entry.get('label', '?')} ({entry.get('commit', '?') or 'no commit'}, "
        f"{entry.get('date', '?')}, scale={entry.get('scale', '?')}, "
        f"calibration {entry.get('calibration_s', float('nan')):.3f}s)",
        f"  {'benchmark':<22} {'wall s':>10} {'per unit ms':>12} {'normalized':>11}",
    ]
    for name, r in sorted(entry.get("results", {}).items()):
        line = (
            f"  {name:<22} {r['wall_s']:>10.3f} {r['per_unit_ms']:>12.4f} "
            f"{r['normalized']:>11.3f}"
        )
        speedup = r.get("meta", {}).get("speedup_vs_fresh")
        if speedup is not None:
            line += f"  ({speedup:.1f}x vs fresh encode)"
        lines.append(line)
    return "\n".join(lines)
