"""Shared utilities: deterministic RNG handling and small helpers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.utils.rng": ["as_generator", "spawn_generators"],
})
