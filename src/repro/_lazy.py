"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names imports all
of them up front, and every fresh interpreter pays for that whether it
uses them or not. :func:`lazy_exports` resolves each name on first
access instead::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.sim.metrics": ["MetricReport", "compute_metrics"],
    })
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, list[str]]):
    """The ``(__getattr__, __dir__, __all__)`` of ``package``, whose
    ``exports`` map each defining module to the names it provides."""
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owner[name]), name)
        setattr(sys.modules[package], name, value)  # later lookups skip this hook
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)
