"""Experiment harness: the sizing of a study and the steps of one cell.

``config``
    :class:`ExperimentConfig` (system scale, trace size, training budget,
    seed); no NumPy, so a scenario compiles without it.
``harness``
    The base trace, building a method by name and curriculum training.
    A paper figure is a scenario (``examples/scenarios/``), and
    ``FIDELITY.json`` records what the figures' claims read here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.experiments.config": ["ExperimentConfig"],
    "repro.experiments.harness": ["prepare_base_trace", "train_method"],
})
