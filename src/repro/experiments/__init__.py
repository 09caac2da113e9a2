"""Experiment harness: one entry point per paper table/figure.

``harness``
    Shared machinery: build workloads, train the trainable methods,
    run (scheduler × workload) grids, collect metric reports.
``report``
    ASCII table/series rendering matching the paper's rows.
``figures``
    ``fig3`` … ``fig10`` and ``overhead`` — each regenerates the data
    behind the corresponding paper figure (see DESIGN.md §4 for the
    index) and returns both raw data and printable text.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.experiments.harness": ["ExperimentConfig", "prepare_base_trace", "train_method"],
    "repro.experiments.figures": [
        "fig3_mlp_vs_cnn", "fig4_training_order", "fig5_fig6_comparison", "fig7_kiviat",
        "fig8_rbb_timeline", "fig9_rbb_distribution", "fig10_three_resources", "overhead_study",
    ],
    "repro.experiments.report": ["format_table", "format_series"],
})
