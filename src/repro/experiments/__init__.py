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

from repro.experiments.harness import (
    ExperimentConfig,
    prepare_base_trace,
    train_method,
)
from repro.experiments.figures import (
    fig3_mlp_vs_cnn,
    fig4_training_order,
    fig5_fig6_comparison,
    fig7_kiviat,
    fig8_rbb_timeline,
    fig9_rbb_distribution,
    fig10_three_resources,
    overhead_study,
)
from repro.experiments.report import format_series, format_table

__all__ = [
    "ExperimentConfig",
    "prepare_base_trace",
    "train_method",
    "fig3_mlp_vs_cnn",
    "fig4_training_order",
    "fig5_fig6_comparison",
    "fig7_kiviat",
    "fig8_rbb_timeline",
    "fig9_rbb_distribution",
    "fig10_three_resources",
    "overhead_study",
    "format_table",
    "format_series",
]
