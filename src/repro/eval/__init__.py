"""repro.eval — paired statistics for comparing policies over seeds.

:mod:`repro.eval.stats` holds NumPy-only rank correlation, paired
bootstrap confidence intervals, win/loss matrices and the structured
:class:`~repro.eval.stats.ComparisonReport` with text and JSON renderings.
"""

from repro.eval.stats import (
    ComparisonReport,
    paired_bootstrap,
    rankdata,
    spearman,
    spearman_rows,
    win_loss,
)

__all__ = [
    "ComparisonReport",
    "paired_bootstrap",
    "rankdata",
    "spearman",
    "spearman_rows",
    "win_loss",
]
