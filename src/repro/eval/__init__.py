"""repro.eval — paired statistics for comparing policies over seeds.

:mod:`repro.eval.stats` holds NumPy-only paired bootstrap confidence
intervals and win/loss matrices.
"""

from repro.eval.stats import paired_bootstrap, win_loss

__all__ = ["paired_bootstrap", "win_loss"]
