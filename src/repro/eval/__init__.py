"""repro.eval — paired statistics for comparing policies over seeds.

:mod:`repro.eval.stats` holds NumPy-only paired bootstrap confidence
intervals and win/loss matrices; :mod:`repro.eval.fidelity` builds the
rows of the paper-fidelity gate, ``FIDELITY.json``, from them.
"""

from repro.eval.stats import paired_bootstrap, win_loss

__all__ = ["paired_bootstrap", "win_loss"]
