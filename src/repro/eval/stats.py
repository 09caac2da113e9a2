"""Statistical comparison of policies: bootstrap CIs, win/loss.

Given per-unit values (one row per seed group, trace or decision) for
every policy, this module turns them into *paired* statistics — each bootstrap resample draws the
same units for both policies, so between-seed variance cancels exactly
as in a paired test — plus a win/loss matrix and a structured
:class:`ComparisonReport` with text and JSON renderings.

Everything is NumPy-only and deterministic: the bootstrap RNG is seeded
explicitly (``bootstrap_seed``), so a report is reproducible bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "spearman",
    "spearman_rows",
    "rankdata",
    "paired_bootstrap",
    "win_loss",
    "ComparisonReport",
]


def rankdata(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties shared, like scipy's ``rankdata``."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation; NaN when either side is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2:
        return float("nan")
    ra, rb = rankdata(a), rankdata(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return float("nan")
    return float(((ra - ra.mean()) * (rb - rb.mean())).mean() / (sa * sb))


def _masked_rank_rows(scores: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Row-wise average ranks among the masked-valid entries, (N, W).

    Uses the counting identity ``rank = #less + (#equal + 1)/2`` so all
    rows rank in one broadcast pass (W is a window size — single
    digits — so the O(W²) comparison tensor is tiny). Invalid entries
    get rank 0 and must be excluded by the caller via ``masks``.
    """
    less = ((scores[:, None, :] < scores[:, :, None]) & masks[:, None, :]).sum(-1)
    equal = ((scores[:, None, :] == scores[:, :, None]) & masks[:, None, :]).sum(-1)
    return np.where(masks, less + 0.5 * (equal + 1), 0.0)


def spearman_rows(
    scores_a: np.ndarray, scores_b: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Per-row Spearman correlation over valid slots, vectorised.

    ``scores_a``/``scores_b`` are (N, W) score matrices and ``masks``
    the (N, W) valid-slot mask; returns (N,) correlations with NaN for
    rows with fewer than two valid slots or a constant side —
    numerically identical to calling :func:`spearman` row by row, but
    one NumPy pass instead of N Python calls.
    """
    masks = np.asarray(masks, dtype=bool)
    ra = _masked_rank_rows(np.asarray(scores_a, dtype=float), masks)
    rb = _masked_rank_rows(np.asarray(scores_b, dtype=float), masks)
    n = masks.sum(axis=1)
    safe_n = np.maximum(n, 1)
    mean_a = ra.sum(axis=1) / safe_n
    mean_b = rb.sum(axis=1) / safe_n
    da = np.where(masks, ra - mean_a[:, None], 0.0)
    db = np.where(masks, rb - mean_b[:, None], 0.0)
    cov = (da * db).sum(axis=1)
    denom = np.sqrt((da * da).sum(axis=1) * (db * db).sum(axis=1))
    valid = (n >= 2) & (denom > 0.0)
    return np.where(valid, cov / np.where(valid, denom, 1.0), np.nan)


def paired_bootstrap(
    unit_values: np.ndarray,
    n_bootstrap: int = 1000,
    seed: int = 0,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Paired bootstrap CIs of all pairwise mean differences.

    ``unit_values`` is (U units, P policies): a per-unit statistic (e.g.
    agreement with the logged policy) for each policy. Returns three
    (P, P) matrices ``(mean_diff, ci_lo, ci_hi)`` for the row-minus-
    column difference, with the 95% percentile interval taken over
    ``n_bootstrap`` resamples of the *units* — the same resample indexes
    both policies, making the comparison paired.
    """
    unit_values = np.asarray(unit_values, dtype=float)
    if unit_values.ndim != 2:
        raise ValueError("unit_values must be (units, policies)")
    n_units, n_policies = unit_values.shape
    if n_units == 0:
        raise ValueError("paired_bootstrap needs at least one unit")
    mean_diff = unit_values.mean(axis=0)[:, None] - unit_values.mean(axis=0)[None, :]
    rng = np.random.default_rng(seed)
    # Resampled means, chunked over the bootstrap axis: with
    # decision-level units a store can hold tens of thousands of rows,
    # and materialising the full (B, U, P) gather would cost hundreds of
    # MB for nothing but a mean. ~8M gathered elements per chunk keeps
    # the transient under ~64 MB at any scale.
    boot_means = np.empty((n_bootstrap, n_policies))
    chunk = max(1, int(8_000_000 // max(n_units * n_policies, 1)))
    for start in range(0, n_bootstrap, chunk):
        stop = min(start + chunk, n_bootstrap)
        idx = rng.integers(0, n_units, size=(stop - start, n_units))
        boot_means[start:stop] = unit_values[idx].mean(axis=1)
    # (B, P) resampled means → (B, P, P) pairwise diffs.
    diffs = boot_means[:, :, None] - boot_means[:, None, :]
    ci_lo = np.percentile(diffs, 2.5, axis=0)
    ci_hi = np.percentile(diffs, 97.5, axis=0)
    return mean_diff, ci_lo, ci_hi


def win_loss(unit_values: np.ndarray) -> np.ndarray:
    """(P, P) counts of units where the row policy strictly beats the column."""
    unit_values = np.asarray(unit_values, dtype=float)
    return (unit_values[:, :, None] > unit_values[:, None, :]).sum(axis=0)


@dataclass
class ComparisonReport:
    """Structured outcome of one offline policy comparison.

    All pairwise matrices are indexed ``[row policy][column policy]`` in
    :attr:`policies` order. ``regret[q][p]`` is the mean counterfactual
    score regret of following policy *p*'s choices as scored by policy
    *q* (diagonal zero by construction; decisions the scoring policy
    cannot score — NaN at the compared slot — are excluded from its
    mean).
    """

    policies: tuple[str, ...]
    n_traces: int
    n_decisions: int
    #: fraction of decisions where each policy picks the logged action
    agreement: dict[str, float]
    #: fraction of decisions where two policies pick the same action
    pairwise_agreement: np.ndarray
    #: mean per-decision Spearman correlation of valid-slot scores
    rank_correlation: np.ndarray
    #: mean counterfactual score regret, scorer (row) × actor (column)
    regret: np.ndarray
    #: row − column mean agreement difference and its 95% bootstrap CI
    mean_diff: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    #: units where the row policy's agreement strictly beats the column's
    wins: np.ndarray
    #: what one bootstrap unit was: "seed", "trace" or "decision"
    unit: str = "trace"
    n_units: int = 0
    n_bootstrap: int = 0
    bootstrap_seed: int = 0
    #: per-trace breakdown: {trace key: {policy: agreement}}
    per_trace: dict = field(default_factory=dict)

    # -- rendering ---------------------------------------------------------

    def _matrix_rows(self, matrix: np.ndarray) -> dict:
        return {
            name: [float(v) for v in row]
            for name, row in zip(self.policies, np.asarray(matrix))
        }

    def summary(self) -> str:
        """Aligned text tables (the ``repro eval`` output)."""
        from repro.experiments.report import format_table

        cols = list(self.policies)
        blocks = [
            format_table(
                f"Agreement with logged actions "
                f"({self.n_decisions} decisions, {self.n_traces} trace(s))",
                ["agreement"],
                {name: [self.agreement[name]] for name in self.policies},
            ),
            format_table(
                "Pairwise choice agreement", cols,
                self._matrix_rows(self.pairwise_agreement),
            ),
            format_table(
                "Mean Spearman rank correlation of scores", cols,
                self._matrix_rows(self.rank_correlation),
            ),
            format_table(
                "Counterfactual score regret (row scores column's choices)",
                cols,
                self._matrix_rows(self.regret),
            ),
            format_table(
                f"Paired bootstrap Δagreement, row − column "
                f"(95% CI lower; {self.n_bootstrap} resamples over "
                f"{self.n_units} {self.unit}(s))",
                cols,
                self._matrix_rows(self.ci_lo),
            ),
            format_table(
                "Wins (units where row strictly beats column)", cols,
                {
                    name: [int(v) for v in row]
                    for name, row in zip(self.policies, self.wins)
                },
            ),
        ]
        return "\n\n".join(blocks)

    def to_json_dict(self) -> dict:
        def matrix(m: np.ndarray) -> dict:
            return {
                a: {b: _json_float(v) for b, v in zip(self.policies, row)}
                for a, row in zip(self.policies, np.asarray(m))
            }

        return {
            "policies": list(self.policies),
            "n_traces": self.n_traces,
            "n_decisions": self.n_decisions,
            "agreement": {k: _json_float(v) for k, v in self.agreement.items()},
            "pairwise_agreement": matrix(self.pairwise_agreement),
            "rank_correlation": matrix(self.rank_correlation),
            "regret": matrix(self.regret),
            "bootstrap": {
                "unit": self.unit,
                "n_units": self.n_units,
                "n_bootstrap": self.n_bootstrap,
                "seed": self.bootstrap_seed,
                "mean_diff": matrix(self.mean_diff),
                "ci_lo": matrix(self.ci_lo),
                "ci_hi": matrix(self.ci_hi),
            },
            "wins": {
                a: {b: int(v) for b, v in zip(self.policies, row)}
                for a, row in zip(self.policies, self.wins)
            },
            "per_trace": self.per_trace,
        }


def _json_float(value) -> "float | None":
    """NaN → None so the report serialises as strict JSON."""
    value = float(value)
    return None if np.isnan(value) else value
