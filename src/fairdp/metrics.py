"""Per-group utility metrics, privacy-impact testing, and fairness gaps.

``group_report`` evaluates a model per group; ``privacy_impact`` compares a
private model's report against a non-private baseline and tests whether the
per-group accuracy drops stay within a threshold of each other. The
within-model gaps (demographic parity, equalized odds) treat the decision
as binary: predicted-positive means the argmax class equals a designated
positive class. They read the predictions of a ``GroupReport``, so each
model's test set is evaluated once.

All metrics are pure and invariant to row order. For more than two groups,
pairwise definitions are summarized by the maximum gap over pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DataError


@dataclass(frozen=True)
class GroupReport:
    """Per-group test accuracy and mean loss, the overall accuracy, and
    each row's predicted class, which the fairness gaps read."""

    group_names: tuple[str, ...]
    accuracy: np.ndarray
    mean_loss: np.ndarray
    counts: np.ndarray
    overall_accuracy: float
    predictions: np.ndarray


@dataclass(frozen=True)
class ImpactReport:
    """Signed per-group accuracy change of a private model vs its baseline."""

    group_names: tuple[str, ...]
    delta: np.ndarray
    max_pairwise_gap: float
    tau: float
    passes: bool


def evaluation_counts(data, what: str = "evaluation data") -> np.ndarray:
    """Per-group row counts of ``data``; a DataError names ``what`` and
    every group with no row, since its metrics would be undefined."""
    counts = data.group_sizes()
    if np.any(counts == 0):
        missing = [data.group_names[k] for k in np.flatnonzero(counts == 0)]
        raise DataError(f"empty group(s) in {what}: {missing}")
    return counts


def group_report(spec: model.ModelSpec, params: np.ndarray, data) -> GroupReport:
    """Exact per-group accuracy and mean (regularized) loss on a dataset."""
    counts = evaluation_counts(data)
    predictions, losses = model.predictions_and_losses(spec, params, data)
    correct = (predictions == data.labels).astype(np.float64)
    num_groups = data.num_groups
    acc = np.bincount(data.groups, weights=correct, minlength=num_groups) / counts
    loss = np.bincount(data.groups, weights=losses, minlength=num_groups) / counts
    return GroupReport(data.group_names, acc, loss, counts, float(correct.mean()),
                       predictions)


def _max_pairwise_gap(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size < 2:
        return float("nan")
    return float(finite.max() - finite.min())


def privacy_impact(private: GroupReport, nonprivate: GroupReport, tau: float) -> ImpactReport:
    """Per-group accuracy deltas and the largest pairwise difference.

    Passes when max_{i,j} |delta_i - delta_j| <= tau. Deltas are signed, so
    swapping the two reports negates every delta but leaves the gap alone.
    """
    if private.group_names != nonprivate.group_names:
        raise ValueError(
            f"group mismatch: {private.group_names} vs {nonprivate.group_names}")
    delta = private.accuracy - nonprivate.accuracy
    gap = _max_pairwise_gap(delta)
    return ImpactReport(private.group_names, delta, gap, tau, bool(gap <= tau))


def _positive_rates(hit: np.ndarray, data, condition=None) -> np.ndarray:
    """Per-group mean of ``hit`` among the rows where ``condition`` holds,
    NaN for a group with no such row."""
    rows = slice(None) if condition is None else condition
    groups, hit = data.groups[rows], hit[rows]
    counts = np.bincount(groups, minlength=data.num_groups)
    with np.errstate(invalid="ignore"):
        return np.bincount(groups, weights=hit, minlength=data.num_groups) / counts


def demographic_parity_gap(predictions: np.ndarray, data, positive_class: int = 1) -> float:
    """Largest pairwise difference in positive-prediction rates, from each
    row's predicted class (``GroupReport.predictions``)."""
    evaluation_counts(data)
    hit = (predictions == positive_class).astype(np.float64)
    return _max_pairwise_gap(_positive_rates(hit, data))


def equalized_odds_gaps(predictions: np.ndarray, data,
                        positive_class: int = 1) -> tuple[float, float]:
    """Largest pairwise TPR gap and FPR gap across groups, from each row's
    predicted class (``GroupReport.predictions``).

    A group missing one label value has its rate undefined (NaN) and is
    excluded from the pairwise maxima; one warning per undefined rate names
    every such group. If fewer than two groups remain defined, the gap
    itself is NaN.
    """
    evaluation_counts(data)
    is_positive = data.labels == positive_class
    hit = (predictions == positive_class).astype(np.float64)
    tpr = _positive_rates(hit, data, is_positive)
    fpr = _positive_rates(hit, data, ~is_positive)
    for rates, label, rate in ((tpr, "positive", "TPR"), (fpr, "negative", "FPR")):
        missing = [f"'{data.group_names[k]}'" for k in np.flatnonzero(~np.isfinite(rates))]
        if missing:
            warnings.warn(f"no {label} labels in group(s) {', '.join(missing)}; "
                          f"{rate} undefined", stacklevel=2)
    return _max_pairwise_gap(tpr), _max_pairwise_gap(fpr)
