"""Bias/variance diagnostics for clipped, noise-perturbed batch means.

Works in the one-dimensional Laplace-noise model: per-sample gradients are
scalars (gradient magnitudes in practice), the batch mean is privatized by
clipping each value at a bound and adding Laplace noise of scale
bound/epsilon to the sum. The expected error of the private mean against
the true mean then splits into a clipping-bias term plus a noise-variance
term, with the matching lower bound at half the sum.

These diagnostics never touch the training path, which uses Gaussian noise
and its own accountant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostBound:
    """Expected-error envelope of a group's private batch mean."""

    group: int
    bias_term: float
    variance_term: float
    upper: float
    lower: float
    clipped_count: int


def _checked_norms(norms) -> np.ndarray:
    norms = np.asarray(norms, dtype=np.float64)
    if not np.all(np.isfinite(norms) & (norms >= 0.0)):
        raise ValueError("norms must be finite and non-negative")
    return norms


def _group_bound(norms: np.ndarray, group: int, bound: float, eps: float) -> CostBound:
    size = norms.shape[0]
    excess = np.maximum(norms - bound, 0.0)
    bias = float(excess.sum() / size)
    variance = (bound / eps) / size
    upper = bias + variance
    return CostBound(group, bias, variance, upper, upper / 2.0,
                     int((norms > bound).sum()))


def cost_bounds(norms: np.ndarray, groups: np.ndarray, bound: float,
                eps: float) -> list[CostBound]:
    """Per-group error bounds for one batch of gradient magnitudes.

    Args:
      norms: per-sample gradient magnitudes for the whole batch, finite
        and non-negative.
      groups: non-negative group index per sample; every group 0..max must
        be present.
      bound: the clipping bound applied to every sample.
      eps: per-release privacy parameter of the Laplace mechanism.
    """
    if not bound > 0:
        raise ValueError("bound must be positive")
    if not eps > 0:
        raise ValueError("eps must be positive")
    norms = _checked_norms(norms)
    groups = np.asarray(groups)
    if groups.size and groups.min() < 0:
        raise ValueError("group indices must be non-negative")
    out = []
    for k in range(int(groups.max()) + 1):
        members = norms[groups == k]
        if members.size == 0:
            raise ValueError(f"group {k} is empty in this batch")
        out.append(_group_bound(members, k, bound, eps))
    return out


def optimal_clip(norms: np.ndarray, batch_size: int, eps: float) -> float:
    """The bound minimizing the upper error envelope over a batch.

    Returns the k-th largest magnitude with k = ceil(1/eps), i.e. the
    (1 - 1/(batch_size * eps))-quantile under the k-th-largest convention.
    Requires batch_size * eps > 1 so the quantile exists, and finite,
    non-negative magnitudes.
    """
    norms = _checked_norms(norms)
    if norms.shape[0] != batch_size:
        raise ValueError(f"batch_size {batch_size} != {norms.shape[0]} magnitudes")
    if not batch_size * eps > 1.0:
        raise ValueError("need batch_size * eps > 1")
    k = int(np.ceil(1.0 / eps))
    return float(np.sort(norms)[::-1][k - 1])
