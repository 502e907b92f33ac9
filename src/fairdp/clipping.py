"""Per-sample gradient privatization strategies.

Three strategies bound what one example can contribute to a batch gradient
sum:

  * ``Uniform``: clip every row's L2 norm at one bound.
  * ``NaiveReweight``: clip at a base bound, then scale each group's rows
    inversely to the group's privately-noised batch size.
  * ``GroupAdaptive``: give each group its own bound, grown from the
    privately-noised fraction of that group's rows exceeding the base
    bound.

Each strategy reduces to per-group clip bounds C_g and weights w_g
(uniform: one bound, unit weights; naive: the base bound, the reweight
factors; adaptive: the grown bounds, unit weights). ``apply_strategy``
reads only the per-sample norms and yields a ``StepRelease``: the bounds
and weights, one factor per row, f_i = min(1, C_g/norm_i) * w_g, the
effective sensitivity (the largest L2 change a single present row can
induce in the sum of factor-scaled rows), each group's clipped fraction and
the noised counts. Scaling and summing the rows is left to the caller.

One batch is counted once: one ``bincount`` of its group sizes feeds the
naive strategy's noised sizes, the adaptive strategy's at-or-below counts
(sizes minus above-counts) and ``row_factors``; there one ``norms > C_g``
mask gives the factors and the clipped fractions, and the sizes give the
groups present for the sensitivity.

Count noising draws happen in a fixed order (all above-bound counts by
ascending group, then all at-or-below counts) so runs are reproducible.
Noised quantities are clamped before use: above-counts at zero, group
sizes at one, and if no clipping pressure survives anywhere, every bound
falls back to the base bound. Ties at exactly the base bound count as not
clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NonPrivate:
    """Plain SGD: no clipping, no noise, no ledger events."""


@dataclass(frozen=True)
class Uniform:
    """Clip every row at ``bound`` (math.inf acts as a no-clip sentinel)."""

    bound: float

    def __post_init__(self):
        if not self.bound > 0:
            raise ValueError("bound must be positive")


@dataclass(frozen=True)
class _GroupAware:
    """Fields shared by the group-aware strategies: the base clip bound and
    the standard deviation of the noise added to their per-group counts."""

    base_bound: float
    count_noise_std: float = 0.0

    def __post_init__(self):
        if not (self.base_bound > 0 and np.isfinite(self.base_bound)):
            raise ValueError("base_bound must be positive and finite")
        if not 0 <= self.count_noise_std < np.inf:
            raise ValueError("count_noise_std must be finite and non-negative")


@dataclass(frozen=True)
class NaiveReweight(_GroupAware):
    """Clip at ``base_bound``, then reweight groups by noised batch share."""


@dataclass(frozen=True)
class GroupAdaptive(_GroupAware):
    """Per-group clip bounds adapted from noised clipped-sample counts."""


ClipStrategy = Uniform | NaiveReweight | GroupAdaptive


@dataclass(frozen=True)
class StepRelease:
    """What one clipped batch used and released.

    ``bounds`` (C_g) and ``weights`` (w_g) are per group; ``factors`` are
    the rows' f_i and ``sensitivity`` the largest C_g * w_g of a present
    group. ``clipped_fraction`` is NaN for groups absent from the batch. The
    noised fields are set only by strategies that noise counts or sizes.
    """

    bounds: np.ndarray
    weights: np.ndarray
    factors: np.ndarray
    sensitivity: float
    clipped_fraction: np.ndarray
    above_noised: np.ndarray | None = None
    sizes_noised: np.ndarray | None = None

    @property  # perfbench/spans.py reads result.report.clipped_fraction
    def report(self) -> StepRelease:
        return self


def row_factors(norms: np.ndarray, groups: np.ndarray, bounds: np.ndarray,
                weights: np.ndarray, sizes: np.ndarray | None = None
                ) -> tuple[np.ndarray, float, np.ndarray]:
    """Row factors f_i = min(1, C_g/norm_i) * w_g, their sensitivity, and
    each group's clipped fraction.

    ``bounds`` (C) and ``weights`` (w) are per group; a row at or below its
    bound, including a zero-norm row, keeps clip factor one. The sensitivity
    is the largest C_g * w_g among groups present in the batch: an absent
    group cannot contribute a row, so its bound is ignored. The clipped
    fraction of a group is its share of rows above their bound, NaN for an
    absent group. ``sizes`` is the batch's row count per group
    (``np.bincount(groups)``); it is counted here when not given.
    """
    norms = np.asarray(norms, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (np.all(bounds > 0) and np.all(weights > 0)):
        raise ValueError("all bounds and weights must be positive")
    groups = np.asarray(groups)
    num_groups = bounds.shape[0]
    if sizes is None:
        sizes = np.bincount(groups, minlength=num_groups)
    row_bounds = bounds[groups]
    factors = np.ones_like(norms)
    over = norms > row_bounds
    factors[over] = row_bounds[over] / norms[over]
    present = sizes > 0
    clipped = np.full(num_groups, np.nan)
    clipped[present] = (np.bincount(groups[over], minlength=num_groups)[present]
                        / sizes[present])
    return (factors * weights[groups], float((bounds * weights)[present].max()),
            clipped)


def adaptive_bounds(above_noised: np.ndarray, sizes_noised: np.ndarray,
                    base_bound: float, batch_size: int) -> np.ndarray:
    """Per-group clip bounds grown with the group's clipped share.

    Takes the noised per-group above-bound counts and batch sizes and clamps
    them itself: above-counts at zero, sizes at one. Then
    bound_k = base * (1 + (above_k/size_k) / (total_above/batch)). With no
    clipping pressure anywhere (total_above == 0) every bound stays at the
    base bound.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    above = np.maximum(above_noised, 0.0)
    total = float(above.sum())
    if total <= 0.0:
        return np.full(above.shape[0], base_bound)
    share = above / np.maximum(sizes_noised, 1.0)
    return base_bound * (1.0 + share / (total / batch_size))


def naive_weights(sizes_noised: np.ndarray, num_groups: int,
                  batch_size: int) -> np.ndarray:
    """Reweight factor per group: (batch/K) over the noised size.

    Noised sizes are clamped at one so a negative draw cannot flip signs.
    """
    if num_groups < 1 or batch_size < 1:
        raise ValueError("num_groups and batch_size must be positive")
    sizes = np.maximum(np.asarray(sizes_noised, dtype=np.float64), 1.0)
    return (batch_size / num_groups) / sizes


def apply_strategy(strategy: ClipStrategy, norms: np.ndarray,
                   groups: np.ndarray, num_groups: int,
                   rng: np.random.Generator) -> StepRelease:
    """The release of one batch, read from its per-sample norms.

    Count noise is drawn from ``rng``. Each strategy sets per-group bounds
    and weights; ``row_factors`` turns them into the factors, the
    sensitivity and the clipped fractions. The noised counts/sizes are set
    where the strategy produced them.
    """
    groups = np.asarray(groups)
    batch_size = norms.shape[0]
    sizes = np.bincount(groups, minlength=num_groups)
    weights = np.ones(num_groups)
    above_noised = sizes_noised = None
    if isinstance(strategy, Uniform):
        bounds = np.full(num_groups, strategy.bound)
    elif isinstance(strategy, GroupAdaptive):
        above = np.bincount(groups[norms > strategy.base_bound], minlength=num_groups)
        noise = rng.normal(0.0, strategy.count_noise_std, size=2 * num_groups)
        above_noised = above + noise[:num_groups]
        sizes_noised = above_noised + ((sizes - above) + noise[num_groups:])
        bounds = adaptive_bounds(above_noised, sizes_noised, strategy.base_bound,
                                 batch_size)
    elif isinstance(strategy, NaiveReweight):
        sizes_noised = sizes + rng.normal(0.0, strategy.count_noise_std, size=num_groups)
        bounds = np.full(num_groups, strategy.base_bound)
        weights = naive_weights(sizes_noised, num_groups, batch_size)
    else:
        raise ValueError(f"not a clipping strategy: {strategy!r}")
    factors, sensitivity, clipped = row_factors(norms, groups, bounds, weights, sizes)
    return StepRelease(bounds, weights, factors, sensitivity, clipped, above_noised,
                       sizes_noised)
