"""Renyi-DP accounting for (sub)sampled Gaussian mechanisms.

A Gaussian mechanism that touches data is described by a
``MechanismEvent`` (noise multiplier, sampling rate, step count).
``compose`` coalesces the events that share a noise multiplier and a
sampling rate (adding their step counts), evaluates each coalesced event's
RDP curve over the whole grid of orders in one call, and sums the curves
linearly. ``to_epsilon`` scales a curve by a step count and converts it
into an (epsilon, delta) guarantee by minimizing over orders, so one
step's curve serves every step count of a run.

For a sampling rate below one, the curve is the integer-order log-moment
bound of the subsampled Gaussian (Abadi et al. 2016; Mironov, Talwar &
Zhang 2019): a binomial sum folded in log space, so small noise multipliers
and large orders do not overflow, clamped at 0 where it rounds below.
Batches drawn without replacement are accounted at rate q = batch_size / n,
the usual Poisson-style approximation, tagged ``ACCOUNTING_ASSUMPTION``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# Integer orders keep the subsampled bound exactly summable; the epsilon
# regimes of interest minimize well inside this grid.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 65)) + (80, 128, 256, 512)

ACCOUNTING_ASSUMPTION = "poisson-approx"


@dataclass(frozen=True)
class MechanismEvent:
    """One or more identical Gaussian-mechanism invocations.

    ``noise_multiplier`` is the noise standard deviation divided by the
    query's sensitivity; ``sampling_rate`` the per-step probability mass of
    the touched batch.
    """

    noise_multiplier: float
    sampling_rate: float
    steps: int = 1

    def __post_init__(self):
        if not self.noise_multiplier > 0:
            raise ValueError("noise_multiplier must be positive")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass(frozen=True)
class RdpCurve:
    """RDP values on an ascending grid of orders greater than one."""

    orders: np.ndarray
    eps_rdp: np.ndarray

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=np.float64)
        eps = np.asarray(self.eps_rdp, dtype=np.float64)
        if orders.shape != eps.shape or orders.ndim != 1 or orders.size == 0:
            raise ValueError("orders and eps_rdp must be matching non-empty vectors")
        if orders.min() <= 1.0:
            raise ValueError("orders must be > 1")
        if np.any(np.diff(orders) <= 0):
            raise ValueError("orders must be strictly increasing")
        if eps.min() < 0:
            raise ValueError("eps_rdp must be non-negative")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "eps_rdp", eps)


def rdp_full_gaussian(sigma: float, order):
    """Closed-form RDP order / (2 sigma^2) of the Gaussian mechanism at unit
    sensitivity: a float for one order, an array for a sequence of them."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    orders = np.asarray(order, dtype=np.float64)
    if not np.all(orders > 1):
        raise ValueError("order must be > 1")
    with np.errstate(divide="ignore", over="ignore"):  # +inf where sigma^2 underflows
        eps = orders / (2.0 * sigma * sigma)
    return eps if orders.ndim else float(eps)


def rdp_subsampled_gaussian(q: float, sigma: float, order):
    """Integer-order RDP bound for the subsampled Gaussian mechanism.

    Evaluates (1/(a-1)) * log( sum_{j=0..a} C(a, j) (1-q)^(a-j) q^j
    exp(j(j-1)/(2 sigma^2)) ) at every order a of the grid at once. All
    orders' log-space terms sit in one flat array, and
    ``np.logaddexp.reduceat`` folds each order's terms left to right from
    j = 0: the exp/log1p calls of a scalar pairwise loop, so each value has
    that loop's bits. The sum is >= 1, so a value that rounds below 0
    (large sigma, small q) is clamped to 0. A sigma so small that
    j(j-1)/(2 sigma^2) overflows gives +inf, never NaN.

    Args:
      q: sampling rate, strictly between 0 and 1 (use rdp_full_gaussian
        for q = 1).
      sigma: noise multiplier, positive.
      order: an integer order >= 2 (integral floats accepted), or a
        sequence of them.

    Returns:
      A float for a single order, an array for a sequence.

    Raises:
      ValueError: out-of-range q or sigma, or a non-integer order.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1); use rdp_full_gaussian for q = 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    orders = np.asarray(order, dtype=np.float64)
    if not np.all(np.isfinite(orders) & (orders == np.floor(orders))):
        raise ValueError(f"order must be an integer, got {order}")
    if not np.all(orders >= 2):
        raise ValueError("order must be >= 2")
    alphas = np.atleast_1d(orders).astype(np.int64)
    sizes = alphas + 1
    starts = np.cumsum(sizes) - sizes
    a = np.repeat(alphas, sizes)
    j = np.arange(a.size) - np.repeat(starts, sizes)
    lg = np.array([math.lgamma(k + 1) for k in range(alphas.max() + 1)])
    log_q, log_1mq = math.log(q), math.log1p(-q)
    pairs = j * (j - 1)
    # the j < 2 terms are exactly 0, also when sigma^2 underflows to 0
    # and the others overflow to inf
    with np.errstate(divide="ignore", over="ignore"):
        noise = np.divide(pairs, 2.0 * sigma * sigma, out=np.zeros(pairs.shape),
                          where=pairs > 0)
    terms = lg[a] - lg[j] - lg[a - j] + j * log_q + (a - j) * log_1mq + noise
    eps = np.maximum(np.logaddexp.reduceat(terms, starts) / (alphas - 1), 0.0)
    return eps if orders.ndim else float(eps[0])


def compose(events: Sequence[MechanismEvent], orders=DEFAULT_ORDERS) -> RdpCurve:
    """Linear composition of mechanism events into one RDP curve.

    Events sharing (noise multiplier, sampling rate) are coalesced, and each
    coalesced event's curve is evaluated over the whole grid in one call.
    """
    if not events:
        raise ValueError("cannot compose an empty event list")
    totals: dict[tuple[float, float], int] = {}
    for event in events:
        key = (event.noise_multiplier, event.sampling_rate)
        totals[key] = totals.get(key, 0) + event.steps
    orders_arr = np.asarray(orders, dtype=np.float64)
    eps = np.zeros_like(orders_arr)
    for (sigma, q), steps in totals.items():
        eps += steps * (rdp_full_gaussian(sigma, orders_arr) if q == 1.0
                        else rdp_subsampled_gaussian(q, sigma, orders_arr))
    return RdpCurve(orders_arr, eps)


def to_epsilon(curve: RdpCurve, delta: float, steps: int = 1) -> tuple[float, float]:
    """Best (epsilon, order) over the grid for a target delta, after
    ``steps`` compositions of ``curve``."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    candidates = steps * curve.eps_rdp + math.log(1.0 / delta) / (curve.orders - 1.0)
    best = int(np.argmin(candidates))
    return float(candidates[best]), float(curve.orders[best])

