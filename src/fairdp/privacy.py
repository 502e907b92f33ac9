"""Renyi-DP accounting for (sub)sampled Gaussian mechanisms.

Each training step that touches data through a Gaussian mechanism is
recorded as a ``MechanismEvent`` (noise multiplier, sampling rate, step
count) in a ``PrivacyLedger``. ``compose`` turns the ledger into an RDP
curve over a grid of orders by summing per-event curves linearly, and
``to_epsilon`` converts the curve into an (epsilon, delta) guarantee by
minimizing over orders.

For a sampling rate below one, the implementation evaluates the standard
integer-order log-moment bound for the subsampled Gaussian mechanism: a
binomial sum computed entirely in log space, so small noise multipliers
and large orders do not overflow. Batches drawn without replacement are
accounted at rate q = batch_size / n, the usual Poisson-style
approximation; reports carry the tag in ``ACCOUNTING_ASSUMPTION``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass
class PrivacyLedger:
    """Ordered record of mechanism events; append-only during training."""

    events: list[MechanismEvent] = field(default_factory=list)

    def append(self, event: MechanismEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


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


def rdp_full_gaussian(sigma: float, order: float) -> float:
    """Closed-form RDP of the Gaussian mechanism at unit sensitivity."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not order > 1:
        raise ValueError("order must be > 1")
    return order / (2.0 * sigma * sigma)


def _log_add(log_x: float, log_y: float) -> float:
    a, b = min(log_x, log_y), max(log_x, log_y)
    if a == -math.inf:
        return b
    return b + math.log1p(math.exp(a - b))


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def rdp_subsampled_gaussian(q: float, sigma: float, order) -> float:
    """Integer-order RDP bound for the subsampled Gaussian mechanism.

    Evaluates (1/(order-1)) * log( sum_{j=0..order} C(order, j)
    (1-q)^(order-j) q^j exp(j(j-1)/(2 sigma^2)) ) in log space.

    Args:
      q: sampling rate, strictly between 0 and 1 (use rdp_full_gaussian
        for q = 1).
      sigma: noise multiplier, positive.
      order: integer order >= 2 (integral floats accepted).

    Raises:
      ValueError: out-of-range q or sigma, or a non-integer order.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1); use rdp_full_gaussian for q = 1")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if isinstance(order, float) and not order.is_integer():
        raise ValueError(f"order must be an integer, got {order}")
    alpha = int(order)
    if alpha < 2:
        raise ValueError("order must be >= 2")
    log_q, log_1mq = math.log(q), math.log1p(-q)
    log_total = -math.inf
    for j in range(alpha + 1):
        term = (_log_binom(alpha, j) + j * log_q + (alpha - j) * log_1mq
                + j * (j - 1) / (2.0 * sigma * sigma))
        log_total = _log_add(log_total, term)
    return log_total / (alpha - 1)


def _event_rdp(noise_multiplier: float, sampling_rate: float, order) -> float:
    if sampling_rate == 1.0:
        return rdp_full_gaussian(noise_multiplier, order)
    return rdp_subsampled_gaussian(sampling_rate, noise_multiplier, order)


def compose(ledger: PrivacyLedger, orders=DEFAULT_ORDERS) -> RdpCurve:
    """Linear composition of the ledger's events into one RDP curve.

    Events sharing (noise multiplier, sampling rate) are coalesced before
    evaluation, so per-step ledgers stay cheap to compose.
    """
    if not ledger.events:
        raise ValueError("cannot compose an empty ledger")
    totals: dict[tuple[float, float], int] = {}
    for event in ledger.events:
        key = (event.noise_multiplier, event.sampling_rate)
        totals[key] = totals.get(key, 0) + event.steps
    orders_arr = np.asarray(orders, dtype=np.float64)
    eps = np.zeros_like(orders_arr)
    for (sigma, q), steps in totals.items():
        eps += steps * np.array([_event_rdp(sigma, q, a) for a in orders])
    return RdpCurve(orders_arr, eps)


def to_epsilon(curve: RdpCurve, delta: float) -> tuple[float, float]:
    """Best (epsilon, order) over the curve's grid for a target delta."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    candidates = curve.eps_rdp + math.log(1.0 / delta) / (curve.orders - 1.0)
    best = int(np.argmin(candidates))
    return float(candidates[best]), float(curve.orders[best])

