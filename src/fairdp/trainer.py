"""DP-SGD training loop with per-group logging and budget-matched stopping.

One master seed derives three independent random streams: batch sampling,
count noise, and gradient noise. Toggling count noise therefore never
perturbs batch selection or the gradient noise, which is what makes the
strategy-reduction equivalences exact.

Each iteration draws a fresh without-replacement batch (an epoch is
floor(n / batch_size) iterations), privatizes the per-sample gradients
with the configured strategy, perturbs the clipped sum with Gaussian noise
scaled to the strategy's effective sensitivity.

Every iteration makes the same releases, so ``privacy_plan`` fixes a
run's accounting before its first step: one step's RDP curve, scaled by k,
gives the epsilon after k iterations, for the budget stop, each epoch row
and the final epsilon; the ledger is the coalesced record, one event per
kind. A zero noise scale makes no release and draws nothing from its
stream; such runs are only meaningful for equivalence testing. A stopped
run's epsilon never exceeds its budget target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import metrics, privacy
from .clipping import ClipStrategy, NonPrivate, StepRelease, Uniform, apply_strategy
from .dataio import Batch
from .errors import NumericError
from .model import GradStream, ModelSpec, init_params
# perfbench/spans.py probes these bindings
from .model import forward as model_forward, per_sample_grads  # noqa: F401
from .privacy import MechanismEvent

INV_SQRT_TOTAL = "inv_sqrt_total"

# rows per group_train_stats chunk; it fixes the order of the per-group sums
STATS_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides the data."""

    model: ModelSpec
    strategy: Union[ClipStrategy, NonPrivate]
    noise_multiplier: float
    lr: Union[float, str]
    batch_size: int
    epochs: int
    delta: float
    seed: int
    budget_target: float | None = None
    eval_every: int = 1

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1 or self.eval_every < 1:
            raise ValueError("batch_size, epochs, eval_every must be >= 1")
        if not 0 <= self.noise_multiplier < math.inf:
            raise ValueError("noise_multiplier must be finite and non-negative")
        if self.noise_multiplier > 0 and self.strategy == Uniform(math.inf):
            raise ValueError("an infinite clip bound leaves the sensitivity unbounded; "
                             "it needs noise_multiplier = 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.budget_target is not None and not self.budget_target > 0:
            raise ValueError("budget_target must be positive")
        if (self.budget_target is not None and self.noise_multiplier == 0
                and not isinstance(self.strategy, NonPrivate)):
            raise ValueError("a budget_target needs noise_multiplier > 0")
        if self.lr != INV_SQRT_TOTAL and (isinstance(self.lr, str)
                                          or not 0.0 < self.lr < math.inf):
            raise ValueError(f"lr must be a finite positive number or '{INV_SQRT_TOTAL}'")

    def plan(self, n: int) -> PrivacyPlan:
        """The plan on ``n`` training rows; the non-private strategy releases nothing."""
        scales = ((0.0, 0.0) if isinstance(self.strategy, NonPrivate) else
                  (getattr(self.strategy, "count_noise_std", 0.0), self.noise_multiplier))
        return privacy_plan(n, self.batch_size, self.epochs, *scales)


@dataclass
class EpochLog:
    """Per-group statistics measured on the full training set at epoch end."""

    epoch: int
    mean_loss: np.ndarray
    mean_grad_norm: np.ndarray
    train_accuracy: np.ndarray
    epsilon: float | None
    release: StepRelease | None  # the last step's release before this row


@dataclass
class TrainResult:
    params: np.ndarray
    ledger: tuple[MechanismEvent, ...]  # one event per kind, steps = executed
    epoch_logs: list[EpochLog]
    test_report: metrics.GroupReport
    iterations_executed: int
    iterations_planned: int
    event_kinds: tuple[str, ...]
    final_epsilon: float | None
    final_best_order: float | None
    learning_rate: float


def sample_batch(n: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform without-replacement draw, returned in ascending index order."""
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds population {n}")
    return np.sort(rng.choice(n, size=batch_size, replace=False))


def private_mean_gradient(grads: GradStream, factors: np.ndarray | None,
                          sensitivity: float, noise_multiplier: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Mean of the factor-scaled gradient rows after noising their sum.

    Row i is scaled by ``factors[i]``; ``factors=None`` sums the rows
    unscaled (the non-private path). Adds i.i.d. Gaussian noise of standard
    deviation noise_multiplier * sensitivity to the sum, then divides by the
    row count. With a zero noise multiplier, nothing is drawn from ``rng``.
    """
    total = grads.weighted_sum(factors)
    if noise_multiplier > 0.0:
        total = total + rng.normal(0.0, noise_multiplier * sensitivity, size=total.shape)
    return total / grads.rows


@dataclass(frozen=True)
class PrivacyPlan:
    """A run's accounting, fixed before its first step: every iteration
    samples at ``sampling_rate`` and makes the same ``releases``, whose
    composed RDP curve is ``curve`` (None without a release)."""

    sampling_rate: float
    iterations_per_epoch: int
    planned: int
    releases: tuple[tuple[str, MechanismEvent], ...]  # (kind, event), count noise first
    curve: privacy.RdpCurve | None

    def allowed(self, delta: float, budget_target: float | None) -> int:
        """The planned iterations, or those before the first over ``budget_target``."""
        if budget_target is not None and self.curve is not None:
            for k in range(self.planned):
                if privacy.to_epsilon(self.curve, delta, k + 1)[0] > budget_target:
                    return k
        return self.planned


def privacy_plan(n: int, batch_size: int, epochs: int, count_noise_std: float,
                 noise_multiplier: float) -> PrivacyPlan:
    """The plan of ``epochs`` epochs of ``batch_size``-row batches from ``n`` rows
    (a ValueError if ``batch_size > n``). Each step releases the noised counts
    (unit sensitivity), then the noised gradient sum; a zero scale releases nothing."""
    if batch_size > n:
        raise ValueError(f"batch_size {batch_size} exceeds training size {n}")
    q = batch_size / n
    scales = (("count-noise", count_noise_std), ("gradient-noise", noise_multiplier))
    releases = tuple((kind, MechanismEvent(scale, q, 1)) for kind, scale in scales if scale > 0)
    curve = privacy.compose([event for _, event in releases]) if releases else None
    return PrivacyPlan(q, n // batch_size, epochs * (n // batch_size), releases, curve)


def dp_step(spec: ModelSpec, params: np.ndarray, batch,
            strategy: Union[ClipStrategy, NonPrivate], noise_multiplier: float,
            lr: float, count_rng: np.random.Generator, noise_rng: np.random.Generator,
            num_groups: int) -> tuple[np.ndarray, StepRelease | None]:
    """One SGD update on a batch, privatized per the strategy.

    Returns the updated params and the step's ``StepRelease`` (None for the
    non-private strategy, which clips nothing).

    Raises:
      NumericError: a non-finite per-sample gradient or loss was produced.
    """
    grads = GradStream(spec, params, batch)
    if not (np.isfinite(grads.norms).all() and np.isfinite(grads.losses).all()):
        raise NumericError("non-finite per-sample gradient")
    if isinstance(strategy, NonPrivate):
        update = private_mean_gradient(grads, None, 0.0, 0.0, noise_rng)
        return params - lr * update, None
    release = apply_strategy(strategy, grads.norms, batch.groups, num_groups, count_rng)
    update = private_mean_gradient(grads, release.factors, release.sensitivity,
                                   noise_multiplier, noise_rng)
    return params - lr * update, release


def group_train_stats(spec: ModelSpec, params: np.ndarray, data):
    """Per-group mean loss, mean pre-clip gradient norm, and accuracy.

    Computed over the full dataset in contiguous chunks of STATS_CHUNK_ROWS
    rows, in row order. Each chunk is a ``Batch`` of row-slice views of the
    dataset's arrays, so no chunk copies the feature matrix. A group absent
    from the data gets NaN entries.
    """
    num_groups = data.num_groups
    loss_sum = np.zeros(num_groups)
    norm_sum = np.zeros(num_groups)
    correct = np.zeros(num_groups)
    for start in range(0, data.n, STATS_CHUNK_ROWS):
        rows = slice(start, start + STATS_CHUNK_ROWS)
        batch = Batch(data.features[rows], data.labels[rows], data.groups[rows])
        grads = GradStream(spec, params, batch)
        hits = (grads.predictions == batch.labels).astype(np.float64)
        loss_sum += np.bincount(batch.groups, weights=grads.losses, minlength=num_groups)
        norm_sum += np.bincount(batch.groups, weights=grads.norms, minlength=num_groups)
        correct += np.bincount(batch.groups, weights=hits, minlength=num_groups)
    counts = data.group_sizes().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return loss_sum / counts, norm_sum / counts, correct / counts


def resolve_learning_rate(lr, planned_iterations: int) -> float:
    """A numeric lr is used as-is; the inverse-sqrt rule is a constant
    1/sqrt(total planned iterations), not a per-step decay."""
    if isinstance(lr, str):
        return 1.0 / math.sqrt(planned_iterations)
    return float(lr)


def train(config: TrainConfig, train_data, test_data) -> TrainResult:
    """Run the configured training loop end to end.

    Returns the final parameters, the coalesced privacy ledger, the
    per-epoch group logs, and the final per-group test report, plus
    bookkeeping (iteration counts, event kinds, final epsilon at the
    config's delta).

    Runs exactly the iterations that the plan allows; the last epoch that
    runs one (0 if none does) ends the run and is always logged.
    """
    n = train_data.n
    plan = config.plan(n)
    lr = resolve_learning_rate(config.lr, plan.planned)
    allowed = plan.allowed(config.delta, config.budget_target)
    last_epoch = -(-allowed // plan.iterations_per_epoch)

    batch_ss, count_ss, noise_ss = np.random.SeedSequence(config.seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    count_rng = np.random.default_rng(count_ss)
    noise_rng = np.random.default_rng(noise_ss)

    spec = config.model
    params = init_params(spec, config.seed)

    logs: list[EpochLog] = []
    executed = 0
    last_release: StepRelease | None = None
    # a run with no iteration logs one row, for epoch 0
    for epoch in range(min(1, last_epoch), last_epoch + 1):
        for _ in range(min(plan.iterations_per_epoch, allowed - executed)):
            idx = sample_batch(n, config.batch_size, batch_rng)
            try:
                params, last_release = dp_step(
                    spec, params, train_data.take(idx), config.strategy,
                    config.noise_multiplier, lr, count_rng, noise_rng,
                    train_data.num_groups)
            except NumericError as exc:
                raise NumericError(f"iteration {executed + 1}: {exc}") from exc
            executed += 1
        if epoch % config.eval_every == 0 or epoch == last_epoch:
            loss, norm, acc = group_train_stats(spec, params, train_data)
            epsilon = None
            if plan.curve is not None and executed > 0:
                epsilon = privacy.to_epsilon(plan.curve, config.delta, executed)[0]
            logs.append(EpochLog(epoch, loss, norm, acc, epsilon, last_release))

    final_epsilon = final_order = None
    if plan.curve is not None and executed > 0:
        final_epsilon, final_order = privacy.to_epsilon(plan.curve, config.delta, executed)
    ledger = tuple(replace(event, steps=executed) for _, event in plan.releases if executed)
    return TrainResult(
        params=params,
        ledger=ledger,
        epoch_logs=logs,
        test_report=metrics.group_report(spec, params, test_data),
        iterations_executed=executed,
        iterations_planned=plan.planned,
        event_kinds=tuple(kind for kind, _ in plan.releases),
        final_epsilon=final_epsilon,
        final_best_order=final_order,
        learning_rate=lr,
    )


def train_nonprivate(config: TrainConfig, train_data, test_data) -> TrainResult:
    """The SGD baseline: the same loop with the non-private strategy."""
    return train(replace(config, strategy=NonPrivate(), noise_multiplier=0.0),
                 train_data, test_data)
