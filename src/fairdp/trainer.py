"""DP-SGD training loop with per-group logging and budget-matched stopping.

One master seed derives three independent random streams: batch sampling,
count noise, and gradient noise. Toggling count noise therefore never
perturbs batch selection or the gradient noise, which is what makes the
strategy-reduction equivalences exact.

Each iteration draws a fresh without-replacement batch (an epoch is
floor(n / batch_size) iterations), privatizes the per-sample gradients
with the configured strategy, perturbs the clipped sum with Gaussian noise
scaled to the strategy's effective sensitivity.

Every iteration makes the same releases (``step_events``), so one step's
RDP curve scaled by k gives the epsilon after k iterations. The budget
check, each epoch row and the final epsilon all read it; the ledger is the
coalesced record, one event per kind. A zero noise scale contributes no
event and draws nothing from its stream; such runs are only meaningful
for equivalence testing. With a budget target set, the epsilon after the
next iteration is checked before it runs. So the reported epsilon is the
last epoch row's, and a stopped run's never exceeds the target.
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
        if self.lr != INV_SQRT_TOTAL and (isinstance(self.lr, str)
                                          or not 0.0 < self.lr < math.inf):
            raise ValueError(f"lr must be a finite positive number or '{INV_SQRT_TOTAL}'")


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


def step_events(count_noise_std: float, noise_multiplier: float,
                sampling_rate: float) -> list[tuple[str, MechanismEvent]]:
    """The (kind, event) pairs of one iteration's releases, in order.

    The count-noise event comes first (group-aware strategies, unit
    sensitivity), then the gradient-noise event. A zero noise scale
    records no event, so the non-private strategy, passed as (0, 0),
    records none.
    """
    scales = (("count-noise", count_noise_std), ("gradient-noise", noise_multiplier))
    return [(kind, MechanismEvent(scale, sampling_rate, 1))
            for kind, scale in scales if scale > 0.0]


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


def step_rdp_curve(count_noise_std: float, noise_multiplier: float, sampling_rate: float,
                   orders=privacy.DEFAULT_ORDERS) -> privacy.RdpCurve | None:
    """RDP curve of a single iteration's events; None if there are none."""
    events = [event for _, event in step_events(count_noise_std, noise_multiplier, sampling_rate)]
    return privacy.compose(events, orders) if events else None


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

    A run stopped by the budget logs one more row, labelled with the last
    epoch that ran an iteration (0 if none did), unless that epoch is
    already logged.
    """
    n = train_data.n
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds training size {n}")
    iters_per_epoch = n // config.batch_size
    planned = config.epochs * iters_per_epoch
    lr = resolve_learning_rate(config.lr, planned)
    sampling_rate = config.batch_size / n

    batch_ss, count_ss, noise_ss = np.random.SeedSequence(config.seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    count_rng = np.random.default_rng(count_ss)
    noise_rng = np.random.default_rng(noise_ss)

    spec = config.model
    params = init_params(spec, config.seed)
    # the count-noise std and gradient noise multiplier of each step's releases
    scales = ((0.0, 0.0) if isinstance(config.strategy, NonPrivate) else
              (getattr(config.strategy, "count_noise_std", 0.0), config.noise_multiplier))
    events = step_events(*scales, sampling_rate)
    step_curve = step_rdp_curve(*scales, sampling_rate)

    logs: list[EpochLog] = []
    executed = 0
    last_release: StepRelease | None = None
    stopped = False
    for epoch in range(1, config.epochs + 1):
        for _ in range(iters_per_epoch):
            if config.budget_target is not None and step_curve is not None:
                eps_next, _ = privacy.to_epsilon(step_curve, config.delta, executed + 1)
                if eps_next > config.budget_target:
                    stopped = True
                    break
            idx = sample_batch(n, config.batch_size, batch_rng)
            try:
                params, last_release = dp_step(
                    spec, params, train_data.take(idx), config.strategy,
                    config.noise_multiplier, lr, count_rng, noise_rng,
                    train_data.num_groups)
            except NumericError as exc:
                raise NumericError(f"iteration {executed + 1}: {exc}") from exc
            executed += 1
        due = epoch % config.eval_every == 0 or epoch == config.epochs
        if stopped:
            epoch = -(-executed // iters_per_epoch)  # the last epoch that ran an iteration
            due = not logs or logs[-1].epoch != epoch
        if due:
            loss, norm, acc = group_train_stats(spec, params, train_data)
            epsilon = None
            if step_curve is not None and executed > 0:
                epsilon = privacy.to_epsilon(step_curve, config.delta, executed)[0]
            logs.append(EpochLog(epoch, loss, norm, acc, epsilon, last_release))
        if stopped:
            break

    final_epsilon = final_order = None
    if step_curve is not None and executed > 0:
        final_epsilon, final_order = privacy.to_epsilon(step_curve, config.delta, executed)
    ledger = tuple(replace(event, steps=executed) for _, event in events) if executed else ()
    return TrainResult(
        params=params,
        ledger=ledger,
        epoch_logs=logs,
        test_report=metrics.group_report(spec, params, test_data),
        iterations_executed=executed,
        iterations_planned=planned,
        event_kinds=tuple(kind for kind, _ in events),
        final_epsilon=final_epsilon,
        final_best_order=final_order,
        learning_rate=lr,
    )


def train_nonprivate(config: TrainConfig, train_data, test_data) -> TrainResult:
    """The SGD baseline: the same loop with the non-private strategy."""
    return train(replace(config, strategy=NonPrivate(), noise_multiplier=0.0),
                 train_data, test_data)
