"""The step arithmetic before its shared intermediates were fused.

Each function recomputes what it needs, as ``fairdp.model`` and
``fairdp.clipping`` once did: the loss and the class probabilities each
take their own row max and shifted ``exp``, the params are unpacked per
use, every gradient segment (bias ones included) squares its own deltas,
and the clipped fraction takes its own mask and ``bincount``. The fused
code must equal it bit for bit; ``test_step_fusion.py`` checks that.

The oracle slices the flat params by the layout that ``fairdp.model``'s
docstring gives, with its own arithmetic, so it shares no code with the
layer stack it checks.

``gathered_group_train_stats`` is the training-set evaluation as it was
when each chunk was gathered into a copy with ``Dataset.take``; the
row-view chunks must give the same bits.
"""

from __future__ import annotations

import numpy as np

from fairdp.clipping import (GroupAdaptive, NaiveReweight, Uniform, adaptive_bounds,
                             naive_weights)
from fairdp.model import SOFTMAX, GradStream
from fairdp.trainer import STATS_CHUNK_ROWS


def unpack(spec, params):
    """(W, b) for softmax, (W1, b1, W2, b2) for mlp, sliced from the flat
    params: each weight matrix row-major, then its bias."""
    d, h, c = spec.input_dim, spec.hidden, spec.num_classes
    if spec.kind == SOFTMAX:
        return params[:d * c].reshape(d, c), params[d * c:]
    return (params[:d * h].reshape(d, h), params[d * h:d * h + h],
            params[d * h + h:d * h + h + h * c].reshape(h, c), params[d * h + h + h * c:])


def logits(spec, params, x):
    if spec.kind == SOFTMAX:
        w, b = unpack(spec, params)
        return x @ w + b, None, None
    w1, b1, w2, b2 = unpack(spec, params)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    return a1 @ w2 + b2, z1, a1


def softmax(values):
    shifted = values - values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(spec, params, x):
    return softmax(logits(spec, params, np.asarray(x, dtype=np.float64))[0])


def weight_penalty(spec, params):
    if spec.l2 == 0.0:
        return 0.0
    if spec.kind == SOFTMAX:
        w, _ = unpack(spec, params)
        return 0.5 * spec.l2 * float(np.sum(w * w))
    w1, _, w2, _ = unpack(spec, params)
    return 0.5 * spec.l2 * float(np.sum(w1 * w1) + np.sum(w2 * w2))


def sample_losses(spec, params, values, y):
    shifted = values - values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + values.max(axis=1)
    return lse - values[np.arange(y.shape[0]), y] + weight_penalty(spec, params)


def layer_factors(spec, params, batch):
    """Losses, predictions and ``(inputs, deltas, penalty)`` per segment,
    bias segments (``inputs`` None) included."""
    x = np.asarray(batch.features, dtype=np.float64)
    y = np.asarray(batch.labels, dtype=np.int64)
    out, z1, a1 = logits(spec, params, x)
    losses = sample_losses(spec, params, out, y)
    delta_out = softmax(out)
    predictions = np.argmax(delta_out, axis=1)
    delta_out[np.arange(y.shape[0]), y] -= 1.0

    def penalty(w):
        return spec.l2 * w if spec.l2 else None

    if spec.kind == SOFTMAX:
        w, _ = unpack(spec, params)
        return losses, predictions, ((x, delta_out, penalty(w)), (None, delta_out, None))
    w1, _, w2, _ = unpack(spec, params)
    delta_hidden = (delta_out @ w2.T) * (z1 > 0.0)
    return losses, predictions, ((x, delta_hidden, penalty(w1)), (None, delta_hidden, None),
                                 (a1, delta_out, penalty(w2)), (None, delta_out, None))


def row_dots(u, v):
    return np.einsum("bi,bi->b", u, v)


def norms(segments, rows):
    """Per-sample gradient norms, one segment at a time."""
    squares = np.zeros(rows)
    for inputs, deltas, penalty in segments:
        row_squares = row_dots(deltas, deltas)
        if inputs is not None:
            row_squares *= row_dots(inputs, inputs)
            if penalty is not None:
                row_squares += 2.0 * row_dots(inputs @ penalty, deltas)
                row_squares += np.vdot(penalty, penalty)
        squares += row_squares
    return np.sqrt(np.maximum(squares, 0.0))


def weighted_sum(segments, factors):
    parts = []
    for inputs, deltas, penalty in segments:
        if inputs is None:
            parts.append(factors @ deltas)
            continue
        part = inputs.T @ (deltas * factors[:, None])
        if penalty is not None:
            part += penalty * factors.sum()
        parts.append(part.ravel())
    return np.concatenate(parts)


def grads(segments):
    """The b x param_count per-sample gradient matrix, one segment at a time."""
    columns = []
    for inputs, deltas, penalty in segments:
        if inputs is None:
            columns.append(deltas)
            continue
        rows = np.einsum("bi,bj->bij", inputs, deltas)
        if penalty is not None:
            rows += penalty
        columns.append(rows.reshape(rows.shape[0], -1))
    return np.concatenate(columns, axis=1)


def row_factors(norms, groups, bounds, weights):
    norms = np.asarray(norms, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    groups = np.asarray(groups)
    row_bounds = bounds[groups]
    factors = np.ones_like(norms)
    over = norms > row_bounds
    factors[over] = row_bounds[over] / norms[over]
    present = np.unique(groups)
    return factors * weights[groups], float((bounds * weights)[present].max())


def clip_fraction(norms, groups, bounds, num_groups):
    sizes = np.bincount(groups, minlength=num_groups).astype(np.float64)
    over = np.bincount(groups[norms > bounds[groups]], minlength=num_groups)
    out = np.full(num_groups, np.nan)
    present = sizes > 0
    out[present] = over[present] / sizes[present]
    return out


def apply_strategy(strategy, norms, groups, num_groups, rng):
    """(factors, sensitivity, bounds, weights, clipped fraction, noised
    above-counts, noised sizes) for one batch."""
    groups = np.asarray(groups)
    batch_size = norms.shape[0]
    weights = np.ones(num_groups)
    above_noised = sizes_noised = None
    if isinstance(strategy, Uniform):
        bounds = np.full(num_groups, strategy.bound)
    elif isinstance(strategy, GroupAdaptive):
        over = norms > strategy.base_bound
        noise = rng.normal(0.0, strategy.count_noise_std, size=2 * num_groups)
        above_noised = np.bincount(groups[over], minlength=num_groups) + noise[:num_groups]
        sizes_noised = above_noised + (np.bincount(groups[~over], minlength=num_groups)
                                       + noise[num_groups:])
        bounds = adaptive_bounds(above_noised, sizes_noised, strategy.base_bound,
                                 batch_size)
    else:
        assert isinstance(strategy, NaiveReweight)
        sizes = np.bincount(groups, minlength=num_groups).astype(np.float64)
        sizes_noised = sizes + rng.normal(0.0, strategy.count_noise_std, size=num_groups)
        bounds = np.full(num_groups, strategy.base_bound)
        weights = naive_weights(sizes_noised, num_groups, batch_size)
    factors, sensitivity = row_factors(norms, groups, bounds, weights)
    return (factors, sensitivity, bounds, weights,
            clip_fraction(norms, groups, bounds, num_groups), above_noised, sizes_noised)


def gathered_group_train_stats(spec, params, data):
    """Per-group mean loss, gradient norm and accuracy, each chunk a copy."""
    num_groups = data.num_groups
    loss_sum = np.zeros(num_groups)
    norm_sum = np.zeros(num_groups)
    correct = np.zeros(num_groups)
    for start in range(0, data.n, STATS_CHUNK_ROWS):
        idx = np.arange(start, min(start + STATS_CHUNK_ROWS, data.n))
        batch = data.take(idx)
        stream = GradStream(spec, params, batch)
        hits = (stream.predictions == batch.labels).astype(np.float64)
        loss_sum += np.bincount(batch.groups, weights=stream.losses, minlength=num_groups)
        norm_sum += np.bincount(batch.groups, weights=stream.norms, minlength=num_groups)
        correct += np.bincount(batch.groups, weights=hits, minlength=num_groups)
    counts = data.group_sizes().astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return loss_sum / counts, norm_sum / counts, correct / counts
