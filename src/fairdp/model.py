"""Dense ReLU stacks with a softmax output, and exact per-sample gradients.

Each model is a stack of dense layers with ReLU between them; ``softmax``
is the stack with no hidden layer. The flat float64 params hold each
layer's weight matrix (row-major), then its bias, input layer first:

  softmax:  [W (input_dim x num_classes), bias (num_classes)]
  mlp:      [W1 (input_dim x hidden), b1 (hidden),
             W2 (hidden x num_classes), b2 (num_classes)]

The per-sample loss is cross-entropy plus an L2 penalty of (l2/2) times the
squared norm of the weight matrices (biases are not regularized). Because
the penalty is charged to every sample, the mean of per-sample gradients
equals the gradient of the regularized mean objective.

Per-sample gradients are never built in training. ``GradStream`` runs one
forward/backward pass per batch and keeps each layer's factors: its inputs
A, its output deltas D and its L2 term lW. Sample i's gradient for a weight
matrix is the outer product a_i d_i^T plus lW, so its squared norm is
|a_i|^2 |d_i|^2 + 2 a_i^T (lW) d_i + |lW|^2 (the "ghost norm"), and a
factor-weighted sum over the batch is A^T (f * D) + lW sum(f). Both cost
about one forward pass instead of b x param_count values.

One step computes each shared value once: the params are unpacked once
per batch; one row max, one shifted ``exp`` and one row sum of the logits
give both the losses (log-sum-exp) and the softmax deltas and
predictions; and each layer's |d_i|^2 serves its weight matrix and its
bias. Evaluation (``predictions_and_losses``) goes through the same
softmax, so its losses and predictions equal the training pass's bit for
bit.
``per_sample_grads`` materializes the b x param_count matrix from the same
factors; it is the reference the stream is tested against.

All arithmetic is 64-bit; logits go through a max-subtracted log-sum-exp so
extreme values neither overflow nor lose the probability normalization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError

SOFTMAX = "softmax"
MLP = "mlp"

_PARAMS_HEADER = struct.Struct("<4Id")
_KIND_CODES = {SOFTMAX: 0, MLP: 1}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and regularization; parameter count is derived."""

    kind: str
    input_dim: int
    num_classes: int
    l2: float = 0.0
    hidden: int = 0

    def __post_init__(self):
        if self.kind not in (SOFTMAX, MLP):
            raise ValueError(f"unknown model kind '{self.kind}'")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        if not 0 <= self.l2 < np.inf:
            raise ValueError("l2 must be finite and non-negative")
        if self.kind == MLP and self.hidden < 1:
            raise ValueError("mlp needs hidden >= 1")
        if self.kind == SOFTMAX and self.hidden != 0:
            raise ValueError("softmax takes no hidden size")

    @classmethod
    def softmax(cls, input_dim: int, num_classes: int, l2: float = 0.0) -> "ModelSpec":
        return cls(SOFTMAX, input_dim, num_classes, l2)

    @classmethod
    def mlp(cls, input_dim: int, hidden: int, num_classes: int, l2: float = 0.0) -> "ModelSpec":
        return cls(MLP, input_dim, num_classes, l2, hidden)

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """Each layer's weight shape, from the input to the classes."""
        d, h, c = self.input_dim, self.hidden, self.num_classes
        return ((d, c),) if self.kind == SOFTMAX else ((d, h), (h, c))

    @property
    def param_count(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_shapes)


class PerSampleGrads(NamedTuple):
    """Per-example gradients (rows), their L2 norms, and losses."""

    grads: np.ndarray
    norms: np.ndarray
    losses: np.ndarray


def init_params(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    """Zeros for softmax; Glorot-uniform weights with zero biases for mlp."""
    if spec.kind == SOFTMAX:
        return np.zeros(spec.param_count)
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in spec.layer_shapes:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-limit, limit, size=(fan_in, fan_out)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (W, b) as views of ``params``, in parameter order."""
    if params.shape != (spec.param_count,):
        raise ValueError(f"params length {params.shape} != {spec.param_count}")
    layers, off = [], 0
    for fan_in, fan_out in spec.layer_shapes:
        end = off + fan_in * fan_out
        layers.append((params[off:end].reshape(fan_in, fan_out), params[end:end + fan_out]))
        off = end + fan_out
    return layers


def _logits(weights, x: np.ndarray):
    """Logits for a 2-D input batch from the unpacked params, each layer's
    input, and each hidden layer's pre-activation."""
    inputs, hidden = [x], []
    for w, b in weights[:-1]:
        z = inputs[-1] @ w + b
        hidden.append(z)
        inputs.append(np.maximum(z, 0.0))
    w, b = weights[-1]
    return inputs[-1] @ w + b, inputs, hidden


def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and each row's log-sum-exp.

    One row max, one max-shifted ``exp`` and one row sum serve both, so
    the losses and the predictions of a batch come from the same values.
    """
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=1, keepdims=True)
    return e / total, np.log(total[:, 0]) + top[:, 0]


def forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one sample (1-D x) or a batch (2-D x)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    logits, _, _ = _logits(_unpack(spec, params), x[None, :] if single else x)
    probs, _ = _softmax(logits)
    return probs[0] if single else probs


def _weight_penalty(spec: ModelSpec, weights) -> float:
    if spec.l2 == 0.0:
        return 0.0
    return 0.5 * spec.l2 * float(sum(np.sum(w * w) for w, _ in weights))


def _outputs(spec: ModelSpec, weights, batch):
    """One forward pass: class probabilities, per-sample regularized
    cross-entropy, each layer's input and each hidden pre-activation."""
    y = np.asarray(batch.labels, dtype=np.int64)
    logits, inputs, hidden = _logits(weights, np.asarray(batch.features, dtype=np.float64))
    probs, lse = _softmax(logits)
    losses = lse - logits[np.arange(y.shape[0]), y] + _weight_penalty(spec, weights)
    return probs, losses, inputs, hidden


def predictions_and_losses(spec: ModelSpec, params: np.ndarray,
                           batch) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's predicted class (the argmax of ``forward``) and its
    regularized loss, from one forward pass and no gradient."""
    probs, losses, _, _ = _outputs(spec, _unpack(spec, params), batch)
    return np.argmax(probs, axis=1), losses


def _layer_factors(spec: ModelSpec, params: np.ndarray, batch):
    """One forward/backward pass: losses, predictions and each layer's factors.

    Predictions are the argmax of the class probabilities, exactly as from
    ``forward``. Layers come in parameter order as ``(inputs, deltas,
    penalty)``; each owns a weight matrix followed by its bias. Row i of
    the weight gradient is the outer product of ``inputs[i]`` and
    ``deltas[i]`` plus ``penalty``, the L2 term shaped like the weight
    matrix (None when l2 is 0); row i of the bias gradient is ``deltas[i]``.
    """
    y = np.asarray(batch.labels, dtype=np.int64)
    weights = _unpack(spec, params)
    deltas, losses, inputs, hidden = _outputs(spec, weights, batch)
    predictions = np.argmax(deltas, axis=1)
    deltas[np.arange(y.shape[0]), y] -= 1.0
    layers = []
    for k, (w, _) in reversed(list(enumerate(weights))):
        layers.append((inputs[k], deltas, spec.l2 * w if spec.l2 else None))
        if k:
            deltas = (deltas @ w.T) * (hidden[k - 1] > 0.0)
    return losses, predictions, tuple(reversed(layers))


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("bi,bi->b", u, v)


class GradStream:
    """Per-sample gradient norms and weighted sums of one batch, from its
    layer factors, without building any gradient row.

    Construction runs the batch's forward/backward pass once and sums each
    segment's squared row norms: |a_i|^2 |d_i|^2 + 2 a_i^T (lW) d_i + |lW|^2
    for a weight matrix, |d_i|^2 for its bias. Each layer's |d_i|^2 is
    computed once and serves both. The sum is clamped at 0 before the
    square root, because the L2 cross term can round it just below; NaN and
    inf pass through. Memory is a few layer-sized arrays.

    Attributes:
      norms, losses: per-sample gradient norms and regularized losses.
      predictions: each row's predicted class, as from ``forward``.
      rows: the batch size.
    """

    def __init__(self, spec: ModelSpec, params: np.ndarray, batch):
        self.losses, self.predictions, self._layers = _layer_factors(spec, params, batch)
        self.rows = self.losses.shape[0]
        squares = np.zeros(self.rows)
        for inputs, deltas, penalty in self._layers:
            delta_squares = _row_dots(deltas, deltas)
            weight_squares = delta_squares * _row_dots(inputs, inputs)
            if penalty is not None:
                weight_squares += 2.0 * _row_dots(inputs @ penalty, deltas)
                weight_squares += np.vdot(penalty, penalty)
            squares += weight_squares
            squares += delta_squares
        self.norms = np.sqrt(np.maximum(squares, 0.0))

    def weighted_sum(self, factors: np.ndarray | None = None) -> np.ndarray:
        """Sum of the gradient rows, row i scaled by ``factors[i]``.

        ``None`` sums them unscaled, through the same arithmetic with unit
        factors, so it equals the sum under factors that are all 1.0 bit
        for bit. A weight matrix contributes A^T (f * D) + lW sum(f), its
        bias f^T D.
        """
        f = np.ones(self.rows) if factors is None else factors
        parts = []
        for inputs, deltas, penalty in self._layers:
            part = inputs.T @ (deltas * f[:, None])
            if penalty is not None:
                part += penalty * f.sum()
            parts += [part.ravel(), f @ deltas]
        return np.concatenate(parts)


def per_sample_grads(spec: ModelSpec, params: np.ndarray, batch) -> PerSampleGrads:
    """Gradient of each sample's regularized loss w.r.t. the flat params.

    The materialized form of ``GradStream``, built from the same layer
    factors. Training never calls it; it is the reference the stream's
    norms and sums are tested against.

    Args:
      batch: anything with ``features`` (b x input_dim) and ``labels`` (b).

    Returns:
      PerSampleGrads with a (b x param_count) gradient matrix, row norms,
      and per-sample losses.
    """
    losses, _, layers = _layer_factors(spec, params, batch)
    columns = []
    for inputs, deltas, penalty in layers:
        rows = np.einsum("bi,bj->bij", inputs, deltas)
        if penalty is not None:
            rows += penalty
        columns += [rows.reshape(rows.shape[0], -1), deltas]
    grads = np.concatenate(columns, axis=1)
    return PerSampleGrads(grads, np.linalg.norm(grads, axis=1), losses)


def save_params(path, spec: ModelSpec, params: np.ndarray) -> None:
    """Write the spec descriptor followed by the little-endian f64 values."""
    header = _PARAMS_HEADER.pack(_KIND_CODES[spec.kind], spec.input_dim,
                                 spec.num_classes, spec.hidden, spec.l2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(params, dtype="<f8").tobytes())


def load_params(path) -> tuple[ModelSpec, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PARAMS_HEADER.size:
        raise DataError(f"truncated params file: '{path}'")
    code, input_dim, num_classes, hidden, l2 = _PARAMS_HEADER.unpack_from(blob)
    kinds = {v: k for k, v in _KIND_CODES.items()}
    if code not in kinds:
        raise DataError(f"unknown model kind code {code} in '{path}'")
    spec = ModelSpec(kinds[code], input_dim, num_classes, l2, hidden)
    size = len(blob) - _PARAMS_HEADER.size
    if size != 8 * spec.param_count:  # also a trailing partial value
        raise DataError(f"params file '{path}' has {size} bytes of values, "
                        f"expected {8 * spec.param_count}")
    return spec, np.frombuffer(blob, dtype="<f8", offset=_PARAMS_HEADER.size).copy()
