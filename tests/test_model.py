import numpy as np
import pytest

from fairdp.dataio import Batch, Dataset
from fairdp.errors import DataError
from fairdp.metrics import group_report
from fairdp.model import (GradStream, ModelSpec, _unpack, forward, init_params,
                          load_params, per_sample_grads, predictions_and_losses,
                          save_params)


def random_batch(rng, n, d, c):
    return Batch(rng.standard_normal((n, d)), rng.integers(0, c, size=n),
                 np.zeros(n, dtype=int))


def finite_diff_grads(spec, params, batch, step=1e-6):
    """Central-difference gradient of each sample's loss, one coordinate at
    a time; the independent oracle for the analytic gradients."""
    n = batch.features.shape[0]
    out = np.zeros((n, params.size))
    for j in range(params.size):
        up, down = params.copy(), params.copy()
        up[j] += step
        down[j] -= step
        lp = per_sample_grads(spec, up, batch).losses
        lm = per_sample_grads(spec, down, batch).losses
        out[:, j] = (lp - lm) / (2 * step)
    return out


def mlp_params_off_kinks(spec, batch, seed, margin=1e-4):
    """Random params whose hidden pre-activations stay away from the ReLU
    kink for every sample, so finite differences are valid."""
    for offset in range(100):
        rng = np.random.default_rng(seed + offset)
        params = 0.5 * rng.standard_normal(spec.param_count)
        d, h = spec.input_dim, spec.hidden
        w1 = params[: d * h].reshape(d, h)
        b1 = params[d * h: d * h + h]
        z1 = batch.features @ w1 + b1
        if np.abs(z1).min() > margin:
            return params
    raise AssertionError("could not find kink-free parameters")


class TestSpec:
    def test_param_counts(self):
        assert ModelSpec.softmax(4, 2).param_count == 10
        assert ModelSpec.mlp(4, 3, 2).param_count == 23

    def test_init_zeros_and_glorot(self):
        spec = ModelSpec.softmax(4, 2)
        np.testing.assert_array_equal(init_params(spec), np.zeros(10))
        mspec = ModelSpec.mlp(4, 3, 2)
        p = init_params(mspec, seed=3)
        assert p.shape == (23,)
        np.testing.assert_array_equal(init_params(mspec, seed=3), p)
        assert not np.array_equal(init_params(mspec, seed=4), p)
        # biases start at zero
        assert np.all(p[12:15] == 0) and np.all(p[21:] == 0)

    def test_glorot_draws_w1_then_w2_from_one_generator(self):
        rng = np.random.default_rng(3)
        w1 = rng.uniform(-np.sqrt(6.0 / 7), np.sqrt(6.0 / 7), size=(4, 3))
        w2 = rng.uniform(-np.sqrt(6.0 / 5), np.sqrt(6.0 / 5), size=(3, 2))
        want = np.concatenate([w1.ravel(), np.zeros(3), w2.ravel(), np.zeros(2)])
        np.testing.assert_array_equal(init_params(ModelSpec.mlp(4, 3, 2), seed=3), want)

    def test_layer_shapes_run_from_input_to_classes(self):
        assert ModelSpec.softmax(4, 2).layer_shapes == ((4, 2),)
        assert ModelSpec.mlp(4, 3, 2).layer_shapes == ((4, 3), (3, 2))

    @pytest.mark.parametrize("spec, shapes", [
        (ModelSpec.softmax(4, 2), [(4, 2), (2,)]),
        (ModelSpec.mlp(4, 3, 2), [(4, 3), (3,), (3, 2), (2,)])], ids=["softmax", "mlp"])
    def test_unpack_views_cover_params_once_in_documented_order(self, spec, shapes):
        # the module docstring's layout: each weight matrix row-major, then
        # its bias, input layer first
        params = np.arange(spec.param_count, dtype=np.float64)
        pieces = [piece for layer in _unpack(spec, params) for piece in layer]
        assert [piece.shape for piece in pieces] == shapes
        assert all(np.shares_memory(piece, params) for piece in pieces)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in pieces]), params)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("conv", 4, 2)
        with pytest.raises(ValueError):
            ModelSpec.mlp(4, 0, 2)
        with pytest.raises(ValueError):
            ModelSpec.softmax(4, 2, l2=-0.1)


class TestForward:
    def test_zero_params_uniform(self):
        spec = ModelSpec.softmax(3, 4)
        probs = forward(spec, init_params(spec), np.ones(3))
        np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-15)

    def test_extreme_logits_stable(self):
        spec = ModelSpec.softmax(1, 2)
        # W = [[1000, 0]], bias 0 -> logits (1000, 0) for x = 1
        params = np.array([1000.0, 0.0, 0.0, 0.0])
        probs = forward(spec, params, np.array([1.0]))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-300)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        spec = ModelSpec.mlp(5, 4, 3, l2=0.1)
        params = rng.standard_normal(spec.param_count)
        probs = forward(spec, params, rng.standard_normal((50, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs > 0).all()

    def test_logit_shift_invariance(self):
        # adding a constant to every class bias shifts all logits equally
        rng = np.random.default_rng(1)
        spec = ModelSpec.softmax(4, 3)
        params = rng.standard_normal(spec.param_count)
        shifted = params.copy()
        shifted[-3:] += 7.25
        x = rng.standard_normal(4)
        np.testing.assert_allclose(forward(spec, params, x),
                                   forward(spec, shifted, x), atol=1e-12)


class TestPerSampleLosses:
    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_equal_to_gradient_pass_losses(self, kind):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, 40, 6, 3)
        spec = ModelSpec.softmax(6, 3, l2=0.05) if kind == "softmax" \
            else ModelSpec.mlp(6, 5, 3, l2=0.05)
        params = init_params(spec, seed=2) + 0.3 * rng.standard_normal(spec.param_count)
        np.testing.assert_array_equal(predictions_and_losses(spec, params, batch)[1],
                                      per_sample_grads(spec, params, batch).losses)


class TestPerSampleGrads:
    def test_closed_form_at_zero_params(self):
        c, d = 3, 4
        spec = ModelSpec.softmax(d, c, l2=0.5)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        batch = Batch(x[None, :], np.array([1]), np.array([0]))
        g = per_sample_grads(spec, np.zeros(spec.param_count), batch)
        w_block = g.grads[0, : d * c].reshape(d, c)
        np.testing.assert_allclose(w_block[:, 1], (1 / c - 1) * x, atol=1e-12)
        np.testing.assert_allclose(w_block[:, 0], (1 / c) * x, atol=1e-12)
        np.testing.assert_allclose(w_block[:, 2], (1 / c) * x, atol=1e-12)
        np.testing.assert_allclose(g.losses[0], np.log(c), atol=1e-12)

    @pytest.mark.parametrize("kind", ["softmax", "mlp"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(17)
        for trial in range(5):
            d = int(rng.integers(2, 8))
            c = int(rng.integers(2, 4))
            batch = random_batch(rng, 4, d, c)
            if kind == "softmax":
                spec = ModelSpec.softmax(d, c, l2=0.05)
                params = 0.5 * rng.standard_normal(spec.param_count)
            else:
                spec = ModelSpec.mlp(d, int(rng.integers(2, 5)), c, l2=0.05)
                params = mlp_params_off_kinks(spec, batch, seed=trial)
            analytic = per_sample_grads(spec, params, batch).grads
            numeric = finite_diff_grads(spec, params, batch)
            rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
            assert rel < 1e-5

    def test_mean_grad_matches_batch_objective(self):
        rng = np.random.default_rng(5)
        spec = ModelSpec.mlp(6, 4, 3, l2=0.2)
        params = rng.standard_normal(spec.param_count)
        batch = random_batch(rng, 32, 6, 3)
        g = per_sample_grads(spec, params, batch)
        # gradient of the mean loss via finite differences on the scalar
        step = 1e-6
        mean_fd = np.zeros(spec.param_count)
        for j in range(spec.param_count):
            up, down = params.copy(), params.copy()
            up[j] += step
            down[j] -= step
            mean_fd[j] = (per_sample_grads(spec, up, batch).losses.mean()
                          - per_sample_grads(spec, down, batch).losses.mean()) / (2 * step)
        np.testing.assert_allclose(g.grads.mean(axis=0), mean_fd, atol=1e-7)

    def test_mean_matches_closed_form_batch_gradient(self):
        # independent oracle: the regularized batch objective for softmax
        # regression has gradient X^T (P - Y) / b + l2 W (weights) and
        # mean(P - Y) (bias); the per-sample rows must average to it
        rng = np.random.default_rng(21)
        d, c, b = 6, 3, 24
        spec = ModelSpec.softmax(d, c, l2=0.3)
        params = rng.standard_normal(spec.param_count)
        batch = random_batch(rng, b, d, c)
        probs = forward(spec, params, batch.features)
        onehot = np.zeros((b, c))
        onehot[np.arange(b), batch.labels] = 1.0
        w = params[: d * c].reshape(d, c)
        grad_w = batch.features.T @ (probs - onehot) / b + spec.l2 * w
        grad_b = (probs - onehot).mean(axis=0)
        oracle = np.concatenate([grad_w.ravel(), grad_b])
        mean_rows = per_sample_grads(spec, params, batch).grads.mean(axis=0)
        np.testing.assert_allclose(mean_rows, oracle, atol=1e-10)

    def test_mean_of_rows_is_exact(self):
        # algebraic identity: mean of per-sample grads == grad of mean loss
        rng = np.random.default_rng(9)
        spec = ModelSpec.softmax(5, 3, l2=0.1)
        params = rng.standard_normal(spec.param_count)
        batch = random_batch(rng, 16, 5, 3)
        whole = per_sample_grads(spec, params, batch)
        # split the batch and recombine; sums must agree to 1e-10
        first = per_sample_grads(spec, params, Batch(batch.features[:8],
                                                     batch.labels[:8],
                                                     batch.groups[:8]))
        second = per_sample_grads(spec, params, Batch(batch.features[8:],
                                                      batch.labels[8:],
                                                      batch.groups[8:]))
        recombined = np.vstack([first.grads, second.grads])
        np.testing.assert_allclose(whole.grads, recombined, atol=1e-10)

    def test_duplicate_samples_identical_rows(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec.softmax(4, 2, l2=0.01)
        params = rng.standard_normal(spec.param_count)
        x = rng.standard_normal(4)
        batch = Batch(np.vstack([x, x]), np.array([1, 1]), np.array([0, 0]))
        g = per_sample_grads(spec, params, batch)
        np.testing.assert_array_equal(g.grads[0], g.grads[1])
        assert g.norms[0] == g.norms[1]

    def test_norms_recomputable(self):
        rng = np.random.default_rng(3)
        spec = ModelSpec.mlp(4, 3, 2, l2=0.1)
        params = rng.standard_normal(spec.param_count)
        g = per_sample_grads(spec, params, random_batch(rng, 10, 4, 2))
        np.testing.assert_allclose(g.norms, np.linalg.norm(g.grads, axis=1),
                                   rtol=1e-15)

    def test_relu_kink_passes_no_gradient(self):
        # zero features and zero init biases put every hidden pre-activation
        # at exactly 0, where the ReLU's derivative is taken as 0
        spec = ModelSpec.mlp(3, 4, 2)
        batch = Batch(np.zeros((2, 3)), np.array([0, 1]), np.zeros(2, dtype=int))
        g = per_sample_grads(spec, init_params(spec, seed=0), batch)
        assert not g.grads[:, :16].any()  # W1 and b1
        assert g.grads[:, 16:].any()


class TestGradStream:
    """The factored norms and weighted sums match the materialized
    ``per_sample_grads`` oracle to rounding; the losses and predictions are
    the same computation and match bit for bit."""

    # softmax(784, 10): P = 7,850; mlp(784, 100, 10): P = 79,510
    CASES = [("softmax", b) for b in (1, 20, 66, 150)] + [("mlp", b) for b in (1, 5, 6, 20)]

    # the factored path sums in another order than the rows; 1e-12 leaves
    # four decades above float64 rounding
    RTOL = 1e-12

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("kind,rows", CASES)
    def test_equals_materialized(self, kind, rows, l2):
        spec = ModelSpec.softmax(784, 10, l2) if kind == "softmax" \
            else ModelSpec.mlp(784, 100, 10, l2)
        rng = np.random.default_rng(rows)
        params = init_params(spec, seed=1) + 0.05 * rng.standard_normal(spec.param_count)
        batch = random_batch(rng, rows, 784, 10)
        whole = per_sample_grads(spec, params, batch)
        stream = GradStream(spec, params, batch)
        np.testing.assert_allclose(stream.norms, whole.norms, rtol=self.RTOL)
        np.testing.assert_array_equal(stream.losses, whole.losses)
        np.testing.assert_array_equal(stream.predictions,
                                      np.argmax(forward(spec, params, batch.features), axis=1))
        factors = rng.uniform(0.0, 2.0, rows)
        for _ in range(2):  # a second sum must not see the first one's scaling
            self.assert_sum_close(stream.weighted_sum(factors), whole.grads * factors[:, None])
            unscaled = stream.weighted_sum(None)
            np.testing.assert_array_equal(unscaled, stream.weighted_sum(np.ones(rows)))
            self.assert_sum_close(unscaled, whole.grads)

    def test_square_rounded_below_zero_clamps(self):
        # at weights where a d^T + lW cancels, the factored square of a
        # 1e9-scale input is a difference of 1e18-scale terms; it rounds
        # below zero for some of these samples, and the norm must not be NaN
        spec = ModelSpec.softmax(3, 2, l2=1e20)
        rng = np.random.default_rng(0)
        for _ in range(50):
            batch = random_batch(rng, 1, 3, 2)
            x = 1e9 * batch.features
            bias = rng.standard_normal(2)
            w = np.zeros((3, 2))
            for _ in range(5):  # fixed point of w = -x^T d(w) / l2
                d = forward(spec, np.concatenate([w.ravel(), bias]), x)
                d[0, batch.labels] -= 1.0
                w = -(x.T @ d) / spec.l2
            params = np.concatenate([w.ravel(), bias])
            stream = GradStream(spec, params, Batch(x, batch.labels, batch.groups))
            assert np.isfinite(stream.norms).all()

    def assert_sum_close(self, total, terms):
        # relative to the summed magnitudes, which bounds the rounding of any
        # summation order, also in coordinates where the rows cancel
        error = np.abs(total - terms.sum(axis=0))
        assert np.all(error <= self.RTOL * np.abs(terms).sum(axis=0))


class TestAccuracy:
    def test_uniform_prediction_tie_breaks_to_class_zero(self):
        spec = ModelSpec.softmax(2, 2)
        data = Dataset(np.zeros((10, 2)), np.array([0] * 5 + [1] * 5),
                       np.zeros(10, dtype=int), ("g",), 2)
        assert group_report(spec, init_params(spec), data).overall_accuracy == 0.5

    def test_perfect_fit(self):
        spec = ModelSpec.softmax(1, 2)
        # strong weight on the single feature separates x < 0 from x > 0
        params = np.array([-50.0, 50.0, 0.0, 0.0])
        x = np.array([[-1.0], [1.0], [-2.0], [0.5]])
        data = Dataset(x, np.array([0, 1, 0, 1]), np.zeros(4, dtype=int), ("g",), 2)
        assert group_report(spec, params, data).overall_accuracy == 1.0

    def test_single_wrong_sample(self):
        spec = ModelSpec.softmax(1, 2)
        params = np.array([-50.0, 50.0, 0.0, 0.0])
        data = Dataset(np.array([[1.0]]), np.array([0]), np.zeros(1, dtype=int),
                       ("g",), 2)
        assert group_report(spec, params, data).overall_accuracy == 0.0

    def test_empty_dataset_rejected(self):
        spec = ModelSpec.softmax(2, 2)
        data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int),
                       np.zeros(0, dtype=int), ("g",), 2)
        with pytest.raises(DataError):
            group_report(spec, init_params(spec), data)


class TestSerialization:
    @pytest.mark.parametrize("spec", [ModelSpec.softmax(5, 3, l2=0.01),
                                      ModelSpec.mlp(4, 6, 2, l2=0.5)])
    def test_roundtrip(self, tmp_path, spec):
        params = np.random.default_rng(0).standard_normal(spec.param_count)
        path = tmp_path / "params.bin"
        save_params(path, spec, params)
        back_spec, back = load_params(path)
        assert back_spec == spec
        np.testing.assert_array_equal(back, params)

    def test_truncated_rejected(self, tmp_path):
        spec = ModelSpec.softmax(3, 2)
        path = tmp_path / "params.bin"
        save_params(path, spec, init_params(spec))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_params(path)

    def test_trailing_partial_value_rejected(self, tmp_path):
        spec = ModelSpec.softmax(3, 2)
        path = tmp_path / "params.bin"
        save_params(path, spec, init_params(spec))
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(DataError, match="bytes of values"):
            load_params(path)
