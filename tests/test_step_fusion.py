"""A DP-SGD step computes its shared intermediates once, with the same bits.

``unfused_step`` keeps the arithmetic that recomputed them (a second row
max and ``exp`` for the loss, per-segment delta row-squares, a second
clip mask and ``bincount``). Every value the fused code yields must equal
it exactly: a last-bit change would move every artifact of a run. The
same holds for the training-set evaluation, whose chunks are row views
where they were gathered copies.
"""

import tracemalloc

import numpy as np
import pytest

import unfused_step as ref
from fairdp import trainer
from fairdp.clipping import GroupAdaptive, NaiveReweight, Uniform, apply_strategy, row_factors
from fairdp.dataio import Batch, Dataset
from fairdp.metrics import group_report
from fairdp.model import (GradStream, ModelSpec, forward, init_params, per_sample_grads,
                          predictions_and_losses)

NUM_GROUPS = 3
SPECS = {
    "softmax": lambda l2: ModelSpec.softmax(6, 3, l2),
    "mlp": lambda l2: ModelSpec.mlp(6, 5, 3, l2),
}
STRATEGIES = {
    "dpsgd": lambda bound: Uniform(bound),
    "naive": lambda bound: NaiveReweight(bound, 3.0),
    "dpsgd-f": lambda bound: GroupAdaptive(bound, 3.0),
}


def cases(kind, l2, count=12):
    """Seeded (spec, params, batch); odd cases leave group 1 out of the batch."""
    rng = np.random.default_rng((11, int(kind == "mlp"), int(l2 * 100)))
    spec = SPECS[kind](l2)
    for case in range(count):
        rows = int(rng.integers(20, 80))
        groups = rng.choice([0, 2], rows) if case % 2 else rng.integers(0, NUM_GROUPS, rows)
        batch = Batch(rng.uniform(0.2, 3.0) * rng.standard_normal((rows, spec.input_dim)),
                      rng.integers(0, spec.num_classes, rows), groups)
        params = init_params(spec, case) + 0.6 * rng.standard_normal(spec.param_count)
        yield spec, params, batch


@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["softmax", "mlp"])
class TestModelPass:
    def test_stream_equals_unfused(self, kind, l2):
        rng = np.random.default_rng(3)
        for spec, params, batch in cases(kind, l2):
            losses, predictions, segments = ref.layer_factors(spec, params, batch)
            stream = GradStream(spec, params, batch)
            rows = batch.labels.shape[0]
            np.testing.assert_array_equal(stream.losses, losses)
            np.testing.assert_array_equal(stream.predictions, predictions)
            np.testing.assert_array_equal(stream.norms, ref.norms(segments, rows))
            factors = rng.uniform(0.0, 2.0, rows)
            np.testing.assert_array_equal(stream.weighted_sum(factors),
                                          ref.weighted_sum(segments, factors))
            np.testing.assert_array_equal(stream.weighted_sum(),
                                          ref.weighted_sum(segments, np.ones(rows)))
            np.testing.assert_array_equal(per_sample_grads(spec, params, batch).grads,
                                          ref.grads(segments))

    def test_eval_paths_equal_unfused(self, kind, l2):
        for spec, params, batch in cases(kind, l2):
            out, _, _ = ref.logits(spec, params, batch.features)
            losses = ref.sample_losses(spec, params, out, batch.labels)
            probs = ref.forward(spec, params, batch.features)
            np.testing.assert_array_equal(forward(spec, params, batch.features), probs)
            np.testing.assert_array_equal(forward(spec, params, batch.features[0]),
                                          ref.forward(spec, params, batch.features[:1])[0])
            predictions, fused_losses = predictions_and_losses(spec, params, batch)
            np.testing.assert_array_equal(predictions, np.argmax(probs, axis=1))
            np.testing.assert_array_equal(fused_losses, losses)

    def test_group_report_equals_unfused(self, kind, l2):
        for spec, params, batch in cases(kind, l2):
            groups = np.arange(batch.labels.shape[0]) % NUM_GROUPS
            data = Dataset(batch.features, batch.labels, groups,
                           tuple(f"g{k}" for k in range(NUM_GROUPS)), spec.num_classes)
            out, _, _ = ref.logits(spec, params, data.features)
            correct = (np.argmax(ref.forward(spec, params, data.features), axis=1)
                       == data.labels).astype(np.float64)
            losses = ref.sample_losses(spec, params, out, data.labels)
            counts = data.group_sizes()
            report = group_report(spec, params, data)
            np.testing.assert_array_equal(
                report.accuracy,
                np.bincount(groups, weights=correct, minlength=NUM_GROUPS) / counts)
            np.testing.assert_array_equal(
                report.mean_loss,
                np.bincount(groups, weights=losses, minlength=NUM_GROUPS) / counts)
            assert report.overall_accuracy == float(correct.mean())


@pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["softmax", "mlp"])
def test_apply_strategy_equals_unfused(kind, l2, strategy_name):
    """Every field of the release, with the bound equal to one row's norm."""
    for case, (spec, params, batch) in enumerate(cases(kind, l2)):
        norms = GradStream(spec, params, batch).norms
        bound = float(np.sort(norms)[norms.shape[0] // 3])
        strategy = STRATEGIES[strategy_name](bound)
        fused = apply_strategy(strategy, norms, batch.groups, NUM_GROUPS,
                               np.random.default_rng(case))
        factors, sensitivity, bounds, weights, clipped, above, sizes = ref.apply_strategy(
            strategy, norms, batch.groups, NUM_GROUPS, np.random.default_rng(case))
        np.testing.assert_array_equal(fused.factors, factors)
        assert fused.sensitivity == sensitivity
        np.testing.assert_array_equal(fused.bounds, bounds)
        np.testing.assert_array_equal(fused.weights, weights)
        np.testing.assert_array_equal(fused.clipped_fraction, clipped)
        for got, want in ((fused.above_noised, above), (fused.sizes_noised, sizes)):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(got, want)
        if case % 2:
            assert np.isnan(fused.clipped_fraction[1])


def test_row_factors_equal_unfused():
    rng = np.random.default_rng(8)
    for case in range(200):
        num_groups = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 40))
        groups = rng.integers(0, num_groups, rows)
        norms = rng.exponential(2.0, rows)
        norms[rng.random(rows) < 0.1] = 0.0
        bounds = rng.uniform(0.1, 4.0, num_groups)
        norms[0] = bounds[groups[0]]  # a row exactly at its bound is not clipped
        weights = rng.uniform(0.1, 3.0, num_groups)
        want_factors, want_sensitivity = ref.row_factors(norms, groups, bounds, weights)
        want_clipped = ref.clip_fraction(norms, groups, bounds, num_groups)
        sizes = np.bincount(groups, minlength=num_groups)
        for given in (None, sizes):
            factors, sensitivity, clipped = row_factors(norms, groups, bounds, weights, given)
            np.testing.assert_array_equal(factors, want_factors)
            assert sensitivity == want_sensitivity
            np.testing.assert_array_equal(clipped, want_clipped)
        assert factors[0] == weights[groups[0]]


def stats_data(n, dim, seed=0):
    """Rows in groups 0 and 2 only, so group 1's entries are NaN."""
    rng = np.random.default_rng((n, dim, seed))
    return Dataset(rng.uniform(0.0, 1.0, (n, dim)), rng.integers(0, 10, n),
                   rng.choice([0, 2], n), ("g0", "g1", "g2"), 10)


class TestGroupTrainStatsChunks:
    @pytest.mark.parametrize("dim", [1, 3, 20, 784])
    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4100])
    def test_equals_gathered_chunks(self, n, dim):
        spec = ModelSpec.mlp(dim, 8, 10, 1e-3)
        params = init_params(spec, 2) + 0.3 * np.random.default_rng(dim).standard_normal(
            spec.param_count)
        data = stats_data(n, dim)
        got = trainer.group_train_stats(spec, params, data)
        for values, want in zip(got, ref.gathered_group_train_stats(spec, params, data)):
            np.testing.assert_array_equal(values, want)
        assert all(np.isnan(values[1]) for values in got)

    def test_chunks_are_row_views(self, monkeypatch):
        data = stats_data(4100, 3)
        batches = []

        def spy(spec, params, batch):
            batches.append(batch)
            return GradStream(spec, params, batch)

        monkeypatch.setattr(trainer, "GradStream", spy)
        spec = ModelSpec.mlp(3, 4, 10)
        trainer.group_train_stats(spec, init_params(spec, 0), data)
        assert [b.labels.shape[0] for b in batches] == [2048, 2048, 4]
        for batch in batches:
            for part, whole in zip(batch, (data.features, data.labels, data.groups)):
                assert np.shares_memory(part, whole)

    def test_peak_below_one_chunk_gather(self):
        spec = ModelSpec.mlp(784, 100, 10)
        data = stats_data(4100, 784)
        params = init_params(spec, 1)
        gather = trainer.STATS_CHUNK_ROWS * 784 * 8
        tracemalloc.start()
        try:
            trainer.group_train_stats(spec, params, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gather
