import numpy as np
import pytest

from fairdp.clipping import (GroupAdaptive, NaiveReweight, NonPrivate, Uniform,
                             adaptive_bounds, apply_strategy, naive_weights,
                             row_factors)


def make_grads(grad_matrix):
    grad_matrix = np.asarray(grad_matrix, dtype=np.float64)
    return grad_matrix, np.linalg.norm(grad_matrix, axis=1)


def random_grads(rng, rows, dim, scale=3.0):
    return make_grads(scale * rng.standard_normal((rows, dim)))


def clip(grads, groups, bounds, weights=None):
    """Scaled rows and sensitivity for per-group bounds and weights."""
    matrix, norms = grads
    if weights is None:
        weights = np.ones(len(bounds))
    factors, sensitivity, _ = row_factors(norms, groups, np.asarray(bounds, dtype=float),
                                          np.asarray(weights, dtype=float))
    return matrix * factors[:, None], sensitivity


def clip_at(grads, bound):
    """Every row in one group, clipped at ``bound``."""
    return clip(grads, np.zeros(grads[1].shape[0], dtype=int), [bound])


class TestClipUniform:
    def test_rescales_long_row(self):
        clipped, sensitivity = clip_at(make_grads([[3.0, 4.0]]), 1.0)
        np.testing.assert_allclose(clipped, [[0.6, 0.8]], rtol=1e-15)
        assert sensitivity == 1.0

    def test_short_row_untouched(self):
        grads = make_grads([[0.3, 0.4]])
        clipped, _ = clip_at(grads, 1.0)
        np.testing.assert_array_equal(clipped, grads[0])

    def test_zero_row_passes_through(self):
        clipped, _ = clip_at(make_grads([[0.0, 0.0]]), 1.0)
        np.testing.assert_array_equal(clipped, [[0.0, 0.0]])

    def test_infinite_bound_is_identity(self):
        grads = random_grads(np.random.default_rng(0), 8, 5)
        clipped, _ = clip_at(grads, np.inf)
        np.testing.assert_array_equal(clipped, grads[0])

    def test_idempotent(self):
        # up to one ulp: a re-measured norm of a clipped row can round a
        # hair above the bound and trigger a rescale by (1 - epsilon)
        grads = random_grads(np.random.default_rng(1), 16, 4)
        once, _ = clip_at(grads, 0.7)
        twice, _ = clip_at(make_grads(once), 0.7)
        np.testing.assert_allclose(twice, once, rtol=1e-15, atol=0)

    def test_report_when_groups_given(self):
        _, norms = make_grads([[2.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
        out = apply_strategy(Uniform(1.0), norms, np.array([0, 0, 1]), 3,
                             np.random.default_rng(0))
        np.testing.assert_array_equal(out.bounds, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(out.weights, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(out.clipped_fraction[:2], [0.5, 1.0])
        assert np.isnan(out.clipped_fraction[2])


def noiseless_counts(norms, groups, bound, num_groups):
    """The release's noised counts of a zero-noise ``GroupAdaptive`` step."""
    out = apply_strategy(GroupAdaptive(bound, 0.0), np.asarray(norms, dtype=float),
                         np.asarray(groups), num_groups, np.random.default_rng(0))
    return out.above_noised, out.sizes_noised


class TestExactCounts:
    def test_tie_counts_as_not_clipped(self):
        grads = make_grads([[0.5], [1.0], [2.0]])
        above, sizes = noiseless_counts(grads[1], np.zeros(3, dtype=int), 1.0, 1)
        assert above[0] == 1 and sizes[0] - above[0] == 2

    def test_absent_group_zero(self):
        grads = make_grads([[2.0]])
        above, sizes = noiseless_counts(grads[1], np.array([0]), 1.0, 3)
        np.testing.assert_array_equal(above, [1, 0, 0])
        np.testing.assert_array_equal(sizes - above, [0, 0, 0])

    def test_all_above(self):
        grads = make_grads([[3.0], [4.0]])
        above, sizes = noiseless_counts(grads[1], np.array([1, 1]), 1.0, 2)
        assert above[1] == 2 and sizes[1] - above[1] == 0


class TestNoiseCounts:
    def test_zero_std_is_identity(self):
        # group 0: two rows above the bound, three at or below; group 1: five below
        above, sizes = noiseless_counts([2.0, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                                        [0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 1.0, 2)
        np.testing.assert_array_equal(above, [2.0, 0.0])
        np.testing.assert_array_equal(sizes - above, [3.0, 5.0])

    def test_additivity_of_size(self):
        out = apply_strategy(GroupAdaptive(1.0, 4.0), np.array([2.0, 2.0, 0.5, 0.5, 0.5]),
                             np.zeros(5, dtype=int), 1, np.random.default_rng(7))
        draws = np.random.default_rng(7).normal(0.0, 4.0, size=2)
        assert out.sizes_noised[0] == pytest.approx(5.0 + draws.sum(), abs=1e-12)

    def test_negative_draw_clamped_in_derived(self):
        # one row above the bound, none below; the size draw is negative
        draws = np.random.default_rng(3).normal(0.0, 50.0, size=2)
        above = np.array([1.0 + draws[0]])
        sizes = above + (0.0 + draws[1])
        assert above[0] > 0.0 and sizes[0] < 0.0
        bounds = adaptive_bounds(above, sizes, 1.0, batch_size=1)
        # the size clamps to one, so the bound is 1 + above/above, not below base
        np.testing.assert_array_equal(bounds, [2.0])


class TestAdaptiveBounds:
    def test_equal_shares_give_double(self):
        bounds = adaptive_bounds(np.array([5.0, 5.0]), np.array([10.0, 10.0]), 0.75,
                                 batch_size=20)
        np.testing.assert_array_equal(bounds, [1.5, 1.5])

    def test_unclipped_group_keeps_base(self):
        bounds = adaptive_bounds(np.array([0.0, 4.0]), np.array([6.0, 6.0]), 1.0,
                                 batch_size=12)
        assert bounds[0] == 1.0
        assert bounds[1] > 1.0

    def test_no_pressure_anywhere_keeps_base(self):
        np.testing.assert_array_equal(
            adaptive_bounds(np.array([0.0, 0.0]), np.array([6.0, 6.0]), 1.0, 12), [1.0, 1.0])

    def test_monotone_in_above_count(self):
        # one more clipped sample in a group means one fewer unclipped one,
        # so the group size stays fixed; under that coupling the group's
        # bound never decreases
        rng = np.random.default_rng(11)
        for _ in range(200):
            above = rng.integers(1, 20, size=3).astype(float)
            below = rng.integers(2, 20, size=3).astype(float)
            shift = np.array([1.0, 0.0, 0.0])
            b0 = adaptive_bounds(above, above + below, 1.0, 60)
            b1 = adaptive_bounds(above + shift, above + below, 1.0, 60)
            assert b1[0] >= b0[0] - 1e-12

    def test_direction_more_clipping_means_larger_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            size = int(rng.integers(4, 30))
            above_a = int(rng.integers(1, size))
            above_b = int(rng.integers(0, above_a))  # group B clips strictly less
            bounds = adaptive_bounds(np.array([above_a, above_b], dtype=float),
                                     np.array([size, size], dtype=float), 1.0, 2 * size)
            assert bounds[0] > bounds[1]


class TestClipAdaptive:
    def test_per_group_bounds(self):
        grads = make_grads([[5.0, 0.0], [0.0, 5.0]])
        clipped, sensitivity = clip(grads, np.array([0, 1]), [1.0, 3.0])
        np.testing.assert_allclose(np.linalg.norm(clipped, axis=1), [1.0, 3.0])
        assert sensitivity == 3.0

    def test_equal_bounds_match_uniform(self):
        grads = random_grads(np.random.default_rng(5), 12, 4)
        groups = np.random.default_rng(6).integers(0, 3, size=12)
        adaptive = clip(grads, groups, np.full(3, 0.9))
        uniform = clip_at(grads, 0.9)
        np.testing.assert_array_equal(adaptive[0], uniform[0])
        assert adaptive[1] == uniform[1]

    def test_absent_group_cannot_inflate_sensitivity(self):
        grads = make_grads([[5.0, 0.0]])
        _, sensitivity = clip(grads, np.array([0]), [1.0, 1e9])
        assert sensitivity == 1.0


class TestNaive:
    def test_balanced_weights_are_one(self):
        np.testing.assert_array_equal(naive_weights(np.array([8.0, 8.0]), 2, 16),
                                      [1.0, 1.0])

    def test_half_share_doubles(self):
        assert naive_weights(np.array([4.0, 12.0]), 2, 16)[0] == 2.0

    def test_nonpositive_size_clamped_to_one(self):
        weights = naive_weights(np.array([-3.0, 8.0]), 2, 16)
        assert weights[0] == 8.0  # (16/2) / max(-3, 1)

    def test_weights_one_equals_uniform(self):
        grads = random_grads(np.random.default_rng(8), 10, 3)
        groups = np.random.default_rng(9).integers(0, 2, size=10)
        naive = clip(grads, groups, [0.8, 0.8], [1.0, 1.0])
        uniform = clip_at(grads, 0.8)
        np.testing.assert_array_equal(naive[0], uniform[0])
        assert naive[1] == uniform[1]

    def test_clip_then_scale(self):
        grads = make_grads([[5.0]])
        clipped, sensitivity = clip(grads, np.array([0]), [1.0], [2.0])
        np.testing.assert_allclose(clipped, [[2.0]])
        assert sensitivity == 2.0

    def test_sensitivity_uses_max_present_weight(self):
        grads = make_grads([[1.0], [1.0]])
        _, sensitivity = clip(grads, np.array([0, 1]), [0.5, 0.5], [1.0, 2.0])
        assert sensitivity == 1.0


class TestApplyStrategy:
    def test_uniform(self):
        _, norms = random_grads(np.random.default_rng(3), 6, 4)
        groups = np.zeros(6, dtype=int)
        out = apply_strategy(Uniform(1.0), norms, groups, 1, np.random.default_rng(0))
        assert out.sensitivity == 1.0

    def test_group_adaptive_attaches_noised_counts(self):
        _, norms = random_grads(np.random.default_rng(4), 6, 4)
        groups = np.array([0, 0, 0, 1, 1, 1])
        out = apply_strategy(GroupAdaptive(0.5, 2.0), norms, groups, 2,
                             np.random.default_rng(1))
        assert out.above_noised is not None
        assert out.sizes_noised is not None

    def test_naive_attaches_noised_sizes(self):
        _, norms = random_grads(np.random.default_rng(4), 6, 4)
        groups = np.array([0, 0, 0, 1, 1, 1])
        out = apply_strategy(NaiveReweight(0.5, 2.0), norms, groups, 2,
                             np.random.default_rng(1))
        assert out.sizes_noised is not None
        assert out.above_noised is None
        # the bounds stay at the base bound; the reweighting is in the weights
        np.testing.assert_array_equal(out.bounds, [0.5, 0.5])
        np.testing.assert_array_equal(out.weights, naive_weights(out.sizes_noised, 2, 6))

    def test_nonprivate_rejected(self):
        _, norms = random_grads(np.random.default_rng(4), 2, 2)
        with pytest.raises(ValueError):
            apply_strategy(NonPrivate(), norms, np.zeros(2, dtype=int), 1,
                           np.random.default_rng(0))

    def test_count_noise_draw_order_is_documented(self):
        # adaptive consumes 2K normals: above counts first, then at-or-below;
        # naive consumes K normals, one per group size. Under seed 7 the
        # sizes round differently if summed as (above + below) + noise.
        _, norms = make_grads([[9.0], [0.1]])
        groups = np.array([0, 1])
        for seed in (42, 7):
            out = apply_strategy(GroupAdaptive(1.0, 3.0), norms, groups, 2,
                                 np.random.default_rng(seed))
            draws = np.random.default_rng(seed).normal(0.0, 3.0, size=4)
            above = np.array([1.0, 0.0]) + draws[:2]
            np.testing.assert_array_equal(out.above_noised, above)
            np.testing.assert_array_equal(out.sizes_noised,
                                          above + (np.array([0.0, 1.0]) + draws[2:]))
            out = apply_strategy(NaiveReweight(1.0, 3.0), norms, groups, 2,
                                 np.random.default_rng(seed))
            draws = np.random.default_rng(seed).normal(0.0, 3.0, size=2)
            np.testing.assert_array_equal(out.sizes_noised,
                                          np.array([1.0, 1.0]) + draws)


class TestNormSafetyFuzz:
    @pytest.mark.parametrize("strategy_kind", ["uniform", "adaptive", "naive"])
    def test_every_clipped_row_within_bound(self, strategy_kind):
        rng = np.random.default_rng(hash(strategy_kind) % 2**32)
        for _ in range(60):
            rows = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 8))
            num_groups = int(rng.integers(1, 5))
            grads = random_grads(rng, rows, dim, scale=float(rng.uniform(0.1, 10)))
            groups = rng.integers(0, num_groups, size=rows)
            if strategy_kind == "uniform":
                bound = float(rng.uniform(0.01, 5.0))
                clipped, sensitivity = clip_at(grads, bound)
                limits = np.full(rows, bound)
            elif strategy_kind == "adaptive":
                bounds = rng.uniform(0.01, 5.0, size=num_groups)
                clipped, sensitivity = clip(grads, groups, bounds)
                limits = bounds[groups]
            else:
                base = float(rng.uniform(0.01, 5.0))
                weights = rng.uniform(0.1, 4.0, size=num_groups)
                clipped, sensitivity = clip(grads, groups, np.full(num_groups, base),
                                            weights)
                limits = base * weights[groups]
            norms = np.linalg.norm(clipped, axis=1)
            assert np.all(norms <= limits + 1e-9)
            assert np.all(norms <= sensitivity + 1e-9)


class TestStrategyValidation:
    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            Uniform(0.0)
        with pytest.raises(ValueError):
            GroupAdaptive(-1.0)
        with pytest.raises(ValueError):
            NaiveReweight(1.0, -0.5)

    def test_naive_base_must_be_finite(self):
        with pytest.raises(ValueError):
            NaiveReweight(np.inf)
