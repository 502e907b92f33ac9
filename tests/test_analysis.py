import numpy as np
import pytest

from fairdp.analysis import cost_bounds, optimal_clip
from monte_carlo import empirical_error


def upper_envelope(norms, bound, eps):
    """The whole-batch error envelope, used as the sweep oracle."""
    return cost_bounds(norms, np.zeros(len(norms), dtype=int), bound, eps)[0].upper


class TestCostBounds:
    def test_no_clipping_means_pure_variance(self):
        out = cost_bounds(np.array([0.5, 0.7]), np.array([0, 0]), 1.0, 2.0)[0]
        assert out.bias_term == 0.0
        assert out.upper == out.variance_term == (1.0 / 2.0) / 2
        assert out.clipped_count == 0

    def test_worked_example(self):
        out = cost_bounds(np.array([2.0, 2.0]), np.array([0, 0]), 1.0, 1.0)[0]
        assert out.bias_term == pytest.approx(1.0)
        assert out.variance_term == pytest.approx(0.5)
        assert out.upper == pytest.approx(1.5)
        assert out.lower == pytest.approx(0.75)
        assert out.clipped_count == 2

    def test_lower_is_half_upper(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            norms = np.abs(rng.standard_normal(10))
            out = cost_bounds(norms, np.zeros(10, dtype=int), 0.5, 1.0)[0]
            assert out.lower == out.upper / 2

    def test_bias_homogeneous_in_scale(self):
        norms = np.array([0.5, 1.5, 3.0])
        groups = np.zeros(3, dtype=int)
        base = cost_bounds(norms, groups, 1.0, 1.0)[0]
        scaled = cost_bounds(4.0 * norms, groups, 4.0, 1.0)[0]
        assert scaled.bias_term == pytest.approx(4.0 * base.bias_term)

    def test_per_group_split(self):
        norms = np.array([2.0, 0.1, 3.0, 0.2])
        groups = np.array([0, 0, 1, 1])
        a, b = cost_bounds(norms, groups, 1.0, 1.0)
        assert a.group == 0 and b.group == 1
        assert a.bias_term == pytest.approx(0.5)
        assert b.bias_term == pytest.approx(1.0)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            cost_bounds(np.array([1.0]), np.array([1]), 1.0, 1.0)

    def test_negative_group_rejected(self):
        # group -1 used to be dropped from every bound without an error
        with pytest.raises(ValueError, match="non-negative"):
            cost_bounds(np.array([0.5, 1.0, 2.0]), np.array([0, -1, 0]), 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_bad_norm_rejected(self, bad):
        # a NaN norm used to give NaN bias_term, upper and lower
        with pytest.raises(ValueError, match="finite and non-negative"):
            cost_bounds(np.array([0.5, bad, 2.0]), np.array([0, 1, 1]), 1.0, 1.0)

    def test_stochastically_larger_norms_do_not_shrink_bias(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            size = int(rng.integers(2, 20))
            base = np.abs(rng.standard_normal(size))
            shifted = base + rng.uniform(0, 1, size)  # dominates coordinatewise
            norms = np.concatenate([base, shifted])
            groups = np.concatenate([np.zeros(size, int), np.ones(size, int)])
            small, large = cost_bounds(norms, groups, 0.8, 1.0)
            assert large.bias_term >= small.bias_term


class TestOptimalClip:
    def test_eps_one_takes_max(self):
        norms = np.arange(1.0, 11.0)
        assert optimal_clip(norms, 10, 1.0) == 10.0

    def test_eps_half_takes_second_largest(self):
        norms = np.arange(1.0, 11.0)
        assert optimal_clip(norms, 10, 0.5) == 9.0

    def test_precondition(self):
        with pytest.raises(ValueError):
            optimal_clip(np.array([1.0, 2.0]), 2, 0.4)  # b * eps = 0.8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_bad_norm_rejected(self, bad):
        # a NaN norm used to give a NaN clip
        with pytest.raises(ValueError, match="finite and non-negative"):
            optimal_clip(np.array([1.0, bad, 3.0, 4.0]), 4, 1.0)

    def test_minimizes_envelope_over_breakpoints(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            size = int(rng.integers(3, 40))
            eps = float(rng.uniform(0.3, 3.0))
            if size * eps <= 1.0:
                continue
            norms = np.abs(rng.standard_normal(size)) * rng.uniform(0.5, 5)
            best = optimal_clip(norms, size, eps)
            best_value = upper_envelope(norms, best, eps)
            swept = min(upper_envelope(norms, c, eps) for c in norms)
            assert best_value == swept

    def test_envelope_convex_piecewise_linear(self):
        # between consecutive breakpoints the envelope is linear, so probing
        # midpoints never beats the best breakpoint
        rng = np.random.default_rng(9)
        norms = np.abs(rng.standard_normal(15)) + 0.1
        eps = 0.8
        order = np.sort(norms)
        mids = (order[:-1] + order[1:]) / 2
        best_breakpoint = min(upper_envelope(norms, c, eps) for c in norms)
        for c in mids:
            assert upper_envelope(norms, c, eps) >= best_breakpoint - 1e-12


class TestEmpiricalError:
    def test_large_eps_no_clipping_vanishes(self):
        grads = np.array([0.2, 0.4, 0.1])
        err = empirical_error(grads, 1.0, 1e9, 2000, np.random.default_rng(0))
        assert err < 1e-6

    def test_within_cost_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            size = int(rng.integers(5, 30))
            grads = np.abs(rng.standard_normal(size)) * rng.uniform(0.5, 3)
            bound = float(rng.uniform(0.2, 2.0))
            eps = float(rng.uniform(0.5, 3.0))
            cb = cost_bounds(grads, np.zeros(size, int), bound, eps)[0]
            estimates = [empirical_error(grads, bound, eps, 4000,
                                         np.random.default_rng(100 + rep))
                         for rep in range(8)]
            est = np.mean(estimates)
            se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
            assert cb.lower - 3 * se <= est <= cb.upper + 3 * se

    def test_doubling_eps_halves_pure_noise_error(self):
        grads = np.array([0.2, 0.3, 0.1, 0.05])  # all below the bound: no bias
        one = np.mean([empirical_error(grads, 1.0, 1.0, 20000,
                                       np.random.default_rng(s)) for s in range(6)])
        two = np.mean([empirical_error(grads, 1.0, 2.0, 20000,
                                       np.random.default_rng(s + 50)) for s in range(6)])
        assert two == pytest.approx(one / 2, rel=0.05)

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            empirical_error(np.array([1.0]), 1.0, 1.0, 10, np.random.default_rng(0))
