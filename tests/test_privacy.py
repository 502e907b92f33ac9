import math
import random
import warnings

import numpy as np
import pytest

from fairdp.privacy import (DEFAULT_ORDERS, MechanismEvent, RdpCurve, compose,
                            rdp_full_gaussian, rdp_subsampled_gaussian,
                            to_epsilon)


class TestFullGaussian:
    def test_known_points(self):
        assert rdp_full_gaussian(1.0, 2) == 1.0
        assert rdp_full_gaussian(2.0, 8) == 1.0

    def test_monotone_decreasing_in_sigma(self):
        values = [rdp_full_gaussian(s, 4) for s in (0.5, 1.0, 2.0, 8.0, 100.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rdp_full_gaussian(0.0, 2)
        with pytest.raises(ValueError):
            rdp_full_gaussian(1.0, 1.0)


def _log_add(log_x, log_y):
    a, b = min(log_x, log_y), max(log_x, log_y)
    if a == -math.inf:
        return b
    return b + math.log1p(math.exp(a - b))


def scalar_loop_log_sum(q, sigma, alpha):
    """The per-order pairwise log-space loop the grid evaluation replaced."""
    log_q, log_1mq = math.log(q), math.log1p(-q)
    log_total = -math.inf
    for j in range(alpha + 1):
        log_binom = math.lgamma(alpha + 1) - math.lgamma(j + 1) - math.lgamma(alpha - j + 1)
        term = (log_binom + j * log_q + (alpha - j) * log_1mq
                + j * (j - 1) / (2.0 * sigma * sigma))
        log_total = _log_add(log_total, term)
    return log_total / (alpha - 1)


def scalar_loop_rdp(q, sigma, alpha):
    return max(scalar_loop_log_sum(q, sigma, alpha), 0.0)


class TestGridEvaluation:
    """The whole-grid evaluation has the bits of the scalar loop."""

    @staticmethod
    def cases():
        rng = random.Random(2020)
        fixed = [(q, s) for q in (1e-9, 0.999) for s in (0.1, 1e3)]
        drawn = [(10 ** rng.uniform(-9, math.log10(0.999)), 10 ** rng.uniform(-1, 4))
                 for _ in range(40)]
        return fixed + drawn

    @pytest.mark.parametrize("orders", [DEFAULT_ORDERS, (2, 7, 1000)])
    def test_bit_equal_to_scalar_loop(self, orders):
        for q, sigma in self.cases():
            expected = np.array([scalar_loop_rdp(q, sigma, a) for a in orders])
            got = rdp_subsampled_gaussian(q, sigma, orders)
            assert np.array_equal(got, expected), (q, sigma)

    def test_single_order_is_float_sequence_is_array(self):
        one = rdp_subsampled_gaussian(0.01, 1.1, 8)
        assert type(one) is float
        assert one == scalar_loop_rdp(0.01, 1.1, 8)
        many = rdp_subsampled_gaussian(0.01, 1.1, [8])
        assert isinstance(many, np.ndarray) and many.shape == (1,)
        assert many[0] == one
        assert type(rdp_full_gaussian(2.0, 8)) is float
        np.testing.assert_array_equal(rdp_full_gaussian(2.0, (2, 8)), [0.25, 1.0])

    @pytest.mark.parametrize("orders", [(2, 3.5, 8), (2, 1, 8), (0, 4), (2, math.inf),
                                        (2, math.nan)])
    def test_bad_order_in_sequence_rejected(self, orders):
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.01, 1.0, orders)

    def test_large_sigma_clamped_at_zero(self):
        # the sum is >= 1, but its log-space fold rounds below 0 at large
        # sigma and small q; the bound is then 0
        q = 256 / 60000
        assert min(scalar_loop_log_sum(q, 1e8, a) for a in DEFAULT_ORDERS) < 0.0
        curve = rdp_subsampled_gaussian(q, 1e8, DEFAULT_ORDERS)
        assert curve.min() >= 0.0
        assert rdp_subsampled_gaussian(q, 1e8, 2) >= 0.0
        eps, _ = to_epsilon(compose([MechanismEvent(1e8, q, 234)]), 1e-5)
        assert 0.0 < eps < 0.03


class TestSubsampledGaussian:
    def test_hand_derived_value(self):
        # three-term binomial sum at q=1/2, sigma=1, order 2:
        # log(0.25 + 0.5 + 0.25 e)
        expected = 0.35737401950878844
        assert rdp_subsampled_gaussian(0.5, 1.0, 2) == pytest.approx(expected, abs=1e-14)

    def test_vanishes_as_q_shrinks(self):
        prev = None
        for q in (1e-2, 1e-4, 1e-6, 1e-8):
            val = rdp_subsampled_gaussian(q, 1.0, 4)
            assert val > 0
            if prev is not None:
                assert val < prev
            prev = val
        # small-q regime is dominated by the q^2 moment term
        q = 1e-8
        assert rdp_subsampled_gaussian(q, 1.0, 2) < 10 * q * q * math.exp(1.0)

    def test_monotone_in_order_on_grid(self):
        for sigma in (0.8, 1.0, 2.0):
            vals = [rdp_subsampled_gaussian(0.01, sigma, a) for a in range(2, 65)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_approaches_full_gaussian_near_q_one(self):
        for sigma in (0.8, 1.0, 2.0):
            for order in (2, 8, 32, 64):
                full = rdp_full_gaussian(sigma, order)
                sub = rdp_subsampled_gaussian(0.999, sigma, order)
                assert sub <= full + 1e-12
                assert sub >= 0.95 * full

    def test_rejects_q_one_and_noninteger_order(self):
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.5, 1.0, 2.5)
        with pytest.raises(ValueError):
            rdp_subsampled_gaussian(0.5, 1.0, 1)

    def test_integral_float_order_accepted(self):
        assert rdp_subsampled_gaussian(0.5, 1.0, 2.0) == \
            rdp_subsampled_gaussian(0.5, 1.0, 2)

    def test_no_overflow_at_large_order_small_sigma(self):
        val = rdp_subsampled_gaussian(0.01, 0.5, 512)
        assert np.isfinite(val) and val > 0


# the accountant sweep's sampling rates: batch sizes 64..512 over
# n = 10,000..69,000, and 256 / n for the four published rows
SWEEP_RATES = sorted({(64, 128, 256, 512)[i % 4] / (10_000 + 1_000 * i) for i in range(60)}
                     | {256 / n for n in (54649, 60000, 36178, 48336)})


def grid_rdp_before_tiny_sigma_fix(q, sigma, orders):
    """The grid evaluation as it was, with j(j-1)/(2 sigma^2) computed for
    every j; NaN once sigma^2 underflows to 0."""
    alphas = np.asarray(orders, dtype=np.int64)
    sizes = alphas + 1
    starts = np.cumsum(sizes) - sizes
    a = np.repeat(alphas, sizes)
    j = np.arange(a.size) - np.repeat(starts, sizes)
    lg = np.array([math.lgamma(k + 1) for k in range(alphas.max() + 1)])
    log_q, log_1mq = math.log(q), math.log1p(-q)
    terms = (lg[a] - lg[j] - lg[a - j] + j * log_q + (a - j) * log_1mq
             + j * (j - 1) / (2.0 * sigma * sigma))
    return np.maximum(np.logaddexp.reduceat(terms, starts) / (alphas - 1), 0.0)


class TestTinySigma:
    """A sigma whose square underflows gives an unbounded curve, not NaN."""

    def test_no_nan_and_no_warning_down_to_1e_300(self):
        # every 6 decades, and densely where sigma^2 and the division
        # underflow or overflow (about 1e-162 to 1e-154)
        sigmas = np.concatenate([np.logspace(-300, 3, 52), np.logspace(-163, -153, 21)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in SWEEP_RATES:
                for sigma in sigmas:
                    curve = rdp_subsampled_gaussian(q, sigma, DEFAULT_ORDERS)
                    assert not np.isnan(curve).any(), (q, sigma)
            assert np.all(rdp_subsampled_gaussian(SWEEP_RATES[0], 1e-200, DEFAULT_ORDERS)
                          == math.inf)
            assert rdp_full_gaussian(1e-200, 2) == math.inf

    def test_bits_unchanged_while_sigma_squared_is_positive(self):
        for q in SWEEP_RATES:
            for sigma in np.logspace(-3, 3, 13):
                assert np.array_equal(
                    rdp_subsampled_gaussian(q, sigma, DEFAULT_ORDERS),
                    grid_rdp_before_tiny_sigma_fix(q, sigma, DEFAULT_ORDERS)), (q, sigma)


class TestCompose:
    def test_single_event_identity(self):
        event = MechanismEvent(1.2, 0.01, 1)
        curve = compose([event])
        expected = [rdp_subsampled_gaussian(0.01, 1.2, a) for a in DEFAULT_ORDERS]
        np.testing.assert_allclose(curve.eps_rdp, expected, rtol=1e-15)

    def test_duplicate_event_doubles(self):
        event = MechanismEvent(1.2, 0.01, 3)
        single = compose([event])
        double = compose([event, event])
        np.testing.assert_allclose(double.eps_rdp, 2 * single.eps_rdp, rtol=1e-15)

    def test_two_distinct_events_sum(self):
        count_event = MechanismEvent(8.0, 0.05, 1)
        grad_event = MechanismEvent(0.8, 0.05, 1)
        both = compose([count_event, grad_event])
        a = compose([count_event])
        b = compose([grad_event])
        np.testing.assert_allclose(both.eps_rdp, a.eps_rdp + b.eps_rdp, rtol=1e-12)

    def test_full_batch_event_uses_closed_form(self):
        curve = compose([MechanismEvent(2.0, 1.0, 1)], orders=[8])
        assert curve.eps_rdp[0] == 1.0

    def test_full_batch_event_over_grid(self):
        events = [MechanismEvent(2.0, 1.0, 3), MechanismEvent(1.5, 0.02, 5)]
        curve = compose(events)
        expected = np.array([3 * (a / (2.0 * 2.0 * 2.0)) + 5 * scalar_loop_rdp(0.02, 1.5, a)
                             for a in DEFAULT_ORDERS])
        assert np.array_equal(curve.eps_rdp, expected)

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_per_step_ledger_matches_coalesced(self):
        steps = 250
        per_step = [MechanismEvent(1.1, 0.02, 1) for _ in range(steps)]
        coalesced = [MechanismEvent(1.1, 0.02, steps)]
        np.testing.assert_allclose(compose(per_step).eps_rdp,
                                   compose(coalesced).eps_rdp, rtol=1e-12)


class TestToEpsilon:
    def test_full_gaussian_single_step(self):
        # oracle: dense sweep of alpha/2 + ln(1e6)/(alpha-1) has its minimum
        # 5.7565 near order 6.26
        orders = np.arange(1.01, 64, 0.01)
        curve = RdpCurve(orders, np.array([rdp_full_gaussian(1.0, a) for a in orders]))
        eps, best = to_epsilon(curve, 1e-6)
        assert eps == pytest.approx(5.756521769802012, abs=1e-4)
        assert best == pytest.approx(6.2565, abs=0.01)

    def test_delta_one_drops_log_term(self):
        curve = compose([MechanismEvent(1.0, 0.01, 10)])
        eps, best = to_epsilon(curve, 1.0)
        assert eps == curve.eps_rdp.min()
        assert best == curve.orders[np.argmin(curve.eps_rdp)]

    def test_finer_grid_never_increases(self):
        events = [MechanismEvent(0.9, 0.005, 500)]
        coarse = to_epsilon(compose(events, orders=[2, 8, 32, 64]), 1e-5)[0]
        fine = to_epsilon(compose(events, orders=list(range(2, 65))), 1e-5)[0]
        assert fine <= coarse

    def test_monotone_in_delta_and_steps(self):
        def eps_at(steps, delta):
            return to_epsilon(compose([MechanismEvent(1.0, 0.01, steps)]), delta)[0]
        assert eps_at(100, 1e-5) >= eps_at(100, 1e-4) >= eps_at(100, 1e-3)
        assert eps_at(50, 1e-5) <= eps_at(100, 1e-5) <= eps_at(200, 1e-5)

    def test_rejects_bad_delta(self):
        curve = RdpCurve(np.array([2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            to_epsilon(curve, 0.0)
        with pytest.raises(ValueError):
            to_epsilon(curve, 1.5)


class TestEventValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            MechanismEvent(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            MechanismEvent(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            MechanismEvent(1.0, 1.5, 1)
        with pytest.raises(ValueError):
            MechanismEvent(1.0, 0.5, 0)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RdpCurve(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            RdpCurve(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            RdpCurve(np.array([2.0, 3.0]), np.array([-1.0, 1.0]))
