import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fairdp.clipping import (GroupAdaptive, NaiveReweight, NonPrivate, Uniform,
                             adaptive_bounds)
from fairdp.dataio import Batch, Dataset, synth_two_group, split
from fairdp.errors import NumericError
from fairdp.model import (GradStream, ModelSpec, init_params, per_sample_grads,
                          predictions_and_losses)
from fairdp.privacy import MechanismEvent, compose, to_epsilon
from fairdp.trainer import (TrainConfig, dp_step, group_train_stats,
                            private_mean_gradient, privacy_plan, resolve_learning_rate,
                            sample_batch, train, train_nonprivate)


def toy_data(seed=0, n_major=120, n_minor=40, dim=4):
    return synth_two_group(n_major, n_minor, dim, 3.0, 1.5, seed=seed)


def base_config(**overrides):
    defaults = dict(model=ModelSpec.softmax(4, 2, l2=0.01),
                    strategy=Uniform(1.0), noise_multiplier=0.5, lr=0.2,
                    batch_size=32, epochs=2, delta=1e-6, seed=3)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestSampleBatch:
    def test_full_population(self):
        idx = sample_batch(5, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(idx, np.arange(5))

    def test_deterministic_and_sorted(self):
        a = sample_batch(100, 10, np.random.default_rng(4))
        b = sample_batch(100, 10, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_single_element(self):
        idx = sample_batch(50, 1, np.random.default_rng(1))
        assert idx.shape == (1,) and 0 <= idx[0] < 50

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            sample_batch(4, 5, np.random.default_rng(0))


class TestDpStep:
    def setup_method(self):
        self.spec = ModelSpec.softmax(4, 2, l2=0.01)
        self.data = toy_data()
        self.batch = self.data.take(np.arange(24))
        self.params = init_params(self.spec)

    def run_step(self, strategy, noise_multiplier, seed=9, lr=0.1):
        return dp_step(
            self.spec, self.params, self.batch, strategy, noise_multiplier,
            lr, np.random.default_rng(seed), np.random.default_rng(seed + 1),
            self.data.num_groups)

    def test_noiseless_no_clip_equals_plain_sgd(self):
        private, _ = self.run_step(Uniform(math.inf), 0.0)
        plain, _ = self.run_step(NonPrivate(), 0.0)
        np.testing.assert_array_equal(private, plain)

    def test_noiseless_clipped_direction(self):
        new_params, _ = self.run_step(Uniform(0.5), 0.0, lr=1.0)
        grads = per_sample_grads(self.spec, self.params, self.batch)
        factors = np.minimum(1.0, 0.5 / grads.norms)
        expected = (grads.grads * factors[:, None]).mean(axis=0)
        np.testing.assert_allclose(self.params - new_params, expected, rtol=1e-12)

    def two_group_batch(self):
        # norms at the initial params span 1.6 to 6.4, so a bound of 3.0
        # clips part of each group, in different shares
        rng = np.random.default_rng(21)
        return Batch(3.0 * rng.standard_normal((24, 4)), rng.integers(0, 2, 24),
                     np.repeat([0, 1], [17, 7]))

    def assert_noiseless_update(self, strategy, batch, bounds, weights):
        """The zero-noise update equals the mean of rows scaled by
        min(1, C_g/norm) * w_g, to the rounding of another summation order."""
        new_params, _ = dp_step(self.spec, self.params, batch, strategy, 0.0, 1.0,
                                np.random.default_rng(0), np.random.default_rng(1), 2)
        grads = per_sample_grads(self.spec, self.params, batch)
        g = batch.groups
        factors = np.minimum(1.0, bounds[g] / grads.norms) * weights[g]
        expected = (grads.grads * factors[:, None]).sum(0) / g.shape[0]
        np.testing.assert_allclose(self.params - new_params, expected, rtol=1e-12)

    def test_noiseless_naive_update(self):
        batch = self.two_group_batch()
        weights = (24 / 2) / np.bincount(batch.groups)
        assert np.all(weights != 1.0)
        self.assert_noiseless_update(NaiveReweight(3.0, 0.0), batch, np.full(2, 3.0),
                                     weights)

    def test_noiseless_group_adaptive_update(self):
        batch = self.two_group_batch()
        norms = per_sample_grads(self.spec, self.params, batch).norms
        above = np.bincount(batch.groups[norms > 3.0], minlength=2).astype(float)
        sizes = np.bincount(batch.groups, minlength=2).astype(float)
        bounds = adaptive_bounds(above, sizes, 3.0, 24)
        assert bounds[0] != bounds[1]
        self.assert_noiseless_update(GroupAdaptive(3.0, 0.0), batch, bounds, np.ones(2))

    def test_deterministic_under_seed(self):
        a, _ = self.run_step(Uniform(1.0), 0.8, seed=5)
        b, _ = self.run_step(Uniform(1.0), 0.8, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_ledger_events(self):
        # a step's releases, from its (count-noise std, gradient noise
        # multiplier) at q = 1/10: Uniform has no count noise, NonPrivate
        # neither scale
        def releases(count_noise_std, noise_multiplier):
            return privacy_plan(10, 1, 1, count_noise_std, noise_multiplier).releases

        ledger = releases(0.0, 0.8)
        assert [e.noise_multiplier for _, e in ledger] == [0.8]
        ledger = releases(GroupAdaptive(1.0, 8.0).count_noise_std, 0.8)
        assert [e.noise_multiplier for _, e in ledger] == [8.0, 0.8]
        ledger = releases(GroupAdaptive(1.0, 0.0).count_noise_std, 0.8)
        assert [e.noise_multiplier for _, e in ledger] == [0.8]
        ledger = releases(0.0, 0.0)
        assert len(ledger) == 0

    def test_nonfinite_gradient_aborts(self):
        bad = Batch(np.array([[np.inf, 0.0, 0.0, 0.0]]), np.array([0]),
                    np.array([0]))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            dp_step(self.spec, self.params, bad, Uniform(1.0), 0.0, 0.1,
                    np.random.default_rng(0), np.random.default_rng(1), 2)

    def test_overflowing_gradient_norm_aborts(self):
        # at the zero initial weights the loss stays finite; only the
        # squared norm of this row overflows
        bad = Batch(np.array([[1e200, 0.0, 0.0, 0.0]]), np.array([0]), np.array([0]))
        assert np.isfinite(predictions_and_losses(self.spec, self.params, bad)[1]).all()
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            dp_step(self.spec, self.params, bad, Uniform(1.0), 0.0, 0.1,
                    np.random.default_rng(0), np.random.default_rng(1), 2)


class TestGhostNormSensitivity:
    """Factors computed from the factored norms keep every materialized
    gradient row within its group's C_g * w_g, so the sensitivity the noise
    is scaled to bounds the rows actually summed."""

    @pytest.mark.parametrize("strategy", [
        Uniform(0.3), NaiveReweight(0.3, 2.0), GroupAdaptive(0.3, 2.0)],
        ids=["dpsgd", "naive", "dpsgd-f"])
    def test_scaled_oracle_rows_within_bound(self, strategy):
        spec = ModelSpec.mlp(6, 8, 3, l2=0.05)
        rng = np.random.default_rng(8)
        for seed in range(20):
            params = init_params(spec, seed) + 0.3 * rng.standard_normal(spec.param_count)
            batch = Batch(3.0 * rng.standard_normal((40, 6)), rng.integers(0, 3, 40),
                          rng.integers(0, 2, 40))
            _, release = dp_step(spec, params, batch, strategy, 0.0, 0.1,
                                 np.random.default_rng(seed), np.random.default_rng(seed + 1),
                                 2)
            limits = release.bounds * release.weights
            rows = per_sample_grads(spec, params, batch).grads * release.factors[:, None]
            norms = np.linalg.norm(rows, axis=1)
            assert np.all(norms <= limits[batch.groups] * (1 + 1e-9))
            assert release.sensitivity == limits[np.unique(batch.groups)].max()
            assert np.nanmax(release.clipped_fraction) > 0


class TestReductions:
    """Strategy reductions must match Uniform bit for bit, per step."""

    def per_step_pair(self, strategy_a, strategy_b, seed, balanced):
        spec = ModelSpec.softmax(3, 2, l2=0.0)
        rng = np.random.default_rng(seed)
        rows = 16
        x = rng.standard_normal((rows, 3))
        y = rng.integers(0, 2, size=rows)
        groups = np.tile([0, 1], rows // 2) if balanced \
            else rng.integers(0, 2, size=rows)
        batch = Batch(x, y, groups)
        params = 0.3 * rng.standard_normal(spec.param_count)
        outs = []
        for strategy in (strategy_a, strategy_b):
            new_params, _ = dp_step(
                spec, params, batch, strategy, 0.7, 0.1,
                np.random.default_rng(seed + 1), np.random.default_rng(seed + 2), 2)
            outs.append(new_params)
        return outs

    def test_group_adaptive_reduces_to_uniform(self):
        # sigma1 = 0 and no norms above the base bound: identical updates
        for seed in range(100):
            big = 1e6  # far above any gradient norm here
            a, b = self.per_step_pair(GroupAdaptive(big, 0.0), Uniform(big),
                                      seed, balanced=False)
            np.testing.assert_array_equal(a, b)

    def test_naive_reduces_to_uniform_on_balanced_batches(self):
        for seed in range(100):
            a, b = self.per_step_pair(NaiveReweight(0.5, 0.0), Uniform(0.5),
                                      seed, balanced=True)
            np.testing.assert_array_equal(a, b)


class TestTrainLoop:
    def test_nonprivate_has_empty_ledger(self):
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        res = train_nonprivate(base_config(), tr, te)
        assert len(res.ledger) == 0
        assert res.final_epsilon is None
        assert res.event_kinds == ()

    def test_exact_iteration_count(self):
        data = toy_data(n_major=40, n_minor=24, dim=4)
        cfg = base_config(batch_size=64, epochs=1, noise_multiplier=0.0,
                          strategy=NonPrivate())
        res = train(cfg, data, data)
        assert res.iterations_executed == 1
        assert res.iterations_planned == 1

    def test_ledger_steps_match_iterations(self):
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        cfg = base_config(strategy=GroupAdaptive(1.0, 8.0), epochs=3)
        res = train(cfg, tr, te)
        grad_steps = sum(e.steps for e in res.ledger
                         if e.noise_multiplier == cfg.noise_multiplier)
        count_steps = sum(e.steps for e in res.ledger
                          if e.noise_multiplier == 8.0)
        assert grad_steps == res.iterations_executed
        assert count_steps == res.iterations_executed
        assert res.event_kinds == ("count-noise", "gradient-noise")

    def test_sgd_equivalence_over_runs(self):
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        cfg_np = base_config(strategy=NonPrivate(), noise_multiplier=0.0, epochs=3)
        cfg_dp = base_config(strategy=Uniform(math.inf), noise_multiplier=0.0,
                             epochs=3)
        a = train(cfg_np, tr, te)
        b = train(cfg_dp, tr, te)
        np.testing.assert_array_equal(a.params, b.params)

    def test_epoch_log_stats_recomputable(self):
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        cfg = base_config(epochs=1)
        res = train(cfg, tr, te)
        log = res.epoch_logs[-1]
        spec = cfg.model
        grads = per_sample_grads(spec, res.params, tr)
        for k in range(tr.num_groups):
            members = tr.groups == k
            assert log.mean_grad_norm[k] == pytest.approx(
                grads.norms[members].mean(), rel=1e-12)
            assert log.mean_loss[k] == pytest.approx(
                grads.losses[members].mean(), rel=1e-12)

    def test_eval_every_thins_logs(self):
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        res = train(base_config(epochs=4, eval_every=2), tr, te)
        assert [log.epoch for log in res.epoch_logs] == [2, 4]

    def test_budget_target_stops_early(self):
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        full = train(base_config(strategy=Uniform(1.0), epochs=4), tr, te)
        assert full.final_epsilon is not None
        # the same accounting against its own budget runs every iteration
        same = train(base_config(strategy=Uniform(1.0), epochs=4,
                                 budget_target=full.final_epsilon), tr, te)
        assert same.iterations_executed == full.iterations_executed
        # group-adaptive spends extra budget on count noise, so it must
        # stop strictly earlier under the same target
        matched = train(base_config(strategy=GroupAdaptive(1.0, 5.0), epochs=4,
                                    budget_target=full.final_epsilon), tr, te)
        assert 0 < matched.iterations_executed < full.iterations_executed
        assert matched.final_epsilon <= full.final_epsilon

    def test_budget_stop_rows(self):
        # 128 training rows, 4 iterations per epoch; the stop row is
        # labelled with the last epoch that ran an iteration, and skipped
        # when that epoch is already logged
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        cfg = base_config(strategy=GroupAdaptive(1.0, 5.0), epochs=4)
        eps = [log.epsilon for log in train(cfg, tr, te).epoch_logs]  # after 4, 8, 12, 16

        def run(target, **overrides):
            res = train(replace(cfg, budget_target=target, **overrides), tr, te)
            return res, [log.epoch for log in res.epoch_logs]

        at_boundary, epochs = run(eps[1])
        assert at_boundary.iterations_executed == 8 and epochs == [1, 2]
        thinned, epochs = run(eps[2], eval_every=2)
        assert thinned.iterations_executed == 12 and epochs == [2, 3]
        mid_epoch, epochs = run((eps[1] + eps[2]) / 2)
        assert 8 < mid_epoch.iterations_executed < 12 and epochs == [1, 2, 3]
        for res in (at_boundary, thinned, mid_epoch):
            assert res.final_epsilon == res.epoch_logs[-1].epsilon
        unstarted, epochs = run(1e-9)
        assert unstarted.iterations_executed == 0 and epochs == [0]
        assert unstarted.epoch_logs[0].epsilon is None and unstarted.final_epsilon is None
        assert unstarted.ledger == ()

    def test_inv_sqrt_total_learning_rate(self):
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        cfg = base_config(lr="inv_sqrt_total", epochs=4)
        res = train(cfg, tr, te)
        assert res.learning_rate == pytest.approx(
            1.0 / math.sqrt(res.iterations_planned))
        assert resolve_learning_rate(0.25, 100) == 0.25

    def test_separable_data_reaches_perfect_accuracy(self):
        # oracle: the closed-form separator w = (1, -1) classifies x by the
        # sign of its first feature, so the data is linearly separable
        rng = np.random.default_rng(6)
        n = 64
        x = np.zeros((n, 2))
        y = rng.integers(0, 2, size=n)
        x[:, 0] = (2.0 * y - 1.0) * rng.uniform(0.5, 2.0, size=n)
        x[:, 1] = rng.standard_normal(n) * 0.1
        margin_scores = (2.0 * y - 1.0) * x[:, 0]
        assert margin_scores.min() > 0  # verified separable
        data = Dataset(x, y, np.zeros(n, dtype=int), ("all",), 2)
        cfg = TrainConfig(model=ModelSpec.softmax(2, 2, l2=0.0),
                          strategy=NonPrivate(), noise_multiplier=0.0, lr=1.0,
                          batch_size=32, epochs=50, delta=1e-6, seed=0)
        res = train_nonprivate(cfg, data, data)
        assert res.epoch_logs[-1].train_accuracy[0] == 1.0


def gradient_stream(rows, input_dim):
    """Gradients of ``rows`` samples under a softmax over two classes."""
    spec = ModelSpec.softmax(input_dim, 2)
    batch = Batch(np.ones((rows, input_dim)), np.zeros(rows, dtype=int),
                  np.zeros(rows, dtype=int))
    return GradStream(spec, init_params(spec), batch)


class TestNoiseCalibration:
    def test_private_mean_gradient_std(self):
        # zero factors zero every row, which isolates the injected noise: the
        # update's coordinatewise std must be noise_multiplier * sensitivity / rows
        rng = np.random.default_rng(12)
        rows, dim = 8, 6
        grads = gradient_stream(rows, input_dim=2)  # (2 + 1) * 2 = dim parameters
        draws = np.stack([
            private_mean_gradient(grads, np.zeros(rows), 2.0, 0.5, rng)
            for _ in range(4000)
        ])
        assert draws.shape == (4000, dim)
        expected = 0.5 * 2.0 / rows
        assert np.abs(draws.std(axis=0) - expected).max() < 0.05 * expected
        assert np.abs(draws.mean(axis=0)).max() < 5 * expected / math.sqrt(4000)

    def test_zero_noise_draws_nothing(self):
        rng = np.random.default_rng(12)
        before = rng.bit_generator.state["state"]["state"]
        private_mean_gradient(gradient_stream(4, 1), np.ones(4), 1.0, 0.0, rng)
        assert rng.bit_generator.state["state"]["state"] == before


class TestStreamedMemory:
    """At P = 79,510 neither the eval nor a step holds the b x P gradient
    matrix: a 256-row one alone is 163 MB."""

    LIMIT = 32 * 2**20

    def setup_method(self):
        self.spec = ModelSpec.mlp(784, 100, 10)
        rng = np.random.default_rng(4)
        self.data = Dataset(rng.uniform(0.0, 1.0, (300, 784)), rng.integers(0, 10, 300),
                            rng.integers(0, 10, 300), tuple(f"g{k}" for k in range(10)), 10)
        self.params = init_params(self.spec, seed=1)

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_group_train_stats(self):
        assert self.peak(lambda: group_train_stats(self.spec, self.params, self.data)) \
            < self.LIMIT

    def test_dp_step(self):
        batch = self.data.take(np.arange(256))
        assert self.peak(lambda: dp_step(
            self.spec, self.params, batch, GroupAdaptive(8.0, 1.0), 1.0, 0.1,
            np.random.default_rng(0), np.random.default_rng(1),
            self.data.num_groups)) < self.LIMIT


class TestStepRdpCurve:
    """A privacy plan's per-step curve, at q = 1/20."""

    def test_matches_manual_composition(self):
        curve = privacy_plan(20, 1, 1, 8.0, 0.8).curve
        manual = compose([MechanismEvent(8.0, 0.05, 1), MechanismEvent(0.8, 0.05, 1)])
        np.testing.assert_allclose(curve.eps_rdp, manual.eps_rdp, rtol=1e-15)

    def test_none_when_no_events(self):
        assert privacy_plan(20, 1, 1, 0.0, 0.0).curve is None


class TestStepEventsSinglePath:
    """``train``'s coalesced ledger, event kinds and epsilon, and the plan's
    curve, all derive from the plan's releases."""

    @pytest.mark.parametrize("sigma2", [0.0, 0.8])
    @pytest.mark.parametrize("sigma1", [0.0, 4.0])
    @pytest.mark.parametrize("make", [
        lambda s1: NonPrivate(), lambda s1: Uniform(1.0),
        lambda s1: NaiveReweight(1.0, s1), lambda s1: GroupAdaptive(1.0, s1)],
        ids=["nonprivate", "dpsgd", "naive", "dpsgd-f"])
    def test_one_derivation(self, make, sigma1, sigma2):
        strategy = make(sigma1)
        data = toy_data()
        tr, te = split(data, 0.8, seed=1)
        cfg = base_config(strategy=strategy, noise_multiplier=sigma2, epochs=1)
        # the non-private strategy makes no release, whatever its noise scales
        scales = ((0.0, 0.0) if isinstance(strategy, NonPrivate)
                  else (getattr(strategy, "count_noise_std", 0.0), sigma2))
        plan = privacy_plan(tr.n, cfg.batch_size, cfg.epochs, *scales)
        expected = plan.releases

        res = train(cfg, tr, te)
        steps = res.iterations_executed
        assert res.ledger == tuple(replace(event, steps=steps) for _, event in expected)
        assert res.event_kinds == tuple(kind for kind, _ in expected)

        curve = plan.curve
        if expected:
            np.testing.assert_array_equal(
                curve.eps_rdp, compose([event for _, event in expected]).eps_rdp)
            assert res.final_epsilon == to_epsilon(curve, cfg.delta, steps)[0]
            assert math.isclose(res.final_epsilon,
                                to_epsilon(compose(res.ledger), cfg.delta)[0], rel_tol=1e-12)
        else:
            assert curve is None
            assert res.final_epsilon is None


class TestPrivacyPlan:
    """The budget stop of the shipped dpsgd-f plan: 3,500 training rows,
    batches of 256, 100 epochs, sigma2 = 1, sigma1 = 3, delta = 1e-6."""

    DELTA = 1e-6

    def setup_method(self):
        self.plan = privacy_plan(3500, 256, 100, 3.0, 1.0)

    def epsilon(self, steps):
        return to_epsilon(self.plan.curve, self.DELTA, steps)[0]

    def test_allowed_is_the_last_iteration_within_the_target(self):
        plan = self.plan
        assert (plan.iterations_per_epoch, plan.planned) == (13, 1300)
        targets = np.linspace(self.epsilon(1), self.epsilon(plan.planned), 50)
        allowed = [plan.allowed(self.DELTA, float(target)) for target in targets]
        for target, k in zip(targets, allowed):
            if k == plan.planned:
                assert self.epsilon(k) <= target
            else:
                assert self.epsilon(k) <= target < self.epsilon(k + 1)
        assert allowed == sorted(allowed)
        assert allowed[-1] == plan.planned

    def test_shipped_target(self):
        assert self.plan.allowed(self.DELTA, 25.712) == 1216

    def test_no_target_or_no_release_allows_every_iteration(self):
        assert self.plan.allowed(self.DELTA, None) == 1300
        assert privacy_plan(3500, 256, 100, 0.0, 0.0).allowed(self.DELTA, 1e-9) == 1300

    def test_oversized_batch_rejected(self):
        with pytest.raises(ValueError, match="exceeds training size 3500"):
            privacy_plan(3500, 3501, 1, 0.0, 1.0)


class TestTrainConfig:
    def test_budget_target_needs_noise(self):
        with pytest.raises(ValueError, match="budget_target"):
            base_config(noise_multiplier=0.0, budget_target=5.0)
        # the baseline that train_nonprivate derives keeps the target
        base_config(strategy=NonPrivate(), noise_multiplier=0.0, budget_target=5.0)
