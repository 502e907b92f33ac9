"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The census check is
optional and skips itself unless an Adult CSV is supplied (see
``ADULT_CSV`` below).
"""

import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairdp.analysis import cost_bounds, optimal_clip
from fairdp.clipping import (GroupAdaptive, NaiveReweight, NonPrivate, Uniform,
                             row_factors)
from fairdp.dataio import (Batch, RawTable, load_census_csv, preprocess_census,
                           split, synth_two_group)
from fairdp.metrics import privacy_impact
from fairdp.model import ModelSpec, init_params, per_sample_grads
from fairdp.privacy import MechanismEvent, compose, to_epsilon
from fairdp.trainer import TrainConfig, dp_step, sample_batch, train, train_nonprivate
from monte_carlo import empirical_error

ADULT_CSV = os.environ.get("ADULT_CSV", "data/adult.data")


def report(name: str, detail: str = ""):
    print(f"[acceptance] {name}: PASS {detail}".rstrip())


def accountant_epsilon(n, batch_size, sigma, epochs, delta):
    iterations = epochs * (n // batch_size)
    return to_epsilon(compose([MechanismEvent(sigma, batch_size / n, iterations)]), delta)[0]


class TestCriterion1AccountantRegression:
    @pytest.mark.parametrize("n,sigma,epochs,published", [
        (54649, 0.8, 60, 6.55),
        (60000, 0.8, 60, 6.23),
        (36178, 1.0, 20, 3.10),
        (48336, 1.0, 20, 2.66),
    ])
    def test_reported_budgets(self, n, sigma, epochs, published):
        eps = accountant_epsilon(n, 256, sigma, epochs, 1e-6)
        assert abs(eps - published) <= 0.35, f"eps {eps} vs published {published}"
        report("1 accountant-regression",
               f"(n={n}: eps {eps:.3f} vs {published}, diff {abs(eps-published):.3f})")


class TestCriterion2ExactSgdEquivalence:
    def test_bit_identical_trajectories_500_iterations(self):
        data = synth_two_group(480, 160, 6, 3.0, 1.5, seed=21)
        spec = ModelSpec.softmax(6, 2, l2=0.01)
        iterations = 500

        def run(strategy):
            batch_rng = np.random.default_rng(77)
            count_rng = np.random.default_rng(78)
            noise_rng = np.random.default_rng(79)
            params = init_params(spec)
            trajectory = []
            for _ in range(iterations):
                idx = sample_batch(data.n, 32, batch_rng)
                params, _ = dp_step(spec, params, data.take(idx), strategy,
                                    0.0, 0.2, count_rng, noise_rng, data.num_groups)
                trajectory.append(params)
            return trajectory

        private = run(Uniform(math.inf))   # no-clip sentinel, sigma2 = 0
        plain = run(NonPrivate())
        for t, (a, b) in enumerate(zip(private, plain)):
            assert np.array_equal(a, b), f"trajectories diverge at iteration {t}"
        report("2 exact-sgd-equivalence", f"({iterations} iterations bit-identical)")


class TestCriterion3StrategyReductions:
    def _step(self, strategy, batch, spec, params, seed):
        new_params, _ = dp_step(
            spec, params, batch, strategy, 0.7, 0.1,
            np.random.default_rng(seed + 1), np.random.default_rng(seed + 2), 2)
        return new_params

    def test_group_adaptive_reduction(self):
        spec = ModelSpec.softmax(4, 2, l2=0.01)
        big_bound = 1e6  # gradients here never reach this norm
        for seed in range(100):
            rng = np.random.default_rng(seed)
            batch = Batch(rng.standard_normal((16, 4)), rng.integers(0, 2, 16),
                          rng.integers(0, 2, 16))
            params = 0.3 * rng.standard_normal(spec.param_count)
            a = self._step(GroupAdaptive(big_bound, 0.0), batch, spec, params, seed)
            b = self._step(Uniform(big_bound), batch, spec, params, seed)
            assert np.array_equal(a, b)
        report("3a group-adaptive-reduces-to-uniform", "(100 seeded batches)")

    def test_naive_reduction(self):
        spec = ModelSpec.softmax(4, 2, l2=0.01)
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            batch = Batch(rng.standard_normal((16, 4)), rng.integers(0, 2, 16),
                          np.tile([0, 1], 8))
            params = 0.3 * rng.standard_normal(spec.param_count)
            a = self._step(NaiveReweight(0.5, 0.0), batch, spec, params, seed)
            b = self._step(Uniform(0.5), batch, spec, params, seed)
            assert np.array_equal(a, b)
        report("3b naive-reduces-to-uniform", "(100 seeded balanced batches)")


class TestCriterion4ClipNormSafety:
    @staticmethod
    def clipped_norms(grads, groups, bounds, weights):
        factors, _, _ = row_factors(np.linalg.norm(grads, axis=1), groups, bounds, weights)
        return np.linalg.norm(grads * factors[:, None], axis=1)

    def test_fuzz_100k_rows_per_strategy(self):
        rng = np.random.default_rng(2024)
        total = 0
        while total < 100_000:
            rows = 500
            dim = int(rng.integers(1, 10))
            num_groups = int(rng.integers(1, 6))
            grads = rng.standard_normal((rows, dim)) * rng.uniform(0.05, 20)
            groups = rng.integers(0, num_groups, rows)
            ones = np.ones(num_groups)

            bound = float(rng.uniform(0.01, 8.0))
            out = self.clipped_norms(grads, groups, np.full(num_groups, bound), ones)
            assert np.all(out <= bound + 1e-9)

            bounds = rng.uniform(0.01, 8.0, num_groups)
            out = self.clipped_norms(grads, groups, bounds, ones)
            assert np.all(out <= bounds[groups] + 1e-9)

            weights = rng.uniform(0.05, 5.0, num_groups)
            out = self.clipped_norms(grads, groups, np.full(num_groups, bound), weights)
            assert np.all(out <= bound * weights[groups] + 1e-9)
            total += rows
        report("4 clip-norm-safety", f"({total} rows x 3 strategies)")


class TestCriterion5NoiseCalibration:
    def test_dp_step_update_stddev(self):
        # the batch is frozen, so the clipped-gradient sum is a constant
        # across draws and the update's spread comes from the noise alone,
        # exactly as with a zero-gradient batch
        spec = ModelSpec.softmax(2, 2, l2=0.0)
        rng = np.random.default_rng(3)
        batch = Batch(rng.standard_normal((8, 2)) * 3.0, rng.integers(0, 2, 8),
                      np.zeros(8, dtype=int))
        params = rng.standard_normal(spec.param_count)
        lr, sigma2, bound, rows = 0.3, 0.9, 0.7, 8
        noise_rng = np.random.default_rng(55)
        updates = np.empty((10_000, spec.param_count))
        for i in range(updates.shape[0]):
            new_params, _ = dp_step(spec, params, batch, Uniform(bound), sigma2,
                                    lr, np.random.default_rng(0), noise_rng, 1)
            updates[i] = new_params - params
        expected = lr * sigma2 * bound / rows
        got = updates.std(axis=0)
        worst = np.abs(got - expected).max() / expected
        assert worst < 0.03, f"worst relative deviation {worst:.4f}"
        report("5 noise-calibration",
               f"(10k draws, worst coordinate off by {worst * 100:.2f}%)")


class TestCriterion6GradientCorrectness:
    @staticmethod
    def finite_diff(spec, params, batch, step=1e-6):
        out = np.zeros((batch.features.shape[0], params.size))
        for j in range(params.size):
            up, down = params.copy(), params.copy()
            up[j] += step
            down[j] -= step
            out[:, j] = (per_sample_grads(spec, up, batch).losses
                         - per_sample_grads(spec, down, batch).losses) / (2 * step)
        return out

    def test_50_random_instances(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for trial in range(50):
            d = int(rng.integers(2, 11))
            c = int(rng.integers(2, 4))
            batch = Batch(rng.standard_normal((3, d)), rng.integers(0, c, 3),
                          np.zeros(3, dtype=int))
            if trial % 2 == 0:
                spec = ModelSpec.softmax(d, c, l2=0.1)
                params = 0.5 * rng.standard_normal(spec.param_count)
            else:
                spec = ModelSpec.mlp(d, int(rng.integers(2, 6)), c, l2=0.1)
                # resample until every hidden pre-activation clears the
                # ReLU kink by more than the finite-difference step
                for attempt in range(200):
                    params = 0.5 * rng.standard_normal(spec.param_count)
                    h = spec.hidden
                    w1 = params[: d * h].reshape(d, h)
                    b1 = params[d * h: d * h + h]
                    if np.abs(batch.features @ w1 + b1).min() > 1e-4:
                        break
                else:
                    raise AssertionError("no kink-free params found")
            analytic = per_sample_grads(spec, params, batch).grads
            numeric = self.finite_diff(spec, params, batch)
            rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
            worst = max(worst, rel)
            assert rel < 1e-5
        report("6 gradient-correctness", f"(50 instances, worst rel err {worst:.2e})")


class TestCriterion7DisparateImpact:
    """Reproduce the disparate impact of uniform clipping and its removal
    by group-adaptive clipping, at desk scale, averaged over 5 seeds."""

    TAU = 0.05

    def test_reproduction_and_removal(self):
        sigma2, bound, lr, epochs, frac = 1.0, 0.5, 0.8, 100, 0.7
        deltas_dpsgd, deltas_dpf, totals_dpsgd, totals_dpf = [], [], [], []
        iteration_pairs = []
        for seed in range(5):
            data = synth_two_group(4750, 250, 20, 3.0, 1.0, seed=seed)
            train_data, test_data = split(data, frac, seed=seed + 1000)
            spec = ModelSpec.mlp(20, 16, 2, l2=1e-4)
            cfg = TrainConfig(model=spec, strategy=Uniform(bound),
                              noise_multiplier=sigma2, lr=lr, batch_size=256,
                              epochs=epochs, delta=1e-6, seed=seed + 7,
                              eval_every=10_000)
            baseline = train_nonprivate(cfg, train_data, test_data)
            dpsgd = train(cfg, train_data, test_data)
            matched = replace(cfg, strategy=GroupAdaptive(bound, 3.0 * sigma2),
                              budget_target=dpsgd.final_epsilon)
            dpf = train(matched, train_data, test_data)

            assert dpf.iterations_executed < dpsgd.iterations_executed
            assert dpf.final_epsilon <= dpsgd.final_epsilon
            iteration_pairs.append((dpsgd.iterations_executed,
                                    dpf.iterations_executed))

            base_acc = baseline.test_report.accuracy
            deltas_dpsgd.append(dpsgd.test_report.accuracy - base_acc)
            deltas_dpf.append(dpf.test_report.accuracy - base_acc)
            totals_dpsgd.append(dpsgd.test_report.overall_accuracy
                                - baseline.test_report.overall_accuracy)
            totals_dpf.append(dpf.test_report.overall_accuracy
                              - baseline.test_report.overall_accuracy)

        mean_dpsgd = np.mean(deltas_dpsgd, axis=0)
        mean_dpf = np.mean(deltas_dpf, axis=0)
        gap_dpsgd = float(abs(mean_dpsgd[0] - mean_dpsgd[1]))
        gap_dpf = float(abs(mean_dpf[0] - mean_dpf[1]))
        total_dpsgd = float(np.mean(totals_dpsgd))
        total_dpf = float(np.mean(totals_dpf))

        assert gap_dpsgd > self.TAU, \
            f"uniform clipping shows no disparate impact: gap {gap_dpsgd:.4f}"
        assert gap_dpf <= self.TAU, \
            f"group-adaptive clipping leaves a gap of {gap_dpf:.4f}"
        assert total_dpf >= total_dpsgd - 0.02, \
            f"adaptive total accuracy {total_dpf:.4f} too far below {total_dpsgd:.4f}"
        report("7 disparate-impact-reproduction-and-removal",
               f"(dpsgd gap {gap_dpsgd:.4f} > {self.TAU}, dpsgd-f gap "
               f"{gap_dpf:.4f} <= {self.TAU}, total {total_dpf:+.4f} vs "
               f"{total_dpsgd:+.4f}, iterations {iteration_pairs[0][1]} < "
               f"{iteration_pairs[0][0]})")


ADULT_SCHEMA = [
    ("age", "numeric"), ("workclass", "categorical"), ("fnlwgt", "numeric"),
    ("education", "categorical"), ("education-num", "numeric"),
    ("marital-status", "categorical"), ("occupation", "categorical"),
    ("relationship", "categorical"), ("race", "categorical"),
    ("sex", "categorical"), ("capital-gain", "numeric"),
    ("capital-loss", "numeric"), ("hours-per-week", "numeric"),
    ("native-country", "categorical"), ("income", "categorical"),
]

# the 40-dimension preprocessing keeps 6 numeric columns plus the
# workclass/marital-status/occupation/relationship one-hot blocks
ADULT_KEEP = ("age", "workclass", "fnlwgt", "education-num", "marital-status",
              "occupation", "relationship", "capital-gain", "capital-loss",
              "hours-per-week", "sex", "income")


@pytest.mark.skipif(not Path(ADULT_CSV).exists(),
                    reason=f"Adult data not present at {ADULT_CSV} "
                           "(set ADULT_CSV to enable)")
class TestCriterion8CensusDirection:
    def test_adult_direction(self, tmp_path):
        raw = Path(ADULT_CSV).read_text(encoding="utf-8")
        cleaned = "\n".join(line for line in raw.splitlines()
                            if line.strip() and "?" not in line) + "\n"
        path = tmp_path / "adult_clean.csv"
        path.write_text(cleaned, encoding="utf-8")
        table = load_census_csv(path, ADULT_SCHEMA, header=False)
        keep_idx = [i for i, name in enumerate(table.column_names)
                    if name in ADULT_KEEP]
        table = RawTable(tuple(table.column_names[i] for i in keep_idx),
                         tuple(table.columns[i] for i in keep_idx),
                         table.row_count)
        data = preprocess_census(table, "sex", "income", "Male")
        assert data.n == 45222
        assert data.dim == 40
        train_data, test_data = split(data, 0.8, seed=5)

        spec = ModelSpec.softmax(40, 2, l2=0.01)
        cfg = TrainConfig(model=spec, strategy=Uniform(0.5), noise_multiplier=1.0,
                          lr="inv_sqrt_total", batch_size=256, epochs=4,
                          delta=1e-6, seed=11, eval_every=10_000)
        baseline = train_nonprivate(cfg, train_data, test_data)
        dpsgd = train(cfg, train_data, test_data)
        matched = replace(cfg, strategy=GroupAdaptive(0.5, 10.0),
                          budget_target=dpsgd.final_epsilon)
        dpf = train(matched, train_data, test_data)

        impact_dpsgd = privacy_impact(dpsgd.test_report, baseline.test_report, 0.05)
        impact_dpf = privacy_impact(dpf.test_report, baseline.test_report, 0.05)
        female, male = impact_dpsgd.delta  # group 1 is the declared positive
        assert male < female, f"expected male delta below female: {male} vs {female}"
        assert impact_dpf.max_pairwise_gap <= 0.05
        report("8 census-direction",
               f"(dpsgd male {male:+.4f} < female {female:+.4f}; "
               f"dpsgd-f gap {impact_dpf.max_pairwise_gap:.4f})")


class TestCriterion9BoundContainment:
    def test_monte_carlo_within_bounds(self):
        rng = np.random.default_rng(314)
        for config in range(20):
            size = int(rng.integers(5, 40))
            grads = np.abs(rng.standard_normal(size)) * float(rng.uniform(0.3, 4))
            bound = float(rng.uniform(0.2, 2.5))
            eps = float(rng.uniform(0.5, 4.0))
            cb = cost_bounds(grads, np.zeros(size, dtype=int), bound, eps)[0]
            estimates = [empirical_error(grads, bound, eps, 4000,
                                         np.random.default_rng(7000 + 10 * config + rep))
                         for rep in range(8)]
            est = float(np.mean(estimates))
            se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
            assert cb.lower - 3 * se <= est <= cb.upper + 3 * se, \
                f"config {config}: {est} outside [{cb.lower}, {cb.upper}] +- 3*{se}"
        report("9a bound-containment", "(20 configurations within [lower, upper])")

    def test_optimal_clip_minimizes_sweep_exactly(self):
        rng = np.random.default_rng(272)
        groups = None
        for _ in range(50):
            size = int(rng.integers(3, 50))
            eps = float(rng.uniform(0.3, 3.0))
            if size * eps <= 1.0:
                continue
            norms = np.abs(rng.standard_normal(size)) * float(rng.uniform(0.5, 5))
            groups = np.zeros(size, dtype=int)

            def envelope(c):
                return cost_bounds(norms, groups, c, eps)[0].upper

            best = optimal_clip(norms, size, eps)
            assert envelope(best) == min(envelope(c) for c in norms)
        report("9b optimal-clip-minimizes-sweep", "(exact over breakpoint set)")
