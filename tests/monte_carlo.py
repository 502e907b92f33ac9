"""Monte-Carlo error of a clipped, Laplace-noised batch mean.

The empirical side of ``fairdp.analysis.cost_bounds``: the tests check
that this estimate falls inside the analytic [lower, upper] envelope.
"""

from __future__ import annotations

import numpy as np


def empirical_error(grads: np.ndarray, bound: float, eps: float, trials: int,
                    rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of E|private mean - true mean| for one group.

    Clips the scalar gradients at the bound, then repeatedly perturbs the
    clipped sum with Laplace noise of scale bound/eps.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    if not bound > 0 or not eps > 0:
        raise ValueError("bound and eps must be positive")
    grads = np.asarray(grads, dtype=np.float64)
    size = grads.shape[0]
    true_mean = grads.mean()
    clipped_sum = np.clip(grads, -bound, bound).sum()
    noise = rng.laplace(0.0, bound / eps, size=trials)
    return float(np.abs((clipped_sum + noise) / size - true_mean).mean())
