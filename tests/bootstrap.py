"""Percentile-bootstrap confidence intervals for the reproducibility tests.

The claim that ensemble summaries are reproducible has teeth only as a
test: the CI of a statistic from one run should cover the point estimate
of another run (``tests/test_reproducibility.py``).  No experiment
reports a CI, so the bootstrap lives here rather than in the package.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.ensembles.distribution import EmpiricalDistribution


def bootstrap_ci(
    dist: EmpiricalDistribution,
    statistic: Callable[[np.ndarray], float] = np.mean,
    n_boot: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap ``1 - alpha`` interval of ``statistic``."""
    if n_boot < 10:
        raise ValueError("n_boot must be >= 10")
    rng = np.random.default_rng(seed)
    n = dist.n
    stats_ = np.empty(n_boot)
    for i in range(n_boot):
        sample = dist.samples[rng.integers(0, n, size=n)]
        stats_[i] = statistic(sample)
    lo, hi = np.quantile(stats_, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)
