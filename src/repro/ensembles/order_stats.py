"""Order statistics of I/O ensembles (Section III-A, Equation 1).

For N tasks whose per-task I/O time has density f(t) and CDF F(t), the
*slowest* task -- the one that defines a barrier-synchronised phase's run
time -- is the N-th order statistic with density

    f_N(t) = N * F(t)**(N-1) * f(t).

"As N increases the expression F(t)^(N-1) quickly converges to a step
function picking out a point in the right-hand tail of the distribution."
These helpers evaluate f_N from an empirical ensemble and predict expected
phase times, which the integration tests compare against simulated barrier
times.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .distribution import EmpiricalDistribution, trapezoid

__all__ = [
    "nth_order_density",
    "expected_max",
    "max_quantile",
    "predict_phase_time",
    "step_sharpness",
]


def nth_order_density(
    dist: EmpiricalDistribution, n: int, n_points: int = 512
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate Equation 1 on a grid -> (t, f_N(t)).

    f and F come from the empirical ensemble: the KDE density and the
    empirical CDF.  The result is renormalised on the grid to absorb KDE
    truncation error.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t, f = dist.pdf_grid(n_points=n_points)
    big_f = np.clip(dist.cdf(t), 0.0, 1.0)
    fn = n * np.power(big_f, n - 1) * f
    area = trapezoid(fn, t)
    if area > 0:
        fn = fn / area
    return t, fn


def expected_max(dist: EmpiricalDistribution, n: int) -> float:
    """E[max of n draws] from the empirical sample (exact, no grid).

    Uses the classic identity E[X_(n)] = sum over order statistics of the
    sample: for the ECDF, draws are uniform over the sample values, and
    P(max <= x_(k)) = (k/m)^n for sample size m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = dist.samples
    m = len(s)
    k = np.arange(1, m + 1, dtype=float)
    p_le = (k / m) ** n
    p_eq = np.diff(np.concatenate([[0.0], p_le]))
    return float(np.sum(s * p_eq))


def max_quantile(dist: EmpiricalDistribution, n: int, q: float = 0.5) -> float:
    """The q-quantile of the max of n draws: F^{-1}(q^(1/n))."""
    if not (0.0 < q < 1.0):
        raise ValueError("q must be in (0, 1)")
    return float(dist.quantile(q ** (1.0 / n)))


def predict_phase_time(dist: EmpiricalDistribution, n_tasks: int) -> float:
    """Predicted barrier-phase duration: the expected slowest task.

    This is the punchline of the order-statistics observation: "a small
    number of events, or even a single event, can define the performance
    of an application".
    """
    return expected_max(dist, n_tasks)


def step_sharpness(dist: EmpiricalDistribution, n: int) -> float:
    """How step-like F(t)^(n-1) has become: the fraction of the sample
    range over which it rises from 0.05 to 0.95.  Small = sharp step."""
    s = dist.samples
    span = s[-1] - s[0]
    if span <= 0:
        return 0.0
    t = np.linspace(s[0], s[-1], 1024)
    g = np.power(np.clip(dist.cdf(t), 0.0, 1.0), max(n - 1, 1))
    above = t[g >= 0.05]
    below = t[g >= 0.95]
    if len(above) == 0 or len(below) == 0:
        return 1.0
    rise = below[0] - above[0]
    return float(max(rise, 0.0) / span)
