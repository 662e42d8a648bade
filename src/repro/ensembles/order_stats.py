"""Order statistics of I/O ensembles (Section III-A, Equation 1).

For N tasks whose per-task I/O time has density f(t) and CDF F(t), the
*slowest* task -- the one that defines a barrier-synchronised phase's run
time -- is the N-th order statistic with density

    f_N(t) = N * F(t)**(N-1) * f(t).

"As N increases the expression F(t)^(N-1) quickly converges to a step
function picking out a point in the right-hand tail of the distribution."
:func:`expected_max` gives the mean of f_N exactly from an empirical
ensemble: the expected barrier-phase time of N tasks drawing from it.
"""

from __future__ import annotations

import numpy as np

from .distribution import EmpiricalDistribution

__all__ = ["expected_max"]


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
