"""Empirical distributions of I/O times.

The pivot of the methodology: "although the I/O rate an individual task
observes may vary significantly from run to run, the statistical moments
and modes of the performance distribution are reproducible."
:class:`EmpiricalDistribution` is the object that carries those moments and
modes, plus the pdf/cdf estimates the order-statistics machinery consumes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .histogram import HistogramResult, linear_histogram

__all__ = ["Moments", "EmpiricalDistribution", "trapezoid"]

#: the trapezoidal rule; numpy 2.0 renamed ``np.trapz`` to
#: ``np.trapezoid``, and the package supports numpy >= 1.24
trapezoid = np.trapezoid if hasattr(np, "trapezoid") else getattr(np, "trapz")

#: elements of the largest temporary :func:`_gaussian_kde` allocates
#: (2**19 float64s = 4 MiB)
_KDE_BLOCK = 1 << 19

#: log of the largest float, the underflow cut of the chi-squared tail
_LOG_MAX = math.log(sys.float_info.max)


def _standard_moments(s: np.ndarray) -> Tuple[float, float]:
    """(skewness g1, kurtosis b2 = m4/m2**2) with biased central moments;
    nan for both when the spread vanishes against the mean.

    The powers are formed as ``d**2 * d`` and ``(d**2)**2``: the same
    steps, hence the same bits, as the reference implementation
    ``tests/test_stat_kernels.py`` checks against.
    """
    mean = s.mean()
    d = s - mean
    d2 = d**2
    m2 = d2.mean()
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return math.nan, math.nan
    return float((d2 * d).mean() / m2**1.5), float((d2**2).mean() / m2**2.0)


def _normaltest_pvalue(s: np.ndarray) -> float:
    """D'Agostino-Pearson omnibus p-value (n >= 8).

    K2 = Zs**2 + Zk**2 from the skewness test (D'Agostino 1970) and the
    kurtosis test (Anscombe & Glynn 1983); K2 is chi-squared with two
    degrees of freedom under normality, whose survival function is
    exp(-K2/2).  Returns nan when the sample's spread vanishes.
    """
    g1, b2 = _standard_moments(s)
    n = float(len(s))
    # skewness test
    y = g1 * math.sqrt(((n + 1) * (n + 3)) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9)))
    w2 = -1 + math.sqrt(2 * (beta2 - 1))
    delta = 1 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1))
    y = 1.0 if y == 0 else y  # as in the reference implementation
    z_skew = delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1))
    # kurtosis test
    mean_b2 = 3.0 * (n - 1) / (n + 1)
    var_b2 = (24.0 * n * (n - 2) * (n - 3)
              / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5)))
    x = (b2 - mean_b2) / var_b2**0.5
    sqrt_beta1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                  * ((6.0 * (n + 3) * (n + 5)) / (n * (n - 2) * (n - 3))) ** 0.5)
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1
                                  + (1 + 4.0 / sqrt_beta1**2) ** 0.5)
    denom = 1 + x * (2 / (a - 4.0)) ** 0.5
    if denom == 0:
        return math.nan
    term2 = math.copysign(((1 - 2.0 / a) / abs(denom)) ** (1 / 3), denom)
    z_kurt = (1 - 2 / (9.0 * a) - term2) / (2 / (9.0 * a)) ** 0.5
    half = (z_skew**2 + z_kurt**2) / 2
    # 0 where Cephes' chi-squared tail (igamc) underflows,
    # log(half) - half < -log(max float), inside exp's subnormal range
    if half > 700 and half - math.log(half) > _LOG_MAX:
        return 0.0
    return math.exp(-half)


def _gaussian_kde(
    samples: np.ndarray, points: np.ndarray, bandwidth: Optional[float]
) -> np.ndarray:
    """Gaussian kernel density of ``samples`` at ``points``.

    The kernel width is ``bandwidth`` (Scott's rule n**-1/5 when None)
    times the sample std (ddof=1).  The kernel sum runs over blocks of
    samples so no temporary exceeds :data:`_KDE_BLOCK` elements.
    """
    n = len(samples)
    factor = n ** -0.2 if bandwidth is None else float(bandwidth)
    h = math.sqrt(float(np.var(samples, ddof=1))) * factor
    scale = -0.5 / h**2
    out = np.zeros(len(points))
    rows = max(1, _KDE_BLOCK // max(len(points), 1))
    for start in range(0, n, rows):
        # differences before scaling: exact for near-constant samples
        z = samples[start:start + rows, None] - points
        z *= z
        z *= scale
        np.exp(z, out=z)
        out += z.sum(axis=0)
    return out * (1.0 / (math.sqrt(2 * math.pi) * h * n))


@dataclass(frozen=True)
class Moments:
    """The first four standardized moments plus extrema."""

    n: int
    mean: float
    std: float
    skewness: float
    kurtosis: float  # excess kurtosis (0 for a Gaussian)
    min: float
    max: float

    @property
    def cv(self) -> float:
        """Coefficient of variation: the paper's "narrowness" measure."""
        return self.std / self.mean if self.mean else math.nan


class EmpiricalDistribution:
    """Sample-backed distribution with pdf/cdf estimates."""

    def __init__(self, samples: Sequence[float]):
        data = np.asarray(samples, dtype=float)
        data = data[np.isfinite(data)]
        if len(data) == 0:
            raise ValueError("need at least one finite sample")
        self.samples = np.sort(data)

    @property
    def n(self) -> int:
        return len(self.samples)

    # -- moments ------------------------------------------------------------
    def moments(self) -> Moments:
        s = self.samples
        spread = float(s.std()) if len(s) > 1 else 0.0
        # shape moments of near-constant samples are rounding noise;
        # report zero there instead
        degenerate = spread <= 1e-12 * max(abs(float(s[-1])), 1.0)
        skew, b2 = (
            _standard_moments(s) if len(s) > 2 and not degenerate
            else (0.0, 3.0)
        )
        return Moments(
            n=len(s),
            mean=float(s.mean()),
            std=float(s.std(ddof=1)) if len(s) > 1 else 0.0,
            skewness=skew,
            kurtosis=b2 - 3 if len(s) > 3 and not degenerate else 0.0,
            min=float(s[0]),
            max=float(s[-1]),
        )

    def quantile(self, q) -> np.ndarray | float:
        return np.quantile(self.samples, q)

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    # -- cdf / pdf ------------------------------------------------------------
    def cdf(self, t) -> np.ndarray | float:
        """Empirical CDF F(t) = fraction of samples <= t."""
        t_arr = np.asarray(t, dtype=float)
        out = np.searchsorted(self.samples, t_arr, side="right") / self.n
        return out if t_arr.shape else float(out)

    def pdf_grid(
        self, n_points: int = 256, bandwidth: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gaussian-KDE density estimate on an even grid -> (t, f(t)).

        Degenerate (constant) samples get a single narrow triangular bump
        rather than a crash, since phases with deterministic service do
        occur in the simulator's noise-free test configurations.
        """
        s = self.samples
        lo, hi = s[0], s[-1]
        if hi - lo <= 1e-12 * max(abs(hi), 1.0):
            width = max(abs(hi), 1.0) * 1e-3
            t = np.linspace(lo - width, hi + width, n_points)
            f = np.zeros_like(t)
            center = 0.5 * (lo + hi)
            tri = np.maximum(1.0 - np.abs(t - center) / width, 0.0)
            area = trapezoid(tri, t)
            f = tri / area if area > 0 else f
            return t, f
        pad = 0.05 * (hi - lo)
        t = np.linspace(lo - pad, hi + pad, n_points)
        return t, _gaussian_kde(s, t, bandwidth)

    # -- histograms ------------------------------------------------------------
    def histogram(self, bins: int = 50) -> HistogramResult:
        return linear_histogram(self.samples, bins=bins)

    # -- shape tests ------------------------------------------------------------
    def gaussianity(self) -> float:
        """A [0, 1] score of how Gaussian the sample looks.

        Uses the D'Agostino-Pearson statistic's p-value when the sample is
        large enough, otherwise a moment-based proxy.  Figure 2's caption
        ("progressively narrower and more Gaussian") is checked with this.
        """
        s = self.samples
        if len(s) >= 20 and float(s.std()) > 0:
            return _normaltest_pvalue(s)
        m = self.moments()
        score = 1.0 / (1.0 + m.skewness**2 + 0.25 * m.kurtosis**2)
        return float(score)

    def bootstrap_ci(
        self,
        statistic=np.mean,
        n_boot: int = 1000,
        alpha: float = 0.05,
        seed: int = 0,
    ) -> Tuple[float, float]:
        """Percentile-bootstrap confidence interval for a statistic.

        Quantifies how well-pinned an ensemble summary is -- the teeth
        behind "moments and modes are reproducible": the CI from one run
        should cover the other run's point estimate (tested).
        """
        if n_boot < 10:
            raise ValueError("n_boot must be >= 10")
        rng = np.random.default_rng(seed)
        n = self.n
        stats_ = np.empty(n_boot)
        for i in range(n_boot):
            sample = self.samples[rng.integers(0, n, size=n)]
            stats_[i] = statistic(sample)
        lo, hi = np.quantile(stats_, [alpha / 2, 1 - alpha / 2])
        return float(lo), float(hi)

    def tail_weight(self, q: float = 0.95) -> float:
        """max / quantile(q): how far the extreme tail reaches beyond the
        body.  Large values flag the 'broad right shoulder' pathology."""
        qv = float(self.quantile(q))
        if qv <= 0:
            return math.nan
        return float(self.samples[-1] / qv)
