"""Empirical distributions of I/O times.

The pivot of the methodology: "although the I/O rate an individual task
observes may vary significantly from run to run, the statistical moments
and modes of the performance distribution are reproducible."
:class:`EmpiricalDistribution` is the object that carries those moments and
modes, plus the pdf/cdf estimates the order-statistics machinery consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from .histogram import HistogramResult, linear_histogram

__all__ = ["Moments", "EmpiricalDistribution", "trapezoid"]

#: the trapezoidal rule; numpy 2.0 renamed ``np.trapz`` to
#: ``np.trapezoid``, and the package supports numpy >= 1.24
trapezoid = np.trapezoid if hasattr(np, "trapezoid") else getattr(np, "trapz")


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
        # scipy warns (and returns garbage) for near-constant samples;
        # report zero shape moments there instead
        degenerate = spread <= 1e-12 * max(abs(float(s[-1])), 1.0)
        return Moments(
            n=len(s),
            mean=float(s.mean()),
            std=float(s.std(ddof=1)) if len(s) > 1 else 0.0,
            skewness=(
                float(stats.skew(s)) if len(s) > 2 and not degenerate else 0.0
            ),
            kurtosis=(
                float(stats.kurtosis(s))
                if len(s) > 3 and not degenerate
                else 0.0
            ),
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
        kde = stats.gaussian_kde(s, bw_method=bandwidth)
        return t, kde(t)

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
            try:
                _stat, p = stats.normaltest(s)
                return float(p)
            except Exception:
                pass
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
