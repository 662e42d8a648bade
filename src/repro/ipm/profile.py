"""Streaming I/O profiles: the paper's "future work" realised.

Section VI: "it may not even be necessary to store a majority of the
performance data, just enough to define the distribution ... moving the
data captures from an I/O tracing paradigm to an I/O profiling paradigm".

:class:`StreamingHistogram` ingests durations one at a time into fixed
log-spaced bins and maintains running moments -- O(1) memory per op class
regardless of event count, versus O(events) for a full trace.  It is exact
enough to recover the modes and moments the ensemble methodology needs,
which the tests verify against the full-trace answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["StreamingHistogram", "IoProfile"]


class StreamingHistogram:
    """Log-binned streaming histogram with running moments.

    Bins cover ``[t_min, t_max)`` with ``bins_per_decade`` bins per decade;
    underflow/overflow are counted separately so no observation is lost.
    """

    def __init__(
        self,
        t_min: float = 1e-6,
        t_max: float = 1e4,
        bins_per_decade: int = 8,
    ):
        if t_min <= 0 or t_max <= t_min:
            raise ValueError("need 0 < t_min < t_max")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.bins_per_decade = int(bins_per_decade)
        decades = math.log10(self.t_max / self.t_min)
        self.n_bins = max(int(math.ceil(decades * bins_per_decade)), 1)
        self._log_min = math.log10(self.t_min)
        self._scale = bins_per_decade
        self.counts = np.zeros(self.n_bins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        # running moments
        self.n = 0
        self._sum = 0.0
        self._sum2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.n += 1
        self._sum += value
        self._sum2 += value * value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value < self.t_min:
            self.underflow += 1
            return
        if value >= self.t_max:
            self.overflow += 1
            return
        idx = int((math.log10(value) - self._log_min) * self._scale)
        if idx >= self.n_bins:  # float edge case at the top boundary
            idx = self.n_bins - 1
        self.counts[idx] += 1

    # -- edges & summaries -----------------------------------------------------
    def bin_edges(self) -> np.ndarray:
        exponents = self._log_min + np.arange(self.n_bins + 1) / self._scale
        return 10.0 ** exponents

    @property
    def mean(self) -> float:
        return self._sum / self.n if self.n else math.nan

    @property
    def variance(self) -> float:
        if self.n < 2:
            return math.nan
        m = self.mean
        return max(self._sum2 / self.n - m * m, 0.0) * self.n / (self.n - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def min(self) -> float:
        return self._min if self.n else math.nan

    @property
    def max(self) -> float:
        return self._max if self.n else math.nan

    def quantile(self, q: float) -> float:
        """Approximate quantile from the binned counts."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            return math.nan
        target = q * self.n
        cum = self.underflow
        if target <= cum:
            return self.t_min
        edges = self.bin_edges()
        for i, c in enumerate(self.counts):
            if cum + c >= target and c > 0:
                frac = (target - cum) / c
                return float(edges[i] + frac * (edges[i + 1] - edges[i]))
            cum += c
        return self.t_max

    def merge(self, other: "StreamingHistogram") -> None:
        """In-place merge (rank-local histograms -> job histogram)."""
        if (
            self.t_min != other.t_min
            or self.t_max != other.t_max
            or self.bins_per_decade != other.bins_per_decade
        ):
            raise ValueError("cannot merge histograms with different binning")
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.n += other.n
        self._sum += other._sum
        self._sum2 += other._sum2
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def nbytes(self) -> int:
        """Memory footprint of the summary (the scalability argument)."""
        return int(self.counts.nbytes) + 6 * 8


class IoProfile:
    """Per-(op, size-class) streaming histograms for one run."""

    #: size-class boundaries (bytes): metadata-sized vs record-sized vs bulk
    SIZE_CLASSES: Tuple[Tuple[str, int], ...] = (
        ("tiny(<3KB)", 3 * 1024),
        ("small(<1MB)", 1024 * 1024),
        ("medium(<16MB)", 16 * 1024 * 1024),
        ("large", 1 << 62),
    )

    def __init__(self, bins_per_decade: int = 8):
        self.bins_per_decade = int(bins_per_decade)
        self._hists: Dict[Tuple[str, str], StreamingHistogram] = {}

    @classmethod
    def size_class(cls, size: int) -> str:
        for name, bound in cls.SIZE_CLASSES:
            if size < bound:
                return name
        return cls.SIZE_CLASSES[-1][0]  # pragma: no cover - unreachable

    def observe(self, op: str, size: int, duration: float) -> None:
        key = (op, self.size_class(size))
        hist = self._hists.get(key)
        if hist is None:
            hist = StreamingHistogram(bins_per_decade=self.bins_per_decade)
            self._hists[key] = hist
        hist.observe(duration)

    def histogram(self, op: str, size_class: Optional[str] = None) -> StreamingHistogram:
        """Merged histogram over all size classes of ``op`` (or one class)."""
        out: Optional[StreamingHistogram] = None
        for (o, sc), h in self._hists.items():
            if o != op:
                continue
            if size_class is not None and sc != size_class:
                continue
            if out is None:
                out = StreamingHistogram(bins_per_decade=self.bins_per_decade)
            out.merge(h)
        if out is None:
            out = StreamingHistogram(bins_per_decade=self.bins_per_decade)
        return out

    def keys(self) -> List[Tuple[str, str]]:
        return sorted(self._hists)

    def total_events(self) -> int:
        return sum(h.n for h in self._hists.values())

    def nbytes(self) -> int:
        return sum(h.nbytes() for h in self._hists.values())
