"""Run-to-run ensemble comparison (the reproducibility claim).

Figure 1(c): two runs of the same experiment on different file systems
produce traces "very different in specific details" yet "almost identical"
statistical representations.  These helpers quantify that: KS distance
between ensembles, mode matching, and moment agreement, combined into a
reproducibility verdict that the integration tests (and the diagnose
engine) rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distribution import EmpiricalDistribution
from .modes import Mode, detect_modes

__all__ = ["EnsembleComparison", "compare_ensembles", "match_modes"]


@dataclass(frozen=True)
class EnsembleComparison:
    ks_statistic: float
    mean_rel_diff: float
    std_rel_diff: float
    mode_pairs: Tuple[Tuple[float, float], ...]
    unmatched_modes: int
    max_mode_shift: float

    def is_reproducible(
        self, ks_max: float = 0.15, mode_shift_max: float = 0.25
    ) -> bool:
        """The ensembles agree: distributions close in KS distance, and
        every prominent mode of one run has a counterpart in the other
        within ``mode_shift_max`` relative shift."""
        return (
            self.ks_statistic <= ks_max
            and self.unmatched_modes == 0
            and (
                self.max_mode_shift <= mode_shift_max
                or not self.mode_pairs
            )
        )


def match_modes(
    a: Sequence[Mode], b: Sequence[Mode], tolerance: float = 0.35
) -> Tuple[List[Tuple[float, float]], int]:
    """Greedily pair modes of two ensembles by location.

    Returns the matched (loc_a, loc_b) pairs and how many prominent modes
    could not be paired within ``tolerance`` relative distance.
    """
    remaining = list(b)
    pairs: List[Tuple[float, float]] = []
    unmatched = 0
    for ma in a:
        best = None
        best_d = None
        for mb in remaining:
            scale = max(ma.location, mb.location, 1e-12)
            d = abs(ma.location - mb.location) / scale
            if d <= tolerance and (best_d is None or d < best_d):
                best, best_d = mb, d
        if best is None:
            unmatched += 1
        else:
            pairs.append((ma.location, best.location))
            remaining.remove(best)
    unmatched += len(remaining)
    return pairs, unmatched


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance of two sorted samples: the
    largest gap between their empirical CDFs.

    The gap is a multiple of 1/lcm(n_a, n_b), so it is found exactly in
    integers and rounded once.
    """
    both = np.concatenate([a, b])
    g = math.gcd(len(a), len(b))
    gap = np.abs(np.searchsorted(a, both, side="right") * (len(b) // g)
                 - np.searchsorted(b, both, side="right") * (len(a) // g))
    return int(gap.max()) / (len(a) // g * len(b))


def compare_ensembles(
    a: EmpiricalDistribution,
    b: EmpiricalDistribution,
    mode_prominence: float = 0.1,
) -> EnsembleComparison:
    """Full statistical comparison of two ensembles."""
    ma, mb = a.moments(), b.moments()
    mean_scale = max(abs(ma.mean), abs(mb.mean), 1e-12)
    std_scale = max(ma.std, mb.std, 1e-12)
    modes_a = detect_modes(a, min_prominence=mode_prominence)
    modes_b = detect_modes(b, min_prominence=mode_prominence)
    pairs, unmatched = match_modes(modes_a, modes_b)
    max_shift = 0.0
    for la, lb in pairs:
        scale = max(la, lb, 1e-12)
        max_shift = max(max_shift, abs(la - lb) / scale)
    return EnsembleComparison(
        ks_statistic=_ks_statistic(a.samples, b.samples),
        mean_rel_diff=abs(ma.mean - mb.mean) / mean_scale,
        std_rel_diff=abs(ma.std - mb.std) / std_scale,
        mode_pairs=tuple(pairs),
        unmatched_modes=unmatched,
        max_mode_shift=float(max_shift),
    )
