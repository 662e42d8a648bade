"""Mode (peak) detection and harmonic-structure analysis.

Figure 1(c)'s three peaks sit at completion times T, T/2, T/4 -- the
"second and fourth harmonic" of the fair-share rate -- which the paper
reads as one or two tasks per node monopolising the node's I/O service.
:func:`detect_modes` finds the peaks of an ensemble; :func:`harmonics`
tests whether the detected modes stand in small-integer time ratios, the
smoking gun for node-level serialisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distribution import EmpiricalDistribution, trapezoid

__all__ = ["Mode", "detect_modes", "harmonics", "HarmonicStructure"]


@dataclass(frozen=True)
class Mode:
    """One detected mode of an ensemble."""

    location: float
    height: float  # density at the peak
    weight: float  # approximate probability mass of the peak
    prominence: float


@dataclass(frozen=True)
class HarmonicStructure:
    """Result of the harmonic test over detected modes."""

    fundamental: float  # slowest mode location (the fair-share time T)
    ratios: Tuple[float, ...]  # fundamental / mode_location, per mode
    harmonic_numbers: Tuple[int, ...]  # nearest integers
    max_deviation: float  # worst |ratio - nearest integer| / integer
    is_harmonic: bool


def _local_maxima(f: np.ndarray) -> np.ndarray:
    """Indices of the strict local maxima of ``f``.  A flat top counts
    once, at its middle (rounded down); neither end of ``f`` is a peak."""
    if len(f) < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate([[True], f[1:] != f[:-1]]))
    ends = np.concatenate([starts[1:] - 1, [len(f) - 1]])
    v = f[starts]
    top = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    return (starts[top] + ends[top]) // 2


def _find_peaks(
    f: np.ndarray, min_prominence: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Local maxima of ``f`` whose topographic prominence is at least
    ``min_prominence`` -> (indices, prominences).

    A peak's prominence is its height above the higher of the two minima
    between it and the nearest higher sample on either side (or the end
    of ``f``).
    """
    peaks = _local_maxima(f)
    prominences = np.empty(len(peaks))
    for k, p in enumerate(peaks):
        higher = np.flatnonzero(f > f[p])
        right = np.searchsorted(higher, p)
        lo = higher[right - 1] + 1 if right > 0 else 0
        hi = higher[right] if right < len(higher) else len(f)
        prominences[k] = f[p] - max(f[lo:p + 1].min(), f[p:hi].min())
    keep = min_prominence <= prominences
    return peaks[keep], prominences[keep]


def detect_modes(
    dist: EmpiricalDistribution,
    n_points: int = 512,
    min_prominence: float = 0.05,
    max_modes: int = 8,
    bandwidth: Optional[float] = None,
) -> List[Mode]:
    """Find the modes of an ensemble via peaks of the KDE density.

    ``min_prominence`` is relative to the tallest peak, so the test is
    scale-free.  ``bandwidth`` is the kernel width as a multiple of the
    sample std (Scott's rule when None); Scott's rule can over-smooth
    strongly multimodal ensembles, so mode hunting often wants ~0.15.
    Returns modes sorted by location (fastest first).
    """
    t, f = dist.pdf_grid(n_points=n_points, bandwidth=bandwidth)
    if f.max() <= 0:
        return []
    peaks, prominences = _find_peaks(f, min_prominence * f.max())
    if len(peaks) == 0:
        # monotone or single-bump density: take the argmax as the one mode
        i = int(np.argmax(f))
        peaks = np.array([i])
        prominences = np.array([f[i]])
    order = np.sort(np.argsort(prominences)[::-1][:max_modes])
    peaks = peaks[order]
    prominences = prominences[order]

    # approximate each peak's mass: integrate density to the midpoints
    # between neighbouring peaks
    locations = t[peaks]
    modes: List[Mode] = []
    bounds = np.concatenate(
        [[t[0]], 0.5 * (locations[1:] + locations[:-1]), [t[-1]]]
    )
    for i, p in enumerate(peaks):
        lo, hi = bounds[i], bounds[i + 1]
        seg = (t >= lo) & (t <= hi)
        weight = float(trapezoid(f[seg], t[seg])) if seg.sum() > 1 else 0.0
        modes.append(
            Mode(
                location=float(t[p]),
                height=float(f[p]),
                weight=weight,
                prominence=float(prominences[i]),
            )
        )
    modes.sort(key=lambda m: m.location)
    return modes


def harmonics(
    modes: Sequence[Mode], tolerance: float = 0.12, max_harmonic: int = 8
) -> Optional[HarmonicStructure]:
    """Check whether modes sit at T/k for small integers k.

    The *slowest* mode is taken as the fundamental T (the fair-share
    completion time); every other mode's ratio T/location is compared to
    its nearest integer.  Within ``tolerance`` (relative) the structure is
    declared harmonic.

    ``max_harmonic`` bounds the admissible k: the mechanism (one of a
    node's few tasks monopolising service) only produces small integers,
    and a huge ratio is always relatively close to SOME integer, so
    unbounded k would declare any wide-split bimodal ensemble 'harmonic'.
    """
    if len(modes) < 2:
        return None
    fundamental = max(m.location for m in modes)
    if fundamental <= 0:
        return None
    ratios = tuple(fundamental / m.location for m in modes)
    nearest = tuple(max(int(round(r)), 1) for r in ratios)
    devs = [abs(r - k) / k for r, k in zip(ratios, nearest)]
    max_dev = max(devs)
    return HarmonicStructure(
        fundamental=fundamental,
        ratios=ratios,
        harmonic_numbers=nearest,
        max_deviation=float(max_dev),
        is_harmonic=bool(
            max_dev <= tolerance
            and len(set(nearest)) > 1
            and max(nearest) <= max_harmonic
        ),
    )
