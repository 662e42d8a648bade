"""Per-phase I/O progress curves (Figure 5a).

"Each curve gives the progress of I/O during the phase versus time" -- the
fraction of the phase's operations complete as a function of time since
the phase began.  Plotting reads 4..8 of MADbench this way exposed that
the slow reads "not only are confined to reads 4 through 8, but they get
progressively worse", the two insights that "lead directly to determining
the source of the bottleneck".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ipm.events import Trace

__all__ = ["ProgressCurve", "phase_progress", "deterioration_trend"]


@dataclass
class ProgressCurve:
    """Fraction of ops complete vs time-in-phase for one phase."""

    phase: str
    times: np.ndarray  # seconds since phase start, sorted
    fraction: np.ndarray  # completed fraction after each event

    @property
    def t_half(self) -> float:
        """Time for half the ops to finish."""
        idx = np.searchsorted(self.fraction, 0.5)
        idx = min(idx, len(self.times) - 1)
        return float(self.times[idx])

    def fraction_at(self, t: float) -> float:
        idx = np.searchsorted(self.times, t, side="right")
        if idx == 0:
            return 0.0
        return float(self.fraction[idx - 1])


def phase_progress(
    trace: Trace, phases: Optional[Sequence[str]] = None
) -> Dict[str, ProgressCurve]:
    """Build a progress curve per phase label.

    Time is measured from the phase's first event start (the barrier
    release), and an op counts as complete at its end time.
    """
    wanted = list(phases) if phases is not None else trace.phase_names()
    out: Dict[str, ProgressCurve] = {}
    for phase in wanted:
        sub = trace.filter(phase=phase)
        if len(sub) == 0:
            continue
        t0 = sub.t_first
        ends = np.sort(sub.ends - t0)
        fraction = np.arange(1, len(ends) + 1, dtype=float) / len(ends)
        out[phase] = ProgressCurve(phase=phase, times=ends, fraction=fraction)
    return out


def deterioration_trend(
    curves: Sequence[ProgressCurve], quantile: float = 0.9
) -> Tuple[np.ndarray, float]:
    """Quantify progressive deterioration across ordered phases.

    Returns the per-phase time at which ``quantile`` of ops are complete,
    and the Spearman-like monotonicity of that series in [-1, 1]
    (+1 = strictly worsening, the MADbench signature).
    """
    if not curves:
        return np.array([]), 0.0
    tq = []
    for c in curves:
        idx = np.searchsorted(c.fraction, quantile)
        idx = min(idx, len(c.times) - 1)
        tq.append(c.times[idx])
    tq_arr = np.asarray(tq, dtype=float)
    if len(tq_arr) < 2:
        return tq_arr, 0.0
    diffs = np.sign(np.diff(tq_arr))
    monotonicity = float(diffs.sum() / len(diffs))
    return tq_arr, monotonicity
