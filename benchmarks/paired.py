"""Paired on/off timing for the overhead gates.

An overhead gate times one seeded workload with a feature off and on.
:func:`paired_runs` warms both arms once, then runs adjacent (off, on)
pairs, alternating which arm goes first so in-process drift (allocator
growth, interpreter state) never systematically taxes one arm.

:class:`Paired` reports the pairs' on/off ratios two ways.  The gates
compare the *minimum* with their bounds: a load burst on a shared
machine can outlast one measurement but not every tightly spaced pair,
while a genuine hook-cost regression inflates every pair.  The *median*
and its interquartile range describe the typical pair; a best sample
alone can misstate the whole distribution.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

__all__ = ["Paired", "paired_runs"]


@dataclass(frozen=True)
class Paired:
    """Adjacent ``(off_s, on_s)`` wall times of one workload."""

    pairs: Tuple[Tuple[float, float], ...]

    @property
    def ratios(self) -> List[float]:
        return [on / off for off, on in self.pairs]

    @property
    def best(self) -> Tuple[float, float]:
        """The fastest off and the fastest on run."""
        return min(p[0] for p in self.pairs), min(p[1] for p in self.pairs)

    @property
    def min_ratio(self) -> float:
        return min(self.ratios)

    @property
    def median_ratio(self) -> float:
        return statistics.median(self.ratios)

    @property
    def iqr(self) -> Tuple[float, float]:
        """First and third quartile of the ratios."""
        q1, _, q3 = statistics.quantiles(self.ratios, n=4, method="inclusive")
        return q1, q3

    def extra_info(self) -> Dict[str, object]:
        """What a gate records: the best arms, the gated overhead (from
        the minimum ratio), and the median ratio with its quartiles."""
        off, on = self.best
        q1, q3 = self.iqr
        return {
            "wall_off_s": round(off, 4),
            "wall_on_s": round(on, 4),
            "overhead_pct": round(100.0 * (self.min_ratio - 1.0), 2),
            "median_ratio": round(self.median_ratio, 4),
            "ratio_iqr": [round(q1, 4), round(q3, 4)],
        }


def paired_runs(timed_run: Callable[[bool], float], reps: int) -> Paired:
    """Time ``timed_run(on)`` (host seconds) in ``reps`` alternating
    pairs after one untimed warm-up run of each arm."""
    timed_run(False)
    timed_run(True)
    pairs = []
    for rep in range(reps):
        if rep % 2 == 0:
            off = timed_run(False)
            on = timed_run(True)
        else:
            on = timed_run(True)
            off = timed_run(False)
        pairs.append((off, on))
    return Paired(tuple(pairs))
