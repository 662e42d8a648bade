"""Automatic phase segmentation of unlabelled traces.

The real IPM-I/O records libc calls, not application phase names; the
paper's per-phase analyses (Figure 5a's reads 4..8) were carved out of
the raw trace.  This module reconstructs barrier-synchronised phases from
trace structure alone:

- :func:`segment_by_gaps` -- split the timeline wherever *global* I/O
  activity pauses (every rank idle) for longer than a threshold: the
  signature of a barrier + compute section.

It returns a labelled *copy* of the trace so the rest of the toolkit
(progress curves, per-phase ensembles, the deterioration diagnostic)
works unchanged on unlabelled data -- demonstrated by the tests, which
recover the barrier phases of a label-stripped IOR trace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ipm.events import COLUMNS, DATA_OPS, Trace

__all__ = ["strip_labels", "segment_by_gaps"]


def _relabel(trace: Trace, phases: Sequence[str]) -> Trace:
    """A copy of the trace with its phase column replaced."""
    columns = {name: trace.column(name) for name in COLUMNS}
    columns["phase"] = phases
    return Trace.from_columns(**columns)


def strip_labels(trace: Trace) -> Trace:
    """A copy of the trace with phase labels removed (for testing the
    segmenters, and for simulating what a real IPM capture looks like)."""
    return _relabel(trace, [""] * len(trace))


def segment_by_gaps(
    trace: Trace,
    min_gap: Optional[float] = None,
    ops: Sequence[str] = DATA_OPS,
    min_size: int = 0,
    prefix: str = "phase",
) -> Trace:
    """Label events by splitting at global idle gaps.

    ``min_gap`` defaults to 3x the median data-op duration: a global
    pause longer than a few typical transfers is compute/barrier time,
    not service jitter.  Scale-free, overridable.  Events outside ``ops``
    inherit the phase of the interval they fall into.
    """
    data = trace.filter(ops=list(ops), min_size=min_size or None)
    if len(data) == 0:
        return strip_labels(trace)
    # merge busy intervals of the data ops
    order = np.argsort(data.starts)
    starts = data.starts[order]
    ends = data.ends[order]
    busy: List[Tuple[float, float]] = []
    cur_s, cur_e = starts[0], ends[0]
    for s, e in zip(starts[1:], ends[1:]):
        if s <= cur_e:
            cur_e = max(cur_e, e)
        else:
            busy.append((cur_s, cur_e))
            cur_s, cur_e = s, e
    busy.append((cur_s, cur_e))

    gaps = [b[0] - a[1] for a, b in zip(busy, busy[1:])]
    if min_gap is None:
        durations = data.durations
        durations = durations[durations > 0]
        min_gap = (
            3.0 * float(np.median(durations)) if len(durations) else float("inf")
        )

    # phase boundaries: the end of every busy interval followed by a gap
    # >= min_gap
    boundaries: List[float] = []
    for (a, b), gap in zip(zip(busy, busy[1:]), gaps):
        if gap >= min_gap:
            boundaries.append(a[1] + gap / 2.0)

    idx = np.searchsorted(np.asarray(boundaries, dtype=float), trace.starts)
    return _relabel(trace, [f"{prefix}{i}" for i in idx.tolist()])
