"""Trace diagrams (Figures 1a, 4a/4d, 6a): data model + ASCII rendering.

"Each task's time history is represented with a separate horizontal line
... blue indicates time spent in write() and white space indicates all
other time."  :func:`trace_diagram` produces the bar data; :func:`render`
draws it as text, collapsing ranks into row-groups when there are more
ranks than lines -- which also demonstrates the paper's point that trace
diagrams stop being readable at 10,240 tasks (Figure 6a) while the
statistical views do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ipm.events import READ_OPS, WRITE_OPS, Trace

__all__ = ["TraceBar", "TraceDiagram", "trace_diagram", "render"]

_OP_CHARS = {"write": "#", "read": "r", "meta": "."}


@dataclass(frozen=True)
class TraceBar:
    rank: int
    t_start: float
    t_end: float
    kind: str  # "write" | "read" | "meta"


@dataclass
class TraceDiagram:
    bars: List[TraceBar]
    nranks: int
    t_min: float
    t_max: float

    def busy_fraction(self) -> float:
        """Fraction of the (ranks x wallclock) area covered by I/O bars --
        low values are the 'mostly white space' observation of Fig 6a."""
        span = self.t_max - self.t_min
        if span <= 0 or self.nranks == 0:
            return 0.0
        busy = sum(b.t_end - b.t_start for b in self.bars)
        return busy / (span * self.nranks)


def _kind_of(op: str) -> str:
    if op in WRITE_OPS:
        return "write"
    if op in READ_OPS:
        return "read"
    return "meta"


def trace_diagram(trace: Trace, nranks: Optional[int] = None) -> TraceDiagram:
    """Extract bar data from a trace (data ops become bars; zero-length
    metadata ops are kept as points so HDF5 metadata shows up in red, as
    in Figure 6a)."""
    ops = trace.ops
    keep = ops != "lseek"
    ranks = trace.ranks[keep].tolist()
    starts = trace.starts[keep]
    ends = starts + trace.durations[keep]
    bars = [
        TraceBar(rank=rank, t_start=t0, t_end=t1, kind=_kind_of(op))
        for rank, op, t0, t1 in zip(
            ranks, ops[keep].tolist(), starts.tolist(), ends.tolist()
        )
    ]
    n = max(ranks, default=-1) + 1
    nranks = nranks if nranks is not None else n
    t_min = float(starts.min()) if bars else 0.0
    t_max = float(ends.max()) if bars else 0.0
    return TraceDiagram(bars=bars, nranks=nranks, t_min=t_min, t_max=t_max)


def render(
    diagram: TraceDiagram,
    width: int = 100,
    height: int = 32,
    title: str = "",
) -> str:
    """ASCII-render a trace diagram.

    Ranks are folded into ``height`` rows (task 0 at the top, as in the
    paper); within a cell, write beats read beats metadata for visibility.
    """
    if width < 10 or height < 1:
        raise ValueError("width >= 10 and height >= 1 required")
    span = diagram.t_max - diagram.t_min
    if span <= 0 or diagram.nranks == 0:
        return "(empty trace)"
    rows = min(height, diagram.nranks)
    ranks_per_row = diagram.nranks / rows
    grid = [[" "] * width for _ in range(rows)]
    priority = {"write": 3, "read": 2, "meta": 1, " ": 0}
    for bar in diagram.bars:
        row = min(int(bar.rank / ranks_per_row), rows - 1)
        c0 = int((bar.t_start - diagram.t_min) / span * (width - 1))
        c1 = int((bar.t_end - diagram.t_min) / span * (width - 1))
        ch = _OP_CHARS[bar.kind]
        for c in range(max(c0, 0), min(c1, width - 1) + 1):
            if priority[bar.kind] >= priority.get(_invert(grid[row][c]), 0):
                grid[row][c] = ch
    lines = []
    if title:
        lines.append(title)
    axis = f"t: {diagram.t_min:.1f}s {'-' * max(width - 24, 1)} {diagram.t_max:.1f}s"
    lines.append(axis)
    lines.extend("".join(r) for r in grid)
    lines.append(
        f"[{diagram.nranks} ranks folded to {rows} rows; "
        f"#=write r=read .=metadata; busy={diagram.busy_fraction():.1%}]"
    )
    return "\n".join(lines)


def _invert(ch: str) -> str:
    for kind, c in _OP_CHARS.items():
        if c == ch:
            return kind
    return " "
