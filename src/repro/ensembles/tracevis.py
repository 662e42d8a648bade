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
from typing import Optional

import numpy as np

from ..ipm.events import READ_OPS, WRITE_OPS, Trace

__all__ = ["TraceDiagram", "trace_diagram", "render"]

_OP_CHARS = {"write": "#", "read": "r", "meta": "."}


@dataclass
class TraceDiagram:
    """One bar per traced event, held as columns: bar ``i`` covers
    ``[t_start[i], t_end[i]]`` on rank ``ranks[i]`` and is drawn as
    ``kinds[i]`` ("write" | "read" | "meta")."""

    ranks: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    kinds: np.ndarray
    nranks: int
    t_min: float
    t_max: float

    def busy_fraction(self) -> float:
        """Fraction of the (ranks x wallclock) area covered by I/O bars --
        low values are the 'mostly white space' observation of Fig 6a."""
        span = self.t_max - self.t_min
        if span <= 0 or self.nranks == 0:
            return 0.0
        # Python's sum, bar by bar: the float order busy= is rendered from
        busy = sum((self.t_end - self.t_start).tolist())
        return busy / (span * self.nranks)


def trace_diagram(trace: Trace, nranks: Optional[int] = None) -> TraceDiagram:
    """Extract bar data from a trace (data ops become bars; zero-length
    metadata ops are kept as points so HDF5 metadata shows up in red, as
    in Figure 6a)."""
    ops = trace.ops
    keep = ops != "lseek"
    ops = ops[keep]
    ranks = trace.ranks[keep]
    starts = trace.starts[keep]
    ends = starts + trace.durations[keep]
    kinds = np.where(
        np.isin(ops, WRITE_OPS),
        "write",
        np.where(np.isin(ops, READ_OPS), "read", "meta"),
    )
    nranks = nranks if nranks is not None else int(ranks.max(initial=-1)) + 1
    t_min = float(starts.min()) if len(starts) else 0.0
    t_max = float(ends.max()) if len(ends) else 0.0
    return TraceDiagram(
        ranks=ranks, t_start=starts, t_end=ends, kinds=kinds,
        nranks=nranks, t_min=t_min, t_max=t_max,
    )


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
    for rank, t0, t1, kind in zip(
        diagram.ranks.tolist(), diagram.t_start.tolist(),
        diagram.t_end.tolist(), diagram.kinds.tolist(),
    ):
        row = min(int(rank / ranks_per_row), rows - 1)
        c0 = int((t0 - diagram.t_min) / span * (width - 1))
        c1 = int((t1 - diagram.t_min) / span * (width - 1))
        ch = _OP_CHARS[kind]
        for c in range(max(c0, 0), min(c1, width - 1) + 1):
            if priority[kind] >= priority.get(_invert(grid[row][c]), 0):
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
