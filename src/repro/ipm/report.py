"""IPM-style run reports.

Aggregates a run's trace into the banner-style summary the IPM tool prints
at job end: per-op call counts, byte totals, time statistics, and per-file
breakdowns.  Purely presentational -- every number is recomputed from the
trace, so the report doubles as a human-readable integrity check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .events import DATA_OPS, Trace

__all__ = ["OpStats", "RunReport", "build_report", "format_report"]


@dataclass
class OpStats:
    op: str
    calls: int
    bytes: int
    t_total: float
    t_min: float
    t_mean: float
    t_max: float

    @property
    def rate(self) -> float:
        """Aggregate bytes/s over the summed call time."""
        return self.bytes / self.t_total if self.t_total > 0 else 0.0


@dataclass
class RunReport:
    ntasks: int
    wallclock: float
    total_bytes: int
    total_calls: int
    ops: Dict[str, OpStats] = field(default_factory=dict)
    files: Dict[str, OpStats] = field(default_factory=dict)

    @property
    def aggregate_data_rate(self) -> float:
        """Total data bytes / wallclock (the headline MB/s number)."""
        data_bytes = sum(
            s.bytes for op, s in self.ops.items() if op in DATA_OPS
        )
        return data_bytes / self.wallclock if self.wallclock > 0 else 0.0


def _stats_for(trace: Trace, label: str) -> OpStats:
    durations = trace.durations
    return OpStats(
        op=label,
        calls=len(trace),
        bytes=trace.total_bytes,
        t_total=float(durations.sum()) if len(trace) else 0.0,
        t_min=float(durations.min()) if len(trace) else 0.0,
        t_mean=float(durations.mean()) if len(trace) else 0.0,
        t_max=float(durations.max()) if len(trace) else 0.0,
    )


def build_report(
    trace: Trace, ntasks: int, wallclock: Optional[float] = None
) -> RunReport:
    """Aggregate a trace into a :class:`RunReport`."""
    wall = wallclock if wallclock is not None else trace.span
    report = RunReport(
        ntasks=ntasks,
        wallclock=wall,
        total_bytes=trace.total_bytes,
        total_calls=len(trace),
    )
    ops = sorted(set(trace.ops))
    for op in ops:
        sub = trace.filter(ops=[op])
        report.ops[op] = _stats_for(sub, op)
    for path in sorted(set(trace.paths)):
        sub = trace.filter(path=path).data_ops()
        if len(sub):
            report.files[path] = _stats_for(sub, path)
    return report


def format_report(report: RunReport) -> str:
    """Render the IPM-style text banner."""
    mib = 1024.0 * 1024.0
    lines = [
        "##IPM-I/O#########################################################",
        f"# tasks      : {report.ntasks}",
        f"# wallclock  : {report.wallclock:.2f} s",
        f"# total I/O  : {report.total_bytes / mib:.1f} MB in "
        f"{report.total_calls} calls",
        f"# data rate  : {report.aggregate_data_rate / mib:.1f} MB/s",
        "#",
        "#  op        calls       MB     t_total     t_min    t_mean     t_max",
    ]
    for op, s in sorted(report.ops.items()):
        lines.append(
            f"#  {op:<9}{s.calls:>7}{s.bytes / mib:>10.1f}"
            f"{s.t_total:>11.2f}{s.t_min:>10.4f}{s.t_mean:>10.4f}{s.t_max:>10.2f}"
        )
    if report.files:
        lines.append("#")
        lines.append("#  file                          calls       MB      MB/s")
        for path, s in sorted(report.files.items()):
            lines.append(
                f"#  {path:<28}{s.calls:>8}{s.bytes / mib:>10.1f}"
                f"{s.rate / mib:>10.1f}"
            )
    lines.append(
        "###################################################################"
    )
    return "\n".join(lines)
