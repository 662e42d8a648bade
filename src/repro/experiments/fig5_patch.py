"""Figure 5: the Lustre read-ahead bug -- discovery and fix.

- (a) per-phase cumulative progress of the middle-phase reads: "Not only
  are the slow reads confined to reads 4 through 8, but they get
  progressively worse."
- (b) the read histogram before vs after the Lustre patch.
- (c) the trace after the patch: "the job run time has been reduced from
  2200 seconds to 520" -- a 4.2x improvement -- "and the trace is
  comparable to that obtained from Jaguar".

The patch is ``MachineConfig.franklin_patched()``:
``strided_readahead=False`` -- detection "removed entirely", exactly what
the real fix did.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List

from ..apps.harness import AppResult, SimSpec
from ..ensembles.distribution import EmpiricalDistribution
from ..ensembles.histogram import log_histogram
from ..ensembles.plots import plot_cdfs, plot_histogram
from ..ensembles.progress import deterioration_trend, phase_progress
from ..ensembles.tracevis import trace_diagram
from .fig4_madbench import configure as fig4_configure
from .fig4_madbench import madbench_spec
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "fig5_patch"
READ_PHASES = tuple(f"W_read{i}" for i in range(4, 9))


def plan(scale: str = "paper", seed: int = 0) -> List[SimSpec]:
    before_cfg = fig4_configure(scale, "franklin")
    after_cfg = replace(
        before_cfg,
        machine=before_cfg.machine.with_overrides(strided_readahead=False),
    )
    return [
        madbench_spec(before_cfg, seed, "before"),
        madbench_spec(after_cfg, seed, "after"),
    ]


def summarise(spec: SimSpec, res: AppResult) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "elapsed": res.elapsed,
        "degraded_reads": res.meta["degraded_reads"],
        "reads": res.trace.reads().durations,
    }
    if spec.label == "before":
        # (a) progress curves for reads 4..8 before the patch
        curves = phase_progress(res.trace, READ_PHASES)
        out["progress_curves"] = [
            curves[p] for p in READ_PHASES if p in curves
        ]
    else:
        out["trace_diagram"] = trace_diagram(res.trace)
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    before, after = summaries["before"], summaries["after"]
    ordered = before["progress_curves"]
    t90, monotonicity = deterioration_trend(ordered, quantile=0.9)

    reads_before = before["reads"]
    reads_after = after["reads"]

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "before_s": before["elapsed"],
        "after_s": after["elapsed"],
        "speedup": before["elapsed"] / after["elapsed"],
        "deterioration_monotonicity": monotonicity,
        "read_max_before": float(reads_before.max()),
        "read_max_after": float(reads_after.max()),
        "degraded_before": float(before["degraded_reads"]),
        "degraded_after": float(after["degraded_reads"]),
    }
    out.series = {
        "progress_curves": ordered,
        "t90_per_phase": t90,
        "hist_before": log_histogram(reads_before, bins_per_decade=8),
        "hist_after": log_histogram(reads_after, bins_per_decade=8),
        "trace_after": after["trace_diagram"],
    }
    dist_after = EmpiricalDistribution(reads_after)
    out.verdicts = {
        # (a) reads 4..8 deteriorate progressively
        "progressive_deterioration": monotonicity >= 0.75
        and len(t90) >= 4
        and t90[-1] > 1.5 * t90[0],
        # (b) the patch removes the catastrophic tail
        "tail_removed": float(reads_after.max())
        < 0.25 * float(reads_before.max()),
        "no_degraded_after": after["degraded_reads"] == 0,
        # (c) >= 3x run-time improvement (paper: 4.2x)
        "large_speedup": before["elapsed"] / after["elapsed"] > 3.0,
        "after_reads_modest": dist_after.tail_weight(0.9) < 4.0,
    }
    return out


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [f"== Figure 5 (Lustre patch), scale={scale} =="]
    rows = [
        {
            "phase": p,
            "t90_s": float(t),
        }
        for p, t in zip(READ_PHASES, out.series["t90_per_phase"])
    ]
    lines.append(format_table("(a) 90%-completion time per read phase", rows))
    lines.append(
        plot_cdfs(
            out.series["progress_curves"],
            title="(a) progress of reads 4..8 (before patch)",
            height=10,
        )
    )
    lines.append(
        plot_histogram(
            out.series["hist_before"],
            title="(b) read histogram BEFORE patch (log-log)",
            log_counts=True,
            height=8,
            xlabel="seconds (log bins)",
        )
    )
    lines.append(
        plot_histogram(
            out.series["hist_after"],
            title="(b) read histogram AFTER patch (log-log)",
            log_counts=True,
            height=8,
            xlabel="seconds (log bins)",
        )
    )
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
