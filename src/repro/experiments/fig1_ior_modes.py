"""Figure 1: IOR 512 MB transfers using 1024 processors.

Panels reproduced:

- (a) the trace diagram: 5 barrier-separated write phases, one bar per
  task (rendered as ASCII here);
- (b) the aggregate data rate over all tasks: an initial high plateau
  (cache absorption) followed by lower sustained levels and a tail;
- (c) the completion-time histogram: "three prominent peaks corresponding
  to three distinct modes of behavior" at the fair-share time R
  (~30-32 s for 512 MB at ~16 MB/s) and its second and fourth harmonics,
  plus the scratch-vs-scratch2 comparison: two runs (different seeds,
  same experiment) whose traces differ in detail but whose statistical
  representations are "almost identical".
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..apps.harness import AppResult, SimSpec
from ..apps.ior import IorConfig
from ..ensembles.compare import compare_ensembles
from ..ensembles.distribution import EmpiricalDistribution
from ..ensembles.histogram import linear_histogram
from ..ensembles.modes import detect_modes, harmonics
from ..ensembles.plots import plot_histogram, plot_rate_curve
from ..ensembles.timeseries import aggregate_rate, plateaus
from ..ensembles.tracevis import render, trace_diagram
from ..iosys.machine import MiB
from . import fig2_lln
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["configure", "plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "fig1_ior_modes"


def configure(scale: str = "paper") -> IorConfig:
    """Figure 2's k=1 recipe: one 512 MB transfer per repetition."""
    return fig2_lln.configure(scale, k=1)


def plan(scale: str = "paper", seed: int = 0) -> List[SimSpec]:
    cfg = configure(scale)
    # run 1 = "scratch", run 2 = "scratch2": same experiment, different
    # instance of the stochastic environment
    return [
        fig2_lln.ior_spec(cfg, seed, "scratch"),
        fig2_lln.ior_spec(cfg, seed + 1, "scratch2"),
    ]


def summarise(spec: SimSpec, res: AppResult) -> Dict[str, Any]:
    out: Dict[str, Any] = {"durations": res.trace.writes().durations}
    if spec.label == "scratch":
        out.update(
            elapsed=res.elapsed,
            data_rate=res.meta["data_rate"],
            rate_curve=aggregate_rate(res.trace, n_bins=300),
            trace_diagram=trace_diagram(res.trace),
        )
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    cfg = configure(scale)
    run1 = summaries["scratch"]
    durations1 = run1["durations"]
    durations2 = summaries["scratch2"]["durations"]
    dist1 = EmpiricalDistribution(durations1)
    dist2 = EmpiricalDistribution(durations2)

    # Scott's-rule KDE over-smooths the harmonic peaks; hunt modes
    # with a narrower kernel (0.15 x sample std)
    modes = detect_modes(dist1, bandwidth=0.15)
    structure = harmonics(modes)
    comparison = compare_ensembles(dist1, dist2)
    curve = run1["rate_curve"]
    levels = plateaus(curve)

    fair_share = cfg.fair_share_rate
    t_fair = cfg.block_size / fair_share

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "elapsed_s": run1["elapsed"],
        "data_rate_MBps": run1["data_rate"] / MiB,
        "fair_share_MBps": fair_share / MiB,
        "T_fair_s": t_fair,
        "n_modes": float(len(modes)),
        "fundamental_s": structure.fundamental if structure else 0.0,
        "ks_between_runs": comparison.ks_statistic,
        "peak_rate_GBps": curve.peak / (1024 * MiB),
        "sustained_GBps": curve.sustained() / (1024 * MiB),
    }
    out.series = {
        "hist_run1": linear_histogram(durations1, bins=50),
        "hist_run2": linear_histogram(durations2, bins=50),
        "mode_locations": [m.location for m in modes],
        "mode_weights": [m.weight for m in modes],
        "rate_curve_t": curve.centers,
        "rate_curve_MBps": curve.rate / MiB,
        "plateau_levels_MBps": levels / MiB if len(levels) else levels,
        "trace_diagram": run1["trace_diagram"],
    }
    out.verdicts = {
        # (c) at least 3 modes, in harmonic (T/k) relation
        "three_modes": len(modes) >= 3,
        "harmonic_structure": bool(structure and structure.is_harmonic),
        # the fundamental is the fair-share time (within 25%)
        "fundamental_is_fair_share": bool(
            structure
            and abs(structure.fundamental - t_fair) / t_fair < 0.25
        ),
        # (c) run-to-run: traces differ, ensembles agree
        "ensembles_reproducible": comparison.is_reproducible(),
        # (b) an early rate sample exceeds the sustained level (plateau)
        "initial_plateau": bool(
            len(curve.rate) > 10
            and curve.rate[: len(curve.rate) // 5].max()
            > 1.5 * curve.sustained()
        ),
    }
    return out


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [f"== Figure 1 (IOR modes), scale={scale} =="]
    lines.append(
        render(out.series["trace_diagram"], width=100, height=16,
               title="(a) trace diagram")
    )
    lines.append(
        format_table(
            "(c) detected modes",
            [
                {"mode": i + 1, "t_seconds": loc, "weight": w}
                for i, (loc, w) in enumerate(
                    zip(out.series["mode_locations"], out.series["mode_weights"])
                )
            ],
        )
    )
    lines.append(
        plot_histogram(
            out.series["hist_run1"],
            title="(c) completion-time histogram, run 1",
            height=10,
        )
    )
    from ..ensembles.timeseries import RateCurve
    import numpy as np

    curve = RateCurve(
        t=np.append(
            out.series["rate_curve_t"],
            out.series["rate_curve_t"][-1] if len(out.series["rate_curve_t"]) else 1.0,
        ),
        rate=out.series["rate_curve_MBps"] * (1024.0 * 1024.0),
    )
    lines.append(
        plot_rate_curve(curve, title="(b) aggregate data rate", height=10)
    )
    lines.append(
        format_table("summary", [dict(out.summary)])
    )
    lines.append(
        format_table("verdicts", [dict(out.verdicts)])
    )
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
