"""Figure 4: MADbench 256-task experiments on Franklin and Jaguar.

Panels: trace diagram, aggregate read/write rate, and log-log histogram
for each platform.  The headline contrasts the reproduction must show:

- Franklin (buggy client) is many times slower end to end than Jaguar
  (paper: 2200 s vs 275 s);
- write histograms on the two machines are similar, read histograms are
  "markedly different": Franklin's reads have a broad right shoulder
  reaching 30-500 s;
- the slow reads are confined to the strided middle phase, reads 4..8.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..apps.harness import AppResult, SimSpec
from ..apps.madbench import MadbenchConfig, run_madbench
from ..ensembles.compare import compare_ensembles
from ..ensembles.diagnose import diagnose
from ..ensembles.distribution import EmpiricalDistribution
from ..ensembles.histogram import log_histogram
from ..ensembles.timeseries import aggregate_rate
from ..ensembles.tracevis import trace_diagram
from ..iosys.machine import MachineConfig, MiB
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = [
    "configure", "madbench_spec", "plan", "summarise", "reduce", "run",
    "main",
]

EXPERIMENT = "fig4_madbench"


def configure(scale: str = "paper", platform: str = "franklin") -> MadbenchConfig:
    if scale == "paper":
        ntasks, matrix = 256, 300 * MiB - 517 * 1024
    elif scale == "small":
        ntasks, matrix = 64, 64 * MiB - 517 * 1024
    else:
        ntasks, matrix = 16, 16 * MiB - 133 * 1024
    if platform == "franklin":
        machine = MachineConfig.franklin()
        stripe = 16
    elif platform == "jaguar":
        machine = MachineConfig.jaguar()
        stripe = 48
    else:
        raise ValueError(platform)
    if scale != "paper":
        # keep the pressure mechanism active at reduced matrix sizes
        machine = machine.with_overrides(
            dirty_quota=min(machine.dirty_quota, matrix // 4)
        )
    return MadbenchConfig(
        ntasks=ntasks,
        matrix_bytes=matrix,
        stripe_count=stripe,
        machine=machine,
    )


def _panel(res: AppResult) -> Dict:
    reads = res.trace.reads()
    writes = res.trace.writes()
    return {
        "trace_diagram": trace_diagram(res.trace),
        "rate_curve": aggregate_rate(res.trace, n_bins=300),
        "read_hist": log_histogram(reads.durations, bins_per_decade=8),
        "write_hist": log_histogram(writes.durations, bins_per_decade=8),
        "reads": EmpiricalDistribution(reads.durations),
        "writes": EmpiricalDistribution(writes.durations),
    }


def madbench_spec(cfg: MadbenchConfig, seed: int, label: str) -> SimSpec:
    """One MADbench run as a spec; its cost hint is tasks x matrix
    transfers (each matrix is written once and read once)."""
    return SimSpec(
        "app", run_madbench, cfg, seed,
        cost=float(cfg.ntasks * 2 * cfg.n_matrices), label=label,
    )


def plan(scale: str = "paper", seed: int = 0) -> List[SimSpec]:
    return [
        madbench_spec(configure(scale, platform), seed, platform)
        for platform in ("franklin", "jaguar")
    ]


def summarise(spec: SimSpec, res: AppResult) -> Dict[str, Any]:
    panel = _panel(res)
    out: Dict[str, Any] = {
        "panel": panel,
        "elapsed": res.elapsed,
        "degraded_reads": res.meta["degraded_reads"],
    }
    if spec.label == "franklin":
        out["findings"] = diagnose(
            res.trace,
            nranks=res.ntasks,
            stripe_size=res.machine.stripe_size,
        )
        # the phases holding the slow reads (3x the median)
        slow_threshold = 3.0 * panel["reads"].median
        reads = res.trace.filter(ops=("read", "pread"))
        out["slow_phases"] = set(
            p
            for p, d in zip(reads.phases, reads.durations)
            if d > slow_threshold
        )
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    f_sum, j_sum = summaries["franklin"], summaries["jaguar"]
    f, j = f_sum["panel"], j_sum["panel"]
    f_elapsed, j_elapsed = f_sum["elapsed"], j_sum["elapsed"]

    # the paper's claim is that the write *shapes* are similar (the two
    # machines' absolute rates differ); compare scale-normalised ensembles
    write_cmp = compare_ensembles(
        EmpiricalDistribution(f["writes"].samples / f["writes"].median),
        EmpiricalDistribution(j["writes"].samples / j["writes"].median),
    )
    findings = f_sum["findings"]
    codes = {x.code for x in findings}

    # slow reads confined to the middle-phase reads 4..8
    slow_phases = f_sum["slow_phases"]
    late_read_phases = {f"W_read{i}" for i in range(4, 9)}

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "franklin_s": f_elapsed,
        "jaguar_s": j_elapsed,
        "franklin_over_jaguar": f_elapsed / j_elapsed,
        "franklin_read_p50": f["reads"].median,
        "franklin_read_max": f["reads"].moments().max,
        "jaguar_read_max": j["reads"].moments().max,
        "franklin_degraded_reads": float(f_sum["degraded_reads"]),
        "jaguar_degraded_reads": float(j_sum["degraded_reads"]),
    }
    out.series = {"franklin": f, "jaguar": j, "findings": findings}
    mostly_late = (
        len(slow_phases - late_read_phases - {""}) <= len(slow_phases) // 3
        if slow_phases
        else False
    )
    out.verdicts = {
        "franklin_much_slower": f_elapsed > 2.5 * j_elapsed,
        "write_hists_similar": write_cmp.ks_statistic < 0.35,
        "franklin_reads_have_shoulder": f["reads"].tail_weight(0.9) > 4.0,
        "jaguar_reads_modest": j["reads"].tail_weight(0.9) < 4.0,
        "slow_reads_in_middle_phase": mostly_late,
        "diagnosed_shoulder": "broad-right-shoulder" in codes,
    }
    return out


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [f"== Figure 4 (MADbench Franklin vs Jaguar), scale={scale} =="]
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    lines.append("automated findings:")
    for finding in out.series["findings"]:
        lines.append(f"  {finding}")
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
