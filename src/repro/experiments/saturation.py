"""Section V inline claim: "as few as 80 tasks can saturate the I/O
subsystem."

A concurrency sweep of packed IOR writers against a fully striped shared
file: aggregate rate rises with writer count and flattens once the node
clients collectively reach the file system's capability -- a small
fraction of a 10,240-task job's width.  (Our calibrated per-task client
ceiling puts the knee near 160 tasks vs the paper's 80 -- a factor-2
documented in EXPERIMENTS.md.)
"""

from __future__ import annotations

from typing import Dict, List

from ..apps.harness import SimJob
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import shared_write
from .runner import ExperimentResult, format_table

__all__ = ["run", "main", "sweep_counts"]

EXPERIMENT = "saturation"


def sweep_counts(scale: str = "paper") -> List[int]:
    if scale == "paper":
        return [10, 20, 40, 80, 160, 320]
    return [2, 4, 8, 16, 32]


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    # streaming saturation test: the node client pipelines fairly across
    # its tasks (the burst-order discipline applies to discrete large
    # transfers, not sustained streaming)
    machine = MachineConfig.franklin(discipline_weights={4: 1.0})
    nbytes = 512 * MiB if scale == "paper" else 64 * MiB
    if scale != "paper":
        # weak-scale the file system so the knee falls inside the sweep
        machine = machine.with_overrides(fs_bw=1.6 * 1024 * MiB)
    rows: List[Dict[str, float]] = []
    for n in sweep_counts(scale):
        job = SimJob(machine, n, seed=seed)
        result = job.run(
            shared_write, f"/scratch/sat{n}.dat", 1, nbytes, machine.n_osts,
            fence=True,
        )
        writes = result.trace.writes()
        rate = writes.total_bytes / writes.span if writes.span > 0 else 0.0
        rows.append(
            {"tasks": float(n), "aggregate_GBps": rate / (1024 * MiB)}
        )

    rates = [r["aggregate_GBps"] for r in rows]
    peak = max(rates)
    knee = next(
        (r["tasks"] for r in rows if r["aggregate_GBps"] >= 0.85 * peak),
        rows[-1]["tasks"],
    )
    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "peak_GBps": peak,
        "knee_tasks": knee,
        "fs_bw_GBps": machine.fs_bw / (1024 * MiB),
    }
    out.series = {"rows": rows}
    out.verdicts = {
        # rises then flattens: the last step adds little
        "saturates": rates[-1] < 1.25 * rates[-2],
        # the knee is at a small task count relative to the machine
        "few_tasks_saturate": knee <= (160 if scale == "paper" else 16),
        # saturation approaches the file system's capability
        "near_fs_bw": peak > 0.5 * machine.fs_bw / (1024 * MiB),
    }
    return out


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [f"== Saturation sweep (Section V), scale={scale} =="]
    lines.append(format_table("aggregate rate vs writers", out.series["rows"]))
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
