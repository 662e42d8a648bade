"""Figure 2: the Law-of-Large-Numbers IOR experiments.

"Three probability density functions ... for three IOR experiments in
which the 512 MB is sent to the file system in k = 2, 4, and 8 successive
write() calls (using 256, 128, 64 MB respectively) -- with no barrier
until all 512 MB has been written. ... the distributions become
progressively narrower and more Gaussian."

Reported data rates in the paper: k=1: 11,610 MB/s; k=2: 12,016 (+3%);
k=4: 13,446; k=8: 13,486 MB/s (+16%) -- "the worse case behavior improves
as k increases because the distributions are getting narrower.  That in
turn is a consequence of the Law of Large Numbers."

Besides measuring, this experiment *predicts*: from the k=1 single-write
ensemble, :mod:`repro.ensembles.lln` forecasts the spread of t_k and the
expected worst case, which the measured k=2/4/8 ensembles are checked
against.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..apps.harness import AppResult, SimSpec
from ..apps.ior import IorConfig, run_ior
from ..ensembles.distribution import EmpiricalDistribution
from ..ensembles.lln import narrowing_report, predict_sum
from ..iosys.machine import MachineConfig, MiB
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = [
    "configure", "ior_spec", "plan", "summarise", "reduce", "run", "main",
]

EXPERIMENT = "fig2_lln"
KS = (1, 2, 4, 8)


def configure(scale: str = "paper", k: int = 1) -> IorConfig:
    if scale == "paper":
        ntasks, block = 1024, 512 * MiB
    elif scale == "small":
        ntasks, block = 256, 128 * MiB
    else:
        ntasks, block = 64, 64 * MiB
    # weak-scale the file system with the job so per-node shares (and
    # therefore the harmonic mode structure) match the paper-scale runs
    machine = MachineConfig.franklin()
    if ntasks != 1024:
        factor = ntasks / 1024.0
        machine = machine.with_overrides(
            fs_bw=machine.fs_bw * factor,
            fs_read_bw=machine.fs_read_bw * factor,
            # keep the absorbed fraction of a block constant too
            dirty_quota=machine.dirty_quota * block / (512 * MiB),
        )
    return IorConfig(
        ntasks=ntasks,
        block_size=block,
        transfer_size=block // k,
        repetitions=5,
        stripe_count=48,
        machine=machine,
    )


def ior_spec(cfg: IorConfig, seed: int, label: str) -> SimSpec:
    """One IOR run as a spec; its cost hint is tasks x transfers."""
    transfers = cfg.repetitions * (cfg.block_size // cfg.transfer_size)
    return SimSpec(
        "app", run_ior, cfg, seed, cost=float(cfg.ntasks * transfers),
        label=label,
    )


def plan(scale: str = "paper", seed: int = 0) -> List[SimSpec]:
    return [ior_spec(configure(scale, k), seed, f"k={k}") for k in KS]


def summarise(spec: SimSpec, res: AppResult) -> Dict[str, Any]:
    cfg = spec.config
    writes = res.trace.writes()
    return {
        # the t_k ensemble: summed write time per task per repetition
        "totals": writes.per_rank_totals(cfg.ntasks) / cfg.repetitions,
        "data_rate": res.meta["data_rate"],
    }


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    ensembles: Dict[int, EmpiricalDistribution] = {}
    rates: Dict[int, float] = {}
    for k in KS:
        ensembles[k] = EmpiricalDistribution(summaries[f"k={k}"]["totals"])
        rates[k] = summaries[f"k={k}"]["data_rate"]

    rows = narrowing_report(ensembles)
    for row in rows:
        row["rate_MBps"] = rates[int(row["k"])] / MiB

    # prediction from the k=1 ensemble of *single-write* durations: the sum
    # of k iid draws of (single transfer at 1/k size ~ duration/k)
    single = ensembles[1]
    predictions = {
        k: predict_sum(
            EmpiricalDistribution(single.samples / k), k
        )
        for k in KS
    }

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        f"rate_k{k}_MBps": rates[k] / MiB for k in KS
    }
    out.summary["speedup_k8_vs_k1_pct"] = 100.0 * (rates[8] / rates[1] - 1.0)
    out.summary["cv_k1"] = ensembles[1].moments().cv
    out.summary["cv_k8"] = ensembles[8].moments().cv
    out.series = {
        "rows": rows,
        "ensembles": ensembles,
        "predictions": predictions,
    }
    cvs = [ensembles[k].moments().cv for k in KS]
    gauss = [ensembles[k].gaussianity() for k in KS]
    worst = [ensembles[k].moments().max for k in KS]
    out.verdicts = {
        # narrower with k (strictly from k=1 to k=8, monotone trend)
        "narrower_with_k": cvs[-1] < 0.5 * cvs[0]
        and all(cvs[i + 1] <= cvs[i] * 1.15 for i in range(len(cvs) - 1)),
        # more Gaussian with k (score improves from k=1 to k=8)
        "more_gaussian_with_k": gauss[-1] >= gauss[0],
        # worst case improves -> reported rate improves
        "worst_case_improves": worst[-1] < worst[0],
        "rate_improves": rates[8] > rates[1],
        # the 1/sqrt(k) LLN prediction tracks the measured narrowing
        "lln_prediction_tracks": abs(
            cvs[-1] / cvs[0] - np.sqrt(1.0 / 8.0)
        )
        < 0.25,
    }
    return out


def run(scale: str = "paper", seed: int = 0) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [f"== Figure 2 (Law of Large Numbers), scale={scale} =="]
    lines.append(
        format_table(
            "t_k ensembles (measured)",
            out.series["rows"],
            columns=[
                "k",
                "mean",
                "std",
                "cv",
                "cv_rel",
                "cv_rel_lln",
                "gaussianity",
                "worst",
                "rate_MBps",
            ],
        )
    )
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
