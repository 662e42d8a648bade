"""Fault-injection study: transient OST stall, client recovery, and
device localisation.

Not a figure from the paper -- an extension of its methodology to the
operational question the ensemble view makes tractable: *when storage
health changes mid-run, can the trace name the device and the window,
and does client-side retry contain the damage?*

Three runs of the same seeded shared-file record workload:

- ``healthy``     no faults (baseline; negative control),
- ``stall``       one OST drops requests for a scheduled window, clients
                  use the stock 60 s RPC resend interval,
- ``stall+retry`` same schedule, clients retry with exponential backoff.

The verdicts assert the tentpole acceptance criteria: the analysis
recovers the injected device and window from the trace alone, retry
strictly reduces the slowest-task completion, and the healthy run stays
clean.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Tuple

from ..apps.harness import AppResult, SimSpec
from ..ensembles.diagnose import diagnose
from ..ensembles.locate import find_transient_faults
from ..iosys.faults import STALL, FaultSchedule, FaultWindow
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import shared_write
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "faults"

_SICK_OST = 5
_RECORD = 1 * MiB


def _params(scale: str):
    if scale == "paper":
        return 32, 300  # ntasks, records per task
    if scale == "small":
        return 16, 150
    return 8, 60


def _machine() -> MachineConfig:
    return MachineConfig.testbox(
        n_osts=16, fs_bw=2048 * MiB, discipline_weights={4: 1.0}
    )


def _stall_window(healthy: Dict[str, Any]) -> Tuple[float, float]:
    """The stall starts once the job is well under way and lasts about a
    quarter of the healthy wallclock."""
    return 0.15 * healthy["elapsed"], 0.40 * healthy["elapsed"]


def _with_stall(spec: SimSpec, healthy: Dict[str, Any]) -> SimSpec:
    t0, t1 = _stall_window(healthy)
    sched = FaultSchedule.of(FaultWindow(STALL, t0, t1, device=_SICK_OST))
    return replace(spec, config=spec.config.with_overrides(faults=sched))


def plan(scale: str = "paper", seed: int = 2) -> List[SimSpec]:
    ntasks, nrec = _params(scale)
    machine = _machine()

    def spec(label, machine, path, **bound):
        return SimSpec(
            "job", shared_write, machine, seed, cost=float(ntasks * nrec),
            ntasks=ntasks, args=(path, nrec, _RECORD, machine.n_osts),
            label=label, **bound,
        )

    stalled = dict(needs=("healthy",), bind=_with_stall)
    return [
        spec("healthy", machine, "/scratch/h.dat"),
        spec("stall", machine.with_overrides(client_retry=False),
             "/scratch/s.dat", **stalled),
        spec("stall+retry", machine.with_overrides(client_retry=True),
             "/scratch/r.dat", **stalled),
    ]


def summarise(spec: SimSpec, res: AppResult) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "elapsed": res.elapsed,
        "retries": res.meta["retries"],
        "total_bytes": res.total_bytes,
    }
    if spec.label != "stall":
        layout = res.iosys.lookup(spec.args[0]).layout
        out["transient"] = [
            f
            for f in diagnose(res.trace, nranks=spec.ntasks, layout=layout)
            if f.code == "transient-fault"
        ]
        if spec.label == "stall+retry":
            out["suspects"] = find_transient_faults(res.trace, layout)
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    healthy = summaries["healthy"]
    stalled = summaries["stall"]
    retried = summaries["stall+retry"]
    t0, t1 = _stall_window(healthy)

    suspects = retried["suspects"]
    top = suspects[0] if suspects else None
    fault_findings = retried["transient"]
    healthy_findings = healthy["transient"]

    rows: List[Dict[str, object]] = [
        {
            "run": label,
            "elapsed_s": s["elapsed"],
            "retries": float(s["retries"]),
        }
        for label, s in summaries.items()
    ]

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "injected_ost": float(_SICK_OST),
        "injected_t0_s": t0,
        "injected_t1_s": t1,
        "located_ost": float(top.ost) if top else -1.0,
        "located_t0_s": top.t_start if top else -1.0,
        "located_t1_s": top.t_end if top else -1.0,
        "retry_speedup": (
            stalled["elapsed"] / retried["elapsed"]
            if retried["elapsed"] > 0 else 0.0
        ),
    }
    out.series = {"rows": rows}
    out.verdicts = {
        "fault_located": bool(
            top is not None and top.ost == _SICK_OST and len(suspects) == 1
        ),
        "window_matches": bool(
            top is not None and top.t_start < t1 and top.t_end > t0
        ),
        "diagnosed": bool(
            fault_findings
            and fault_findings[0].evidence["device"] == _SICK_OST
        ),
        "retry_wins": retried["elapsed"] < stalled["elapsed"],
        "healthy_clean": not healthy_findings,
        "bytes_conserved": (
            healthy["total_bytes"]
            == stalled["total_bytes"]
            == retried["total_bytes"]
        ),
    }
    out.notes.append(
        f"stall on OST {_SICK_OST} over [{t0:.2f}s, {t1:.2f}s); "
        f"retry policy: exponential backoff vs stock 60 s resend"
    )
    return out


def run(scale: str = "paper", seed: int = 2) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [f"== Transient-fault injection + recovery, scale={scale} =="]
    lines.append(format_table("runs", out.series["rows"]))
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    lines.extend(out.notes)
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
