"""Replication study: mirrored placement, client-side OST failover, and
the order-statistics tail benefit.

Not a figure from the paper -- its order-statistics argument applied to
the design question the fault layer raises: *if run time is the N-th
order statistic of the per-task distribution, what does keeping a second
copy of every stripe buy when a device goes dark?*

The workload is file-per-task records written then read back, so file
placement spreads start OSTs across the pool and a single stalled device
hits only the tasks whose stripes touch it -- the classic tail scenario:
the median task never sees the fault, the unlucky few define run time.

A sweep over ``replica_count`` x stall severity:

- ``light``  one OST stalls during the read phase,
- ``heavy``  two OSTs stall -- chosen half the pool apart, which is
  exactly the 2-copy placement shift, so replica_count=2 loses *both*
  copies of the affected stripes and must ride the stall out while
  replica_count=3 still holds a surviving copy.

Verdicts assert the tentpole acceptance criteria: the per-task read tail
(max) shrinks as replica_count grows while the median stays flat;
failover strictly beats riding the stall out in place at equal
replication; and the ``failover-masked-fault`` analysis names the sick
device from the trace alone.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List, Tuple

import numpy as np

from ..apps.harness import SimSpec
from ..ensembles.diagnose import diagnose
from ..ensembles.locate import find_masked_faults
from ..iosys.faults import STALL, FaultSchedule, FaultWindow
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import fpt_write_read
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "failover"

_N_OSTS = 16
_STRIPES = 4
_SICK = 5
_RECORD = 1 * MiB
_REPLICAS = (1, 2, 3)
#: stalled devices per severity; heavy's second device is half the pool
#: away -- exactly the 2-copy placement shift
_SEVERITIES: Dict[str, Tuple[int, ...]] = {
    "light": (_SICK,),
    "heavy": (_SICK, (_SICK + _N_OSTS // 2) % _N_OSTS),
}


def _params(scale: str):
    if scale == "paper":
        return 16, 96  # ntasks, records per task
    if scale == "small":
        return 16, 48
    return 16, 12


def _read_totals(res) -> np.ndarray:
    return res.trace.filter(ops=["pread"]).per_rank_totals(res.ntasks)


def _stall_window(res):
    """Place the stall inside this run's read phase: it starts once the
    reads are under way and covers ~40% of the healthy read span."""
    reads = res.trace.filter(ops=["pread"])
    t0 = float(reads.starts.min())
    span = float(reads.ends.max()) - t0
    return t0 + 0.15 * span, t0 + 0.55 * span


def _locate(res, finder) -> Dict[int, int]:
    """Per-file attribution by ``finder`` (:func:`find_masked_faults` or
    :func:`~repro.ensembles.locate.find_rebuild_pressure`), merged over
    the namespace.

    Files are striped from different start OSTs, so each file's
    meta-events must be read through *its own* placement (the erasure
    code when the file has one, else its primary layout); the merge
    counts events per device across every file."""
    events: Dict[int, int] = {}
    for path, f in sorted(res.iosys._files.items()):
        sub = res.trace.filter(path=path)
        for m in finder(sub, f.erasure or f.layout):
            events[m.ost] = events.get(m.ost, 0) + m.n_events
    return events


def _stalled(devices: Tuple[int, ...], spec: SimSpec,
             healthy: Dict[str, Any]) -> SimSpec:
    """Stall ``devices`` over the healthy twin's read-phase window."""
    w0, w1 = healthy["stall_window"]
    sched = FaultSchedule.of(
        *[FaultWindow(STALL, w0, w1, device=d) for d in devices]
    )
    return replace(spec, config=spec.config.with_overrides(faults=sched))


def plan(scale: str = "paper", seed: int = 3) -> List[SimSpec]:
    ntasks, nrec = _params(scale)

    def spec(label, k, failover=True, devices=None):
        machine = MachineConfig.resilience_testbox(
            replica_count=k, client_failover=failover
        )
        bound = {} if devices is None else dict(
            needs=(f"healthy k={k}",), bind=partial(_stalled, devices)
        )
        return SimSpec(
            "job", fpt_write_read, machine, seed,
            cost=float(ntasks * nrec * 2), ntasks=ntasks,
            args=("/scratch/mirror", nrec, _RECORD, _RECORD, _STRIPES),
            label=label, **bound,
        )

    specs = [spec(f"healthy k={k}", k) for k in _REPLICAS]
    for sev, devices in _SEVERITIES.items():
        specs += [spec(f"{sev} k={k}", k, devices=devices) for k in _REPLICAS]
    # the PR-1 comparator: same mirrors, same stall, but the client rides
    # the stall out against the primary instead of failing over
    specs.append(
        spec("light k=2 ride-out", 2, failover=False, devices=(_SICK,))
    )
    return specs


def summarise(spec: SimSpec, res) -> Dict[str, Any]:
    totals = _read_totals(res)
    out: Dict[str, Any] = {
        "elapsed": res.elapsed,
        "tail": float(totals.max()),
        "median": float(np.median(totals)),
        "retries": res.meta["retries"],
        "failovers": res.meta["failovers"],
        "total_bytes": res.total_bytes,
    }
    if spec.label.startswith("healthy"):
        out["stall_window"] = _stall_window(res)
    elif spec.label == "light k=2":
        # name the sick device from the k=2 light trace alone
        out["located"] = _locate(res, find_masked_faults)
        sick_paths = [
            p
            for p, f in sorted(res.iosys._files.items())
            if _SICK in f.layout.bytes_per_ost(0, _STRIPES * _RECORD)
        ]
        out["mask_findings"] = []
        if sick_paths:
            sick_file = res.iosys.lookup(sick_paths[0])
            out["mask_findings"] = [
                f
                for f in diagnose(
                    res.trace.filter(path=sick_paths[0]),
                    nranks=res.ntasks,
                    layout=sick_file.layout,
                )
                if f.code == "failover-masked-fault"
            ]
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    heavy_second = _SEVERITIES["heavy"][1]
    healthy = {k: summaries[f"healthy k={k}"] for k in _REPLICAS}
    healthy_median = {k: s["median"] for k, s in healthy.items()}

    tails = {
        sev: {k: summaries[f"{sev} k={k}"]["tail"] for k in _REPLICAS}
        for sev in _SEVERITIES
    }
    medians = {
        sev: {k: summaries[f"{sev} k={k}"]["median"] for k in _REPLICAS}
        for sev in _SEVERITIES
    }
    rows: List[Dict[str, object]] = []
    for label, res in summaries.items():
        if label.startswith("healthy"):
            continue
        rows.append(
            {
                "run": label,
                "elapsed_s": res["elapsed"],
                "read_tail_s": res["tail"],
                "read_median_s": res["median"],
                "retries": float(res["retries"]),
                "failovers": float(res["failovers"]),
            }
        )
    inplace_tail = summaries["light k=2 ride-out"]["tail"]

    light2 = summaries["light k=2"]
    located = light2["located"]
    located_ost = max(located, key=located.get) if located else -1
    mask_findings = light2["mask_findings"]

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "injected_ost": float(_SICK),
        "located_ost": float(located_ost),
        "tail_light_k1_s": tails["light"][1],
        "tail_light_k2_s": tails["light"][2],
        "tail_light_k3_s": tails["light"][3],
        "tail_heavy_k2_s": tails["heavy"][2],
        "tail_heavy_k3_s": tails["heavy"][3],
        "failover_tail_speedup": (
            inplace_tail / tails["light"][2]
            if tails["light"][2] > 0
            else 0.0
        ),
        "masked_time_s": (
            mask_findings[0].evidence["masked_time"] if mask_findings else 0.0
        ),
    }
    out.series = {"rows": rows}
    # the acceptance shape: replication buys the tail without taxing the
    # median -- raising k never worsens the median task (lowering it, as
    # heavy k=3 does, is the point), and under a single sick device the
    # median task never sees the fault at all
    flat = all(
        medians[sev][k] <= 1.15 * medians[sev][1]
        for sev in _SEVERITIES
        for k in _REPLICAS
    ) and all(
        abs(medians["light"][k] - healthy_median[k])
        <= 0.25 * healthy_median[k]
        for k in _REPLICAS
    )
    out.verdicts = {
        "tail_shrinks_light": bool(
            tails["light"][2] < 0.85 * tails["light"][1]
            and tails["light"][3] < 0.85 * tails["light"][1]
        ),
        "tail_shrinks_heavy": bool(
            tails["heavy"][3] < 0.85 * tails["heavy"][2]
            and tails["heavy"][3] < 0.85 * tails["heavy"][1]
        ),
        "median_flat": bool(flat),
        "failover_beats_retry_in_place": bool(
            tails["light"][2] < inplace_tail
        ),
        "masked_fault_located": bool(located_ost == _SICK),
        "diagnosed": bool(
            mask_findings
            and mask_findings[0].evidence["device"] == _SICK
        ),
        "bytes_conserved": bool(
            len({r["total_bytes"] for r in summaries.values()}) == 1
        ),
        "healthy_clean": bool(
            all(r["failovers"] == 0 for r in healthy.values())
        ),
    }
    out.notes.append(
        f"stall on OST {_SICK} (heavy: +OST {heavy_second}) during each "
        f"run's read phase; heavy defeats 2-copy placement by design "
        f"(the second device is the 2-copy shift away)"
    )
    return out


def run(scale: str = "paper", seed: int = 3) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [
        f"== Replication x stall severity: the tail benefit, scale={scale} =="
    ]
    lines.append(format_table("runs", out.series["rows"]))
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    lines.extend(out.notes)
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
