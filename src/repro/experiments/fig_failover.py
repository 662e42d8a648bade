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

from typing import Dict, List

import numpy as np

from ..apps.harness import SimJob
from ..ensembles.diagnose import diagnose
from ..ensembles.locate import find_masked_faults
from ..iosys.faults import STALL, FaultSchedule, FaultWindow
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import fpt_write_read
from .runner import ExperimentResult, format_table

__all__ = ["run", "main"]

EXPERIMENT = "failover"

_N_OSTS = 16
_STRIPES = 4
_SICK = 5
_RECORD = 1 * MiB
_REPLICAS = (1, 2, 3)


def _params(scale: str):
    if scale == "paper":
        return 16, 96  # ntasks, records per task
    if scale == "small":
        return 16, 48
    return 16, 12


def _run(k, ntasks, nrec, seed, faults=None, failover=True):
    machine = MachineConfig.resilience_testbox(
        replica_count=k, client_failover=failover, faults=faults
    )
    job = SimJob(machine, ntasks, seed=seed)
    return job.run(
        fpt_write_read, "/scratch/mirror", nrec, _RECORD, _RECORD, _STRIPES
    )


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


def run(scale: str = "paper", seed: int = 3) -> ExperimentResult:
    ntasks, nrec = _params(scale)
    heavy_second = (_SICK + _N_OSTS // 2) % _N_OSTS

    healthy = {k: _run(k, ntasks, nrec, seed) for k in _REPLICAS}
    healthy_median = {
        k: float(np.median(_read_totals(r))) for k, r in healthy.items()
    }

    severities = {
        "light": (_SICK,),
        "heavy": (_SICK, heavy_second),
    }
    rows: List[Dict[str, object]] = []
    tails: Dict[str, Dict[int, float]] = {}
    medians: Dict[str, Dict[int, float]] = {}
    faulted = {}
    for sev, devices in severities.items():
        tails[sev] = {}
        medians[sev] = {}
        for k in _REPLICAS:
            w0, w1 = _stall_window(healthy[k])
            sched = FaultSchedule.of(
                *[FaultWindow(STALL, w0, w1, device=d) for d in devices]
            )
            res = _run(k, ntasks, nrec, seed, faults=sched)
            faulted[(sev, k)] = res
            totals = _read_totals(res)
            tails[sev][k] = float(totals.max())
            medians[sev][k] = float(np.median(totals))
            rows.append(
                {
                    "run": f"{sev} k={k}",
                    "elapsed_s": res.elapsed,
                    "read_tail_s": tails[sev][k],
                    "read_median_s": medians[sev][k],
                    "retries": float(res.meta["retries"]),
                    "failovers": float(res.meta["failovers"]),
                }
            )

    # the PR-1 comparator: same mirrors, same stall, but the client rides
    # the stall out against the primary instead of failing over
    w0, w1 = _stall_window(healthy[2])
    light_sched = FaultSchedule.of(FaultWindow(STALL, w0, w1, device=_SICK))
    inplace = _run(2, ntasks, nrec, seed, faults=light_sched, failover=False)
    inplace_tail = float(_read_totals(inplace).max())
    rows.append(
        {
            "run": "light k=2 ride-out",
            "elapsed_s": inplace.elapsed,
            "read_tail_s": inplace_tail,
            "read_median_s": float(np.median(_read_totals(inplace))),
            "retries": float(inplace.meta["retries"]),
            "failovers": float(inplace.meta["failovers"]),
        }
    )

    # name the sick device from the k=2 light trace alone
    light2 = faulted[("light", 2)]
    located = _locate(light2, find_masked_faults)
    located_ost = max(located, key=located.get) if located else -1
    sick_paths = [
        p
        for p, f in sorted(light2.iosys._files.items())
        if _SICK in f.layout.bytes_per_ost(0, _STRIPES * _RECORD)
    ]
    mask_findings = []
    if sick_paths:
        sick_file = light2.iosys.lookup(sick_paths[0])
        mask_findings = [
            f
            for f in diagnose(
                light2.trace.filter(path=sick_paths[0]),
                nranks=ntasks,
                layout=sick_file.layout,
            )
            if f.code == "failover-masked-fault"
        ]

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
        for sev in severities
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
            len(
                {
                    r.total_bytes
                    for r in [*healthy.values(), *faulted.values(), inplace]
                }
            )
            == 1
        ),
        "healthy_clean": bool(
            all(r.meta["failovers"] == 0 for r in healthy.values())
        ),
    }
    out.notes.append(
        f"stall on OST {_SICK} (heavy: +OST {heavy_second}) during each "
        f"run's read phase; heavy defeats 2-copy placement by design "
        f"(the second device is the 2-copy shift away)"
    )
    return out


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
