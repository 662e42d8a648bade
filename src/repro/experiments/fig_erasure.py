"""Erasure-coding study: k+m placement, degraded-read reconstruction,
and the redundancy bill compared to mirroring.

Not a figure from the paper -- its order-statistics argument applied to
the next design question after mirroring (``fig_failover``): *RAID-1
clips the read tail but doubles every write; can a k+m code buy the same
tail for an m/k surcharge instead of (replica_count - 1)x?*

The workload is file-per-task: group-aligned records written (so every
write covers whole stripe groups and pays exactly the (k+m)/k parity
bill, never the small-write read-old penalty), then read back in
single-stripe sub-records.  Sub-stripe reads matter twice: only tasks
whose read actually lands on the stalled device go degraded (the classic
tail shape -- the median task never sees the fault), and each
``degraded-read`` meta-event then maps through the data placement onto
exactly one device, so the rebuild-pressure analysis can name the lost
OST with no ambiguity.

A sweep over protection scheme x stall severity:

- ``light``  one OST stalls during the read phase,
- ``heavy``  two OSTs stall, half the pool apart -- which is exactly the
  2-copy placement shift, so replica_count=2 loses *both* copies of the
  affected stripes and rides the stall out.  The m=1 code is in the same
  tolerance class and can be defeated the same way (a group that holds
  one sick device's data and the other's rotated parity has lost two
  units); the m=2 codes keep rebuilding, at half the 3-way mirror's
  redundancy bill.

Verdicts assert the tentpole acceptance criteria: EC m=1 matches the
mirror's tail improvement within 10% while writing ~1/k redundant bytes
to the mirror's 1.0x; the median stays flat; the rebuild-pressure merge
and ``diagnose`` name the stalled device from the trace alone; healthy
runs reconstruct nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..apps.harness import SimJob
from ..ensembles.diagnose import diagnose
from ..ensembles.locate import find_rebuild_pressure
from ..iosys.faults import STALL, FaultSchedule, FaultWindow
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import fpt_write_read
from .fig_failover import _locate, _read_totals, _stall_window
from .runner import ExperimentResult, format_table

__all__ = ["run", "main"]

EXPERIMENT = "erasure"

_N_OSTS = 16
_STRIPES = 4
_SICK = 5
_SUB = 1 * MiB           # read-back granularity: one stripe
_GROUP = _STRIPES * _SUB  # write granularity: one full group (k=4)

#: scheme name -> (replica_count, (k, m) or None)
_SCHEMES: Dict[str, Tuple[int, Optional[Tuple[int, int]]]] = {
    "plain": (1, None),
    "mirror2": (2, None),
    "mirror3": (3, None),
    "ec4+1": (1, (4, 1)),
    "ec2+2": (1, (2, 2)),
    "ec4+2": (1, (4, 2)),
}


def _params(scale: str):
    if scale == "paper":
        return 16, 24  # ntasks, group records per task
    if scale == "small":
        return 16, 12
    return 16, 3


def _run(scheme: str, ntasks, nrec, seed, faults=None):
    replicas, ec = _SCHEMES[scheme]
    machine = MachineConfig.resilience_testbox(
        # a fat client pipe: the degraded read's k-fold survivor haul must
        # cost wire time proportional to the code, not dominate the tail
        client_bw=800 * MiB,
        replica_count=replicas,
        faults=faults,
        **({"ec_k": ec[0], "ec_m": ec[1]} if ec else {}),
    )
    job = SimJob(machine, ntasks, seed=seed)
    return job.run(
        fpt_write_read, "/scratch/ec", nrec, _GROUP, _SUB, _STRIPES
    )


def _redundant_ratio(res, payload: int) -> float:
    """Redundant bytes written (parity or extra copies) per payload byte."""
    pool = res.iosys.osts
    written = float(pool.bytes_written.sum())
    return (written - payload) / payload if payload else 0.0


def run(scale: str = "paper", seed: int = 3) -> ExperimentResult:
    ntasks, nrec = _params(scale)
    payload = ntasks * nrec * _GROUP
    heavy_second = (_SICK + _N_OSTS // 2) % _N_OSTS

    healthy = {s: _run(s, ntasks, nrec, seed) for s in _SCHEMES}
    healthy_median = {
        s: float(np.median(_read_totals(r))) for s, r in healthy.items()
    }
    redundancy = {
        s: _redundant_ratio(healthy[s], payload) for s in _SCHEMES
    }

    severities = {
        "light": (_SICK,),
        "heavy": (_SICK, heavy_second),
    }
    rows: List[Dict[str, object]] = []
    tails: Dict[str, Dict[str, float]] = {}
    medians: Dict[str, Dict[str, float]] = {}
    faulted = {}
    for sev, devices in severities.items():
        tails[sev] = {}
        medians[sev] = {}
        for s in _SCHEMES:
            w0, w1 = _stall_window(healthy[s])
            sched = FaultSchedule.of(
                *[FaultWindow(STALL, w0, w1, device=d) for d in devices]
            )
            res = _run(s, ntasks, nrec, seed, faults=sched)
            faulted[(sev, s)] = res
            totals = _read_totals(res)
            tails[sev][s] = float(totals.max())
            medians[sev][s] = float(np.median(totals))
            rows.append(
                {
                    "run": f"{sev} {s}",
                    "elapsed_s": res.elapsed,
                    "read_tail_s": tails[sev][s],
                    "read_median_s": medians[sev][s],
                    "redundant_x": redundancy[s],
                    "retries": float(res.meta["retries"]),
                    "reconstructions": float(res.meta["reconstructions"]),
                }
            )

    # name the lost device from the light ec4+1 trace alone
    light_ec = faulted[("light", "ec4+1")]
    located = _locate(light_ec, find_rebuild_pressure)
    located_ost = max(located, key=located.get) if located else -1
    sick_paths = [
        p
        for p, f in sorted(light_ec.iosys._files.items())
        if _SICK in f.layout.bytes_per_ost(0, _GROUP)
    ]
    ec_findings = []
    if sick_paths:
        sick_file = light_ec.iosys.lookup(sick_paths[0])
        ec_findings = [
            f
            for f in diagnose(
                light_ec.trace.filter(path=sick_paths[0]),
                nranks=ntasks,
                layout=sick_file.erasure,
            )
            if f.code == "ec-degraded"
        ]
    healthy_findings = [
        f
        for f in diagnose(healthy["ec4+1"].trace, nranks=ntasks)
        if f.code == "ec-degraded"
    ]

    # the headline comparison: the tail time each scheme claws back from
    # the unprotected run, and what it pays in redundant write bytes
    imp = {
        s: tails["light"]["plain"] - tails["light"][s]
        for s in ("mirror2", "ec4+1")
    }

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "injected_ost": float(_SICK),
        "located_ost": float(located_ost),
        "tail_light_plain_s": tails["light"]["plain"],
        "tail_light_mirror2_s": tails["light"]["mirror2"],
        "tail_light_ec41_s": tails["light"]["ec4+1"],
        "tail_heavy_mirror2_s": tails["heavy"]["mirror2"],
        "tail_heavy_ec41_s": tails["heavy"]["ec4+1"],
        "tail_heavy_ec42_s": tails["heavy"]["ec4+2"],
        "redundant_mirror2_x": redundancy["mirror2"],
        "redundant_ec41_x": redundancy["ec4+1"],
        "redundant_ec42_x": redundancy["ec4+2"],
        "masked_time_s": (
            ec_findings[0].evidence["masked_time"] if ec_findings else 0.0
        ),
    }
    out.series = {"rows": rows}
    # medians stay put: under a single sick device the median task never
    # touches it, and protection must not tax the tasks that never fault
    flat = all(
        medians["light"][s] <= 1.15 * medians["light"]["plain"]
        for s in _SCHEMES
    ) and all(
        abs(medians["light"][s] - healthy_median[s])
        <= 0.25 * healthy_median[s]
        for s in _SCHEMES
    )
    out.verdicts = {
        "ec_tail_clipped": bool(
            tails["light"]["ec4+1"] < 0.85 * tails["light"]["plain"]
        ),
        "ec_matches_mirror_tail": bool(
            imp["ec4+1"] >= 0.90 * imp["mirror2"]
        ),
        "ec_redundancy_cheaper": bool(
            redundancy["ec4+1"] <= 0.25 + 0.05
            and redundancy["ec4+2"] <= 0.50 + 0.05
            and redundancy["mirror2"] >= 0.95
        ),
        "ec_survives_heavy": bool(
            tails["heavy"]["ec4+2"] < 0.85 * tails["heavy"]["mirror2"]
        ),
        "median_flat": bool(flat),
        "rebuild_located": bool(located_ost == _SICK),
        "diagnosed": bool(
            ec_findings and ec_findings[0].evidence["device"] == _SICK
        ),
        "healthy_clean": bool(
            all(r.meta["reconstructions"] == 0 for r in healthy.values())
            and not healthy_findings
        ),
        "bytes_conserved": bool(
            len(
                {
                    r.total_bytes
                    for r in [*healthy.values(), *faulted.values()]
                }
            )
            == 1
        ),
    }
    out.notes.append(
        f"stall on OST {_SICK} (heavy: +OST {heavy_second}) during each "
        f"run's read phase; heavy defeats the 1-loss tolerance class "
        f"(2-way mirrors lose both copies, an m=1 code can lose a "
        f"group's data and parity at once) while m=2 codes ride through "
        f"at half the 3-way mirror's redundancy"
    )
    return out


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [
        f"== Erasure coding x stall severity: tail vs redundancy, "
        f"scale={scale} =="
    ]
    lines.append(format_table("runs", out.series["rows"]))
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    lines.extend(out.notes)
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
