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

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..apps.harness import SimSpec
from ..ensembles.diagnose import diagnose
from ..ensembles.locate import find_rebuild_pressure
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import fpt_write_read
from .fig_failover import (
    _SEVERITIES, _locate, _read_totals, _stall_window, _stalled,
)
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "erasure"

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


def _machine(scheme: str) -> MachineConfig:
    replicas, ec = _SCHEMES[scheme]
    return MachineConfig.resilience_testbox(
        # a fat client pipe: the degraded read's k-fold survivor haul must
        # cost wire time proportional to the code, not dominate the tail
        client_bw=800 * MiB,
        replica_count=replicas,
        **({"ec_k": ec[0], "ec_m": ec[1]} if ec else {}),
    )


def _redundant_ratio(res, payload: int) -> float:
    """Redundant bytes written (parity or extra copies) per payload byte."""
    pool = res.iosys.osts
    written = float(pool.bytes_written.sum())
    return (written - payload) / payload if payload else 0.0


def plan(scale: str = "paper", seed: int = 3) -> List[SimSpec]:
    ntasks, nrec = _params(scale)

    def spec(label, scheme, devices=None):
        bound = {} if devices is None else dict(
            needs=(f"healthy {scheme}",), bind=partial(_stalled, devices)
        )
        return SimSpec(
            "job", fpt_write_read, _machine(scheme), seed,
            cost=float(ntasks * nrec * (1 + _GROUP // _SUB)), ntasks=ntasks,
            args=("/scratch/ec", nrec, _GROUP, _SUB, _STRIPES),
            label=label, **bound,
        )

    specs = [spec(f"healthy {s}", s) for s in _SCHEMES]
    for sev, devices in _SEVERITIES.items():
        specs += [spec(f"{sev} {s}", s, devices) for s in _SCHEMES]
    return specs


def summarise(spec: SimSpec, res) -> Dict[str, Any]:
    totals = _read_totals(res)
    out: Dict[str, Any] = {
        "elapsed": res.elapsed,
        "tail": float(totals.max()),
        "median": float(np.median(totals)),
        "retries": res.meta["retries"],
        "reconstructions": res.meta["reconstructions"],
        "total_bytes": res.total_bytes,
    }
    if spec.label.startswith("healthy"):
        _, nrec, group, _, _ = spec.args
        out["stall_window"] = _stall_window(res)
        out["redundancy"] = _redundant_ratio(res, spec.ntasks * nrec * group)
        if spec.label == "healthy ec4+1":
            out["ec_findings"] = [
                f
                for f in diagnose(res.trace, nranks=spec.ntasks)
                if f.code == "ec-degraded"
            ]
    elif spec.label == "light ec4+1":
        # name the lost device from the light ec4+1 trace alone
        out["located"] = _locate(res, find_rebuild_pressure)
        sick_paths = [
            p
            for p, f in sorted(res.iosys._files.items())
            if _SICK in f.layout.bytes_per_ost(0, _GROUP)
        ]
        out["ec_findings"] = []
        if sick_paths:
            sick_file = res.iosys.lookup(sick_paths[0])
            out["ec_findings"] = [
                f
                for f in diagnose(
                    res.trace.filter(path=sick_paths[0]),
                    nranks=spec.ntasks,
                    layout=sick_file.erasure,
                )
                if f.code == "ec-degraded"
            ]
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    heavy_second = _SEVERITIES["heavy"][1]
    healthy = {s: summaries[f"healthy {s}"] for s in _SCHEMES}
    healthy_median = {s: r["median"] for s, r in healthy.items()}
    redundancy = {s: r["redundancy"] for s, r in healthy.items()}

    tails = {
        sev: {s: summaries[f"{sev} {s}"]["tail"] for s in _SCHEMES}
        for sev in _SEVERITIES
    }
    medians = {
        sev: {s: summaries[f"{sev} {s}"]["median"] for s in _SCHEMES}
        for sev in _SEVERITIES
    }
    rows: List[Dict[str, object]] = [
        {
            "run": label,
            "elapsed_s": res["elapsed"],
            "read_tail_s": res["tail"],
            "read_median_s": res["median"],
            "redundant_x": redundancy[label.split(" ", 1)[1]],
            "retries": float(res["retries"]),
            "reconstructions": float(res["reconstructions"]),
        }
        for label, res in summaries.items()
        if not label.startswith("healthy")
    ]

    light_ec = summaries["light ec4+1"]
    located = light_ec["located"]
    located_ost = max(located, key=located.get) if located else -1
    ec_findings = light_ec["ec_findings"]
    healthy_findings = healthy["ec4+1"]["ec_findings"]

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
            all(r["reconstructions"] == 0 for r in healthy.values())
            and not healthy_findings
        ),
        "bytes_conserved": bool(
            len({r["total_bytes"] for r in summaries.values()}) == 1
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


def run(scale: str = "paper", seed: int = 3) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


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
