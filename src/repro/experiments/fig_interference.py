"""Cross-job interference study: naming the noisy neighbour.

Not a figure from the paper -- its methodology pushed one step further.
The paper diagnoses a job against *itself* (its own ensembles); on a
shared facility the dominant anomaly is other people.  This experiment
admits a checkpoint-writing victim onto a shared machine next to
different co-tenants and asks the ensemble layer to attribute the
victim's slow intervals to the tenant actually causing them
(:func:`~repro.ensembles.diagnose.find_interference`), then grades every
attribution against the facility's server-side per-tenant ledger
(:func:`~repro.ensembles.oracle.verify_interference`).

Scenarios (victim identical in each, co-tenant varies):

- ``alone``      the victim by itself -- the baseline makespan, and the
                 single-tenant reduction: this run must be byte-identical
                 to the solo :class:`~repro.apps.harness.SimJob` harness.
- ``mds_storm``  a 16-task metadata aggressor arrives mid-run; the
                 victim's namespace ops stall and the finding must accuse
                 the storm ("your slowdown is tenant B's metadata storm").
- ``bw_hog``     an 8-task full-stripe streaming aggressor arrives
                 mid-run; the victim's per-byte times stall and the
                 finding must accuse the hog on the contended device.
- ``healthy``    a near-idle co-tenant -- the negative control: any
                 interference finding here would be a false accusation.

Adversarial checks close the loop: re-pointing a confirmed attribution
at an innocent bystander tenant, or at a tenant that never ran, must
come back CONTRADICTED by the ledger.  Accounting is conserved: on every
bucket the tenant-attributed counters sum to the untagged per-OST
totals, so attribution never invents or loses traffic.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List

import numpy as np

from ..apps.harness import SimSpec
from ..ensembles.diagnose import find_interference
from ..ensembles.oracle import CONTRADICTED, verify_interference
from ..iosys.machine import MachineConfig
from ..iosys.scheduler import WORKLOADS, TenantJob
from ..iosys.telemetry import TENANT_OST_FIELDS
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "interference"

_VICTIM_TASKS = 4
_STORM = TenantJob("storm", "mds-storm", 16, arrival=0.3,
                   params={"nfiles": 6})
_HOG = TenantJob("hog", "bandwidth-hog", 8, arrival=0.3,
                 params={"nrec": 4, "rec_mib": 2.0})
_IDLE = TenantJob("bystander", "idle", 2, arrival=0.1)


def _params(scale: str) -> int:
    """Victim checkpoint count; the aggressors stay fixed so the storm
    and hog windows stay well inside the victim's run at every scale."""
    if scale == "paper":
        return 48
    if scale == "small":
        return 36
    return 24


def _victim(nfiles: int) -> TenantJob:
    return TenantJob("victim", "checkpoint", _VICTIM_TASKS,
                     params={"nfiles": nfiles})


def _conserved(res) -> bool:
    """Tenant-attributed counters must sum to the untagged per-OST and
    MDS totals on every bucket -- attribution is a partition, not an
    estimate."""
    tl = res.telemetry
    if tl is None or not tl.tenants:
        return False
    for name in TENANT_OST_FIELDS:
        if name == "queue_depth":
            continue  # per-tenant maxima, not a partition
        summed = sum(fields[name] for fields in tl.tenant_ost.values())
        if not np.allclose(summed, tl.ost[name]):
            return False
    summed = sum(tl.tenant_mds.values())
    return bool(np.allclose(summed, tl.mds["mds_ops"]))


#: co-tenants per scenario, and the tenant each one must accuse
_SCENARIOS = {
    "mds_storm": ((_STORM, _IDLE), "storm"),
    "bw_hog": ((_HOG, _IDLE), "hog"),
    # negative control: any finding here is a false accusation
    "healthy": ((_IDLE,), None),
}


def plan(scale: str = "paper", seed: int = 11) -> List[SimSpec]:
    nfiles = _params(scale)
    machine = MachineConfig.shared_testbox()
    victim = _victim(nfiles)
    cost = float(_VICTIM_TASKS * nfiles)

    def facility(label, co_jobs=()):
        return SimSpec(
            "facility", None, machine, seed,
            cost=cost + sum(j.ntasks for j in co_jobs),
            args=(victim, *co_jobs), label=label,
        )

    return [
        # the victim alone: the baseline makespan, and the single-tenant
        # reduction checked against the solo harness
        facility("alone"),
        SimSpec(
            "job", WORKLOADS["checkpoint"], machine, seed, cost=cost,
            ntasks=_VICTIM_TASKS, args=(nfiles,),
            kwargs=(("directory", "/scratch/victim"),), label="solo",
        ),
        *(facility(name, co) for name, (co, _) in _SCENARIOS.items()),
    ]


def summarise(spec: SimSpec, res) -> Dict[str, Any]:
    # lazy: the runner package must stay importable without the store
    from ..store.capture import trace_digest

    if spec.label in ("alone", "solo"):
        out: Dict[str, Any] = {"digest": trace_digest(res.trace)}
        if spec.label == "alone":
            out["victim_elapsed_s"] = res.job("victim").elapsed
            out["makespan_s"] = res.elapsed
        return out
    vic = res.job("victim")
    findings = find_interference(vic.trace, res.telemetry, vic.tenant)
    report = verify_interference(findings, res.telemetry)
    out = {
        "victim_elapsed_s": vic.elapsed,
        "makespan_s": res.elapsed,
        "findings": findings,
        "report": report,
        "conserved": _conserved(res),
    }
    aggressor_name = _SCENARIOS[spec.label][1]
    if aggressor_name is not None and findings:
        want = res.job(aggressor_name).tenant
        out["aggressor_named"] = float(
            all(f.evidence["aggressor"] == want for f in findings)
        )
    if spec.label == "mds_storm":
        # adversarial: re-point a confirmed attribution at the innocent
        # bystander and at a tenant that never ran
        out["misattributed_caught"] = False
        if findings:
            f0 = findings[0]
            bystander = float(res.job("bystander").tenant)
            wrong = replace(
                f0, evidence={**f0.evidence, "aggressor": bystander}
            )
            ghost = replace(f0, evidence={**f0.evidence, "aggressor": 99.0})
            verdicts = verify_interference(
                [wrong, ghost], res.telemetry
            ).verdicts
            out["misattributed_caught"] = all(
                v.verdict == CONTRADICTED for v in verdicts
            )
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    nfiles = _params(scale)
    machine = MachineConfig.shared_testbox()
    alone = summaries["alone"]
    t_alone = alone["victim_elapsed_s"]
    solo_identical = alone["digest"] == summaries["solo"]["digest"]
    rows: List[Dict[str, object]] = [
        {
            "scenario": "alone",
            "victim_elapsed_s": t_alone,
            "makespan_s": alone["makespan_s"],
            "findings": 0.0,
            "confirmed": 0.0,
            "contradicted": 0.0,
        }
    ]
    reports = {}
    for name in _SCENARIOS:
        s = summaries[name]
        reports[name] = s["report"]
        rows.append(
            {
                "scenario": name,
                "victim_elapsed_s": s["victim_elapsed_s"],
                "makespan_s": s["makespan_s"],
                "findings": float(len(s["findings"])),
                "confirmed": float(s["report"].n_confirmed),
                "contradicted": float(s["report"].n_contradicted),
            }
        )
    conserved = {name: summaries[name]["conserved"] for name in _SCENARIOS}
    aggressors = {
        name: summaries[name]["aggressor_named"]
        for name in _SCENARIOS
        if "aggressor_named" in summaries[name]
    }
    storm_findings = summaries["mds_storm"]["findings"]
    hog_findings = summaries["bw_hog"]["findings"]
    misattributed_caught = summaries["mds_storm"]["misattributed_caught"]

    storm_slow = rows[1]["victim_elapsed_s"] / t_alone
    hog_slow = rows[2]["victim_elapsed_s"] / t_alone

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "victim_alone_s": t_alone,
        "storm_slowdown": float(storm_slow),
        "hog_slowdown": float(hog_slow),
        "storm_confirmed": float(reports["mds_storm"].n_confirmed),
        "hog_confirmed": float(reports["bw_hog"].n_confirmed),
        "healthy_findings": float(rows[3]["findings"]),
        "total_contradictions": float(
            sum(r.n_contradicted for r in reports.values())
        ),
    }
    out.series = {"rows": rows}
    out.verdicts = {
        "victim_slowed": bool(storm_slow > 1.05 and hog_slow > 1.05),
        "storm_attributed": bool(
            storm_findings
            and reports["mds_storm"].all_confirmed
            and aggressors.get("mds_storm") == 1.0
        ),
        "hog_attributed": bool(
            hog_findings
            and reports["bw_hog"].all_confirmed
            and aggressors.get("bw_hog") == 1.0
        ),
        "healthy_clean": bool(rows[3]["findings"] == 0.0),
        "misattribution_contradicted": bool(misattributed_caught),
        "tenant_conservation": bool(
            conserved and all(conserved.values())
        ),
        "solo_identical": bool(solo_identical),
    }
    out.notes.append(
        f"victim {_VICTIM_TASKS} tasks x {nfiles} checkpoints on "
        f"{machine.name}; the storm and hog arrive at t=0.3s, and every "
        f"attribution is graded against the per-tenant server ledger "
        f"(residency + dominance); re-pointing an attribution at the "
        f"bystander or at a tenant that never ran is CONTRADICTED"
    )
    return out


def run(scale: str = "paper", seed: int = 11) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [
        f"== Cross-job interference: victim vs noisy neighbours, "
        f"scale={scale} =="
    ]
    lines.append(format_table("scenarios", out.series["rows"]))
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    lines.extend(out.notes)
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
