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
from typing import Dict, List

import numpy as np

from ..apps.harness import SimJob
from ..ensembles.diagnose import find_interference
from ..ensembles.oracle import CONTRADICTED, verify_interference
from ..iosys.machine import MachineConfig
from ..iosys.scheduler import WORKLOADS, Facility, TenantJob
from ..iosys.telemetry import TENANT_OST_FIELDS
from .runner import ExperimentResult, format_table

__all__ = ["run", "main"]

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


def run(scale: str = "paper", seed: int = 11) -> ExperimentResult:
    # lazy: the runner package must stay importable without the store
    from ..store.capture import trace_digest

    nfiles = _params(scale)
    machine = MachineConfig.shared_testbox()

    rows: List[Dict[str, object]] = []
    reports = {}
    conserved: Dict[str, bool] = {}
    aggressors: Dict[str, float] = {}

    def _scenario(name, co_jobs, aggressor_name=None):
        jobs = [_victim(nfiles)] + list(co_jobs)
        res = Facility(machine, jobs, seed=seed).run()
        vic = res.job("victim")
        findings = find_interference(vic.trace, res.telemetry, vic.tenant)
        report = verify_interference(findings, res.telemetry)
        reports[name] = report
        conserved[name] = _conserved(res)
        if aggressor_name is not None and findings:
            want = res.job(aggressor_name).tenant
            aggressors[name] = float(
                all(f.evidence["aggressor"] == want for f in findings)
            )
        rows.append(
            {
                "scenario": name,
                "victim_elapsed_s": vic.elapsed,
                "makespan_s": res.elapsed,
                "findings": float(len(findings)),
                "confirmed": float(report.n_confirmed),
                "contradicted": float(report.n_contradicted),
            }
        )
        return res, findings

    # -- victim alone: baseline + the single-tenant reduction ---------------
    res_alone = Facility(machine, [_victim(nfiles)], seed=seed).run()
    t_alone = res_alone.job("victim").elapsed
    solo = SimJob(machine, _VICTIM_TASKS, seed=seed).run(
        WORKLOADS["checkpoint"], nfiles, directory="/scratch/victim"
    )
    solo_identical = trace_digest(res_alone.trace) == trace_digest(solo.trace)
    rows.append(
        {
            "scenario": "alone",
            "victim_elapsed_s": t_alone,
            "makespan_s": res_alone.elapsed,
            "findings": 0.0,
            "confirmed": 0.0,
            "contradicted": 0.0,
        }
    )

    # -- the two aggressor scenarios (innocent bystander riding along) ------
    res_storm, storm_findings = _scenario(
        "mds_storm", [_STORM, _IDLE], aggressor_name="storm"
    )
    res_hog, hog_findings = _scenario(
        "bw_hog", [_HOG, _IDLE], aggressor_name="hog"
    )

    # -- negative control ---------------------------------------------------
    _scenario("healthy", [_IDLE])

    # -- adversarial: re-point a confirmed attribution ----------------------
    misattributed_caught = False
    if storm_findings:
        f0 = storm_findings[0]
        bystander = float(res_storm.job("bystander").tenant)
        wrong = replace(f0, evidence={**f0.evidence, "aggressor": bystander})
        ghost = replace(f0, evidence={**f0.evidence, "aggressor": 99.0})
        verdicts = verify_interference(
            [wrong, ghost], res_storm.telemetry
        ).verdicts
        misattributed_caught = all(
            v.verdict == CONTRADICTED for v in verdicts
        )

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
