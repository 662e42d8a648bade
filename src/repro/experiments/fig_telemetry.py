"""Telemetry oracle study: grading client-side diagnosis against server
truth.

Not a figure from the paper -- it is the paper's *claim* put on trial.
The ensemble methodology asserts that client-side event statistics alone
can name a server-side culprit (the slow OST, the stalled device).  With
``MachineConfig.telemetry`` on, the simulated storage system exports what
a real site's server-side monitoring would record -- per-OST counters
plus the literal fault schedule -- and the oracle
(:mod:`repro.ensembles.oracle`) scores every client verdict against it.

Four fault scenarios and a healthy control, each diagnosed purely from
the client trace and then cross-checked:

- ``stall``    a transient full-OST stall with client retry/backoff;
               the ``transient-fault`` finding must name device and
               window the server actually stalled.
- ``slow``     a static slowdown (degraded RAID rebuild); the slow-OST
               ensemble scan must indict exactly the server's slow set.
- ``mirror``   a stall behind 2-way mirrors with failover; the
               ``failover-masked-fault`` finding must name the device
               the clients steered around.
- ``ec``       a stall behind a 4+1 code; the ``ec-degraded`` finding
               must name the lost data device.
- ``healthy``  no injected fault; any fault-kind finding would be
               contradicted by the (empty) truth.

Two adversarial checks close the loop: a deliberately mis-attributed
finding (right window, wrong device) must come back CONTRADICTED, and
the telemetry layer itself must be *pure observation* -- the stall
scenario's canonical event stream is byte-identical with telemetry on
and off, and per-OST telemetry byte sums must equal the pool's own
accounting on every run.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, List

import numpy as np

from ..apps.harness import SimSpec
from ..ensembles.diagnose import diagnose
from ..ensembles.locate import find_slow_osts
from ..ensembles.oracle import (
    verify_finding,
    verify_findings,
    verify_slow_osts,
)
from ..iosys.faults import STALL, FaultSchedule, FaultWindow
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import fpt_write_read, shared_write
from .fig_failover import _stall_window, _stalled
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "telemetry"

_N_OSTS = 16
_SICK = 5


def _params(scale: str):
    if scale == "paper":
        return 8, 60  # ntasks, records per task
    if scale == "small":
        return 8, 40
    return 8, 16


def _machine(**overrides) -> MachineConfig:
    overrides.setdefault("telemetry", True)
    return MachineConfig.resilience_testbox(**overrides)


def _conserved(res) -> bool:
    """Telemetry per-OST sums must equal the pool's own accounting."""
    tl = res.telemetry
    if tl is None:
        return False
    pool = res.iosys.osts
    tot = tl.device_totals()
    return (
        bool(np.allclose(tot["bytes_in"], pool.bytes_written))
        and bool(np.allclose(tot["bytes_out"], pool.bytes_read))
        and bool(np.allclose(tot["rpcs"], pool.rpcs))
    )


def _fault_findings(findings):
    return [
        f
        for f in findings
        if f.code in ("transient-fault", "failover-masked-fault",
                      "ec-degraded")
    ]


def _stall_at(spec: SimSpec, healthy: Dict[str, Any]) -> SimSpec:
    """Stall the sick device over the middle half of the healthy run."""
    stall = FaultSchedule.of(
        FaultWindow(
            STALL,
            0.25 * healthy["elapsed"],
            0.75 * healthy["elapsed"],
            device=_SICK,
        )
    )
    return replace(spec, config=spec.config.with_overrides(faults=stall))


def plan(scale: str = "paper", seed: int = 7) -> List[SimSpec]:
    ntasks, nrec = _params(scale)

    def shared(label, machine, **bound):
        """Shared-file records striped over the whole pool, so every
        device serves a slice and per-device attribution has something
        to find."""
        return SimSpec(
            "job", shared_write, machine, seed, cost=float(ntasks * nrec),
            ntasks=ntasks, args=("/scratch/tel.dat", nrec, MiB, _N_OSTS),
            label=label, **bound,
        )

    def fpt(label, machine, base, **bound):
        """File-per-task write-then-read for the protected placements."""
        return SimSpec(
            "job", fpt_write_read, machine, seed,
            cost=float(2 * ntasks * nrec), ntasks=ntasks,
            args=(base, nrec, MiB, MiB, 4), label=label, **bound,
        )

    after_healthy = dict(needs=("healthy",), bind=_stall_at)
    return [
        # the healthy control doubles as the probe sizing the stall window
        shared("healthy", _machine()),
        shared("stall", _machine(), **after_healthy),
        shared("slow", _machine(ost_slowdown={3: 4.0})),
        fpt("mirror probe", _machine(replica_count=2, telemetry=False),
            "/scratch/mir"),
        fpt("mirror", _machine(replica_count=2), "/scratch/mir",
            needs=("mirror probe",), bind=partial(_stalled, (_SICK,))),
        fpt("ec probe", _machine(ec_k=4, ec_m=1, telemetry=False),
            "/scratch/ec"),
        fpt("ec", _machine(ec_k=4, ec_m=1), "/scratch/ec",
            needs=("ec probe",), bind=partial(_stalled, (_SICK,))),
        # purity: the stall again with telemetry off
        shared("stall, telemetry off", _machine(telemetry=False),
               **after_healthy),
    ]


def _per_file_findings(res, code: str) -> list:
    """``code`` findings, each file diagnosed through its own placement
    (the erasure code when the file has one, else its primary layout)."""
    found = []
    for path, f in sorted(res.iosys._files.items()):
        found.extend(
            x
            for x in diagnose(
                res.trace.filter(path=path), layout=f.erasure or f.layout
            )
            if x.code == code
        )
    return found


def summarise(spec: SimSpec, res) -> Dict[str, Any]:
    # lazy: the runner package must stay importable without the store
    from ..store.capture import trace_digest

    label = spec.label
    if label.endswith("probe"):
        return {"stall_window": _stall_window(res)}
    if label == "stall, telemetry off":
        return {"digest": trace_digest(res.trace)}
    out: Dict[str, Any] = {
        "elapsed": res.elapsed,
        "retries": res.meta["retries"],
        "fault_windows": len(res.telemetry.fault_windows),
        "conserved": _conserved(res),
    }
    if label == "slow":
        # the static scan, graded in both directions
        layout = res.iosys.lookup("/scratch/tel.dat").layout
        out["report"] = verify_slow_osts(
            find_slow_osts(res.trace, layout), res.telemetry
        )
        return out
    if label == "mirror":
        findings = _per_file_findings(res, "failover-masked-fault")
    elif label == "ec":
        findings = _per_file_findings(res, "ec-degraded")
    else:
        layout = res.iosys.lookup("/scratch/tel.dat").layout
        findings = _fault_findings(diagnose(res.trace, layout=layout))
    out["findings"] = findings
    out["report"] = verify_findings(findings, res.telemetry)
    if label == "stall":
        out["digest"] = trace_digest(res.trace)
        # adversarial: right window, wrong device
        out["misattributed_caught"] = False
        if findings:
            wrong = replace(
                findings[0],
                evidence={
                    **findings[0].evidence,
                    "device": float((_SICK + 7) % _N_OSTS),
                },
            )
            v = verify_finding(wrong, res.telemetry)
            out["misattributed_caught"] = v.verdict == "CONTRADICTED"
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    # the table reads fault-first: the healthy control is booked last
    booked = ("stall", "slow", "mirror", "ec", "healthy")
    reports = {name: summaries[name]["report"] for name in booked}
    rows: List[Dict[str, object]] = [
        {
            "scenario": name,
            "elapsed_s": summaries[name]["elapsed"],
            "confirmed": float(reports[name].n_confirmed),
            "contradicted": float(reports[name].n_contradicted),
            "retries": float(summaries[name]["retries"]),
            "fault_windows": float(summaries[name]["fault_windows"]),
        }
        for name in booked
    ]
    conserved = {name: summaries[name]["conserved"] for name in booked}
    ok_findings = summaries["healthy"]["findings"]
    stall_findings = summaries["stall"]["findings"]
    mir_findings = summaries["mirror"]["findings"]
    ec_findings = summaries["ec"]["findings"]
    misattributed_caught = summaries["stall"]["misattributed_caught"]
    invariant = (
        summaries["stall, telemetry off"]["digest"]
        == summaries["stall"]["digest"]
    )

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "injected_ost": float(_SICK),
        "stall_confirmed": float(reports["stall"].n_confirmed),
        "slow_confirmed": float(reports["slow"].n_confirmed),
        "mirror_confirmed": float(reports["mirror"].n_confirmed),
        "ec_confirmed": float(reports["ec"].n_confirmed),
        "healthy_findings": float(len(ok_findings)),
        "total_contradictions": float(
            sum(r.n_contradicted for r in reports.values())
        ),
    }
    out.series = {"rows": rows}
    out.verdicts = {
        "stall_oracle_confirmed": bool(
            stall_findings and reports["stall"].all_confirmed
        ),
        "slow_oracle_confirmed": reports["slow"].all_confirmed,
        "mirror_oracle_confirmed": bool(
            mir_findings and reports["mirror"].all_confirmed
        ),
        "ec_oracle_confirmed": bool(
            ec_findings and reports["ec"].all_confirmed
        ),
        "healthy_clean": bool(not ok_findings),
        "misattribution_contradicted": bool(misattributed_caught),
        "telemetry_pure": bool(invariant),
        "bytes_conserved": bool(all(conserved.values())),
    }
    out.notes.append(
        f"stall on OST {_SICK}; every client verdict cross-checked "
        f"against the server's exported fault schedule, a deliberately "
        f"mis-attributed finding is flagged, and the stall trace is "
        f"byte-identical with telemetry on and off"
    )
    return out


def run(scale: str = "paper", seed: int = 7) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [
        f"== Telemetry oracle: client diagnosis vs server truth, "
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
