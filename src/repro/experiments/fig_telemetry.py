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
from typing import Dict, List

import numpy as np

from ..apps.harness import SimJob
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
from .fig_failover import _stall_window
from .runner import ExperimentResult, format_table

__all__ = ["run", "main"]

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


def _shared(machine: MachineConfig, ntasks: int, nrec: int, seed: int):
    """Shared-file records striped over the whole pool, so every device
    serves a slice and per-device attribution has something to find."""
    return SimJob(machine, ntasks, seed=seed).run(
        shared_write, "/scratch/tel.dat", nrec, MiB, _N_OSTS
    )


def _fpt(machine: MachineConfig, ntasks: int, nrec: int, seed: int,
         base: str):
    """File-per-task write-then-read for the protected placements."""
    return SimJob(machine, ntasks, seed=seed).run(
        fpt_write_read, base, nrec, MiB, MiB, 4
    )


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


def _read_stall(res) -> FaultSchedule:
    """Place the stall inside this run's read phase (healthy probe run)."""
    return FaultSchedule.of(
        FaultWindow(STALL, *_stall_window(res), device=_SICK)
    )


def run(scale: str = "paper", seed: int = 7) -> ExperimentResult:
    # lazy: the runner package must stay importable without the store
    from ..store.capture import trace_digest

    ntasks, nrec = _params(scale)

    rows: List[Dict[str, object]] = []
    reports = {}
    conserved: Dict[str, bool] = {}

    def _book(name, res, report):
        reports[name] = report
        conserved[name] = _conserved(res)
        rows.append(
            {
                "scenario": name,
                "elapsed_s": res.elapsed,
                "confirmed": float(report.n_confirmed),
                "contradicted": float(report.n_contradicted),
                "retries": float(res.meta["retries"]),
                "fault_windows": float(len(res.telemetry.fault_windows)),
            }
        )
        return res

    # -- healthy control (doubles as the probe sizing the stall window) ----
    res_ok = _shared(_machine(), ntasks, nrec, seed)
    lay_ok = res_ok.iosys.lookup("/scratch/tel.dat").layout
    ok_findings = _fault_findings(diagnose(res_ok.trace, layout=lay_ok))

    # -- stall: transient-fault must name device + window -------------------
    stall = FaultSchedule.of(
        FaultWindow(
            STALL,
            0.25 * res_ok.elapsed,
            0.75 * res_ok.elapsed,
            device=_SICK,
        )
    )
    res_stall = _shared(_machine(faults=stall), ntasks, nrec, seed)
    lay_stall = res_stall.iosys.lookup("/scratch/tel.dat").layout
    stall_findings = _fault_findings(
        diagnose(res_stall.trace, layout=lay_stall)
    )
    _book(
        "stall",
        res_stall,
        verify_findings(stall_findings, res_stall.telemetry),
    )

    # -- slow: the static scan graded in both directions --------------------
    res_slow = _shared(_machine(ost_slowdown={3: 4.0}), ntasks, nrec, seed)
    lay_slow = res_slow.iosys.lookup("/scratch/tel.dat").layout
    _book(
        "slow",
        res_slow,
        verify_slow_osts(
            find_slow_osts(res_slow.trace, lay_slow), res_slow.telemetry
        ),
    )

    # -- mirror: the masked fault must still be named -----------------------
    probe = _fpt(
        _machine(replica_count=2, telemetry=False), ntasks, nrec, seed,
        "/scratch/mir",
    )
    res_mir = _fpt(
        _machine(faults=_read_stall(probe), replica_count=2),
        ntasks, nrec, seed, "/scratch/mir",
    )
    mir_findings = []
    for path, f in sorted(res_mir.iosys._files.items()):
        mir_findings.extend(
            x
            for x in diagnose(
                res_mir.trace.filter(path=path), layout=f.layout
            )
            if x.code == "failover-masked-fault"
        )
    _book(
        "mirror", res_mir, verify_findings(mir_findings, res_mir.telemetry)
    )

    # -- ec: the lost data device must be named ------------------------------
    probe = _fpt(
        _machine(ec_k=4, ec_m=1, telemetry=False), ntasks, nrec, seed,
        "/scratch/ec",
    )
    res_ec = _fpt(
        _machine(faults=_read_stall(probe), ec_k=4, ec_m=1),
        ntasks, nrec, seed, "/scratch/ec",
    )
    ec_findings = []
    for path, f in sorted(res_ec.iosys._files.items()):
        ec_findings.extend(
            x
            for x in diagnose(
                res_ec.trace.filter(path=path), layout=f.erasure
            )
            if x.code == "ec-degraded"
        )
    _book("ec", res_ec, verify_findings(ec_findings, res_ec.telemetry))

    # -- healthy control: book it last so the table reads fault-first ------
    _book(
        "healthy", res_ok, verify_findings(ok_findings, res_ok.telemetry)
    )

    # -- adversarial: right window, wrong device ----------------------------
    misattributed_caught = False
    if stall_findings:
        wrong = replace(
            stall_findings[0],
            evidence={
                **stall_findings[0].evidence,
                "device": float((_SICK + 7) % _N_OSTS),
            },
        )
        v = verify_finding(wrong, res_stall.telemetry)
        misattributed_caught = v.verdict == "CONTRADICTED"

    # -- purity: telemetry must not perturb the simulation ------------------
    res_off = _shared(
        _machine(faults=stall, telemetry=False), ntasks, nrec, seed
    )
    invariant = trace_digest(res_off.trace) == trace_digest(res_stall.trace)

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
