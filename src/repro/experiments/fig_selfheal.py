"""Self-healing control plane study: does closing the loop help?

Not a figure from the paper -- its methodology pushed one step further.
The paper's ensemble layer diagnoses faults *after* the run; the
self-healing control plane (:mod:`repro.iosys.health`) acts *during*
the run: it watches the telemetry stream, quarantines sick OSTs, steers
replicated reads and new placements around them, rebuilds affected
extents onto healthy devices under a bandwidth cap, and sheds load at
the facility door when the machine saturates.  This experiment measures
whether those reactions actually help, and grades every control action
against the injected fault schedule
(:func:`~repro.ensembles.oracle.verify_healing`).

Scenarios:

- ``correlated``    an OSS failure domain (four OSTs behind one server)
                    stalls together mid-run under a 2-way mirrored
                    shared-file write.  heal-off pays per-client
                    detection timeouts again and again (each client
                    re-probes the sick copies); heal-on quarantines the
                    domain once, globally, after the first retry burst.
                    The verdict asserts a measured improvement margin.
- ``nofault``       the same workload with no fault injected: heal-on
                    must be byte-identical to heal-off (the control
                    plane observes but never acts), pinning down that
                    healing is free when the machine is healthy.
- ``flapping``      one device fails/recovers/refails three times; the
                    monitor must ride the cycles (quarantine, rebuild,
                    probe, readmit, re-quarantine) with flap damping
                    preventing churn inside a single window.
- ``backpressure``  a metadata storm saturates a shared facility; the
                    control plane sheds load (defers a late arrival,
                    throttles the dominant tenant) and re-admits when
                    pressure drains.

Every quarantine, rebuild, readmit, and shed decision in every scenario
is graded CONFIRMED / CONTRADICTED against the injected schedule and
the server-side queue ledger; shipped scenarios must show zero
CONTRADICTED actions.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..apps.harness import SimSpec
from ..ensembles.oracle import verify_healing
from ..iosys.faults import FaultSchedule, flapping_device, oss_domain_stall
from ..iosys.machine import MachineConfig, MiB
from ..iosys.scheduler import TenantJob, shared_write
from .runner import (
    ExperimentResult, Summaries, format_table, summarise_plan,
)

__all__ = ["plan", "summarise", "reduce", "run", "main"]

EXPERIMENT = "selfheal"

#: the stalled OSS failure domain: four OSTs behind one object server
_DOMAIN = tuple(range(4, 8))
#: minimum heal-on speedup the correlated scenario must demonstrate
_MIN_IMPROVEMENT = 1.10


def _params(scale: str) -> int:
    """Per-rank record count for the striped shared-file writer."""
    if scale == "paper":
        return 150
    if scale == "small":
        return 100
    return 60


def _machine(**extra) -> MachineConfig:
    """16 OSTs, 2-way mirrored stripes, retry+failover+telemetry on --
    the substrate both arms share; only ``heal`` differs between them."""
    return MachineConfig.testbox(
        n_osts=16, fs_bw=2048 * MiB
    ).with_overrides(
        replica_count=2,
        client_retry=True,
        telemetry=True,
        **extra,
    )


def _arm(label: str, machine: MachineConfig, nrec: int, heal: bool,
         seed: int) -> SimSpec:
    """One arm: a striped shared-file writer whose primary copies land
    on OSTs 0-7 (stripe_count=8 from start 0) -- squarely on the stalled
    domain -- while the mirror lives on the healthy half (replica shift
    8)."""
    return SimSpec(
        "job", shared_write, machine.with_overrides(heal=heal), seed,
        cost=float(16 * nrec), ntasks=16,
        args=("/scratch/selfheal.dat", nrec, MiB, 8), label=label,
    )


def _slowest_rank(res) -> float:
    """Completion time of the slowest rank -- the tail the facility's
    users actually wait on."""
    trace = res.trace
    ends = {}
    for rank, t0, dur in zip(trace.ranks, trace.starts, trace.durations):
        t1 = float(t0) + float(dur)
        if t1 > ends.get(int(rank), 0.0):
            ends[int(rank)] = t1
    return max(ends.values())


def plan(scale: str = "paper", seed: int = 2) -> List[SimSpec]:
    nrec = _params(scale)
    stall = FaultSchedule.of(*oss_domain_stall(_DOMAIN, 0.2, 2.2))
    flap = FaultSchedule.of(
        *flapping_device(5, 0.2, up=0.5, down=1.5, cycles=3)
    )
    flap_machine = _machine(
        faults=flap,
        # short dwell + fast rebuild so each cycle completes between
        # windows; damping still forbids churn inside one window
        heal_quarantine_hold=0.5,
        heal_rebuild_bw=400.0 * MiB,
        heal_flap_damping=0.2,
    )
    jobs = (
        TenantJob("victim", "checkpoint", 4, params={"nfiles": 24}),
        TenantJob("storm", "mds-storm", 16, arrival=0.3,
                  params={"nfiles": 6}),
        TenantJob("late", "checkpoint", 2, arrival=0.5,
                  params={"nfiles": 4}),
    )
    return [
        # correlated OSS-domain stall: heal-off vs heal-on
        _arm("correlated/heal-off", _machine(faults=stall), nrec, False, seed),
        _arm("correlated/heal-on", _machine(faults=stall), nrec, True, seed),
        # no-fault control: healing must be free
        _arm("nofault/heal-off", _machine(), nrec, False, seed),
        _arm("nofault/heal-on", _machine(), nrec, True, seed),
        # flapping device: ride the fail/recover cycles
        _arm("flapping/heal-on", flap_machine, nrec, True, seed),
        # facility backpressure: shed, throttle, re-admit
        SimSpec(
            "facility", None,
            MachineConfig.shared_testbox(
                heal=True, heal_backpressure_depth=16
            ),
            11, cost=float(sum(j.ntasks for j in jobs)), args=jobs,
            label="backpressure/facility",
        ),
    ]


def summarise(spec: SimSpec, res) -> Dict[str, Any]:
    # lazy: the runner package must stay importable without the store
    from ..store.capture import trace_digest

    if spec.kind == "facility":
        health = res.iosys.health
        sheds = [a for a in health.actions() if a.kind == "shed"]
        return {
            "elapsed": res.elapsed,
            "counters": health.counters(),
            "report": verify_healing(health.actions(), res.telemetry),
            "readmitted": bool(sheds)
            and all(a.t_end is not None for a in sheds),
        }
    out: Dict[str, Any] = {
        "elapsed": res.elapsed,
        "slowest": _slowest_rank(res),
        "meta": dict(res.meta),
    }
    if spec.config.heal:
        actions = res.iosys.healing_actions()
        out["report"] = verify_healing(actions, res.telemetry)
        out["acted"] = bool(actions)
    if spec.label.startswith("nofault"):
        out["digest"] = trace_digest(res.trace)
    return out


def reduce(scale: str, summaries: Summaries) -> ExperimentResult:
    nrec = _params(scale)
    off = summaries["correlated/heal-off"]
    on = summaries["correlated/heal-on"]
    off_h = summaries["nofault/heal-off"]
    on_h = summaries["nofault/heal-on"]
    fl = summaries["flapping/heal-on"]
    fac = summaries["backpressure/facility"]
    reports = {
        "correlated": on["report"],
        "flapping": fl["report"],
        "backpressure": fac["report"],
    }
    improvement = off["slowest"] / on["slowest"]
    nofault_identical = (
        off_h["digest"] == on_h["digest"]
        and off_h["elapsed"] == on_h["elapsed"]  # reprolint: disable=D004 (no-fault negative control; exact identity is the contract)
    )
    nofault_silent = (
        on_h["meta"].get("heal_quarantines", 0) == 0 and not on_h["acted"]
    )
    flap_cycles = (
        fl["meta"]["heal_quarantines"] >= 2
        and fl["meta"]["heal_readmits"] == fl["meta"]["heal_quarantines"]
    )
    fc = fac["counters"]
    readmitted = fac["readmitted"]

    rows: List[Dict[str, object]] = [
        {
            "scenario": label,
            "elapsed_s": arm["elapsed"],
            "slowest_rank_s": arm["slowest"],
            "retries": float(arm["meta"]["retries"]),
            "quarantines": float(arm["meta"].get("heal_quarantines", 0)),
            "rebuild_mb": arm["meta"].get("heal_rebuild_bytes", 0)
            / float(MiB),
        }
        for label, arm in summaries.items()
        if label != "nofault/heal-off" and label != "backpressure/facility"
    ]
    rows.append(
        {
            "scenario": "backpressure/facility",
            "elapsed_s": fac["elapsed"],
            "slowest_rank_s": fac["elapsed"],
            "retries": 0.0,
            "quarantines": 0.0,
            "rebuild_mb": 0.0,
        }
    )

    total_contradicted = sum(r.n_contradicted for r in reports.values())
    total_confirmed = sum(r.n_confirmed for r in reports.values())

    out = ExperimentResult(experiment=EXPERIMENT, scale=scale)
    out.summary = {
        "healoff_slowest_s": off["slowest"],
        "healon_slowest_s": on["slowest"],
        "improvement": float(improvement),
        "quarantines": float(on["meta"]["heal_quarantines"]),
        "rebuild_mb": on["meta"]["heal_rebuild_bytes"] / float(MiB),
        "flap_cycles": float(fl["meta"]["heal_quarantines"]),
        "sheds": float(fc["heal_sheds"]),
        "throttled_ops": float(fc["heal_throttled_ops"]),
        "deferred_admissions": float(fc["heal_deferred_admissions"]),
        "actions_confirmed": float(total_confirmed),
        "actions_contradicted": float(total_contradicted),
    }
    out.series = {"rows": rows}
    out.verdicts = {
        "healing_helps": bool(improvement >= _MIN_IMPROVEMENT),
        "domain_quarantined": bool(
            on["meta"]["heal_quarantines"] == len(_DOMAIN)
            and on["meta"]["heal_readmits"] == len(_DOMAIN)
            and on["meta"]["heal_rebuilds"] == len(_DOMAIN)
        ),
        "nofault_identical": bool(nofault_identical),
        "nofault_silent": bool(nofault_silent),
        "flap_cycles_ridden": bool(flap_cycles),
        "backpressure_shed": bool(
            fc["heal_sheds"] >= 1
            and fc["heal_throttled_ops"] > 0
            and fc["heal_deferred_admissions"] >= 1
        ),
        "backpressure_readmitted": bool(readmitted),
        "all_actions_verified": bool(
            total_contradicted == 0 and total_confirmed > 0
        ),
    }
    out.notes.append(
        f"16 tasks x {nrec} MiB records on 2-way mirrored stripes; OSS "
        f"domain {list(_DOMAIN)} stalls 0.2-2.2s together.  heal-off "
        f"pays per-client detection timeouts (re-probed each "
        f"failover_probe_interval); heal-on quarantines the domain "
        f"globally after the first retry burst, rebuilds "
        f"{on['meta']['heal_rebuild_bytes'] / float(MiB):.0f} MiB under "
        f"the bandwidth cap, and readmits after the dwell -- "
        f"improvement {improvement:.2f}x with every action graded "
        f"against the injected schedule ({total_confirmed} confirmed, "
        f"{total_contradicted} contradicted)"
    )
    return out


def run(scale: str = "paper", seed: int = 2) -> ExperimentResult:
    return reduce(scale, summarise_plan(plan(scale, seed), summarise))


def main(
    scale: str = "paper", result: ExperimentResult | None = None
) -> str:
    out = result if result is not None else run(scale)
    lines = [
        f"== Self-healing control plane: detect, quarantine, rebuild, "
        f"shed, scale={scale} =="
    ]
    lines.append(format_table("scenarios", out.series["rows"]))
    lines.append(format_table("summary", [dict(out.summary)]))
    lines.append(format_table("verdicts", [dict(out.verdicts)]))
    lines.extend(out.notes)
    return "\n\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    print(main(sys.argv[1] if len(sys.argv) > 1 else "paper"))
