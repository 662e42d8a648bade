"""Command-line interface.

    python -m repro run-ior      [--ntasks N] [--block MB] [--transfer MB]
                                 [--reps R] [--stripes S] [--machine NAME]
                                 [--seed K] [--save TRACE] [--analyze]
    python -m repro run-madbench [--ntasks N] [--matrix MB] [--machine NAME] ...
    python -m repro run-gcrm     [--ntasks N] [--io-tasks N] [--align]
                                 [--meta-agg] ...
    python -m repro run-facility --tenants NAME=WORKLOAD:NTASKS[@ARRIVAL]
                                 [--tenants ...] [--arrival SPEC]
                                 [--victim NAME] [--machine NAME] ...
    python -m repro analyze      TRACE [--nranks N]
    python -m repro experiments  [paper|small|tiny] [fig1 ...]
                                 [--workers N] [--save DIR] [--store DB]
    python -m repro sweep        (the same command as experiments)
    python -m repro store        ingest|report|regressions|query ...

``run-*`` commands simulate a workload, print the IPM report, and can
persist the trace (``--save run.npz``) for later ``analyze``, or append
one :class:`~repro.store.RunRecord` (config fingerprint, trace digest,
timings, telemetry summary) to the persistent run store
(``--store runstore.sqlite``) for fleet-scale analysis with
``repro store report`` / ``repro store regressions``.

Every ``run-*`` command accepts ``--fault SPEC`` (repeatable) to inject
time-windowed storage faults, ``--retry`` to enable the client's RPC
retry/backoff path, ``--replicate K`` to mirror every stripe on K
distinct OSTs with client-side failover, or ``--erasure K+M`` to protect
every group of K data stripes with M parity units (mutually exclusive
with ``--replicate``).  Specs::

    degrade:OST:T0:T1:FACTOR   OST serves FACTORx slower in [T0, T1)
    stall:OST:T0:T1            OST drops requests in [T0, T1)
    mds:T0:T1:FACTOR           metadata ops FACTORx slower in [T0, T1)
    burst:T0:T1:FACTOR         heavy-tail probability boosted in [T0, T1)

``run-facility`` admits a mix of tenant jobs onto one shared machine.
``--arrival`` overrides the per-job ``@ARRIVAL`` offsets with a synthetic
arrival process::

    poisson:RATE               deterministic-seed Poisson, RATE jobs/s
    burst:SIZE:GAP             back-to-back trains of SIZE jobs, GAP s apart
    trace:T0,T1,...            explicit admission times (one per job)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .apps.gcrm import GcrmConfig, run_gcrm
from .apps.ior import IorConfig, run_ior
from .apps.madbench import MadbenchConfig, run_madbench
from .ensembles.analysis import analyze, format_analysis
from .ipm.report import build_report, format_report
from .ipm.storage import load_trace, save_trace
from .iosys.faults import FaultSchedule
from .iosys.machine import MachineConfig, MiB

__all__ = ["main"]

_MACHINES = {
    "franklin": MachineConfig.franklin,
    "franklin-patched": MachineConfig.franklin_patched,
    "jaguar": MachineConfig.jaguar,
    "testbox": MachineConfig.testbox,
    "shared-testbox": MachineConfig.shared_testbox,
}


def _machine(name: str, args=None) -> MachineConfig:
    try:
        machine = _MACHINES[name]()
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from {', '.join(_MACHINES)}"
        )
    if args is None:
        return machine
    overrides = {}
    if getattr(args, "fault", None):
        try:
            sched = FaultSchedule.from_specs(args.fault)
            sched.validate_devices(machine.n_osts)
            sched.check_device_overlaps()
            overrides["faults"] = sched
        except ValueError as exc:
            raise SystemExit(f"bad --fault spec: {exc}")
    if getattr(args, "retry", False):
        overrides["client_retry"] = True
    if getattr(args, "telemetry", False):
        overrides["telemetry"] = True
    if getattr(args, "heal", False):
        overrides["heal"] = True
        # healing watches the telemetry stream; --heal implies --telemetry
        overrides.setdefault("telemetry", True)
    if getattr(args, "sanitize", False):
        overrides["sanitize"] = True
    replicate = getattr(args, "replicate", None)
    erasure = getattr(args, "erasure", None)
    if replicate is not None and erasure is not None:
        raise SystemExit(
            "--replicate and --erasure are mutually exclusive: a file is "
            "either mirrored or erasure-coded, never both"
        )
    if replicate is not None:
        if not 1 <= replicate <= machine.n_osts:
            raise SystemExit(
                f"bad --replicate count: {replicate} not in "
                f"[1, {machine.n_osts}] (machine has {machine.n_osts} OSTs; "
                f"every copy needs its own device)"
            )
        overrides["replica_count"] = replicate
    if erasure is not None:
        k, m = _parse_erasure(erasure)
        if k + m > machine.n_osts:
            raise SystemExit(
                f"bad --erasure code: {k}+{m} needs {k + m} distinct OSTs "
                f"but the machine has {machine.n_osts} (every unit of a "
                f"stripe group needs its own device)"
            )
        overrides["ec_k"], overrides["ec_m"] = k, m
    return machine.with_overrides(**overrides) if overrides else machine


def _parse_erasure(spec: str) -> "tuple[int, int]":
    """Parse an ``--erasure K+M`` spec (e.g. ``4+2``) into ``(k, m)``."""
    k_s, sep, m_s = spec.partition("+")
    try:
        if not sep:
            raise ValueError
        k, m = int(k_s), int(m_s)
    except ValueError:
        raise SystemExit(
            f"bad --erasure spec {spec!r}: expected K+M (e.g. 4+2)"
        )
    if k < 1 or m < 1:
        raise SystemExit(
            f"bad --erasure spec {spec!r}: K and M must both be >= 1"
        )
    return k, m


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", default="franklin", help="machine preset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", metavar="TRACE",
                   help="persist the trace (.npz or .jsonl)")
    p.add_argument("--analyze", action="store_true",
                   help="print the full ensemble analysis")
    p.add_argument("--fault", action="append", metavar="SPEC",
                   help="inject a fault window (repeatable); see spec "
                        "grammar in the module help")
    p.add_argument("--retry", action="store_true",
                   help="enable client RPC retry/backoff under stalls")
    p.add_argument("--telemetry", action="store_true",
                   help="record server-side per-OST telemetry during the "
                        "run and print its summary (ground truth for the "
                        "ensemble diagnosis oracle)")
    p.add_argument("--heal", action="store_true",
                   help="run the self-healing control plane: quarantine "
                        "sick OSTs, rebuild their extents onto healthy "
                        "devices, and shed load under saturation "
                        "(implies --telemetry; every control action is "
                        "graded against the injected fault schedule)")
    p.add_argument("--sanitize", action="store_true",
                   help="run the engine's sim-race sanitizer: fail the run "
                        "if any same-timestamp event ordering is decided "
                        "only by heap insertion sequence, or if telemetry "
                        "is written after export")
    p.add_argument("--replicate", type=int, metavar="K",
                   help="mirror every stripe on K distinct OSTs; the "
                        "client fails reads over to a surviving copy "
                        "when the primary stalls")
    p.add_argument("--erasure", metavar="K+M",
                   help="erasure-code every group of K data stripes with "
                        "M parity units on distinct OSTs; reads behind a "
                        "stalled device are rebuilt from the group's "
                        "survivors (mutually exclusive with --replicate)")
    p.add_argument("--store", metavar="DB",
                   help="append this run's record (config fingerprint, "
                        "trace digest, timings) to the persistent run "
                        "store at DB")


def _run_app(runner, cfg, args):
    """Run one workload; measure host wall time when it will be stored.

    The timing brackets the whole simulation but is read only in the
    driver layer -- nothing inside the simulation ever sees it.
    """
    if not getattr(args, "store", None):
        return runner(cfg), None
    from .store.clock import host_seconds

    t_host0 = host_seconds()
    result = runner(cfg)
    return result, host_seconds() - t_host0


def _store_run(result, args, name: str, *, machine=None, wall_time=None,
               findings=(), oracle=None) -> None:
    """Persist one frozen result when ``--store`` was given.

    Runs strictly after the simulation completed: recording is pure
    observation and cannot perturb the trace the goldens pin.
    """
    if not getattr(args, "store", None):
        return
    from .store import RunStore, record_from_app_result
    from .store.clock import utc_stamp

    record = record_from_app_result(
        result,
        name=name,
        kind="run",
        seed=getattr(args, "seed", None),
        machine=machine,
        wall_time=wall_time,
        created_at=utc_stamp(),
        findings=findings,
        oracle=oracle,
    )
    with RunStore(args.store) as store:
        fresh = store.put(record)
    status = "stored" if fresh else "already stored"
    print(f"\nrun {status}: {record.run_id[:12]} -> {args.store}")


def _healing_summary(result):
    """Print the self-healing control plane's counters and actions and
    grade every action against the run's telemetry; returns the oracle
    report (None when healing was off or never acted)."""
    health = getattr(getattr(result, "iosys", None), "health", None)
    if health is None:
        return None
    print()
    print("self-healing: " + "  ".join(
        f"{k[len('heal_'):]}={int(v)}" for k, v in health.counters().items()
    ))
    actions = health.actions()
    if not actions or result.telemetry is None:
        return None
    from .ensembles.oracle import verify_healing

    for act in actions:
        print(f"  {act}")
    report = verify_healing(actions, result.telemetry)
    print(report.format())
    return report


def _finish(result, ntasks: int, args):
    print(format_report(build_report(result.trace, ntasks, result.elapsed)))
    print(f"\nsimulated job time: {result.elapsed:.1f} s")
    if getattr(result, "telemetry", None) is not None:
        print()
        print(result.telemetry.format_summary())
    heal_report = _healing_summary(result)
    if args.analyze:
        print()
        print(format_analysis(analyze(result.trace, nranks=ntasks)))
    if args.save:
        save_trace(result.trace, args.save)
        print(f"\ntrace saved to {args.save} ({len(result.trace)} events)")
    return heal_report


def _cmd_run_ior(args) -> int:
    machine = _machine(args.machine, args)
    cfg = IorConfig(
        ntasks=args.ntasks,
        block_size=args.block * MiB,
        transfer_size=args.transfer * MiB,
        repetitions=args.reps,
        stripe_count=min(args.stripes, machine.n_osts),
        access=args.access,
        read_back=args.read_back,
        machine=machine,
        seed=args.seed,
    )
    result, wall = _run_app(run_ior, cfg, args)
    heal_report = _finish(result, cfg.ntasks, args)
    print(f"IOR data rate: {result.meta['data_rate'] / MiB:.0f} MB/s "
          f"(fair share {cfg.fair_share_rate / MiB:.1f} MB/s per task)")
    _store_run(result, args, "ior", wall_time=wall, oracle=heal_report)
    return 0


def _cmd_run_madbench(args) -> int:
    machine = _machine(args.machine, args)
    cfg = MadbenchConfig(
        ntasks=args.ntasks,
        n_matrices=args.matrices,
        matrix_bytes=args.matrix * MiB - 517 * 1024,
        stripe_count=min(args.stripes, machine.n_osts),
        file_per_task=args.unique,
        machine=machine,
        seed=args.seed,
    )
    result, wall = _run_app(run_madbench, cfg, args)
    heal_report = _finish(result, cfg.ntasks, args)
    print(f"degraded reads: {result.meta['degraded_reads']}")
    _store_run(result, args, "madbench", wall_time=wall, oracle=heal_report)
    return 0


def _cmd_run_gcrm(args) -> int:
    machine = _machine(args.machine, args)
    cfg = GcrmConfig(
        ntasks=args.ntasks,
        io_tasks=args.io_tasks,
        alignment=(1 * MiB if args.align else None),
        metadata_aggregation=args.meta_agg,
        stripe_count=min(args.stripes, machine.n_osts),
        machine=machine,
        seed=args.seed,
    )
    result, wall = _run_app(run_gcrm, cfg, args)
    heal_report = _finish(result, result.ntasks, args)
    print(f"sustained write rate: "
          f"{result.meta['sustained_rate'] / (1024 * MiB):.2f} GB/s")
    _store_run(result, args, "gcrm", wall_time=wall, oracle=heal_report)
    return 0


def _cmd_run_facility(args) -> int:
    from .ensembles.diagnose import find_interference
    from .ensembles.oracle import verify_interference
    from .iosys.scheduler import (
        Facility,
        assign_arrivals,
        parse_arrival_spec,
        parse_tenant_spec,
    )

    machine = _machine(args.machine, args)
    try:
        jobs = [parse_tenant_spec(s) for s in args.tenants]
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.arrival is not None:
        try:
            process = parse_arrival_spec(args.arrival)
            jobs = list(assign_arrivals(jobs, process))
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.victim is not None and args.victim not in {j.name for j in jobs}:
        raise SystemExit(
            f"bad --victim: no tenant named {args.victim!r} in --tenants"
        )
    try:
        facility = Facility(machine, jobs, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(f"bad facility: {exc}")
    result, wall = _run_app(lambda _cfg: facility.run(), None, args)

    print(f"facility: {len(jobs)} jobs, makespan {result.elapsed:.1f} s")
    for jr in result.jobs:
        print(
            f"  tenant {jr.tenant} {jr.name:12s} {jr.workload:16s} "
            f"{jr.ntasks:4d} tasks  [{jr.t_start:6.1f}s, {jr.t_end:6.1f}s]  "
            f"{jr.trace.total_bytes / MiB:8.1f} MiB"
        )
    if result.telemetry is not None:
        print()
        print(result.telemetry.format_summary())
    heal_report = _healing_summary(result)
    findings = []
    report = None
    if len(jobs) >= 2 and result.telemetry is not None:
        victims = (
            [result.job(args.victim)] if args.victim else result.jobs
        )
        for jr in victims:
            findings.extend(
                find_interference(jr.trace, result.telemetry, jr.tenant)
            )
        print()
        if findings:
            for f in findings:
                print(f)
            print()
            report = verify_interference(findings, result.telemetry)
            print(report.format())
        else:
            print("no cross-tenant interference detected")
    if args.analyze:
        print()
        print(format_analysis(analyze(result.trace, nranks=None)))
    if args.save:
        save_trace(result.trace, args.save)
        print(f"\ntrace saved to {args.save} ({len(result.trace)} events)")
    _store_run(
        result, args, "facility", machine=machine, wall_time=wall,
        findings=findings, oracle=report if report is not None else heal_report,
    )
    return 0


def _cmd_analyze(args) -> int:
    trace = load_trace(args.trace)
    print(format_analysis(analyze(trace, nranks=args.nranks)))
    return 0


def _cmd_experiments(args) -> int:
    from .sweep.__main__ import main as experiments_main

    return experiments_main(args.args)


def _cmd_store(args) -> int:
    from .store.__main__ import main as store_main

    return store_main(args.args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-ior", help="simulate the IOR benchmark")
    p.add_argument("--ntasks", type=int, default=256)
    p.add_argument("--block", type=int, default=128, help="MB per task")
    p.add_argument("--transfer", type=int, default=128, help="MB per call")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--stripes", type=int, default=48)
    p.add_argument("--access", choices=("sequential", "random"),
                   default="sequential")
    p.add_argument("--read-back", action="store_true")
    _add_common(p)
    p.set_defaults(fn=_cmd_run_ior)

    p = sub.add_parser("run-madbench", help="simulate the MADbench kernel")
    p.add_argument("--ntasks", type=int, default=64)
    p.add_argument("--matrices", type=int, default=8)
    p.add_argument("--matrix", type=int, default=64, help="MB per matrix")
    p.add_argument("--stripes", type=int, default=16)
    p.add_argument("--unique", action="store_true",
                   help="one file per task (UNIQUE mode)")
    _add_common(p)
    p.set_defaults(fn=_cmd_run_madbench)

    p = sub.add_parser("run-gcrm", help="simulate the GCRM I/O kernel")
    p.add_argument("--ntasks", type=int, default=1024)
    p.add_argument("--io-tasks", type=int, default=None)
    p.add_argument("--align", action="store_true")
    p.add_argument("--meta-agg", action="store_true")
    p.add_argument("--stripes", type=int, default=48)
    _add_common(p)
    p.set_defaults(fn=_cmd_run_gcrm)

    p = sub.add_parser(
        "run-facility",
        help="admit a mix of tenant jobs onto one shared machine",
    )
    p.add_argument(
        "--tenants", action="append", metavar="SPEC", required=True,
        help="one tenant job as NAME=WORKLOAD:NTASKS[@ARRIVAL] "
             "(repeatable; e.g. vic=checkpoint:4@0)")
    p.add_argument(
        "--arrival", metavar="SPEC", default=None,
        help="override per-job arrivals with a synthetic process: "
             "poisson:RATE, burst:SIZE:GAP, or trace:T0,T1,...")
    p.add_argument(
        "--victim", metavar="NAME", default=None,
        help="diagnose cross-tenant interference for this job only "
             "(default: every job)")
    _add_common(p)
    p.set_defaults(fn=_cmd_run_facility)

    p = sub.add_parser("analyze", help="analyse a saved trace")
    p.add_argument("trace")
    p.add_argument("--nranks", type=int, default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "experiments", aliases=["sweep"],
        help="run the paper's experiments, their simulations spread over "
             "worker processes",
    )
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser(
        "store",
        help="run-store verbs: ingest | report | regressions | query",
    )
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(fn=_cmd_store)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
