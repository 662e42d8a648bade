"""Golden-trace regression harness.

Small fixed-seed scenarios run end-to-end through the simulator and
tracer; the canonicalised event stream is hashed and compared against the
digests committed in ``tests/golden/*.json``.  Any change to simulator
timing, event ordering, RNG draws, or trace schema shows up as a digest
mismatch here *before* it silently shifts every figure.

Floats are canonicalised with ``float.hex`` (exact, locale-free), so the
digest is byte-stable across platforms that agree on IEEE-754 doubles.

If a change is *intended* to alter simulated behaviour, regenerate with::

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the refreshed JSON together with the change that explains it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.harness import SimJob
from repro.apps.ior import IorConfig, run_ior
from repro.apps.madbench import MadbenchConfig, run_madbench
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR

GOLDEN_DIR = Path(__file__).parent / "golden"
FORMAT = 1


# -- canonicalisation ----------------------------------------------------------

def canonical_lines(trace) -> list:
    """One exact, order-preserving text line per event."""
    lines = []
    for rank, op, path, fd, offset, size, t0, dur, phase, deg in zip(
        trace.ranks, trace.ops, trace.paths, trace.fds, trace.offsets,
        trace.sizes, trace.starts, trace.durations, trace.phases,
        trace.degraded_flags,
    ):
        lines.append(
            f"{int(rank)}|{op}|{path}|{int(fd)}|{int(offset)}|{int(size)}|"
            f"{float(t0).hex()}|{float(dur).hex()}|{phase}|{int(deg)}"
        )
    return lines


def _hex_floats(obj):
    """Recursively replace floats with ``float.hex`` strings (exact,
    locale-free) so nested telemetry structures canonicalise like the
    event stream does."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex_floats(v) for v in obj]
    return obj


def telemetry_digest(timeline) -> str:
    """Canonical hash of a server-side telemetry export."""
    canon = json.dumps(_hex_floats(timeline.to_dict()), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def digest(result) -> dict:
    lines = canonical_lines(result.trace)
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    out = {
        "format": FORMAT,
        "n_events": len(lines),
        "total_bytes": int(result.total_bytes),
        "elapsed_hex": float(result.elapsed).hex(),
        "sha256": sha,
        # head/tail samples so a mismatch is debuggable from the diff alone
        "first_event": lines[0] if lines else "",
        "last_event": lines[-1] if lines else "",
    }
    if getattr(result, "telemetry", None) is not None:
        out["telemetry_sha256"] = telemetry_digest(result.telemetry)
    return out


# -- the scenarios -------------------------------------------------------------

def _scenario_ior_write():
    """IOR-style striped shared-file write, two repetitions."""
    machine = MachineConfig.testbox(n_osts=8)
    cfg = IorConfig(
        ntasks=8,
        block_size=4 * MiB,
        transfer_size=1 * MiB,
        repetitions=2,
        stripe_count=8,
        machine=machine,
        seed=11,
    )
    return run_ior(cfg)


def _scenario_madbench_read():
    """MADbench-style out-of-core matrix traffic, write then read back."""
    machine = MachineConfig.testbox(n_osts=8)
    cfg = MadbenchConfig(
        ntasks=4,
        n_matrices=3,
        matrix_bytes=2 * MiB - 51 * 1024,
        stripe_count=8,
        machine=machine,
        seed=12,
    )
    return run_madbench(cfg)


def _shared_writer(ctx, nrec, path):
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, ctx.machine.n_osts)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    base = ctx.rank * nrec * MiB
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, MiB, base + j * MiB)
    yield from ctx.io.close(fd)
    return None


def _stall_machine(**extra):
    return MachineConfig.testbox(
        n_osts=16,
        fs_bw=2048 * MiB,
        discipline_weights={4: 1.0},
        ost_slowdown={3: 4.0},
    ).with_overrides(
        faults=FaultSchedule.of(FaultWindow(STALL, 0.3, 0.9, device=5)),
        client_retry=True,
        **extra,
    )


def _scenario_slow_ost_stall():
    """Shared-file records against a statically slow OST plus a scheduled
    transient stall, with the client retry/backoff path enabled -- locks
    the fault-injection and recovery subsystem into the golden digest."""
    job = SimJob(_stall_machine(), 8, seed=13, placement="packed")
    return job.run(_shared_writer, 60, "/scratch/golden.dat")


def _scenario_telemetry_stall():
    """The identical slow-OST-plus-stall workload with server-side
    telemetry recording -- locks the per-device counter export into a
    golden digest, and (because telemetry is pure observation) its event
    stream must stay byte-identical to ``slow_ost_stall``'s, which
    ``test_telemetry_is_pure_observation`` pins."""
    job = SimJob(
        _stall_machine(telemetry=True), 8, seed=13, placement="packed"
    )
    return job.run(_shared_writer, 60, "/scratch/golden.dat")


def _scenario_telemetry_healthy():
    """The same recorded workload with no slow device and no fault: the
    negative control pinning down that a healthy pool's telemetry shows
    no retries, no degraded traffic, and an empty truth set."""
    machine = MachineConfig.testbox(
        n_osts=16,
        fs_bw=2048 * MiB,
        discipline_weights={4: 1.0},
    ).with_overrides(client_retry=True, telemetry=True)
    job = SimJob(machine, 8, seed=13, placement="packed")
    return job.run(_shared_writer, 60, "/scratch/golden.dat")


def _replica_machine(faults, **extra):
    return MachineConfig.testbox(
        n_osts=8,
        fs_bw=1024 * MiB,
        fs_read_bw=1024 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        faults=faults,
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        replica_count=2,
        failover_probe_interval=0.5,
        **extra,
    )


def _replica_worker(ctx, nrec, base):
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, MiB, j * MiB)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(nrec):
        yield from ctx.io.pread(fd, MiB, j * MiB)
    yield from ctx.io.close(fd)
    return None


def _scenario_replica_failover():
    """File-per-task records on 2-way mirrored stripes with a mid-run
    OST stall: writes skip the stalled copy (marking it stale) and reads
    steer to the surviving replica -- locks the replication subsystem's
    placement, detection timeouts, and failover meta-events into the
    golden digest."""
    machine = _replica_machine(
        FaultSchedule.of(FaultWindow(STALL, 0.10, 0.60, device=2))
    )
    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(_replica_worker, 12, "/scratch/mirror.dat")


def _scenario_replica_no_failover():
    """The mirrored workload with client failover switched off: every
    copy must be written, so a write rides out a stall of the *mirror*
    copies' device 6 (write phase), and a read rides out its primary's
    stall on device 2 (read phase) -- pins the mirrored ride-out path
    and its per-device retry attribution."""
    machine = _replica_machine(
        FaultSchedule.of(
            FaultWindow(STALL, 0.10, 0.60, device=6),
            FaultWindow(STALL, 1.00, 1.30, device=2),
        ),
        client_failover=False,
        telemetry=True,
    )
    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(_replica_worker, 12, "/scratch/mirror.dat")


def _scenario_replica_all_stalled():
    """The mirrored workload with both devices of one copy pair (2 and
    its mirror 6) stalled, once in the write phase and once in the read
    phase: no copy of those stripes answers, so writes and reads poll
    every copy with backoff until one recovers -- pins the all-copies
    poll loops and their retry attribution."""
    machine = _replica_machine(
        FaultSchedule.of(
            FaultWindow(STALL, 0.05, 0.40, device=2),
            FaultWindow(STALL, 0.05, 0.45, device=6),
            FaultWindow(STALL, 0.60, 1.20, device=2),
            FaultWindow(STALL, 0.60, 1.00, device=6),
        ),
        telemetry=True,
    )
    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(_replica_worker, 12, "/scratch/mirror.dat")


def _ec_machine(faults):
    return MachineConfig.testbox(
        n_osts=8,
        fs_bw=1024 * MiB,
        fs_read_bw=1024 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        faults=faults,
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        ec_k=4,
        ec_m=1,
        failover_probe_interval=0.5,
    )


def _ec_worker(ctx, nrec, base):
    # group-aligned 4 MiB records keep the parity bill at exactly
    # (k+m)/k; the 1 MiB read-back sub-records each touch a single
    # data device, so degraded-read events attribute unambiguously
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, 4 * MiB, j * 4 * MiB)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(nrec * 4):
        yield from ctx.io.pread(fd, MiB, j * MiB)
    yield from ctx.io.close(fd)
    return None


def _scenario_ec_degraded_read():
    """File-per-task records on 4+1 erasure-coded stripes with a mid-run
    OST stall: reads of extents on the lost device fan out to the k
    survivors and decode server-side -- locks the erasure subsystem's
    rotated parity placement, parity write amplification, detection
    timeouts, and degraded-read meta-events into the golden digest."""
    machine = _ec_machine(
        FaultSchedule.of(FaultWindow(STALL, 0.10, 0.60, device=2))
    )
    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(_ec_worker, 3, "/scratch/ecgold.dat")


def _scenario_ec_healthy():
    """The identical coded workload with no fault injected: the negative
    control pinning down that a healthy code costs only its parity bytes
    -- zero reconstructions, zero degraded-read events."""
    machine = _ec_machine(None)
    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(_ec_worker, 3, "/scratch/ecgold.dat")


def _scenario_ec_beyond_tolerance():
    """The coded workload with two data devices of every group (2 and 3)
    stalled through the read phase: a 4+1 code cannot rebuild around
    two lost units, so reads of their extents poll with backoff until
    the stall ends -- pins the past-tolerance poll and its retry
    attribution."""
    machine = _ec_machine(
        FaultSchedule.of(
            FaultWindow(STALL, 0.12, 0.35, device=2),
            FaultWindow(STALL, 0.12, 0.35, device=3),
        )
    ).with_overrides(telemetry=True)
    job = SimJob(machine, 4, seed=17, placement="packed")
    return job.run(_ec_worker, 3, "/scratch/ecgold.dat")


def _scenario_interference_mds_storm():
    """Two-tenant facility: a checkpoint-writing victim with a 16-task
    metadata storm arriving mid-run -- locks the multi-tenant scheduler's
    admission order, cross-file arbitration, and the per-tenant telemetry
    export (tenant counters, MDS attribution, job-residency ledger) into
    the golden digest."""
    from repro.iosys.scheduler import Facility, TenantJob

    machine = MachineConfig.shared_testbox()
    return Facility(
        machine,
        [
            TenantJob("victim", "checkpoint", 4, params={"nfiles": 24}),
            TenantJob("storm", "mds-storm", 16, arrival=0.3,
                      params={"nfiles": 6}),
        ],
        seed=11,
    ).run()


def _scenario_interference_healthy():
    """The same victim next to a near-idle co-tenant: the negative
    control pinning down that a quiet neighbour leaves the victim's
    stream unstormed and the per-tenant ledger nearly empty."""
    from repro.iosys.scheduler import Facility, TenantJob

    machine = MachineConfig.shared_testbox()
    return Facility(
        machine,
        [
            TenantJob("victim", "checkpoint", 4, params={"nfiles": 24}),
            TenantJob("bystander", "idle", 2, arrival=0.1),
        ],
        seed=11,
    ).run()


SCENARIOS = {
    "ior_write": _scenario_ior_write,
    "madbench_read": _scenario_madbench_read,
    "slow_ost_stall": _scenario_slow_ost_stall,
    "replica_failover": _scenario_replica_failover,
    "replica_no_failover": _scenario_replica_no_failover,
    "replica_all_stalled": _scenario_replica_all_stalled,
    "ec_degraded_read": _scenario_ec_degraded_read,
    "ec_healthy": _scenario_ec_healthy,
    "ec_beyond_tolerance": _scenario_ec_beyond_tolerance,
    "telemetry_stall": _scenario_telemetry_stall,
    "telemetry_healthy": _scenario_telemetry_healthy,
    "interference_mds_storm": _scenario_interference_mds_storm,
    "interference_healthy": _scenario_interference_healthy,
}


def regenerate() -> dict:
    """Recompute and write every golden file; returns the digests."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    out = {}
    for name, fn in SCENARIOS.items():
        d = digest(fn())
        (GOLDEN_DIR / f"{name}.json").write_text(
            json.dumps(d, indent=2, sort_keys=True) + "\n"
        )
        out[name] = d
    return out


# -- the regression tests ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name):
    golden_path = GOLDEN_DIR / f"{name}.json"
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; run "
        f"PYTHONPATH=src python tests/golden/regenerate.py and commit it"
    )
    golden = json.loads(golden_path.read_text())
    got = digest(SCENARIOS[name]())
    assert got == golden, (
        f"{name}: simulated behaviour changed.  If intended, regenerate "
        f"the goldens and commit them with the change."
    )


def test_ec_scenarios_bracket_the_fault():
    """The degraded scenario must actually reconstruct and the healthy
    control must not -- guards against both goldens drifting into
    digests of the wrong behaviour."""
    degraded = SCENARIOS["ec_degraded_read"]()
    healthy = SCENARIOS["ec_healthy"]()
    assert degraded.meta["reconstructions"] > 0
    assert len(degraded.trace.filter(ops=["degraded-read"])) > 0
    assert healthy.meta["reconstructions"] == 0
    assert len(healthy.trace.filter(ops=["degraded-read"])) == 0


def _stuck_times(result, region):
    """How long each op of ``region`` was stuck behind a stall (the
    duration of its ``retry`` meta-event)."""
    sub = result.trace.filter(ops=["retry"])
    return [float(d) for d, ph in zip(sub.durations, sub.phases) if ph == region]


def _poll_floor(cfg, rounds):
    """A stuck time only polling exceeds: ``rounds`` detection timeouts,
    the replay trip and the lock re-enqueue on the new device.  An op
    that some copy, or ``k`` survivors, could serve pays at most
    ``rounds - 1`` detection rounds, a whole timeout below the floor."""
    return (
        sum(cfg.retry_wait(i) for i in range(rounds))
        + cfg.stall_replay_latency
        + cfg.failover_latency
    )


def test_recovery_scenarios_reach_their_branch():
    """Each recovery golden must exercise the path it is named for,
    so none of them can drift into a digest of the common path."""
    cfg = _replica_machine(None)

    # failover off: mirrored writes and reads ride the stall out -- they
    # retry, yet never steer and never leave a copy stale
    no_fo = SCENARIOS["replica_no_failover"]()
    assert no_fo.meta["failovers"] == 0
    assert len(no_fo.trace.filter(ops=["failover"])) == 0
    assert _stuck_times(no_fo, "write") and _stuck_times(no_fo, "read")
    totals = no_fo.telemetry.device_totals()
    assert totals["stale_bytes"].sum() == 0
    assert totals["retries"][6] > 0 and totals["retries"][2] > 0

    # every copy stalled: a steer times out once per stalled copy it
    # tries before one answers; ops stuck longer polled every copy
    every = SCENARIOS["replica_all_stalled"]()
    floor = _poll_floor(cfg, cfg.replica_count)
    assert max(_stuck_times(every, "write")) > floor
    assert max(_stuck_times(every, "read")) > floor
    assert every.meta["failovers"] > 0

    # two lost units of a 4+1 group: within tolerance one shared
    # detection round starts the rebuild; reads stuck longer polled
    beyond = SCENARIOS["ec_beyond_tolerance"]()
    assert max(_stuck_times(beyond, "read")) > _poll_floor(_ec_machine(None), 2)
    assert beyond.meta["reconstructions"] > 0
    btotals = beyond.telemetry.device_totals()
    assert btotals["retries"][2] > 0 and btotals["retries"][3] > 0


def test_telemetry_is_pure_observation():
    """Recording server-side telemetry must not perturb the simulation:
    the recorded run's event stream is byte-identical to the same
    scenario with telemetry off."""
    base = digest(SCENARIOS["slow_ost_stall"]())
    tel = digest(SCENARIOS["telemetry_stall"]())
    for key in ("sha256", "n_events", "total_bytes", "elapsed_hex"):
        assert tel[key] == base[key], key


def test_telemetry_scenarios_bracket_the_fault():
    """The recorded stall scenario must show the injected truth on the
    right device and the healthy control must show none -- guards
    against both telemetry goldens drifting into digests of the wrong
    counters."""
    stall = SCENARIOS["telemetry_stall"]()
    tl = stall.telemetry
    assert tl is not None
    totals = tl.device_totals()
    assert totals["retries"][5] > 0
    assert totals["retries"].sum() == totals["retries"][5]
    assert tl.faulted_devices(0.0, tl.span) == (5,)
    assert tl.slow_devices() == (3,)

    healthy = SCENARIOS["telemetry_healthy"]()
    htl = healthy.telemetry
    assert htl is not None
    assert htl.is_healthy
    htot = htl.device_totals()
    for field in ("retries", "degraded_bytes", "recon_bytes",
                  "stale_bytes", "parity_bytes"):
        assert htot[field].sum() == 0, field
    assert htot["bytes_in"].sum() > 0


def test_healing_preserves_healthy_golden():
    """Running the self-healing control plane on a healthy pool must
    not perturb the simulation: with no faults the monitor observes but
    never acts, so the heal-on run is byte-identical to the committed
    ``telemetry_healthy`` golden (pinning the escape hatch: heal-on is
    free until something is actually sick)."""
    machine = MachineConfig.testbox(
        n_osts=16,
        fs_bw=2048 * MiB,
        discipline_weights={4: 1.0},
    ).with_overrides(client_retry=True, telemetry=True)
    job = SimJob(
        machine.with_overrides(heal=True), 8, seed=13, placement="packed"
    )
    got = digest(job.run(_shared_writer, 60, "/scratch/golden.dat"))
    golden = json.loads(
        (GOLDEN_DIR / "telemetry_healthy.json").read_text()
    )
    for key in ("sha256", "n_events", "total_bytes", "elapsed_hex",
                "telemetry_sha256"):
        assert got[key] == golden[key], key
    assert job.iosys.healing_actions() == ()


def test_back_to_back_runs_are_byte_identical():
    """Two fresh runs of the same scenario in one process must produce
    byte-identical canonical streams (no hidden global state)."""
    name = "slow_ost_stall"
    a = digest(SCENARIOS[name]())
    b = digest(SCENARIOS[name]())
    assert a == b
