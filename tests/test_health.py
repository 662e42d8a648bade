"""Self-healing control plane: detector, quarantine lifecycle,
backpressure, and the healing oracle.

Four families:

- *detector units*: the failure detector needs retry evidence (latency
  alone never quarantines -- that is what keeps no-fault runs
  byte-identical), flap damping blocks immediate re-quarantine, and
  placement steers new extents off quarantined devices;
- *backpressure units*: saturation latches on queue depth, exits on the
  hysteresis threshold, and throttles only the dominant tenant (never
  the solo tenant 0);
- *lifecycle + oracle*: an injected stall produces the full
  quarantine -> rebuild -> readmit arc, every action graded CONFIRMED,
  and fabricated actions on innocent devices come back CONTRADICTED;
- *fault-schedule edge cases* (window at t=0, back-to-back windows,
  window outliving the run) plus a Hypothesis property: client retries
  + quarantine/drain/rebuild never lose or duplicate payload bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.harness import SimJob
from repro.ensembles.oracle import (
    CONFIRMED,
    CONTRADICTED,
    verify_healing,
)
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.health import (
    QUARANTINE,
    READMIT,
    REBUILD,
    SHED,
    HealAction,
    HealthMonitor,
)
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, O_SYNC, IoSystem
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams

N_OSTS = 8
RECORD = 256 * 1024
NREC = 20
NTASKS = 4


def _monitor(**overrides) -> HealthMonitor:
    """A live monitor wired to a real (idle) substrate."""
    machine = MachineConfig.testbox(n_osts=N_OSTS).with_overrides(
        telemetry=True, heal=True, **overrides
    )
    iosys = IoSystem(Engine(), machine, ntasks=4, rng=RngStreams(0))
    assert iosys.health is not None
    return iosys.health


# -- detector units ------------------------------------------------------------

def test_latency_alone_never_quarantines():
    h = _monitor()
    for _ in range(50):
        h.observe_op((0,), 10.0)  # grossly slow, but zero retries
        h.observe_op((1,), 0.001)
    assert h.quarantined_devices() == ()


def test_retry_evidence_quarantines():
    h = _monitor()
    h.on_retries((0,), 3)
    assert h.is_quarantined(0)
    kinds = [a.kind for a in h.actions()]
    assert kinds[0] == QUARANTINE
    assert h.counters()["heal_quarantines"] == 1


def test_flap_damping_blocks_requarantine():
    h = _monitor(heal_flap_damping=5.0)
    h._last_readmit[0] = h.engine.now  # just readmitted
    h.on_retries((0,), 3)
    assert not h.is_quarantined(0)  # damped
    h.on_retries((1,), 3)
    assert h.is_quarantined(1)  # other devices unaffected


def test_score_combines_retries_and_latency():
    h = _monitor(heal_score_threshold=100.0)  # observe without acting
    h.on_retries((0,), 2)
    base = h.score(0)
    assert base >= 2.0
    for _ in range(10):
        h.observe_op((0,), 1.0)
        h.observe_op((1,), 0.001)
    assert h.score(0) > base  # relative latency adds to the score
    assert h.score(1) == 0.0


def test_placement_steers_off_quarantined_devices():
    h = _monitor()
    assert h.placement_start(2, 4, N_OSTS) == 2  # identity when healthy
    h.on_retries((3,), 5)
    assert h.is_quarantined(3)
    start = h.placement_start(2, 4, N_OSTS)
    footprint = {(start + i) % N_OSTS for i in range(4)}
    assert 3 not in footprint
    # a footprint that cannot avoid the quarantine falls back unchanged
    assert h.placement_start(0, N_OSTS, N_OSTS) == 0


# -- backpressure units --------------------------------------------------------

def test_saturation_latches_and_exits_with_hysteresis():
    h = _monitor(heal_backpressure_depth=4, heal_backpressure_exit=0.5)
    for _ in range(4):
        h.on_op_begin((0,), 1)
    assert h.saturated
    assert h.counters()["heal_sheds"] == 1
    h.on_op_end((0,), 1)
    assert h.saturated  # 3 inflight: still above the exit threshold
    h.on_op_end((0,), 1)
    h.on_op_end((0,), 1)
    assert not h.saturated  # 1 inflight: below exit * depth = 2
    sheds = [a for a in h.actions() if a.kind == SHED]
    assert len(sheds) == 1
    assert sheds[0].t_end is not None
    assert sheds[0].info["peak_depth"] == 4.0


def test_throttle_targets_only_the_dominant_tenant():
    h = _monitor(heal_backpressure_depth=4)
    for _ in range(3):
        h.on_op_begin((0,), 2)  # tenant 2 dominates the RPC rate
    h.on_op_begin((0,), 1)
    assert h.saturated
    assert h.throttle_delay(0) == 0.0  # solo runs are never throttled
    assert h.throttle_delay(1) == 0.0  # minority tenant rides free
    assert h.throttle_delay(2) == h.config.heal_throttle_delay
    assert h.counters()["heal_throttled_ops"] == 1


def test_no_throttle_when_not_saturated():
    h = _monitor(heal_backpressure_depth=1000)
    for _ in range(5):
        h.on_op_begin((0,), 2)
    assert not h.saturated
    assert h.throttle_delay(2) == 0.0


# -- lifecycle + oracle --------------------------------------------------------

def _writer(ctx, path):
    # O_SYNC: every record goes to the OSTs synchronously, so the tiny
    # workload actually feels the stall (buffered writes would be
    # absorbed by the client cache and flushed after the windows close)
    flags = O_CREAT | O_RDWR | O_SYNC
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, ctx.machine.n_osts)
        fd = yield from ctx.io.open(path, flags)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, flags)
    base = ctx.rank * NREC * RECORD
    for j in range(NREC):
        yield from ctx.io.pwrite(fd, RECORD, base + j * RECORD)
    yield from ctx.io.close(fd)
    return None


def _heal_run(windows, heal=True, **overrides):
    # 128 MiB/s stretches the 20 MiB workload to ~0.16 s of simulated
    # time so the sub-second fault windows below land inside the run
    machine = MachineConfig.testbox(
        n_osts=N_OSTS, fs_bw=128 * MiB, discipline_weights={4: 1.0}
    ).with_overrides(
        faults=FaultSchedule.of(*windows) if windows else None,
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        rpc_resend_interval=2.0,
        replica_count=2,
        client_failover=True,
        telemetry=True,
        **overrides,
    )
    job = SimJob(
        machine.with_overrides(heal=heal), NTASKS, seed=7, placement="packed"
    )
    return job.run(_writer, "/scratch/heal.dat")


def test_quarantine_lifecycle_under_stall():
    res = _heal_run([FaultWindow(STALL, 0.02, 0.12, device=2)])
    assert res.total_bytes == NTASKS * NREC * RECORD
    actions = res.iosys.healing_actions()
    by_kind = {}
    for a in actions:
        by_kind.setdefault(a.kind, []).append(a)
    assert len(by_kind.get(QUARANTINE, [])) == 1
    assert len(by_kind.get(READMIT, [])) == 1
    q, r = by_kind[QUARANTINE][0], by_kind[READMIT][0]
    assert q.device == 2 and r.device == 2
    assert r.t_start >= 0.12  # readmitted only after the window closed
    assert q.t_end == r.t_start  # readmit closes the quarantine
    rebuilds = by_kind.get(REBUILD, [])
    assert rebuilds and rebuilds[0].info["bytes"] > 0
    assert res.meta["heal_rebuild_bytes"] == sum(
        a.info["bytes"] for a in rebuilds
    )
    report = verify_healing(actions, res.telemetry)
    assert report.all_confirmed
    assert report.n_contradicted == 0


def test_oracle_contradicts_fabricated_actions():
    res = _heal_run([FaultWindow(STALL, 0.02, 0.12, device=2)])
    tl = res.telemetry
    fake = [
        # quarantining an innocent device: no fault ever touched OST 5
        HealAction(QUARANTINE, 5, 0.04, 0.1, info={"score": 9.9}),
        # readmitting the sick device mid-window: it is still down
        HealAction(READMIT, 2, 0.05, 0.05),
        # shedding when nothing was saturated and no fault was near
        HealAction(SHED, None, tl.span - 1e-3, tl.span,
                   info={"depth": 1.0, "threshold": 1e9,
                         "peak_depth": 1.0}),
    ]
    report = verify_healing(fake, tl, slack=0.0)
    assert all(v.verdict == CONTRADICTED for v in report.verdicts)


def test_oracle_confirms_real_actions_only():
    res = _heal_run([FaultWindow(STALL, 0.02, 0.12, device=2)])
    real = verify_healing(res.iosys.healing_actions(), res.telemetry)
    assert real.n_confirmed == len(real.verdicts) > 0
    assert all(v.verdict == CONFIRMED for v in real.verdicts)


# -- fault-schedule edge cases (heal on) ---------------------------------------

def test_window_at_t_zero():
    res = _heal_run([FaultWindow(STALL, 0.0, 0.05, device=1)])
    assert res.total_bytes == NTASKS * NREC * RECORD
    report = verify_healing(res.iosys.healing_actions(), res.telemetry)
    assert report.n_contradicted == 0


def test_back_to_back_windows_on_one_device():
    # a short dwell ends inside the first window: the probe must see
    # the second window and keep the device out until both have passed
    res = _heal_run(
        [
            FaultWindow(STALL, 0.02, 0.06, device=2),
            FaultWindow(STALL, 0.06, 0.12, device=2),
        ],
        heal_quarantine_hold=0.01,
    )
    assert res.total_bytes == NTASKS * NREC * RECORD
    actions = res.iosys.healing_actions()
    readmits = [a for a in actions if a.kind == READMIT]
    assert readmits
    for a in readmits:
        assert a.t_start >= 0.12
    report = verify_healing(actions, res.telemetry)
    assert report.n_contradicted == 0


def test_window_outliving_the_run():
    res = _heal_run(
        [FaultWindow(STALL, 0.02, 1000.0, device=2)]
    )
    # the mirrored copies carry the job home long before the window ends
    assert res.total_bytes == NTASKS * NREC * RECORD
    assert res.elapsed < 100.0
    actions = res.iosys.healing_actions()
    assert any(a.kind == QUARANTINE and a.device == 2 for a in actions)
    report = verify_healing(actions, res.telemetry)
    assert report.n_contradicted == 0


# -- conservation under drain/rebuild (Hypothesis) -----------------------------

@given(
    stall_t0=st.floats(0.0, 0.25, allow_nan=False),
    stall_span=st.floats(0.02, 0.5, allow_nan=False),
    device=st.integers(0, N_OSTS - 1),
    seed=st.integers(0, 1000),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_healing_conserves_bytes(stall_t0, stall_span, device, seed):
    """Client retries + quarantine/drain/rebuild never lose or
    duplicate payload bytes, whatever stall Hypothesis throws at it."""
    machine = MachineConfig.testbox(
        n_osts=N_OSTS, fs_bw=128 * MiB, discipline_weights={4: 1.0}
    ).with_overrides(
        faults=FaultSchedule.of(
            FaultWindow(STALL, stall_t0, stall_t0 + stall_span,
                        device=device)
        ),
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        rpc_resend_interval=2.0,
        replica_count=2,
        client_failover=True,
        telemetry=True,
    )
    job = SimJob(
        machine.with_overrides(heal=True), NTASKS, seed=seed,
        placement="packed",
    )
    res = job.run(_writer, "/scratch/conserve.dat")
    expected = NTASKS * NREC * RECORD
    # payload conservation: the application's bytes land exactly once
    assert res.total_bytes == expected
    # physical writes: between one copy (mirror drained/skipped) and two
    # copies of every byte -- never more, however the drain interleaved
    physical = res.iosys.total_bytes_written()
    assert expected <= physical <= 2 * expected
    report = verify_healing(res.iosys.healing_actions(), res.telemetry)
    assert report.n_contradicted == 0


def test_heal_on_equals_heal_off_without_faults():
    on = _heal_run(None, heal=True)
    off = _heal_run(None, heal=False)
    assert on.elapsed == off.elapsed
    assert on.total_bytes == off.total_bytes
    assert on.iosys.healing_actions() == ()
