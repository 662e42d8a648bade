"""Unit and integration tests for time-varying fault injection and the
client retry/recovery path (the tentpole acceptance criteria live here:
injected stall -> transient-fault finding naming the device and window,
and retry strictly beating the stock resend interval on the same seed).
"""

from __future__ import annotations

import pytest

from repro.apps.harness import SimJob
from repro.ensembles.diagnose import diagnose
from repro.ensembles.locate import find_transient_faults
from repro.iosys.faults import (
    DEGRADE,
    MDS_HICCUP,
    STALL,
    TAIL_BURST,
    FaultSchedule,
    FaultWindow,
)
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR

SICK = 5
NOSTS = 16
RECORD = 1 * MiB


# -- FaultWindow validation ----------------------------------------------------

def test_window_basics():
    w = FaultWindow(DEGRADE, 1.0, 3.0, device=2, factor=4.0)
    assert w.duration == 2.0
    assert w.active_at(1.0) and w.active_at(2.9)
    assert not w.active_at(3.0) and not w.active_at(0.5)
    assert w.overlaps(FaultWindow(STALL, 2.5, 4.0, device=2))
    assert not w.overlaps(FaultWindow(STALL, 3.0, 4.0, device=2))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="melt", t_start=0, t_end=1),
        dict(kind=DEGRADE, t_start=2.0, t_end=1.0, device=0),
        dict(kind=DEGRADE, t_start=-1.0, t_end=1.0, device=0),
        dict(kind=DEGRADE, t_start=0.0, t_end=1.0, device=0, factor=0.5),
        dict(kind=DEGRADE, t_start=0.0, t_end=1.0, device=0,
             factor=float("nan")),
        dict(kind=DEGRADE, t_start=0.0, t_end=1.0, device=0,
             factor=float("inf")),
        dict(kind=DEGRADE, t_start=0.0, t_end=1.0),  # device required
        dict(kind=STALL, t_start=0.0, t_end=1.0),
        dict(kind=MDS_HICCUP, t_start=0.0, t_end=1.0, device=3),  # forbidden
    ],
)
def test_window_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        FaultWindow(**kwargs)


# -- FaultSchedule construction and queries ------------------------------------

def test_schedule_canonical_order_and_overlap_rejection():
    a = FaultWindow(DEGRADE, 5.0, 6.0, device=1, factor=2.0)
    b = FaultWindow(DEGRADE, 1.0, 2.0, device=1, factor=3.0)
    sched = FaultSchedule.of(a, b)
    assert sched.windows == (b, a)  # sorted by t_start
    with pytest.raises(ValueError):
        FaultSchedule.of(
            FaultWindow(DEGRADE, 0.0, 2.0, device=1),
            FaultWindow(DEGRADE, 1.0, 3.0, device=1),
        )
    # same times are fine on another device or another kind
    FaultSchedule.of(
        FaultWindow(DEGRADE, 0.0, 2.0, device=1),
        FaultWindow(DEGRADE, 1.0, 3.0, device=2),
        FaultWindow(STALL, 1.0, 3.0, device=1),
    )


def test_schedule_queries():
    sched = FaultSchedule.of(
        FaultWindow(DEGRADE, 1.0, 2.0, device=0, factor=3.0),
        FaultWindow(DEGRADE, 1.0, 4.0, device=1, factor=6.0),
        FaultWindow(STALL, 2.0, 5.0, device=2),
        FaultWindow(MDS_HICCUP, 0.0, 1.0, factor=8.0),
        FaultWindow(TAIL_BURST, 3.0, 4.0, factor=10.0),
    )
    assert len(sched) == 5 and not sched.is_empty
    # worst active degrade over the touched devices
    assert sched.degrade_factor(1.5, [0]) == 3.0
    assert sched.degrade_factor(1.5, [0, 1]) == 6.0
    assert sched.degrade_factor(2.5, [0]) == 1.0  # window over
    assert sched.degrade_factor(1.5, [3]) == 1.0
    assert sched.stall_end(3.0, [2]) == 5.0
    assert sched.stall_end(3.0, [0, 1]) is None
    assert sched.stall_end(5.0, [2]) is None  # half-open interval
    assert sched.mds_factor(0.5) == 8.0 and sched.mds_factor(1.5) == 1.0
    assert sched.tail_boost(3.5) == 10.0 and sched.tail_boost(2.0) == 1.0
    assert sched.span() == (0.0, 5.0)
    assert len(sched.for_device(1)) == 1
    sched.validate_devices(3)
    with pytest.raises(ValueError):
        sched.validate_devices(2)  # stall on device 2 out of range


def test_from_specs_round_trip_and_errors():
    sched = FaultSchedule.from_specs(
        ["degrade:5:10:60:6", "stall:3:10:25", "mds:0:5:8", "burst:30:60:16"]
    )
    kinds = [w.kind for w in sched.windows]
    assert sorted(kinds) == sorted([DEGRADE, STALL, MDS_HICCUP, TAIL_BURST])
    stall = next(w for w in sched.windows if w.kind == STALL)
    assert (stall.device, stall.t_start, stall.t_end) == (3, 10.0, 25.0)
    for bad in ["melt:1:2", "degrade:1:2", "stall:x:0:1", "degrade:0:5:1:6"]:
        with pytest.raises(ValueError):
            FaultSchedule.from_specs([bad])


# -- MachineConfig integration -------------------------------------------------

def test_machine_validates_schedule_and_retry_params():
    sched = FaultSchedule.of(FaultWindow(STALL, 0.0, 1.0, device=99))
    with pytest.raises(ValueError):
        MachineConfig.testbox().with_overrides(faults=sched)
    with pytest.raises(ValueError):
        MachineConfig.testbox().with_overrides(retry_backoff=0.5)


def test_retry_wait_backoff_progression():
    m = MachineConfig.testbox().with_overrides(client_retry=True)
    assert [m.retry_wait(i) for i in range(6)] == [1.0, 2.0, 4.0, 8.0, 16.0, 16.0]
    stock = MachineConfig.testbox()
    assert stock.retry_wait(0) == stock.rpc_resend_interval == 60.0
    assert stock.retry_wait(5) == 60.0


# -- end-to-end: shared-file record workload -----------------------------------

def _writer(ctx, nrec: int, path: str):
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, ctx.machine.n_osts)
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    base = ctx.rank * nrec * RECORD
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, RECORD, base + j * RECORD)
    yield from ctx.io.close(fd)
    return None


def _machine(**overrides):
    return MachineConfig.testbox(
        n_osts=NOSTS, fs_bw=2048 * MiB, discipline_weights={4: 1.0}
    ).with_overrides(**overrides)


def _run(machine, ntasks=16, nrec=150, seed=2, path="/scratch/t.dat"):
    job = SimJob(machine, ntasks, seed=seed, placement="packed")
    result = job.run(_writer, nrec, path)
    layout = job.iosys.lookup(path).layout
    return result, layout


STALL_SCHED = FaultSchedule.of(FaultWindow(STALL, 0.5, 1.2, device=SICK))


def test_stall_retry_recovers_and_is_localised():
    """The tentpole acceptance test: a scheduled transient OST stall is
    recovered by the analysis (device + window) and client retry strictly
    reduces the slowest-task completion vs the stock resend interval."""
    healthy, layout = _run(_machine())
    retried, _ = _run(_machine(faults=STALL_SCHED, client_retry=True))
    stalled, _ = _run(_machine(faults=STALL_SCHED, client_retry=False))

    # retries happened, were counted, and were traced as meta-events
    assert retried.meta["retries"] > 0
    assert len(retried.trace.filter(ops=["retry"])) > 0
    assert healthy.meta["retries"] == 0

    # bytes conserved across retries (each payload delivered exactly once)
    assert retried.total_bytes == healthy.total_bytes == stalled.total_bytes

    # backoff strictly beats the stock 60 s resend interval
    assert retried.elapsed < stalled.elapsed
    assert stalled.elapsed > 60.0  # stuck until the first stock resend

    # localisation: device and window recovered from the trace alone
    suspects = find_transient_faults(retried.trace, layout)
    assert [s.ost for s in suspects] == [SICK]
    top = suspects[0]
    assert top.t_start < 1.2 and top.t_end > 0.5
    assert top.n_retries > 0 and top.slowdown > 4.0

    findings = diagnose(retried.trace, nranks=16, layout=layout)
    fault = [f for f in findings if f.code == "transient-fault"]
    assert fault and fault[0].evidence["device"] == SICK
    assert fault[0].evidence["t_start"] < 1.2
    assert fault[0].evidence["t_end"] > 0.5

    # negative control: the healthy run raises no transient-fault finding
    clean = diagnose(healthy.trace, nranks=16, layout=layout)
    assert not [f for f in clean if f.code == "transient-fault"]


def test_stall_findings_survive_without_layout():
    retried, _ = _run(_machine(faults=STALL_SCHED, client_retry=True))
    findings = diagnose(retried.trace, nranks=16)  # no layout: window only
    fault = [f for f in findings if f.code == "transient-fault"]
    assert fault and fault[0].evidence["device"] == -1.0
    assert fault[0].evidence["t_start"] < 1.2
    assert fault[0].evidence["t_end"] > 0.5


def test_degrade_window_slows_only_inside_window():
    sched = FaultSchedule.of(
        FaultWindow(DEGRADE, 0.5, 1.2, device=SICK, factor=16.0)
    )
    degraded, layout = _run(_machine(faults=sched))
    healthy, _ = _run(_machine())
    # no stall: nothing to retry, but the run stretches
    assert degraded.meta["retries"] == 0
    assert degraded.elapsed > healthy.elapsed
    # and the localiser sees it as a transient window on the device
    suspects = find_transient_faults(degraded.trace, layout)
    assert suspects and suspects[0].ost == SICK


def test_mds_hiccup_slows_metadata_window():
    def _opener(ctx, n: int):
        for i in range(n):
            fd = yield from ctx.io.open(f"/scratch/m{ctx.rank}_{i}", O_CREAT | O_RDWR)
            yield from ctx.io.close(fd)
        return None

    def run_meta(machine):
        job = SimJob(machine, 4, seed=3)
        return job.run(_opener, 40)

    hiccup = FaultSchedule.of(FaultWindow(MDS_HICCUP, 0.0, 10.0, factor=12.0))
    slow = run_meta(_machine(faults=hiccup, mds_latency=1.0e-3))
    fast = run_meta(_machine(mds_latency=1.0e-3))
    assert slow.elapsed > 2.0 * fast.elapsed


def test_deterministic_given_schedule():
    a, _ = _run(_machine(faults=STALL_SCHED, client_retry=True))
    b, _ = _run(_machine(faults=STALL_SCHED, client_retry=True))
    assert a.elapsed == b.elapsed
    assert a.meta["retries"] == b.meta["retries"]
    assert (a.trace.starts == b.trace.starts).all()
    assert (a.trace.durations == b.trace.durations).all()
