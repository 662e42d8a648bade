"""Unit and integration tests for replicated object placement and
client-side OST failover (the tentpole acceptance criteria live here:
a stalled primary is steered around via the mirror, strictly faster
than riding the stall out in place, and the failover meta-events let
the ensemble analysis name the sick device after the fact).
"""

from __future__ import annotations

import pytest

from repro.apps.harness import SimJob
from repro.cli import build_parser, main as cli_main
from repro.ensembles.diagnose import diagnose
from repro.ensembles.locate import find_masked_faults
from repro.experiments import ALL_EXPERIMENTS
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, IoSystem
from repro.iosys.replication import ReplicatedLayout
from repro.iosys.scheduler import fpt_write_read
from repro.iosys.striping import StripeLayout

NOSTS = 8
RECORD = 1 * MiB


def _layout(start=0, n_osts=NOSTS, stripes=4):
    return StripeLayout(
        stripe_size=1 * MiB,
        stripe_count=stripes,
        n_osts=n_osts,
        start_ost=start,
    )


# -- ReplicatedLayout ----------------------------------------------------------

def test_layout_validates_replica_count():
    base = _layout()
    for bad in (0, -1, NOSTS + 1):
        with pytest.raises(ValueError):
            ReplicatedLayout(base, bad)
    assert ReplicatedLayout(base, 1).replica_count == 1
    assert ReplicatedLayout(base, NOSTS).replica_count == NOSTS


def test_replica_zero_is_the_primary():
    rep = ReplicatedLayout(_layout(start=3), 2)
    assert rep.replica(0) is rep.base
    assert rep.base.start_ost == 3


def test_replica_shift_spreads_copies():
    rep = ReplicatedLayout(_layout(start=0), 2)
    # 8 OSTs / 2 copies -> the mirror starts half the pool away
    assert rep.replica_shift == 4
    assert rep.replica(1).start_ost == 4
    for stripe in range(16):
        a, b = rep.replica_osts(stripe)
        assert a != b


def test_bytes_per_ost_is_the_union_footprint():
    rep = ReplicatedLayout(_layout(start=0), 2)
    single = rep.base.bytes_per_ost(0, RECORD)
    union = rep.bytes_per_ost(0, RECORD)
    assert set(single) < set(union)
    assert len(union) == 2 * len(single)
    assert sum(union.values()) == 2 * sum(single.values())


def test_extents_land_on_the_replica_device():
    rep = ReplicatedLayout(_layout(start=1), 3)
    for r in range(3):
        for e in rep.replica(r).extents(2 * MiB, RECORD):
            assert e.ost == rep.ost_of_stripe(2, r)


# -- MachineConfig knobs -------------------------------------------------------

def test_machine_validates_replica_count():
    with pytest.raises(ValueError):
        MachineConfig.testbox(n_osts=4).with_overrides(replica_count=5)
    with pytest.raises(ValueError):
        MachineConfig.testbox(n_osts=4).with_overrides(replica_count=0)
    m = MachineConfig.testbox(n_osts=4).with_overrides(replica_count=4)
    assert m.replica_count == 4


def test_machine_validates_failover_costs():
    with pytest.raises(ValueError):
        MachineConfig.testbox().with_overrides(failover_latency=-1.0)
    with pytest.raises(ValueError):
        MachineConfig.testbox().with_overrides(degraded_read_cost=-0.1)
    with pytest.raises(ValueError):
        MachineConfig.testbox().with_overrides(failover_probe_interval=0.0)


# -- IoSystem plumbing ---------------------------------------------------------

def _iosys(replica_count=2):
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams

    machine = MachineConfig.testbox(n_osts=NOSTS).with_overrides(
        replica_count=replica_count
    )
    return IoSystem(Engine(), machine, ntasks=2, rng=RngStreams(0))


def test_files_inherit_the_machine_replica_count():
    iosys = _iosys(replica_count=2)
    posix = iosys.posix_for(0)
    gen = posix.open("/scratch/a", O_CREAT | O_RDWR)
    for _ in gen:
        pass
    f = iosys.lookup("/scratch/a")
    assert f.replication is not None
    assert f.replication.replica_count == 2
    assert f.replication.base is f.layout


def test_set_replica_count_overrides_per_path():
    iosys = _iosys(replica_count=1)
    iosys.set_replica_count("/scratch/b", 3)
    posix = iosys.posix_for(0)
    gen = posix.open("/scratch/b", O_CREAT | O_RDWR)
    for _ in gen:
        pass
    assert iosys.lookup("/scratch/b").replication.replica_count == 3


def test_set_replica_count_rejects_bad_values():
    iosys = _iosys()
    with pytest.raises(ValueError):
        iosys.set_replica_count("/scratch/c", NOSTS + 1)
    with pytest.raises(ValueError):
        iosys.set_replica_count("/scratch/c", 0)


# -- end-to-end failover behaviour ---------------------------------------------

def _run(k, failover=True, window=(0.0, 8.0), device=0, nrec=8, seed=5):
    machine = MachineConfig.testbox(
        n_osts=NOSTS,
        fs_bw=1024 * MiB,
        fs_read_bw=1024 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        faults=FaultSchedule.of(
            FaultWindow(STALL, window[0], window[1], device=device)
        ),
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        replica_count=k,
        client_failover=failover,
        failover_probe_interval=0.5,
    )
    job = SimJob(machine, 2, seed=seed, placement="packed")
    return job.run(fpt_write_read, "/scratch/ft", nrec, RECORD, RECORD, 4)


def test_failover_steers_and_beats_ride_out():
    steered = _run(2, failover=True)
    rode_out = _run(2, failover=False)
    assert steered.meta["failovers"] > 0
    assert rode_out.meta["failovers"] == 0
    # the whole point: steering to the mirror is strictly faster than
    # waiting out the same stall against the primary
    assert steered.elapsed < rode_out.elapsed


def test_degraded_reads_are_counted_and_charged():
    res = _run(2, failover=True)
    assert res.iosys.osts.degraded_reads > 0


def test_skipped_write_copies_are_marked_stale():
    res = _run(2, failover=True)
    payload = 2 * 8 * RECORD
    stale = float(res.iosys.osts.stale_bytes)
    assert res.iosys.osts.stale_marks > 0
    assert res.iosys.total_bytes_written() + stale == 2 * payload


def test_unreplicated_run_never_steers():
    res = _run(1, failover=True)
    assert res.meta["failovers"] == 0
    assert len(res.trace.filter(ops=["failover"])) == 0


def test_trace_carries_failover_meta_events():
    res = _run(2, failover=True)
    events = res.trace.filter(ops=["failover"])
    assert len(events) > 0
    # size counts the copies bypassed; the averted stall rides in duration
    assert (events.sizes >= 1).all()
    assert float(events.durations.max()) > 0


# -- masked-fault analysis -----------------------------------------------------

def test_masked_fault_names_the_sick_device():
    res = _run(2, failover=True, device=1)
    # file-per-task: attribute each file's events through its own layout
    votes = {}
    for path, f in res.iosys._files.items():
        for m in find_masked_faults(res.trace.filter(path=path), f.layout):
            votes[m.ost] = votes.get(m.ost, 0) + m.n_events
    assert votes
    assert max(votes, key=votes.get) == 1


def test_diagnose_reports_failover_masked_fault():
    res = _run(2, failover=True, device=1)
    path, f = next(
        (p, f)
        for p, f in sorted(res.iosys._files.items())
        if 1 in f.layout.bytes_per_ost(0, 4 * RECORD)
    )
    findings = [
        f2
        for f2 in diagnose(res.trace.filter(path=path), nranks=2,
                           layout=f.layout)
        if f2.code == "failover-masked-fault"
    ]
    assert findings
    assert findings[0].evidence["device"] == 1
    assert findings[0].severity > 0


def test_masked_fault_with_every_ost_holding_a_copy():
    """replica_count == n_osts: every device holds a copy of every
    stripe, so the union footprint is the whole pool.  The analysis must
    survive the degenerate geometry (no device is distinguishable by
    placement) without crashing, and failover still masks the stall."""
    res = _run(NOSTS, failover=True, device=1)
    assert res.meta["failovers"] > 0
    votes = {}
    for path, f in res.iosys._files.items():
        sub = res.trace.filter(path=path)
        for m in find_masked_faults(sub, f.replication or f.layout):
            votes[m.ost] = votes.get(m.ost, 0) + m.n_events
    # attribution through the union footprint spreads over the pool;
    # the sick device must at least be among the accused
    assert 1 in votes
    # window-only diagnosis: no device, but the whole stall is accounted
    (finding,) = [
        f for f in diagnose(res.trace, nranks=2)
        if f.code == "failover-masked-fault"
    ]
    assert finding.evidence == {
        "device": -1.0, "t_start": 0.0, "t_end": 8.0, "masked_time": 8.0,
        "n_events": float(len(res.trace.filter(ops=["failover"]))),
    }


def test_diagnose_without_layout_reports_the_failover_window():
    """No layout: the finding cannot name the device, so it reports the
    failover meta-events alone -- their window (the stall, 0-8 s), how
    many ops steered, and the largest stall one steer averted."""
    res = _run(2, failover=True, device=1)
    fos = res.trace.filter(ops=["failover"])
    (finding,) = [
        f for f in diagnose(res.trace, nranks=2)
        if f.code == "failover-masked-fault"
    ]
    assert finding.evidence == {
        "device": -1.0,
        "t_start": 0.0,
        "t_end": 8.0,
        "masked_time": 8.0,
        "n_events": float(len(fos)),
    }
    assert len(fos) == 8
    # the averted stall covers the whole run: severity sits at its cap
    assert finding.severity == 0.8
    assert finding.message.startswith("8 ops failed over to replica copies")


def test_stall_window_after_last_io_yields_no_finding():
    """A stall window that opens after the job's final I/O never hits a
    request: no retries, no failovers, no masked-fault finding -- and
    none of the analyses crash on the eventless window."""
    res = _run(2, failover=True, window=(500.0, 600.0), device=1)
    assert res.meta["retries"] == 0
    assert res.meta["failovers"] == 0
    assert len(res.trace.filter(ops=["failover"])) == 0
    for path, f in res.iosys._files.items():
        assert find_masked_faults(res.trace.filter(path=path), f.layout) == []
    path, f = next(iter(sorted(res.iosys._files.items())))
    findings = [
        f2
        for f2 in diagnose(res.trace, nranks=2, layout=f.layout)
        if f2.code == "failover-masked-fault"
    ]
    assert findings == []


# -- CLI -----------------------------------------------------------------------

def test_cli_parses_replicate():
    args = build_parser().parse_args(
        ["run-ior", "--machine", "testbox", "--replicate", "2"]
    )
    assert args.replicate == 2


@pytest.mark.parametrize("bad", ["0", "99"])
def test_cli_rejects_bad_replicate_count(bad):
    with pytest.raises(SystemExit, match="bad --replicate count"):
        cli_main(
            ["run-ior", "--machine", "testbox", "--ntasks", "2",
             "--block", "2", "--transfer", "1", "--reps", "1",
             "--replicate", bad]
        )


def test_cli_replicate_combines_with_fault_and_retry():
    rc = cli_main(
        ["run-ior", "--machine", "testbox", "--ntasks", "2",
         "--block", "2", "--transfer", "1", "--reps", "1", "--stripes", "2",
         "--replicate", "2", "--fault", "stall:1:0.05:0.3", "--retry"]
    )
    assert rc == 0


def test_failover_experiment_is_registered():
    assert "failover" in ALL_EXPERIMENTS
    assert hasattr(ALL_EXPERIMENTS["failover"], "run")
