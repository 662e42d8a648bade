"""Unit and integration tests for erasure-coded (k+m) placement (the
tentpole acceptance criteria live here: all k+m units of a stripe group
land pairwise-distinct, sub-stripe writes owe the read-old parity round
while full-group writes pay exactly (k+m)/k, a stalled data device is
served by survivor reconstruction instead of riding the stall out, and
the degraded-read meta-events let the ensemble analysis name the lost
device after the fact).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.harness import SimJob
from repro.cli import build_parser, main as cli_main
from repro.ensembles.diagnose import diagnose
from repro.ensembles.locate import find_rebuild_pressure
from repro.experiments import ALL_EXPERIMENTS
from repro.iosys.erasure import ErasureCodedLayout
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, IoSystem
from repro.iosys.striping import StripeLayout

NOSTS = 8
STRIPE = 1 * MiB
GROUP = 4 * STRIPE  # one full k=4 stripe group
SICK = 2


def _layout(start=0, n_osts=NOSTS, stripes=4):
    return StripeLayout(
        stripe_size=STRIPE,
        stripe_count=stripes,
        n_osts=n_osts,
        start_ost=start,
    )


def _ec(start=0, k=4, m=1, n_osts=NOSTS):
    return ErasureCodedLayout(_layout(start, n_osts=n_osts), k, m)


# -- ErasureCodedLayout placement ----------------------------------------------

def test_layout_validates_code_parameters():
    base = _layout()
    for k, m in ((0, 1), (1, 0), (-1, 1), (5, 1), (4, NOSTS)):
        with pytest.raises(ValueError):
            ErasureCodedLayout(base, k, m)


def test_data_layout_is_the_base():
    ec = _ec()
    assert ec.data_layout is ec.base
    assert ec.redundancy == pytest.approx(1.25)


def test_group_units_pairwise_distinct():
    for start in range(NOSTS):
        ec = _ec(start=start, k=4, m=2)
        for g in range(6):
            units = ec.group_osts(g)
            assert len(units) == 6
            assert len(set(units)) == 6


def test_group_queries_reject_negative_groups():
    ec = _ec()
    for query in (ec.data_osts, ec.parity_osts, ec.group_osts):
        with pytest.raises(ValueError, match="group must be non-negative"):
            query(-1)


def test_parity_placement_rotates_with_group():
    ec = _ec()
    first = {ec.parity_osts(g) for g in range(4)}
    # RAID-5-style rotation: consecutive groups park parity on
    # different devices, no dedicated parity OST
    assert len(first) > 1


# -- the parity-update write model ---------------------------------------------

def test_full_group_write_owes_no_read_old_round():
    ec = _ec()
    updates = ec.parity_updates(0, GROUP)
    assert len(updates) == 1
    (upd,) = updates
    assert upd.full
    assert upd.nbytes == STRIPE
    assert upd.total_parity_bytes == STRIPE  # m=1
    # the whole bill is the (k+m)/k amplification
    assert ec.parity_bytes_for(0, GROUP) == GROUP // 4


def test_sub_stripe_write_owes_the_read_old_round():
    ec = _ec()
    updates = ec.parity_updates(0, 64 * 1024)
    assert len(updates) == 1
    (upd,) = updates
    assert not upd.full
    # parity byte i protects byte i of each data unit: a b-byte
    # sub-stripe write moves b bytes to each parity unit
    assert upd.nbytes == 64 * 1024


def test_group_spanning_write_updates_both_groups():
    ec = _ec()
    updates = ec.parity_updates(2 * STRIPE, GROUP)
    assert [u.group for u in updates] == [0, 1]
    assert not any(u.full for u in updates)


def test_bytes_per_ost_includes_the_parity_footprint():
    ec = _ec()
    data_only = ec.data_layout.bytes_per_ost(0, GROUP)
    full = ec.bytes_per_ost(0, GROUP)
    parity = set(full) - set(data_only)
    assert parity == set(ec.parity_osts(0))
    assert sum(full.values()) == GROUP + ec.parity_bytes_for(0, GROUP)


# -- reconstruction planning ---------------------------------------------------

def test_reconstruction_reads_k_survivors():
    ec = _ec()
    lost = ec.data_osts(0)[1]
    (step,) = ec.reconstruction_plan(STRIPE, STRIPE, (lost,))
    assert step.group == 0
    assert len(step.survivor_osts) == 4
    assert lost not in step.survivor_osts
    assert step.nbytes == STRIPE
    assert step.fanout_bytes == 4 * STRIPE


def test_reconstruction_skips_avoided_units():
    ec = _ec(m=2)
    lost = ec.data_osts(0)[0]
    avoided = ec.parity_osts(0)[0]
    (step,) = ec.reconstruction_plan(0, STRIPE, (lost,), (avoided,))
    assert avoided not in step.survivor_osts
    assert lost not in step.survivor_osts


def test_reconstruction_only_covers_lost_ranges():
    ec = _ec()
    lost = ec.data_osts(0)[0]
    # the extent never touches the lost device: nothing to rebuild
    assert ec.reconstruction_plan(STRIPE, STRIPE, (lost,)) == []


def test_loss_beyond_tolerance_raises():
    ec = _ec(m=1)
    lost = ec.data_osts(0)[:2]  # two losses, m=1
    with pytest.raises(ValueError):
        ec.reconstruction_plan(0, GROUP, lost)


# -- machine config ------------------------------------------------------------

def test_machine_validates_erasure_settings():
    with pytest.raises(ValueError):
        MachineConfig.testbox(n_osts=NOSTS).with_overrides(ec_k=4)
    with pytest.raises(ValueError):
        MachineConfig.testbox(n_osts=NOSTS).with_overrides(ec_k=7, ec_m=2)
    with pytest.raises(ValueError):
        MachineConfig.testbox(n_osts=NOSTS).with_overrides(
            ec_k=2, ec_m=1, replica_count=2
        )
    with pytest.raises(ValueError):
        MachineConfig.testbox(n_osts=NOSTS).with_overrides(
            ec_k=2, ec_m=1, ec_reconstruct_cost=-1.0
        )


# -- namespace plumbing --------------------------------------------------------

def _iosys(ec_k=0, ec_m=0):
    from repro.sim.engine import Engine
    from repro.sim.rng import RngStreams

    machine = MachineConfig.testbox(n_osts=NOSTS).with_overrides(
        ec_k=ec_k, ec_m=ec_m
    )
    return IoSystem(Engine(), machine, ntasks=2, rng=RngStreams(0))


def _create(iosys, path):
    gen = iosys.posix_for(0).open(path, O_CREAT | O_RDWR)
    for _ in gen:
        pass
    return iosys.lookup(path)


def test_files_inherit_the_machine_code():
    f = _create(_iosys(ec_k=2, ec_m=1), "/scratch/a")
    assert f.erasure is not None
    assert (f.erasure.k, f.erasure.m) == (2, 1)
    assert f.erasure.base is f.layout
    assert f.replication is None


def test_set_erasure_overrides_per_path():
    iosys = _iosys()
    iosys.set_stripe_count("/scratch/b", 4)
    iosys.set_erasure("/scratch/b", 4, 1)
    f = _create(iosys, "/scratch/b")
    assert (f.erasure.k, f.erasure.m) == (4, 1)
    # and k = m = 0 disables a machine-wide default
    iosys2 = _iosys(ec_k=2, ec_m=1)
    iosys2.set_erasure("/scratch/c", 0, 0)
    assert _create(iosys2, "/scratch/c").erasure is None


def test_set_erasure_rejects_bad_values():
    iosys = _iosys()
    with pytest.raises(ValueError):
        iosys.set_erasure("/scratch/d", 4, 0)
    with pytest.raises(ValueError):
        iosys.set_erasure("/scratch/d", NOSTS, 1)
    iosys.set_erasure("/scratch/e", 2, 1)
    _create(iosys, "/scratch/e")
    with pytest.raises(ValueError):
        iosys.set_erasure("/scratch/e", 4, 1)


def test_mirroring_and_coding_are_mutually_exclusive_per_file():
    iosys = _iosys(ec_k=2, ec_m=1)
    iosys.set_replica_count("/scratch/f", 2)
    with pytest.raises(ValueError):
        _create(iosys, "/scratch/f")


# -- end-to-end degraded reads -------------------------------------------------

def _worker(ctx, nrec, base):
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, GROUP, j * GROUP)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(nrec * 4):
        yield from ctx.io.pread(fd, STRIPE, j * STRIPE)
    yield from ctx.io.close(fd)
    return None


def _run(ec=(4, 1), failover=True, window=(0.10, 0.60), device=SICK,
         ntasks=4, nrec=3, seed=17):
    machine = MachineConfig.testbox(
        n_osts=NOSTS,
        fs_bw=1024 * MiB,
        fs_read_bw=1024 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        faults=(
            FaultSchedule.of(
                FaultWindow(STALL, window[0], window[1], device=device)
            )
            if window is not None
            else None
        ),
        client_retry=True,
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        failover_probe_interval=0.5,
        client_failover=failover,
        **({"ec_k": ec[0], "ec_m": ec[1]} if ec else {}),
    )
    job = SimJob(machine, ntasks, seed=seed, placement="packed")
    return job.run(_worker, nrec, "/scratch/ec")


def test_reconstruction_masks_the_stall():
    degraded = _run(failover=True)
    rode_out = _run(failover=False)
    assert degraded.meta["reconstructions"] > 0
    assert rode_out.meta["reconstructions"] == 0
    # the whole point: rebuilding from survivors is strictly faster
    # than waiting out the same stall against the lost device
    assert degraded.elapsed < rode_out.elapsed


def test_survivor_fanout_spares_the_lost_device():
    res = _run()
    pool = res.iosys.osts
    assert pool.ec_reconstructions > 0
    assert pool.recon_bytes > 0
    assert pool.recon_reads[SICK] == 0
    assert pool.recon_reads.sum() > 0


def test_byte_conservation_with_parity():
    res = _run(window=None)
    payload = 4 * 3 * GROUP
    pool = res.iosys.osts
    # group-aligned writes: redundant bytes are exactly m/k x payload
    assert pool.parity_bytes == payload // 4
    assert res.iosys.total_bytes_written() == payload + pool.parity_bytes
    assert res.iosys.total_bytes_read() == payload
    assert pool.parity_updates == 0  # no read-old rounds owed


def test_healthy_run_reconstructs_nothing():
    res = _run(window=None)
    assert res.meta["reconstructions"] == 0
    assert len(res.trace.filter(ops=["degraded-read"])) == 0


def test_trace_carries_degraded_read_meta_events():
    res = _run()
    events = res.trace.filter(ops=["degraded-read"])
    assert len(events) > 0
    # size counts the groups reconstructed; averted stall in duration
    assert (events.sizes >= 1).all()
    assert float(events.durations.max()) > 0


# -- rebuild-pressure analysis -------------------------------------------------

def test_rebuild_pressure_names_the_lost_device():
    res = _run()
    votes = {}
    for path, f in res.iosys._files.items():
        sub = res.trace.filter(path=path)
        for r in find_rebuild_pressure(sub, f.erasure):
            votes[r.ost] = votes.get(r.ost, 0) + r.n_events
    assert votes
    assert max(votes, key=votes.get) == SICK


def test_diagnose_reports_ec_degraded():
    res = _run()
    path, f = next(
        (p, f)
        for p, f in sorted(res.iosys._files.items())
        if SICK in f.layout.bytes_per_ost(0, GROUP)
    )
    findings = [
        f2
        for f2 in diagnose(res.trace.filter(path=path), nranks=4,
                           layout=f.erasure)
        if f2.code == "ec-degraded"
    ]
    assert findings
    assert findings[0].evidence["device"] == SICK
    assert findings[0].severity > 0


def test_diagnose_without_layout_reports_the_rebuild_window():
    """No layout: the finding reports the degraded-read meta-events alone
    -- a window closing at the stall's end, the reads rebuilt, and the
    largest remaining stall one rebuild averted."""
    res = _run()
    drs = res.trace.filter(ops=["degraded-read"])
    (finding,) = [
        f for f in diagnose(res.trace, nranks=4) if f.code == "ec-degraded"
    ]
    ev = finding.evidence
    assert set(ev) == {"device", "t_start", "t_end", "masked_time", "n_events"}
    assert ev["device"] == -1.0
    assert 0.10 <= ev["t_start"] < ev["t_end"] == 0.60
    assert ev["n_events"] == float(len(drs)) == 9.0
    # the first rebuild waited out nothing: it averted the rest of the stall
    assert ev["masked_time"] == pytest.approx(ev["t_end"] - ev["t_start"])
    assert finding.severity == pytest.approx(
        0.3 + 0.5 * ev["masked_time"] / res.trace.span
    )
    assert finding.message.startswith(
        "9 reads were served degraded (rebuilt from parity)"
    )


def test_diagnose_quiet_on_healthy_code():
    res = _run(window=None)
    findings = [
        f for f in diagnose(res.trace, nranks=4) if f.code == "ec-degraded"
    ]
    assert findings == []


# -- CLI -----------------------------------------------------------------------

def test_cli_parses_erasure():
    args = build_parser().parse_args(
        ["run-ior", "--machine", "testbox", "--erasure", "2+1"]
    )
    assert args.erasure == "2+1"


@pytest.mark.parametrize("bad", ["4", "4+", "+2", "a+b", "0+1", "4+0"])
def test_cli_rejects_bad_erasure_specs(bad):
    with pytest.raises(SystemExit):
        cli_main(
            ["run-ior", "--machine", "testbox", "--ntasks", "2",
             "--block", "4", "--transfer", "4", "--reps", "1",
             "--stripes", "2", "--erasure", bad]
        )


def test_cli_rejects_code_wider_than_the_pool():
    with pytest.raises(SystemExit):
        cli_main(
            ["run-ior", "--machine", "testbox", "--ntasks", "2",
             "--block", "4", "--transfer", "4", "--reps", "1",
             "--stripes", "2", "--erasure", "3+2"]
        )


def test_cli_erasure_and_replicate_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        cli_main(
            ["run-ior", "--machine", "testbox", "--ntasks", "2",
             "--block", "4", "--transfer", "4", "--reps", "1",
             "--stripes", "2", "--erasure", "2+1", "--replicate", "2"]
        )


def test_erasure_experiment_is_registered():
    assert "erasure" in ALL_EXPERIMENTS
