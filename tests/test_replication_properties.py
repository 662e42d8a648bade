"""Hypothesis property tests for the replication subsystem.

Two families:

- *placement invariants*: whatever striped layout and replica count
  Hypothesis draws, every stripe's copies land on pairwise-distinct
  devices and no replica ever shares its primary's OST;
- *simulation invariants*: on small seeded mirrored workloads with
  arbitrary stall windows, every payload byte is read back exactly once,
  every copy of every byte is either written or marked stale (nothing is
  silently dropped), and simulated event times never decrease.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.harness import SimJob
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import MachineConfig, KiB, MiB
from repro.iosys.posix import O_CREAT, O_RDWR
from repro.iosys.replication import ReplicatedLayout
from repro.iosys.striping import StripeLayout

N_OSTS = 8


# -- placement invariants ------------------------------------------------------

@st.composite
def replicated_layouts(draw):
    n_osts = draw(st.integers(2, 64))
    stripe_count = draw(st.integers(1, n_osts))
    start = draw(st.integers(0, n_osts - 1))
    base = StripeLayout(
        stripe_size=draw(st.sampled_from([64 * KiB, 1 * MiB, 4 * MiB])),
        stripe_count=stripe_count,
        n_osts=n_osts,
        start_ost=start,
    )
    k = draw(st.integers(1, n_osts))
    return ReplicatedLayout(base, k)


@given(replicated_layouts(), st.integers(0, 4095))
def test_copies_on_pairwise_distinct_devices(rep, stripe):
    devices = rep.replica_osts(stripe)
    assert len(devices) == rep.replica_count
    assert len(set(devices)) == rep.replica_count
    # copy 0 *is* the primary; no other copy may share its device
    assert devices[0] == rep.base.ost_of_stripe(stripe)
    assert all(d != devices[0] for d in devices[1:])
    assert all(0 <= d < rep.base.n_osts for d in devices)


@given(replicated_layouts(), st.integers(0, 4095))
def test_replica_extents_mirror_the_primary(rep, stripe):
    """Each copy holds the same byte range, shifted to its own device."""
    offset = stripe * rep.base.stripe_size
    for r in range(rep.replica_count):
        extents = rep.replica(r).extents(offset, rep.base.stripe_size)
        assert sum(e.length for e in extents) == rep.base.stripe_size
        assert all(e.ost == rep.ost_of_stripe(stripe, r) for e in extents)


# -- simulation invariants -----------------------------------------------------

RECORD = 256 * 1024
NREC = 10
NTASKS = 4


def _worker(ctx, base):
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(NREC):
        yield from ctx.io.pwrite(fd, RECORD, j * RECORD)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(NREC):
        yield from ctx.io.pread(fd, RECORD, j * RECORD)
    yield from ctx.io.close(fd)
    return None


def _simulate(k, failover, stall_t0, stall_span, device, seed):
    sched = FaultSchedule.of(
        FaultWindow(STALL, stall_t0, stall_t0 + stall_span, device=device)
    )
    machine = MachineConfig.testbox(
        n_osts=N_OSTS,
        fs_bw=1024 * MiB,
        fs_read_bw=1024 * MiB,
        default_stripe_count=4,
        discipline_weights={2: 1.0},
    ).with_overrides(
        faults=sched,
        client_retry=True,
        replica_count=k,
        client_failover=failover,
        # small timeouts keep the worst case fast under Hypothesis
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        rpc_resend_interval=2.0,
        failover_probe_interval=0.5,
    )
    job = SimJob(machine, NTASKS, seed=seed, placement="packed")
    return job.run(_worker, "/scratch/repprop")


@given(
    k=st.integers(1, 3),
    failover=st.booleans(),
    stall_t0=st.floats(0.0, 1.0, allow_nan=False),
    stall_span=st.floats(0.05, 1.0, allow_nan=False),
    device=st.integers(0, N_OSTS - 1),
    seed=st.integers(0, 1000),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_mirrored_bytes_conserved_and_time_monotone(
    k, failover, stall_t0, stall_span, device, seed
):
    res = _simulate(k, failover, stall_t0, stall_span, device, seed)
    payload = NTASKS * NREC * RECORD
    # the application observes each payload byte exactly once per phase,
    # however the copies were steered
    assert res.total_bytes == 2 * payload
    assert res.iosys.total_bytes_read() == payload
    # every copy of every byte is accounted for: written to its device or
    # marked stale when the client steered around a dead copy
    written = res.iosys.total_bytes_written()
    stale = float(res.iosys.osts.stale_bytes)
    assert written + stale == k * payload
    if not failover:
        # riding out stalls writes every copy eventually
        assert stale == 0
    trace = res.trace
    assert (trace.durations >= 0).all()
    assert (trace.starts >= 0).all()
    # failover meta-events carry the *averted* stall as their duration --
    # a counterfactual that may outlive the (shortened) run -- so the
    # wall-clock bound applies to everything else
    wall = trace.filter(
        ops=[op for op in set(trace.ops) if op != "failover"]
    )
    assert float(wall.ends.max()) <= res.elapsed + 1e-9
    # per-rank event streams are recorded in non-decreasing start order
    for rank in range(NTASKS):
        sub = trace.filter(ranks=[rank])
        assert (np.diff(sub.starts) >= -1e-12).all()
    # failover meta-events appear iff the clients steered, and only the
    # failover-enabled replicated configurations ever steer
    n_events = len(trace.filter(ops=["failover"]))
    if res.meta["failovers"] > 0:
        assert k > 1 and failover
        assert n_events > 0
    else:
        assert n_events == 0
