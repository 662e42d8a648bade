"""Hypothesis property tests for the erasure-coding subsystem.

Two families:

- *placement invariants*: whatever striped layout and (k, m) code
  Hypothesis draws, every stripe group's k data units and m parity units
  land on k+m pairwise-distinct devices, and any loss of up to m units
  leaves a reconstructible group while losing more raises;
- *simulation invariants*: on small seeded coded workloads with
  arbitrary stall windows, every payload byte is read back exactly once,
  bytes written decompose exactly into payload plus parity with the
  parity bill bounded between the full-group floor m/k and the
  sub-stripe ceiling m per payload byte, and degraded-read meta-events
  appear iff the clients actually reconstructed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.harness import SimJob
from repro.iosys.erasure import ErasureCodedLayout
from repro.iosys.faults import STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import MachineConfig, KiB, MiB
from repro.iosys.posix import O_CREAT, O_RDWR
from repro.iosys.striping import StripeLayout

N_OSTS = 8


# -- placement invariants ------------------------------------------------------

@st.composite
def coded_layouts(draw):
    n_osts = draw(st.integers(3, 64))
    stripe_count = draw(st.integers(1, n_osts - 1))
    base = StripeLayout(
        stripe_size=draw(st.sampled_from([64 * KiB, 1 * MiB, 4 * MiB])),
        stripe_count=stripe_count,
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )
    k = draw(st.integers(1, stripe_count))
    m = draw(st.integers(1, n_osts - k))
    return ErasureCodedLayout(base, k, m)


@given(coded_layouts(), st.integers(0, 255))
def test_group_units_pairwise_distinct(ec, group):
    units = ec.group_osts(group)
    assert len(units) == ec.k + ec.m
    assert len(set(units)) == ec.k + ec.m
    # data units first, straight off the base striping
    assert list(units[: ec.k]) == [
        ec.base.ost_of_stripe(group * ec.k + u) for u in range(ec.k)
    ]
    assert all(0 <= d < ec.base.n_osts for d in units)
    # parity never shadows the data it protects
    assert not (set(units[ec.k:]) & set(units[: ec.k]))


@given(coded_layouts(), st.integers(0, 255), st.data())
def test_any_m_losses_are_reconstructible(ec, group, data):
    units = list(ec.group_osts(group))
    n_lost = data.draw(st.integers(1, ec.m))
    lost = data.draw(
        st.lists(st.sampled_from(units), min_size=n_lost,
                 max_size=n_lost, unique=True)
    )
    span = ec.k * ec.base.stripe_size
    steps = ec.reconstruction_plan(group * span, span, tuple(lost))
    for step in steps:
        assert step.group == group
        assert len(step.survivor_osts) == ec.k
        assert not (set(step.survivor_osts) & set(lost))
    # losing a data unit forces a rebuild; losing only parity does not
    if set(lost) & set(units[: ec.k]):
        assert steps
    else:
        assert steps == []


@given(coded_layouts(), st.integers(0, 255), st.data())
def test_losses_beyond_tolerance_raise(ec, group, data):
    units = list(ec.group_osts(group))
    # m+1 losses including at least one data unit defeat the code
    lost = {data.draw(st.sampled_from(units[: ec.k]))}
    lost |= set(
        data.draw(
            st.lists(st.sampled_from(units), min_size=ec.m + 1,
                     max_size=ec.m + 1, unique=True)
        )
    )
    span = ec.k * ec.base.stripe_size
    try:
        ec.reconstruction_plan(group * span, span, tuple(lost))
    except ValueError:
        return
    raise AssertionError("reconstruction past the tolerance must raise")


# -- simulation invariants -----------------------------------------------------

NREC = 2
NTASKS = 4


def _worker(ctx, group, tail, base):
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    ctx.io.region("write")
    for j in range(NREC):
        yield from ctx.io.pwrite(fd, group, j * group)
    if tail:
        # deliberately sub-stripe: owes the read-old parity round
        yield from ctx.io.pwrite(fd, tail, NREC * group)
    yield from ctx.comm.barrier()
    ctx.io.region("read")
    for j in range(NREC):
        yield from ctx.io.pread(fd, group, j * group)
    yield from ctx.io.close(fd)
    return None


def _simulate(k, m, failover, stall_t0, stall_span, device, tail, seed):
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
        ec_k=k,
        ec_m=m,
        client_failover=failover,
        # small timeouts keep the worst case fast under Hypothesis
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        rpc_resend_interval=2.0,
        failover_probe_interval=0.5,
    )
    group = k * machine.stripe_size
    job = SimJob(machine, NTASKS, seed=seed, placement="packed")
    res = job.run(_worker, group, tail, "/scratch/ecprop")
    return res, group


@given(
    k=st.integers(2, 4),
    m=st.integers(1, 2),
    failover=st.booleans(),
    stall_t0=st.floats(0.0, 1.0, allow_nan=False),
    stall_span=st.floats(0.05, 0.6, allow_nan=False),
    device=st.integers(0, N_OSTS - 1),
    tail=st.sampled_from([0, 64 * KiB, 512 * KiB]),
    seed=st.integers(0, 1000),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_coded_bytes_conserved_and_time_monotone(
    k, m, failover, stall_t0, stall_span, device, tail, seed
):
    res, group = _simulate(
        k, m, failover, stall_t0, stall_span, device, tail, seed
    )
    payload_w = NTASKS * (NREC * group + tail)
    payload_r = NTASKS * NREC * group
    # the application observes each payload byte exactly once per phase,
    # however degraded extents were reconstructed
    assert res.iosys.total_bytes_read() == payload_r
    # written bytes decompose exactly into payload + parity; the parity
    # bill sits between the full-group floor m/k and the sub-stripe
    # ceiling m per payload byte (partial-group tails round up)
    pool = res.iosys.osts
    written = res.iosys.total_bytes_written()
    parity = int(pool.parity_bytes)
    assert written == payload_w + parity
    assert parity >= (m * payload_w) // k
    assert parity <= m * payload_w
    if tail == 0:
        # group-aligned records owe exactly (k+m)/k, no read-old rounds
        assert parity == (m * payload_w) // k
        assert pool.parity_updates == 0
    else:
        assert pool.parity_updates > 0
    trace = res.trace
    assert (trace.durations >= 0).all()
    assert (trace.starts >= 0).all()
    # degraded-read meta-events carry the *averted* stall as their
    # duration -- a counterfactual that may outlive the (shortened)
    # run -- so the wall-clock bound applies to everything else
    wall = trace.filter(
        ops=[op for op in set(trace.ops) if op != "degraded-read"]
    )
    assert float(wall.ends.max()) <= res.elapsed + 1e-9
    # per-rank event streams are recorded in non-decreasing start order
    for rank in range(NTASKS):
        sub = trace.filter(ranks=[rank])
        assert (np.diff(sub.starts) >= -1e-12).all()
    # degraded-read meta-events appear iff the clients reconstructed,
    # and only failover-enabled runs ever fan out to survivors
    n_events = len(trace.filter(ops=["degraded-read"]))
    if res.meta["reconstructions"] > 0:
        assert failover
        assert n_events > 0
        assert int(pool.recon_reads.sum()) > 0
    else:
        assert n_events == 0
        assert int(pool.recon_bytes) == 0
