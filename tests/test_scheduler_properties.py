"""Property tests for the facility's arrival processes and admission.

Four invariants the multi-tenant layer is built on:

- arrival processes are deterministic functions of their seed, and a
  Poisson sequence is a *stable prefix* (asking for more jobs never
  perturbs the earlier admission times);
- the Poisson gaps actually have the declared rate (mean inter-arrival
  within statistical tolerance of ``1/rate``);
- burst trains never deadlock the facility -- every admitted rank
  finishes no matter how the trains align;
- a facility holding a single zero-arrival job reduces to the solo
  :class:`~repro.apps.harness.SimJob` harness byte-for-byte, client
  trace and server telemetry alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.harness import SimJob
from repro.apps.mpiio import MpiFile
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_SYNC, O_WRONLY
from repro.iosys.scheduler import (
    BurstArrivals,
    Facility,
    PoissonArrivals,
    TenantJob,
    TraceArrivals,
    assign_arrivals,
)

from tests.test_golden_traces import canonical_lines, telemetry_digest


# -- determinism ----------------------------------------------------------------

@given(
    rate=st.floats(min_value=0.05, max_value=50.0,
                   allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=64),
)
def test_poisson_same_seed_same_sequence(rate, seed, n):
    a = PoissonArrivals(rate, seed=seed).times(n)
    b = PoissonArrivals(rate, seed=seed).times(n)
    assert a == b
    assert all(t >= 0 for t in a)
    assert a == sorted(a)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=32),
    extra=st.integers(min_value=1, max_value=32),
)
def test_poisson_prefix_stable(seed, n, extra):
    proc = PoissonArrivals(2.0, seed=seed)
    assert proc.times(n) == proc.times(n + extra)[:n]


@given(
    size=st.integers(min_value=1, max_value=8),
    gap=st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
    n=st.integers(min_value=0, max_value=40),
)
def test_burst_train_structure(size, gap, n):
    ts = BurstArrivals(size, gap).times(n)
    assert len(ts) == n
    assert ts == sorted(ts)
    for i, t in enumerate(ts):
        assert t == (i // size) * gap  # whole trains admitted together


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=16,
    )
)
def test_trace_replay_sorts_and_prefixes(times):
    proc = TraceArrivals(times)
    got = proc.times(len(times))
    assert got == sorted(float(t) for t in times)
    assert proc.times(1) == got[:1]


# -- rate correctness -----------------------------------------------------------

@given(
    rate=st.sampled_from([0.25, 1.0, 4.0, 16.0]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40)
def test_poisson_mean_gap_matches_rate(rate, seed):
    # mean of n=400 exponential gaps has relative std 1/sqrt(n) = 5%;
    # a 25% band is a five-sigma acceptance region
    n = 400
    ts = np.asarray(PoissonArrivals(rate, seed=seed).times(n))
    gaps = np.diff(np.concatenate([[0.0], ts]))
    assert np.all(gaps >= 0)
    assert abs(gaps.mean() * rate - 1.0) < 0.25


# -- no deadlock under burst admission ------------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=4),
    gap=st.floats(min_value=0.0, max_value=2.0,
                  allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=50),
)
def test_burst_trains_never_deadlock(size, gap, seed):
    jobs = assign_arrivals(
        [
            TenantJob("a", "idle", 1, params={"nops": 2, "pause": 0.05}),
            TenantJob("b", "mds-storm", 2, params={"nfiles": 2}),
            TenantJob("c", "idle", 1, params={"nops": 1, "pause": 0.05}),
            TenantJob("d", "checkpoint", 1, params={"nfiles": 2}),
        ],
        BurstArrivals(size, gap),
    )
    res = Facility(
        MachineConfig.shared_testbox(), jobs, seed=seed
    ).run()  # Facility.run raises on any rank that never finished
    assert len(res.jobs) == 4
    for job, jr in zip(jobs, res.jobs):
        assert jr.t_start == pytest.approx(job.arrival)
        assert jr.t_end >= jr.t_start


# -- single-tenant reduction ----------------------------------------------------

def _solo_checkpoint(ctx, nfiles):
    rec = int(MiB)
    for i in range(nfiles):
        path = f"/scratch/victim/ckpt{ctx.rank}_{i}.dat"
        fd = yield from ctx.io.open(path, O_CREAT | O_WRONLY | O_SYNC)
        ctx.io.region("write")
        yield from ctx.io.pwrite(fd, rec, 0)
        yield from ctx.io.close(fd)
    return nfiles * rec


def _collective_writer(ctx):
    """Two-phase write by hand: two aggregators gather their group's
    slabs over a split communicator, pay ``ctx.world.comm_world``'s
    shipping cost and write one coalesced run each."""
    f = yield from MpiFile.open(ctx, "/scratch/victim/coll.dat", 4)
    comm = ctx.comm
    sub = yield from comm.split(comm.rank * 2 // comm.size)
    slabs = yield from sub.gather((ctx.rank * MiB, MiB), root=0)
    if sub.rank == 0:
        inter = ctx.world.comm_world.interconnect
        ship = inter.collective_cost(sub.size, MiB * (sub.size - 1))
        if ship > 0:
            yield ctx.engine.timeout(ship)
        yield from f.write_at(min(o for o, _n in slabs),
                              sum(n for _o, n in slabs))
    yield from sub.barrier()
    yield from comm.barrier()
    yield from f.close()
    return None


def test_single_tenant_facility_is_byte_identical_to_simjob():
    machine = MachineConfig.shared_testbox()
    for workload, rank_fn, params in (
        ("checkpoint", _solo_checkpoint, {"nfiles": 8}),
        (_collective_writer, _collective_writer, {}),
    ):
        fac = Facility(
            machine,
            [TenantJob("victim", workload, 4, params=params)],
            seed=11,
        ).run()
        solo = SimJob(machine, 4, seed=11).run(rank_fn, **params)

        assert canonical_lines(fac.trace) == canonical_lines(solo.trace)
        assert fac.total_bytes == solo.trace.total_bytes
        assert fac.elapsed.hex() == solo.elapsed.hex()
        assert telemetry_digest(fac.telemetry) == telemetry_digest(
            solo.telemetry
        )
        # and the single job stays untagged: no tenant machinery leaks in
        jr = fac.jobs[0]
        assert jr.tenant == 0
        assert fac.telemetry.tenants == {}
        assert fac.telemetry.job_windows == ()
