"""Per-tenant telemetry accounting and facility mechanics.

The load-bearing invariant is *conservation*: tenant attribution is a
partition of the server's counters, not an estimate, so on every
telemetry bucket the per-tenant bytes/RPCs/MDS ops must sum exactly to
the untagged per-OST and MDS totals -- including when the data path goes
through replicated or erasure-coded layouts, whose amplification
(mirror copies, parity units, reconstruction reads) must be charged to
the tenant that caused it.  The rest pins the facility's bookkeeping:
1-based tenant ids, the job-residency ledger, and the error surface.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosys.machine import MachineConfig
from repro.iosys.scheduler import (
    Facility,
    TenantJob,
    TraceArrivals,
    assign_arrivals,
)
from repro.iosys.telemetry import TENANT_OST_FIELDS

_MIX = [
    TenantJob("vic", "checkpoint", 2, params={"nfiles": 3}),
    TenantJob("meta", "mds-storm", 2, arrival=0.1, params={"nfiles": 2}),
    TenantJob("bulk", "madbench", 2, arrival=0.2,
              params={"nrec": 2, "rec_mib": 1.0}),
]


def _machine(layout: str) -> MachineConfig:
    if layout == "replica":
        return MachineConfig.shared_testbox(
            replica_count=2, client_retry=True
        )
    if layout == "ec":
        return MachineConfig.shared_testbox(
            ec_k=2, ec_m=1, client_retry=True
        )
    return MachineConfig.shared_testbox()


def _assert_conserved(tl) -> None:
    assert tl is not None and tl.tenants
    for name in TENANT_OST_FIELDS:
        if name == "queue_depth":
            continue  # per-tenant maxima, not a partition
        summed = sum(fields[name] for fields in tl.tenant_ost.values())
        np.testing.assert_allclose(
            summed, tl.ost[name], err_msg=f"tenant sums diverge on {name}"
        )
    np.testing.assert_allclose(
        sum(tl.tenant_mds.values()),
        tl.mds["mds_ops"],
        err_msg="tenant sums diverge on mds_ops",
    )


# -- conservation ---------------------------------------------------------------

@pytest.mark.parametrize("layout", ["plain", "replica", "ec"])
def test_tenant_counters_partition_totals(layout):
    res = Facility(_machine(layout), _MIX, seed=7).run()
    _assert_conserved(res.telemetry)


@settings(max_examples=6, deadline=None)
@given(
    layout=st.sampled_from(["plain", "replica", "ec"]),
    seed=st.integers(min_value=0, max_value=10_000),
    storm_tasks=st.integers(min_value=1, max_value=4),
    arrival=st.floats(min_value=0.0, max_value=0.5,
                      allow_nan=False, allow_infinity=False),
)
def test_conservation_holds_across_mixes(layout, seed, storm_tasks, arrival):
    jobs = [
        TenantJob("vic", "checkpoint", 2, params={"nfiles": 2}),
        TenantJob("storm", "mds-storm", storm_tasks, arrival=arrival,
                  params={"nfiles": 2}),
    ]
    res = Facility(_machine(layout), jobs, seed=seed).run()
    _assert_conserved(res.telemetry)


def test_unattributed_bucket_stays_empty_when_all_jobs_tagged():
    res = Facility(_machine("plain"), _MIX, seed=7).run()
    tl = res.telemetry
    assert 0 not in tl.tenant_ost and 0 not in tl.tenant_mds
    assert sorted(tl.tenants) == [1, 2, 3]


# -- facility bookkeeping -------------------------------------------------------

def test_tenant_ids_are_one_based_and_ledgered():
    res = Facility(_machine("plain"), _MIX, seed=7).run()
    assert [jr.tenant for jr in res.jobs] == [1, 2, 3]
    ledger = {w.tenant: w for w in res.telemetry.job_windows}
    assert sorted(ledger) == [1, 2, 3]
    for jr in res.jobs:
        w = ledger[jr.tenant]
        assert w.name == jr.name
        assert w.t_start == pytest.approx(jr.t_start)
        assert w.t_end == pytest.approx(jr.t_end)
    assert res.job("meta").t_start == pytest.approx(0.1)


def test_job_lookup_raises_on_unknown_name():
    res = Facility(_machine("plain"), _MIX[:2], seed=7).run()
    with pytest.raises(KeyError, match="nosuch"):
        res.job("nosuch")


def test_duplicate_job_names_rejected():
    with pytest.raises(ValueError, match="duplicate job names"):
        Facility(
            _machine("plain"),
            [TenantJob("a", "idle", 1), TenantJob("a", "idle", 1)],
            seed=0,
        )


def test_empty_facility_rejected():
    with pytest.raises(ValueError, match="at least one job"):
        Facility(_machine("plain"), [], seed=0)


def test_facility_runs_only_once():
    fac = Facility(
        _machine("plain"),
        [TenantJob("a", "idle", 1, params={"nops": 1, "pause": 0.01})],
        seed=0,
    )
    fac.run()
    with pytest.raises(RuntimeError, match="already ran"):
        fac.run()


def _stuck(ctx):
    yield ctx.engine.event()  # never triggered


class _RankCrash(Exception):
    pass


def _crash(ctx):
    yield ctx.engine.timeout(0.01)
    if ctx.rank == 1:
        raise _RankCrash(f"{ctx.job.name} rank 1 failed")


_OK = TenantJob("ok", "idle", 1, params={"nops": 1, "pause": 0.01})


def test_deadlocked_tenant_is_reported_by_name():
    jobs = [_OK, TenantJob("stuck", _stuck, 2, arrival=0.1)]
    with pytest.raises(
        RuntimeError,
        match=r"deadlock or truncated run: ranks never finished: "
              r"\['rank0', 'rank1', 'job1:stuck'\]",
    ):
        Facility(_machine("plain"), jobs, seed=0).run()


@pytest.mark.parametrize("arrival", [0.0, 0.1])
def test_failing_tenant_rank_reraises(arrival):
    jobs = [_OK, TenantJob("bad", _crash, 2, arrival=arrival)]
    with pytest.raises(_RankCrash, match="bad rank 1 failed"):
        Facility(_machine("plain"), jobs, seed=0).run()


def test_bad_tenant_job_fields_rejected():
    with pytest.raises(ValueError, match="ntasks must be >= 1"):
        TenantJob("a", "idle", 0)
    with pytest.raises(ValueError, match="arrival must be >= 0"):
        TenantJob("a", "idle", 1, arrival=-1.0)
    with pytest.raises(ValueError, match="unknown workload"):
        Facility(
            _machine("plain"), [TenantJob("a", "nosuch", 1)], seed=0
        )


def test_trace_arrivals_must_cover_every_job():
    with pytest.raises(ValueError, match="2 arrivals but 3 jobs"):
        assign_arrivals(_MIX, TraceArrivals([0.0, 1.0]))


def test_tenancy_fixed_before_first_io():
    fac = Facility(_machine("plain"), _MIX, seed=7)
    fac.iosys.client_for(0)  # builds node 0's client lazily
    with pytest.raises(ValueError, match="tenancy is fixed"):
        fac.iosys.set_node_tenant(fac.iosys.node_of(0), 2)
