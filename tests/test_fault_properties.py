"""Hypothesis property tests for the fault-injection subsystem.

Two families:

- *schedule invariants*: whatever windows Hypothesis throws at it, a
  constructed :class:`FaultSchedule` is canonically sorted, per-(kind,
  device) non-overlapping, and all its factors are >= 1;
- *simulation invariants*: on small seeded workloads with arbitrary stall
  windows, total bytes are conserved across retries and simulated event
  times never decrease.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.harness import SimJob
from repro.iosys.faults import (
    DEGRADE,
    KINDS,
    MDS_HICCUP,
    STALL,
    TAIL_BURST,
    FaultSchedule,
    FaultWindow,
)
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.scheduler import shared_write

N_OSTS = 8


# -- strategies ----------------------------------------------------------------

@st.composite
def fault_windows(draw):
    kind = draw(st.sampled_from(KINDS))
    t0 = draw(st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False))
    span = draw(st.floats(0.01, 20.0, allow_nan=False, allow_infinity=False))
    device = (
        draw(st.integers(0, N_OSTS - 1)) if kind in (DEGRADE, STALL) else None
    )
    factor = draw(st.floats(1.0, 64.0, allow_nan=False, allow_infinity=False))
    return FaultWindow(kind, t0, t0 + span, device=device, factor=factor)


def _try_schedule(windows):
    """Build a schedule, or None when the draw violates the per-device
    non-overlap invariant (rejection is itself the behaviour under test)."""
    try:
        return FaultSchedule.of(*windows)
    except ValueError:
        return None


# -- schedule invariants -------------------------------------------------------

@given(st.lists(fault_windows(), max_size=8))
def test_schedule_is_sorted_and_non_overlapping(windows):
    sched = _try_schedule(windows)
    if sched is None:
        # the constructor must have rejected a genuine same-key overlap
        seen = {}
        overlap = False
        for w in sorted(windows, key=lambda w: w.t_start):
            key = (w.kind, w.device)
            if key in seen and w.t_start < seen[key]:
                overlap = True
            seen[key] = max(seen.get(key, 0.0), w.t_end)
        assert overlap
        return
    starts = [w.t_start for w in sched.windows]
    assert starts == sorted(starts)
    per_key = {}
    for w in sched.windows:
        for prev in per_key.get((w.kind, w.device), []):
            assert not w.overlaps(prev)
        per_key.setdefault((w.kind, w.device), []).append(w)
        assert w.factor >= 1.0


@given(st.lists(fault_windows(), max_size=8), st.floats(0.0, 80.0))
def test_queries_reflect_active_windows(windows, t):
    sched = _try_schedule(windows)
    if sched is None:
        return
    active = [w for w in sched.windows if w.active_at(t)]
    expect_degrade = max(
        (w.factor for w in active if w.kind == DEGRADE), default=1.0
    )
    assert sched.degrade_factor(t, range(N_OSTS)) == expect_degrade
    stalls = [w.t_end for w in active if w.kind == STALL]
    assert sched.stall_end(t, range(N_OSTS)) == (max(stalls) if stalls else None)
    expect_mds = max(
        (w.factor for w in active if w.kind == MDS_HICCUP), default=1.0
    )
    assert sched.mds_factor(t) == expect_mds
    expect_burst = max(
        (w.factor for w in active if w.kind == TAIL_BURST), default=1.0
    )
    assert sched.tail_boost(t) == expect_burst


# -- simulation invariants -----------------------------------------------------

RECORD = 256 * 1024
NREC = 20
NTASKS = 4


def _simulate(stall_t0, stall_span, device, retry, seed):
    """The shared-file write with one OST stalled over
    ``[stall_t0, stall_t0 + stall_span)``, or healthy when ``stall_t0``
    is None."""
    sched = FaultSchedule.of(
        *(() if stall_t0 is None else (
            FaultWindow(STALL, stall_t0, stall_t0 + stall_span, device=device),
        ))
    )
    machine = MachineConfig.testbox(
        n_osts=N_OSTS, fs_bw=1024 * MiB, discipline_weights={4: 1.0}
    ).with_overrides(
        faults=sched,
        client_retry=retry,
        # small timeouts keep the worst case fast under Hypothesis
        retry_base_timeout=0.05,
        retry_max_timeout=0.8,
        rpc_resend_interval=2.0,
    )
    job = SimJob(machine, NTASKS, seed=seed, placement="packed")
    return job.run(shared_write, "/scratch/prop.dat", NREC, RECORD, N_OSTS)


@lru_cache(maxsize=None)
def _healthy_elapsed():
    """How long the write takes without a fault (testbox has no noise,
    so the seed does not matter)."""
    return _simulate(None, 0.0, 0, False, 0).elapsed


@given(
    onset=st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
    stall_span=st.floats(0.05, 1.5, allow_nan=False),
    device=st.integers(0, N_OSTS - 1),
    retry=st.booleans(),
    seed=st.integers(0, 1000),
)
# a stall from t=0 must meet the writes, with and without client retry
@example(onset=0.0, stall_span=0.05, device=0, retry=True, seed=1)
@example(onset=0.0, stall_span=1.5, device=N_OSTS - 1, retry=False, seed=3)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_bytes_conserved_and_time_monotone(
    onset, stall_span, device, retry, seed
):
    # the stall starts inside the healthy run, as a fraction of its span
    stall_t0 = onset * _healthy_elapsed()
    res = _simulate(stall_t0, stall_span, device, retry, seed)
    if onset == 0.0:
        assert res.meta["retries"] > 0
    # every payload byte lands exactly once, however many resends happened
    assert res.total_bytes == NTASKS * NREC * RECORD
    assert res.iosys.total_bytes_written() == NTASKS * NREC * RECORD
    trace = res.trace
    assert (trace.durations >= 0).all()
    assert (trace.starts >= 0).all()
    assert float(trace.ends.max()) <= res.elapsed + 1e-9
    # per-rank event streams are recorded in non-decreasing start order
    for rank in range(NTASKS):
        sub = trace.filter(ranks=[rank])
        assert (np.diff(sub.starts) >= -1e-12).all()
    # retry meta-events appear iff resends were counted
    n_retry_events = len(trace.filter(ops=["retry"]))
    if res.meta["retries"] > 0:
        assert n_retry_events > 0
    else:
        assert n_retry_events == 0
