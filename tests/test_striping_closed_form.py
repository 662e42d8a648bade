"""Differential tests: closed-form stripe arithmetic vs the extent walk.

``StripeLayout.bytes_per_ost``/``partial_stripes``, the extent-lock
tracker, the OST pool's per-device booking and the erasure-coded group
walk compute from stripe indices alone.  The per-stripe ``Extent`` walk
they replaced is kept here as the oracle, and Hypothesis checks the two
agree exactly: same dicts in the same key order, same owners, same
counters, bit-identical penalty floats.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosys import ost as ost_module
from repro.iosys.erasure import ErasureCodedLayout
from repro.iosys.locks import ExtentLockTracker
from repro.iosys.machine import MachineConfig
from repro.iosys.ost import OstPool
from repro.iosys.striping import StripeLayout
from repro.sim.rng import RngStreams

# -- the oracle: everything derived from StripeLayout.extents -------------------


def oracle_bytes_per_ost(lay: StripeLayout, offset: int, length: int) -> Dict[int, int]:
    acc: Dict[int, int] = {}
    for ext in lay.extents(offset, length):
        acc[ext.ost] = acc.get(ext.ost, 0) + ext.length
    return acc


def oracle_partial_stripes(lay: StripeLayout, offset: int, length: int) -> int:
    n = 0
    for ext in lay.extents(offset, length):
        stripe_start = ext.stripe_index * lay.stripe_size
        if not (ext.offset == stripe_start and ext.length == lay.stripe_size):
            n += 1
    return n


class OracleLockTracker:
    def __init__(self, revoke_cost: float):
        self.revoke_cost = float(revoke_cost)
        self._owner: Dict[int, int] = {}
        self.revocations = 0
        self.grants = 0

    def write_penalty(self, client, layout, offset, length, scale=1.0,
                      full_stripe_discount=0.2) -> float:
        if length <= 0:
            return 0.0
        penalty = 0.0
        for ext in layout.extents(offset, length):
            stripe = ext.stripe_index
            owner = self._owner.get(stripe)
            if owner is None:
                self.grants += 1
            elif owner != client:
                self.revocations += 1
                full = (
                    ext.offset == stripe * layout.stripe_size
                    and ext.length == layout.stripe_size
                )
                discount = full_stripe_discount if full else 1.0
                penalty += self.revoke_cost * scale * discount
            self._owner[stripe] = client
        return penalty


def oracle_groups_for(ec: ErasureCodedLayout, offset: int, length: int) -> List[int]:
    return sorted({e.stripe_index // ec.k for e in ec.base.extents(offset, length)})


def _ranges(ec, offset, length, lost=None) -> Dict[int, List[Tuple[int, int]]]:
    out: Dict[int, List[Tuple[int, int]]] = {}
    for e in ec.base.extents(offset, length):
        if lost is not None and e.ost not in lost:
            continue
        lo = e.offset - e.stripe_index * ec.base.stripe_size
        out.setdefault(e.stripe_index // ec.k, []).append((lo, lo + e.length))
    return out


def oracle_parity_updates(ec, offset, length):
    out = []
    for g, ranges in sorted(_ranges(ec, offset, length).items()):
        union = ec._union_length(ranges)
        if union <= 0:
            continue
        covered = sum(hi - lo for lo, hi in ranges)
        out.append((g, union, covered == ec.k * ec.base.stripe_size, ec.parity_osts(g)))
    return out


def oracle_reconstruction_plan(ec, offset, length, lost, avoid=()):
    lost_set = set(lost)
    avoid_set = set(avoid) | lost_set
    out = []
    for g, ranges in sorted(_ranges(ec, offset, length, lost_set).items()):
        survivors = [d for d in ec.group_osts(g) if d not in avoid_set]
        if len(survivors) < ec.k:
            return None  # the closed form must raise here too
        out.append((g, ec._union_length(ranges), tuple(survivors[: ec.k])))
    return out


# -- strategies -----------------------------------------------------------------

stripe_sizes = st.one_of(
    st.integers(1, 17),  # 1 and small non-powers of two
    st.sampled_from([4096, 65536, 1 << 20, 3 * 1000 + 7, 1_000_000]),
)


@st.composite
def layouts(draw) -> StripeLayout:
    n_osts = draw(st.integers(1, 16))
    return StripeLayout(
        stripe_size=draw(stripe_sizes),
        stripe_count=draw(st.integers(1, n_osts)),
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )


def extents_on(ss: int):
    """(offset, length) pairs, biased onto and just off stripe boundaries,
    spanning up to a few dozen stripes; zero lengths included."""
    near = st.builds(
        lambda idx, d: max(idx * ss + d, 0), st.integers(0, 40), st.integers(-2, 2)
    )
    raw = st.integers(0, 40 * ss)
    return st.tuples(st.one_of(near, raw), st.one_of(near, raw, st.just(0)))


@st.composite
def layout_and_extent(draw):
    lay = draw(layouts())
    offset, length = draw(extents_on(lay.stripe_size))
    return lay, offset, length


# -- StripeLayout ----------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(layout_and_extent())
def test_bytes_per_ost_matches_walk_including_key_order(case):
    lay, offset, length = case
    got = lay.bytes_per_ost(offset, length)
    want = oracle_bytes_per_ost(lay, offset, length)
    assert got == want
    assert list(got) == list(want)


@settings(max_examples=400, deadline=None)
@given(layout_and_extent())
def test_footprint_queries_match_walk(case):
    lay, offset, length = case
    exts = lay.extents(offset, length)
    assert lay.partial_stripes(offset, length) == oracle_partial_stripes(
        lay, offset, length
    )
    assert lay.osts_touched(offset, length) == tuple(
        oracle_bytes_per_ost(lay, offset, length)
    )
    assert lay.boundary_crossings(offset, length) == max(len(exts) - 1, 0)


# -- OstPool.write_penalty ---------------------------------------------------------


def oracle_write_penalty(pool, layout, offset, length, contention):
    """The penalty as three separate layout queries computed it, with
    the two stripe queries answered by the walk."""
    cfg = pool.config
    penalty = 0.0
    n_rpcs = layout.rpcs_for(length, cfg.rpc_size)
    penalty += n_rpcs * cfg.rpc_overhead
    partial = oracle_partial_stripes(layout, offset, length)
    if partial and cfg.rmw_cost > 0:
        pool.rmw_events += partial
        penalty += partial * cfg.rmw_cost * contention
    acc = oracle_bytes_per_ost(layout, offset, length)
    base, extra = divmod(n_rpcs, len(acc)) if acc else (0, 0)
    for i, ost in enumerate(sorted(acc)):
        pool.bytes_written[ost] += acc[ost]
        pool.rpcs[ost] += base + (1 if i < extra else 0)
    return penalty


@settings(max_examples=300, deadline=None)
@given(
    layout_and_extent(),
    st.sampled_from([1, 7, 4096, 1 << 20]),  # rpc_size
    st.sampled_from([0.0, 2.5e-4]),  # rpc_overhead
    st.sampled_from([0.0, 0.013]),  # rmw_cost
    st.sampled_from([1.0, 3.7]),  # contention
)
def test_write_penalty_matches_separate_queries(
    case, rpc_size, rpc_overhead, rmw_cost, contention
):
    lay, offset, length = case
    cfg = MachineConfig.testbox(
        n_osts=lay.n_osts, default_stripe_count=1, rpc_size=rpc_size,
        rpc_overhead=rpc_overhead, rmw_cost=rmw_cost,
    )
    new, old = OstPool(cfg, RngStreams(0)), OstPool(cfg, RngStreams(0))
    got = new.write_penalty(lay, offset, length, contention)
    want = oracle_write_penalty(old, lay, offset, length, contention)
    assert got.hex() == want.hex()
    assert new.rmw_events == old.rmw_events
    assert new.bytes_written.tolist() == old.bytes_written.tolist()
    assert new.rpcs.tolist() == old.rpcs.tolist()


def oracle_read_penalty(pool, layout, offset, length):
    cfg = pool.config
    n_rpcs = layout.rpcs_for(length, cfg.rpc_size)
    acc = oracle_bytes_per_ost(layout, offset, length)
    base, extra = divmod(n_rpcs, len(acc)) if acc else (0, 0)
    for i, ost in enumerate(sorted(acc)):
        pool.bytes_read[ost] += acc[ost]
        pool.rpcs[ost] += base + (1 if i < extra else 0)
    return n_rpcs * cfg.rpc_overhead


class HookRecorder:
    """Stands in for a TelemetryCollector: logs the per-device hooks."""

    def __init__(self):
        self.calls: List[tuple] = []

    def record_in(self, ost, nbytes, nrpcs, tenant=0):
        self.calls.append(("in", ost, nbytes, nrpcs, tenant))

    def record_out(self, ost, nbytes, nrpcs, tenant=0):
        self.calls.append(("out", ost, nbytes, nrpcs, tenant))


def oracle_hooks(pool, layout, offset, length, write, tenant):
    """The hook calls the per-device loop makes, in its order."""
    n_rpcs = layout.rpcs_for(length, pool.config.rpc_size)
    acc = oracle_bytes_per_ost(layout, offset, length)
    base, extra = divmod(n_rpcs, len(acc)) if acc else (0, 0)
    return [
        ("in" if write else "out", ost, acc[ost], base + (1 if i < extra else 0), tenant)
        for i, ost in enumerate(sorted(acc))
    ]


@st.composite
def wide_layouts(draw) -> StripeLayout:
    """Layouts wide enough for the sliced booking, often wrapping past
    the last device (``start_ost + stripe_count > n_osts``)."""
    n_osts = draw(st.integers(ost_module._SLICED_MIN_OSTS, 24))
    return StripeLayout(
        stripe_size=draw(st.sampled_from([1, 7, 4096, 1 << 20, 3 * 1000 + 7])),
        stripe_count=draw(st.integers(ost_module._SLICED_MIN_OSTS, n_osts)),
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )


@st.composite
def pool_sequences(draw):
    lay = draw(st.one_of(wide_layouts(), layouts()))
    ss, sc = lay.stripe_size, lay.stripe_count
    # up to three times round the device cycle, from any stripe
    wide = st.builds(
        lambda first, n, head, tail: (
            first * ss + min(head, ss - 1),
            max(n * ss - min(head, ss - 1) - min(tail, ss - 1), 1),
        ),
        st.integers(0, 3 * sc), st.integers(1, 3 * sc + 2),
        st.sampled_from([0, 1, 5, 1000]), st.sampled_from([0, 1, 3, 999]),
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # write?
                st.one_of(wide, extents_on(ss)),
                st.integers(0, 2),  # tenant
            ),
            min_size=1,
            max_size=12,
        )
    )
    return lay, ops


@settings(max_examples=300, deadline=None)
@given(
    pool_sequences(),
    st.sampled_from([1, 7, 4096, 1 << 20, 3 * (1 << 20) + 1]),  # rpc_size
    st.sampled_from([0.0, 2.5e-4]),  # rpc_overhead
    st.sampled_from([0.0, 0.013]),  # rmw_cost
    st.sampled_from([1.0, 3.7]),  # contention
    st.booleans(),  # telemetry hooks on
)
def test_pool_sequences_match_walk(
    case, rpc_size, rpc_overhead, rmw_cost, contention, telemetry
):
    """Many writes and reads on one pool, wide extents included: the
    sliced booking and the per-device loop give the walk's counters,
    and with telemetry on the hooks see the walk's per-device calls."""
    lay, ops = case
    cfg = MachineConfig.testbox(
        n_osts=lay.n_osts, default_stripe_count=1, rpc_size=rpc_size,
        rpc_overhead=rpc_overhead, rmw_cost=rmw_cost,
    )
    new, old = OstPool(cfg, RngStreams(0)), OstPool(cfg, RngStreams(0))
    hooks = HookRecorder()
    want_hooks: List[tuple] = []
    if telemetry:
        new.telemetry = hooks
    for write, (offset, length), tenant in ops:
        if write:
            got = new.write_penalty(lay, offset, length, contention, tenant)
            want = oracle_write_penalty(old, lay, offset, length, contention)
        else:
            got = new.read_penalty(lay, offset, length, tenant)
            want = oracle_read_penalty(old, lay, offset, length)
        if telemetry:
            want_hooks += oracle_hooks(old, lay, offset, length, write, tenant)
        assert got.hex() == want.hex()
        assert new.rmw_events == old.rmw_events
        assert new.bytes_written.tolist() == old.bytes_written.tolist()
        assert new.bytes_read.tolist() == old.bytes_read.tolist()
        assert new.rpcs.tolist() == old.rpcs.tolist()
    assert hooks.calls == want_hooks
    # the counters stay live NumPy arrays
    assert isinstance(new.bytes_written, np.ndarray)
    assert isinstance(new.rpcs, np.ndarray)


# -- ExtentLockTracker --------------------------------------------------------------


@st.composite
def write_sequences(draw):
    lay = draw(layouts())
    writes = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # client
                extents_on(lay.stripe_size),
                st.sampled_from([1.0, 0.5, 3.7]),  # contention scale
                st.sampled_from([0.2, 0.0, 1.0 / 3.0]),  # full-stripe discount
            ),
            max_size=25,
        )
    )
    return lay, writes


@settings(max_examples=300, deadline=None)
@given(write_sequences(), st.sampled_from([0.013, 1e-3, 0.1]))
def test_lock_tracker_matches_walk(case, revoke_cost):
    lay, writes = case
    new, old = ExtentLockTracker(revoke_cost), OracleLockTracker(revoke_cost)
    for client, (offset, length), scale, discount in writes:
        got = new.write_penalty(client, lay, offset, length, scale, discount)
        want = old.write_penalty(client, lay, offset, length, scale, discount)
        assert got.hex() == want.hex()  # bit-identical, not approximately
        assert (new.grants, new.revocations) == (old.grants, old.revocations)
    top = max(old._owner, default=0)
    for stripe in range(top + 2):
        assert new.owner_of(stripe) == old._owner.get(stripe)


# -- ErasureCodedLayout ---------------------------------------------------------------


@st.composite
def coded_cases(draw):
    n_osts = draw(st.integers(2, 16))
    base = StripeLayout(
        stripe_size=draw(stripe_sizes),
        stripe_count=draw(st.integers(1, n_osts - 1)),
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )
    k = draw(st.integers(1, base.stripe_count))
    ec = ErasureCodedLayout(base, k, draw(st.integers(1, n_osts - k)))
    offset, length = draw(extents_on(base.stripe_size))
    lost = draw(st.sets(st.integers(0, n_osts - 1), max_size=3))
    avoid = draw(st.sets(st.integers(0, n_osts - 1), max_size=2))
    return ec, offset, length, lost, avoid


@settings(max_examples=400, deadline=None)
@given(coded_cases())
def test_erasure_group_walk_matches_walk(case):
    ec, offset, length, lost, avoid = case
    assert ec.groups_for(offset, length) == oracle_groups_for(ec, offset, length)
    got = [
        (u.group, u.nbytes, u.full, u.parity_osts)
        for u in ec.parity_updates(offset, length)
    ]
    assert got == oracle_parity_updates(ec, offset, length)
    want: Optional[list] = oracle_reconstruction_plan(ec, offset, length, lost, avoid)
    try:
        plan = ec.reconstruction_plan(offset, length, lost, avoid)
    except ValueError:
        assert want is None
    else:
        assert [(s.group, s.nbytes, s.survivor_osts) for s in plan] == want
