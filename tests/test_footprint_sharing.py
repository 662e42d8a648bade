"""Differential tests: one device footprint per op vs per-call derivation.

``ReplicatedLayout`` builds its copy layouts once and ``replica(r)``
returns the stored copy; ``LustreClient`` derives each copy's
``bytes_per_ost`` once per op and passes it to the ``OstPool`` methods
as ``footprint``.  The per-call derivation they replaced is kept here
as the oracle: a fresh ``StripeLayout`` per ``replica(r)`` call, and
pool methods that derive the footprint inside every call.  Hypothesis
checks that the pool given the client's footprints gives the oracle's
answers, with the booking calls (``write_penalty``/``read_penalty``)
handed the footprint and handed none: bit-identical penalty and
slow-down floats, equal stall ends, counters and telemetry ledger.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosys.erasure import ErasureCodedLayout
from repro.iosys.faults import DEGRADE, STALL, FaultSchedule, FaultWindow
from repro.iosys.machine import MachineConfig
from repro.iosys.ost import OstPool, _SLICED_MIN_OSTS
from repro.iosys.replication import ReplicatedLayout, union_footprint
from repro.iosys.striping import StripeLayout, partial_stripe_count
from repro.iosys.telemetry import TelemetryCollector
from repro.sim.rng import RngStreams

# -- the oracle: footprints derived inside every call ---------------------------


def oracle_replica(rep: ReplicatedLayout, r: int) -> StripeLayout:
    """``replica(r)`` as it was: a new layout built on every call."""
    if not (0 <= r < rep.replica_count):
        raise ValueError(
            f"replica index {r} out of range for {rep.replica_count} copies"
        )
    if r == 0:
        return rep.base
    return StripeLayout(
        stripe_size=rep.base.stripe_size,
        stripe_count=rep.base.stripe_count,
        n_osts=rep.base.n_osts,
        start_ost=(rep.base.start_ost + r * rep.replica_shift)
        % rep.base.n_osts,
    )


class OracleMirror:
    """A mirror's union footprint, summed over freshly built copies."""

    def __init__(self, rep: ReplicatedLayout):
        self.rep = rep

    def bytes_per_ost(self, offset: int, length: int) -> Dict[int, int]:
        acc: Dict[int, int] = {}
        for r in range(self.rep.replica_count):
            lay = oracle_replica(self.rep, r)
            for ost, nbytes in lay.bytes_per_ost(offset, length).items():
                acc[ost] = acc.get(ost, 0) + nbytes
        return acc


class PerCallPool(OstPool):
    """The pool's footprint consumers as they were, each deriving the
    extent's footprint itself from the layout and extent.  The inherited
    ``ec_write_penalty``, given None, hands its data side to
    :meth:`write_penalty`, which derives it."""

    def write_penalty(self, layout, offset, length, contention=1.0, tenant=0,
                      footprint=None):
        assert footprint is None
        cfg = self.config
        n_rpcs = (length + cfg.rpc_size - 1) // cfg.rpc_size
        tel = self.telemetry
        self._book_per_call(
            layout, offset, length, n_rpcs, self.bytes_written,
            None if tel is None else tel.record_in, tenant,
        )
        if not length:
            return 0.0
        penalty = n_rpcs * cfg.rpc_overhead
        if cfg.rmw_cost > 0:
            partial = partial_stripe_count(layout.stripe_size, offset, length)
            if partial:
                self.rmw_events += partial
                penalty += partial * cfg.rmw_cost * contention
        return penalty

    def read_penalty(self, layout, offset, length, tenant=0):
        cfg = self.config
        n_rpcs = layout.rpcs_for(length, cfg.rpc_size)
        tel = self.telemetry
        self._book_per_call(
            layout, offset, length, n_rpcs, self.bytes_read,
            None if tel is None else tel.record_out, tenant,
        )
        return n_rpcs * cfg.rpc_overhead

    def _book_per_call(self, layout, offset, length, n_rpcs, counter, hook,
                       tenant):
        if (
            layout.stripe_count >= _SLICED_MIN_OSTS
            and hook is None
            and length >= _SLICED_MIN_OSTS * layout.stripe_size
        ):
            self._book_sliced(layout, offset, length, n_rpcs, counter)
            return
        acc = layout.bytes_per_ost(offset, length)
        base, extra = divmod(n_rpcs, len(acc)) if acc else (0, 0)
        for i, ost in enumerate(sorted(acc)):
            share = base + (1 if i < extra else 0)
            counter[ost] += acc[ost]
            self.rpcs[ost] += share
            if hook is not None:
                hook(ost, acc[ost], share, tenant)

    def degraded_read_penalty(self, layout, offset, length):
        cfg = self.config
        self.degraded_reads += 1
        if self.telemetry is not None:
            self.telemetry.record_degraded(layout.bytes_per_ost(offset, length))
        return layout.rpcs_for(length, cfg.rpc_size) * cfg.degraded_read_cost

    def slow_factor(self, layout, offset, length, now=None):
        cfg = self.config
        if length <= 0:
            return 1.0
        if not cfg.ost_slowdown and cfg.faults is None:
            return 1.0
        touched = layout.bytes_per_ost(offset, length)
        factor = max(
            (cfg.ost_slowdown.get(ost, 1.0) for ost in touched), default=1.0
        )
        if cfg.faults is not None and now is not None:
            factor = max(factor, cfg.faults.degrade_factor(now, touched))
        return factor

    def stall_until(self, layout, offset, length, now):
        sched = self.config.faults
        if sched is None or sched.is_empty or length <= 0:
            return None
        return sched.stall_end(now, layout.bytes_per_ost(offset, length))


# -- (a) stored copies ------------------------------------------------------------


@st.composite
def mirrors(draw) -> ReplicatedLayout:
    n_osts = draw(st.integers(1, 24))
    base = StripeLayout(
        stripe_size=draw(st.sampled_from([1, 7, 4096, 1 << 20])),
        stripe_count=draw(st.integers(1, n_osts)),
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )
    return ReplicatedLayout(base, draw(st.integers(1, n_osts)))


@settings(max_examples=300, deadline=None)
@given(mirrors(), st.integers(0, 5000), st.integers(0, 5000))
def test_stored_copies_match_per_call_construction(rep, offset, length):
    want = [oracle_replica(rep, r) for r in range(rep.replica_count)]
    assert [rep.replica(r) for r in range(rep.replica_count)] == want
    assert rep.layouts() == tuple(want)
    assert rep.replica(0) is rep.base
    # the same object every call, not a fresh equal one
    assert all(rep.replica(r) is rep.layouts()[r] for r in range(rep.replica_count))
    for bad in (-1, rep.replica_count, rep.replica_count + 3):
        with pytest.raises(ValueError, match="out of range"):
            rep.replica(bad)
    got = rep.bytes_per_ost(offset, length)
    union = OracleMirror(rep).bytes_per_ost(offset, length)
    assert got == union and list(got) == list(union)
    copies = [c.bytes_per_ost(offset, length) for c in rep.layouts()]
    assert list(union_footprint(copies).items()) == list(union.items())
    # the stored copies stay out of equality, hashing and repr
    twin = ReplicatedLayout(rep.base, rep.replica_count)
    assert twin == rep and hash(twin) == hash(rep)
    assert "_copies" not in repr(rep)


# -- (b) footprint passed vs derived per call ------------------------------------


class Clock:
    now = 0.0


@st.composite
def placements(draw):
    """``(layout, mirror, code)``: plain stripes, a 2- or 3-copy mirror,
    or a 4+1 / 4+2 erasure code, on 6..16 devices."""
    n_osts = draw(st.integers(6, 16))
    kind = draw(st.sampled_from(["plain", "mirror2", "mirror3", "ec41", "ec42"]))
    low = 4 if kind.startswith("ec") else 1
    base = StripeLayout(
        stripe_size=draw(st.sampled_from([7, 4096, 1 << 16])),
        stripe_count=draw(st.integers(low, n_osts)),
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )
    rep = code = None
    if kind.startswith("mirror"):
        rep = ReplicatedLayout(base, int(kind[-1]))
    elif kind.startswith("ec"):
        code = ErasureCodedLayout(base, 4, int(kind[-1]))
    return base, rep, code


@st.composite
def schedules(draw, n_osts: int) -> Optional[FaultSchedule]:
    if draw(st.booleans()):
        return None
    windows = draw(
        st.lists(
            st.builds(
                lambda kind, dev, t0, span, f: FaultWindow(
                    kind, t0, t0 + span, device=dev,
                    factor=f if kind == DEGRADE else 1.0,
                ),
                st.sampled_from([STALL, DEGRADE]),
                st.integers(0, n_osts - 1),
                st.sampled_from([0.0, 0.5, 1.0]),
                st.sampled_from([0.25, 1.0, 2.0]),
                st.sampled_from([1.0, 3.0, 7.5]),
            ),
            max_size=3,
            unique_by=lambda w: (w.kind, w.device),
        )
    )
    return FaultSchedule.of(*windows)


@st.composite
def scenarios(draw):
    base, rep, code = draw(placements())
    ss, sc = base.stripe_size, base.stripe_count
    extent = st.tuples(
        st.one_of(
            st.integers(0, 3 * sc * ss),
            st.builds(lambda i, d: max(i * ss + d, 0),
                      st.integers(0, 3 * sc), st.integers(-1, 1)),
        ),
        st.one_of(st.just(0), st.integers(1, (2 * sc + 3) * ss)),
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # write?
                extent,
                st.sampled_from([0.0, 0.6, 1.4, 2.5]),  # now
                st.integers(0, 2),  # tenant
                st.integers(0, 2),  # serving copy of a mirrored read
            ),
            min_size=1,
            max_size=8,
        )
    )
    sched = draw(schedules(base.n_osts))
    slowdown = draw(
        st.dictionaries(
            st.integers(0, base.n_osts - 1), st.sampled_from([2.0, 4.0]),
            max_size=2,
        )
    )
    return base, rep, code, ops, sched, slowdown


def _pools(cfg: MachineConfig, telemetry: bool, tenants: bool):
    pools = [PerCallPool(cfg, RngStreams(0)), OstPool(cfg, RngStreams(0)),
             OstPool(cfg, RngStreams(0))]
    clock = Clock()
    if telemetry:
        for pool in pools:
            pool.telemetry = TelemetryCollector(cfg, clock)
            if tenants:
                pool.telemetry.register_tenant(1, "a")
                pool.telemetry.register_tenant(2, "b")
    return pools, clock


def _hex(x: Optional[float]) -> Optional[str]:
    return None if x is None else float(x).hex()


def _oracle_queries(old, write, lays, whole, code, offset, length, now,
                    tenant, serve, contention) -> list:
    """One op's pool queries as the client issues them, on the oracle:
    the stall query on the whole placement, then an erasure-coded write,
    a write and its slow-down per mirror copy, or a read served by copy
    ``serve``."""
    out: list = [_hex(old.stall_until(whole, offset, length, now))]
    if write and code is not None:
        pen, parity = old.ec_write_penalty(
            code, offset, length, None, contention, tenant
        )
        out += [_hex(pen), parity,
                _hex(old.slow_factor(code, offset, length, now))]
    elif write:
        for lay in lays:
            out.append(_hex(old.write_penalty(
                lay, offset, length, contention, tenant
            )))
            out.append(_hex(old.slow_factor(lay, offset, length, now)))
    else:
        r = serve % len(lays)
        out.append(_hex(old.read_penalty(lays[r], offset, length, tenant)))
        if r:
            out.append(_hex(old.degraded_read_penalty(lays[r], offset, length)))
        out.append(_hex(old.slow_factor(lays[r], offset, length, now)))
    return out


def _pool_queries(pool, write, lays, code, copies, full, book, offset, length,
                  now, tenant, serve, contention) -> list:
    """The same queries on the pool, given the op's per-copy ``copies``
    and whole-placement ``full`` footprints as the client derives them.
    ``book`` is what the booking calls get per copy: ``copies``, or None
    each, so that they derive their own."""
    out: list = [_hex(pool.stall_until(full, now))]
    if write and code is not None:
        pen, parity = pool.ec_write_penalty(
            code, offset, length, copies[0], contention, tenant
        )
        out += [_hex(pen), parity, _hex(pool.slow_factor(full, now))]
    elif write:
        for r, lay in enumerate(lays):
            out.append(_hex(pool.write_penalty(
                lay, offset, length, contention, tenant, book[r]
            )))
            out.append(_hex(pool.slow_factor(copies[r], now)))
    else:
        r = serve % len(lays)
        out.append(_hex(pool.read_penalty(
            lays[r], offset, length, tenant, book[r]
        )))
        if r:
            out.append(_hex(pool.degraded_read_penalty(
                lays[r], length, copies[r]
            )))
        out.append(_hex(pool.slow_factor(copies[r], now)))
    return out


@settings(max_examples=300, deadline=None)
@given(
    scenarios(),
    st.sampled_from([7, 4096, 1 << 16]),  # rpc_size
    st.sampled_from([0.0, 0.013]),  # rmw_cost
    st.sampled_from([1.0, 3.7]),  # contention
    st.booleans(),  # telemetry on
    st.booleans(),  # two tenants registered
)
def test_pool_queries_match_per_call_derivation(
    case, rpc_size, rmw_cost, contention, telemetry, tenants
):
    """Each op as the client issues it, against three pools: the
    oracle, and the pool given the op's footprints the way
    ``LustreClient`` derives them, with its booking calls handed none
    and handed the copies' footprints."""
    base, rep, code, ops, sched, slowdown = case
    cfg = MachineConfig.testbox(
        n_osts=base.n_osts, default_stripe_count=1, rpc_size=rpc_size,
        rpc_overhead=2.5e-4, rmw_cost=rmw_cost, faults=sched,
        ost_slowdown=slowdown,
    )
    (old, bare, fed), clock = _pools(cfg, telemetry, tenants)
    for write, (offset, length), now, tenant, serve in ops:
        clock.now = now
        # the op's footprints, derived once as the client does
        if rep is not None:
            lays = rep.layouts()
            copies: List[Dict[int, int]] = [
                c.bytes_per_ost(offset, length) for c in lays
            ]
            full = union_footprint(copies)
            old_lays = [oracle_replica(rep, r) for r in range(len(lays))]
            whole = OracleMirror(rep)
        else:
            lays = old_lays = [base]
            copies = [base.bytes_per_ost(offset, length)]
            full = (
                copies[0] if code is None
                else code.bytes_per_ost(offset, length, copies[0])
            )
            whole = base if code is None else code
        want = _oracle_queries(old, write, old_lays, whole, code, offset,
                               length, now, tenant, serve, contention)
        for pool, book in ((bare, [None] * len(lays)), (fed, copies)):
            assert _pool_queries(pool, write, lays, code, copies, full, book,
                                 offset, length, now, tenant, serve,
                                 contention) == want
        for pool in (bare, fed):
            assert pool.bytes_written.tolist() == old.bytes_written.tolist()
            assert pool.bytes_read.tolist() == old.bytes_read.tolist()
            assert pool.rpcs.tolist() == old.rpcs.tolist()
            assert (pool.rmw_events, pool.degraded_reads, pool.parity_bytes) == (
                old.rmw_events, old.degraded_reads, old.parity_bytes
            )
            if telemetry:
                assert pool.telemetry._ost == old.telemetry._ost
                assert pool.telemetry._tost == old.telemetry._tost


@settings(max_examples=200, deadline=None)
@given(
    schedules(8),
    st.sampled_from([0.0, 0.25, 0.6, 1.0, 1.4, 2.5, 3.0]),
)
def test_stalled_devices_match_per_device_stall_end(sched, t):
    if sched is None:
        return
    stalled = sched.stalled_devices(t)
    for d in range(8):
        assert (d in stalled) == (sched.stall_end(t, (d,)) is not None)


# -- the client derives each footprint once ---------------------------------------


@pytest.mark.parametrize(
    "overrides, stripes, per_op",
    [
        # a wide plain extent with nothing to probe books sliced: no footprint
        ({}, 8, 0),
        # a narrow one books device by device over one derived footprint
        ({}, 2, 1),
        # telemetry reads the same footprint as the booking
        ({"telemetry": True}, 2, 1),
        ({"telemetry": True}, 8, 1),
        # each mirror copy once, telemetry, faults and steering included
        ({"replica_count": 2, "telemetry": True}, 2, 2),
        ({"replica_count": 3, "faults": FaultSchedule.of(
            FaultWindow(STALL, 5.0, 6.0, device=1))}, 2, 3),
    ],
)
def test_client_derives_each_footprint_once(monkeypatch, overrides, stripes,
                                            per_op):
    from repro.apps.harness import SimJob
    from repro.iosys.machine import MiB
    from repro.iosys.scheduler import fpt_write_read

    calls = {"bytes_per_ost": 0, "osts_touched": 0}
    for name in calls:
        real = getattr(StripeLayout, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(StripeLayout, name, counted)
    ntasks, nrec = 2, 3
    cfg = MachineConfig.testbox(n_osts=8, **overrides)
    SimJob(cfg, ntasks, seed=3).run(
        fpt_write_read, "/scratch/fp", nrec, stripes * MiB, stripes * MiB,
        stripes,
    )
    assert calls == {"bytes_per_ost": per_op * ntasks * 2 * nrec,
                     "osts_touched": 0}


def test_erasure_write_slows_for_a_slow_parity_device():
    """An erasure-coded write waits on its parity devices too: the slow
    factor reads the full footprint, not only the data devices."""
    from repro.apps.harness import SimJob
    from repro.iosys.machine import MiB
    from repro.iosys.scheduler import fpt_write_read

    def run(slowdown):
        cfg = MachineConfig.testbox(n_osts=8, ec_k=4, ec_m=1,
                                    ost_slowdown=slowdown)
        return SimJob(cfg, 1, seed=3).run(
            # past the 8 MiB dirty quota, so the wire transfer pays it
            fpt_write_read, "/scratch/ec", 1, 16 * MiB, 16 * MiB, 4
        )

    healthy = run({})
    code = healthy.iosys.lookup("/scratch/ec.0000").erasure
    (parity,) = code.parity_osts(0)
    assert parity not in code.data_osts(0)
    assert run({parity: 5.0}).elapsed > healthy.elapsed
