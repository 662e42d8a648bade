"""Unit tests for shared-resource primitives."""

import pytest

from repro.sim.engine import SimulationError
from repro.sim.resources import (
    FifoQueueMixin,
    Semaphore,
    Server,
    SlotChannel,
)


def completions(engine, events):
    """Collect (finish_time, value) for each event."""
    out = [None] * len(events)
    for i, ev in enumerate(events):
        ev.add_callback(lambda e, i=i: out.__setitem__(i, engine.now))
    engine.run()
    return out


class TestSlotChannel:
    def test_exclusive_service_harmonics(self, engine):
        ch = SlotChannel(engine, bandwidth=64.0, slots=1)
        evs = [ch.transfer(128.0) for _ in range(4)]
        assert completions(engine, evs) == [2.0, 4.0, 6.0, 8.0]

    def test_two_slots_pairwise(self, engine):
        ch = SlotChannel(engine, bandwidth=64.0, slots=2)
        evs = [ch.transfer(128.0) for _ in range(4)]
        assert completions(engine, evs) == [4.0, 4.0, 8.0, 8.0]

    def test_fair_share_all_finish_together(self, engine):
        ch = SlotChannel(engine, bandwidth=64.0, slots=4)
        evs = [ch.transfer(128.0) for _ in range(4)]
        assert completions(engine, evs) == [8.0] * 4

    def test_factor_scales_duration(self, engine):
        ch = SlotChannel(engine, bandwidth=10.0, slots=1)
        ev = ch.transfer(10.0, factor=2.5)
        assert completions(engine, [ev]) == [2.5]

    def test_bytes_conserved(self, engine):
        ch = SlotChannel(engine, bandwidth=100.0, slots=2)
        for n in (10, 20, 30):
            ch.transfer(float(n))
        engine.run()
        assert ch.bytes_transferred == 60.0

    def test_zero_byte_transfer_is_instant(self, engine):
        ch = SlotChannel(engine, bandwidth=5.0, slots=1)
        ev = ch.transfer(0.0)
        assert completions(engine, [ev]) == [0.0]

    def test_queue_depth(self, engine):
        ch = SlotChannel(engine, bandwidth=1.0, slots=1)
        ch.transfer(10.0)
        ch.transfer(10.0)
        assert ch.queue_depth == 2

    def test_set_slots_affects_future_transfers(self, engine):
        ch = SlotChannel(engine, bandwidth=64.0, slots=1)
        ev1 = ch.transfer(64.0)  # 1s at full rate
        engine.run()
        ch.set_slots(2)
        ev2 = ch.transfer(64.0)  # now at half rate
        t = completions(engine, [ev2])
        assert t == [1.0 + 2.0]
        assert ev1.ok

    def test_rejects_bad_args(self, engine):
        with pytest.raises(ValueError):
            SlotChannel(engine, bandwidth=0.0)
        with pytest.raises(ValueError):
            SlotChannel(engine, bandwidth=1.0, slots=0)
        ch = SlotChannel(engine, bandwidth=1.0)
        with pytest.raises(ValueError):
            ch.transfer(-1.0)


class TestServer:
    def test_fifo_with_overhead(self, engine):
        srv = Server(engine, rate=10.0, concurrency=1, overhead=0.5)
        evs = [srv.request(10.0), srv.request(10.0)]
        assert completions(engine, evs) == [1.5, 3.0]

    def test_concurrency_shares_rate(self, engine):
        srv = Server(engine, rate=10.0, concurrency=2)
        evs = [srv.request(10.0), srv.request(10.0)]
        # each in-flight request gets rate/2 = 5
        assert completions(engine, evs) == [2.0, 2.0]

    def test_counters(self, engine):
        srv = Server(engine, rate=10.0)
        srv.request(5.0)
        srv.request(15.0)
        engine.run()
        assert srv.requests_served == 2
        assert srv.bytes_served == 20.0
        assert srv.busy_time == pytest.approx(2.0)

    def test_queue_depth_observable(self, engine):
        srv = Server(engine, rate=1.0, concurrency=1)
        for _ in range(5):
            srv.request(10.0)
        assert srv.queue_depth == 5


class TestFifoQueueMixin:
    """Queue-depth accounting is one helper shared by every FIFO resource,
    and it must read correctly *while* requests contend -- the telemetry
    layer samples it mid-service."""

    def test_shared_by_channel_and_server(self):
        assert issubclass(SlotChannel, FifoQueueMixin)
        assert issubclass(Server, FifoQueueMixin)
        # one property object, not two copies that could drift
        assert SlotChannel.queue_depth is FifoQueueMixin.queue_depth
        assert Server.queue_depth is FifoQueueMixin.queue_depth

    def test_depth_counts_pending_plus_in_service(self, engine):
        srv = Server(engine, rate=10.0, concurrency=2)
        evs = [srv.request(10.0) for _ in range(6)]
        # 2 admitted immediately, 4 still queued
        assert srv.queue_depth == 6
        seen = []
        for ev in evs:
            ev.add_callback(lambda e: seen.append((engine.now, srv.queue_depth)))
        engine.run()
        # pairs share the rate and drain at 2 s intervals
        assert [t for t, _ in seen] == [2.0, 2.0, 4.0, 4.0, 6.0, 6.0]
        depths = [d for _, d in seen]
        assert depths == sorted(depths, reverse=True)
        assert depths[0] <= 6
        assert srv.queue_depth == 0

    def test_depth_observable_mid_service(self, engine):
        ch = SlotChannel(engine, bandwidth=1.0, slots=1)
        for _ in range(3):
            ch.transfer(10.0)  # serial: one finishes every 10 s
        samples = {}

        def probe(t):
            yield engine.timeout(t)
            samples[t] = ch.queue_depth

        for t in (5.0, 15.0, 25.0, 35.0):
            engine.process(probe(t))
        engine.run()
        assert samples == {5.0: 3, 15.0: 2, 25.0: 1, 35.0: 0}


class TestSemaphore:
    def test_capacity_limits_concurrency(self, engine):
        sem = Semaphore(engine, capacity=2)
        active = []
        peak = []

        def worker():
            yield sem.acquire()
            active.append(1)
            peak.append(len(active))
            yield engine.timeout(1.0)
            active.pop()
            sem.release()

        for _ in range(5):
            engine.process(worker())
        engine.run()
        assert max(peak) == 2

    def test_release_idle_raises(self, engine):
        sem = Semaphore(engine, capacity=1)
        with pytest.raises(SimulationError):
            sem.release()

    def test_available_accounting(self, engine):
        sem = Semaphore(engine, capacity=3)
        sem.acquire()
        sem.acquire()
        assert sem.available == 1
        sem.release()
        assert sem.available == 2
