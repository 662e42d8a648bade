"""Unit tests for OST pool, extent locks, MDS, and page cache."""

import numpy as np
import pytest

from repro.iosys.cache import PageCache
from repro.iosys.locks import ExtentLockTracker
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.mds import MetadataServer
from repro.iosys.ost import OstPool
from repro.iosys.striping import StripeLayout
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


def layout(stripe_count=4, n_osts=8):
    return StripeLayout(
        stripe_size=MiB, stripe_count=stripe_count, n_osts=n_osts
    )


class TestExtentLocks:
    def test_first_writer_gets_grant_free(self):
        locks = ExtentLockTracker(revoke_cost=0.01)
        assert locks.write_penalty(1, layout(), 0, 2 * MiB) == 0.0
        assert locks.grants == 2
        assert locks.revocations == 0

    def test_ownership_change_charges_revocation(self):
        locks = ExtentLockTracker(revoke_cost=0.01)
        lo = layout()
        locks.write_penalty(1, lo, 0, MiB)  # full stripe, client 1
        p = locks.write_penalty(2, lo, 0, MiB)  # client 2 takes it over
        assert locks.revocations == 1
        # full-stripe takeover is discounted
        assert p == pytest.approx(0.01 * 0.2)

    def test_partial_stripe_revocation_full_price(self):
        locks = ExtentLockTracker(revoke_cost=0.01)
        lo = layout()
        locks.write_penalty(1, lo, 0, MiB // 2)
        p = locks.write_penalty(2, lo, 0, MiB // 2)
        assert p == pytest.approx(0.01)

    def test_same_client_rewrites_free(self):
        locks = ExtentLockTracker(revoke_cost=0.01)
        lo = layout()
        locks.write_penalty(3, lo, 0, 4 * MiB)
        assert locks.write_penalty(3, lo, 0, 4 * MiB) == 0.0
        assert locks.revocations == 0

    def test_contention_scale_multiplies(self):
        locks = ExtentLockTracker(revoke_cost=0.01)
        lo = layout()
        locks.write_penalty(1, lo, 0, MiB // 2)
        p = locks.write_penalty(2, lo, 0, MiB // 2, scale=10.0)
        assert p == pytest.approx(0.1)

    def test_owner_of_and_reset(self):
        locks = ExtentLockTracker(revoke_cost=0.0)
        lo = layout()
        locks.write_penalty(5, lo, 0, MiB)
        assert locks.owner_of(0) == 5
        locks.reset()
        assert locks.owner_of(0) is None


class TestOstPool:
    def make(self, **over):
        cfg = MachineConfig.testbox(**over)
        return OstPool(cfg, RngStreams(0)), cfg

    def test_write_penalty_counts_rpcs(self):
        pool, cfg = self.make(rpc_overhead=1e-3)
        lo = layout(n_osts=cfg.n_osts)
        p = pool.write_penalty(lo, 0, 3 * MiB)
        assert p == pytest.approx(3e-3)  # 3 RPCs, no partial stripes

    def test_rmw_penalty_scales_with_contention(self):
        pool, cfg = self.make(rmw_cost=2e-3)
        lo = layout(n_osts=cfg.n_osts)
        p1 = pool.write_penalty(lo, 100, MiB)  # 2 partial stripes
        p2 = pool.write_penalty(lo, 100, MiB, contention=5.0)
        assert p1 == pytest.approx(2 * 2e-3)
        assert p2 == pytest.approx(2 * 2e-3 * 5.0)
        assert pool.rmw_events == 4

    def test_byte_accounting(self):
        pool, cfg = self.make()
        lo = layout(n_osts=cfg.n_osts)
        pool.write_penalty(lo, 0, 2 * MiB)
        pool.read_penalty(lo, 0, 3 * MiB)
        assert pool.bytes_written.sum() == 2 * MiB
        assert pool.bytes_read.sum() == 3 * MiB

    def test_load_imbalance_balanced(self):
        pool, cfg = self.make()
        lo = layout(stripe_count=4, n_osts=cfg.n_osts)
        pool.write_penalty(lo, 0, 8 * MiB)
        assert pool.load_imbalance() == pytest.approx(
            (8 * MiB / 4) / (8 * MiB / cfg.n_osts)
        )

    def test_service_factor_deterministic_when_noise_free(self):
        pool, _ = self.make(noise_sigma=0.0, tail_prob=0.0)
        assert pool.service_factor("x") == 1.0

    def test_service_factor_reproducible(self):
        a, _ = self.make(noise_sigma=0.3)
        b, _ = self.make(noise_sigma=0.3)
        assert [a.service_factor("s") for _ in range(5)] == [
            b.service_factor("s") for _ in range(5)
        ]


class TestMetadataServer:
    def test_zero_latency_is_instant(self):
        eng = Engine()
        mds = MetadataServer(eng, MachineConfig.testbox(), RngStreams(0))
        ev = mds.request("open")
        eng.run()
        assert ev.ok
        assert mds.ops["open"] == 1

    def test_storm_queues(self):
        eng = Engine()
        cfg = MachineConfig.testbox(mds_latency=1e-3, mds_concurrency=2)
        mds = MetadataServer(eng, cfg, RngStreams(0))
        finish = []
        for _ in range(10):
            mds.request("open").add_callback(lambda e: finish.append(eng.now))
        eng.run()
        # 10 opens, 2 at a time, 1 ms each -> last completes around 5 ms
        assert finish[-1] == pytest.approx(5e-3, rel=0.05)

    def test_op_cost_classes_differ(self):
        eng = Engine()
        cfg = MachineConfig.testbox(mds_latency=1e-3, noise_sigma=0.0)
        mds = MetadataServer(eng, cfg, RngStreams(0))
        t = {}
        for op in ("open_create", "close"):
            ev = mds.request(op)
            ev.add_callback(lambda e, op=op: t.__setitem__(op, eng.now))
        eng.run()
        assert t["open_create"] > t["close"] * 2

    def test_unknown_op_rejected(self):
        eng = Engine()
        mds = MetadataServer(eng, MachineConfig.testbox(), RngStreams(0))
        with pytest.raises(ValueError):
            mds.request("chmod")


class TestPageCache:
    def make(self, quota=100.0, tasks=2, mem_bw=1000.0):
        eng = Engine()
        return eng, PageCache(eng, quota, tasks, mem_bw, writeback_delay=1.0)

    def test_absorb_respects_quota(self):
        _eng, cache = self.make(quota=100)
        assert cache.absorb(0, 60) == 60
        assert cache.absorb(0, 60) == 40
        assert cache.absorb(0, 60) == 0
        assert cache.task_dirty(0) == 100

    def test_quota_is_per_task(self):
        _eng, cache = self.make(quota=100, tasks=2)
        cache.absorb(0, 150)
        assert cache.absorb(1, 150) == 100
        assert cache.dirty == 200

    def test_pressure_fraction(self):
        _eng, cache = self.make(quota=100, tasks=2)
        assert cache.pressure() == 0.0
        cache.absorb(0, 100)
        assert cache.pressure() == pytest.approx(0.5)
        cache.absorb(1, 100)
        assert cache.pressure() == pytest.approx(1.0)

    def test_mark_clean_frees_quota(self):
        _eng, cache = self.make(quota=100)
        cache.absorb(0, 100)
        cache.mark_clean(0, 30)
        assert cache.free_quota(0) == pytest.approx(30)
        cache.mark_clean(0, 1000)  # over-cleaning clamps at zero
        assert cache.task_dirty(0) == 0.0

    def test_sync_event_fires_when_clean(self):
        eng, cache = self.make(quota=100)
        cache.absorb(0, 50)
        ev = cache.sync_event()
        assert not ev.triggered
        cache.mark_clean(0, 50)
        eng.run()
        assert ev.ok

    def test_sync_event_immediate_when_already_clean(self):
        eng, cache = self.make()
        ev = cache.sync_event()
        assert ev.triggered

    def test_bad_parameters_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            PageCache(eng, -1, 2, 100.0)
        with pytest.raises(ValueError):
            PageCache(eng, 10, 2, 0.0)
