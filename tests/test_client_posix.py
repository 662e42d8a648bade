"""Unit tests for the Lustre client write/read paths and the POSIX layer."""

import pytest

from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import (
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_SYNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    IoSystem,
)
from repro.mpi.runtime import World
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams


def make_system(ntasks=4, machine=None):
    w = World(nranks=ntasks)
    cfg = machine or MachineConfig.testbox()
    iosys = IoSystem(w.engine, cfg, ntasks=ntasks, rng=RngStreams(0))
    return w, iosys


def single(world, gen_fn):
    return world.run(gen_fn)[0]


class TestPosixNamespace:
    def test_open_requires_creat_for_new_file(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            yield ctx.engine.timeout(0)
            with pytest.raises(FileNotFoundError):
                yield from px.open("/nope")
            return True

        assert single(w, fn)

    def test_create_open_close_lifecycle(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            assert fd >= 3
            f = iosys.lookup("/f")
            assert f.opens == 1
            yield from px.close(fd)
            assert f.opens == 0
            with pytest.raises(ValueError):
                yield from px.close(fd)
            return True

        assert single(w, fn)

    def test_stat_returns_size(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.pwrite(fd, 1000, 0)
            size = yield from px.stat("/f")
            assert size == 1000
            yield from px.pwrite(fd, 1000, 5000)
            size = yield from px.stat("/f")
            assert size == 6000
            return True

        assert single(w, fn)

    def test_stripe_override_must_precede_creation(self):
        w, iosys = make_system(1)
        iosys.set_stripe_count("/striped", 4)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/striped", O_CREAT | O_RDWR)
            assert iosys.lookup("/striped").layout.stripe_count == 4
            yield from px.close(fd)
            return True

        assert single(w, fn)
        with pytest.raises(ValueError):
            iosys.set_stripe_count("/striped", 2)

    def test_stripe_count_bounds(self):
        _w, iosys = make_system(1)
        with pytest.raises(ValueError):
            iosys.set_stripe_count("/x", 0)
        with pytest.raises(ValueError):
            iosys.set_stripe_count("/x", 999)


class TestPosixDataOps:
    def test_write_advances_offset_read_follows(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.write(fd, 100)
            yield from px.write(fd, 100)
            assert px._fds[fd].offset == 200
            yield from px.lseek(fd, 0)
            yield from px.read(fd, 150)
            assert px._fds[fd].offset == 150
            return True

        assert single(w, fn)

    def test_lseek_whences(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.pwrite(fd, 1000, 0)
            pos = yield from px.lseek(fd, 10, SEEK_SET)
            assert pos == 10
            pos = yield from px.lseek(fd, 5, SEEK_CUR)
            assert pos == 15
            pos = yield from px.lseek(fd, -100, SEEK_END)
            assert pos == 900
            with pytest.raises(ValueError):
                yield from px.lseek(fd, -10, SEEK_SET)
            with pytest.raises(ValueError):
                yield from px.lseek(fd, 0, 42)
            return True

        assert single(w, fn)

    def test_zero_length_write_past_eof_does_not_grow_file(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.pwrite(fd, 100, 0)
            yield from px.pwrite(fd, 0, 10**9)
            assert (yield from px.stat("/f")) == 100
            assert (yield from px.lseek(fd, 0, SEEK_END)) == 100
            # write() goes through the same path and leaves the offset
            yield from px.lseek(fd, 10**9, SEEK_SET)
            yield from px.write(fd, 0)
            assert px._fds[fd].offset == 10**9
            assert (yield from px.stat("/f")) == 100
            return True

        assert single(w, fn)

    def test_write_to_readonly_fd_rejected(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.close(fd)
            ro = yield from px.open("/f", O_RDONLY)
            with pytest.raises(PermissionError):
                yield from px.pwrite(ro, 10, 0)
            wo = yield from px.open("/f", O_WRONLY)
            with pytest.raises(PermissionError):
                yield from px.pread(wo, 10, 0)
            return True

        assert single(w, fn)

    def test_pwrite_duration_matches_share_arithmetic(self):
        # testbox, dirty_quota=0 -> pure write-through at the node share
        machine = MachineConfig.testbox(dirty_quota=0.0)
        w, iosys = make_system(1, machine=machine)
        iosys.set_stripe_count("/f", 4)  # file_bw = 4 * (400/4) = 400 MB/s

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            res = yield from px.pwrite(fd, 50 * MiB, 0)
            return res.duration

        # 1 active node: share=min(client 100, 400)=100 -> but lane is
        # min(task_bw=100, share/1) = 100 MB/s -> 0.5 s
        assert single(w, fn) == pytest.approx(0.5, rel=0.01)

    def test_sync_flag_bypasses_cache(self):
        machine = MachineConfig.testbox()  # quota 8 MiB
        w, iosys = make_system(2, machine=machine)

        def fn(ctx):
            px = iosys.posix_for(ctx.rank)
            flags = O_CREAT | O_RDWR | (O_SYNC if ctx.rank == 1 else 0)
            fd = yield from px.open(f"/f{ctx.rank}", flags)
            res = yield from px.pwrite(fd, 4 * MiB, 0)
            return res.duration

        buffered, synced = w.run(fn)
        # the buffered write absorbs at memory speed; sync pays the wire
        assert buffered < synced

    def test_fsync_waits_for_writeback(self):
        machine = MachineConfig.testbox(writeback_delay=2.0)
        w, iosys = make_system(1, machine=machine)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.pwrite(fd, 4 * MiB, 0)  # absorbed into cache
            t0 = ctx.now
            yield from px.fsync(fd)
            return ctx.now - t0

        wait = single(w, fn)
        assert wait >= 2.0  # at least the writeback delay

    def test_negative_args_rejected(self):
        w, iosys = make_system(1)

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            with pytest.raises(ValueError):
                yield from px.pwrite(fd, -1, 0)
            with pytest.raises(ValueError):
                yield from px.pread(fd, 1, -1)
            return True

        assert single(w, fn)


class TestClientBehaviour:
    def test_byte_conservation_across_tasks(self):
        machine = MachineConfig.testbox(dirty_quota=0.0)
        w, iosys = make_system(4, machine=machine)
        iosys.set_stripe_count("/f", 4)

        def fn(ctx):
            px = iosys.posix_for(ctx.rank)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.pwrite(fd, 10 * MiB, ctx.rank * 10 * MiB)
            yield from px.pread(fd, 10 * MiB, ctx.rank * 10 * MiB)
            yield from px.close(fd)
            return None

        w.run(fn)
        assert iosys.total_bytes_written() == 40 * MiB
        assert iosys.total_bytes_read() == 40 * MiB

    def test_exclusive_discipline_serialises_node_tasks(self):
        machine = MachineConfig.testbox(
            dirty_quota=0.0, discipline_weights={1: 1.0}, tasks_per_node=2
        )
        w, iosys = make_system(2, machine=machine)
        iosys.set_stripe_count("/f", 4)

        def fn(ctx):
            px = iosys.posix_for(ctx.rank)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            res = yield from px.pwrite(fd, 10 * MiB, ctx.rank * 10 * MiB)
            return round(res.duration, 3)

        d0, d1 = sorted(w.run(fn))
        # one task is serviced first at full rate; the second waits
        assert d1 == pytest.approx(2 * d0, rel=0.05)

    def test_degraded_read_is_much_slower(self):
        machine = MachineConfig.testbox(
            dirty_quota=8 * MiB,
            strided_readahead=True,
            page_read_cost=1e-3,
            pressure_threshold=0.1,
            readahead_base_window=2 * MiB,
            readahead_max_window=8 * MiB,
        )
        w, iosys = make_system(1, machine=machine)
        iosys.set_stripe_count("/f", 4)
        stride = 20 * MiB

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            yield from px.pwrite(fd, 8 * MiB, 200 * MiB)  # dirty pages
            durations = []
            for i in range(8):
                res = yield from px.pread(fd, 16 * MiB, i * stride)
                durations.append((res.duration, res.degraded))
            return durations

        out = single(w, fn)
        normal = [d for d, deg in out if not deg]
        degraded = [d for d, deg in out if deg]
        assert degraded, "the bug must trigger"
        assert min(degraded) > 3 * max(normal)

    def test_contention_grows_quadratically(self):
        from repro.iosys.client import CONTENTION_COEFF, FsArbiter

        arb = FsArbiter(MachineConfig.testbox())
        for node in range(8):
            arb.begin(0, node)
        c8 = arb.contention(0, stripe_count=2)
        assert c8 == pytest.approx(1.0 + CONTENTION_COEFF * 16.0)

    def test_arbiter_share_divides_by_active_nodes(self):
        from repro.iosys.client import FsArbiter

        cfg = MachineConfig.testbox()
        arb = FsArbiter(cfg)
        assert arb.begin(0, 0) is True
        assert arb.begin(0, 0) is False  # refcount, same node
        arb.begin(0, 1)
        share = arb.node_share(0, stripe_count=4)
        assert share == pytest.approx(min(cfg.client_bw, 400 * MiB / 2))
        arb.end(0, 0)
        arb.end(0, 0)
        arb.end(0, 1)
        assert arb.active_nodes(0) == 0
        with pytest.raises(RuntimeError):
            arb.end(0, 1)
