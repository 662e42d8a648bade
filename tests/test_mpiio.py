"""Unit tests for the MPI-IO middleware."""

from repro.apps.harness import SimJob
from repro.apps.mpiio import MpiFile
from repro.iosys.machine import MachineConfig, MiB


def job(ntasks=4, **kw):
    return SimJob(MachineConfig.testbox(), ntasks, **kw)


class TestMpiFile:
    def test_collective_open_creates_once(self):
        j = job(4)

        def fn(ctx):
            f = yield from MpiFile.open(ctx, "/shared", stripe_count=4)
            yield from f.close()
            return f.fd

        j.run(fn)
        assert j.iosys.lookup("/shared").layout.stripe_count == 4
        opens = j.collector.trace.filter(ops=["open"])
        assert len(opens) == 4

    def test_independent_write_read_roundtrip(self):
        j = job(4)

        def fn(ctx):
            f = yield from MpiFile.open(ctx, "/m")
            w = yield from f.write_at(ctx.rank * 4 * MiB, 2 * MiB)
            r = yield from f.read_at(ctx.rank * 4 * MiB, 2 * MiB)
            yield from f.close()
            return (w.duration, r.duration)

        results = j.run(fn).per_rank
        assert all(w > 0 and r > 0 for w, r in results)
        assert j.iosys.total_bytes_written() == 8 * MiB

    def test_seek_write_sequence(self):
        j = job(2)

        def fn(ctx):
            f = yield from MpiFile.open(ctx, "/m")
            yield from f.seek(ctx.rank * 10 * MiB)
            yield from f.write(MiB)
            yield from f.read(0)
            yield from f.close()
            return None

        j.run(fn)
        lseeks = j.collector.trace.filter(ops=["lseek"])
        assert len(lseeks) == 2
