"""Unit tests for the IPM-I/O interceptor, profiles, and reports."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipm.interceptor import IpmCollector, IpmIo
from repro.ipm.profile import IoProfile, StreamingHistogram
from repro.ipm.report import build_report, format_report
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, IoSystem
from repro.mpi.runtime import World
from repro.sim.rng import RngStreams


def traced_world(ntasks=2, mode="trace", overhead=0.0):
    w = World(nranks=ntasks)
    iosys = IoSystem(
        w.engine, MachineConfig.testbox(), ntasks=ntasks, rng=RngStreams(0)
    )
    collector = IpmCollector(mode=mode, overhead=overhead)
    w.set_extras_factory(
        lambda rank: {"io": IpmIo.wrap(iosys.posix_for(rank), collector)}
    )
    return w, collector


class _InstantPosix:
    """A POSIX layer whose every call completes at once, so the clock
    moves only by what the interceptor itself charges."""

    def __init__(self, engine):
        self.iosys = SimpleNamespace(engine=engine)
        self.task = 0
        self._fds = {}

    def _instant(self, value=None):
        yield self.iosys.engine.timeout(0.0)
        return value

    def open(self, path, flags=0):
        return self._instant(3)

    def close(self, fd):
        return self._instant()

    def stat(self, path):
        return self._instant(0)

    def write(self, fd, nbytes):
        return self._instant()

    def pwrite(self, fd, nbytes, offset):
        return self._instant()

    def read(self, fd, nbytes):
        return self._instant()

    def pread(self, fd, nbytes, offset):
        return self._instant()

    def lseek(self, fd, offset, whence=0):
        return self._instant(offset)

    def fadvise(self, fd, advice):
        return self._instant()

    def fsync(self, fd):
        return self._instant()


class TestInterceptor:
    def test_records_every_call_kind(self):
        w, coll = traced_world(1)

        def fn(ctx):
            io = ctx.io
            fd = yield from io.open("/f", O_CREAT | O_RDWR)
            yield from io.write(fd, 100)
            yield from io.pwrite(fd, 100, 0)
            yield from io.lseek(fd, 0)
            yield from io.read(fd, 50)
            yield from io.pread(fd, 50, 10)
            yield from io.stat("/f")
            yield from io.fsync(fd)
            yield from io.close(fd)
            return None

        w.run(fn)
        ops = list(coll.trace.ops)
        assert ops == [
            "open", "write", "pwrite", "lseek", "read", "pread",
            "stat", "fsync", "close",
        ]

    def test_fd_table_resolves_paths(self):
        w, coll = traced_world(1)

        def fn(ctx):
            fd = yield from ctx.io.open("/data/file1", O_CREAT | O_RDWR)
            yield from ctx.io.write(fd, 10)
            yield from ctx.io.close(fd)
            return None

        w.run(fn)
        assert all(p == "/data/file1" for p in coll.trace.paths)

    def test_region_labels_tag_events(self):
        w, coll = traced_world(1)

        def fn(ctx):
            fd = yield from ctx.io.open("/f", O_CREAT | O_RDWR)
            ctx.io.region("phase_a")
            yield from ctx.io.write(fd, 10)
            ctx.io.region("phase_b")
            yield from ctx.io.write(fd, 10)
            ctx.io.region("")
            yield from ctx.io.close(fd)
            return None

        w.run(fn)
        writes = coll.trace.writes()
        assert list(writes.phases) == ["phase_a", "phase_b"]

    def test_durations_match_simulated_time(self):
        w, coll = traced_world(1)

        def fn(ctx):
            fd = yield from ctx.io.open("/f", O_CREAT | O_RDWR)
            res = yield from ctx.io.pwrite(fd, 4 * MiB, 0)
            return res.duration

        duration = w.run(fn)[0]
        traced = coll.trace.writes().durations[0]
        assert traced == pytest.approx(duration)

    def test_overhead_costs_time(self):
        w1, _ = traced_world(1, overhead=0.0)
        w2, _ = traced_world(1, overhead=0.01)

        def fn(ctx):
            fd = yield from ctx.io.open("/f", O_CREAT | O_RDWR)
            for _ in range(10):
                yield from ctx.io.write(fd, 10)
            yield from ctx.io.close(fd)
            return ctx.now

        t1 = w1.run(fn)[0]
        t2 = w2.run(fn)[0]
        assert t2 >= t1 + 0.11  # 11 traced calls with overhead

    def test_every_traced_call_pays_the_overhead_once(self):
        overhead = 0.25
        w = World(nranks=1)
        collector = IpmCollector(overhead=overhead)
        io = IpmIo.wrap(_InstantPosix(w.engine), collector)
        calls = {
            "open": lambda: io.open("/f", O_CREAT | O_RDWR),
            "write": lambda: io.write(3, 10),
            "pwrite": lambda: io.pwrite(3, 10, 0),
            "read": lambda: io.read(3, 10),
            "pread": lambda: io.pread(3, 10, 0),
            "lseek": lambda: io.lseek(3, 0),
            "fadvise": lambda: io.fadvise(3, "sequential"),
            "fsync": lambda: io.fsync(3),
            "stat": lambda: io.stat("/f"),
            "close": lambda: io.close(3),
        }

        def fn(ctx):
            advanced = {}
            for name, call in calls.items():
                t0 = ctx.now
                yield from call()
                advanced[name] = ctx.now - t0
            return advanced

        advanced = w.run(fn)[0]
        assert advanced == {name: pytest.approx(overhead) for name in calls}
        assert list(collector.trace.ops) == list(calls)
        # the charge lands inside each recorded duration
        assert collector.trace.durations.tolist() == pytest.approx(
            [overhead] * len(calls)
        )

    def test_profile_mode_collects_no_events(self):
        w, coll = traced_world(1, mode="profile")

        def fn(ctx):
            fd = yield from ctx.io.open("/f", O_CREAT | O_RDWR)
            for _ in range(20):
                yield from ctx.io.write(fd, 4096)
            yield from ctx.io.close(fd)
            return None

        w.run(fn)
        assert len(coll.trace) == 0
        assert coll.profile.total_events() == 22
        assert coll.calls == 22

    def test_both_mode_profile_matches_trace(self):
        w, coll = traced_world(2, mode="both")

        def fn(ctx):
            fd = yield from ctx.io.open("/f", O_CREAT | O_RDWR)
            for i in range(10):
                yield from ctx.io.pwrite(fd, 64 * 1024, i * MiB)
            yield from ctx.io.close(fd)
            return None

        w.run(fn)
        traced = coll.trace.filter(ops=["pwrite"]).durations
        hist = coll.profile.histogram("pwrite")
        assert hist.n == len(traced)
        assert hist.mean == pytest.approx(traced.mean(), rel=1e-9)
        assert hist.max == pytest.approx(traced.max())


class TestStreamingHistogram:
    def test_moments_match_numpy(self):
        h = StreamingHistogram()
        data = np.random.default_rng(0).lognormal(0, 1, 500)
        for x in data:
            h.observe(x)
        assert h.n == 500
        assert h.mean == pytest.approx(data.mean())
        assert h.std == pytest.approx(data.std(ddof=1), rel=1e-6)
        assert h.min == data.min() and h.max == data.max()

    def test_under_and_overflow_counted(self):
        h = StreamingHistogram(t_min=1e-3, t_max=1e3)
        h.observe(1e-9)
        h.observe(1e9)
        h.observe(1.0)
        assert h.underflow == 1 and h.overflow == 1
        assert h.counts.sum() == 1
        assert h.n == 3

    def test_quantile_approximates_sample_quantile(self):
        h = StreamingHistogram(bins_per_decade=16)
        data = np.random.default_rng(1).lognormal(0, 0.5, 4000)
        for x in data:
            h.observe(x)
        for q in (0.1, 0.5, 0.9):
            approx = h.quantile(q)
            exact = np.quantile(data, q)
            assert approx == pytest.approx(exact, rel=0.15)

    def test_merge_equivalent_to_combined(self):
        a, b, c = (StreamingHistogram() for _ in range(3))
        xs = np.random.default_rng(2).lognormal(0, 1, 200)
        for i, x in enumerate(xs):
            (a if i % 2 else b).observe(x)
            c.observe(x)
        a.merge(b)
        assert np.array_equal(a.counts, c.counts)
        assert a.mean == pytest.approx(c.mean)
        assert a.n == c.n

    def test_merge_rejects_mismatched_binning(self):
        a = StreamingHistogram(bins_per_decade=8)
        b = StreamingHistogram(bins_per_decade=4)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_memory_footprint_constant(self):
        h = StreamingHistogram()
        base = h.nbytes()
        for x in np.linspace(0.001, 100, 10000):
            h.observe(x)
        assert h.nbytes() == base  # O(1) memory: the profiling claim

    def test_edges_are_log_spaced(self):
        h = StreamingHistogram(t_min=1e-2, t_max=1e2, bins_per_decade=4)
        edges = h.bin_edges()
        ratios = edges[1:] / edges[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StreamingHistogram(t_min=0)
        with pytest.raises(ValueError):
            StreamingHistogram(t_min=10, t_max=1)
        with pytest.raises(ValueError):
            StreamingHistogram(bins_per_decade=0)
        h = StreamingHistogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-5, max_value=1e3),
            min_size=1,
            max_size=200,
        )
    )
    def test_property_counts_and_moments(self, values):
        h = StreamingHistogram()
        for v in values:
            h.observe(v)
        assert h.n == len(values)
        assert h.counts.sum() + h.underflow + h.overflow == len(values)
        assert h.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-12)
        assert h.min == min(values) and h.max == max(values)


class TestIoProfile:
    def test_size_classes(self):
        assert IoProfile.size_class(1024) == "tiny(<3KB)"
        assert IoProfile.size_class(512 * 1024) == "small(<1MB)"
        assert IoProfile.size_class(2 * MiB) == "medium(<16MB)"
        assert IoProfile.size_class(1 << 30) == "large"

    def test_histogram_merges_classes(self):
        p = IoProfile()
        p.observe("write", 1024, 0.1)
        p.observe("write", 2 * MiB, 0.2)
        p.observe("read", 1024, 0.3)
        assert p.histogram("write").n == 2
        assert p.histogram("write", "tiny(<3KB)").n == 1
        assert p.histogram("read").n == 1
        assert p.histogram("unlink").n == 0
        assert len(p.keys()) == 3


class TestReport:
    def make_trace(self):
        w, coll = traced_world(2)

        def fn(ctx):
            fd = yield from ctx.io.open("/f", O_CREAT | O_RDWR)
            yield from ctx.io.pwrite(fd, 2 * MiB, ctx.rank * 4 * MiB)
            yield from ctx.io.pread(fd, MiB, ctx.rank * 4 * MiB)
            yield from ctx.io.close(fd)
            return None

        w.run(fn)
        return coll.trace, w.elapsed

    def test_build_report_aggregates(self):
        trace, elapsed = self.make_trace()
        rep = build_report(trace, ntasks=2, wallclock=elapsed)
        assert rep.total_calls == len(trace)
        assert rep.ops["pwrite"].calls == 2
        assert rep.ops["pwrite"].bytes == 4 * MiB
        assert rep.ops["pread"].bytes == 2 * MiB
        assert "/f" in rep.files
        assert rep.aggregate_data_rate > 0

    def test_format_report_contains_key_rows(self):
        trace, elapsed = self.make_trace()
        text = format_report(build_report(trace, 2, elapsed))
        assert "##IPM-I/O" in text
        assert "pwrite" in text
        assert "/f" in text

    def test_wallclock_defaults_to_span(self):
        trace, _ = self.make_trace()
        rep = build_report(trace, 2)
        assert rep.wallclock == pytest.approx(trace.span)
