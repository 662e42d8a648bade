"""Unit tests for pattern detection, fadvise hints, and OST localisation."""

import numpy as np
import pytest

from repro.apps.madbench import MadbenchConfig, run_madbench
from repro.ensembles.diagnose import find_interference
from repro.ensembles.locate import (
    find_masked_faults,
    find_rebuild_pressure,
    find_slow_osts,
    find_transient_faults,
    ost_ensembles,
)
from repro.ipm.events import Trace, TraceEvent
from repro.ipm.patterns import PatternDetector, detect_patterns
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, IoSystem
from repro.iosys.striping import StripeLayout
from repro.mpi.runtime import World
from repro.sim.rng import RngStreams


def feed(detector, rank, path, accesses):
    for off, size in accesses:
        detector.observe(rank, path, off, size)


class TestPatternDetector:
    def test_sequential_stream(self):
        d = PatternDetector()
        feed(d, 0, "/f", [(i * 100, 100) for i in range(10)])
        st = d.stream(0, "/f")
        assert st.classification == "sequential"
        assert st.advice() == "sequential"

    def test_strided_stream(self):
        d = PatternDetector()
        feed(d, 0, "/f", [(i * 1000, 100) for i in range(10)])
        st = d.stream(0, "/f")
        assert st.classification == "strided"
        assert st.dominant_stride == 1000
        assert st.advice() == "noreuse"

    def test_random_stream(self):
        rng = np.random.default_rng(0)
        d = PatternDetector()
        offsets = rng.integers(0, 10**9, size=20)
        feed(d, 0, "/f", [(int(o), 100) for o in offsets])
        assert d.stream(0, "/f").classification == "random"
        assert d.stream(0, "/f").advice() == "random"

    def test_rewrite_stream(self):
        d = PatternDetector()
        feed(d, 0, "/f", [(4096, 512)] * 8)
        assert d.stream(0, "/f").classification == "rewrite"

    def test_unknown_with_too_few_ops(self):
        d = PatternDetector()
        feed(d, 0, "/f", [(0, 10), (10, 10)])
        assert d.stream(0, "/f").classification == "unknown"
        assert d.stream(0, "/f").advice() is None

    def test_streams_keyed_by_rank_and_path(self):
        d = PatternDetector()
        feed(d, 0, "/a", [(i * 100, 100) for i in range(5)])
        feed(d, 1, "/a", [(i * 999, 10) for i in range(5)])
        assert d.stream(0, "/a").classification == "sequential"
        assert d.stream(1, "/a").classification == "strided"
        assert d.stream(2, "/a") is None
        assert len(d.all_streams()) == 2

    def test_size_statistics(self):
        d = PatternDetector()
        feed(d, 0, "/f", [(0, 10), (10, 30), (40, 20)])
        st = d.stream(0, "/f")
        assert (st.min_size, st.max_size) == (10, 30)
        assert st.mean_size == pytest.approx(20.0)
        assert st.total_bytes == 60

    def test_summary_counts(self):
        d = PatternDetector()
        feed(d, 0, "/a", [(i * 100, 100) for i in range(5)])
        feed(d, 1, "/b", [(i * 900, 100) for i in range(5)])
        assert d.summary() == {"sequential": 1, "strided": 1}

    def test_detect_patterns_from_trace(self):
        tr = Trace()
        for i in range(6):
            tr.record(0, "pread", "/f", 3, i * 5000, 1000, float(i), 0.1)
        tr.record(0, "open", "/f", 3, 0, 0, 0.0, 0.0)  # ignored
        det = detect_patterns(tr)
        assert det.stream(0, "/f").classification == "strided"
        assert det.stream(0, "/f").n_ops == 6


class TestFadviseMitigation:
    def test_fadvise_validates_advice(self):
        w = World(nranks=1)
        iosys = IoSystem(
            w.engine, MachineConfig.testbox(), ntasks=1, rng=RngStreams(0)
        )

        def fn(ctx):
            px = iosys.posix_for(0)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            with pytest.raises(ValueError):
                yield from px.fadvise(fd, "bogus")
            yield from px.fadvise(fd, "random")
            yield from px.fadvise(fd, "sequential")
            return True

        assert w.run(fn) == [True]

    def test_fadvise_prevents_madbench_bug(self):
        """The future-work loop closed: the pattern hint makes the buggy
        client behave -- no server patch needed."""
        machine = MachineConfig.franklin(
            dirty_quota=2 * MiB, noise_sigma=0.0, tail_prob=0.0
        )
        base = dict(
            ntasks=8,
            n_matrices=8,
            matrix_bytes=8 * MiB - 1000,
            stripe_count=4,
            machine=machine,
        )
        buggy = run_madbench(MadbenchConfig(**base))
        assert buggy.meta["degraded_reads"] > 0

        # same machine, but the application advises its access pattern
        from repro.apps.mpiio import MpiFile

        cfg = MadbenchConfig(**base)

        def advised_rank(ctx, cfg=cfg):
            from repro.apps.madbench import _madbench_rank

            # pre-open to place the hint, then run the standard kernel
            f = yield from MpiFile.open(ctx, cfg.path, stripe_count=cfg.stripe_count)
            yield from ctx.io.fadvise(f.fd, "noreuse")
            yield from f.close()
            yield from _madbench_rank(ctx, cfg)
            return None

        from repro.apps.harness import SimJob

        job = SimJob(cfg.machine, cfg.ntasks, seed=0)
        advised = job.run(advised_rank)
        degraded = advised.trace.reads().degraded_flags.sum()
        assert degraded == 0
        assert advised.elapsed < buggy.elapsed


class TestSlowOstLocalisation:
    def synthetic_trace(self, layout, slow_ost, n_events=400, seed=0):
        """Small transfers spread over the file; events touching the slow
        OST take 5x longer."""
        rng = np.random.default_rng(seed)
        tr = Trace()
        size = layout.stripe_size // 2
        for i in range(n_events):
            stripe = int(rng.integers(0, 64))
            offset = stripe * layout.stripe_size + layout.stripe_size // 4
            touched = layout.bytes_per_ost(offset, size)
            slow = 5.0 if slow_ost in touched else 1.0
            tr.record(
                i % 16, "pwrite", "/f", 3, offset, size,
                float(i), slow * float(rng.normal(1.0, 0.05)),
            )
        return tr

    def test_finds_injected_slow_ost(self):
        layout = StripeLayout(stripe_size=MiB, stripe_count=8, n_osts=8)
        tr = self.synthetic_trace(layout, slow_ost=5)
        suspects = find_slow_osts(tr, layout, threshold=2.0)
        assert suspects[0].ost == 5
        assert suspects[0].is_suspect
        assert not any(s.is_suspect for s in suspects[1:])

    def test_healthy_pool_has_no_suspects(self):
        layout = StripeLayout(stripe_size=MiB, stripe_count=8, n_osts=8)
        tr = self.synthetic_trace(layout, slow_ost=-1)
        suspects = find_slow_osts(tr, layout, threshold=2.0)
        assert suspects and not any(s.is_suspect for s in suspects)

    def test_ost_ensembles_grouping(self):
        layout = StripeLayout(stripe_size=MiB, stripe_count=4, n_osts=4)
        tr = Trace()
        for i in range(12):
            tr.record(0, "pwrite", "/f", 3, (i % 4) * MiB, MiB // 2,
                      float(i), 1.0)
        groups = ost_ensembles(tr, layout)
        assert set(groups) == {0, 1, 2, 3}
        assert all(d.n == 3 for d in groups.values())

    def test_nan_duration_does_not_count_toward_the_floor(self):
        """Two valid events plus one NaN-duration event on a device are
        two events, short of the three an ensemble needs."""
        layout = StripeLayout(stripe_size=MiB, stripe_count=2, n_osts=2)
        durations = [1.0, 2.0, float("nan"), 1.0, 1.0, 1.0]
        offsets = [0, 0, 0, MiB, MiB, MiB]
        n = len(durations)
        tr = Trace.from_columns(
            rank=[0] * n, op=["pwrite"] * n, path=["/f"] * n, fd=[3] * n,
            offset=offsets, size=[MiB // 2] * n,
            t_start=[float(i) for i in range(n)], duration=durations,
            phase=[""] * n, degraded=[False] * n,
        )
        groups = ost_ensembles(tr, layout)
        assert set(groups) == {1}
        assert groups[1].n == 3

    def test_empty_trace(self):
        layout = StripeLayout(stripe_size=MiB, stripe_count=4, n_osts=4)
        assert find_slow_osts(Trace(), layout) == []

    def test_end_to_end_with_injected_fault(self):
        """Full pipeline: simulate a job on a machine with a sick OST,
        then localise it from the trace + layout alone."""
        machine = MachineConfig.testbox(
            dirty_quota=0.0, ost_slowdown={2: 6.0}, tasks_per_node=2,
            discipline_weights={2: 1.0},
        )
        w = World(nranks=8)
        iosys = IoSystem(w.engine, machine, ntasks=8, rng=RngStreams(1))
        iosys.set_stripe_count("/f", 4)

        def fn(ctx):
            px = iosys.posix_for(ctx.rank)
            fd = yield from px.open("/f", O_CREAT | O_RDWR)
            for i in range(16):
                offset = ((ctx.rank * 16 + i) * MiB) // 2
                yield from px.pwrite(fd, MiB // 2, offset)
            yield from px.close(fd)
            return None

        from repro.ipm.interceptor import IpmCollector, IpmIo

        collector = IpmCollector()
        w.set_extras_factory(
            lambda rank: {"io": IpmIo.wrap(iosys.posix_for(rank), collector)}
        )

        def traced(ctx):
            fd = yield from ctx.io.open("/f", O_CREAT | O_RDWR)
            for i in range(16):
                offset = ((ctx.rank * 16 + i) * MiB) // 2
                yield from ctx.io.pwrite(fd, MiB // 2, offset)
            yield from ctx.io.close(fd)
            return None

        w.run(traced)
        layout = iosys.lookup("/f").layout
        suspects = find_slow_osts(collector.trace, layout, threshold=2.0)
        assert suspects[0].ost == 2 and suspects[0].is_suspect


# -- detector parameter bounds ---------------------------------------------------

_LAYOUT = StripeLayout(stripe_size=MiB, stripe_count=2, n_osts=4)


def _detector(name):
    """The named detector over an empty trace, taking only its knobs."""
    return {
        "find_slow_osts": lambda **kw: find_slow_osts(Trace(), _LAYOUT, **kw),
        "find_transient_faults":
            lambda **kw: find_transient_faults(Trace(), _LAYOUT, **kw),
        "find_masked_faults":
            lambda **kw: find_masked_faults(Trace(), _LAYOUT, **kw),
        "find_rebuild_pressure":
            lambda **kw: find_rebuild_pressure(Trace(), _LAYOUT, **kw),
        "find_interference":
            lambda **kw: find_interference(Trace(), None, 0, **kw),
    }[name]


@pytest.mark.parametrize("detector, param, bad", [
    (det, param, bad)
    for det, param, bads in [
        ("find_slow_osts", "threshold", [1.0, 0.5, float("inf"), float("nan")]),
        ("find_transient_faults", "threshold", [1.0, -4.0, float("inf")]),
        ("find_transient_faults", "min_events", [0, -1]),
        ("find_transient_faults", "max_span_fraction", [0.0, 1.5, float("nan")]),
        ("find_masked_faults", "min_events", [0]),
        ("find_rebuild_pressure", "min_events", [0]),
        ("find_interference", "min_slowdown", [1.0, float("inf"), float("nan")]),
        ("find_interference", "min_share", [0.0, 1.01, -0.5]),
    ]
    for bad in bads
])
def test_detectors_reject_bad_parameters(detector, param, bad):
    """Out-of-domain knobs fail at entry, naming the parameter -- even on
    an empty trace, where the detector would otherwise return nothing."""
    with pytest.raises(ValueError, match=param):
        _detector(detector)(**{param: bad})


@pytest.mark.parametrize("detector, param, edge", [
    ("find_transient_faults", "max_span_fraction", 1.0),
    ("find_transient_faults", "min_events", 1),
    ("find_interference", "min_share", 1.0),
    ("find_slow_osts", "threshold", 1.01),
])
def test_detectors_accept_domain_edges(detector, param, edge):
    assert _detector(detector)(**{param: edge}) == []
