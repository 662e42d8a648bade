"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ensembles.distribution import EmpiricalDistribution
from repro.ensembles.order_stats import expected_max
from repro.ensembles.segmentation import strip_labels
from repro.ensembles.timeseries import aggregate_rate
from repro.ipm.events import Trace
from repro.ipm.profile import StreamingHistogram
from repro.sim.engine import Engine
from repro.sim.resources import SlotChannel
from tests.bootstrap import bootstrap_ci

MiB = 1024 * 1024

events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),  # rank
        st.sampled_from(["read", "write", "pread", "pwrite", "open"]),
        st.integers(min_value=0, max_value=10**9),  # offset
        st.integers(min_value=0, max_value=10 * MiB),  # size
        st.floats(min_value=0.0, max_value=1000.0),  # t_start
        st.floats(min_value=1e-6, max_value=100.0),  # duration
    ),
    min_size=1,
    max_size=60,
)


def build_trace(events):
    tr = Trace()
    for rank, op, offset, size, t, dur in events:
        tr.record(rank, op, "/f", 3, offset, size, t, dur)
    return tr


class TestTraceInvariants:
    @settings(max_examples=80, deadline=None)
    @given(events_strategy)
    def test_filters_partition_data_ops(self, events):
        tr = build_trace(events)
        assert len(tr.reads()) + len(tr.writes()) == len(tr.data_ops())

    @settings(max_examples=80, deadline=None)
    @given(events_strategy)
    def test_per_rank_totals_sum_to_total(self, events):
        tr = build_trace(events)
        totals = tr.per_rank_totals(8)
        assert totals.sum() == pytest.approx(tr.durations.sum())

    @settings(max_examples=50, deadline=None)
    @given(events_strategy)
    def test_rate_curve_conserves_bytes(self, events):
        tr = build_trace(events)
        data = tr.data_ops()
        assume(len(data) > 0)
        curve = aggregate_rate(tr, n_bins=97)
        assert curve.total_bytes == pytest.approx(
            float(data.sizes.sum()), rel=1e-6, abs=1e-3
        )

    @settings(max_examples=50, deadline=None)
    @given(events_strategy)
    def test_strip_labels_idempotent(self, events):
        tr = build_trace(events)
        a = strip_labels(tr)
        b = strip_labels(a)
        assert list(a.phases) == list(b.phases)
        assert np.array_equal(a.starts, b.starts)


class TestChannelConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=10**7),
            min_size=1,
            max_size=20,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_slot_channel_serves_all_bytes(self, sizes, slots):
        eng = Engine()
        ch = SlotChannel(eng, bandwidth=1e6, slots=slots)
        events = [ch.transfer(float(s)) for s in sizes]
        eng.run()
        assert all(ev.ok for ev in events)
        assert ch.bytes_transferred == float(sum(sizes))
        assert ch.queue_depth == 0


class TestStatInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=1e4),
            min_size=2,
            max_size=80,
        ),
        st.integers(min_value=1, max_value=64),
    )
    def test_expected_max_monotone_in_n(self, samples, n):
        d = EmpiricalDistribution(samples)
        assert expected_max(d, n + 1) >= expected_max(d, n) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-5, max_value=1e3),
            min_size=1,
            max_size=100,
        )
    )
    def test_streaming_quantiles_ordered(self, values):
        h = StreamingHistogram()
        for v in values:
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9)]
        assert qs[0] <= qs[1] <= qs[2]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0),
            min_size=4,
            max_size=60,
        )
    )
    def test_bootstrap_ci_brackets_point_estimate(self, values):
        d = EmpiricalDistribution(values)
        lo, hi = bootstrap_ci(d, np.mean, n_boot=200)
        assert lo <= float(np.mean(values)) + 1e-9
        assert hi >= float(np.mean(values)) - 1e-9
