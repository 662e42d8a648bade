"""Unit tests for the trace event containers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipm.events import COLUMNS, Trace, TraceEvent


def ev(rank=0, op="write", size=100, t=0.0, dur=1.0, phase="", path="/f",
       offset=0, degraded=False):
    return TraceEvent(
        rank=rank, op=op, path=path, fd=3, offset=offset, size=size,
        t_start=t, duration=dur, phase=phase, degraded=degraded,
    )


def sample_trace():
    tr = Trace()
    tr.append(ev(rank=0, op="write", size=100, t=0.0, dur=1.0, phase="p0"))
    tr.append(ev(rank=1, op="write", size=200, t=0.5, dur=2.0, phase="p0"))
    tr.append(ev(rank=0, op="read", size=300, t=3.0, dur=1.5, phase="p1"))
    tr.append(ev(rank=1, op="pread", size=400, t=3.5, dur=0.5, phase="p1",
                 degraded=True))
    tr.append(ev(rank=0, op="open", size=0, t=5.0, dur=0.1))
    return tr


class TestTraceBasics:
    def test_len_and_iteration(self):
        tr = sample_trace()
        assert len(tr) == 5
        events = list(tr)
        assert events[0].op == "write"
        assert events[3].degraded

    def test_event_properties(self):
        e = ev(size=100, t=2.0, dur=4.0)
        assert e.t_end == 6.0
        assert e.rate == 25.0
        assert ev(dur=0.0).rate == float("inf")

    def test_columns_are_numpy(self):
        tr = sample_trace()
        assert tr.sizes.dtype == np.int64
        assert tr.durations.dtype == np.float64
        assert np.array_equal(tr.ends, tr.starts + tr.durations)

    def test_record_fast_path_equivalent(self):
        a = Trace()
        a.append(ev())
        b = Trace()
        b.record(0, "write", "/f", 3, 0, 100, 0.0, 1.0)
        assert a[0] == b[0]

    def test_extend_concatenates(self):
        a, b = sample_trace(), sample_trace()
        a.extend(b)
        assert len(a) == 10


    def test_nbytes_counts_the_tail_and_the_folded_columns(self):
        tr = Trace()
        empty = tr.nbytes()
        for i in range(1000):
            tr.record(i % 7, "write", "/f", 3, i, 100, float(i), 1.0)
        # one pointer per event in each tail list, at least
        assert tr.nbytes() - empty >= 1000 * 8 * len(COLUMNS)
        tr.ops  # any query folds the tail into the arrays
        # 8 bytes per event in nine columns, 1 in the bool column
        assert tr.nbytes() >= 1000 * (8 * (len(COLUMNS) - 1) + 1)


class TestFilters:
    def test_reads_writes_split(self):
        tr = sample_trace()
        assert len(tr.writes()) == 2
        assert len(tr.reads()) == 2
        assert len(tr.data_ops()) == 4

    def test_filter_by_rank_and_phase(self):
        tr = sample_trace()
        assert len(tr.filter(ranks=[0])) == 3
        assert len(tr.filter(phase="p1")) == 2
        assert len(tr.filter(ranks=[1], phase="p0")) == 1

    def test_filter_by_size_window(self):
        tr = sample_trace()
        assert len(tr.filter(min_size=200)) == 3
        assert len(tr.filter(max_size=200)) == 3
        assert len(tr.filter(min_size=200, max_size=300)) == 2

    def test_filter_by_time_window(self):
        tr = sample_trace()
        assert len(tr.filter(t_min=3.0)) == 3
        assert len(tr.filter(t_max=3.0)) == 2

    def test_filter_by_path(self):
        tr = sample_trace()
        tr.append(ev(path="/other"))
        assert len(tr.filter(path="/other")) == 1

    def test_filters_compose(self):
        tr = sample_trace()
        sub = tr.filter(ops=["write"], ranks=[1])
        assert len(sub) == 1
        assert sub[0].size == 200

    @pytest.mark.parametrize("kwargs", [{"ops": "write"}, {"ranks": "0"}])
    def test_bare_string_is_rejected(self, kwargs):
        # a str is a collection of characters: ops="write" used to match
        # no event at all instead of the write
        with pytest.raises(TypeError, match="not the string"):
            sample_trace().filter(**kwargs)


class TestSummaries:
    def test_totals_and_span(self):
        tr = sample_trace()
        assert tr.total_bytes == 1000
        assert tr.t_first == 0.0
        assert tr.t_last == 5.1
        assert tr.span == pytest.approx(5.1)

    def test_empty_trace_summaries(self):
        tr = Trace()
        assert tr.total_bytes == 0
        assert tr.span == 0.0
        assert tr.phase_names() == []

    def test_phase_names_in_order(self):
        tr = sample_trace()
        assert tr.phase_names() == ["p0", "p1", ""]

    def test_by_phase(self):
        groups = sample_trace().by_phase()
        assert set(groups) == {"p0", "p1", ""}
        assert len(groups["p0"]) == 2

    def test_per_rank_totals(self):
        tr = sample_trace()
        totals = tr.per_rank_totals(nranks=3)
        assert totals[0] == pytest.approx(1.0 + 1.5 + 0.1)
        assert totals[1] == pytest.approx(2.5)
        assert totals[2] == 0.0

    def test_per_rank_totals_rejects_too_few_ranks(self):
        # ranks 0 and 1 need nranks >= 2; numpy used to raise IndexError
        with pytest.raises(ValueError, match=r"nranks=1\b.*rank 1\b"):
            sample_trace().per_rank_totals(nranks=1)

    def test_per_rank_totals_empty_trace(self):
        assert Trace().per_rank_totals().shape == (0,)
        assert Trace().per_rank_totals(nranks=2).tolist() == [0.0, 0.0]

    def test_degraded_flags(self):
        tr = sample_trace()
        assert tr.degraded_flags.sum() == 1


class TestColumns:
    def test_from_columns_round_trips(self):
        tr = sample_trace()
        again = Trace.from_columns(
            **{name: tr.column(name) for name in COLUMNS}
        )
        assert list(again) == list(tr)
        assert all(type(v) is int for v in dataclasses.astuple(again[0])[3:6])

    def test_from_columns_rejects_ragged_or_missing(self):
        cols = {name: sample_trace().column(name) for name in COLUMNS}
        with pytest.raises(ValueError, match="1-d of one length"):
            Trace.from_columns(**{**cols, "rank": [0]})
        del cols["fd"]
        with pytest.raises(ValueError, match="exactly the columns"):
            Trace.from_columns(**cols)


# -- differential: vectorised filter vs the list-based one it replaced -------

_DTYPES = {
    "rank": np.int64, "op": object, "path": object, "fd": np.int64,
    "offset": np.int64, "size": np.int64, "t_start": np.float64,
    "duration": np.float64, "phase": object, "degraded": bool,
}
_PY_TYPES = (int, str, str, int, int, int, float, float, str, bool)


def oracle_filter(cols, ops=None, ranks=None, phase=None, path=None,
                  min_size=None, max_size=None, t_min=None, t_max=None):
    """The per-element mask and ``_mask_select`` of the list-based
    ``Trace``, over a dict of plain column lists."""
    n = len(cols["op"])
    sizes = np.asarray(cols["size"], dtype=np.int64)
    starts = np.asarray(cols["t_start"], dtype=np.float64)
    mask = np.ones(n, dtype=bool)
    if ops is not None:
        opset = set(ops)
        mask &= np.fromiter((o in opset for o in cols["op"]), bool, count=n)
    if ranks is not None:
        rset = set(ranks)
        mask &= np.fromiter((r in rset for r in cols["rank"]), bool, count=n)
    if phase is not None:
        mask &= np.fromiter((p == phase for p in cols["phase"]), bool, count=n)
    if path is not None:
        mask &= np.fromiter((p == path for p in cols["path"]), bool, count=n)
    if min_size is not None:
        mask &= sizes >= min_size
    if max_size is not None:
        mask &= sizes <= max_size
    if t_min is not None:
        mask &= starts >= t_min
    if t_max is not None:
        mask &= starts < t_max
    idx = np.nonzero(mask)[0]
    return {name: [src[i] for i in idx] for name, src in cols.items()}


_OPS = ("read", "write", "pread", "pwrite", "open", "lseek", "retry")
# small pools make the filter bounds coincide with event values
_times = st.sampled_from((0.0, 0.5, 1.0, 2.5)) | st.floats(0.0, 1e6)
_sizes = st.integers(0, 8) | st.integers(0, 2**40)
_events = st.builds(
    TraceEvent,
    rank=st.integers(0, 5),
    op=st.sampled_from(_OPS),
    path=st.sampled_from(("/a", "/b")),
    fd=st.integers(0, 9),
    offset=st.integers(0, 2**40),
    size=_sizes,
    t_start=_times,
    duration=_times,
    phase=st.sampled_from(("", "p0", "p1")),
    degraded=st.booleans(),
)
_filter_args = st.fixed_dictionaries({}, optional={
    "ops": st.lists(st.sampled_from(_OPS + ("close",))).flatmap(
        lambda xs: st.sampled_from([xs, tuple(xs), frozenset(xs)])),
    "ranks": st.lists(st.integers(-1, 7)).flatmap(
        lambda xs: st.sampled_from([xs, tuple(xs), np.array(xs, np.int64)])),
    "phase": st.sampled_from(("", "p0", "p1", "p9")),
    "path": st.sampled_from(("/a", "/b", "/c")),
    "min_size": st.integers(-1, 9) | _sizes,
    "max_size": st.integers(-1, 9) | _sizes,
    "t_min": _times,
    "t_max": _times,
})


@settings(max_examples=200, deadline=None)
@given(events=st.lists(_events, max_size=40), kwargs=_filter_args)
def test_filter_matches_list_based_oracle(events, kwargs):
    tr = Trace(events)
    cols = {name: [getattr(e, name) for e in events] for name in COLUMNS}
    want = oracle_filter(cols, **kwargs)
    got = tr.filter(**kwargs)
    assert len(got) == len(want["op"])
    for name in COLUMNS:
        col = got.column(name)
        ref = np.asarray(want[name], dtype=_DTYPES[name])
        assert col.dtype == ref.dtype
        assert np.array_equal(col, ref), name
    for i, ev in enumerate(got):
        row = dataclasses.astuple(ev)
        assert row == tuple(want[name][i] for name in COLUMNS)
        assert tuple(type(v) for v in row) == _PY_TYPES
        by_index = dataclasses.astuple(got[i])
        assert by_index == row
        assert tuple(type(v) for v in by_index) == _PY_TYPES
    data = [e for e in events if e.op in ("read", "write", "pread", "pwrite")]
    assert tr.total_bytes == sum(e.size for e in data)
