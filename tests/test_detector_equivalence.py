"""Differential proof for the fault detectors' shared statistics.

The slow-window test, the meta-event -> device attribution and the
per-device transient scan each used to be written out once per detector.
They now share one set of helpers in :mod:`repro.ensembles.locate`.  The
oracles below are the per-detector copies as they stood before that
merge, kept verbatim; Hypothesis drives both over random
:meth:`Trace.from_columns` traces and demands bit-identical results.

The traps the strategies aim at:

- the whole-run transient floor is 16 valid events, the interference
  floor 12;
- the transient window can come from ``retry`` meta-events alone, and
  then its slowdown falls back to 4.0;
- a window covering 0.8 of the run is systemic (the trace is anchored to
  span [0, 100] and windows near 79-81 time units are drawn often);
- finder results are stable-sorted, so the order in which devices are
  first touched decides ties (meta durations come from a small set);
- the extent map keeps the last op per (rank, offset) (offsets repeat);
- ``find_transient_faults`` reads extents from its ``ops``-filtered
  sub-trace, the other two finders from every data op;
- ``find_rebuild_pressure`` maps through the layout's data placement.

Per-byte values are quotients of positive, normal floats far from the
underflow range, as every simulated trace's are.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ensembles.diagnose import _check_transient_fault, find_interference
from repro.ensembles.locate import (
    MaskedFault,
    RebuildPressure,
    TransientFault,
    _per_byte,
    _run_window,
    find_masked_faults,
    find_rebuild_pressure,
    find_transient_faults,
)
from repro.ipm.events import DATA_OPS, Trace
from repro.iosys.erasure import ErasureCodedLayout
from repro.iosys.replication import ReplicatedLayout
from repro.iosys.striping import StripeLayout

STRIPE = 4
SPAN = 100.0
SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# -- oracles: the detectors' own copies, as they were ---------------------------

def old_slow_window(starts, ends, values, span, min_slowdown):
    ok = values > 0
    if ok.sum() < 12:
        return None
    baseline = float(np.median(values[ok]))
    if baseline <= 0:
        return None
    slow = ok & (values >= min_slowdown * baseline)
    if slow.sum() < 3:
        return None
    w0 = float(starts[slow].min())
    w1 = float(ends[slow].max())
    if span <= 0 or (w1 - w0) >= 0.8 * span:
        return None  # systemic for this job, not an interval
    outside = values[ok & ((ends < w0) | (starts > w1))]
    if len(outside) < 8 or np.median(outside) > 2.0 * baseline:
        return None
    return w0, w1, slow, baseline


def old_transient_window(trace):
    """The no-layout transient check's statistic: (w0, w1, n_slow,
    slowdown, n_retries) or None."""
    data = trace.data_ops()
    sizes = data.sizes.astype(float)
    durations = data.durations
    ok = (sizes > 0) & (durations > 0)
    if ok.sum() < 16:
        return None
    per_byte = durations[ok] / sizes[ok]
    starts, ends = data.starts[ok], data.ends[ok]
    baseline = float(np.median(per_byte))
    if baseline <= 0:
        return None
    slow = per_byte >= 4.0 * baseline
    retries = trace.filter(ops=["retry"])
    if slow.sum() < 3 and len(retries) == 0:
        return None
    lo_candidates = []
    hi_candidates = []
    if slow.sum() >= 3:
        lo_candidates.append(float(starts[slow].min()))
        hi_candidates.append(float(ends[slow].max()))
    if len(retries):
        lo_candidates.append(float(retries.starts.min()))
        hi_candidates.append(float(retries.ends.max()))
    if not lo_candidates:
        return None
    w0, w1 = min(lo_candidates), max(hi_candidates)
    span = trace.span or 1.0
    if (w1 - w0) >= 0.8 * span:
        return None  # systemic, not transient
    outside = per_byte[(ends < w0) | (starts > w1)]
    if len(outside) < 8 or np.median(outside) > 2.0 * baseline:
        return None
    slowdown = float(np.median(per_byte[slow]) / baseline) if slow.any() else 4.0
    return w0, w1, int(slow.sum()), slowdown, len(retries)


def old_find_transient_faults(
    trace, layout, ops=DATA_OPS, threshold=4.0, min_events=3,
    max_span_fraction=0.8,
):
    sub = trace.filter(ops=list(ops))
    if len(sub) == 0:
        return []
    offsets, sizes = sub.offsets, sub.sizes
    starts, ends = sub.starts, sub.ends
    durations = sub.durations
    ok = (sizes > 0) & (durations > 0)
    if ok.sum() < max(2 * min_events, 8):
        return []
    per_byte = np.where(ok, durations / np.maximum(sizes, 1), np.nan)
    pool_median = float(np.nanmedian(per_byte))
    if not (pool_median > 0):
        return []
    flagged = ok & (per_byte >= threshold * pool_median)

    extent_of: Dict[Tuple[int, int], int] = {}
    for rank, off, size in zip(sub.ranks, offsets, sizes):
        extent_of[(int(rank), int(off))] = int(size)
    retries = trace.filter(ops=["retry"])
    retry_by_ost: Dict[int, int] = {}
    retry_spans: Dict[int, List[Tuple[float, float]]] = {}
    for r_rank, r_off, r_count, r_t0, r_dur in zip(
        retries.ranks, retries.offsets, retries.sizes,
        retries.starts, retries.durations,
    ):
        length = extent_of.get((int(r_rank), int(r_off)), 1)
        for ost in layout.bytes_per_ost(int(r_off), max(length, 1)):
            retry_by_ost[ost] = retry_by_ost.get(ost, 0) + int(r_count)
            retry_spans.setdefault(ost, []).append(
                (float(r_t0), float(r_t0 + r_dur))
            )

    span = float(trace.span) or 1.0
    by_ost: Dict[int, List[int]] = {}
    for i in np.nonzero(flagged)[0]:
        for ost in layout.bytes_per_ost(int(offsets[i]), int(sizes[i])):
            by_ost.setdefault(ost, []).append(int(i))

    out: List[TransientFault] = []
    for ost in sorted(set(by_ost) | set(retry_spans)):
        idx = by_ost.get(ost, [])
        n_retries = retry_by_ost.get(ost, 0)
        if len(idx) + n_retries < min_events:
            continue
        hull = [(float(starts[i]), float(ends[i])) for i in idx]
        hull += retry_spans.get(ost, [])
        w0 = min(lo for lo, _ in hull)
        w1 = max(hi for _, hi in hull)
        if (w1 - w0) >= max_span_fraction * span:
            continue
        others: List[float] = []
        for j in range(len(sub)):
            if not ok[j] or ends[j] < w0 or starts[j] > w1:
                continue
            if ost not in layout.bytes_per_ost(int(offsets[j]), int(sizes[j])):
                others.append(float(per_byte[j]))
        if idx:
            in_window = float(np.median(per_byte[np.asarray(idx)]))
            if others and in_window < (threshold / 2.0) * np.median(others):
                continue
        outside: List[float] = []
        for j in range(len(sub)):
            if not ok[j] or (starts[j] >= w0 and ends[j] <= w1):
                continue
            if ost in layout.bytes_per_ost(int(offsets[j]), int(sizes[j])):
                outside.append(float(per_byte[j]))
        if outside and np.median(outside) > (threshold / 2.0) * pool_median:
            continue
        slowdown = (
            float(np.median(per_byte[np.asarray(idx)])) / pool_median
            if idx
            else float(threshold)
        )
        out.append(TransientFault(
            ost=ost, t_start=w0, t_end=w1, slowdown=slowdown,
            n_events=len(idx), n_retries=n_retries,
        ))
    out.sort(key=lambda f: (f.n_retries, f.slowdown), reverse=True)
    return out


def old_meta_finder(trace, layout, op, cls, min_events=1):
    """``find_masked_faults`` and ``find_rebuild_pressure`` were verbatim
    copies of this body, differing in the op, the result class and (for
    the rebuild finder) the caller passing the data placement."""
    fos = trace.filter(ops=[op])
    if len(fos) == 0:
        return []
    sub = trace.data_ops()
    extent_of: Dict[Tuple[int, int], int] = {}
    for rank, off, size in zip(sub.ranks, sub.offsets, sub.sizes):
        extent_of[(int(rank), int(off))] = int(size)

    n_events: Dict[int, int] = {}
    n_count: Dict[int, int] = {}
    masked: Dict[int, float] = {}
    spans: Dict[int, List[Tuple[float, float]]] = {}
    for f_rank, f_off, f_count, f_t0, f_dur in zip(
        fos.ranks, fos.offsets, fos.sizes, fos.starts, fos.durations
    ):
        length = extent_of.get((int(f_rank), int(f_off)), 1)
        for ost in layout.bytes_per_ost(int(f_off), max(length, 1)):
            n_events[ost] = n_events.get(ost, 0) + 1
            n_count[ost] = n_count.get(ost, 0) + int(f_count)
            masked[ost] = max(masked.get(ost, 0.0), float(f_dur))
            spans.setdefault(ost, []).append(
                (float(f_t0), float(f_t0 + f_dur))
            )

    out = []
    for ost, count in n_events.items():
        if count < min_events:
            continue
        hull = spans[ost]
        out.append(cls(
            ost, count, n_count[ost], masked[ost],
            min(lo for lo, _ in hull), max(hi for _, hi in hull),
        ))
    out.sort(key=lambda f: (f.masked_time, f.n_events), reverse=True)
    return out


# -- strategies -----------------------------------------------------------------

_unit = st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def traces(draw) -> Trace:
    """Healthy events over a run anchored to [0, 100] -- outside the
    window sometimes drifted just past the 2x calm limit -- a cluster of
    slow events on one stripe inside a window, meta-events in that window
    sharing (rank, offset) with data ops, and some zero-size or
    zero-duration events."""
    cols: Dict[str, list] = {name: [] for name in (
        "rank", "op", "path", "fd", "offset", "size", "t_start",
        "duration", "phase", "degraded",
    )}

    def event(op, rank, offset, size, t0, dur):
        for name, value in zip(
            ("rank", "op", "offset", "size", "t_start", "duration"),
            (rank, op, offset, size, t0, dur),
        ):
            cols[name].append(value)
        cols["path"].append("/f")
        cols["fd"].append(3)
        cols["phase"].append("")
        cols["degraded"].append(False)

    data_op = st.sampled_from(DATA_OPS)
    rank = st.integers(0, 2)
    # anchors: the run spans exactly [0, 100]
    event("write", 0, 0, STRIPE, 0.0, 0.01)
    event("write", 1, 0, STRIPE, SPAN - 0.01, 0.01)
    keys = [(0, 0), (1, 0)]
    # the slow window [w0, w0 + width]
    width = draw(st.one_of(
        st.sampled_from([60.0, 70.0, 79.0, 79.5, 80.0, 80.5]),
        st.floats(1.0, 95.0, allow_nan=False),
    ))
    w0 = (SPAN - width) * draw(_unit)
    drift = draw(st.sampled_from([1.0, 1.0, 2.4]))
    # few healthy events probe the 12- and 16-event floors
    for _ in range(draw(st.one_of(st.integers(8, 12), st.integers(0, 40)))):
        off = STRIPE * draw(st.integers(0, 15)) + draw(st.sampled_from([0, 0, 1]))
        size = draw(st.integers(1, 3 * STRIPE))
        r = draw(rank)
        keys.append((r, off))
        t0 = SPAN * 0.99 * draw(_unit)
        level = 1.0 if w0 <= t0 <= w0 + width else drift
        event(draw(data_op), r, off, size, t0,
              size * 0.01 * level * (0.9 + 0.2 * draw(_unit)))

    # the slow cluster: one stripe, inside the window
    stripe = STRIPE * draw(st.integers(0, 15))
    for _ in range(draw(st.integers(0, 8))):
        size = draw(st.integers(1, STRIPE))
        dur = size * draw(st.sampled_from([0.05, 0.1, 0.4]))
        t0 = w0 + max(width - dur, 0.0) * draw(_unit)
        r = draw(rank)
        keys.append((r, stripe))
        event(draw(data_op), r, stripe, size, t0, dur)

    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(["retry", "failover", "degraded-read"]))
        r, off = draw(st.one_of(
            st.sampled_from(keys),
            st.tuples(rank, st.integers(0, 16 * STRIPE)),
        ))
        dur = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        event(op, r, off, draw(st.integers(0, 3)),
              w0 + width * draw(_unit), dur)

    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["write", "pread", "open"]))
        dur = draw(st.sampled_from([0.0, 0.02]))
        event(op, draw(rank), 0, draw(st.sampled_from([0, 4])),
              SPAN * 0.99 * draw(_unit), dur)
    return Trace.from_columns(**cols)


@st.composite
def layouts(draw) -> StripeLayout:
    n_osts = draw(st.integers(2, 8))
    return StripeLayout(
        stripe_size=STRIPE,
        stripe_count=draw(st.integers(1, n_osts)),
        n_osts=n_osts,
        start_ost=draw(st.integers(0, n_osts - 1)),
    )


#: slow-event starts of :func:`handmade`: a window over 58% of the run,
#: and one over 79.5% -- just under the 0.8 systemic cut-off
NARROW = (20.0, 40.0, 60.0, 78.0)
WIDE = (10.0, 40.0, 60.0, 89.4)


def handmade(
    level: float = 1.0, inside: int = 29, outside: int = 12, slow=NARROW
) -> Trace:
    """A hand-built run over [0, 100]: four 10x-slow events starting at
    ``slow``, ``inside`` healthy events within their window, and
    ``outside`` healthy events beyond it running ``level`` x the
    baseline.  Past 2x the outside is not calm, so a calm limit moved
    anywhere in (2, ``level``] changes the verdict; ``inside=0,
    outside=8`` leaves 14 valid events, between the 12- and 16-event
    floors."""
    events = [(0.0, 0.01), (99.99, 0.01)]  # anchors at the baseline
    events += [(t, 0.1) for t in slow]
    events += [(20.5 + 2 * i, 0.01) for i in range(inside)]
    beyond = (1.0, 3.0, 5.0, 7.0, 91.0, 93.0, 95.0, 97.0, 9.0, 11.0, 85.0,
              87.0)
    events += [(t, 0.01 * level) for t in beyond[:outside]]
    n = len(events)
    return Trace.from_columns(
        rank=[0] * n, op=["write"] * n, path=["/f"] * n, fd=[3] * n,
        offset=[STRIPE * i for i in range(n)], size=[1] * n,
        t_start=[t for t, _ in events], duration=[d for _, d in events],
        phase=[""] * n, degraded=[False] * n,
    )


# -- the differential tests -----------------------------------------------------

@SETTINGS
@example(handmade(1.9), 3.0)
@example(handmade(2.2), 3.0)
@example(handmade(inside=0, outside=8), 3.0)
@example(handmade(outside=8, slow=WIDE), 3.0)
@given(traces(), st.sampled_from([1.5, 2.0, 3.0, 4.0, 8.0]))
def test_run_window_matches_old_slow_window(trace, k):
    """The interference window: namespace-op durations and per-byte data
    times, against the old ``_slow_window``."""
    data = trace.data_ops()
    per_byte, valid = _per_byte(data)
    for starts, ends, values, valid in (
        (trace.starts, trace.ends, trace.durations, trace.durations > 0),
        (data.starts, data.ends, per_byte, valid),
    ):
        old = old_slow_window(starts, ends, values, trace.span, k)
        new = _run_window(starts, ends, values, valid, k, trace.span,
                          min_valid=12)
        if old is None:
            assert new is None
            continue
        w0, w1, slow, baseline = old
        assert (new.w0, new.w1, new.baseline) == (w0, w1, baseline)
        assert (new.slow == slow).all()
        assert new.slowdown == float(np.median(values[slow]) / baseline)


class _AccusingTimeline:
    """A two-tenant ledger in which tenant 1 dominates every resource the
    victim (tenant 0) used, so each window ``find_interference`` finds
    becomes a finding whose evidence carries the window statistic."""

    tenants = {0: "victim", 1: "neighbour"}
    n_osts = 1

    def resident_tenants(self, w0, w1):
        return [0, 1]

    def tenant_mds_ops(self, tenant, w0, w1):
        return 100 * tenant

    def tenant_device_bytes(self, tenant, device, w0, w1):
        return float(1 + tenant * 2**21)


def _as_namespace_ops(trace: Trace) -> Trace:
    """The same events with every data op relabelled ``open``."""
    cols = {name: trace.column(name) for name in (
        "rank", "op", "path", "fd", "offset", "size", "t_start",
        "duration", "phase", "degraded",
    )}
    cols["op"] = np.where(np.isin(cols["op"], DATA_OPS), "open", cols["op"])
    return Trace.from_columns(**cols)


@SETTINGS
@example(handmade(1.9), 3.0)
@example(handmade(2.2), 3.0)
@example(handmade(inside=0, outside=8), 3.0)
@example(handmade(outside=8, slow=WIDE), 3.0)
@given(traces(), st.sampled_from([1.5, 3.0, 4.0]))
def test_find_interference_windows_match_old(trace, k):
    """Both interference paths, through ``find_interference`` itself: the
    metadata path reads namespace-op durations, the bandwidth path
    per-byte data times; the old ``_slow_window`` is the oracle."""
    data = trace.data_ops()
    per_byte = np.zeros(len(data))
    ok = (data.sizes > 0) & (data.durations > 0)
    per_byte[ok] = data.durations[ok] / data.sizes[ok]
    meta = _as_namespace_ops(trace).filter(ops=["open"])
    for mds, sub, values, victim in (
        (1.0, meta, meta.durations, _as_namespace_ops(trace)),
        (0.0, data, per_byte, trace),
    ):
        old = old_slow_window(sub.starts, sub.ends, values, victim.span, k)
        got = [
            f.evidence for f in find_interference(
                victim, _AccusingTimeline(), 0, min_slowdown=k
            )
            if f.evidence["mds"] == mds
        ]
        if old is None:
            assert got == []
            continue
        w0, w1, slow, baseline = old
        (ev,) = got
        assert (ev["t_start"], ev["t_end"], ev["n_events"]) == (
            w0, w1, float(slow.sum())
        )
        assert ev["slowdown"] == float(np.median(values[slow]) / baseline)


@SETTINGS
@example(handmade(1.9))
@example(handmade(2.2))
@example(handmade(inside=0, outside=8))
@example(handmade(outside=8, slow=WIDE))
@given(traces())
def test_transient_check_matches_old_inline_window(trace):
    """The no-layout transient finding against the old inline statistic."""
    old = old_transient_window(trace)
    new = _check_transient_fault(trace)
    if old is None:
        assert new == []
        return
    w0, w1, n_slow, slowdown, n_retries = old
    (finding,) = new
    assert finding.evidence == {
        "device": -1.0, "t_start": w0, "t_end": w1, "slowdown": slowdown,
        "n_events": float(n_slow), "n_retries": float(n_retries),
    }
    assert finding.severity == float(
        min(0.5 + 0.1 * np.log2(max(slowdown, 1.0)), 1.0)
    )


@SETTINGS
@given(
    traces(), layouts(),
    st.sampled_from([DATA_OPS, ("write", "pwrite")]),
    st.sampled_from([2.0, 4.0, 8.0]),
    st.integers(1, 5),
    st.sampled_from([0.5, 0.79, 0.8, 1.0]),
)
def test_find_transient_faults_matches_old(
    trace, layout, ops, threshold, min_events, fraction
):
    kwargs = dict(ops=ops, threshold=threshold, min_events=min_events,
                  max_span_fraction=fraction)
    assert repr(find_transient_faults(trace, layout, **kwargs)) == repr(
        old_find_transient_faults(trace, layout, **kwargs)
    )


@SETTINGS
@given(traces(), layouts(), st.integers(1, 3), st.integers(1, 2))
def test_meta_finders_match_old(trace, layout, min_events, copies):
    def same(new, old):
        assert repr(new) == repr(old)

    mirrored = ReplicatedLayout(layout, min(copies, layout.n_osts))
    for lay in (layout, mirrored):
        same(find_masked_faults(trace, lay, min_events),
             old_meta_finder(trace, lay, "failover", MaskedFault, min_events))
    same(find_rebuild_pressure(trace, layout, min_events),
         old_meta_finder(trace, layout, "degraded-read", RebuildPressure,
                         min_events))
    if layout.stripe_count < layout.n_osts:
        coded = ErasureCodedLayout(layout, layout.stripe_count, 1)
        same(find_rebuild_pressure(trace, coded, min_events),
             old_meta_finder(trace, coded.data_layout, "degraded-read",
                             RebuildPressure, min_events))
