"""Localising a misbehaving storage target from trace ensembles.

An extension of the paper's methodology to a classic operations problem:
one OST in the pool is sick (degraded RAID rebuild, failing disk) and
every I/O that touches it lands in a slow mode.  The trace alone cannot
name the device -- but the *file layout* is known to the analyst (it is
how the file was created), so each event's byte extent maps to the OSTs
that served it.  Grouping the event ensemble by serving OST turns the
anonymous slow mode into a device indictment.

This is "from events to ensembles" applied per device: the per-OST
ensembles of a healthy pool are statistically indistinguishable; a sick
OST's ensemble separates cleanly.

:func:`find_slow_osts` indicts a device that is slow for the *whole* run
(the static fault).  :func:`find_transient_faults` extends the idea along
the time axis: a device that is only slow inside one contiguous window --
and healthy on either side -- is a *transient* fault (a stall, a rebuild
that finished), and the analysis reports the window as well as the
device, so the verdict can be checked against operator logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..ipm.events import DATA_OPS, Trace
from ..iosys.striping import StripeLayout
from .distribution import EmpiricalDistribution

__all__ = [
    "OstSuspect",
    "TransientFault",
    "MaskedFault",
    "RebuildPressure",
    "ost_ensembles",
    "find_slow_osts",
    "find_transient_faults",
    "find_masked_faults",
    "find_rebuild_pressure",
]


@dataclass(frozen=True)
class OstSuspect:
    """One OST's verdict from the scan."""

    ost: int
    n_events: int
    median: float
    pool_median: float
    slowdown: float  # median / pool-of-others median
    is_suspect: bool


def ost_ensembles(
    trace: Trace, layout: StripeLayout, ops: Tuple[str, ...] = ("write", "pwrite")
) -> Dict[int, EmpiricalDistribution]:
    """Group per-event durations by the OSTs that served each event.

    Events are *normalised to seconds-per-byte* before grouping so mixed
    transfer sizes share an axis, then attributed to every OST their
    extent touches (an event that straddles a sick OST is slowed even if
    most of its bytes went elsewhere -- exactly why attribution must be
    to all touched OSTs, not the majority one).  Only events with a
    positive size and duration count (a NaN duration does not), and a
    device needs three of them to get an ensemble.
    """
    sub = trace.filter(ops=list(ops))
    values, valid = _per_byte(sub)
    values = values[valid]
    touches = _touches(layout, zip(
        sub.offsets[valid].tolist(), sub.sizes[valid].tolist()
    ))
    return {
        ost: EmpiricalDistribution(values[positions])
        for ost, positions in touches.items()
        if len(positions) >= 3
    }


def find_slow_osts(
    trace: Trace,
    layout: StripeLayout,
    ops: Tuple[str, ...] = ("write", "pwrite"),
    threshold: float = 2.0,
) -> List[OstSuspect]:
    """Scan for OSTs whose ensemble is shifted ``threshold``x slower than
    the rest of the pool.  Returns every OST's verdict, suspects first.
    """
    _check_params(threshold=threshold)
    ensembles = ost_ensembles(trace, layout, ops)
    if not ensembles:
        return []
    medians = {ost: d.median for ost, d in ensembles.items()}
    out: List[OstSuspect] = []
    for ost, dist in ensembles.items():
        others = [m for o, m in medians.items() if o != ost]
        baseline = float(np.median(others)) if others else medians[ost]
        slowdown = medians[ost] / baseline if baseline > 0 else 1.0
        out.append(
            OstSuspect(
                ost=ost,
                n_events=dist.n,
                median=medians[ost],
                pool_median=baseline,
                slowdown=float(slowdown),
                is_suspect=bool(slowdown >= threshold),
            )
        )
    out.sort(key=lambda s: s.slowdown, reverse=True)
    return out


@dataclass(frozen=True)
class TransientFault:
    """A device that was sick for one contiguous stretch of the run."""

    ost: int
    t_start: float
    t_end: float
    #: median per-byte service time of the in-window slow events over the
    #: healthy pool median
    slowdown: float
    n_events: int
    #: resend count inside the window (0 when the trace has no retry
    #: meta-events; > 0 is direct evidence of a full stall)
    n_retries: int = 0


def find_transient_faults(
    trace: Trace,
    layout: StripeLayout,
    ops: Tuple[str, ...] = DATA_OPS,
    threshold: float = 4.0,
    min_events: int = 3,
    max_span_fraction: float = 0.8,
) -> List[TransientFault]:
    """Localise time-windowed device faults from the event ensemble.

    Method: normalise every event to per-byte service time; events beyond
    ``threshold`` x the pool median are *flagged*.  Flagged events are
    attributed to every OST their extent touches.  A device is a transient
    suspect when

    - it collects at least ``min_events`` flagged events (``retry``
      meta-events -- client RPC resends recorded when the fault layer
      stalls an OST -- are direct evidence and count toward the floor),
    - their hull [earliest start, latest end] covers less than
      ``max_span_fraction`` of the trace (a device slow end-to-end is a
      *static* suspect -- :func:`find_slow_osts`'s job),
    - its in-window events are slow *relative to contemporaneous events
      on other devices* (a pool-wide slow mode -- cache-miss bimodality,
      a congested interconnect -- slows every device at once and is not
      a device fault), and
    - the device's events *outside* the hull look like the healthy pool
      (median within ``threshold/2`` x pool median), so the fault really
      switched off.
    """
    _check_params(
        threshold=threshold, min_events=min_events,
        max_span_fraction=max_span_fraction,
    )
    sub = trace.filter(ops=list(ops))
    if len(sub) == 0:
        return []
    per_byte, ok = _per_byte(sub)
    if ok.sum() < max(2 * min_events, 8):
        return []
    pool_median = float(np.median(per_byte[ok]))
    if not (pool_median > 0):
        return []
    flagged = ok & (per_byte >= threshold * pool_median)
    # retries are charged through the extents of this call's ops
    retries = trace.filter(ops=["retry"])
    retry_idx = _meta_devices(retries, sub, layout)
    if not flagged.any() and not retry_idx:
        return []

    # each valid event's device set, derived once: device -> event mask
    valid = np.flatnonzero(ok)
    devices: Dict[int, np.ndarray] = {}
    for ost, pos in _touches(layout, zip(
        sub.offsets[valid].tolist(), sub.sizes[valid].tolist()
    )).items():
        devices[ost] = np.zeros(len(sub), dtype=bool)
        devices[ost][valid[pos]] = True
    nowhere = np.zeros(len(sub), dtype=bool)

    starts, ends = sub.starts, sub.ends
    span = float(trace.span) or 1.0
    out: List[TransientFault] = []
    suspects = {o for o, m in devices.items() if (m & flagged).any()}
    for ost in sorted(suspects | set(retry_idx)):
        dev = devices.get(ost, nowhere)
        mine = retry_idx.get(ost, [])
        n_retries = int(retries.sizes[mine].sum())
        n_slow = int((flagged & dev).sum())
        if n_slow + n_retries < min_events:
            continue
        win = _slow_window(
            starts, ends, per_byte, dev, threshold, span,
            baseline=pool_median, min_slow=1,
            extra=(retries.starts[mine], retries.ends[mine]),
            span_fraction=max_span_fraction,
        )
        if win is None:
            continue  # sick the whole run: static, not transient
        # slow relative to *contemporaneous* events on other devices?
        # (a pool-wide slow mode slows every OST at once -- not a fault)
        apart = (ends < win.w0) | (starts > win.w1)
        others = per_byte[ok & ~apart & ~dev]
        if n_slow and len(others) and np.median(per_byte[win.slow]) < (
            threshold / 2.0
        ) * np.median(others):
            continue
        # the device must look healthy outside the window
        outside = per_byte[dev & ~((starts >= win.w0) & (ends <= win.w1))]
        if len(outside) and np.median(outside) > (
            threshold / 2.0
        ) * pool_median:
            continue
        out.append(
            TransientFault(
                ost=ost,
                t_start=win.w0,
                t_end=win.w1,
                slowdown=win.slowdown,
                n_events=n_slow,
                n_retries=n_retries,
            )
        )
    out.sort(key=lambda f: (f.n_retries, f.slowdown), reverse=True)
    return out


@dataclass(frozen=True)
class MaskedFault:
    """A sick device whose tail cost replica failover absorbed.

    The dual of :class:`TransientFault`: with client-side failover the
    stalled OST never shows up as slow events -- the damage was *averted*,
    not suffered.  The evidence is the trace's ``failover`` meta-events,
    each recording how many copies an op steered around (``size``) and
    the stall time the steer saved (``duration``).  Attributing them to
    the failing op's **primary** extent placement names the device the
    clients were routing around.
    """

    ost: int
    #: data ops that steered around this device
    n_events: int
    #: replica copies bypassed in total (>= n_events)
    n_failovers: int
    #: the largest single averted stall window (seconds) -- the tail time
    #: one ride-out on this device would have cost
    masked_time: float
    t_start: float
    t_end: float


def find_masked_faults(
    trace: Trace,
    layout: StripeLayout,
    min_events: int = 1,
) -> List[MaskedFault]:
    """Localise the devices that client failover steered around.

    Each ``failover`` meta-event shares (rank, offset) with the data op it
    annotates, so the op's extent length is recoverable from the data
    stream and the event maps -- through the *primary* layout, the copy
    the client abandoned -- onto the OSTs it was routed away from.
    Devices collecting at least ``min_events`` such events are reported,
    worst averted stall first.

    Overlapping ops all observe the same remaining stall window, so the
    per-device masked time is the *maximum* averted duration, not a sum
    (a sum would count one window once per bypassing op).
    """
    _check_params(min_events=min_events)
    return [
        MaskedFault(*row)
        for row in _averted(trace, "failover", layout, min_events)
    ]


@dataclass(frozen=True)
class RebuildPressure:
    """A lost device whose reads erasure coding served by reconstruction.

    The erasure-coded sibling of :class:`MaskedFault`: with k+m placement
    a stalled data device costs one detection timeout, after which every
    read touching it is rebuilt from the ``k`` survivors of its stripe
    group -- the stall never shows up as slow events, but each rebuild
    leaves a ``degraded-read`` meta-event (``size`` = stripe groups
    reconstructed, ``duration`` = the stall time the rebuild averted).
    Attributing those through the file's *data* placement names the
    device the survivors were rebuilding, and the group counts measure
    the fan-out load the rebuild spread over the rest of the pool.
    """

    ost: int
    #: reads served degraded that touched this device
    n_events: int
    #: stripe groups reconstructed in total (>= n_events)
    n_groups: int
    #: the largest single averted stall window (seconds)
    masked_time: float
    t_start: float
    t_end: float


def find_rebuild_pressure(
    trace: Trace,
    layout: StripeLayout,
    min_events: int = 1,
) -> List[RebuildPressure]:
    """Localise the devices degraded erasure-coded reads rebuilt around.

    Each ``degraded-read`` meta-event shares (rank, offset) with the data
    op it annotates, so the op's extent length is recoverable from the
    data stream and the event maps -- through the *data* placement, the
    units the client could not reach -- onto the candidate lost devices.
    ``layout`` may be the plain :class:`StripeLayout` or the file's
    :class:`~repro.iosys.erasure.ErasureCodedLayout` (its data placement
    is used).  Devices collecting at least ``min_events`` such events are
    reported, worst averted stall first.

    Like :func:`find_masked_faults`, overlapping ops observe the same
    remaining stall window, so per-device masked time is the *maximum*
    averted duration, not a sum.
    """
    _check_params(min_events=min_events)
    data_layout = getattr(layout, "data_layout", layout)
    return [
        RebuildPressure(*row)
        for row in _averted(trace, "degraded-read", data_layout, min_events)
    ]


# -- the shared statistics of the fault detectors ------------------------------
#
# Every detector here and in :mod:`repro.ensembles.diagnose` is the paper's
# test -- judge each event against its ensemble -- run along the time axis:
# a median baseline, the events running k x beyond it, and the window they
# span.  The helpers below are its one implementation.


def _check_params(**params: float) -> None:
    """Reject a detector knob outside its domain, naming the parameter:
    slowdown multipliers are finite and > 1, event floors >= 1, and
    fractions lie in (0, 1]."""
    for name, value in params.items():
        if name in ("threshold", "min_slowdown"):
            ok, domain = math.isfinite(value) and value > 1, "finite and > 1"
        elif name == "min_events":
            ok, domain = value >= 1, ">= 1"
        else:  # max_span_fraction, min_share
            ok, domain = 0 < value <= 1, "in (0, 1]"
        if not ok:
            raise ValueError(f"{name} must be {domain}, got {value!r}")


def _per_byte(sub: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """Each event's per-byte service time (0 where undefined) and the mask
    of events where it is defined: positive size and duration."""
    sizes, durations = sub.sizes, sub.durations
    valid = (sizes > 0) & (durations > 0)
    values = np.zeros(len(sub))
    values[valid] = durations[valid] / sizes[valid]
    return values, valid


class _Window(NamedTuple):
    w0: float
    w1: float
    #: the events running k x over the baseline
    slow: np.ndarray
    baseline: float
    #: median slow value over the baseline (k when no event is slow)
    slowdown: float


def _slow_window(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    valid: np.ndarray,
    k: float,
    span: float,
    *,
    baseline: Optional[float] = None,
    min_slow: int = 3,
    extra: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    span_fraction: float = 0.8,
) -> Optional[_Window]:
    """The slow window of an ensemble, or ``None``.

    Events of ``valid`` whose value runs ``k`` x over ``baseline`` (the
    median valid value unless given) are *slow*; the window is the hull of
    the slow events -- when at least ``min_slow >= 1`` of them -- and of the
    ``extra`` (starts, ends) spans.  A window covering ``span_fraction``
    of ``span`` or more is systemic, not a window, and is rejected.
    """
    if baseline is None:
        baseline = float(np.median(values[valid]))
        if baseline <= 0:
            return None
    slow = valid & (values >= k * baseline)
    n_slow = int(slow.sum())
    los, his = [], []
    if n_slow >= min_slow:
        los.append(starts[slow].min())
        his.append(ends[slow].max())
    if extra is not None and len(extra[0]):
        los.append(extra[0].min())
        his.append(extra[1].max())
    if not los:
        return None
    w0, w1 = float(min(los)), float(max(his))
    if span <= 0 or (w1 - w0) >= span_fraction * span:
        return None
    slowdown = (
        float(np.median(values[slow]) / baseline) if n_slow else float(k)
    )
    return _Window(w0, w1, slow, baseline, slowdown)


def _run_window(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    valid: np.ndarray,
    k: float,
    span: float,
    min_valid: int,
    extra: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Optional[_Window]:
    """The whole-run slow window: at least ``min_valid`` valid events, a
    :func:`_slow_window` against their own median, and a healthy run on
    both sides -- at least 8 events wholly outside the window, with a
    median within 2 x the baseline."""
    if valid.sum() < min_valid:
        return None
    win = _slow_window(starts, ends, values, valid, k, span, extra=extra)
    if win is None:
        return None
    outside = values[valid & ((ends < win.w0) | (starts > win.w1))]
    if len(outside) < 8 or np.median(outside) > 2.0 * win.baseline:
        return None
    return win


def _touches(
    layout: StripeLayout, extents: Iterable[Tuple[int, int]]
) -> Dict[int, List[int]]:
    """Device -> positions of the (offset, length) extents touching it,
    devices in the order they are first touched."""
    out: Dict[int, List[int]] = {}
    for i, (offset, length) in enumerate(extents):
        for ost in layout.bytes_per_ost(offset, length):
            out.setdefault(ost, []).append(i)
    return out


def _meta_devices(
    meta: Trace, data: Trace, layout: StripeLayout
) -> Dict[int, List[int]]:
    """Charge each meta-event to the devices its op's extent touches.

    A meta-event shares (rank, offset) with the data op it annotates; its
    ``size`` is a count, so the extent length comes from ``data`` -- the
    last op at that (rank, offset), else one byte.  Returns device ->
    meta-event positions, devices in first-touch order.
    """
    extent_of = {
        (rank, offset): size
        for rank, offset, size in zip(
            data.ranks.tolist(), data.offsets.tolist(), data.sizes.tolist()
        )
    }
    return _touches(layout, (
        (offset, max(extent_of.get((rank, offset), 1), 1))
        for rank, offset in zip(meta.ranks.tolist(), meta.offsets.tolist())
    ))


def _averted(
    trace: Trace, op: str, layout: StripeLayout, min_events: int
) -> List[Tuple[int, int, int, float, float, float]]:
    """Per device, the ``op`` meta-events a resilience mechanism left:
    ``(ost, n_events, summed size, largest duration, first start, last
    end)`` for devices charged at least ``min_events`` times, worst
    averted stall first (ties keep first-touch order)."""
    meta = trace.filter(ops=[op])
    if len(meta) == 0:
        return []
    sizes, durations = meta.sizes, meta.durations
    starts, ends = meta.starts, meta.ends
    rows = []
    for ost, idx in _meta_devices(meta, trace.data_ops(), layout).items():
        if len(idx) < min_events:
            continue
        rows.append((
            ost,
            len(idx),
            int(sizes[idx].sum()),
            max(0.0, float(durations[idx].max())),
            float(starts[idx].min()),
            float(ends[idx].max()),
        ))
    rows.sort(key=lambda r: (r[3], r[1]), reverse=True)
    return rows
