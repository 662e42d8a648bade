"""Automated bottleneck diagnosis from ensemble statistics.

This operationalises the paper's workflow: each finding below is one of
the diagnostic patterns the authors read off their histograms by hand,
expressed as a test over the trace's ensembles.

- ``harmonic-modes``        Fig 1c: completion-time modes at T, T/2, T/4
                            -> node-level I/O service serialisation.
- ``broad-right-shoulder``  Fig 4c: reads with a far-reaching slow tail
                            -> read-ahead/caching interference suspect.
- ``progressive-deterioration``  Fig 5a: later same-kind phases strictly
                            slower -> state accumulating in the client
                            (the Lustre strided read-ahead bug signature).
- ``rank0-serialization``   Fig 6g: tiny transfers concentrated on rank 0
                            occupying wallclock -> metadata not aggregated.
- ``below-fair-share``      Fig 6c: per-task rate modes well under the
                            fair share -> contention/alignment problems.
- ``unaligned-io``          GCRM: record boundaries off the stripe grid ->
                            recommend padding/alignment.
- ``lln-opportunity``       Fig 2: few large transfers per task with high
                            spread -> splitting or aggregating transfers
                            will pull the worst case toward the mean.
- ``transient-fault``       a contiguous time window in which events (on
                            one device, when the file layout is supplied)
                            run far slower than the surrounding run, or
                            client RPC retries cluster -> storage health
                            changed mid-run (stall, rebuild); localised in
                            time and device via
                            :func:`~repro.ensembles.locate.find_transient_faults`.
- ``failover-masked-fault`` clustered ``failover`` meta-events -> a device
                            went dark but replica failover absorbed the
                            tail; the finding names the sick device (via
                            :func:`~repro.ensembles.locate.find_masked_faults`
                            when the layout is supplied) and the stall
                            time the steering averted, so the fault is
                            repaired *before* it ever costs a run.
- ``ec-degraded``           clustered ``degraded-read`` meta-events -> a
                            data device was lost but erasure-coded reads
                            were rebuilt from the stripe groups' survivors;
                            the finding names the lost device (via
                            :func:`~repro.ensembles.locate.find_rebuild_pressure`
                            when the layout is supplied) and the rebuild
                            fan-out the rest of the pool is carrying.
- ``cross-tenant-interference``  (multi-tenant facilities, via
                            :func:`find_interference`) a victim job's slow
                            interval lines up with a co-resident tenant
                            dominating the contended resource -- "your
                            slowdown is tenant B's metadata storm".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..ipm.events import READ_OPS, WRITE_OPS, Trace
from .distribution import EmpiricalDistribution
from .locate import (
    _check_params,
    _per_byte,
    _run_window,
    find_masked_faults,
    find_rebuild_pressure,
    find_transient_faults,
)
from .modes import detect_modes, harmonics
from .progress import deterioration_trend, phase_progress

__all__ = ["Finding", "diagnose", "find_interference"]

MiB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Finding:
    code: str
    severity: float  # 0..1
    message: str
    recommendation: str
    evidence: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - presentation
        return f"[{self.code} sev={self.severity:.2f}] {self.message}"


def _durations_dist(trace: Trace) -> Optional[EmpiricalDistribution]:
    d = trace.durations
    d = d[d > 0]
    if len(d) < 8:
        return None
    return EmpiricalDistribution(d)


def diagnose(
    trace: Trace,
    nranks: Optional[int] = None,
    fair_share_rate: Optional[float] = None,
    stripe_size: Optional[int] = None,
    phase_prefix: Optional[str] = None,
    layout=None,
) -> List[Finding]:
    """Run every diagnostic over a trace; findings sorted by severity.

    ``layout`` (a :class:`~repro.iosys.striping.StripeLayout`, known to the
    analyst because it is how the file was created) enables device-level
    localisation of transient faults; without it the transient check still
    runs, but reports the time window only.
    """
    findings: List[Finding] = []
    nranks = nranks if nranks is not None else (
        int(trace.ranks.max()) + 1 if len(trace) else 0
    )
    writes = trace.writes()
    reads = trace.reads()

    findings.extend(_check_harmonics(writes, "write"))
    findings.extend(_check_harmonics(reads, "read"))
    findings.extend(_check_shoulder(reads, "read"))
    findings.extend(_check_shoulder(writes, "write"))
    findings.extend(_check_deterioration(trace, phase_prefix))
    findings.extend(_check_rank0(trace, nranks))
    if fair_share_rate:
        findings.extend(_check_fair_share(trace, fair_share_rate))
    if stripe_size:
        findings.extend(_check_alignment(trace, stripe_size))
    findings.extend(_check_lln(trace, nranks))
    findings.extend(_check_transient_fault(trace, layout))
    findings.extend(
        _check_absorbed(trace, layout, find_masked_faults, _FAILOVER)
    )
    findings.extend(
        _check_absorbed(trace, layout, find_rebuild_pressure, _EC_DEGRADED)
    )

    findings.sort(key=lambda f: f.severity, reverse=True)
    return findings


# -- individual checks ----------------------------------------------------------


def _burst_span(sub: Trace, max_gap: float = 2.0) -> float:
    """Total wallclock covered by bursts of the given events: consecutive
    events closer than ``max_gap`` are merged into one interval."""
    if len(sub) == 0:
        return 0.0
    order = np.argsort(sub.starts)
    starts = sub.starts[order]
    ends = sub.ends[order]
    total = 0.0
    cur_start, cur_end = starts[0], ends[0]
    for s, e in zip(starts[1:], ends[1:]):
        if s <= cur_end + max_gap:
            cur_end = max(cur_end, e)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = s, e
    total += cur_end - cur_start
    return float(total)


def _check_harmonics(sub: Trace, kind: str) -> List[Finding]:
    dist = _durations_dist(sub)
    if dist is None:
        return []
    modes = detect_modes(dist, min_prominence=0.08)
    structure = harmonics(modes)
    if structure is None or not structure.is_harmonic:
        return []
    sev = min(0.4 + 0.1 * len(modes), 0.9)
    ks = ",".join(str(k) for k in structure.harmonic_numbers)
    return [
        Finding(
            code="harmonic-modes",
            severity=sev,
            message=(
                f"{kind} completion times form {len(modes)} modes at "
                f"T/k for k={{{ks}}} (T={structure.fundamental:.2f}s): "
                f"node-level I/O service is serialising tasks"
            ),
            recommendation=(
                "tasks on a node are served in turn rather than fairly; "
                "reduce writers per node or use collective buffering so "
                "service order stops defining per-task times"
            ),
            evidence={
                "fundamental": structure.fundamental,
                "n_modes": float(len(modes)),
                "max_deviation": structure.max_deviation,
            },
        )
    ]


def _check_shoulder(sub: Trace, kind: str) -> List[Finding]:
    dist = _durations_dist(sub)
    if dist is None:
        return []
    tail = dist.tail_weight(q=0.9)
    median = dist.median
    worst = dist.moments().max
    if not np.isfinite(tail) or tail < 4.0:
        return []
    sev = min(0.5 + 0.1 * np.log10(tail), 1.0)
    return [
        Finding(
            code="broad-right-shoulder",
            severity=float(sev),
            message=(
                f"{kind}s have a broad right shoulder: slowest event "
                f"{worst:.1f}s is {worst / median:.0f}x the median "
                f"({median:.2f}s)"
            ),
            recommendation=(
                "a small number of events defines run time (Nth order "
                "statistic); inspect per-phase progress curves and "
                "client-side caching/read-ahead interactions"
            ),
            evidence={"tail_weight": float(tail), "median": median, "max": worst},
        )
    ]


def _longest_rising_run(values: np.ndarray) -> tuple:
    """Indices (lo, hi) of the longest run where each step rises (with a
    10% slack for noise)."""
    best = (0, 0)
    lo = 0
    for i in range(1, len(values)):
        if values[i] >= values[i - 1] * 0.9 and values[i] >= values[lo]:
            if (i - lo) > (best[1] - best[0]):
                best = (lo, i)
        else:
            lo = i
    return best


def _phase_families(phases: List[str]) -> Dict[str, List[str]]:
    """Group numbered phase labels into families: 'W_read4'..'W_read8'
    belong to family 'W_read', ordered by their trailing number."""
    import re

    families: Dict[str, List[tuple]] = {}
    for p in phases:
        m = re.match(r"^(.*?)(\d+)$", p)
        if not m:
            continue
        families.setdefault(m.group(1), []).append((int(m.group(2)), p))
    return {
        prefix: [p for _n, p in sorted(members)]
        for prefix, members in families.items()
        if len(members) >= 3
    }


def _check_deterioration(
    trace: Trace, phase_prefix: Optional[str]
) -> List[Finding]:
    phases = trace.phase_names()
    if phase_prefix is not None:
        families = {phase_prefix: [p for p in phases
                                   if p.startswith(phase_prefix)]}
    else:
        families = _phase_families(phases)
    findings: List[Finding] = []
    for prefix, members in families.items():
        if len(members) < 3:
            continue
        curves = phase_progress(trace, members)
        ordered = [curves[p] for p in members if p in curves]
        if len(ordered) < 3:
            continue
        tq, monotonicity = deterioration_trend(ordered)
        # tolerate a flat healthy start (reads 1..3 in MADbench) or a
        # recovery after the sick stretch (the final-phase reads, when
        # automatic segmentation merges them into the same family): look
        # for the longest strictly-worsening run inside the series
        run_lo, run_hi = _longest_rising_run(tq)
        run = tq[run_lo : run_hi + 1]
        worsening = monotonicity >= 0.75 or (
            len(run) >= 4 and run[-1] > 1.5 * max(run[0], 1e-9)
        )
        if not worsening or tq.max() <= 1.5 * max(tq.min(), 1e-9):
            continue
        if monotonicity < 0.75:
            tq = run
            members = members[run_lo : run_hi + 1]
        sev = min(0.5 + 0.25 * (tq[-1] / max(tq[0], 1e-9) - 1.5) / 3.0, 1.0)
        findings.append(
            Finding(
                code="progressive-deterioration",
                severity=float(sev),
                message=(
                    f"phases {members[0]}..{members[-1]} deteriorate "
                    f"progressively: 90%-completion time grows "
                    f"{tq[0]:.1f}s -> {tq[-1]:.1f}s"
                ),
                recommendation=(
                    "per-stream client state is accumulating across phases "
                    "(read-ahead window ramp under memory pressure is the "
                    "classic cause); check strided-access handling in the "
                    "file-system client"
                ),
                evidence={
                    "monotonicity": monotonicity,
                    "t90_first": float(tq[0]),
                    "t90_last": float(tq[-1]),
                },
            )
        )
    return findings


def _check_rank0(trace: Trace, nranks: int) -> List[Finding]:
    if nranks < 2 or len(trace) == 0:
        return []
    tiny = trace.filter(ops=WRITE_OPS + READ_OPS, max_size=64 * 1024)
    if len(tiny) < 16:
        return []
    on_rank0 = tiny.filter(ranks=[0])
    frac_ops = len(on_rank0) / len(tiny)
    # The cost of serialised metadata is the *wallclock span* of rank-0's
    # tiny-op bursts (the library works between the writes too), not the
    # summed transfer durations -- these are the "large gaps caused by
    # serialized writing on task 0" visible in the trace graph.
    serial_time = _burst_span(on_rank0, max_gap=2.0)
    wall = trace.span
    if frac_ops < 0.9 or wall <= 0 or serial_time / wall < 0.1:
        return []
    sev = min(0.4 + serial_time / wall, 1.0)
    return [
        Finding(
            code="rank0-serialization",
            severity=float(sev),
            message=(
                f"{len(on_rank0)} tiny transfers run serially on rank 0, "
                f"occupying {serial_time:.1f}s of {wall:.1f}s wallclock "
                f"({serial_time / wall:.0%})"
            ),
            recommendation=(
                "aggregate metadata into few large writes deferred to "
                "file close (the GCRM fix: many <3KB writes -> one 1MB "
                "write)"
            ),
            evidence={
                "serial_time": serial_time,
                "wall_fraction": serial_time / wall,
                "n_ops": float(len(on_rank0)),
            },
        )
    ]


def _check_fair_share(trace: Trace, fair_share_rate: float) -> List[Finding]:
    data = trace.data_ops()
    sizes = data.sizes.astype(float)
    durations = data.durations
    ok = (sizes > 0) & (durations > 0)
    if ok.sum() < 8:
        return []
    rates = sizes[ok] / durations[ok]
    dist = EmpiricalDistribution(rates)
    typical = dist.median
    if typical >= 0.5 * fair_share_rate:
        return []
    ratio = typical / fair_share_rate
    sev = min(0.4 + (0.5 - ratio), 1.0)
    return [
        Finding(
            code="below-fair-share",
            severity=float(sev),
            message=(
                f"typical per-task rate {typical / MiB:.2f} MB/s is "
                f"{ratio:.0%} of the fair share "
                f"{fair_share_rate / MiB:.2f} MB/s"
            ),
            recommendation=(
                "look for lock contention, unaligned records, or too many "
                "writers per storage target; check the rate histogram for "
                "a bulge below the fair-share mode"
            ),
            evidence={"median_rate": typical, "fair_share": fair_share_rate},
        )
    ]


def _check_alignment(trace: Trace, stripe_size: int) -> List[Finding]:
    data = trace.data_ops()
    if len(data) < 8:
        return []
    offsets = data.offsets
    sizes = data.sizes
    big = sizes >= 64 * 1024
    if big.sum() < 8:
        return []
    misaligned = (
        (offsets[big] % stripe_size != 0)
        | ((offsets[big] + sizes[big]) % stripe_size != 0)
    )
    frac = float(misaligned.mean())
    if frac < 0.5:
        return []
    return [
        Finding(
            code="unaligned-io",
            severity=min(0.3 + 0.5 * frac, 0.9),
            message=(
                f"{frac:.0%} of data transfers start or end off the "
                f"{stripe_size // 1024} KB stripe grid"
            ),
            recommendation=(
                "pad and align records to stripe boundaries (HDF5 "
                "alignment parameters); unaligned shared-file writes "
                "cause extent-lock ping-pong and read-modify-write"
            ),
            evidence={"misaligned_fraction": frac},
        )
    ]


def _slowdown_severity(slowdown: float) -> float:
    """Severity of a window running ``slowdown`` x slow: 0.5 at 1x, +0.1
    per doubling, capped at 1."""
    return float(min(0.5 + 0.1 * np.log2(max(slowdown, 1.0)), 1.0))


def _check_transient_fault(trace: Trace, layout=None) -> List[Finding]:
    """Storage health changed mid-run: a contiguous window of far-slower
    events (and/or clustered client RPC retries), healthy on both sides.

    With a layout the verdict names the device (via
    :func:`~repro.ensembles.locate.find_transient_faults`); without one it
    reports the window alone, from the time-clustering of slow events.
    """
    if layout is not None:
        suspects = find_transient_faults(trace, layout)
        if not suspects:
            return []
        top = suspects[0]
        sev = _slowdown_severity(top.slowdown)
        if top.n_retries > 0:
            sev = min(sev + 0.1, 1.0)
        wall = trace.span or 1.0
        return [
            Finding(
                code="transient-fault",
                severity=float(sev),
                message=(
                    f"OST {top.ost} served {top.n_events} events "
                    f"{top.slowdown:.0f}x slower than the pool during "
                    f"[{top.t_start:.1f}s, {top.t_end:.1f}s] "
                    f"({(top.t_end - top.t_start) / wall:.0%} of the run)"
                    + (f"; {top.n_retries} RPC resends inside the window"
                       if top.n_retries else "")
                ),
                recommendation=(
                    "storage health changed mid-run (transient stall or "
                    "degraded rebuild); check the device's controller logs "
                    "for the reported window, and enable client "
                    "retry/backoff so stuck RPCs re-drive quickly"
                ),
                evidence={
                    "device": float(top.ost),
                    "t_start": top.t_start,
                    "t_end": top.t_end,
                    "slowdown": top.slowdown,
                    "n_events": float(top.n_events),
                    "n_retries": float(top.n_retries),
                },
            )
        ]

    # no layout: time-only localisation from the slow-event cluster, which
    # the retry meta-events widen (or stand in for)
    data = trace.data_ops()
    per_byte, valid = _per_byte(data)
    retries = trace.filter(ops=["retry"])
    win = _run_window(
        data.starts, data.ends, per_byte, valid, 4.0, trace.span or 1.0,
        min_valid=16, extra=(retries.starts, retries.ends),
    )
    if win is None:
        return []
    n_slow = int(win.slow.sum())
    return [
        Finding(
            code="transient-fault",
            severity=_slowdown_severity(win.slowdown),
            message=(
                f"{n_slow} events ran {win.slowdown:.0f}x slower than "
                f"the rest of the run during [{win.w0:.1f}s, {win.w1:.1f}s]"
                + (f"; {len(retries)} ops re-drove RPCs inside the window"
                   if len(retries) else "")
            ),
            recommendation=(
                "storage health changed mid-run; re-run the analysis with "
                "the file's stripe layout to name the device, and check "
                "operator logs for the reported window"
            ),
            evidence={
                "device": -1.0,
                "t_start": win.w0,
                "t_end": win.w1,
                "slowdown": win.slowdown,
                "n_events": float(n_slow),
                "n_retries": float(len(retries)),
            },
        )
    ]


@dataclass(frozen=True)
class _Absorbed:
    """How a finding reads for one kind of fault a resilience mechanism
    absorbed: the meta-event the mechanism leaves, the finding code, the
    per-device count the finder reports (also its evidence key), and the
    message and recommendation with and without a located device."""

    op: str
    code: str
    count: str
    #: what happened, given ``{n}`` events and the ``{count}``
    located: str
    fix_located: str
    #: what happened, given ``{n}`` events
    unlocated: str
    fix_unlocated: str


_FAILOVER = _Absorbed(
    op="failover",
    code="failover-masked-fault",
    count="n_failovers",
    located="{n} ops failed over to replica copies",
    fix_located=(
        "replication hid this fault from run time, but the "
        "skipped copies are stale and redundancy is reduced; "
        "check the device and resync its mirrors before the "
        "next fault lands on the surviving copy"
    ),
    unlocated="{n} ops failed over to replica copies",
    fix_unlocated=(
        "a device went dark but replication absorbed it; re-run "
        "the analysis with the file's stripe layout to name the "
        "device, then resync its mirrors"
    ),
)

_EC_DEGRADED = _Absorbed(
    op="degraded-read",
    code="ec-degraded",
    count="n_groups",
    located=(
        "{n} reads were rebuilt from parity "
        "({count} stripe groups reconstructed)"
    ),
    fix_located=(
        "erasure coding hid this fault from run time, but "
        "every degraded read fans out across the group's "
        "survivors and redundancy is reduced; replace the "
        "device and rebuild its units before a second loss "
        "exceeds the code's tolerance"
    ),
    unlocated="{n} reads were served degraded (rebuilt from parity)",
    fix_unlocated=(
        "a data device was lost but erasure coding absorbed it; "
        "re-run the analysis with the file's layout to name the "
        "device, then rebuild its units"
    ),
)


def _check_absorbed(
    trace: Trace, layout, finder, kind: _Absorbed
) -> List[Finding]:
    """A device went dark mid-run but a resilience mechanism absorbed the
    cost: the evidence is not slow events (there are none -- that is the
    point) but the meta-events the mechanism left behind, each carrying
    the stall time it averted.

    - ``failover-masked-fault``: client-side replica failover steered
      around the device (``failover`` meta-events; the finder is
      :func:`~repro.ensembles.locate.find_masked_faults`).  Fix before
      the next fault lands on the surviving copy.
    - ``ec-degraded``: erasure coding served the device's reads by
      rebuilding them from the stripe groups' survivors
      (``degraded-read`` meta-events;
      :func:`~repro.ensembles.locate.find_rebuild_pressure`).  Unlike a
      masked mirror fault the cost is ongoing: every degraded read loads
      all ``k`` survivors of its group, a fan-out tax the pool pays until
      the device is replaced.

    With a layout the verdict names the device ``finder`` locates; without
    one it reports the meta-events' window alone.  Severity stays
    moderate: the run survived, so this is a repair ticket, not a
    post-mortem.
    """
    meta = trace.filter(ops=[kind.op])
    if len(meta) == 0:
        return []
    wall = trace.span or 1.0
    if layout is None:
        w0 = float(meta.starts.min())
        w1 = float(meta.ends.max())
        averted = float(meta.durations.max())
        message = (
            f"{kind.unlocated.format(n=len(meta))} during "
            f"[{w0:.1f}s, {w1:.1f}s]"
        )
        recommendation = kind.fix_unlocated
        evidence = {
            "device": -1.0,
            "t_start": w0,
            "t_end": w1,
            "masked_time": averted,
            "n_events": float(len(meta)),
        }
    else:
        located = finder(trace, layout)
        if not located:
            return []
        top = located[0]
        count = getattr(top, kind.count)
        averted = top.masked_time
        message = (
            f"OST {top.ost} went unreachable during "
            f"[{top.t_start:.1f}s, {top.t_end:.1f}s] but "
            + kind.located.format(n=top.n_events, count=count)
        )
        recommendation = kind.fix_located
        evidence = {
            "device": float(top.ost),
            "t_start": top.t_start,
            "t_end": top.t_end,
            "masked_time": averted,
            "n_events": float(top.n_events),
            kind.count: float(count),
        }
    sev = min(0.3 + 0.5 * (averted / wall), 0.8)
    return [
        Finding(
            code=kind.code,
            severity=float(sev),
            message=f"{message}, averting up to {averted:.1f}s of stall per op",
            recommendation=recommendation,
            evidence=evidence,
        )
    ]


def _check_lln(trace: Trace, nranks: int) -> List[Finding]:
    data = trace.data_ops()
    if len(data) == 0 or nranks == 0:
        return []
    ops_per_rank = len(data) / nranks
    if ops_per_rank > 8:
        return []
    dist = _durations_dist(data)
    if dist is None:
        return []
    cv = dist.moments().cv
    if cv < 0.4:
        return []
    return [
        Finding(
            code="lln-opportunity",
            severity=float(min(0.3 + 0.3 * cv, 0.8)),
            message=(
                f"only {ops_per_rank:.1f} transfers per task with spread "
                f"cv={cv:.2f}: the slowest task defines run time"
            ),
            recommendation=(
                "give each task more samples from the distribution -- "
                "split transfers or aggregate onto fewer I/O tasks doing "
                "many transfers each (Law of Large Numbers, Fig 2)"
            ),
            evidence={"ops_per_rank": ops_per_rank, "cv": cv},
        )
    ]


# -- cross-tenant interference (multi-tenant facilities) ------------------------

#: namespace ops whose service time is set by the metadata server
META_OPS = ("open", "close", "stat", "fsync")


def _co_residents(timeline, victim: int, w0: float, w1: float) -> List[int]:
    return [
        t
        for t in timeline.resident_tenants(w0, w1)
        if t != victim and t in timeline.tenants
    ]


def find_interference(
    victim_trace: Trace,
    timeline,
    victim: int,
    min_slowdown: float = 3.0,
    min_share: float = 0.6,
) -> List[Finding]:
    """Attribute a victim job's slow intervals to co-resident tenants.

    ``victim_trace`` is the victim job's own client-side trace (times are
    facility times); ``timeline`` is the shared facility's
    :class:`~repro.iosys.telemetry.TelemetryTimeline` with per-tenant
    accounting; ``victim`` is the victim's tenant id.

    Two mechanisms are checked, mirroring the two ways a neighbour hurts:

    - **metadata storm** -- the victim's namespace ops (open/close/stat)
      run ``min_slowdown``x over its own median inside a contiguous
      window, and one co-resident tenant issued ``min_share`` of the
      co-tenant MDS load in that window *and* out-issued the victim.
    - **bandwidth hog** -- the victim's per-byte transfer times shift the
      same way, and one co-resident tenant moved ``min_share`` of the
      co-tenant bytes through the most-contended device the victim was
      using.

    Each finding carries the accused tenant in ``evidence["aggressor"]``
    so :func:`~repro.ensembles.oracle.verify_interference` can grade the
    attribution against the server-side ledger.
    """
    _check_params(min_slowdown=min_slowdown, min_share=min_share)
    findings: List[Finding] = []
    if len(getattr(timeline, "tenants", {})) < 2 or victim not in timeline.tenants:
        return findings
    names = timeline.tenants
    span = victim_trace.span

    # -- metadata storm path ------------------------------------------------
    meta = victim_trace.filter(ops=list(META_OPS))
    win = _run_window(
        meta.starts, meta.ends, meta.durations, meta.durations > 0,
        min_slowdown, span, min_valid=12,
    )
    if win is not None:
        w0, w1, slowdown = win.w0, win.w1, win.slowdown
        n_slow = int(win.slow.sum())
        residents = _co_residents(timeline, victim, w0, w1)
        ops_by = {t: timeline.tenant_mds_ops(t, w0, w1) for t in residents}
        total_co = sum(ops_by.values())
        own = timeline.tenant_mds_ops(victim, w0, w1)
        if total_co > 0:
            agg = max(ops_by, key=lambda t: ops_by[t])
            share = ops_by[agg] / total_co
            if share >= min_share and ops_by[agg] >= 8 and ops_by[agg] > own:
                findings.append(
                    Finding(
                        code="cross-tenant-interference",
                        severity=_slowdown_severity(slowdown),
                        message=(
                            f"{n_slow} of "
                            f"{names.get(victim, victim)}'s namespace ops "
                            f"ran {slowdown:.0f}x slower during "
                            f"[{w0:.1f}s, {w1:.1f}s]: co-resident tenant "
                            f"{agg} ({names.get(agg, '?')}) issued "
                            f"{share:.0%} of the co-tenant MDS load -- a "
                            f"metadata storm next door"
                        ),
                        recommendation=(
                            "the victim is healthy; throttle or reschedule "
                            "the storming tenant's namespace churn, or move "
                            "its working set to a separate metadata domain"
                        ),
                        evidence={
                            "aggressor": float(agg),
                            "victim": float(victim),
                            "device": -1.0,
                            "t_start": w0,
                            "t_end": w1,
                            "share": float(share),
                            "slowdown": slowdown,
                            "n_events": float(n_slow),
                            "mds": 1.0,
                        },
                    )
                )

    # -- bandwidth hog path -------------------------------------------------
    data = victim_trace.data_ops()
    per_byte, valid = _per_byte(data)
    win = _run_window(
        data.starts, data.ends, per_byte, valid, min_slowdown, span,
        min_valid=12,
    )
    if win is not None:
        w0, w1, slowdown = win.w0, win.w1, win.slowdown
        n_slow = int(win.slow.sum())
        residents = _co_residents(timeline, victim, w0, w1)
        touched = [
            d
            for d in range(timeline.n_osts)
            if timeline.tenant_device_bytes(victim, d, w0, w1) > 0
        ]
        co_bytes = {
            d: {
                t: timeline.tenant_device_bytes(t, d, w0, w1)
                for t in residents
            }
            for d in touched
        }
        loads = {d: sum(by.values()) for d, by in co_bytes.items()}
        if loads and max(loads.values()) >= MiB:
            dev = max(loads, key=lambda d: loads[d])
            agg = max(co_bytes[dev], key=lambda t: co_bytes[dev][t])
            share = co_bytes[dev][agg] / loads[dev]
            own = timeline.tenant_device_bytes(victim, dev, w0, w1)
            if (
                share >= min_share
                and co_bytes[dev][agg] >= MiB
                and co_bytes[dev][agg] > own
            ):
                findings.append(
                    Finding(
                        code="cross-tenant-interference",
                        severity=_slowdown_severity(slowdown),
                        message=(
                            f"{n_slow} of "
                            f"{names.get(victim, victim)}'s transfers ran "
                            f"{slowdown:.0f}x slower per byte during "
                            f"[{w0:.1f}s, {w1:.1f}s]: co-resident tenant "
                            f"{agg} ({names.get(agg, '?')}) moved "
                            f"{share:.0%} of the co-tenant bytes through "
                            f"contended OST {dev} -- a bandwidth hog next "
                            f"door"
                        ),
                        recommendation=(
                            "the victim is healthy; cap the hogging "
                            "tenant's per-OST streams or restripe its "
                            "files off the victim's devices"
                        ),
                        evidence={
                            "aggressor": float(agg),
                            "victim": float(victim),
                            "device": float(dev),
                            "t_start": w0,
                            "t_end": w1,
                            "share": float(share),
                            "slowdown": slowdown,
                            "n_events": float(n_slow),
                            "mds": 0.0,
                        },
                    )
                )

    findings.sort(key=lambda f: f.severity, reverse=True)
    return findings
