"""Time-varying fault injection: scheduled storage-health changes.

The static ``MachineConfig.ost_slowdown`` models a device that is sick for
a *whole* run.  Real diagnosis happens against storage whose health changes
*during* a run -- a RAID rebuild that starts halfway through, an OST that
stops responding for thirty seconds, a metadata server hiccup, a burst of
heavy-tail service times while a neighbouring job thrashes the arrays.
A :class:`FaultSchedule` is a deterministic, validated list of such
time-windowed events:

- ``degrade``  -- one OST serves ``factor`` x slower during the window
  (a rebuild: the device still answers, just slowly);
- ``stall``    -- one OST stops answering entirely during the window; bulk
  RPCs issued against it are *lost* (the recovering OST drops its request
  queue), so only a client resend after recovery succeeds -- this is what
  the client's retry/backoff path (``MachineConfig.client_retry``) is for;
- ``mds``      -- metadata operations take ``factor`` x longer during the
  window (an MDS hiccup: lock recovery, failover heartbeat);
- ``burst``    -- the heavy-tail probability of *all* bulk transfers is
  multiplied by ``factor`` during the window (correlated tail events, the
  run-to-run variability the paper's ensemble view sees through).

Schedules are immutable, canonically ordered, and validated on
construction (windows per device sorted and non-overlapping, finite factors
>= 1), so two runs given equal schedules behave identically -- the
property the golden-trace and hypothesis suites enforce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

__all__ = [
    "FaultWindow",
    "FaultSchedule",
    "DEGRADE",
    "STALL",
    "MDS_HICCUP",
    "TAIL_BURST",
    "oss_domain_stall",
    "flapping_device",
]

DEGRADE = "degrade"
STALL = "stall"
MDS_HICCUP = "mds"
TAIL_BURST = "burst"

#: kinds that target one OST (``device`` required)
_DEVICE_KINDS = (DEGRADE, STALL)
#: kinds that affect the whole machine (``device`` must be None)
_GLOBAL_KINDS = (MDS_HICCUP, TAIL_BURST)
KINDS = _DEVICE_KINDS + _GLOBAL_KINDS


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled health event: ``kind`` on ``device`` during [t_start, t_end)."""

    kind: str
    t_start: float
    t_end: float
    device: Optional[int] = None
    #: slowdown (degrade/mds) or tail-probability multiplier (burst);
    #: unused for stall windows (a stalled OST has no service rate at all)
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use one of {KINDS}")
        if not (self.t_end > self.t_start >= 0.0):
            raise ValueError(
                f"fault window must satisfy 0 <= t_start < t_end, "
                f"got [{self.t_start}, {self.t_end})"
            )
        if not (math.isfinite(self.factor) and self.factor >= 1.0):
            raise ValueError(
                f"fault factor must be finite and >= 1, got {self.factor}"
            )
        if self.kind in _DEVICE_KINDS and self.device is None:
            raise ValueError(f"{self.kind!r} fault needs a device (OST index)")
        if self.kind in _GLOBAL_KINDS and self.device is not None:
            raise ValueError(f"{self.kind!r} fault is machine-wide; device must be None")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def active_at(self, t: float) -> bool:
        return self.t_start <= t < self.t_end

    def overlaps(self, other: "FaultWindow") -> bool:
        return self.t_start < other.t_end and other.t_start < self.t_end


def _sort_key(w: FaultWindow) -> Tuple[float, str, int]:
    return (w.t_start, w.kind, -1 if w.device is None else w.device)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, canonically ordered set of :class:`FaultWindow`.

    Invariants (validated here, enforced again by the property suite):

    - windows are sorted by ``(t_start, kind, device)``;
    - windows of the same ``(kind, device)`` never overlap;
    - every factor is finite and >= 1.
    """

    windows: Tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.windows, key=_sort_key))
        object.__setattr__(self, "windows", ordered)
        last_end: dict = {}
        for w in ordered:
            key = (w.kind, w.device)
            if key in last_end and w.t_start < last_end[key]:
                raise ValueError(
                    f"overlapping {w.kind!r} windows on device {w.device}: "
                    f"{w.t_start} < previous end {last_end[key]}"
                )
            last_end[key] = max(last_end.get(key, 0.0), w.t_end)

    # -- construction ----------------------------------------------------------
    @classmethod
    def of(cls, *windows: FaultWindow) -> "FaultSchedule":
        return cls(windows=tuple(windows))

    @classmethod
    def from_specs(cls, specs: Iterable[str]) -> "FaultSchedule":
        """Parse compact CLI specs, one window per string::

            degrade:OST:T0:T1:FACTOR   e.g.  degrade:5:10:60:6
            stall:OST:T0:T1            e.g.  stall:5:10:25
            mds:T0:T1:FACTOR           e.g.  mds:0:5:8
            burst:T0:T1:FACTOR         e.g.  burst:30:60:16
        """
        windows: List[FaultWindow] = []
        for spec in specs:
            parts = spec.split(":")
            kind = parts[0]
            try:
                if kind == DEGRADE:
                    _, dev, t0, t1, factor = parts
                    windows.append(FaultWindow(DEGRADE, float(t0), float(t1),
                                               device=int(dev), factor=float(factor)))
                elif kind == STALL:
                    _, dev, t0, t1 = parts
                    windows.append(FaultWindow(STALL, float(t0), float(t1),
                                               device=int(dev)))
                elif kind in _GLOBAL_KINDS:
                    _, t0, t1, factor = parts
                    windows.append(FaultWindow(kind, float(t0), float(t1),
                                               factor=float(factor)))
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
            except (ValueError, TypeError) as exc:
                if "unknown fault kind" in str(exc) or "must" in str(exc):
                    raise
                raise ValueError(f"bad fault spec {spec!r}: {exc}") from exc
        return cls(windows=tuple(windows))

    # -- queries ---------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.windows

    def __len__(self) -> int:
        return len(self.windows)

    def validate_devices(self, n_osts: int) -> None:
        """Raise if any device index is outside ``[0, n_osts)``."""
        for w in self.windows:
            if w.device is not None and not (0 <= w.device < n_osts):
                raise ValueError(
                    f"fault window device {w.device} out of range for "
                    f"{n_osts} OSTs"
                )

    def degrade_factor(self, t: float, osts: Iterable[int]) -> float:
        """Worst active degrade factor over the given OSTs at time ``t``
        (1.0 when none).  A striped op completes at its slowest stripe's
        pace, so the op inherits the max."""
        if not self.windows:
            return 1.0
        devices = set(osts)
        factor = 1.0
        for w in self.windows:
            if w.kind == DEGRADE and w.active_at(t) and w.device in devices:
                factor = max(factor, w.factor)
        return factor

    def stall_end(self, t: float, osts: Iterable[int]) -> Optional[float]:
        """End of the latest active stall window covering any of ``osts``
        at time ``t``, or None when every serving device is answering."""
        if not self.windows:
            return None
        devices = set(osts)
        end: Optional[float] = None
        for w in self.windows:
            if w.kind == STALL and w.active_at(t) and w.device in devices:
                end = w.t_end if end is None else max(end, w.t_end)
        return end

    def stalled_devices(self, t: float) -> Set[int]:
        """Devices an active stall window covers at time ``t``: ``d`` is
        in the set exactly when ``stall_end(t, (d,))`` is not None."""
        return {
            w.device for w in self.windows
            if w.kind == STALL and w.active_at(t)
        }

    def mds_factor(self, t: float) -> float:
        """Metadata service-time multiplier at time ``t``."""
        factor = 1.0
        for w in self.windows:
            if w.kind == MDS_HICCUP and w.active_at(t):
                factor = max(factor, w.factor)
        return factor

    def tail_boost(self, t: float) -> float:
        """Heavy-tail probability multiplier at time ``t``."""
        boost = 1.0
        for w in self.windows:
            if w.kind == TAIL_BURST and w.active_at(t):
                boost = max(boost, w.factor)
        return boost

    def for_device(self, device: int) -> Tuple[FaultWindow, ...]:
        return tuple(w for w in self.windows if w.device == device)

    def span(self) -> Tuple[float, float]:
        """(earliest start, latest end) over all windows; (0, 0) if empty."""
        if not self.windows:
            return (0.0, 0.0)
        return (
            min(w.t_start for w in self.windows),
            max(w.t_end for w in self.windows),
        )

    def check_device_overlaps(self) -> None:
        """Reject *cross-kind* overlapping windows on one device.

        The constructor already forbids overlap per ``(kind, device)``;
        a degrade and a stall can still legally coexist on one OST (the
        schedule semantics are well-defined: the stall wins).  Operator-
        facing entry points (the ``--fault`` CLI) call this to refuse
        such schedules anyway -- they are almost always typos, and the
        degrade window is dead weight under the stall.
        """
        per_device: dict = {}
        for w in self.windows:
            if w.device is None:
                continue
            for prev in per_device.get(w.device, []):
                if w.overlaps(prev) and w.kind != prev.kind:
                    raise ValueError(
                        f"windows on device {w.device} must not overlap "
                        f"across kinds: {prev.kind!r} "
                        f"[{prev.t_start}, {prev.t_end}) vs {w.kind!r} "
                        f"[{w.t_start}, {w.t_end})"
                    )
            per_device.setdefault(w.device, []).append(w)


def oss_domain_stall(
    devices: Iterable[int], t_start: float, t_end: float
) -> Tuple[FaultWindow, ...]:
    """A correlated failure domain: one OSS / rack window takes its whole
    OST group down together.  Returns one identical-span STALL window per
    device (legal: the per-``(kind, device)`` non-overlap invariant only
    constrains windows on the *same* device), composable with
    :meth:`FaultSchedule.of`::

        FaultSchedule.of(*oss_domain_stall(range(4, 8), 0.5, 1.5))
    """
    devs = sorted(set(int(d) for d in devices))
    if not devs:
        raise ValueError("failure domain needs at least one device")
    return tuple(
        FaultWindow(STALL, t_start, t_end, device=d) for d in devs
    )


def flapping_device(
    device: int,
    t_start: float,
    up: float,
    down: float,
    cycles: int,
) -> Tuple[FaultWindow, ...]:
    """A flapping device: it stalls for ``up`` seconds, recovers for
    ``down`` seconds, and re-fails, ``cycles`` times over.  The windows
    are disjoint in time so they compose legally on one device::

        FaultSchedule.of(*flapping_device(3, t_start=0.3, up=0.3,
                                          down=0.6, cycles=3))
    """
    if cycles < 1:
        raise ValueError("flapping needs at least one cycle")
    if up <= 0.0 or down <= 0.0:
        raise ValueError("flapping up/down phases must be positive")
    period = up + down
    return tuple(
        FaultWindow(STALL, t_start + i * period, t_start + i * period + up,
                    device=int(device))
        for i in range(int(cycles))
    )
