"""Shared-resource primitives for the simulation kernel.

These model the contended hardware/software resources of a parallel I/O
stack:

- :class:`SlotChannel` -- a bandwidth channel with a fixed number of
  concurrency *slots*; each in-flight transfer receives ``bandwidth/slots``.
  With ``slots=1`` this is FIFO-exclusive service (the mechanism behind the
  paper's harmonic completion-time modes); with ``slots=n_tasks`` it is a
  static fair share.
- :class:`SharedPipe` -- true processor-sharing: all active transfers split
  the capacity equally and rates are recomputed on every arrival/departure.
- :class:`Server` -- a FIFO request server with a per-request overhead and a
  byte rate (used for OSTs and the MDS).
- :class:`Lock` / :class:`Semaphore` -- mutual exclusion with FIFO waiters
  (used for extent locks and rank-0 metadata serialisation).

All resources carry ``__slots__``: a paper-scale run keeps tens of
thousands of service completions in flight, and slotted instances cut
both the per-object memory and the attribute-access cost on the engine
hot path.  Service completions are scheduled through
``Engine._complete_later`` -- a pooled, closure-free completion on the
fast path and a plain ``Timeout`` + callback on the reference path,
dispatch-order identical (see ``tests/test_fastpath_equivalence.py``).
The engine alone knows its schedule format and owns the completion
pool; the ``done`` events handed to callers are ordinary, never-reused
:class:`~repro.sim.engine.Event` objects.  Each completion carries a
fresh bound method (``self._finish``) rather than one cached on the
resource, which would tie every resource into a reference cycle; the
completion drops it when it fires, so a finished run is freed by
reference counting alone.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .engine import Engine, Event, SimulationError

__all__ = [
    "FifoQueueMixin",
    "SlotChannel",
    "SharedPipe",
    "Server",
    "Lock",
    "Semaphore",
]


class FifoQueueMixin:
    """Queue-depth accounting shared by every FIFO resource that keeps its
    pending requests in ``_queue`` and its in-flight count in ``_busy``
    (:class:`SlotChannel`, :class:`Server`, and the metadata server that
    wraps one)."""

    __slots__ = ()

    _queue: Deque[Tuple[Any, ...]]
    _busy: int

    @property
    def queue_depth(self) -> int:
        """Requests pending or in service right now."""
        return len(self._queue) + self._busy


class SlotChannel(FifoQueueMixin):
    """Bandwidth channel with ``slots`` fixed-share service lanes.

    Transfers are queued FIFO.  Up to ``slots`` transfers are in flight at
    once; each in-flight transfer progresses at ``bandwidth / slots`` bytes
    per second regardless of how many lanes are busy (this deliberately
    models a client that statically partitions its I/O pipeline, which is
    what produces completion times at T, T/2, T/4 -- the harmonics of the
    fair-share rate).

    ``slots`` may be changed between phases with :meth:`set_slots`; the new
    value applies to transfers that start afterwards.
    """

    __slots__ = (
        "engine", "bandwidth", "slots", "_busy", "_queue",
        "bytes_transferred",
    )

    def __init__(self, engine: Engine, bandwidth: float, slots: int = 1) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.engine = engine
        self.bandwidth = float(bandwidth)
        self.slots = int(slots)
        self._busy = 0
        self._queue: Deque[Tuple[float, Event, float]] = deque()
        #: total bytes accepted (diagnostics / conservation tests)
        self.bytes_transferred = 0.0

    def set_slots(self, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = int(slots)
        self._drain()

    def transfer(self, nbytes: float, factor: float = 1.0) -> Event:
        """Request a transfer of ``nbytes``; returns an event that succeeds
        with the transfer duration when the bytes have moved.

        ``factor`` scales the service time (used to inject service noise or
        penalties without distorting the byte count).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        done = self.engine.event()
        self._queue.append((float(nbytes), done, float(factor)))
        self._drain()
        return done

    def _drain(self) -> None:
        engine = self.engine
        while self._queue and self._busy < self.slots:
            nbytes, done, factor = self._queue.popleft()
            self._busy += 1
            rate = self.bandwidth / self.slots
            duration = (nbytes / rate) * factor
            self.bytes_transferred += nbytes
            completion = engine._complete_later(
                duration, self._finish, done, duration
            )
            if engine.sanitize:
                # Commutative: a completion frees a slot; which of two
                # same-instant completions frees first cannot change which
                # queued transfer starts next (the FIFO queue decides) nor
                # its duration (computed here at drain time).
                engine.annotate(
                    completion, f"slotchannel@{id(self):x}",
                    op="complete", exclusive=False,
                )

    def _finish(self, done: Event, duration: float) -> None:
        self._busy -= 1
        # inlined done.succeed(duration) for the common case: one service
        # completion per transfer makes this a hot trigger site
        engine = self.engine
        if engine._fast and not done._triggered:
            done._triggered = True
            done._value = duration
            engine._tail.append(done)
        else:
            done.succeed(duration)
        self._drain()


class SharedPipe:
    """Processor-sharing bandwidth pipe.

    All active transfers share ``capacity`` equally; per-transfer rates are
    recomputed whenever a transfer joins or completes.  Exact for a single
    bottleneck link, and O(active) work per change.
    """

    __slots__ = (
        "engine", "capacity", "_active", "_next_id", "_last_update",
        "_completion_timer", "_timer_token", "bytes_transferred",
    )

    def __init__(self, engine: Engine, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = float(capacity)
        # transfer id -> [remaining_bytes, done_event, start_time]
        self._active: Dict[int, List[Any]] = {}
        self._next_id = 0
        self._last_update = 0.0
        self._completion_timer: Optional[Event] = None
        self._timer_token = 0
        self.bytes_transferred = 0.0

    @property
    def n_active(self) -> int:
        return len(self._active)

    def transfer(self, nbytes: float) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        done = self.engine.event()
        self._settle()
        tid = self._next_id
        self._next_id += 1
        # remaining, done event, start time, original size (for the
        # relative completion epsilon)
        self._active[tid] = [float(nbytes), done, self.engine.now, float(nbytes)]
        self.bytes_transferred += nbytes
        self._rearm()
        return done

    # -- internals -----------------------------------------------------------
    def _rate(self) -> float:
        n = len(self._active)
        return self.capacity / n if n else 0.0

    def _settle(self) -> None:
        """Charge elapsed progress to every active transfer."""
        now = self.engine.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        progressed = elapsed * self._rate()
        for entry in self._active.values():
            entry[0] -= progressed

    def _rearm(self) -> None:
        """Schedule a wake-up at the earliest projected completion."""
        self._timer_token += 1
        if not self._active:
            return
        rate = self._rate()
        min_remaining = min(e[0] for e in self._active.values())
        delay = max(min_remaining, 0.0) / rate
        token = self._timer_token
        engine = self.engine
        timer = engine._complete_later(delay, self._on_timer, token, None)
        if engine.sanitize:
            # Commutative: stale timers are no-ops (token guard) and the
            # live timer's settle/complete logic reads only engine.now,
            # never the relative dispatch order at one instant.
            engine.annotate(
                timer, f"sharedpipe@{id(self):x}",
                op="rearm", exclusive=False,
            )

    def _on_timer(self, token: int, _unused: Any = None) -> None:
        if token != self._timer_token:
            return  # superseded by a later arrival
        self._settle()
        # Completion test uses an epsilon relative to each transfer's
        # original size: repeated settle() subtractions accumulate float
        # error proportional to the magnitudes involved, and an absolute
        # epsilon can leave a residue that respawns ever-shorter timers.
        finished = [
            tid
            for tid, e in self._active.items()
            if e[0] <= 1e-9 * max(e[3], 1.0)
        ]
        if not finished and self._active:
            # Guarantee progress: the projected-minimum transfer is done
            # up to float noise -- force-complete it rather than spinning.
            tid_min = min(self._active, key=lambda t: self._active[t][0])
            if self._active[tid_min][0] <= 1e-6 * max(
                self._active[tid_min][3], 1.0
            ):
                finished = [tid_min]
        for tid in finished:
            _remaining, done, start, _orig = self._active.pop(tid)
            done.succeed(self.engine.now - start)
        self._rearm()


class Server(FifoQueueMixin):
    """A FIFO request server: ``concurrency`` requests in flight, each taking
    ``overhead + nbytes/rate`` (scaled by a per-request factor).

    Models an OST (object storage target) or an MDS (rate unused, pure
    overhead).  The queue depth is observable so clients can model
    congestion-dependent behaviour.
    """

    __slots__ = (
        "engine", "rate", "concurrency", "overhead", "name", "_busy",
        "_queue", "bytes_served", "requests_served", "busy_time",
    )

    def __init__(
        self,
        engine: Engine,
        rate: float,
        concurrency: int = 1,
        overhead: float = 0.0,
        name: str = "server",
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.engine = engine
        self.rate = float(rate)
        self.concurrency = int(concurrency)
        self.overhead = float(overhead)
        self.name = name
        self._busy = 0
        self._queue: Deque[Tuple[float, float, Event]] = deque()
        self.bytes_served = 0.0
        self.requests_served = 0
        self.busy_time = 0.0

    def request(self, nbytes: float, factor: float = 1.0) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        done = self.engine.event()
        self._queue.append((float(nbytes), float(factor), done))
        self._drain()
        return done

    def _drain(self) -> None:
        engine = self.engine
        while self._queue and self._busy < self.concurrency:
            nbytes, factor, done = self._queue.popleft()
            self._busy += 1
            share = self.rate / self.concurrency
            duration = (self.overhead + nbytes / share) * factor
            self.bytes_served += nbytes
            self.requests_served += 1
            self.busy_time += duration
            completion = engine._complete_later(
                duration, self._finish, done, duration
            )
            if engine.sanitize:
                # Commutative: same argument as SlotChannel -- completions
                # free capacity, the FIFO queue alone picks the next
                # request, and durations are fixed at drain time.
                engine.annotate(
                    completion, f"server:{self.name}@{id(self):x}",
                    op="complete", exclusive=False,
                )

    def _finish(self, done: Event, duration: float) -> None:
        self._busy -= 1
        # inlined done.succeed(duration) -- see SlotChannel._finish
        engine = self.engine
        if engine._fast and not done._triggered:
            done._triggered = True
            done._value = duration
            engine._tail.append(done)
        else:
            done.succeed(duration)
        self._drain()


class Lock:
    """FIFO mutex.  ``acquire()`` returns an event; call :meth:`release`
    from the holder when done."""

    __slots__ = (
        "engine", "name", "_held", "_waiters", "acquisitions",
        "contended_acquisitions",
    )

    def __init__(self, engine: Engine, name: str = "lock") -> None:
        self.engine = engine
        self.name = name
        self._held = False
        self._waiters: Deque[Event] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def held(self) -> bool:
        return self._held

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        ev = self.engine.event()
        self.acquisitions += 1
        if not self._held:
            self._held = True
            ev.succeed(None)
        else:
            self.contended_acquisitions += 1
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if not self._held:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self._held = False


class Semaphore:
    """Counting semaphore with FIFO waiters."""

    __slots__ = ("engine", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, engine: Engine, capacity: int, name: str = "sem") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.engine = engine
        self.capacity = int(capacity)
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        ev = self.engine.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(None)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle semaphore {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed(None)
        else:
            self._in_use -= 1
