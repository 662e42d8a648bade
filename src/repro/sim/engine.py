"""Discrete-event simulation kernel.

A tiny, dependency-free, simpy-flavoured engine.  Simulated entities are
Python generators ("processes") driven by an :class:`Engine`.  A process
advances simulated time by yielding *waitables*:

- :class:`Timeout` -- resume after a fixed simulated delay,
- :class:`Event`   -- resume when the event is triggered (its value is sent
  back into the generator),
- another :class:`Process` -- resume when the child process returns (its
  return value is sent back),
- :class:`AllOf`   -- resume when every component waitable has triggered.

The engine is deterministic: ties in simulated time are broken by event
creation order, so two runs with the same seeds produce identical traces.
(This claim is enforced: the golden-trace suite in
``tests/test_golden_traces.py`` hashes canonicalised event streams of
fixed-seed scenarios against committed digests.)

Dispatch follows the order of one priority queue of ``(time, seq,
event)``, where ``seq`` is the creation sequence, but the loop never
builds that queue.  An event scheduled *at the current instant* always
follows every same-instant event already queued, so it goes on a plain
FIFO tail queue; future events share one calendar bucket per distinct
instant, and a heap holds only the distinct instants.  Each instant
drains its bucket (entries born before it) before the tail (entries born
at it) -- the same order as the single queue, with heap traffic per
instant rather than per event.  ``tests/heap_reference.py`` keeps that
single queue as a test-side oracle; the differential tests check every
committed golden and random kernel programs against it.

A process may abandon whatever another process is waiting on by calling
:meth:`Process.interrupt`, which throws :class:`Interrupt` into it -- the
client's RPC retry path uses this to abort a bulk RPC stuck behind a
stalled storage target and re-issue it with backoff.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "SimRace",
    "SimRaceError",
]


class SimulationError(RuntimeError):
    """Raised for protocol violations inside the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


@dataclass(frozen=True)
class SimRace:
    """One detected scheduling ambiguity: two same-timestamp events on
    the same resource whose relative order is decided only by heap
    insertion sequence.

    ``first``/``second`` are ``(op, "file:line")`` pairs naming each
    offending schedule's operation and source provenance, in the order
    the engine happened to dispatch them -- the point of the report is
    that the opposite order would have been equally legal.
    """

    resource: str
    time: float
    first: Tuple[str, str]
    second: Tuple[str, str]

    def format(self) -> str:
        return (
            f"sim race on {self.resource!r} at t={self.time:.9g}: "
            f"{self.first[0]} scheduled at {self.first[1]} vs "
            f"{self.second[0]} scheduled at {self.second[1]} "
            f"(pop order decided only by insertion sequence)"
        )


class SimRaceError(SimulationError):
    """Raised by :meth:`Engine.assert_race_free` when the sanitizer saw
    order-dependent same-timestamp schedules."""

    def __init__(self, races: "List[SimRace]") -> None:
        self.races = list(races)
        lines = [f"{len(self.races)} simulation race(s) detected:"]
        lines += [f"  - {r.format()}" for r in self.races]
        super().__init__("\n".join(lines))


def _schedule_site(skip_module: str) -> str:
    """``file:line`` of the nearest caller outside ``skip_module`` --
    the provenance a race report points at."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename == skip_module:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only if called at top level
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class _ConsumedType:
    """Sentinel marking an event's callbacks as already dispatched.

    Falsy so that ``if event._callbacks:`` still reads as "has waiters"
    everywhere (the pre-refactor sentinel was an empty list)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<consumed>"


_CONSUMED = _ConsumedType()

#: permanent ``_callbacks`` value of pooled :class:`_Completion` events;
#: lets the dispatch loop recognise them with the pointer compare it
#: already does for the callbacks shape (no extra attribute load)
_POOLED = _ConsumedType()

#: resource completions kept for reuse per engine; only engine-internal
#: events are pooled, and beyond this bound fired ones are dropped to the
#: allocator (bounds memory on bursty runs)
POOL_LIMIT = 1024


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it, delivering ``value`` (or raising ``exc``) in every process
    waiting on it.  Events may be yielded by processes or combined with
    :class:`AllOf`.
    """

    __slots__ = ("engine", "_value", "_exc", "_triggered", "_callbacks", "_san")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        #: waiter storage, shape-specialised to avoid a list allocation
        #: per event (most events have zero or one waiter): ``None`` =
        #: no waiters, a bare callable = one waiter, a list = several,
        #: ``_CONSUMED`` = already dispatched
        self._callbacks: Any = None
        #: sanitizer annotation (resource, op, exclusive, site); None
        #: outside sanitize mode -- a single slot keeps the non-sanitized
        #: hot path to one extra store per event
        self._san: Optional[Tuple[str, str, bool, str]] = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        # inlined engine._ready: triggering is the hottest schedule site
        self.engine._tail.append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._exc = exc
        self.engine._ready(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if done)."""
        callbacks = self._callbacks
        if callbacks is _CONSUMED:
            # Already dispatched: run at once.
            fn(self)
        elif callbacks is None:
            self._callbacks = fn
        elif type(callbacks) is list:
            callbacks.append(fn)
        else:
            self._callbacks = [callbacks, fn]

    def _remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Detach a waiter if present (no-op otherwise)."""
        callbacks = self._callbacks
        if callbacks is None or callbacks is _CONSUMED:
            return
        if type(callbacks) is list:
            try:
                callbacks.remove(fn)
            except ValueError:
                pass
        elif callbacks == fn:
            self._callbacks = None


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        # Inlined Event.__init__ plus scheduling: timeout creation is the
        # single hottest allocation in the kernel (one per modelled
        # service interval), so it pays not to chain constructors.
        self.engine = engine
        self._value = value
        self._exc = None
        self._triggered = True  # scheduled, cannot be succeeded manually
        self._callbacks = None
        self._san = None
        self.delay = delay = float(delay)
        now = engine.now
        at = now + delay
        if at > now:
            # calendar bucket: all entries of one exact instant share a
            # FIFO deque, so the heap holds only distinct times
            # reprolint: disable=D004 (bucket-cache key; exact identity is the contract)
            if at == engine._last_at:
                engine._last_bucket.append(self)
            else:
                buckets = engine._buckets
                bucket = buckets.get(at)
                if bucket is None:
                    heapq.heappush(engine._times, at)
                    buckets[at] = bucket = deque((self,))
                else:
                    bucket.append(self)
                engine._last_at = at
                engine._last_bucket = bucket
        else:
            # same-instant: the FIFO tail keeps (time, seq) order without
            # touching the heap (see module docstring)
            engine._tail.append(self)


class _Completion(Event):
    """A pooled internal event: dispatching it calls ``fn(a, b)``.

    The resource layer schedules one completion per service interval
    (channel transfer, server request, pipe re-arm).  Those events are
    invisible to user code -- nobody holds them, waits on them, or reads
    their value -- so the engine recycles the objects through
    ``Engine._comp_pool`` instead of allocating a Timeout plus a closure
    per completion.  They are the only pooled objects: the engine owns
    them from creation to recycle, so reuse never depends on who else
    might hold a reference.  Only :meth:`Engine._complete_later` creates
    these; they must never escape to user code (a recycled event would
    alias).

    ``_callbacks`` is permanently :data:`_POOLED`: nothing may wait on a
    completion, and the sentinel lets the dispatch loop recognise one
    from the ``_callbacks`` load it performs anyway.
    """

    __slots__ = ("_fn", "_a", "_b")

    def __init__(self) -> None:
        # no back-reference: the pool lives on the engine, so holding it
        # here would make every pooled completion a reference cycle
        self.engine = None  # type: ignore[assignment]
        self._value = None
        self._exc = None
        self._triggered = True  # scheduled at birth, like a Timeout
        self._callbacks = _POOLED
        self._san = None
        self._fn: Optional[Callable[[Any, Any], None]] = None
        self._a: Any = None
        self._b: Any = None


class Process(Event):
    """A running generator.  Also an event: triggers when the generator
    returns (value = the generator's return value) or raises (fail)."""

    __slots__ = ("_gen", "_send", "name", "_waiting_on")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "") -> None:
        super().__init__(engine)
        self._gen = gen
        #: bound ``gen.send`` -- saves a method lookup per wake-up in the
        #: dispatch loop (``_gen`` stays around for ``throw``)
        self._send = gen.send
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: start the generator at time `now`.
        boot = Event(engine)
        boot.add_callback(self)
        boot.succeed(None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting an already-finished process is a no-op; interrupting
        yourself is a protocol violation (the generator is currently
        executing and cannot have an exception thrown into it).
        """
        if self.engine._active_process is self:
            raise SimulationError(
                f"process {self.name!r} cannot interrupt itself"
            )
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None and not target._triggered:
            # Detach from whatever it was waiting for.
            target._remove_callback(self)
        kick = Event(self.engine)
        kick.add_callback(lambda ev: self._throw(Interrupt(cause)))
        kick.succeed(None)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._triggered:
            # already finished (e.g. returned after an interrupt while a
            # stale timeout was still scheduled): ignore the wake-up
            return
        self._waiting_on = None
        if event._exc is not None:
            self._advance(self._gen.throw, event._exc)
            return
        # Inlined _advance(self._gen.send, ...): every event dispatch in
        # a running simulation funnels through this send, so the extra
        # frame is worth eliding.
        engine = self.engine
        previous = engine._active_process
        engine._active_process = self
        try:
            target = self._send(event._value)
        except StopIteration as stop:
            engine._active_process = previous
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            engine._active_process = previous
            if self._callbacks or engine._crash_on_unhandled is False:
                self.fail(exc)
                return
            raise
        engine._active_process = previous
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
        self._waiting_on = target
        # inlined target.add_callback(self): every suspension
        # re-registers the process, so the extra frame adds up
        callbacks = target._callbacks
        if callbacks is None:
            target._callbacks = self
        elif callbacks is _CONSUMED:
            self._resume(target)
        elif type(callbacks) is list:
            callbacks.append(self)
        else:
            target._callbacks = [callbacks, self]

    #: a process registers *itself* as the waiter (callable through
    #: ``__call__``), so the dispatch loop can recognise a plain process
    #: wake-up with one exact type check and run the generator step
    #: without a call frame
    __call__ = _resume

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        self._advance(self._gen.throw, exc)

    def _advance(self, step: Callable[[Any], Any], arg: Any) -> None:
        engine = self.engine
        previous = engine._active_process
        engine._active_process = self
        try:
            target = step(arg)
        except StopIteration as stop:
            engine._active_process = previous
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            engine._active_process = previous
            if self._callbacks or engine._crash_on_unhandled is False:
                self.fail(exc)
                return
            raise
        engine._active_process = previous
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
        self._waiting_on = target
        target.add_callback(self)


class AllOf(Event):
    """Triggers once every component event has triggered successfully.

    The value is the list of component values, in the given order.  If any
    component fails, this event fails with the first failure.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._collect)

    def _collect(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])


class AnyOf(Event):
    """Triggers as soon as ANY component event triggers.

    The value is ``(index, value)`` of the first component to fire; a
    component failure fails this event.  Later components still trigger on
    their own but are ignored here.  Useful for timeout races::

        winner, _ = yield engine.any_of([work_done, engine.timeout(30.0)])
        if winner == 1: ...  # timed out
    """

    __slots__ = ("_events",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf needs at least one event")
        for i, ev in enumerate(self._events):
            ev.add_callback(lambda e, i=i: self._first(i, e))

    def _first(self, index: int, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed((index, event._value))


class Engine:
    """The event loop: dispatches in (time, creation sequence) order
    through a same-instant tail FIFO and per-instant calendar buckets
    (see the module docstring).

    With ``sanitize=True`` the engine additionally runs the *sim-race
    detector*: resources and user processes may annotate scheduled
    events with :meth:`annotate`, and the dispatcher reports any two
    same-timestamp events on the same resource whose relative order is
    decided only by the heap's insertion sequence -- the classic way a
    refactor silently changes golden digests.  Races are collected in
    :attr:`races` (with ``file:line`` provenance of *both* offending
    schedules) and surfaced by :meth:`assert_race_free`.  Sanitizing is
    pure observation: it never adds events, draws RNG, or shifts time,
    so a sanitized run is byte-identical to an unsanitized one.
    """

    __slots__ = (
        "now", "_tail", "_times", "_buckets", "_comp_pool",
        "_last_at", "_last_bucket",
        "_active_process", "_crash_on_unhandled", "_event_count",
        "sanitize", "races", "_san_window_t", "_san_window",
    )

    def __init__(self, sanitize: bool = False) -> None:
        self.now: float = 0.0
        #: same-instant FIFO: events scheduled at exactly ``now``
        #: dispatch from here after the instant's calendar bucket drains
        self._tail: Deque[Event] = deque()
        #: calendar buckets: future events grouped by exact timestamp;
        #: ``_times`` is a heap of the distinct timestamps, so heap
        #: traffic scales with instants, not events
        self._times: List[float] = []
        self._buckets: Dict[float, Deque[Event]] = {}
        #: recycled resource completions; the only pooled objects --
        #: user-visible events are never reused
        self._comp_pool: List[_Completion] = []
        #: calendar bucket cache -- lock-step process groups
        #: schedule runs of timeouts at the same instant, so remember the
        #: last bucket and skip the dict probe.  Time only moves forward,
        #: so a future instant can never collide with a bucket that was
        #: already drained.
        self._last_at: float = float("-inf")
        self._last_bucket: Deque[Event] = deque()
        self._active_process: Optional[Process] = None
        self._crash_on_unhandled = True
        self._event_count = 0
        #: sim-race sanitizer switch (constructor-only; flipping it
        #: mid-run would make race windows meaningless)
        self.sanitize = bool(sanitize)
        #: races detected so far (sanitize mode only)
        self.races: List[SimRace] = []
        # dispatch window for the detector: annotations seen at the
        # current timestamp, keyed by resource
        self._san_window_t: float = -1.0
        self._san_window: Dict[str, List[Tuple[str, bool, str]]] = {}

    # -- sanitizer ----------------------------------------------------------
    def annotate(
        self,
        event: Event,
        resource: str,
        op: str = "touch",
        exclusive: bool = True,
    ) -> Event:
        """Tag ``event`` for the race detector: dispatching it *touches*
        ``resource`` with operation ``op``.

        ``exclusive=True`` (the default for user code) declares the
        touch order-sensitive: two exclusive touches of one resource at
        one timestamp are a race.  Core resources pass
        ``exclusive=False`` after auditing their operations commutative
        (e.g. two FIFO-server completions at one instant free lanes;
        which frees first cannot change which queued request is served
        next, the queue decides that).  Outside sanitize mode this is a
        no-op returning the event unchanged, so call sites pay a single
        attribute check.
        """
        if self.sanitize:
            event._san = (
                str(resource), str(op), bool(exclusive),
                _schedule_site(__file__),
            )
        return event

    def _san_check(self, at: float, event: Event) -> None:
        """Record an annotated dispatch and report exclusive conflicts."""
        ann = event._san
        if ann is None:
            return
        # the heap pops bit-identical floats for one instant, so exact
        # identity is the right window key -- a tolerance would merge
        # distinct adjacent instants into one false conflict window
        if at != self._san_window_t:  # reprolint: disable=D004 (same-instant window key; exact identity is the contract)
            self._san_window_t = at
            self._san_window.clear()
        resource, op, exclusive, site = ann
        seen = self._san_window.get(resource)
        if seen is None:
            self._san_window[resource] = [(op, exclusive, site)]
            return
        if exclusive:
            for prev_op, prev_exclusive, prev_site in seen:
                if prev_exclusive:
                    self.races.append(SimRace(
                        resource=resource,
                        time=at,
                        first=(prev_op, prev_site),
                        second=(op, site),
                    ))
        seen.append((op, exclusive, site))

    def assert_race_free(self) -> None:
        """Raise :class:`SimRaceError` if the sanitizer saw any race."""
        if self.races:
            raise SimRaceError(self.races)

    # -- factory helpers ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_until(self, at: float, value: Any = None) -> Timeout:
        """A timeout firing at *absolute* simulated time ``at`` (clamped to
        now if the instant has already passed) -- the natural waitable for
        scheduled occurrences like fault-window ends."""
        return Timeout(self, max(at - self.now, 0.0), value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _ready(self, event: Event) -> None:
        """Queue a just-triggered event for callback dispatch *now*."""
        self._tail.append(event)

    def _complete_later(
        self, delay: float, fn: Callable[[Any, Any], None], a: Any, b: Any
    ) -> Event:
        """Schedule ``fn(a, b)`` to run ``delay`` simulated seconds from
        now; returns the scheduled event (for sanitizer annotation).

        The resource-completion primitive: the event is a recycled
        :class:`_Completion` (no Timeout, no closure, no callback list).
        Callers must treat the returned event as opaque -- it may be
        recycled after firing.  This and :class:`Timeout` are the only
        writers of the calendar buckets; the resource layer schedules
        through here.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        pool = self._comp_pool
        comp = pool.pop() if pool else _Completion()
        comp._fn = fn
        comp._a = a
        comp._b = b
        now = self.now
        at = now + delay
        if at > now:
            # reprolint: disable=D004 (bucket-cache key; exact identity is the contract)
            if at == self._last_at:
                self._last_bucket.append(comp)
            else:
                buckets = self._buckets
                bucket = buckets.get(at)
                if bucket is None:
                    heapq.heappush(self._times, at)
                    buckets[at] = bucket = deque((comp,))
                else:
                    bucket.append(comp)
                self._last_at = at
                self._last_bucket = bucket
        else:
            self._tail.append(comp)
        return comp

    # -- main loop -----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the queue drains or ``until`` is reached;
        returns the simulated time when the loop stopped.

        The loop is flattened: drain the current instant's calendar
        bucket first (its entries predate the instant, so their creation
        order precedes everything born at it), then the same-instant
        tail FIFO, then advance to the next distinct time.  Only
        :class:`_Completion` objects are recycled here; every other
        event is left to the allocator once dispatched, whoever may
        still hold it.  ``until`` earlier than ``now`` is an error: time
        never moves backwards.
        """
        now = self.now
        if until is not None and until < now:
            raise SimulationError(
                f"run(until={until!r}) is earlier than now={now!r}"
            )
        times = self._times
        buckets = self._buckets
        tail = self._tail
        comp_pool = self._comp_pool
        pop_time = heapq.heappop
        sanitize = self.sanitize
        count = self._event_count
        # the dispatch loop itself never runs inside a process step, so
        # the active process to restore after a fused send is loop-constant
        base_active = self._active_process
        #: the instant being drained (dispatches before `tail`)
        cur: Optional[Deque[Event]] = None
        try:
            while True:
                if cur:
                    event = cur.popleft()
                elif tail:
                    event = tail.popleft()
                elif times:
                    at = times[0]
                    if until is not None and at > until:
                        self.now = now = until
                        return now
                    pop_time(times)
                    cur = buckets.pop(at)
                    self.now = now = at
                    event = cur.popleft()
                else:
                    return now
                count += 1
                if sanitize and event._san is not None:
                    self._san_check(now, event)
                callbacks = event._callbacks
                if callbacks is _POOLED:
                    # pooled resource completion: one direct call, then
                    # recycle the object (bounded pool)
                    event._fn(event._a, event._b)  # type: ignore[misc]
                    if len(comp_pool) < POOL_LIMIT:
                        event._fn = None  # type: ignore[attr-defined]
                        event._a = None  # type: ignore[attr-defined]
                        event._b = None  # type: ignore[attr-defined]
                        event._san = None
                        comp_pool.append(event)  # type: ignore[arg-type]
                    continue
                event._callbacks = _CONSUMED
                if callbacks is None:
                    pass
                elif type(callbacks) is Process:
                    # fused wake-up: a single waiting process is the
                    # dominant dispatch shape, so run Process._resume's
                    # send fast path without a call frame (a process
                    # attaches itself as the waiter -- see __call__)
                    proc = callbacks
                    if not proc._triggered:
                        if event._exc is not None:
                            proc._waiting_on = None
                            proc._advance(proc._gen.throw, event._exc)
                        else:
                            self._active_process = proc
                            try:
                                target = proc._send(event._value)
                            except StopIteration as stop:
                                self._active_process = base_active
                                proc.succeed(stop.value)
                            except BaseException as exc:  # noqa: BLE001
                                self._active_process = base_active
                                if proc._callbacks or \
                                        self._crash_on_unhandled is False:
                                    proc.fail(exc)
                                else:
                                    raise
                            else:
                                self._active_process = base_active
                                if not isinstance(target, Event):
                                    raise SimulationError(
                                        f"process {proc.name!r} yielded "
                                        f"non-event {target!r}"
                                    )
                                proc._waiting_on = target
                                tcbs = target._callbacks
                                if tcbs is None:
                                    target._callbacks = proc
                                elif tcbs is _CONSUMED:
                                    proc._resume(target)
                                elif type(tcbs) is list:
                                    tcbs.append(proc)
                                else:
                                    target._callbacks = [tcbs, proc]
                elif type(callbacks) is list:
                    for fn in callbacks:
                        fn(event)
                else:
                    callbacks(event)
        finally:
            # locals mirror engine state for speed; write back on every
            # exit (including exceptions propagating out of callbacks),
            # and re-stash a half-drained instant ahead of the tail so
            # a crashed-and-resumed engine keeps the dispatch order
            self.now = now
            self._event_count = count
            if cur:
                tail.extendleft(reversed(cur))

    @property
    def event_count(self) -> int:
        """Number of events dispatched so far (diagnostic)."""
        return self._event_count
