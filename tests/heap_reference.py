"""Test-side heap reference for the engine's dispatch order.

The engine dispatches in (time, creation sequence) order without ever
building that queue: same-instant events go on a FIFO tail, future
events into per-instant calendar buckets (see ``repro.sim.engine``).
This module keeps the queue itself as an oracle.  Inside
``with heap_reference():`` every engine *constructed in the block* routes
all of its scheduling through one ``(time, seq, event)`` heap and runs
the plain heap-pop loop:

- ``Engine._tail`` is a :class:`HeapTail` whose ``append`` pushes
  ``(now, seq, event)`` -- every same-instant schedule site in ``src/``
  (``Event.succeed``, ``Engine._ready``, the resources' ``_finish``)
  reaches the heap through it unchanged;
- ``Timeout.__init__`` pushes ``(now + delay, seq, timeout)``;
- ``Engine._complete_later`` is a plain ``Timeout`` plus a callback, so
  nothing is pooled;
- ``Engine.run`` pops the heap in order.

Engines built outside the block, before or after it, keep the real
loop.  Every ``run`` exit asserts that the calendar is empty, so a
future schedule site that writes the buckets directly fails here
instead of slipping past the oracle.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack, contextmanager
from typing import Any, Iterator, List, Optional, Tuple
from unittest import mock

from repro.sim.engine import (
    _CONSUMED,
    Engine,
    Event,
    SimulationError,
    Timeout,
)

__all__ = ["HeapTail", "heap_reference"]


class HeapTail:
    """Stand-in for ``Engine._tail``: one ``(time, seq, event)`` heap.

    ``pushes`` counts every schedule, and doubles as the sequence
    number.  It holds no engine reference (``append`` reads the time
    from ``event.engine``), so a finished run stays free of cycles.
    """

    __slots__ = ("heap", "pushes")

    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, Event]] = []
        self.pushes = 0

    def push(self, at: float, event: Event) -> None:
        self.pushes += 1
        heapq.heappush(self.heap, (at, self.pushes, event))

    def append(self, event: Event) -> None:
        self.push(event.engine.now, event)


@contextmanager
def heap_reference() -> Iterator[None]:
    """Run every engine constructed in the block on the heap reference."""
    real_engine_init = Engine.__init__
    real_timeout_init = Timeout.__init__
    real_complete_later = Engine._complete_later
    real_run = Engine.run

    def engine_init(self: Engine, *args: Any, **kwargs: Any) -> None:
        real_engine_init(self, *args, **kwargs)
        self._tail = HeapTail()

    def timeout_init(self: Timeout, engine: Engine, delay: float,
                     value: Any = None) -> None:
        if type(engine._tail) is not HeapTail:
            real_timeout_init(self, engine, delay, value)
            return
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        Event.__init__(self, engine)
        self._value = value
        self._triggered = True  # scheduled, cannot be succeeded manually
        self.delay = delay = float(delay)
        engine._tail.push(engine.now + delay, self)

    def complete_later(self: Engine, delay: float, fn: Any, a: Any,
                       b: Any) -> Event:
        if type(self._tail) is not HeapTail:
            return real_complete_later(self, delay, fn, a, b)
        tmo = Timeout(self, delay)
        tmo.add_callback(lambda _ev: fn(a, b))
        return tmo

    def run(self: Engine, until: Optional[float] = None) -> float:
        if type(self._tail) is not HeapTail:
            return real_run(self, until)
        try:
            return _heap_run(self, until)
        finally:
            if self._times or self._buckets:
                raise AssertionError(
                    "an event reached the calendar buckets, bypassing "
                    "the heap reference's schedule sites"
                )

    with ExitStack() as stack:
        for cls, name, fn in (
            (Engine, "__init__", engine_init),
            (Timeout, "__init__", timeout_init),
            (Engine, "_complete_later", complete_later),
            (Engine, "run", run),
        ):
            stack.enter_context(mock.patch.object(cls, name, fn))
        yield


def _heap_run(engine: Engine, until: Optional[float]) -> float:
    """The plain loop: pop ``(time, seq, event)`` in order."""
    if until is not None and until < engine.now:
        raise SimulationError(
            f"run(until={until!r}) is earlier than now={engine.now!r}"
        )
    heap = engine._tail.heap
    while heap:
        at, _, event = heap[0]
        if until is not None and at > until:
            engine.now = until
            return until
        heapq.heappop(heap)
        if at < engine.now:
            raise SimulationError("time went backwards")
        engine.now = at
        engine._event_count += 1
        if engine.sanitize and event._san is not None:
            engine._san_check(at, event)
        callbacks = event._callbacks
        event._callbacks = _CONSUMED
        if callbacks is None:
            continue
        if type(callbacks) is list:
            for fn in callbacks:
                fn(event)
        else:
            callbacks(event)
    return engine.now
