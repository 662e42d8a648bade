"""Fast-path selection for the simulation kernel.

The engine has two dispatch loops that are proven event-for-event
identical by ``tests/test_fastpath_equivalence.py``:

- the **reference path** -- a single priority queue of
  ``(time, seq, event)``, the simplest possible formulation and the
  semantic ground truth;
- the **fast path** -- same-instant events bypass the heap through a
  FIFO tail queue, future events share one calendar bucket per distinct
  instant, resource completions (engine-internal events no caller ever
  sees) are pooled, and the dispatch loop is flattened.  Events handed
  to user code are never pooled, so reuse does not depend on reference
  counts or any other interpreter detail.

Both produce byte-identical traces and telemetry timelines; the fast
path is purely an implementation speedup.  This module holds the knob
that picks between them, so call sites (and tests) can force either
without touching engine internals:

- environment: ``REPRO_SIM_FASTPATH=0`` (also ``false``, ``off``,
  ``reference``, ``ref``) forces the reference path for every engine
  constructed afterwards; anything else (including unset) means fast;
- code: ``with forced_path(False): ...`` overrides the environment for
  engines constructed inside the block (used by the differential tests
  and the paired speedup measurement in ``bench_engine``);
- per-engine: ``Engine(fastpath=...)`` overrides both.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["fastpath_default", "forced_path"]

#: values of ``REPRO_SIM_FASTPATH`` that select the reference path
_REFERENCE_VALUES = ("0", "false", "off", "reference", "ref")

#: process-wide override installed by :func:`forced_path`; ``None``
#: defers to the environment
_FORCED: Optional[bool] = None

#: resource completions kept for reuse per engine; only engine-internal
#: events are pooled, and beyond this bound fired ones are dropped to the
#: allocator (bounds memory on bursty runs)
POOL_LIMIT = 1024


def fastpath_default() -> bool:
    """The dispatch path a new :class:`~repro.sim.engine.Engine` uses
    when constructed without an explicit ``fastpath`` argument."""
    if _FORCED is not None:
        return _FORCED
    value = os.environ.get("REPRO_SIM_FASTPATH", "").strip().lower()
    return value not in _REFERENCE_VALUES


@contextmanager
def forced_path(fast: bool) -> Iterator[None]:
    """Force every engine constructed in the block onto one path.

    Nests correctly and restores the previous override on exit; it does
    not affect engines that already exist.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = bool(fast)
    try:
        yield
    finally:
        _FORCED = previous
