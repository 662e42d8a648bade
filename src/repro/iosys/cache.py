"""Per-node client page cache with dirty-page accounting.

Mechanisms modelled (each one is load-bearing for a paper phenomenon):

- **Absorption**: a ``write()`` is absorbed at memory speed up to the
  writer's dirty quota; the remainder throttles to the node's drain rate.
  This produces the initial ~60 GB/s plateau of Figure 1(b) -- the first
  gigabytes land in page cache, not on disk.
- **Deferred writeback**: absorbed pages stay *dirty* until a background
  flush (after ``writeback_delay``, which each client takes from
  ``MachineConfig.writeback_delay``) or an explicit sync.  Dirty occupancy
  is the **memory pressure** signal consumed by the read-ahead engine: in
  MADbench's interleaved read/write phase the cache is full of write pages
  when the strided reads arrive, which is the trigger for the Lustre bug
  ("Lustre issues one page (4 kB) reads due to a lack of system memory
  resources").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..sim.engine import Engine, Event

__all__ = ["PageCache"]


class PageCache:
    """Dirty-page bookkeeping for one node."""

    def __init__(
        self,
        engine: Engine,
        quota_per_task: float,
        tasks_per_node: int,
        mem_bw: float,
        writeback_delay: float = 30.0,
    ):
        if quota_per_task < 0 or mem_bw <= 0:
            raise ValueError("bad cache parameters")
        self.engine = engine
        self.quota_per_task = float(quota_per_task)
        self.max_dirty = float(quota_per_task) * tasks_per_node
        self.mem_bw = float(mem_bw)
        self.writeback_delay = float(writeback_delay)
        #: per-task dirty bytes
        self._dirty: Dict[int, float] = {}
        self._sync_waiters: Deque[Event] = deque()
        self.bytes_absorbed = 0.0
        self.flushes = 0

    # -- state ------------------------------------------------------------
    @property
    def dirty(self) -> float:
        return sum(self._dirty.values())

    def pressure(self) -> float:
        """Fraction of the node's dirty budget in use (0..1)."""
        if self.max_dirty <= 0:
            return 0.0
        return min(self.dirty / self.max_dirty, 1.0)

    def task_dirty(self, task: int) -> float:
        return self._dirty.get(task, 0.0)

    def free_quota(self, task: int) -> float:
        return max(self.quota_per_task - self.task_dirty(task), 0.0)

    # -- operations ----------------------------------------------------------
    def absorb(self, task: int, nbytes: float) -> int:
        """Accept up to the task's free quota as dirty pages; returns the
        whole bytes absorbed (floored to an int so callers can do exact
        byte accounting).  The caller charges ``absorbed / mem_bw`` of time
        and is responsible for eventually flushing the pages."""
        take = int(min(self.free_quota(task), max(nbytes, 0.0)))
        if take > 0:
            self._dirty[task] = self.task_dirty(task) + take
            self.bytes_absorbed += take
        return take

    def mark_clean(self, task: int, nbytes: float) -> None:
        have = self.task_dirty(task)
        left = max(have - nbytes, 0.0)
        if left > 0:
            self._dirty[task] = left
        else:
            self._dirty.pop(task, None)
        if self.dirty <= 0 and self._sync_waiters:
            waiters, self._sync_waiters = self._sync_waiters, deque()
            for ev in waiters:
                ev.succeed(None)

    def sync_event(self) -> Event:
        """An event that fires once the node has no dirty pages."""
        ev = self.engine.event()
        if self.dirty <= 0:
            ev.succeed(None)
        else:
            self._sync_waiters.append(ev)
        return ev
