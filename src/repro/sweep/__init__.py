"""Multi-core sweep runner: schedules simulations, not experiments.

The paper's methodology is ensemble-first: one run is an anecdote, a
sweep of fixed-seed runs is a distribution (Section III).  Every
simulation in this repo is deterministic and single-threaded, so a sweep
is embarrassingly parallel at the level of single simulations.

How a sweep runs:

- **Plan in the parent.**  Each task names one experiment; its module's
  ``plan(scale)`` splits it into :class:`~repro.apps.harness.SimSpec`
  values, one unit of work each.
- **Pull queue, longest first.**  Worker *processes* (one interpreter
  each, no shared simulation state) take one unit at a time: whenever a
  worker is idle the parent hands it the ready unit with the largest
  ``SimSpec.cost`` hint (ties in task, then plan order).  A spec that
  ``needs`` earlier simulations of its plan becomes ready once their
  summaries are back; the parent resolves it before handing it out.
- **Ship summaries, reduce in the parent.**  A worker simulates one
  spec, runs the experiment's ``summarise`` and sends back only the
  picklable summary, with the host seconds the two took.  As soon as
  every spec of an experiment is back, the parent -- having first handed
  the idle workers new units -- calls ``reduce`` with the summaries in
  plan order, renders ``main()`` and drops the summaries.  At the end it
  writes ``--save`` files and ``--store`` records in task order.

A stored record's ``wall_time`` (and its ``wall_s`` metric) is the sum
of its units' simulate + summarise seconds plus its ``reduce``: the
host time a serial ``run()`` spends, read through
:func:`repro.store.clock.host_seconds`.

Guarantees, enforced by ``tests/test_sweep.py`` and the properties in
``tests/test_sweep_properties.py``:

- **Deterministic ordering** -- ``SweepRunner.run()`` returns one
  :class:`SweepResult` per task, in task order, for any worker count.
- **Worker-count invariance** -- payloads, ``main()`` text and saved
  files are identical for 1 and N workers: reduce sees the same
  summaries in the same order.  Store rows are identical too, apart from
  the two timing fields (``wall_time`` and the ``wall_s`` metric, which
  also feeds ``run_id``); every record carries the parent's single
  ``created_at``.  ``SweepResult.worker`` is diagnostic only.
- **Crash isolation** -- a unit that raises, or a worker that dies
  outright (segfault, ``os._exit``), fails only the unit in flight and
  so only the task it belongs to; the dead worker is replaced and every
  other task completes.
"""

from __future__ import annotations

import heapq
import pickle
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from queue import Empty
from typing import (
    TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..apps.harness import SimSpec

__all__ = [
    "SweepError",
    "SweepTask",
    "SweepResult",
    "experiment_tasks",
    "SweepRunner",
    "run_sweep",
]


class SweepError(RuntimeError):
    """Invalid sweep configuration or task definition."""


@dataclass(frozen=True)
class SweepTask:
    """One experiment to run: ``name`` is a key of
    :data:`repro.experiments.ALL_EXPERIMENTS`, ``scale`` one of
    :data:`repro.experiments.SCALES`."""

    name: str
    scale: str = "paper"

    def label(self) -> str:
        return f"{self.name}@{self.scale}"


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one task: ``payload`` (the experiment's
    ``result_to_dict`` output) and ``text`` (its ``main()`` rendering)
    on success, ``error`` (a traceback or crash description) on failure.
    ``worker`` records which worker finished the task's last unit
    (diagnostic only -- it varies with worker count; everything else
    must not)."""

    task: SweepTask
    index: int
    ok: bool
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    worker: int = -1
    text: Optional[str] = None


def experiment_tasks(
    names: Sequence[str], scale: str = "paper"
) -> List[SweepTask]:
    """Tasks for the named experiments (all of them when empty), with
    unknown names rejected up front -- a sweep should fail before it
    forks, not in a worker."""
    from ..experiments import ALL_EXPERIMENTS

    chosen = list(names) or list(ALL_EXPERIMENTS)
    unknown = [n for n in chosen if n not in ALL_EXPERIMENTS]
    if unknown:
        raise SweepError(
            f"unknown experiment(s) {unknown!r}; "
            f"known: {', '.join(ALL_EXPERIMENTS)}"
        )
    return [SweepTask(name=n, scale=scale) for n in chosen]


#: a unit of work: ``(task index, spec index)``
Key = Tuple[int, int]


def _worker_main(worker: int, inbox: Any, outbox: Any) -> None:
    """Worker entry point: simulate and summarise the specs the parent
    hands over, one at a time, until it sends ``None``; each summary
    goes back with the host seconds it took.

    A unit's exception is reported as a failure and the worker carries
    on -- only a hard crash ends it early, and the parent notices by the
    process being gone.
    """
    from ..apps.harness import simulate
    from ..experiments import ALL_EXPERIMENTS
    from ..store.clock import host_seconds

    while True:
        unit = inbox.get()
        if unit is None:
            return
        key, name, spec = unit
        try:
            t0 = host_seconds()
            summary = ALL_EXPERIMENTS[name].summarise(spec, simulate(spec))
            seconds = host_seconds() - t0
            # pickled here, so a value that cannot cross the process
            # boundary fails its unit instead of the queue's feeder
            value = pickle.dumps((summary, seconds))
        except BaseException:  # noqa: BLE001 - report, keep serving
            outbox.put((worker, key, False, None, traceback.format_exc()))
        else:
            outbox.put((worker, key, True, value, None))


#: parent poll interval while waiting on worker messages (host seconds;
#: liveness, not simulation time)
_POLL_S = 0.2


@dataclass
class _Plan:
    """One task's specs and the summaries that have come back for them."""

    specs: List["SimSpec"]
    done: Dict[int, Any] = field(default_factory=dict)
    error: Optional[str] = None
    worker: int = -1
    #: host seconds of the units back so far, then plus the reduce
    wall: float = 0.0
    #: the task's payload and ``main()`` text once it is complete
    payload: Optional[Dict[str, Any]] = None
    text: Optional[str] = None

    def complete(self) -> bool:
        return self.error is None and len(self.done) == len(self.specs)

    def ready(self, ti: int, queued: Set[Key]) -> List[Tuple[float, Key]]:
        """Heap entries for this plan's units not yet queued whose needs
        are all summarised; dependent specs are resolved on the way."""
        if self.error is not None:
            return []
        labels = {spec.label: si for si, spec in enumerate(self.specs)}
        entries = []
        for si, spec in enumerate(self.specs):
            if (ti, si) in queued or not all(
                labels[n] in self.done for n in spec.needs
            ):
                continue
            if spec.needs:
                self.specs[si] = spec.resolve(
                    {n: self.done[labels[n]] for n in spec.needs}
                )
            queued.add((ti, si))
            # longest first; ties in task, then plan order
            entries.append((-float(spec.cost), (ti, si)))
        return entries


class _Worker:
    """One worker process and the inbox the parent feeds it through."""

    def __init__(self, ctx: Any, wid: int, outbox: Any) -> None:
        self.inbox = ctx.Queue()
        self.proc = ctx.Process(
            target=_worker_main, args=(wid, self.inbox, outbox), daemon=True,
        )
        self.proc.start()
        self.dead_polls = 0


class SweepRunner:
    """Run ``tasks`` on ``workers`` processes and collect results.

    ``save_dir``/``store_path`` receive the experiment results (written
    by the parent, in task order); ``created_at`` is the single
    timestamp stamped on every store record (pass
    :func:`repro.store.clock.utc_stamp` output from the CLI; tests pass
    a constant).  ``run()`` may be called once per instance.
    """

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        workers: int = 1,
        store_path: Optional[str] = None,
        save_dir: Optional[str] = None,
        created_at: str = "",
    ) -> None:
        if workers < 1:
            raise SweepError(f"workers must be >= 1, got {workers}")
        self.tasks = list(tasks)
        self.workers = int(workers)
        self.store_path = store_path
        self.save_dir = save_dir
        self.created_at = created_at

    def run(self) -> List[SweepResult]:
        if not self.tasks:
            return []
        plans = [self._plan(task) for task in self.tasks]
        queued: Set[Key] = set()
        ready: List[Tuple[float, Key]] = []
        for ti, plan in enumerate(plans):
            for entry in plan.ready(ti, queued):
                heapq.heappush(ready, entry)
        n_units = sum(len(plan.specs) for plan in plans)
        self._dispatch(plans, queued, ready, min(self.workers, n_units))
        return self._collect(plans)

    # -- the three stages ---------------------------------------------------
    def _plan(self, task: SweepTask) -> _Plan:
        from ..experiments import ALL_EXPERIMENTS

        try:
            plan = ALL_EXPERIMENTS[task.name].plan
            return _Plan(specs=list(plan(task.scale)))
        except Exception:  # noqa: BLE001 - fails this task only
            return _Plan(specs=[], error=traceback.format_exc())

    def _dispatch(
        self,
        plans: List[_Plan],
        queued: Set[Key],
        ready: List[Tuple[float, Key]],
        n_workers: int,
    ) -> None:
        """Hand ready units to idle workers until none is left or in
        flight, reducing each task as it completes; replace a worker
        that dies, failing its one unit."""
        # fork keeps worker start cheap and inherits sys.path; fall back
        # to the platform default where fork is unavailable (typeshed's
        # BaseContext lacks .Process, hence the Any)
        ctx: Any
        try:
            ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = get_context()
        outbox = ctx.Queue()
        # every worker starts before the parent's first put spawns a queue
        # feeder thread: forking a threaded process risks a deadlock
        workers = {
            wid: _Worker(ctx, wid, outbox) for wid in range(n_workers)
        }
        idle = list(range(n_workers))
        inflight: Dict[int, Key] = {}
        finished: List[int] = []
        try:
            while True:
                while idle and ready:
                    _, (ti, si) = heapq.heappop(ready)
                    if plans[ti].error is not None:
                        continue  # its task already failed
                    wid = idle.pop(0)
                    if wid not in workers:  # replaces a dead worker
                        workers[wid] = _Worker(ctx, wid, outbox)
                    workers[wid].inbox.put(
                        ((ti, si), self.tasks[ti].name, plans[ti].specs[si])
                    )
                    inflight[wid] = (ti, si)
                # reduce while the workers simulate, after handing them
                # work; each summary is dropped once its task is reduced
                while finished:
                    self._reduce(finished.pop(0), plans)
                if not inflight:
                    return
                try:
                    wid, key, ok, value, error = outbox.get(timeout=_POLL_S)
                except Empty:
                    self._reap(plans, workers, inflight, idle)
                    continue
                if inflight.get(wid) != key:
                    continue  # a reaped worker's late message
                del inflight[wid]
                idle.append(wid)
                idle.sort()
                ti, si = key
                plan = plans[ti]
                plan.worker = wid
                if not ok:
                    if plan.error is None:
                        plan.error = error
                    continue
                plan.done[si], seconds = pickle.loads(value)
                plan.wall += seconds
                for entry in plan.ready(ti, queued):
                    heapq.heappush(ready, entry)
                if plan.complete():
                    finished.append(ti)
        finally:
            for worker in workers.values():
                if worker.proc.is_alive():
                    worker.inbox.put(None)
            for worker in workers.values():
                worker.proc.join()
            outbox.close()

    def _reap(
        self,
        plans: List[_Plan],
        workers: Dict[int, _Worker],
        inflight: Dict[int, Key],
        idle: List[int],
    ) -> None:
        """No message: fail the unit of any worker that died, allowing
        one extra empty poll so a result the worker flushed just before
        crashing still drains from the pipe."""
        for wid in sorted(inflight):
            worker = workers[wid]
            if worker.proc.is_alive():
                continue
            worker.dead_polls += 1
            if worker.dead_polls < 2:
                continue
            ti, si = inflight.pop(wid)
            if plans[ti].error is None:
                plans[ti].error = (
                    f"worker {wid} died (exitcode {worker.proc.exitcode}) "
                    f"while running spec {plans[ti].specs[si].label!r} of "
                    f"{self.tasks[ti].label()}"
                )
            plans[ti].worker = wid
            del workers[wid]  # a fresh worker takes the slot on demand
            idle.append(wid)
            idle.sort()

    def _reduce(self, ti: int, plans: List[_Plan]) -> None:
        """Turn task ``ti``'s summaries into its payload and ``main()``
        text, adding the reduce's host seconds to its wall time and
        freeing the summaries."""
        from ..experiments import ALL_EXPERIMENTS
        from ..experiments.runner import result_to_dict
        from ..store.clock import host_seconds

        task, plan = self.tasks[ti], plans[ti]
        module = ALL_EXPERIMENTS[task.name]
        summaries = {
            spec.label: plan.done[si] for si, spec in enumerate(plan.specs)
        }
        plan.done.clear()
        try:
            t0 = host_seconds()
            result = module.reduce(task.scale, summaries)
            plan.wall += host_seconds() - t0
            plan.payload = result_to_dict(result)
            plan.text = module.main(task.scale, result=result)
        except Exception:  # noqa: BLE001 - fails this task only
            plan.error = traceback.format_exc()

    def _collect(self, plans: List[_Plan]) -> List[SweepResult]:
        """Save, store and report each task, in task order: the one
        place experiment results reach a loose file or the run store."""
        from ..experiments.runner import save_payload
        from ..store import RunStore, record_from_experiment_dict

        store = None if self.store_path is None else RunStore(self.store_path)
        results: List[SweepResult] = []
        try:
            for ti, (task, plan) in enumerate(zip(self.tasks, plans)):
                if plan.error is not None or plan.payload is None:
                    results.append(SweepResult(
                        task=task, index=ti, ok=False,
                        error=plan.error, worker=plan.worker,
                    ))
                    continue
                if self.save_dir:
                    save_payload(plan.payload, self.save_dir)
                if store is not None:
                    store.put(record_from_experiment_dict(
                        plan.payload, wall_time=plan.wall,
                        created_at=self.created_at,
                    ))
                results.append(SweepResult(
                    task=task, index=ti, ok=True, payload=plan.payload,
                    worker=plan.worker, text=plan.text,
                ))
        finally:
            if store is not None:
                store.close()
        return results


def run_sweep(
    tasks: Sequence[SweepTask],
    workers: int = 1,
    store_path: Optional[str] = None,
    save_dir: Optional[str] = None,
    created_at: str = "",
) -> List[SweepResult]:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(
        tasks, workers=workers, store_path=store_path,
        save_dir=save_dir, created_at=created_at,
    ).run()
