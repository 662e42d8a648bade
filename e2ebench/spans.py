"""Outside-in instrumentation of the simulator, installed by the worker.

Nothing here edits ``src/``: each wrapper replaces a method by setting
the class attribute before any instance exists, so every call made
through an instance reaches it.  The worker process exits afterwards,
so nothing is ever unwrapped.

:class:`Spans` gives per-layer call counts and host time.  A wrapped
call opens a span; its *self* time is its duration minus the spans
nested in it.  A generator method (the client's ``write``/``read``/
``sync``) is timed on every resume, so the simulated time it spends
suspended is never counted, and ``throw``/``close`` reach the inner
generator exactly as ``yield from`` would deliver them.

:class:`Outputs` fingerprints what each simulation produced, so a run
can be checked against a reference and against its own repeats.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LAYERS", "Layer", "Spans", "Outputs"]

#: wrap every public method of the class (plain functions only:
#: properties, static and class methods are left alone)
PUBLIC = None

#: (layer, module, class, methods).  A named method that is missing
#: raises, so an API change cannot silently leave a layer unmeasured.
LAYERS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]]], ...] = (
    ("stage.build", "repro.apps.harness", "SimJob", ("__init__",)),
    ("stage.build", "repro.iosys.scheduler", "Facility", ("__init__",)),
    ("stage.dispatch", "repro.apps.harness", "SimJob", ("run",)),
    ("stage.dispatch", "repro.iosys.scheduler", "Facility", ("run",)),
    ("sim.rng", "repro.sim.rng", "RngStreams",
     ("choice_weighted", "lognormal_factor", "uniform")),
    ("iosys.client", "repro.iosys.client", "LustreClient",
     ("write", "read", "sync")),
    ("iosys.striping", "repro.iosys.striping", "StripeLayout",
     ("extents", "bytes_per_ost", "osts_touched", "partial_stripes",
      "boundary_crossings")),
    ("iosys.ost", "repro.iosys.ost", "OstPool",
     ("write_penalty", "read_penalty", "degraded_read_penalty",
      "ec_write_penalty", "ec_degraded_read_penalty", "service_factor",
      "slow_factor")),
    ("iosys.locks", "repro.iosys.locks", "ExtentLockTracker", PUBLIC),
    ("iosys.cache", "repro.iosys.cache", "PageCache", PUBLIC),
    ("iosys.readahead", "repro.iosys.readahead", "ReadAheadEngine", PUBLIC),
    ("iosys.mds", "repro.iosys.mds", "MetadataServer", PUBLIC),
    ("iosys.placement", "repro.iosys.replication", "ReplicatedLayout", PUBLIC),
    ("iosys.placement", "repro.iosys.erasure", "ErasureCodedLayout", PUBLIC),
    ("iosys.telemetry", "repro.iosys.telemetry", "TelemetryCollector", PUBLIC),
    ("iosys.health", "repro.iosys.health", "HealthMonitor", PUBLIC),
    ("ipm.trace_select", "repro.ipm.events", "Trace",
     ("filter", "reads", "writes", "data_ops", "by_phase")),
)

#: methods whose result lengths are summed into the layer's ``items``
#: (the Extent objects the striping layer builds)
ITEM_COUNTS = {("StripeLayout", "extents")}


def _load(module: str, cls: str) -> type:
    return getattr(importlib.import_module(module), cls)


def _methods(klass: type, names: Optional[Sequence[str]]) -> List[str]:
    if names is None:
        return sorted(
            n for n, v in vars(klass).items()
            if not n.startswith("_") and inspect.isfunction(v)
        )
    for n in names:
        if not inspect.isfunction(vars(klass).get(n)):
            raise TypeError(f"{klass.__name__}.{n} is not a plain method")
    return list(names)


@dataclasses.dataclass
class Layer:
    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Spans:
    """Per-layer call counts, total and self host time."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        #: time covered by child spans, one slot per open span
        self._open: List[float] = []

    def install(self, layers=LAYERS) -> "Spans":
        for name, module, cls, methods in layers:
            klass = _load(module, cls)
            layer = self.layers.setdefault(name, Layer(name))
            for meth in _methods(klass, methods):
                fn = vars(klass)[meth]
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._timed_generator(fn, layer)
                else:
                    wrapped = self._timed(fn, layer, (cls, meth) in ITEM_COUNTS)
                setattr(klass, meth, wrapped)
        return self

    def _timed(self, fn: Callable, layer: Layer, items: bool) -> Callable:
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            layer.calls += 1
            open_spans.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layer.total_s += dt
                layer.self_s += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
            if items:
                layer.items += len(out)
            return out

        return timed

    def _timed_generator(self, fn: Callable, layer: Layer) -> Callable:
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            layer.calls += 1
            gen = fn(*args, **kwargs)
            step, arg = gen.send, None
            while True:
                open_spans.append(0.0)
                t0 = clock()
                try:
                    out = step(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    dt = clock() - t0
                    layer.total_s += dt
                    layer.self_s += dt - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += dt
                try:
                    arg = yield out
                    step = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded like yield from
                    step, arg = gen.throw, exc

        return timed


def _plain(obj: Any) -> Any:
    """``obj`` as JSON values with no memory address in them: dataclasses
    field by field, functions by qualified name, other objects by type."""
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if callable(obj) and hasattr(obj, "__qualname__"):
        return f"{obj.__module__}.{obj.__qualname__}"
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):  # numpy arrays and scalars
        return tolist()
    return type(obj).__name__


class Outputs:
    """What every simulation produced, grouped by experiment.

    Wraps ``SimJob``/``Facility``: ``__init__`` keeps the constructor
    arguments and ``run`` records, per simulation, the trace digest (the
    golden-trace format), the simulated elapsed time and the fault
    counters.  Its own work is timed in ``check_s`` so the caller can
    leave it out of the measured wall time.  Install it after
    :class:`Spans`, so that it wraps the dispatch span from outside.
    """

    def __init__(self) -> None:
        #: the experiment now running; set by the caller
        self.experiment = ""
        self.lines: Dict[str, List[str]] = {}
        self.fingerprints: List[str] = []
        self.check_s = 0.0
        self.dispatch_s = 0.0
        self.sim_events = 0
        self.trace_events = 0
        self.retries = 0
        self.failovers = 0
        self.reconstructions = 0
        self._init_args: "weakref.WeakKeyDictionary[Any, Any]" = (
            weakref.WeakKeyDictionary()
        )

    def install(self) -> "Outputs":
        from repro.store import trace_digest

        for module, cls in (("repro.apps.harness", "SimJob"),
                            ("repro.iosys.scheduler", "Facility")):
            klass = _load(module, cls)
            klass.__init__ = self._keep_args(vars(klass)["__init__"])
            klass.run = self._record(vars(klass)["run"], trace_digest)
        return self

    def _keep_args(self, init: Callable) -> Callable:
        kept = self._init_args

        @functools.wraps(init)
        def keep(job, *args, **kwargs):
            kept[job] = (args, kwargs)
            init(job, *args, **kwargs)

        return keep

    def _record(self, run: Callable, trace_digest: Callable) -> Callable:
        clock = time.perf_counter

        @functools.wraps(run)
        def record(job, *args, **kwargs):
            t0 = clock()
            result = run(job, *args, **kwargs)
            t1 = clock()
            trace = result.trace
            iosys = result.iosys
            retries = iosys.total_retries()
            failovers = iosys.total_failovers()
            recons = iosys.total_reconstructions()
            self.lines.setdefault(self.experiment, []).append(
                f"{trace_digest(trace)}|{float(result.elapsed).hex()}|"
                f"{retries}|{failovers}|{recons}"
            )
            config = {
                "class": type(job).__name__,
                "init": self._init_args.get(job),
                "run": [args, kwargs],
            }
            self.fingerprints.append(hashlib.sha256(
                json.dumps(_plain(config), sort_keys=True).encode()
            ).hexdigest())
            self.sim_events += job.engine.event_count
            self.trace_events += len(trace)
            self.retries += retries
            self.failovers += failovers
            self.reconstructions += recons
            self.dispatch_s += t1 - t0
            self.check_s += clock() - t1
            return result

        return record

    def digests(self) -> Dict[str, str]:
        """One sha256 per experiment over its simulations, in run order."""
        return {
            exp: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for exp, lines in self.lines.items()
        }
