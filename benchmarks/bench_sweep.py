"""Sweep runner throughput and scaling.

Two questions a sweep user cares about:

1. **Overhead** -- what does fork/queue/reduce cost per task when the
   simulations themselves are trivial?  (``test_sweep_dispatch_overhead``
   runs stand-in experiments whose one spec returns at once.)
2. **Scaling** -- does a real multi-experiment sweep actually go faster
   with workers, and by how much?  (``test_sweep_experiment_scaling``
   runs the same eight tiny-scale experiments serially and with
   ``WORKERS`` workers back-to-back and attaches the measured
   ``parallel_speedup``.)

``WORKERS`` is 4 capped at the host's core count: more workers than
cores only adds fork and context-switch cost.  ``parallel_speedup`` is
data, not an assertion: it is bounded by the host's core count
(``host_cpus`` is recorded next to it), so on a single-core CI box it
sits near 1.0 by construction -- the sweep's
correctness guarantees (ordering, store identity, crash isolation) are
what the test suite asserts; wall-clock scaling shows up on real
multi-core hosts.

Both use single-round ``run_once`` measurement: sweeps fork worker
processes, so multi-round micro-timing would mostly measure the OS.
"""

import os
import time

from repro.apps.harness import SimSpec
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.runner import ExperimentResult
from repro.sweep import experiment_tasks, run_sweep

WORKERS = min(4, os.cpu_count() or 1)

#: a cost-balanced slice of the experiment suite (no single experiment
#: dominates the critical path, so scaling is visible at 4 workers)
_EXPERIMENTS = [
    "fig1", "fig2", "fig4", "fig5",
    "failover", "erasure", "telemetry", "selfheal",
]


def _noop(config, seed):
    return None


class _NoopExperiment:
    """A stand-in experiment module: one spec that simulates nothing."""

    @staticmethod
    def plan(scale):
        return [SimSpec("app", _noop, None, 0, cost=1.0, label="noop")]

    @staticmethod
    def summarise(spec, result):
        return {}

    @staticmethod
    def reduce(scale, summaries):
        return ExperimentResult("noop", scale, verdicts={"ran": True})

    @staticmethod
    def main(scale, result):
        return "noop"


def test_sweep_dispatch_overhead(run_once, benchmark, monkeypatch):
    """Per-task cost of the sweep machinery itself: 32 stand-in
    experiments of one empty spec each across ``WORKERS`` workers --
    everything measured is fork + queue + reduce + ordering overhead.
    Forked workers see the stand-ins registered here."""
    names = [f"noop{i}" for i in range(32)]
    for name in names:
        monkeypatch.setitem(ALL_EXPERIMENTS, name, _NoopExperiment)
    tasks = experiment_tasks(names, "tiny")

    def sweep():
        results = run_sweep(tasks, workers=WORKERS)
        assert all(r.ok for r in results)
        return len(results)

    n = run_once(sweep)
    benchmark.extra_info["tasks"] = n
    benchmark.extra_info["workers"] = WORKERS


def test_sweep_experiment_scaling(run_once, benchmark):
    """Serial vs ``WORKERS``-worker wall time for the same eight tiny-scale
    experiments; the benchmarked (timed) run is the parallel one."""
    tasks = experiment_tasks(_EXPERIMENTS, "tiny")

    t0 = time.perf_counter()
    serial = run_sweep(tasks, workers=1)
    serial_s = time.perf_counter() - t0
    assert all(r.ok for r in serial), [r.error for r in serial if not r.ok]

    def sweep():
        results = run_sweep(tasks, workers=WORKERS)
        assert all(r.ok for r in results)
        return len(results)

    t1 = time.perf_counter()
    n = run_once(sweep)
    parallel_s = time.perf_counter() - t1

    benchmark.extra_info["tasks"] = n
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["host_cpus"] = os.cpu_count() or 1
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["parallel_s"] = parallel_s
    benchmark.extra_info["parallel_speedup"] = serial_s / parallel_s
