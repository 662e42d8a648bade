"""Benchmark: self-healing control plane cost and the healing oracle.

Two records: the self-healing experiment regenerated at small scale
(heal-on beats heal-off under a correlated OSS-domain stall, the
no-fault arms stay byte-identical, every quarantine/rebuild/readmit/
shed graded against the injected schedule), and a direct overhead
measurement of the control plane itself -- the same seeded healthy run
with healing off and on, interleaved best-of-N wall times.

The overhead assertion uses its own ``perf_counter`` timings rather
than the pytest-benchmark stats so it still guards the <10% acceptance
bound on smoke runs (``--benchmark-disable``), where no stats are
collected.
"""

from __future__ import annotations

import gc
import time

from repro.apps.harness import SimJob
from repro.experiments import fig_selfheal
from repro.iosys.machine import MiB
from repro.iosys.scheduler import shared_write

from paired import paired_runs

_REPS = 9
_NREC = 60


def _timed_run(heal: bool) -> float:
    """One healthy (fault-free) run: the cost measured is pure monitor
    overhead -- detectors scoring every op with nothing to find."""
    # the experiment's own machine recipe, so the two cannot drift apart
    machine = fig_selfheal._machine()
    job = SimJob(machine.with_overrides(heal=heal), 16, seed=2)
    gc.collect()  # don't let one arm inherit the other's garbage
    t0 = time.perf_counter()
    job.run(shared_write, "/scratch/bench_heal.dat", _NREC, MiB, 8)
    return time.perf_counter() - t0


def test_selfheal_oracle(run_once, benchmark):
    out = run_once(fig_selfheal.run, scale="small")
    benchmark.extra_info["scenarios"] = [
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
        for r in out.series["rows"]
    ]
    benchmark.extra_info["improvement"] = round(
        out.summary["improvement"], 3
    )
    benchmark.extra_info["actions_confirmed"] = out.summary[
        "actions_confirmed"
    ]
    benchmark.extra_info["actions_contradicted"] = out.summary[
        "actions_contradicted"
    ]
    assert out.all_verdicts_hold(), out.verdicts


def test_selfheal_overhead(run_once, benchmark):
    """The idle control plane must cost <10% wall time on a healthy run.

    The gate takes the *minimum* of the alternating paired ratios
    (``paired.py``); the record adds their median and quartiles.
    """

    paired = run_once(paired_runs, _timed_run, _REPS)
    benchmark.extra_info.update(paired.extra_info())
    overhead = paired.min_ratio - 1.0
    off, on = paired.best
    assert overhead < 0.10, (
        f"self-healing monitor overhead {100 * overhead:.1f}% exceeds "
        f"the 10% bound (best paired off {off:.4f}s, on {on:.4f}s)"
    )
