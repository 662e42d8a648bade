"""Benchmark: multi-tenant facility cost and the interference oracle.

Two records: the cross-job interference experiment regenerated at small
scale (victim slowdown attributed to the true aggressor, every
attribution graded against the per-tenant server ledger, planted
mis-attributions contradicted), and a direct overhead measurement of the
per-tenant accounting itself -- the same seeded two-tenant facility run
with telemetry off and on, interleaved best-of-N wall times.

The overhead assertion uses its own ``perf_counter`` timings rather than
the pytest-benchmark stats so it still guards the <10% acceptance bound
on smoke runs (``--benchmark-disable``), where no stats are collected.
"""

from __future__ import annotations

import gc
import time

from repro.experiments import fig_interference
from repro.iosys.machine import MachineConfig
from repro.iosys.scheduler import Facility, TenantJob

from paired import paired_runs

_REPS = 9

_JOBS = (
    TenantJob("victim", "checkpoint", 4, params={"nfiles": 24}),
    TenantJob("storm", "mds-storm", 16, arrival=0.3, params={"nfiles": 6}),
)


def _timed_run(telemetry: bool) -> float:
    machine = MachineConfig.shared_testbox(telemetry=telemetry)
    facility = Facility(machine, _JOBS, seed=11)
    gc.collect()  # don't let one arm inherit the other's garbage
    t0 = time.perf_counter()
    facility.run()
    return time.perf_counter() - t0


def test_interference_oracle(run_once, benchmark):
    out = run_once(fig_interference.run, scale="small")
    benchmark.extra_info["scenarios"] = [
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
        for r in out.series["rows"]
    ]
    benchmark.extra_info["storm_slowdown"] = round(
        out.summary["storm_slowdown"], 3
    )
    benchmark.extra_info["hog_slowdown"] = round(
        out.summary["hog_slowdown"], 3
    )
    assert out.all_verdicts_hold(), out.verdicts


def test_multitenant_overhead(run_once, benchmark):
    """Per-tenant accounting must cost <10% wall time on the same seeded
    two-tenant facility.

    The gate takes the *minimum* of the alternating paired ratios
    (``paired.py``); the record adds their median and quartiles.
    """

    paired = run_once(paired_runs, _timed_run, _REPS)
    benchmark.extra_info.update(paired.extra_info())
    overhead = paired.min_ratio - 1.0
    off, on = paired.best
    assert overhead < 0.10, (
        f"per-tenant accounting overhead {100 * overhead:.1f}% exceeds "
        f"the 10% bound (best paired off {off:.4f}s, on {on:.4f}s)"
    )
