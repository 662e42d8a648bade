"""Benchmark: server-side telemetry cost and the oracle reproduction.

Two records: the telemetry-oracle experiment regenerated at small scale
(every client finding cross-checked against server truth, a deliberate
mis-attribution caught), and a direct overhead measurement of the
telemetry hooks themselves -- the same seeded shared-file workload run
with telemetry off and on, interleaved best-of-N wall times.

The overhead assertion uses its own ``perf_counter`` timings rather than
the pytest-benchmark stats so it still guards the <10% acceptance bound
on smoke runs (``--benchmark-disable``), where no stats are collected.
"""

from __future__ import annotations

import gc
import time

from repro.apps.harness import SimJob
from repro.experiments import fig_telemetry
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR

from paired import paired_runs

_NTASKS = 32
_NREC = 64
_REPS = 9


def _worker(ctx, nrec: int):
    path = f"/scratch/bench.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, 4)
    fd = yield from ctx.io.open(path, O_CREAT | O_RDWR)
    for j in range(nrec):
        yield from ctx.io.pwrite(fd, MiB, j * MiB)
    for j in range(nrec):
        yield from ctx.io.pread(fd, MiB, j * MiB)
    yield from ctx.io.close(fd)
    return None


def _timed_run(telemetry: bool) -> float:
    machine = MachineConfig.testbox(n_osts=16, fs_bw=2048 * MiB)
    job = SimJob(
        machine.with_overrides(telemetry=telemetry), _NTASKS, seed=11
    )
    gc.collect()  # don't let one arm inherit the other's garbage
    t0 = time.perf_counter()
    job.run(_worker, _NREC)
    return time.perf_counter() - t0


def test_telemetry_oracle(run_once, benchmark):
    out = run_once(fig_telemetry.run, scale="small")
    benchmark.extra_info["scenarios"] = [
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in r.items()}
        for r in out.series["rows"]
    ]
    benchmark.extra_info["total_contradictions"] = out.summary[
        "total_contradictions"
    ]
    assert out.all_verdicts_hold(), out.verdicts


def test_telemetry_overhead(run_once, benchmark):
    """Telemetry on must cost <10% wall time on the same seeded workload.

    The gate takes the *minimum* of the alternating paired ratios
    (``paired.py``); the record adds their median and quartiles.
    """

    paired = run_once(paired_runs, _timed_run, _REPS)
    benchmark.extra_info.update(paired.extra_info())
    overhead = paired.min_ratio - 1.0
    off, on = paired.best
    assert overhead < 0.10, (
        f"telemetry overhead {100 * overhead:.1f}% exceeds the 10% bound "
        f"(best paired off {off:.4f}s, on {on:.4f}s)"
    )
