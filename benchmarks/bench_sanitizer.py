"""Benchmark: the sim-race sanitizer's cost, off and on.

Two gates:

- ``test_sanitize_off_is_free`` -- the dispatcher's sanitizer hook must
  be free when off: a pure engine event loop (no I/O stack, so the hook
  dominates whatever cost it has) runs with ``sanitize=False`` and
  ``sanitize=True``-but-unannotated, paired; the ratio isolates the
  per-pop check added to ``Engine.run``.  The off arm is also the
  apples-to-apples row against the committed pre-sanitizer
  ``BENCH_engine.json`` throughput: a regression there is the off-mode
  cost showing up.
- ``test_sanitizer_overhead`` -- the full stack with ``sanitize=True``
  (resource annotations live, race windows tracked, telemetry frozen at
  export) must stay under 25% over the identical seeded run with it off.

Both take the minimum of interleaved wall-time pairs (``paired.py``):
a shared-machine load burst cannot contaminate every tightly-spaced
pair, while a genuine cost regression inflates all of them.  The
assertions use their own ``perf_counter`` timings so they still guard
the bound on smoke runs (``--benchmark-disable``).
"""

from __future__ import annotations

import gc
import time

from repro.apps.harness import SimJob
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR
from repro.sim.engine import Engine

from paired import paired_runs

_NTASKS = 32
_NREC = 64
_REPS = 9
_CHAIN_EVENTS = 200_000


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


def _timed_job(sanitize: bool) -> float:
    machine = MachineConfig.testbox(n_osts=16, fs_bw=2048 * MiB)
    job = SimJob(
        machine.with_overrides(sanitize=sanitize), _NTASKS, seed=11
    )
    gc.collect()  # don't let one arm inherit the other's garbage
    t0 = time.perf_counter()
    job.run(_worker, _NREC)
    return time.perf_counter() - t0


def _timed_chain(sanitize: bool) -> float:
    """A bare timeout chain: event dispatch is the whole cost, so the
    sanitizer's per-pop hook is maximally visible."""
    engine = Engine(sanitize=sanitize)

    def chain(env):
        for _ in range(_CHAIN_EVENTS):
            yield env.timeout(1.0)

    engine.process(chain(engine))
    gc.collect()
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0


def test_sanitize_off_is_free(run_once, benchmark):
    """The per-pop hook must cost ~nothing when no event is annotated;
    the off arm pays only the ``sanitize`` flag read."""
    paired = run_once(paired_runs, _timed_chain, _REPS)
    benchmark.extra_info["events"] = _CHAIN_EVENTS
    benchmark.extra_info.update(paired.extra_info())
    overhead = paired.min_ratio - 1.0
    assert overhead < 0.05, (
        f"bare dispatch with the sanitizer enabled costs "
        f"{100 * overhead:.1f}% (> 5% noise floor); the off path must "
        f"stay a single flag check"
    )


def test_sanitizer_overhead(run_once, benchmark):
    """Full-stack ``sanitize=True`` (annotations + race windows +
    telemetry freeze) must stay under the 25% acceptance bound."""
    paired = run_once(paired_runs, _timed_job, _REPS)
    benchmark.extra_info.update(paired.extra_info())
    overhead = paired.min_ratio - 1.0
    off, on = paired.best
    assert overhead < 0.25, (
        f"sanitizer overhead {100 * overhead:.1f}% exceeds the 25% bound "
        f"(best paired off {off:.4f}s, on {on:.4f}s)"
    )
