"""Raw performance of the simulation substrate itself.

These are true micro-benchmarks (multiple rounds): event-loop throughput,
channel service rate, and end-to-end simulated-ops throughput of the full
client stack.  They track the scalability headroom that lets the
paper-scale experiments (10,240 tasks) run in minutes.

Measurement discipline: each round builds its scenario in pedantic
``setup`` and times ONLY ``engine.run()`` -- steady-state dispatch, no
construction or teardown in the measured window.  Each benchmark also
attaches a paired reference-vs-fastpath comparison to ``extra_info``
(same scenario, best-of-N wall time on both dispatch paths, measured
back-to-back in this process): ``fastpath_speedup`` is the ratio the
fast path (see ``repro.sim.fastpath``) buys, tracked as data rather than
asserted, since absolute host speed varies.
"""

import time

from repro.iosys.machine import KiB, MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR, IoSystem
from repro.mpi.runtime import World
from repro.sim.engine import Engine
from repro.sim.fastpath import forced_path
from repro.sim.resources import SlotChannel
from repro.sim.rng import RngStreams

N_EVENTS = 20000
#: rounds for the in-test paired path comparison (best-of-N each path)
PAIR_ROUNDS = 5


def _paired_speedup(build):
    """Best-of-N ``engine.run()`` seconds on each dispatch path.

    ``build`` returns a primed engine (work scheduled, not yet run);
    construction stays outside the timed window, mirroring the pedantic
    measurement.
    """

    def best(fast):
        times = []
        with forced_path(fast):
            for _ in range(PAIR_ROUNDS):
                engine = build()
                t0 = time.perf_counter()
                engine.run()
                times.append(time.perf_counter() - t0)
        return min(times)

    reference_s = best(False)
    fastpath_s = best(True)
    return {
        "reference_min_s": reference_s,
        "fastpath_min_s": fastpath_s,
        "fastpath_speedup": reference_s / fastpath_s,
    }


def _bench_run(benchmark, build, rounds=10):
    """Steady-state: build in setup, time ``run()`` alone."""

    def setup():
        return (build(),), {}

    def run(engine):
        engine.run()
        return engine.event_count

    return benchmark.pedantic(run, setup=setup, rounds=rounds,
                              warmup_rounds=1)


def test_engine_timeout_throughput(benchmark):
    def build():
        eng = Engine()

        def proc():
            for _ in range(N_EVENTS // 10):
                yield eng.timeout(0.001)

        for _ in range(10):
            eng.process(proc())
        return eng

    events = _bench_run(benchmark, build)
    benchmark.extra_info["events"] = events
    pair = _paired_speedup(build)
    benchmark.extra_info.update(pair)
    benchmark.extra_info["events_per_s"] = events / pair["fastpath_min_s"]


def test_slot_channel_throughput(benchmark):
    def build():
        eng = Engine()
        ch = SlotChannel(eng, bandwidth=1e9, slots=4)
        for _ in range(5000):
            ch.transfer(1e6)
        return eng

    events = _bench_run(benchmark, build)
    benchmark.extra_info["events"] = events
    pair = _paired_speedup(build)
    benchmark.extra_info.update(pair)
    benchmark.extra_info["transfers_per_s"] = 5000 / pair["fastpath_min_s"]


def test_full_stack_ops_per_second(benchmark):
    """Simulated I/O ops through MPI + client + cache + striping + locks
    + tracing.

    64 ranks interleave unaligned records into one shared file on the
    Franklin preset, so every write crosses stripe boundaries, leaves
    ragged head/tail stripes, and revokes a neighbour's extent locks --
    the striping and lock layers are on the measured path.  The full
    stack spends most of its time above the dispatch loop, so its
    ``fastpath_speedup`` is the honest end-to-end number (Amdahl), not
    the microbenchmark ratio.
    """
    nranks, nwrites = 64, 32
    record = 3 * MiB + 123 * KiB  # never a stripe multiple

    def build():
        world = World(nranks=nranks)
        iosys = IoSystem(
            world.engine,
            MachineConfig.franklin(),
            ntasks=nranks,
            rng=RngStreams(0),
        )

        def fn(ctx):
            px = iosys.posix_for(ctx.rank)
            fd = yield from px.open("/shared", O_CREAT | O_RDWR)
            for i in range(nwrites):
                yield from px.pwrite(fd, record, (i * nranks + ctx.rank) * record)
            yield from px.close(fd)
            return None

        # spawn without running (World.run would also start the engine);
        # only the dispatch belongs in the timed window
        world.spawn(fn)
        return world.engine

    sim_ops = nranks * (nwrites + 2)
    events = _bench_run(benchmark, build, rounds=5)
    benchmark.extra_info["sim_ops"] = sim_ops
    benchmark.extra_info["engine_events"] = events
    pair = _paired_speedup(build)
    benchmark.extra_info.update(pair)
    benchmark.extra_info["sim_ops_per_s"] = sim_ops / pair["fastpath_min_s"]
