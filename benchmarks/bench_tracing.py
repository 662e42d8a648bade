"""IPM-I/O claims: tracing is lightweight; profiling is O(1) memory.

- Section II-B: full tracing showed "no significant slowdown" up to 10K
  tasks.  We compare a run with zero interception cost against one with a
  pessimistic 20 microseconds per intercepted call: the simulated job time
  moves by well under 1%.
- Section VI (future work, implemented here): the streaming-profile mode
  keeps enough to define the distribution in constant memory; this bench
  records the trace-vs-profile memory ratio and checks the profile's
  moments match the trace's.
"""

import pytest

from repro.apps.harness import SimJob
from repro.apps.ior import IorConfig, run_ior
from repro.iosys.machine import MachineConfig, MiB
from repro.iosys.posix import O_CREAT, O_RDWR


def _ior_cfg():
    machine = MachineConfig.franklin()
    return IorConfig(
        ntasks=128,
        block_size=64 * MiB,
        transfer_size=8 * MiB,
        repetitions=3,
        stripe_count=48,
        machine=machine.with_overrides(
            fs_bw=machine.fs_bw / 8, fs_read_bw=machine.fs_read_bw / 8
        ),
    )


def _run_with_overhead(overhead: float, mode: str = "trace"):
    cfg = _ior_cfg()
    job = SimJob(
        cfg.machine, cfg.ntasks, seed=0, ipm_mode=mode, ipm_overhead=overhead
    )
    from repro.apps.ior import _ior_rank

    return job.run(_ior_rank, cfg)


def test_tracing_overhead_negligible(run_once, benchmark):
    def scenario():
        free = _run_with_overhead(0.0)
        pessimistic = _run_with_overhead(20e-6)
        return free, pessimistic

    free, pessimistic = run_once(scenario)
    slowdown = pessimistic.elapsed / free.elapsed - 1.0
    benchmark.extra_info["job_s_no_overhead"] = round(free.elapsed, 2)
    benchmark.extra_info["job_s_20us_per_call"] = round(
        pessimistic.elapsed, 2
    )
    benchmark.extra_info["slowdown_pct"] = round(100 * slowdown, 3)
    benchmark.extra_info["calls_traced"] = pessimistic.collector.calls
    assert slowdown < 0.01  # "no significant slowdown"


def test_profile_mode_memory_footprint(run_once, benchmark):
    def scenario():
        traced = _run_with_overhead(0.0, mode="trace")
        profiled = _run_with_overhead(0.0, mode="profile")
        return traced, profiled

    traced, profiled = run_once(scenario)
    # trace memory: the column storage, folded or not
    trace_bytes = traced.collector.trace.nbytes()
    profile_bytes = profiled.collector.profile.nbytes()
    benchmark.extra_info["trace_events"] = len(traced.collector.trace)
    benchmark.extra_info["trace_bytes"] = trace_bytes
    benchmark.extra_info["profile_bytes"] = profile_bytes
    benchmark.extra_info["compression"] = round(
        trace_bytes / profile_bytes, 1
    )
    assert profile_bytes < trace_bytes / 5
    # and the summary is faithful: moments agree with the full trace
    writes = traced.collector.trace.writes()
    hist = profiled.collector.profile.histogram("pwrite")
    assert hist.n == len(writes)
    assert hist.mean == pytest.approx(float(writes.durations.mean()), rel=1e-9)
