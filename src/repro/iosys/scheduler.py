"""Multi-tenant facility scheduler.

The paper's ensembles diagnose one application running alone, but the
server-side anomalies they surface on a production machine are mostly
*other people*: a shared Lustre facility admits many jobs at once, and a
victim's slow interval is frequently some co-resident tenant's metadata
storm or bandwidth hog.  This module makes that literal:

- :class:`TenantJob` declares one job (a named tenant running a workload
  from :data:`WORKLOADS` on ``ntasks`` tasks, admitted at ``arrival``).
- Arrival processes (:class:`PoissonArrivals`, :class:`BurstArrivals`,
  :class:`TraceArrivals`) generate deterministic-seed admission times for
  a batch of jobs -- the synthetic job mix of a facility trace.
- :class:`Facility` admits the jobs onto ONE shared machine: one engine,
  one :class:`~repro.iosys.posix.IoSystem`, disjoint node blocks per job,
  and a private :class:`~repro.mpi.runtime.World` (its own
  ``COMM_WORLD``) per job, spawned on the shared engine at admission.
  Each job is tagged with a tenant id (job index + 1; 0 stays
  "unattributed" so a missing tag is loud) that flows through the
  client, OST pool, and MDS into per-tenant telemetry,
  and the arbiter's cross-file OST sharing is switched on so co-resident
  tenants genuinely contend for devices.

A facility with a *single* zero-arrival job deliberately reduces to the
solo :class:`~repro.apps.harness.SimJob` byte-for-byte: tenancy tagging,
cross-file sharing, and per-tenant telemetry all stay off, and ranks are
started by the same ``World.spawn`` that ``World.run`` uses (process
creation order is what breaks same-time ties in the engine).  The
property suite pins this reduction against the golden digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..ipm.events import Trace
from ..mpi.runtime import World, check_finished
from ..sim.engine import Engine, Process
from ..sim.rng import RngStreams
from .machine import MachineConfig, MiB
from .posix import O_CREAT, O_RDWR, O_SYNC, O_WRONLY, IoSystem
from .telemetry import TelemetryTimeline

__all__ = [
    "TenantJob",
    "PoissonArrivals",
    "BurstArrivals",
    "TraceArrivals",
    "assign_arrivals",
    "parse_tenant_spec",
    "parse_arrival_spec",
    "Facility",
    "JobResult",
    "FacilityResult",
    "WORKLOADS",
    "shared_write",
    "fpt_write_read",
]


# ---------------------------------------------------------------------------
# workload library
# ---------------------------------------------------------------------------
#
# Each workload is a rank function (generator) taking the job-local
# RankContext; per-job knobs arrive as keyword arguments from
# ``TenantJob.params``.  Files live under ``/scratch/<job name>/`` so
# tenants never collide in the namespace.  The data-heavy workloads open
# O_SYNC: a victim whose writes are half-absorbed by the page cache has a
# bimodal per-byte distribution *by design*, which would read as a slow
# cluster even on a healthy facility.
#
# ``shared_write`` and ``fpt_write_read`` are the resilience experiments'
# kernels: buffered, launched through ``SimJob`` with an explicit path,
# stripe count and record sizes, so one simulation is fully described by
# its kernel, machine, task count, seed and arguments.


def _wl_ior(ctx, nrec: int = 8, rec_mib: float = 1.0):
    """IOR-class shared-file N-1 writer (write-through)."""
    io = ctx.io
    rec = int(rec_mib * MiB)
    path = f"/scratch/{ctx.job.name}/ior.dat"
    if ctx.rank == 0:
        ctx.iosys.set_stripe_count(path, ctx.machine.n_osts)
        fd = yield from io.open(path, O_CREAT | O_WRONLY | O_SYNC)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from io.open(path, O_WRONLY | O_SYNC)
    io.region("write")
    base = ctx.rank * nrec * rec
    for i in range(nrec):
        yield from io.pwrite(fd, rec, base + i * rec)
    yield from ctx.comm.barrier()
    yield from io.close(fd)
    return nrec * rec


def _wl_madbench(ctx, nrec: int = 6, rec_mib: float = 1.0):
    """MADbench-class file-per-task writer/reader (UNIQUE mode)."""
    io = ctx.io
    rec = int(rec_mib * MiB)
    path = f"/scratch/{ctx.job.name}/task{ctx.rank}.dat"
    fd = yield from io.open(path, O_CREAT | O_RDWR | O_SYNC)
    io.region("write")
    for i in range(nrec):
        yield from io.pwrite(fd, rec, i * rec)
    yield from ctx.comm.barrier()
    io.region("read")
    for i in range(nrec):
        yield from io.pread(fd, rec, i * rec)
    yield from io.close(fd)
    return 2 * nrec * rec


def _wl_gcrm(ctx, nwrites: int = 16, size: int = 180_224):
    """GCRM-class shared-file writer with small unaligned records."""
    io = ctx.io
    path = f"/scratch/{ctx.job.name}/restart.dat"
    if ctx.rank == 0:
        fd = yield from io.open(path, O_CREAT | O_WRONLY | O_SYNC)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from io.open(path, O_WRONLY | O_SYNC)
    io.region("write")
    base = ctx.rank * nwrites * size
    for i in range(nwrites):
        yield from io.pwrite(fd, size, base + i * size)
    yield from ctx.comm.barrier()
    yield from io.close(fd)
    return nwrites * size


def _wl_mds_storm(ctx, nfiles: int = 6):
    """Metadata aggressor: create/stat/close churn, no payload bytes."""
    io = ctx.io
    for i in range(nfiles):
        path = f"/scratch/{ctx.job.name}/meta{ctx.rank}_{i}.dat"
        fd = yield from io.open(path, O_CREAT | O_WRONLY)
        yield from io.close(fd)
        yield from io.stat(path)
    return nfiles


def _wl_bandwidth_hog(ctx, nrec: int = 4, rec_mib: float = 2.0):
    """Bandwidth aggressor: file-per-task streams striped over the whole
    pool, so every OST serves one extra active file for the duration."""
    io = ctx.io
    rec = int(rec_mib * MiB)
    path = f"/scratch/{ctx.job.name}/hog{ctx.rank}.dat"
    ctx.iosys.set_stripe_count(path, ctx.machine.n_osts)
    fd = yield from io.open(path, O_CREAT | O_WRONLY | O_SYNC)
    io.region("write")
    for i in range(nrec):
        yield from io.pwrite(fd, rec, i * rec)
    yield from io.close(fd)
    return nrec * rec


def _wl_checkpoint(
    ctx, nfiles: int = 24, rec_mib: float = 1.0,
    directory: Optional[str] = None,
):
    """Checkpoint-class victim: open/write/close per snapshot file.  The
    loop gives the victim a large ensemble of *both* namespace ops and
    write-through data ops, so either an MDS storm or a bandwidth hog
    next door shows up as a slow interval in its own trace.  Files go
    under ``directory`` (default ``/scratch/<job name>``)."""
    io = ctx.io
    rec = int(rec_mib * MiB)
    if directory is None:
        directory = f"/scratch/{ctx.job.name}"
    total = 0
    for i in range(nfiles):
        path = f"{directory}/ckpt{ctx.rank}_{i}.dat"
        fd = yield from io.open(path, O_CREAT | O_WRONLY | O_SYNC)
        io.region("write")
        yield from io.pwrite(fd, rec, 0)
        yield from io.close(fd)
        total += rec
    return total


def _wl_idle(ctx, nops: int = 4, pause: float = 0.5):
    """Nearly-idle co-tenant (negative control): a trickle of small
    writes separated by think time."""
    io = ctx.io
    path = f"/scratch/{ctx.job.name}/log{ctx.rank}.dat"
    fd = yield from io.open(path, O_CREAT | O_WRONLY)
    for i in range(nops):
        yield from io.pwrite(fd, 4096, i * 4096)
        yield ctx.engine.timeout(pause)
    yield from io.close(fd)
    return nops * 4096


def shared_write(
    ctx, path: str, nrec: int, rec: int, stripe_count: int,
    fence: bool = False,
):
    """Shared-file (N-1) record writer: rank 0 creates the file striped
    over ``stripe_count`` OSTs, every rank meets at a barrier, then each
    writes its own contiguous block of ``nrec`` records of ``rec`` bytes.
    ``fence`` adds a barrier before and after the writes, so every rank
    starts and ends its block together (a streaming saturation test)."""
    io = ctx.io
    if ctx.rank == 0 and ctx.iosys.lookup(path) is None:
        ctx.iosys.set_stripe_count(path, stripe_count)
        fd = yield from io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from io.open(path, O_CREAT | O_RDWR)
    if fence:
        yield from ctx.comm.barrier()
    base = ctx.rank * nrec * rec
    for j in range(nrec):
        yield from io.pwrite(fd, rec, base + j * rec)
    if fence:
        yield from ctx.comm.barrier()
    yield from io.close(fd)
    return None


def fpt_write_read(
    ctx, base: str, nrec: int, wsize: int, rsize: int, stripe_count: int
):
    """File-per-task writer/reader: each rank writes ``nrec`` records of
    ``wsize`` bytes to ``<base>.<rank>`` (striped over ``stripe_count``
    OSTs), meets the others at a barrier, then reads the same bytes back
    in records of ``rsize``."""
    io = ctx.io
    path = f"{base}.{ctx.rank:04d}"
    ctx.iosys.set_stripe_count(path, stripe_count)
    fd = yield from io.open(path, O_CREAT | O_RDWR)
    io.region("write")
    for j in range(nrec):
        yield from io.pwrite(fd, wsize, j * wsize)
    yield from ctx.comm.barrier()
    io.region("read")
    for j in range(nrec * wsize // rsize):
        yield from io.pread(fd, rsize, j * rsize)
    yield from io.close(fd)
    return None


#: workload name -> rank function
WORKLOADS: Dict[str, Callable] = {
    "ior": _wl_ior,
    "madbench": _wl_madbench,
    "gcrm": _wl_gcrm,
    "checkpoint": _wl_checkpoint,
    "mds-storm": _wl_mds_storm,
    "bandwidth-hog": _wl_bandwidth_hog,
    "idle": _wl_idle,
}


def _resolve_workload(workload: Union[str, Callable]) -> Callable:
    if callable(workload):
        return workload
    fn = WORKLOADS.get(workload)
    if fn is None:
        raise ValueError(
            f"unknown workload {workload!r}; choose from "
            f"{', '.join(sorted(WORKLOADS))}"
        )
    return fn


def _workload_name(workload: Union[str, Callable]) -> str:
    if callable(workload):
        return getattr(workload, "__name__", "custom")
    return str(workload)


# ---------------------------------------------------------------------------
# jobs and arrival processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantJob:
    """One job in the facility mix.

    ``workload`` is a name from :data:`WORKLOADS` or a rank-function
    generator; ``params`` are its keyword arguments.  ``arrival`` is the
    admission time in simulated seconds (0 = present at boot).
    """

    name: str
    workload: Union[str, Callable]
    ntasks: int
    arrival: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.ntasks < 1:
            raise ValueError(f"job {self.name!r}: ntasks must be >= 1")
        if self.arrival < 0:
            raise ValueError(f"job {self.name!r}: arrival must be >= 0")


class PoissonArrivals:
    """Deterministic-seed Poisson arrival process (exponential gaps).

    ``times(n)`` returns the first ``n`` arrival times; for a fixed seed
    the sequence is a stable prefix (asking for more jobs never perturbs
    the earlier arrivals)."""

    kind = "poisson"

    def __init__(self, rate: float, seed: int = 0, start: float = 0.0):
        if rate <= 0:
            raise ValueError(f"poisson rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        self.start = float(start)

    def times(self, n: int) -> List[float]:
        if n <= 0:
            return []
        gen = RngStreams(self.seed).stream("scheduler/poisson")
        gaps = gen.exponential(1.0 / self.rate, size=n)
        return [float(t) for t in self.start + np.cumsum(gaps)]


class BurstArrivals:
    """Burst trains: ``size`` jobs admitted together every ``gap``
    seconds (the coordinated-campaign pattern of production schedulers)."""

    kind = "burst"

    def __init__(self, size: int, gap: float, start: float = 0.0):
        if size < 1:
            raise ValueError(f"burst size must be >= 1, got {size}")
        if gap < 0:
            raise ValueError(f"burst gap must be >= 0, got {gap}")
        self.size = int(size)
        self.gap = float(gap)
        self.start = float(start)

    def times(self, n: int) -> List[float]:
        return [
            self.start + (i // self.size) * self.gap for i in range(max(n, 0))
        ]


class TraceArrivals:
    """Declarative trace replay: admission times taken verbatim from a
    recorded (or hand-written) schedule."""

    kind = "trace"

    def __init__(self, times: Sequence[float]):
        ts = [float(t) for t in times]
        if any(t < 0 for t in ts):
            raise ValueError("trace arrival times must be >= 0")
        self._times = sorted(ts)

    def times(self, n: int) -> List[float]:
        if n > len(self._times):
            raise ValueError(
                f"trace supplies {len(self._times)} arrivals but {n} jobs "
                f"were scheduled"
            )
        return list(self._times[:n])


def assign_arrivals(
    jobs: Sequence[TenantJob], arrivals
) -> Tuple[TenantJob, ...]:
    """Stamp each job's admission time from an arrival process, in order."""
    ts = arrivals.times(len(jobs))
    return tuple(
        replace(job, arrival=float(t)) for job, t in zip(jobs, ts)
    )


# ---------------------------------------------------------------------------
# CLI spec parsing
# ---------------------------------------------------------------------------


def parse_tenant_spec(spec: str) -> TenantJob:
    """Parse ``NAME=WORKLOAD:NTASKS[@ARRIVAL]`` into a :class:`TenantJob`."""
    shape = "expected NAME=WORKLOAD:NTASKS[@ARRIVAL] (e.g. vic=ior:4@0)"
    if "=" not in spec:
        raise ValueError(f"bad tenant spec {spec!r}: {shape}")
    name, rest = spec.split("=", 1)
    if not name:
        raise ValueError(f"bad tenant spec {spec!r}: empty tenant name")
    arrival = 0.0
    if "@" in rest:
        rest, at_s = rest.rsplit("@", 1)
        try:
            arrival = float(at_s)
        except ValueError:
            raise ValueError(
                f"bad tenant spec {spec!r}: arrival {at_s!r} is not a number"
            ) from None
        if arrival < 0:
            raise ValueError(
                f"bad tenant spec {spec!r}: arrival must be >= 0"
            )
    parts = rest.split(":")
    if len(parts) != 2:
        raise ValueError(f"bad tenant spec {spec!r}: {shape}")
    workload, ntasks_s = parts
    if workload not in WORKLOADS:
        raise ValueError(
            f"bad tenant spec {spec!r}: unknown workload {workload!r}; "
            f"choose from {', '.join(sorted(WORKLOADS))}"
        )
    try:
        ntasks = int(ntasks_s)
    except ValueError:
        raise ValueError(
            f"bad tenant spec {spec!r}: ntasks {ntasks_s!r} is not an integer"
        ) from None
    if ntasks < 1:
        raise ValueError(f"bad tenant spec {spec!r}: ntasks must be >= 1")
    return TenantJob(
        name=name, workload=workload, ntasks=ntasks, arrival=arrival
    )


def parse_arrival_spec(spec: str):
    """Parse ``poisson:RATE`` / ``burst:SIZE:GAP`` / ``trace:T0,T1,...``."""
    shape = "expected poisson:RATE, burst:SIZE:GAP, or trace:T0,T1,..."
    kind, _, rest = spec.partition(":")
    if kind == "poisson":
        try:
            rate = float(rest)
        except ValueError:
            raise ValueError(
                f"bad --arrival spec {spec!r}: rate {rest!r} is not a number"
            ) from None
        if rate <= 0:
            raise ValueError(
                f"bad --arrival spec {spec!r}: rate must be > 0"
            )
        return PoissonArrivals(rate)
    if kind == "burst":
        parts = rest.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad --arrival spec {spec!r}: {shape}")
        try:
            size = int(parts[0])
            gap = float(parts[1])
        except ValueError:
            raise ValueError(
                f"bad --arrival spec {spec!r}: SIZE must be an integer and "
                f"GAP a number"
            ) from None
        if size < 1 or gap < 0:
            raise ValueError(
                f"bad --arrival spec {spec!r}: need SIZE >= 1 and GAP >= 0"
            )
        return BurstArrivals(size, gap)
    if kind == "trace":
        if not rest:
            raise ValueError(f"bad --arrival spec {spec!r}: {shape}")
        try:
            ts = [float(t) for t in rest.split(",")]
        except ValueError:
            raise ValueError(
                f"bad --arrival spec {spec!r}: arrival times must be numbers"
            ) from None
        if any(t < 0 for t in ts):
            raise ValueError(
                f"bad --arrival spec {spec!r}: arrival times must be >= 0"
            )
        return TraceArrivals(ts)
    raise ValueError(f"bad --arrival spec {spec!r}: {shape}")


# ---------------------------------------------------------------------------
# the facility
# ---------------------------------------------------------------------------


@dataclass
class JobResult:
    """One admitted job's outcome."""

    name: str
    tenant: int
    workload: str
    ntasks: int
    t_start: float
    t_end: float
    trace: Trace
    per_rank: List[Any]
    collector: Any  # IpmCollector (kept loose: ipm imports iosys)

    @property
    def elapsed(self) -> float:
        return self.t_end - self.t_start


@dataclass
class FacilityResult:
    """Everything an experiment needs from one facility run.

    Exposes the same ``trace`` / ``total_bytes`` / ``elapsed`` /
    ``telemetry`` surface as :class:`~repro.apps.harness.AppResult`, so
    the golden-trace digests apply unchanged."""

    machine: MachineConfig
    iosys: IoSystem
    jobs: List[JobResult]
    elapsed: float
    telemetry: Optional[TelemetryTimeline] = None

    @property
    def trace(self) -> Trace:
        merged = Trace()
        for jr in self.jobs:
            merged.extend(jr.trace)
        return merged

    @property
    def total_bytes(self) -> int:
        return sum(jr.trace.total_bytes for jr in self.jobs)

    def job(self, name: str) -> JobResult:
        for jr in self.jobs:
            if jr.name == name:
                return jr
        raise KeyError(f"no job named {name!r}")


class Facility:
    """One shared machine running a mix of tenant jobs.

    Jobs get disjoint node-aligned task blocks on a single
    :class:`~repro.iosys.posix.IoSystem`; each job runs its ranks under a
    private communicator and its own IPM collector.  With two or more
    jobs, every node is tagged with its tenant id (job index + 1), the
    telemetry collector starts attributing per-tenant counters, and the
    arbiter's cross-file OST sharing turns on.  With exactly one job all
    of that stays off and the run is byte-identical to the solo harness.
    """

    def __init__(
        self,
        machine: MachineConfig,
        jobs: Sequence[TenantJob],
        seed: int = 0,
    ):
        jobs = tuple(jobs)
        if not jobs:
            raise ValueError("a facility needs at least one job")
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate job names: {sorted(names)}")
        self._rank_fns = [_resolve_workload(j.workload) for j in jobs]
        self.machine = machine
        self.jobs = jobs
        self.seed = int(seed)
        self.engine = Engine(sanitize=machine.sanitize)
        self.rng = RngStreams(seed)
        # disjoint node-aligned task blocks: tenants never share a node
        tpn = machine.tasks_per_node
        self._bases: List[int] = []
        base = 0
        for job in jobs:
            self._bases.append(base)
            base += -(-job.ntasks // tpn) * tpn
        total = self._bases[-1] + jobs[-1].ntasks
        self.iosys = IoSystem(
            self.engine,
            machine,
            ntasks=total,
            rng=self.rng,
        )
        # deferred import: repro.ipm.interceptor itself imports this
        # package for PosixIo, so a module-level import would be circular
        from ..ipm.interceptor import IpmCollector, _rank_handles

        self._collectors = [IpmCollector() for _ in jobs]
        self._shared = len(jobs) >= 2
        if self._shared:
            self.iosys.arbiter.enable_cross_file_sharing()
            for idx, job in enumerate(jobs):
                tenant = idx + 1
                for t in range(job.ntasks):
                    self.iosys.set_node_tenant(
                        self.iosys.node_of(self._bases[idx] + t), tenant
                    )
                if self.iosys.telemetry is not None:
                    self.iosys.telemetry.register_tenant(tenant, job.name)
        # one private COMM_WORLD per job, all on the shared engine;
        # building them schedules no event and draws no RNG
        self._worlds: List[World] = []
        for idx, job in enumerate(jobs):
            world = World(
                job.ntasks, self.engine, machine.interconnect,
                name=f"comm_{job.name}",
            )
            world.set_extras_factory(partial(
                _rank_handles, self.iosys, self._collectors[idx],
                self._bases[idx], job=job, tenant=self.tenant_of(idx),
            ))
            self._worlds.append(world)
        self._ran = False

    def tenant_of(self, idx: int) -> int:
        """Tenant id of job ``idx``: 1-based on a shared machine so 0
        stays the loud "unattributed" bucket; 0 on a solo run."""
        return idx + 1 if self._shared else 0

    # -- admission ---------------------------------------------------------
    def _spawn(self, idx: int) -> List[Process]:
        return self._worlds[idx].spawn(
            self._rank_fns[idx], **self.jobs[idx].params
        )

    def _admit(self, idx: int, procs: List[Process]):
        """Admission process for a job arriving after boot; the job's
        rank processes are appended to ``procs``.

        With the self-healing control plane on, admission defers while
        the machine is saturated (facility backpressure): the job waits
        in the queue, rechecking every ``heal_admit_recheck`` seconds,
        and is admitted gracefully once pressure drains below the
        hysteresis exit."""
        yield self.engine.timeout_until(self.jobs[idx].arrival)
        health = self.iosys.health
        if health is not None and health.saturated:
            health.note_deferred()
            while health.saturated:
                yield self.engine.timeout(
                    self.machine.heal_admit_recheck
                )
        procs += self._spawn(idx)
        yield self.engine.all_of(procs)
        return None

    # -- run ---------------------------------------------------------------
    def run(self) -> FacilityResult:
        if self._ran:
            raise RuntimeError("facility already ran")
        self._ran = True
        start = self.engine.now
        procs: List[List[Process]] = [[] for _ in self.jobs]
        admissions = []
        for idx, job in enumerate(self.jobs):
            if job.arrival > 0:
                admissions.append(
                    self.engine.process(
                        self._admit(idx, procs[idx]),
                        name=f"job{idx}:{job.name}",
                    )
                )
            else:
                # boot-time jobs spawn inline, in job order, exactly like
                # World.run -- creation order is the engine's tiebreak
                procs[idx] = self._spawn(idx)
        self.engine.run()
        check_finished([p for ranks in procs for p in ranks] + admissions)
        tel = self.iosys.telemetry
        job_results: List[JobResult] = []
        for idx, job in enumerate(self.jobs):
            t0 = self._worlds[idx].t_start
            t1 = self._worlds[idx].t_end
            tenant = self.tenant_of(idx)
            if tel is not None and self._shared:
                tel.record_job(
                    tenant, job.name, _workload_name(job.workload), t0, t1
                )
            job_results.append(
                JobResult(
                    name=job.name,
                    tenant=tenant,
                    workload=_workload_name(job.workload),
                    ntasks=job.ntasks,
                    t_start=t0,
                    t_end=t1,
                    trace=self._collectors[idx].trace,
                    per_rank=[p.value for p in procs[idx]],
                    collector=self._collectors[idx],
                )
            )
        elapsed = max(jr.t_end for jr in job_results) - start
        if self.engine.sanitize:
            self.engine.assert_race_free()
        if self.iosys.health is not None:
            self.iosys.health.detach()
        return FacilityResult(
            machine=self.machine,
            iosys=self.iosys,
            jobs=job_results,
            elapsed=elapsed,
            telemetry=self.iosys.telemetry_timeline(),
        )
