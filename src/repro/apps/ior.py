"""The Interleaved-Or-Random (IOR) micro-benchmark.

"IOR is a parametrized benchmark that performs I/O operations for a
defined file size, transaction size, concurrency, I/O-interface, etc."

The configuration mirrors the paper's experiments:

- Figure 1: 1024 tasks, each writing 512 MB to a unique offset within a
  shared file in a *single* ``write()`` call followed by a barrier,
  repeated 5 times ("5 phases of I/O").
- Figure 2: the same 512 MB split into k = 2/4/8 successive ``write()``
  calls (256/128/64 MB) "with no barrier until all 512 MB has been
  written".

An *experiment* is a choice of parameters; a *run* is one execution of it
(Section III's terminology) -- :func:`run_ior` performs one run and
returns the traced result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..iosys.machine import MachineConfig, MiB
from ..mpi.runtime import RankContext
from .harness import AppResult, SimJob, require_positive

__all__ = ["IorConfig", "run_ior"]


@dataclass
class IorConfig:
    """One IOR experiment (the paper's sense of 'experiment')."""

    ntasks: int = 1024
    #: bytes each task writes per repetition
    block_size: int = 512 * MiB
    #: bytes per write() call; block_size/transfer_size calls per rep
    transfer_size: int = 512 * MiB
    #: repetitions, each ended by a barrier ("5 phases of I/O")
    repetitions: int = 5
    #: barrier between individual transfers inside a repetition?  The
    #: Figure 2 experiments explicitly do NOT barrier between the k calls.
    barrier_per_transfer: bool = False
    #: read the data back after writing (IOR -r)
    read_back: bool = False
    #: transfer-order within a block: 'sequential' or 'random' (the
    #: *Interleaved-Or-Random* of the benchmark's name; IOR -z)
    access: str = "sequential"
    #: simulated compute between repetitions (application think time;
    #: makes barrier phases separable in the timeline)
    compute_time: float = 0.0
    stripe_count: int = 48
    path: str = "/scratch/ior.dat"
    machine: MachineConfig = field(default_factory=MachineConfig.franklin)
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive(self, "ntasks", "transfer_size", "repetitions")
        if self.block_size % self.transfer_size != 0:
            raise ValueError("transfer_size must divide block_size")
        if self.access not in ("sequential", "random"):
            raise ValueError(f"bad access mode {self.access!r}")

    @property
    def k(self) -> int:
        """Transfers per repetition (the k of the LLN analysis)."""
        return self.block_size // self.transfer_size

    @property
    def fair_share_rate(self) -> float:
        """The per-task fair share R the paper reasons with."""
        file_bw = min(
            self.machine.fs_bw,
            self.stripe_count * self.machine.fs_bw / self.machine.n_osts,
        )
        return file_bw / self.ntasks


def _ior_rank(ctx: RankContext, cfg: IorConfig):
    from ..iosys.posix import O_CREAT, O_RDWR

    io = ctx.io
    if ctx.rank == 0 and ctx.iosys.lookup(cfg.path) is None:
        ctx.iosys.set_stripe_count(cfg.path, cfg.stripe_count)
        fd = yield from io.open(cfg.path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
    else:
        yield from ctx.comm.barrier()
        fd = yield from io.open(cfg.path, O_CREAT | O_RDWR)
    yield from ctx.comm.barrier()

    def transfer_order(rep: int):
        order = list(range(cfg.k))
        if cfg.access == "random":
            stream = ctx.iosys.rng.stream(f"ior/order/{ctx.rank}/{rep}")
            stream.shuffle(order)
        return order

    for rep in range(cfg.repetitions):
        if cfg.compute_time > 0 and rep > 0:
            yield ctx.engine.timeout(cfg.compute_time)
        io.region(f"write{rep}")
        base = (rep * ctx.comm.size + ctx.rank) * cfg.block_size
        for i in transfer_order(rep):
            yield from io.pwrite(
                fd, cfg.transfer_size, base + i * cfg.transfer_size
            )
            if cfg.barrier_per_transfer:
                yield from ctx.comm.barrier()
        yield from ctx.comm.barrier()

    if cfg.read_back:
        for rep in range(cfg.repetitions):
            io.region(f"read{rep}")
            base = (rep * ctx.comm.size + ctx.rank) * cfg.block_size
            for i in transfer_order(rep):
                yield from io.pread(
                    fd, cfg.transfer_size, base + i * cfg.transfer_size
                )
            yield from ctx.comm.barrier()

    io.region("")
    yield from io.close(fd)
    return None


def run_ior(cfg: IorConfig, seed: Optional[int] = None) -> AppResult:
    """Execute one run of the experiment; returns the traced result.

    ``result.meta['data_rate']`` is IOR's reported rate: total bytes over
    the wallclock of the data phases, "determined by the slowest I/O
    operation amongst all the tasks".
    """
    job = SimJob(
        cfg.machine,
        cfg.ntasks,
        seed=cfg.seed if seed is None else seed,
    )
    result = job.run(_ior_rank, cfg)
    writes = result.trace.writes()
    span = writes.span
    result.meta["config"] = cfg
    result.meta["data_rate"] = writes.total_bytes / span if span > 0 else 0.0
    result.meta["fair_share_rate"] = cfg.fair_share_rate
    return result
