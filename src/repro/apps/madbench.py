"""MADbench: the out-of-core CMB matrix solver's I/O pattern.

Three phases over ``n_matrices`` (~300 MB each, per task), all I/O through
MPI-IO independent calls into one shared file, each task owning an
exclusive contiguous region "modulo an alignment parameter, which is 1 MB
in these experiments":

- **S** (generate):  8x ( write 300 MB )
- **W** (multiply):  8x ( seek, read 300 MB, seek, write 300 MB ) --
  with the pipelining footnote honoured: the phase "actually begins with
  two reads and ends with two writes".
- **C** (trace):     8x ( read 300 MB )

"All computation and communication has been effectively turned off, so we
can focus exclusively on the I/O component" -- likewise here: no compute
delays are inserted.

The 1 MB alignment of each matrix slot produces the small gap between
consecutive reads that the Lustre client recognises as a strided pattern
-- the trigger of the Section IV bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..iosys.machine import MachineConfig, MiB
from ..mpi.runtime import RankContext
from .harness import AppResult, SimJob, require_positive
from .mpiio import MpiFile

__all__ = ["MadbenchConfig", "run_madbench"]


@dataclass
class MadbenchConfig:
    ntasks: int = 256
    n_matrices: int = 8
    #: bytes of one matrix slice per task -- deliberately NOT a multiple of
    #: the alignment, so each aligned slot leaves a gap ("that produces a
    #: small gap between the end of each I/O region and the next")
    matrix_bytes: int = 300 * MiB - 517 * 1024
    alignment: int = 1 * MiB
    stripe_count: int = 16
    #: MADbench's UNIQUE I/O mode: one file per task instead of a shared
    #: file (trades extent-lock isolation for an MDS create storm)
    file_per_task: bool = False
    path: str = "/scratch/madbench.dat"
    machine: MachineConfig = field(default_factory=MachineConfig.franklin)
    seed: int = 0

    def __post_init__(self) -> None:
        require_positive(self, "ntasks", "n_matrices", "alignment")

    @property
    def slot_bytes(self) -> int:
        """Aligned size of one matrix slot."""
        a = self.alignment
        return ((self.matrix_bytes + a - 1) // a) * a

    @property
    def region_bytes(self) -> int:
        """One task's exclusive file region."""
        return self.slot_bytes * self.n_matrices

    def offset(self, rank: int, matrix: int) -> int:
        if self.file_per_task:
            return matrix * self.slot_bytes
        return rank * self.region_bytes + matrix * self.slot_bytes


def _madbench_rank(ctx: RankContext, cfg: MadbenchConfig):
    io = ctx.io
    if cfg.file_per_task:
        # UNIQUE mode: every task creates its own file; offsets restart at
        # zero within it
        from ..iosys.posix import O_CREAT, O_RDWR

        path = f"{cfg.path}.{ctx.rank}"
        ctx.iosys.set_stripe_count(path, cfg.stripe_count)
        fd = yield from io.open(path, O_CREAT | O_RDWR)
        yield from ctx.comm.barrier()
        f = MpiFile(ctx, path, fd)
    else:
        f = yield from MpiFile.open(
            ctx, cfg.path, stripe_count=cfg.stripe_count
        )
    n = cfg.n_matrices

    # S: write each matrix
    for i in range(n):
        io.region(f"S_write{i + 1}")
        yield from f.seek(cfg.offset(ctx.rank, i))
        yield from f.write(cfg.matrix_bytes)
        yield from ctx.comm.barrier()

    # W: seek/read/seek/write with a two-deep software pipeline: the phase
    # begins with two reads and ends with two writes (paper footnote).
    reads_done = 0
    writes_done = 0
    for _ in range(2):
        io.region(f"W_read{reads_done + 1}")
        yield from f.seek(cfg.offset(ctx.rank, reads_done))
        yield from f.read(cfg.matrix_bytes)
        reads_done += 1
    while writes_done < n:
        io.region(f"W_write{writes_done + 1}")
        yield from f.seek(cfg.offset(ctx.rank, writes_done))
        yield from f.write(cfg.matrix_bytes)
        writes_done += 1
        if reads_done < n:
            io.region(f"W_read{reads_done + 1}")
            yield from f.seek(cfg.offset(ctx.rank, reads_done))
            yield from f.read(cfg.matrix_bytes)
            reads_done += 1
        yield from ctx.comm.barrier()

    # C: read the result matrices back
    for i in range(n):
        io.region(f"C_read{i + 1}")
        yield from f.seek(cfg.offset(ctx.rank, i))
        yield from f.read(cfg.matrix_bytes)
        yield from ctx.comm.barrier()

    io.region("")
    yield from f.close()
    return None


def run_madbench(cfg: MadbenchConfig, seed: Optional[int] = None) -> AppResult:
    """One run of the MADbench I/O kernel; returns the traced result."""
    job = SimJob(
        cfg.machine,
        cfg.ntasks,
        seed=cfg.seed if seed is None else seed,
    )
    result = job.run(_madbench_rank, cfg)
    result.meta["config"] = cfg
    degraded = result.trace.reads().degraded_flags
    result.meta["degraded_reads"] = int(degraded.sum())
    return result
