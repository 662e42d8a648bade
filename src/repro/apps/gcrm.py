"""The GCRM I/O kernel: geodesic-grid climate output through H5Part.

Baseline (Figure 6a-c): 10,240 tasks write to one shared file "an I/O
pattern with three writes of a single 1.6 MB record, each followed by a
barrier, then three writes of six 1.6 MB records, followed by another
barrier", via H5Part on HDF5.

Three progressive optimizations, each a config switch:

1. ``io_tasks=80`` -- collective buffering "stage two only": the kernel
   runs with 80 tasks, each issuing 10240/80 = 128x as many write calls;
   "the number, size, and alignment of the write calls remained unchanged
   ... as did the total amount of data written" (Figure 6d-f).
2. ``alignment=1 MiB`` -- records padded and aligned to Lustre stripe
   boundaries (Figure 6g-i).
3. ``metadata_aggregation=True`` -- rank-0 metadata deferred to close and
   written as ~1 MB transfers (Figure 6j-l).

Beyond the paper: ``cb_mode="twophase"`` runs FULL two-phase collective
buffering at the original job width -- every logical task ships its
records to its group's aggregator over the interconnect (stage one),
and the aggregator writes its group's slabs as one coalesced transfer
per record (stage two).  The paper only evaluated stage two; the
complete scheme pays MPI shipping but writes far larger extents
(``bench_ablation_gcrm_cb`` compares the two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..iosys.machine import MachineConfig, MiB
from ..mpi.runtime import RankContext
from .harness import AppResult, SimJob, require_positive
from .h5part import H5PartFile

__all__ = ["GcrmConfig", "run_gcrm"]


@dataclass
class GcrmConfig:
    """One GCRM I/O-kernel experiment."""

    #: logical simulation tasks (the data decomposition)
    ntasks: int = 10240
    #: tasks actually performing I/O (collective-buffering stage two);
    #: None = every logical task writes (the baseline)
    io_tasks: Optional[int] = None
    #: 'stage2' (the paper's test: run the kernel with io_tasks ranks) or
    #: 'twophase' (full CB: all ranks run, data ships to aggregators)
    cb_mode: str = "stage2"
    #: one GCRM record: "1.6 MB" (not stripe-aligned by construction)
    record_bytes: int = 1677722  # 1.6 * 2^20, rounded to whole bytes
    #: single-record variables (surface fields): one record per task/step
    single_record_vars: int = 3
    #: multi-record variables (3D fields over vertical levels)
    multi_record_vars: int = 3
    records_per_multi_var: int = 6
    timesteps: int = 1
    #: H5Pset_alignment analogue; None = packed (the baseline)
    alignment: Optional[int] = None
    metadata_aggregation: bool = False
    stripe_count: int = 48
    path: str = "/scratch/gcrm.h5"
    machine: MachineConfig = field(default_factory=MachineConfig.franklin)
    #: effective cost of one unaggregated HDF5 metadata transaction
    meta_txn_cost: float = 0.2
    #: slabs covered by one metadata transaction (chunk-index density)
    slabs_per_meta_txn: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cb_mode not in ("stage2", "twophase"):
            raise ValueError(f"bad cb_mode {self.cb_mode!r}")
        require_positive(self, "ntasks", "slabs_per_meta_txn")
        if self.io_tasks is not None:
            require_positive(self, "io_tasks")
            if self.ntasks % self.io_tasks != 0:
                raise ValueError("io_tasks must divide ntasks")
        if self.cb_mode == "twophase" and self.io_tasks is None:
            raise ValueError("twophase mode needs io_tasks")

    @property
    def writer_count(self) -> int:
        if self.cb_mode == "twophase":
            return self.ntasks  # everyone runs; only aggregators write
        return self.io_tasks if self.io_tasks is not None else self.ntasks

    @property
    def records_multiplier(self) -> int:
        """How many logical tasks' records each writer carries."""
        return self.ntasks // self.writer_count

    @property
    def total_bytes(self) -> int:
        per_task = self.record_bytes * (
            self.single_record_vars
            + self.multi_record_vars * self.records_per_multi_var
        )
        return per_task * self.ntasks * self.timesteps

    @property
    def fair_share_rate(self) -> float:
        """Per-logical-task fair share (the paper's ~1.6 MB/s figure)."""
        file_bw = self.stripe_count * self.machine.fs_bw / self.machine.n_osts
        return min(file_bw, self.machine.fs_bw) / self.ntasks


def _gcrm_twophase_rank(ctx: RankContext, cfg: GcrmConfig):
    """Full two-phase collective buffering at original job width.

    Stage one: each group's records ship to the group aggregator over the
    interconnect.  Stage two: the aggregator writes its group's slabs --
    contiguous ranks share a record's slab run, so each record becomes ONE
    coalesced transfer of ``group_size`` slabs.
    """
    from .h5part import H5PartFile as _H5PartFile

    io = ctx.io
    aggs = cfg.io_tasks
    group_size = cfg.ntasks // aggs
    f = yield from _H5PartFile.open(
        ctx,
        cfg.path,
        stripe_count=cfg.stripe_count,
        alignment=cfg.alignment,
        metadata_aggregation=cfg.metadata_aggregation,
        meta_txn_cost=cfg.meta_txn_cost,
        slabs_per_meta_txn=cfg.slabs_per_meta_txn,
    )
    # group by contiguous ranks so a record's group slabs coalesce
    color = ctx.rank // group_size
    agg_comm = yield from ctx.comm.split(color)
    is_agg = agg_comm.rank == 0
    inter = ctx.world.comm_world.interconnect

    def write_variable(name: str, records: int):
        ds = yield from f.h5.create_dataset(
            f"step0/{name}", cfg.record_bytes, records_per_rank=records
        )
        # stage one: ship the group's buffers to the aggregator
        yield from agg_comm.gather(
            (ctx.rank, records * cfg.record_bytes), root=0
        )
        if is_agg:
            ship = inter.collective_cost(
                group_size, records * cfg.record_bytes * (group_size - 1)
            )
            if ship > 0:
                yield ctx.engine.timeout(ship)
            # stage two: one coalesced write per record covering the
            # whole group's slab run
            first_member = color * group_size
            run_bytes = ds.slab_stride * group_size
            for record in range(records):
                offset = ds.slab_offset(first_member, record)
                yield from io.pwrite(f.h5.fd, run_bytes, offset)
        yield from f.h5.finish_step(ds)
        return None

    yield from f.set_step(0)
    for v in range(cfg.single_record_vars):
        io.region(f"s0_var{v}")
        yield from write_variable(f"grid_var{v}", 1)
    for v in range(cfg.multi_record_vars):
        io.region(f"s0_mvar{v}")
        yield from write_variable(
            f"level_var{v}", cfg.records_per_multi_var
        )
    io.region("")
    yield from f.close()
    return None


def _gcrm_rank(ctx: RankContext, cfg: GcrmConfig):
    io = ctx.io
    mult = cfg.records_multiplier
    f = yield from H5PartFile.open(
        ctx,
        cfg.path,
        stripe_count=cfg.stripe_count,
        alignment=cfg.alignment,
        metadata_aggregation=cfg.metadata_aggregation,
        meta_txn_cost=cfg.meta_txn_cost,
        slabs_per_meta_txn=cfg.slabs_per_meta_txn,
    )
    for step in range(cfg.timesteps):
        yield from f.set_step(step)
        for v in range(cfg.single_record_vars):
            io.region(f"s{step}_var{v}")
            yield from f.write_field(
                f"grid_var{v}",
                cfg.record_bytes,
                records_per_rank=1 * mult,
            )
        for v in range(cfg.multi_record_vars):
            io.region(f"s{step}_mvar{v}")
            yield from f.write_field(
                f"level_var{v}",
                cfg.record_bytes,
                records_per_rank=cfg.records_per_multi_var * mult,
            )
    io.region("")
    yield from f.close()
    return None


def run_gcrm(cfg: GcrmConfig, seed: Optional[int] = None) -> AppResult:
    """One run of the GCRM I/O kernel; returns the traced result.

    ``result.meta`` records the sustained write rate (total data bytes /
    wallclock) -- the number the paper tracks from 1 GB/s (baseline)
    toward the 2+ GB/s target -- and per-task rate statistics for the
    Figure 6 histograms.
    """
    twophase = cfg.cb_mode == "twophase" and cfg.io_tasks is not None
    job = SimJob(
        cfg.machine,
        cfg.writer_count,
        seed=cfg.seed if seed is None else seed,
        # stage-two aggregators are placed one per node; the baseline and
        # full two-phase runs pack four tasks per quad-core node
        placement=(
            "spread"
            if (cfg.io_tasks is not None and not twophase)
            else "packed"
        ),
    )
    result = job.run(_gcrm_twophase_rank if twophase else _gcrm_rank, cfg)
    result.meta["config"] = cfg
    data = result.trace.writes().filter(min_size=cfg.record_bytes // 2)
    result.meta["data_bytes"] = data.total_bytes
    result.meta["sustained_rate"] = (
        data.total_bytes / result.elapsed if result.elapsed > 0 else 0.0
    )
    result.meta["fair_share_rate"] = cfg.fair_share_rate
    return result
