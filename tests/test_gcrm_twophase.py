"""Tests for full two-phase collective buffering in the GCRM kernel."""

import numpy as np
import pytest

from repro.apps.gcrm import GcrmConfig, run_gcrm
from repro.iosys.machine import MachineConfig, MiB


def cfg(**over):
    params = dict(
        ntasks=64,
        io_tasks=8,
        cb_mode="twophase",
        stripe_count=4,
        machine=MachineConfig.testbox(tasks_per_node=4),
        meta_txn_cost=0.0,
        slabs_per_meta_txn=64,
    )
    params.update(over)
    return GcrmConfig(**params)


class TestTwoPhaseConfig:
    def test_requires_io_tasks(self):
        with pytest.raises(ValueError, match="io_tasks"):
            cfg(io_tasks=None)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="cb_mode"):
            cfg(cb_mode="threephase")

    def test_writer_count_is_full_width(self):
        c = cfg()
        assert c.writer_count == 64  # everyone runs
        assert cfg(cb_mode="stage2").writer_count == 8


class TestTwoPhaseBehaviour:
    def test_only_aggregators_write_data(self):
        res = run_gcrm(cfg())
        c = cfg()
        data = res.trace.writes().filter(min_size=c.record_bytes)
        writers = set(data.ranks.tolist())
        # aggregators are the first rank of each contiguous group of 8
        assert writers == {g * 8 for g in range(8)}

    def test_records_coalesce_into_group_runs(self):
        c = cfg()
        res = run_gcrm(c)
        data = res.trace.writes().filter(min_size=c.record_bytes)
        group = 64 // 8
        # every data write covers the whole group's slab run
        assert set(data.sizes.tolist()) == {c.record_bytes * group}
        # 21 records per logical task -> 21 coalesced writes per aggregator
        assert len(data) == 21 * 8

    def test_total_bytes_conserved(self):
        c = cfg()
        res = run_gcrm(c)
        data = res.trace.writes().filter(min_size=c.record_bytes)
        assert data.total_bytes == c.total_bytes

    def test_alignment_pads_group_runs(self):
        c = cfg(alignment=1 * MiB)
        res = run_gcrm(c)
        data = res.trace.writes().filter(min_size=c.record_bytes)
        assert np.all(data.offsets % MiB == 0)

    def test_all_ranks_synchronise(self):
        res = run_gcrm(cfg())
        assert res.ntasks == 64
        assert res.per_rank == [None] * 64

    def test_interconnect_shipping_costs_time(self):
        """Stage one is not free: a slower interconnect slows the run."""
        from repro.apps.harness import SimJob
        from repro.apps.gcrm import _gcrm_twophase_rank
        from repro.mpi.comm import Interconnect

        c = cfg()

        def run_with(bandwidth):
            machine = c.machine.with_overrides(
                interconnect=Interconnect(latency=1e-6, bandwidth=bandwidth)
            )
            job = SimJob(machine, c.writer_count, seed=0)
            return job.run(_gcrm_twophase_rank, c).elapsed

        fast = run_with(10e9)
        slow = run_with(50e6)
        assert slow > fast * 1.5
