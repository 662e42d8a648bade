"""Unit tests for the IOR / MADbench / GCRM workloads.

These verify the I/O *patterns* match what the paper describes -- counts,
sizes, offsets, region labels -- on tiny deterministic machines, plus the
headline behaviours at reduced scale.
"""

import numpy as np
import pytest

from repro.apps.gcrm import GcrmConfig, run_gcrm
from repro.apps.ior import IorConfig, run_ior
from repro.apps.madbench import MadbenchConfig, run_madbench
from repro.iosys.machine import MachineConfig, MiB


def tiny_machine(**over):
    params = dict(tasks_per_node=4, discipline_weights={4: 1.0})
    params.update(over)
    return MachineConfig.testbox(**params)


class TestIorPattern:
    def test_write_counts_and_sizes(self):
        cfg = IorConfig(
            ntasks=8,
            block_size=8 * MiB,
            transfer_size=2 * MiB,
            repetitions=3,
            stripe_count=4,
            machine=tiny_machine(),
        )
        res = run_ior(cfg)
        writes = res.trace.writes()
        assert len(writes) == 8 * 4 * 3  # tasks x k x reps
        assert set(writes.sizes.tolist()) == {2 * MiB}

    def test_offsets_unique_and_shared_file(self):
        cfg = IorConfig(
            ntasks=4, block_size=4 * MiB, transfer_size=4 * MiB,
            repetitions=2, stripe_count=4, machine=tiny_machine(),
        )
        res = run_ior(cfg)
        writes = res.trace.writes()
        assert len(set(writes.offsets.tolist())) == len(writes)
        assert set(writes.paths) == {cfg.path}

    def test_phase_labels_per_repetition(self):
        cfg = IorConfig(
            ntasks=2, block_size=MiB, transfer_size=MiB, repetitions=3,
            stripe_count=2, machine=tiny_machine(),
        )
        res = run_ior(cfg)
        assert set(res.trace.writes().phases) == {"write0", "write1", "write2"}

    def test_read_back_phase(self):
        cfg = IorConfig(
            ntasks=2, block_size=MiB, transfer_size=MiB, repetitions=2,
            read_back=True, stripe_count=2, machine=tiny_machine(),
        )
        res = run_ior(cfg)
        assert len(res.trace.reads()) == 4
        assert "read0" in res.trace.phase_names()

    def test_transfer_size_must_divide_block(self):
        with pytest.raises(ValueError):
            IorConfig(block_size=10 * MiB, transfer_size=3 * MiB)

    def test_k_property(self):
        cfg = IorConfig(
            ntasks=2, block_size=8 * MiB, transfer_size=2 * MiB,
            machine=tiny_machine(),
        )
        assert cfg.k == 4

    def test_reported_rate_positive_and_sane(self):
        cfg = IorConfig(
            ntasks=4, block_size=4 * MiB, transfer_size=4 * MiB,
            repetitions=2, stripe_count=4, machine=tiny_machine(),
        )
        res = run_ior(cfg)
        assert 0 < res.meta["data_rate"] <= cfg.machine.fs_bw * 100

    def test_determinism_same_seed(self):
        cfg = IorConfig(
            ntasks=4, block_size=4 * MiB, transfer_size=MiB,
            repetitions=2, stripe_count=4,
            machine=MachineConfig.testbox(noise_sigma=0.2, dirty_quota=0.0),
        )
        a = run_ior(cfg, seed=5)
        b = run_ior(cfg, seed=5)
        assert np.array_equal(a.trace.durations, b.trace.durations)
        c = run_ior(cfg, seed=6)
        assert not np.array_equal(a.trace.durations, c.trace.durations)


class TestMadbenchPattern:
    def make(self, **over):
        params = dict(
            ntasks=4,
            n_matrices=4,
            matrix_bytes=4 * MiB - 1000,
            stripe_count=4,
            machine=tiny_machine(),
        )
        params.update(over)
        return MadbenchConfig(**params)

    def test_op_counts_match_pattern(self):
        cfg = self.make()
        res = run_madbench(cfg)
        n, t = cfg.n_matrices, cfg.ntasks
        # S: n writes; W: n reads + n writes; C: n reads -- per task
        assert len(res.trace.writes()) == 2 * n * t
        assert len(res.trace.reads()) == 2 * n * t

    def test_matrix_slots_aligned_with_gap(self):
        cfg = self.make()
        assert cfg.slot_bytes == 4 * MiB  # rounded up to alignment
        assert cfg.slot_bytes > cfg.matrix_bytes  # the strided gap exists
        assert cfg.offset(1, 0) - cfg.offset(0, 0) == cfg.region_bytes
        assert cfg.offset(0, 1) - cfg.offset(0, 0) == cfg.slot_bytes

    def test_phase_regions_labelled(self):
        res = run_madbench(self.make())
        names = res.trace.phase_names()
        assert "S_write1" in names
        assert "W_read4" in names
        assert "C_read4" in names

    def test_middle_phase_pipeline_order(self):
        """The footnote: the middle phase begins with two reads and ends
        with two writes."""
        res = run_madbench(self.make(ntasks=1))
        w_ops = res.trace.filter(ops=("read", "write"))
        w_seq = [
            (p, o)
            for p, o in zip(w_ops.phases, w_ops.ops)
            if p.startswith("W_")
        ]
        assert [o for _p, o in w_seq[:2]] == ["read", "read"]
        assert [o for _p, o in w_seq[-2:]] == ["write", "write"]

    def test_exclusive_regions_per_task(self):
        cfg = self.make()
        res = run_madbench(cfg)
        writes = res.trace.writes()
        for rank in range(cfg.ntasks):
            lo = rank * cfg.region_bytes
            hi = lo + cfg.region_bytes
            offs = writes.filter(ranks=[rank]).offsets
            assert np.all((offs >= lo) & (offs < hi))

    def test_buggy_vs_patched_contrast_small(self):
        """The core result at reduced scale: the bug slows the job and the
        patch removes every degraded read."""
        machine = MachineConfig.franklin(
            dirty_quota=MiB, noise_sigma=0.0, tail_prob=0.0
        )
        cfg = self.make(
            ntasks=16,
            n_matrices=8,
            matrix_bytes=8 * MiB - 1000,
            stripe_count=4,
            machine=machine,
        )
        buggy = run_madbench(cfg)
        cfg_p = self.make(
            ntasks=16,
            n_matrices=8,
            matrix_bytes=8 * MiB - 1000,
            stripe_count=4,
            machine=machine.with_overrides(strided_readahead=False),
        )
        patched = run_madbench(cfg_p)
        assert buggy.meta["degraded_reads"] > 0
        assert patched.meta["degraded_reads"] == 0
        assert buggy.elapsed > 1.5 * patched.elapsed


class TestGcrmPattern:
    def make(self, **over):
        params = dict(
            ntasks=16,
            record_bytes=int(1.6 * MiB),
            stripe_count=4,
            machine=tiny_machine(),
            meta_txn_cost=0.0,
            slabs_per_meta_txn=8,
        )
        params.update(over)
        return GcrmConfig(**params)

    def test_record_counts(self):
        cfg = self.make()
        res = run_gcrm(cfg)
        data = res.trace.writes().filter(min_size=cfg.record_bytes // 2)
        # 3 single + 3 x 6 multi = 21 records per task
        assert len(data) == 21 * cfg.ntasks
        assert res.meta["data_bytes"] == 21 * cfg.ntasks * cfg.record_bytes

    def test_aggregated_writers_carry_all_records(self):
        cfg = self.make(io_tasks=4)
        res = run_gcrm(cfg)
        assert res.ntasks == 4
        data = res.trace.writes().filter(min_size=cfg.record_bytes // 2)
        assert len(data) == 21 * 16  # total records unchanged
        assert cfg.records_multiplier == 4

    def test_io_tasks_must_divide(self):
        with pytest.raises(ValueError):
            self.make(io_tasks=5)

    def test_alignment_pads_offsets(self):
        aligned = run_gcrm(self.make(alignment=1 * MiB))
        data = aligned.trace.writes().filter(min_size=MiB)
        assert np.all(data.offsets % MiB == 0)
        assert set(data.sizes.tolist()) == {2 * MiB}

    def test_baseline_offsets_unaligned(self):
        res = run_gcrm(self.make())
        data = res.trace.writes().filter(min_size=MiB)
        assert np.any(data.offsets % MiB != 0)

    def test_metadata_aggregation_removes_tiny_writes(self):
        base = run_gcrm(self.make(meta_txn_cost=0.01))
        agg = run_gcrm(self.make(meta_txn_cost=0.01, metadata_aggregation=True))
        tiny_base = base.trace.data_ops().filter(max_size=4096)
        tiny_agg = agg.trace.data_ops().filter(max_size=4096)
        assert len(tiny_agg) < len(tiny_base) / 2

    def test_fair_share_arithmetic(self):
        cfg = GcrmConfig(
            ntasks=10240, stripe_count=48, machine=MachineConfig.franklin()
        )
        # the paper's figure: ~1.6 MB/s per task
        assert cfg.fair_share_rate / MiB == pytest.approx(1.6, abs=0.1)

    def test_total_bytes_property(self):
        cfg = self.make()
        assert cfg.total_bytes == 21 * 16 * cfg.record_bytes
