"""Tests: phase segmentation of unlabelled traces."""

import numpy as np
import pytest

from repro.apps.ior import IorConfig, run_ior
from repro.apps.madbench import MadbenchConfig, run_madbench
from repro.ensembles.diagnose import diagnose
from repro.ensembles.segmentation import (
    segment_by_gaps,
    segment_by_generation,
    strip_labels,
)
from repro.ipm.events import Trace
from repro.iosys.machine import MachineConfig, MiB


def labelled_ior(reps=4):
    cfg = IorConfig(
        ntasks=16,
        block_size=8 * MiB,
        transfer_size=8 * MiB,
        repetitions=reps,
        compute_time=2.0,  # think time between phases: separable timeline
        stripe_count=4,
        machine=MachineConfig.testbox(
            dirty_quota=0.0, mds_latency=1e-4, discipline_weights={2: 1.0}
        ),
    )
    return run_ior(cfg)


class TestStripLabels:
    def test_labels_removed_rest_identical(self):
        res = labelled_ior()
        bare = strip_labels(res.trace)
        assert set(bare.phases) == {""}
        assert np.array_equal(bare.durations, res.trace.durations)
        assert list(bare.ops) == list(res.trace.ops)


class TestGapSegmentation:
    def test_recovers_barrier_phases(self):
        res = labelled_ior(reps=4)
        bare = strip_labels(res.trace)
        seg = segment_by_gaps(bare)
        writes = seg.writes()
        phases = writes.phase_names()
        assert len(phases) == 4
        # each recovered phase contains exactly one write per rank
        for p in phases:
            sub = writes.filter(phase=p)
            assert len(sub) == 16
            assert len(set(sub.ranks.tolist())) == 16

    def test_matches_true_labels(self):
        res = labelled_ior(reps=3)
        seg = segment_by_gaps(strip_labels(res.trace))
        # build the mapping recovered-phase -> set of true labels
        truth = res.trace.writes()
        recovered = seg.writes()
        for p in recovered.phase_names():
            idx = [i for i, ph in enumerate(recovered.phases) if ph == p]
            true_labels = set(truth.phases[idx])
            assert len(true_labels) == 1  # no phase mixing

    def test_explicit_min_gap(self):
        tr = Trace()
        for rank in range(4):
            tr.record(rank, "write", "/f", 3, 0, 100, 0.0, 1.0)
            tr.record(rank, "write", "/f", 3, 0, 100, 10.0, 1.0)
        seg = segment_by_gaps(tr, min_gap=5.0)
        assert len(seg.phase_names()) == 2
        seg1 = segment_by_gaps(tr, min_gap=50.0)
        assert len(seg1.phase_names()) == 1

    def test_empty_trace(self):
        assert len(segment_by_gaps(Trace())) == 0


class TestGenerationSegmentation:
    def test_per_rank_counters(self):
        tr = Trace()
        for rank in range(3):
            for i in range(4):
                tr.record(rank, "write", "/f", 3, 0, 10, float(i), 0.5)
        seg = segment_by_generation(tr)
        for g in range(1, 5):
            sub = seg.filter(phase=f"genW{g}")
            assert len(sub) == 3

    def test_reads_and_writes_counted_separately(self):
        tr = Trace()
        tr.record(0, "write", "/f", 3, 0, 10, 0.0, 0.1)
        tr.record(0, "read", "/f", 3, 0, 10, 1.0, 0.1)
        tr.record(0, "write", "/f", 3, 0, 10, 2.0, 0.1)
        seg = segment_by_generation(tr)
        assert list(seg.phases) == ["genW1", "genR1", "genW2"]

    def test_metadata_ops_unlabelled(self):
        tr = Trace()
        tr.record(0, "open", "/f", 3, 0, 0, 0.0, 0.1)
        tr.record(0, "write", "/f", 3, 0, 10, 1.0, 0.1)
        seg = segment_by_generation(tr)
        assert list(seg.phases) == ["", "genW1"]


class TestEndToEndUnlabelled:
    def test_madbench_deterioration_found_without_labels(self):
        """The full point: a raw (label-free) capture of the buggy
        MADbench run still yields the Figure 5a diagnosis after automatic
        generation segmentation."""
        machine = MachineConfig.franklin(
            dirty_quota=MiB, noise_sigma=0.0, tail_prob=0.0
        )
        cfg = MadbenchConfig(
            ntasks=16, n_matrices=8, matrix_bytes=8 * MiB - 1000,
            stripe_count=4, machine=machine,
        )
        res = run_madbench(cfg)
        bare = strip_labels(res.trace)
        seg = segment_by_generation(bare)
        findings = diagnose(seg, nranks=cfg.ntasks)
        assert "progressive-deterioration" in {f.code for f in findings}
