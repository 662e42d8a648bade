"""Tests: phase segmentation of unlabelled traces."""

import numpy as np

from repro.apps.ior import IorConfig, run_ior
from repro.ensembles.segmentation import segment_by_gaps, strip_labels
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

