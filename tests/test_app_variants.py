"""Tests for workload variants: IOR random access, MADbench unique files,
and the analysis front door."""

import numpy as np
import pytest

from repro.apps.ior import IorConfig, run_ior
from repro.apps.madbench import MadbenchConfig, run_madbench
from repro.ensembles.analysis import analyze, format_analysis
from repro.iosys.machine import MachineConfig, MiB


def tiny_machine(**over):
    params = dict(discipline_weights={4: 1.0})
    params.update(over)
    return MachineConfig.testbox(**params)


class TestIorRandomAccess:
    def cfg(self, access):
        return IorConfig(
            ntasks=4,
            block_size=16 * MiB,
            transfer_size=2 * MiB,
            repetitions=2,
            access=access,
            stripe_count=4,
            machine=tiny_machine(tasks_per_node=4),
        )

    def test_random_covers_same_offsets(self):
        seq = run_ior(self.cfg("sequential"))
        rnd = run_ior(self.cfg("random"))
        so = sorted(seq.trace.writes().offsets.tolist())
        ro = sorted(rnd.trace.writes().offsets.tolist())
        assert so == ro  # same extents, different order

    def test_random_order_differs(self):
        rnd = run_ior(self.cfg("random"))
        offs = rnd.trace.writes().filter(ranks=[0], phase="write0").offsets
        diffs = np.diff(offs)
        assert np.any(diffs != 2 * MiB)

    def test_random_order_deterministic_per_seed(self):
        a = run_ior(self.cfg("random"), seed=3)
        b = run_ior(self.cfg("random"), seed=3)
        assert np.array_equal(
            a.trace.writes().offsets, b.trace.writes().offsets
        )

    def test_random_classified_by_pattern_detector(self):
        from repro.ipm.patterns import detect_patterns

        rnd = run_ior(self.cfg("random"))
        det = detect_patterns(rnd.trace)
        kinds = {st.classification for st in det.all_streams()}
        assert "sequential" not in kinds

    def test_invalid_access_mode(self):
        with pytest.raises(ValueError):
            self.cfg("backwards")


class TestMadbenchUniqueFiles:
    def cfg(self, unique):
        return MadbenchConfig(
            ntasks=8,
            n_matrices=3,
            matrix_bytes=2 * MiB - 999,
            stripe_count=2,
            file_per_task=unique,
            machine=tiny_machine(mds_latency=1e-3),
        )

    def test_one_file_per_task(self):
        res = run_madbench(self.cfg(True))
        paths = set(res.trace.writes().paths)
        assert len(paths) == 8

    def test_offsets_restart_per_file(self):
        cfg = self.cfg(True)
        res = run_madbench(cfg)
        for rank in range(cfg.ntasks):
            offs = res.trace.writes().filter(ranks=[rank]).offsets
            assert offs.min() == 0

    def test_unique_mode_hits_mds_harder(self):
        shared = run_madbench(self.cfg(False))
        unique = run_madbench(self.cfg(True))
        assert (
            unique.iosys.mds.ops["open_create"]
            > shared.iosys.mds.ops["open_create"]
        )

    def test_shared_mode_single_file(self):
        res = run_madbench(self.cfg(False))
        assert len(set(res.trace.writes().paths)) == 1


class TestAnalysisFrontDoor:
    def test_analyze_produces_complete_report(self):
        cfg = IorConfig(
            ntasks=8,
            block_size=8 * MiB,
            transfer_size=2 * MiB,
            repetitions=2,
            stripe_count=4,
            machine=tiny_machine(tasks_per_node=4),
        )
        res = run_ior(cfg)
        report = analyze(
            res.trace,
            nranks=8,
            fair_share_rate=cfg.fair_share_rate,
            stripe_size=cfg.machine.stripe_size,
        )
        assert report.ntasks == 8
        assert report.n_events == len(res.trace)
        assert [op.label for op in report.ops] == ["write"]
        assert {p.phase for p in report.phases} == {"write0", "write1"}
        assert report.patterns.get("sequential") == 8
        assert report.sustained_rate > 0

    def test_format_analysis_sections(self):
        cfg = IorConfig(
            ntasks=4, block_size=4 * MiB, transfer_size=MiB,
            repetitions=2, stripe_count=4,
            machine=tiny_machine(tasks_per_node=4),
        )
        res = run_ior(cfg)
        text = format_analysis(analyze(res.trace))
        for section in ("per-op ensembles", "phases", "access patterns",
                        "findings"):
            assert section in text

    def test_analyze_empty_trace(self):
        from repro.ipm.events import Trace

        report = analyze(Trace(), nranks=0)
        assert report.n_events == 0
        assert report.ops == []
        assert "(none)" in format_analysis(report)
