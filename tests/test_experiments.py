"""Integration tests: every figure experiment reproduces the paper's shape.

These run the experiment drivers end to end at reduced scale ('tiny' for
the quick checks, 'small' for the headline claims) and assert the same
verdicts recorded at paper scale in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    fig1_ior_modes,
    fig2_lln,
    fig4_madbench,
    fig5_patch,
    fig6_gcrm,
    saturation,
)
from repro.experiments.runner import ExperimentResult, format_table


class TestFig1IorModes:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_ior_modes.run("small")

    def test_three_harmonic_modes(self, result):
        assert result.verdicts["three_modes"]
        assert result.verdicts["harmonic_structure"]

    def test_fundamental_is_fair_share_time(self, result):
        assert result.verdicts["fundamental_is_fair_share"]

    def test_runs_reproducible_in_distribution(self, result):
        assert result.verdicts["ensembles_reproducible"]
        assert result.summary["ks_between_runs"] < 0.15

    def test_initial_cache_plateau(self, result):
        assert result.verdicts["initial_plateau"]
        assert result.summary["peak_rate_GBps"] > result.summary["sustained_GBps"]

    def test_mode_locations_near_harmonics(self, result):
        locs = sorted(result.series["mode_locations"])
        t = result.summary["T_fair_s"]
        assert locs[-1] == pytest.approx(t, rel=0.25)
        assert locs[0] == pytest.approx(t / 4, rel=0.35)


class TestFig2Lln:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_lln.run("small")

    def test_distributions_narrow_with_k(self, result):
        assert result.verdicts["narrower_with_k"]

    def test_more_gaussian_with_k(self, result):
        assert result.verdicts["more_gaussian_with_k"]

    def test_rate_improves_with_k(self, result):
        assert result.verdicts["rate_improves"]
        assert result.verdicts["worst_case_improves"]
        # the paper saw ~16%; accept a generous band around it
        assert 3.0 < result.summary["speedup_k8_vs_k1_pct"] < 45.0

    def test_lln_sqrt_k_prediction(self, result):
        assert result.verdicts["lln_prediction_tracks"]


class TestFig4Madbench:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_madbench.run("small")

    def test_franklin_much_slower_than_jaguar(self, result):
        assert result.verdicts["franklin_much_slower"]
        assert result.summary["franklin_over_jaguar"] > 2.5

    def test_write_shapes_similar_read_shapes_differ(self, result):
        assert result.verdicts["write_hists_similar"]
        assert result.verdicts["franklin_reads_have_shoulder"]
        assert result.verdicts["jaguar_reads_modest"]

    def test_slow_reads_confined_to_middle_phase(self, result):
        assert result.verdicts["slow_reads_in_middle_phase"]

    def test_only_franklin_degrades(self, result):
        assert result.summary["franklin_degraded_reads"] > 0
        assert result.summary["jaguar_degraded_reads"] == 0

    def test_diagnosis_flags_shoulder(self, result):
        assert result.verdicts["diagnosed_shoulder"]


class TestFig5Patch:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5_patch.run("small")

    def test_reads_deteriorate_progressively_before_patch(self, result):
        assert result.verdicts["progressive_deterioration"]
        t90 = result.series["t90_per_phase"]
        assert t90[-1] > 2 * t90[0]

    def test_patch_removes_tail_and_degradation(self, result):
        assert result.verdicts["tail_removed"]
        assert result.verdicts["no_degraded_after"]
        assert result.verdicts["after_reads_modest"]

    def test_large_speedup(self, result):
        # paper: 4.2x
        assert result.verdicts["large_speedup"]
        assert result.summary["speedup"] > 3.0


class TestFig6Gcrm:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6_gcrm.run("small")

    def test_each_optimization_helps(self, result):
        assert result.verdicts["monotone_improvement"]

    def test_overall_speedup_over_4x(self, result):
        assert result.verdicts["big_overall_speedup"]
        assert result.summary["overall_speedup"] > 3.5

    def test_baseline_below_fair_share(self, result):
        assert result.verdicts["baseline_below_fair_share"]

    def test_collective_buffering_rate_jump(self, result):
        assert result.verdicts["cb_rate_jump"]

    def test_metadata_aggregation_removes_tiny_ops(self, result):
        assert result.verdicts["meta_events_removed"]

    def test_diagnosis_finds_root_causes(self, result):
        assert result.verdicts["diagnosed_rank0_serialization"]
        assert result.verdicts["diagnosed_unaligned"]


class TestSaturation:
    @pytest.fixture(scope="class")
    def result(self):
        return saturation.run("small")

    def test_rate_flattens(self, result):
        assert result.verdicts["saturates"]

    def test_few_tasks_suffice(self, result):
        assert result.verdicts["few_tasks_saturate"]

    def test_peak_near_fs_capability(self, result):
        assert result.verdicts["near_fs_bw"]


#: verdicts that do not hold at tiny scale, with the reason; each holds
#: at small and paper scale
_FALSE_AT_TINY = {
    # the tiny franklin read ensemble ramps up progressively instead of
    # forming a separate slow shoulder, so no shoulder check fires
    ("fig4", "franklin_reads_have_shoulder"): "no shoulder mode",
    ("fig4", "slow_reads_in_middle_phase"): "no shoulder mode",
    ("fig4", "diagnosed_shoulder"): "no shoulder mode",
    # with 3 group records per task no read is served degraded (0
    # reconstructions, every scheme's read tail equals plain's)
    ("erasure", "ec_tail_clipped"): "no degraded read",
    ("erasure", "ec_matches_mirror_tail"): "no degraded read",
    ("erasure", "ec_survives_heavy"): "no degraded read",
    ("erasure", "rebuild_located"): "no degraded read",
    ("erasure", "diagnosed"): "no degraded read",
    # the page cache absorbs the tiny shared-file writes, so the stall
    # window meets no RPC (0 retries, no transient finding) and the slow
    # OST leaves no client-side trace for the scan to indict
    ("telemetry", "stall_oracle_confirmed"): "stall meets no RPC",
    ("telemetry", "misattribution_contradicted"): "stall meets no RPC",
    ("telemetry", "slow_oracle_confirmed"): "slow OST unseen",
}


class TestTinyScaleSmoke:
    """Every experiment runs at tiny scale, produces the structural
    outputs (series + printable table), and keeps every verdict except
    the ones :data:`_FALSE_AT_TINY` names."""

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_runs_and_prints(self, name):
        module = ALL_EXPERIMENTS[name]
        out = module.run("tiny")
        assert isinstance(out, ExperimentResult)
        assert out.summary and out.verdicts
        text = module.main("tiny")
        assert "verdicts" in text
        for verdict, held in out.verdicts.items():
            reason = _FALSE_AT_TINY.get((name, verdict))
            # a listed verdict that starts to hold leaves the list
            assert held == (reason is None), (verdict, reason)


class TestRunnerHelpers:
    def test_format_table_rows(self):
        text = format_table(
            "t", [{"a": 1.0, "b": True}, {"a": 12345.6, "b": False}]
        )
        assert "yes" in text and "no" in text
        assert "12,346" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table("t", [])
