"""Unit tests for modes, LLN, progress, timeseries, tracevis, compare."""

import numpy as np
import pytest

from repro.ensembles.compare import compare_ensembles, match_modes
from repro.ensembles.distribution import EmpiricalDistribution
from repro.ensembles.lln import narrowing_report, per_task_totals, predict_sum
from repro.ensembles.modes import Mode, detect_modes, harmonics
from repro.ensembles.progress import deterioration_trend, phase_progress
from repro.ensembles.timeseries import aggregate_rate, plateaus
from repro.ensembles.tracevis import render, trace_diagram
from repro.ipm.events import Trace, TraceEvent


def trimodal(seed=0, n=1500):
    rng = np.random.default_rng(seed)
    return EmpiricalDistribution(
        np.concatenate(
            [
                rng.normal(8, 0.4, n // 5),
                rng.normal(16, 0.8, 2 * n // 5),
                rng.normal(32, 1.2, 2 * n // 5),
            ]
        )
    )


def mk_event(rank, op, size, t, dur, phase=""):
    return TraceEvent(
        rank=rank, op=op, path="/f", fd=3, offset=0, size=size,
        t_start=t, duration=dur, phase=phase,
    )


class TestModes:
    def test_unimodal_single_mode(self):
        d = EmpiricalDistribution(np.random.default_rng(0).normal(10, 1, 800))
        modes = detect_modes(d)
        assert len(modes) == 1
        assert modes[0].location == pytest.approx(10, abs=0.5)

    def test_trimodal_found_with_weights(self):
        modes = detect_modes(trimodal())
        assert len(modes) == 3
        locs = [m.location for m in modes]
        assert locs == sorted(locs)
        assert sum(m.weight for m in modes) == pytest.approx(1.0, abs=0.1)
        # heaviest mass in the slow modes
        assert modes[0].weight < modes[2].weight

    def test_harmonics_recognised(self):
        h = harmonics(detect_modes(trimodal()))
        assert h is not None and h.is_harmonic
        assert h.fundamental == pytest.approx(32, abs=1.5)
        assert set(h.harmonic_numbers) == {1, 2, 4}

    def test_non_harmonic_rejected(self):
        rng = np.random.default_rng(1)
        d = EmpiricalDistribution(
            np.concatenate([rng.normal(10, 0.3, 500), rng.normal(17, 0.3, 500)])
        )
        h = harmonics(detect_modes(d))
        assert h is not None and not h.is_harmonic

    def test_single_mode_no_harmonics(self):
        d = EmpiricalDistribution(np.random.default_rng(2).normal(5, 1, 300))
        assert harmonics(detect_modes(d)) is None

    def test_harmonics_tolerance(self):
        modes = [
            Mode(location=10.5, height=1, weight=0.5, prominence=1),
            Mode(location=32.0, height=1, weight=0.5, prominence=1),
        ]
        assert harmonics(modes, tolerance=0.05).is_harmonic  # 32/10.5 ~ 3.05
        assert not harmonics(modes, tolerance=0.001).is_harmonic


class TestLln:
    def test_predict_sum_identities(self):
        d = EmpiricalDistribution(np.random.default_rng(0).gamma(2, 2, 3000))
        m = d.moments()
        p = predict_sum(d, 9)
        assert p.mean == pytest.approx(9 * m.mean)
        assert p.std == pytest.approx(3 * m.std)
        assert p.cv == pytest.approx(m.cv / 3)

    def test_predict_sum_worst_case_mc(self):
        d = EmpiricalDistribution(np.random.default_rng(1).exponential(1, 2000))
        p = predict_sum(d, 4, n_tasks_for_worst=[64], seed=7)
        # worst of 64 sums of 4 exponentials: comfortably above the mean
        assert p.expected_worst_of[64] > p.mean
        assert p.expected_worst_of[64] < 4 * p.mean

    def test_predict_sum_invalid_k(self):
        d = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ValueError):
            predict_sum(d, 0)

    def test_per_task_totals_from_trace(self):
        tr = Trace()
        tr.append(mk_event(0, "write", 10, 0, 1.0))
        tr.append(mk_event(0, "write", 10, 2, 2.0))
        tr.append(mk_event(1, "write", 10, 0, 5.0))
        d = per_task_totals(tr, nranks=2)
        assert sorted(d.samples) == [3.0, 5.0]

    def test_narrowing_report_tracks_sqrt_k(self):
        rng = np.random.default_rng(3)
        base = rng.gamma(2, 1, 4000)
        ensembles = {
            k: EmpiricalDistribution(
                rng.choice(base / k, size=(2000, k)).sum(axis=1)
            )
            for k in (1, 4, 16)
        }
        rows = narrowing_report(ensembles)
        assert [r["k"] for r in rows] == [1, 4, 16]
        for r in rows:
            assert r["cv_rel"] == pytest.approx(r["cv_rel_lln"], rel=0.3)

    def test_narrowing_report_empty(self):
        assert narrowing_report({}) == []


class TestProgress:
    def make_trace(self):
        tr = Trace()
        # phase A: quick; phase B: slow tail
        for i in range(10):
            tr.append(mk_event(i, "read", 10, 0.0, 1.0 + 0.1 * i, phase="A"))
        for i in range(10):
            tr.append(mk_event(i, "read", 10, 20.0, 1.0 + 2.0 * i, phase="B"))
        return tr

    def test_curves_fraction_reaches_one(self):
        curves = phase_progress(self.make_trace())
        for c in curves.values():
            assert c.fraction[-1] == pytest.approx(1.0)
            assert np.all(np.diff(c.times) >= 0)

    def test_time_is_relative_to_phase_start(self):
        curves = phase_progress(self.make_trace())
        assert curves["B"].times[0] == pytest.approx(1.0)  # first B op done

    def test_fraction_at(self):
        curves = phase_progress(self.make_trace())
        c = curves["A"]
        assert c.fraction_at(0.0) == 0.0
        assert c.fraction_at(100.0) == 1.0
        assert 0.0 < c.fraction_at(1.5) < 1.0

    def test_t_half_ordering(self):
        curves = phase_progress(self.make_trace())
        assert curves["A"].t_half < curves["B"].t_half

    def test_deterioration_trend(self):
        curves = phase_progress(self.make_trace())
        tq, mono = deterioration_trend([curves["A"], curves["B"]])
        assert mono == 1.0
        assert tq[1] > tq[0]
        tq, mono = deterioration_trend([curves["B"], curves["A"]])
        assert mono == -1.0

    def test_empty_inputs(self):
        tq, mono = deterioration_trend([])
        assert len(tq) == 0 and mono == 0.0
        assert phase_progress(Trace()) == {}

    def test_phase_selection(self):
        curves = phase_progress(self.make_trace(), phases=["B"])
        assert set(curves) == {"B"}


class TestTimeseries:
    def test_total_bytes_conserved(self):
        tr = Trace()
        tr.append(mk_event(0, "write", 1000, 0.0, 4.0))
        tr.append(mk_event(1, "write", 500, 1.0, 2.0))
        curve = aggregate_rate(tr, n_bins=64)
        assert curve.total_bytes == pytest.approx(1500, rel=1e-6)

    def test_constant_rate_flat_curve(self):
        tr = Trace()
        tr.append(mk_event(0, "write", 1000, 0.0, 10.0))
        curve = aggregate_rate(tr, n_bins=10)
        assert np.allclose(curve.rate, 100.0)
        assert curve.sustained() == pytest.approx(100.0)
        assert curve.peak == pytest.approx(100.0)

    def test_overlap_sums_rates(self):
        tr = Trace()
        tr.append(mk_event(0, "write", 100, 0.0, 10.0))
        tr.append(mk_event(1, "write", 100, 0.0, 10.0))
        curve = aggregate_rate(tr, n_bins=5)
        assert np.allclose(curve.rate, 20.0)

    def test_empty_trace(self):
        curve = aggregate_rate(Trace())
        assert curve.total_bytes == 0.0

    def test_metadata_ops_excluded(self):
        tr = Trace()
        tr.append(mk_event(0, "open", 0, 0.0, 1.0))
        tr.append(mk_event(0, "write", 100, 0.0, 1.0))
        curve = aggregate_rate(tr, n_bins=4)
        assert curve.total_bytes == pytest.approx(100)

    def test_plateaus_found(self):
        tr = Trace()
        # 60 units/s for 10 s, then 10 units/s for 30 s
        tr.append(mk_event(0, "write", 600, 0.0, 10.0))
        tr.append(mk_event(0, "write", 300, 10.0, 30.0))
        levels = plateaus(aggregate_rate(tr, n_bins=80), n_levels=2)
        assert len(levels) == 2
        assert levels[0] == pytest.approx(60, rel=0.3)
        assert levels[1] == pytest.approx(10, rel=0.3)


class TestTracevis:
    def make_trace(self, nranks=8):
        tr = Trace()
        for r in range(nranks):
            tr.append(mk_event(r, "write", 100, 0.0, 1.0 + r))
            tr.append(mk_event(r, "read", 100, 10.0, 0.5))
        tr.append(mk_event(0, "open", 0, 12.0, 0.1))
        tr.append(mk_event(0, "lseek", 0, 12.5, 0.0))
        return tr

    def test_diagram_extracts_bars(self):
        d = trace_diagram(self.make_trace())
        kinds = set(d.kinds.tolist())
        assert kinds == {"write", "read", "meta"}
        assert d.nranks == 8
        # lseek excluded
        assert len(d.kinds) == 17

    def test_busy_fraction_in_unit_range(self):
        d = trace_diagram(self.make_trace())
        assert 0.0 < d.busy_fraction() < 1.0

    def test_render_shape_and_symbols(self):
        d = trace_diagram(self.make_trace())
        text = render(d, width=60, height=4, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 4 + 3  # title + axis + rows + legend
        body = "\n".join(lines[2:-1])
        assert "#" in body and "r" in body

    def test_render_folds_ranks(self):
        d = trace_diagram(self.make_trace(nranks=100))
        text = render(d, width=40, height=10)
        assert "100 ranks folded to 10 rows" in text

    def test_render_empty(self):
        assert render(trace_diagram(Trace())) == "(empty trace)"

    def test_render_validates_dims(self):
        d = trace_diagram(self.make_trace())
        with pytest.raises(ValueError):
            render(d, width=5)


class TestCompare:
    def test_same_experiment_reproducible(self):
        a, b = trimodal(seed=0), trimodal(seed=1)
        cmp = compare_ensembles(a, b)
        assert cmp.is_reproducible()
        assert cmp.unmatched_modes == 0
        assert len(cmp.mode_pairs) == 3

    def test_different_distributions_flagged(self):
        rng = np.random.default_rng(5)
        a = trimodal(seed=0)
        b = EmpiricalDistribution(rng.normal(20, 5, 1000))
        assert not compare_ensembles(a, b).is_reproducible()

    def test_match_modes_greedy(self):
        mk = lambda loc: Mode(location=loc, height=1, weight=0.3, prominence=1)
        pairs, unmatched = match_modes(
            [mk(8), mk(16), mk(32)], [mk(8.5), mk(15), mk(60)]
        )
        assert len(pairs) == 2
        assert unmatched == 2  # 32 unmatched on one side, 60 on the other

    def test_moment_diffs_reported(self):
        a, b = trimodal(seed=0), trimodal(seed=2)
        cmp = compare_ensembles(a, b)
        assert cmp.mean_rel_diff < 0.05
        assert cmp.std_rel_diff < 0.1
