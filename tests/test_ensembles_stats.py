"""Unit + property tests for distributions, histograms, and order stats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensembles.distribution import EmpiricalDistribution, trapezoid
from repro.ensembles.histogram import (
    linear_histogram,
    log_histogram,
    rate_histogram,
)
from repro.ensembles.order_stats import (
    expected_max,
    max_quantile,
    nth_order_density,
    predict_phase_time,
    step_sharpness,
)

MiB = 1024.0 * 1024.0

finite_samples = st.lists(
    st.floats(min_value=0.01, max_value=1000.0),
    min_size=2,
    max_size=100,
)


class TestEmpiricalDistribution:
    def test_moments_match_numpy(self):
        data = np.random.default_rng(0).gamma(2.0, 3.0, 1000)
        d = EmpiricalDistribution(data)
        m = d.moments()
        assert m.mean == pytest.approx(data.mean())
        assert m.std == pytest.approx(data.std(ddof=1))
        assert m.min == data.min() and m.max == data.max()
        assert m.cv == pytest.approx(m.std / m.mean)

    def test_rejects_empty_or_all_nan(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([])
        with pytest.raises(ValueError):
            EmpiricalDistribution([float("nan")])

    def test_nan_filtered(self):
        d = EmpiricalDistribution([1.0, float("nan"), 2.0])
        assert d.n == 2

    def test_cdf_boundaries(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert d.cdf(0.5) == 0.0
        assert d.cdf(2.0) == 0.5
        assert d.cdf(100.0) == 1.0

    def test_pdf_grid_integrates_to_one(self):
        d = EmpiricalDistribution(
            np.random.default_rng(1).normal(10, 2, 500)
        )
        t, f = d.pdf_grid()
        assert trapezoid(f, t) == pytest.approx(1.0, abs=0.02)

    def test_pdf_grid_degenerate_sample(self):
        d = EmpiricalDistribution([5.0] * 10)
        t, f = d.pdf_grid()
        assert np.all(np.isfinite(f))
        assert trapezoid(f, t) == pytest.approx(1.0, abs=0.05)

    def test_gaussianity_orders_shapes(self):
        rng = np.random.default_rng(2)
        gauss = EmpiricalDistribution(rng.normal(10, 1, 1000))
        bimodal = EmpiricalDistribution(
            np.concatenate([rng.normal(5, 0.3, 500), rng.normal(15, 0.3, 500)])
        )
        assert gauss.gaussianity() > bimodal.gaussianity()

    def test_tail_weight_flags_heavy_tail(self):
        rng = np.random.default_rng(3)
        light = EmpiricalDistribution(rng.normal(10, 1, 1000))
        heavy = EmpiricalDistribution(
            np.concatenate([rng.normal(10, 1, 990), rng.uniform(100, 500, 10)])
        )
        assert heavy.tail_weight(0.95) > 5.0
        assert light.tail_weight(0.95) < 2.0

    @settings(max_examples=100, deadline=None)
    @given(finite_samples)
    def test_property_cdf_monotone_in_01(self, values):
        d = EmpiricalDistribution(values)
        grid = np.linspace(min(values) - 1, max(values) + 1, 50)
        cdf = d.cdf(grid)
        assert np.all(np.diff(cdf) >= 0)
        assert np.all((cdf >= 0) & (cdf <= 1))
        assert d.cdf(max(values)) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(finite_samples)
    def test_property_quantile_within_range(self, values):
        d = EmpiricalDistribution(values)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            v = float(d.quantile(q))
            assert min(values) <= v <= max(values)


class TestHistograms:
    def test_linear_density_integrates_to_one(self):
        h = linear_histogram(np.random.default_rng(0).random(500), bins=20)
        assert np.sum(h.density() * h.widths) == pytest.approx(1.0)

    def test_cumulative_reaches_one(self):
        h = linear_histogram([1, 2, 3, 4, 5], bins=5)
        assert h.cumulative()[-1] == pytest.approx(1.0)

    def test_log_histogram_excludes_nonpositive(self):
        h = log_histogram([0.0, -1.0, 1.0, 10.0, 100.0])
        assert h.n == 3
        assert h.log_bins

    def test_log_histogram_empty_input(self):
        h = log_histogram([])
        assert h.n == 0

    def test_log_bins_per_decade(self):
        h = log_histogram([0.1, 1000.0], bins_per_decade=4, range_=(0.1, 1000.0))
        # 4 decades x 4 bins
        assert len(h.counts) == 16

    def test_rate_histogram_sec_per_mb(self):
        # one event: 2 MiB in 4 s -> 2 s/MB
        h = rate_histogram([2 * MiB], [4.0])
        assert h.n == 1
        idx = np.argmax(h.counts)
        assert h.edges[idx] <= 2.0 <= h.edges[idx + 1]

    def test_rate_histogram_alignment_check(self):
        with pytest.raises(ValueError):
            rate_histogram([1.0, 2.0], [1.0])

    def test_nonempty_trims(self):
        h = linear_histogram([5.0, 5.1], bins=10, range_=(0.0, 10.0))
        trimmed = h.nonempty()
        assert trimmed.counts.sum() == h.counts.sum()
        assert len(trimmed.counts) < len(h.counts)
        assert trimmed.counts[0] > 0 and trimmed.counts[-1] > 0

    def test_mismatched_edges_rejected(self):
        from repro.ensembles.histogram import HistogramResult

        with pytest.raises(ValueError):
            HistogramResult(edges=np.array([0, 1, 2]), counts=np.array([1]))

    @settings(max_examples=100, deadline=None)
    @given(finite_samples)
    def test_property_counts_conserved(self, values):
        h = linear_histogram(values, bins=16)
        assert h.n == len(values)
        hl = log_histogram(values)
        assert hl.n == len([v for v in values if v > 0])


class TestOrderStatistics:
    def test_expected_max_n1_is_mean(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert expected_max(d, 1) == pytest.approx(2.5)

    def test_expected_max_monotone_in_n(self):
        d = EmpiricalDistribution(
            np.random.default_rng(0).gamma(2, 2, 2000)
        )
        values = [expected_max(d, n) for n in (1, 4, 16, 64, 256)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_expected_max_bounded_by_sample_max(self):
        d = EmpiricalDistribution(np.random.default_rng(1).random(100))
        assert expected_max(d, 10**6) <= d.moments().max + 1e-12

    def test_expected_max_matches_monte_carlo(self):
        rng = np.random.default_rng(2)
        data = rng.exponential(1.0, 5000)
        d = EmpiricalDistribution(data)
        n = 32
        mc = np.max(
            rng.choice(data, size=(4000, n), replace=True), axis=1
        ).mean()
        assert expected_max(d, n) == pytest.approx(mc, rel=0.05)

    def test_nth_order_density_integrates_to_one(self):
        d = EmpiricalDistribution(np.random.default_rng(3).normal(10, 2, 500))
        t, fn = nth_order_density(d, 100)
        assert trapezoid(fn, t) == pytest.approx(1.0, abs=0.02)

    def test_nth_order_density_peak_in_right_tail(self):
        d = EmpiricalDistribution(np.random.default_rng(4).normal(10, 2, 2000))
        t, fn = nth_order_density(d, 1000)
        peak = t[np.argmax(fn)]
        assert peak > float(d.quantile(0.95))

    def test_max_quantile(self):
        d = EmpiricalDistribution(np.linspace(0, 1, 1001))
        # median of max of n uniforms ~ (1/2)^(1/n)
        assert max_quantile(d, 10, q=0.5) == pytest.approx(0.5 ** 0.1, abs=0.01)
        with pytest.raises(ValueError):
            max_quantile(d, 10, q=0.0)

    def test_predict_phase_time_alias(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0])
        assert predict_phase_time(d, 5) == expected_max(d, 5)

    def test_step_sharpness_decreases_with_n(self):
        d = EmpiricalDistribution(np.random.default_rng(5).normal(10, 2, 1000))
        s = [step_sharpness(d, n) for n in (2, 16, 256)]
        assert s[0] > s[1] > s[2]

    def test_invalid_n_rejected(self):
        d = EmpiricalDistribution([1.0, 2.0])
        with pytest.raises(ValueError):
            expected_max(d, 0)
        with pytest.raises(ValueError):
            nth_order_density(d, 0)

    @settings(max_examples=50, deadline=None)
    @given(finite_samples, st.integers(min_value=1, max_value=512))
    def test_property_expected_max_bounds(self, values, n):
        d = EmpiricalDistribution(values)
        em = expected_max(d, n)
        assert d.moments().mean - 1e-9 <= em <= max(values) + 1e-9
