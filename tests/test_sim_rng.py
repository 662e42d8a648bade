"""Unit tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_draws(self):
        a = RngStreams(7).stream("ost0").random(10)
        b = RngStreams(7).stream("ost0").random(10)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        r = RngStreams(7)
        a = r.stream("node0").random(10)
        b = r.stream("node1").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random(5)
        b = RngStreams(2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        r = RngStreams(0)
        assert r.stream("a") is r.stream("a")

    def test_creation_order_does_not_matter(self):
        r1 = RngStreams(5)
        r1.stream("aaa")
        x1 = r1.stream("bbb").random(4)
        r2 = RngStreams(5)
        x2 = r2.stream("bbb").random(4)  # no 'aaa' created first
        assert np.array_equal(x1, x2)

    def test_lognormal_factor_median_near_one(self):
        r = RngStreams(3)
        draws = np.array(
            [r.lognormal_factor("svc", sigma=0.3) for _ in range(4000)]
        )
        assert 0.9 < np.median(draws) < 1.1

    def test_lognormal_factor_capped(self):
        r = RngStreams(3)
        draws = [r.lognormal_factor("svc", sigma=2.0, cap=3.0) for _ in range(2000)]
        assert max(draws) <= 3.0

    def test_lognormal_zero_sigma_is_identity(self):
        assert RngStreams(0).lognormal_factor("x", 0.0) == 1.0

    def test_choice_weighted_respects_weights(self):
        r = RngStreams(11)
        picks = [
            r.choice_weighted("d", ["a", "b"], [0.9, 0.1]) for _ in range(2000)
        ]
        frac_a = picks.count("a") / len(picks)
        assert 0.85 < frac_a < 0.95

    def test_choice_weighted_single_option(self):
        r = RngStreams(0)
        assert r.choice_weighted("d", [42], [1.0]) == 42

    @pytest.mark.parametrize(
        "weights",
        [
            [0.35, 0.30, 0.35],
            [1.0],
            [0.0, 1.0],
            [2.0, 0.0, 1.0],
            [1e-9, 1.0, 1e9],
            [3, 1, 4, 1, 5, 9, 2, 6],
        ],
    )
    def test_choice_weighted_matches_generator_choice(self, weights):
        # the cached CDF must draw exactly what Generator.choice draws, and
        # consume exactly as much of the stream; a numpy release that
        # changes choice() fails here instead of shifting the goldens
        ours, ref = RngStreams(17), RngStreams(17)
        options = list(range(len(weights)))
        w = np.asarray(weights, dtype=float)
        p = w / w.sum()
        for _ in range(3000):
            want = int(ref.stream("d").choice(len(options), p=p))
            assert ours.choice_weighted("d", options, weights) == want
        assert (
            ours.stream("d").bit_generator.state
            == ref.stream("d").bit_generator.state
        )

    def test_choice_weighted_rejects_empty_options(self):
        with pytest.raises(ValueError, match="at least one option"):
            RngStreams(0).choice_weighted("d", [], [])

    def test_choice_weighted_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="2 options but 3 weights"):
            RngStreams(0).choice_weighted("d", [1, 2], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_choice_weighted_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RngStreams(0).choice_weighted("d", [1, 2], [1.0, bad])

    def test_choice_weighted_rejects_negative_weights(self):
        with pytest.raises(ValueError, match=">= 0"):
            RngStreams(0).choice_weighted("d", [1, 2], [1.5, -0.5])

    def test_choice_weighted_rejects_all_zero_weights(self):
        # numpy used to warn on 0/0, then fail on "probabilities contain NaN"
        with pytest.raises(ValueError, match="all be zero"):
            RngStreams(0).choice_weighted("d", [1, 2], [0.0, 0.0])

    def test_uniform_bounds(self):
        r = RngStreams(9)
        draws = [r.uniform("u", 2.0, 5.0) for _ in range(500)]
        assert all(2.0 <= d <= 5.0 for d in draws)

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
    def test_uniform_default_is_random(self, seed):
        # the OST tail test draws random() where it once drew uniform():
        # same values, same stream consumption, so the goldens stay put
        ours, ref = RngStreams(seed), RngStreams(seed)
        for _ in range(2000):
            assert ours.stream("t").random() == ref.stream("t").uniform()
        assert (
            ours.stream("t").bit_generator.state
            == ref.stream("t").bit_generator.state
        )
