"""Differential tests of the ensemble statistics against scipy.

The package computes its six ensemble statistics with NumPy alone
(``ensembles/distribution.py``, ``modes.py``, ``compare.py``).  scipy
is the reference here and only here: the differential tests skip when
it is not installed.  Hypothesis draws lognormal, multimodal, tied and
near-constant samples.  The tolerances are fixed:

- skewness, kurtosis, the two-sample KS statistic, and the peak indices
  and prominences of ``find_peaks(prominence=...)`` on the same density
  are bit-equal;
- Gaussian-KDE grid values and D'Agostino-Pearson p-values agree within
  ``rtol=1e-9`` and have the same zero/non-zero pattern.  Both sum or
  exponentiate in a different order (and with a different ``exp``)
  than scipy, so they cannot be bit-equal.  Values below the smallest
  normal float carry fewer than 52 significant bits, so there only the
  zero pattern is compared.

scipy's KDE divides samples and grid points by the bandwidth h before
subtracting them, which loses eps * max|x| / h of every scaled distance.
On near-constant samples that is its own error, far above 1e-9 (4e-8
for a spread of 1e-9 of the mean), so there the KDE is compared only
with a term-by-term extended-precision sum, which it also meets
everywhere else.

``test_runtime_never_imports_scipy`` runs figures 1, 2 and 4 in an
interpreter where ``import scipy`` fails, and checks that between them
they reach every kernel above.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ensembles.compare import _ks_statistic
from repro.ensembles.distribution import (
    EmpiricalDistribution,
    _gaussian_kde,
    _normaltest_pvalue,
    _standard_moments,
)
from repro.ensembles.modes import _find_peaks

RTOL = 1e-9
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny

SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


@st.composite
def samples(draw, min_size: int = 20, max_size: int = 600) -> np.ndarray:
    """A sorted sample of one of four shapes."""
    kind = draw(st.sampled_from(
        ["lognormal", "multimodal", "tied", "near_constant"]))
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lognormal":
        x = rng.lognormal(draw(st.floats(-6.0, 6.0)),
                          draw(st.floats(0.02, 2.5)), n)
    elif kind == "multimodal":
        # harmonic-like modes T/k, as in figure 1, with random widths
        fundamental = draw(st.floats(0.01, 1e4))
        ks = np.array(draw(st.lists(st.integers(1, 8), min_size=2,
                                    max_size=4, unique=True)))
        centers = fundamental / ks
        width = draw(st.floats(1e-4, 0.3))
        which = rng.integers(0, len(ks), n)
        x = np.abs(rng.normal(centers[which], width * centers[which]))
    elif kind == "tied":
        step = draw(st.floats(1e-3, 1e3))
        x = draw(st.floats(0.0, 1e3)) + step * rng.integers(
            0, draw(st.integers(2, 6)), n)
    else:
        center = draw(st.floats(1e-3, 1e6))
        # scipy 1.10 calls a spread below 1e-15 of the mean zero, later
        # releases one below 2.2e-16: the references differ in between
        rel = draw(st.sampled_from([0.0, 1e-14, 1e-12, 1e-9, 1e-6]))
        x = center * (1 + rel * rng.integers(-3, 4, n))
    return np.sort(x)


def same_bits(ours: float, ref: float) -> bool:
    return (np.isnan(ours) and np.isnan(ref)) or \
        np.float64(ours).tobytes() == np.float64(ref).tobytes()


def assert_close(ours, ref, zeros: bool = True) -> None:
    """rtol on normal floats, the zero pattern everywhere."""
    ours, ref = np.atleast_1d(ours), np.atleast_1d(ref)
    if zeros:
        np.testing.assert_array_equal(ours == 0, ref == 0)
    normal = np.abs(ref) >= TINY
    np.testing.assert_allclose(ours[normal], ref[normal], rtol=RTOL, atol=0)


# -- bit-equal kernels -------------------------------------------------------


@SETTINGS
@given(x=samples(min_size=4))
def test_skew_and_kurtosis_are_bit_equal(scipy_stats, x):
    g1, b2 = _standard_moments(x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref_g1 = float(scipy_stats.skew(x))
        ref_b2 = float(scipy_stats.kurtosis(x, fisher=False))
        ref_excess = float(scipy_stats.kurtosis(x))
    assert same_bits(g1, ref_g1), (g1, ref_g1)
    assert same_bits(b2, ref_b2), (b2, ref_b2)
    moments = EmpiricalDistribution(x).moments()
    if moments.skewness != 0.0:  # 0.0: the degenerate-sample guard
        assert same_bits(moments.skewness, ref_g1)
        assert same_bits(moments.kurtosis, ref_excess)


@SETTINGS
@given(a=samples(min_size=1, max_size=300),
       b=samples(min_size=1, max_size=300),
       overlap=st.booleans())
def test_ks_statistic_is_bit_equal(scipy_stats, a, b, overlap):
    if overlap:  # shared values: ties across the two samples
        b = np.sort(np.concatenate([b, a[::3]]))
    ours = _ks_statistic(a, b)
    assert same_bits(ours, float(scipy_stats.ks_2samp(a, b).statistic))
    assert same_bits(_ks_statistic(b, a), ours)


def check_peaks(f: np.ndarray, min_prominence: float) -> None:
    from scipy import signal

    peaks, prominences = _find_peaks(f, min_prominence)
    ref_peaks, props = signal.find_peaks(f, prominence=min_prominence)
    np.testing.assert_array_equal(peaks, ref_peaks)
    assert prominences.tobytes() == props["prominences"].tobytes()


@SETTINGS
@given(x=samples(), bandwidth=st.sampled_from([None, 0.05, 0.15, 0.5]),
       rel=st.sampled_from([0.0, 0.01, 0.05, 0.08, 0.1, 0.5]))
def test_peaks_of_a_density_are_bit_equal(scipy_stats, x, bandwidth, rel):
    _t, f = EmpiricalDistribution(x).pdf_grid(512, bandwidth=bandwidth)
    check_peaks(f, rel * f.max())


@SETTINGS
@given(f=st.lists(st.integers(0, 4), max_size=40),
       min_prominence=st.integers(0, 4))
def test_peaks_with_plateaus_and_edges_are_bit_equal(
    scipy_stats, f, min_prominence
):
    check_peaks(np.array(f, dtype=float), float(min_prominence))


# -- kernels within rtol -----------------------------------------------------


def extended_kde(x: np.ndarray, t: np.ndarray, h: float) -> np.ndarray:
    """The Gaussian kernel sum in long double, term by term."""
    x, t, h = x.astype(np.longdouble), t.astype(np.longdouble), np.longdouble(h)
    z = (x[:, None] - t[None, :]) / h
    total = np.exp(-z * z / 2).sum(axis=0)
    return (total / (np.sqrt(2 * np.longdouble(np.pi)) * h * len(x))
            ).astype(float)


@SETTINGS
@given(x=samples(min_size=2), bandwidth=st.sampled_from([None, 0.15, 0.7]))
def test_kde_grid_within_rtol(scipy_stats, x, bandwidth):
    if x[-1] - x[0] <= 1e-12 * max(abs(x[-1]), 1.0):
        return  # pdf_grid's degenerate branch: no KDE
    t, f = EmpiricalDistribution(x).pdf_grid(256, bandwidth=bandwidth)
    h = x.std(ddof=1) * (len(x) ** -0.2 if bandwidth is None else bandwidth)
    # an extended sum underflows later, so compare values, not zeros
    assert_close(f, extended_kde(x, t, h), zeros=False)
    # scipy's own error: eps * max|x| / h per scaled distance, times the
    # kernel's reach |z| < 40
    if 40 * EPS * np.abs(x).max() / h < RTOL / 10:
        assert_close(f, scipy_stats.gaussian_kde(x, bw_method=bandwidth)(t))


def test_kde_blocks_cover_every_sample(scipy_stats, monkeypatch):
    """A block boundary inside the sample changes nothing but rounding."""
    import repro.ensembles.distribution as distribution

    x = np.sort(np.random.default_rng(7).lognormal(0.0, 0.6, 1001))
    t = np.linspace(x[0], x[-1], 64)
    whole = _gaussian_kde(x, t, None)
    monkeypatch.setattr(distribution, "_KDE_BLOCK", 64 * 10)
    assert_close(_gaussian_kde(x, t, None), whole)
    assert_close(whole, scipy_stats.gaussian_kde(x)(t))


@SETTINGS
@given(x=samples())
def test_normaltest_pvalue_within_rtol(scipy_stats, x):
    if not x.std() > 0:
        return  # gaussianity() does not run the test there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = float(scipy_stats.normaltest(x).pvalue)
    ours = _normaltest_pvalue(x)
    assert np.isnan(ours) == np.isnan(ref), (ours, ref)
    if not np.isnan(ref):
        assert_close(ours, ref)
        assert EmpiricalDistribution(x).gaussianity() == ours


# -- the runtime needs no scipy ----------------------------------------------

_NO_SCIPY = textwrap.dedent("""
    import sys
    sys.modules["scipy"] = None  # any import of scipy now fails

    import repro, repro.cli, repro.experiments, repro.store, repro.sweep
    from repro.ensembles import compare, distribution, modes

    calls = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        setattr(module, name, wrapper)

    counted(distribution, "_standard_moments")
    counted(distribution, "_gaussian_kde")
    counted(distribution, "_normaltest_pvalue")
    counted(modes, "_find_peaks")
    counted(compare, "_ks_statistic")

    for name in ("fig1", "fig2", "fig4"):
        repro.experiments.ALL_EXPERIMENTS[name].run(scale="tiny")
    assert not [m for m in sys.modules if m.startswith("scipy.")]
    print(sorted(calls))
""")


def test_runtime_never_imports_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == str(sorted([
        "_find_peaks", "_gaussian_kde", "_ks_statistic",
        "_normaltest_pvalue", "_standard_moments",
    ]))
