"""The shared windowed regression kernel against direct per-window fits.

Each reference below masks one window at a time and fits it with
``wls_slope`` and ``newey_west_cov``, the way the rolling estimators did
before they shared ``series.windowed_wls``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsi_certify import estimate as est
from rsi_certify import series as ts
from rsi_certify.errors import (
    AllWindowsDegenerate,
    DegenerateRegressor,
    InsufficientWindow,
)

EXAMPLES = settings(max_examples=40, deadline=None)


def hac_slope_se(x, y, w, lag):
    """Slope, intercept and Newey-West slope SE of one window.  The design
    is centred on the weighted mean of x, which leaves the slope entry of
    the sandwich unchanged and keeps X'X well conditioned on windows where
    x barely moves."""
    slope, intercept, _, _ = ts.wls_slope(x, y, w)
    sq = np.sqrt(w)
    X = np.column_stack([sq, sq * (x - (w * x).sum() / w.sum())])
    cov = est.newey_west_cov(X, sq * (y - intercept - slope * x), lag)
    n_eff = w.sum() ** 2 / (w * w).sum()
    return slope, intercept, math.sqrt(cov[1, 1] * n_eff / max(n_eff - 2, 1))


def reference_rolling(t, i_vals, r_vals, window, lag, centers, min_points=5):
    """The per-window loop: (estimates as (t, slope, se), gaps)."""
    half = window / 2.0
    rows, gaps = [], []
    for c in t if centers is None else centers:
        mask = np.abs(t - c) <= half * (1 + 1e-9)
        n_win = int(mask.sum())
        if n_win < min_points:
            continue
        if np.any(r_vals[mask] <= 0):
            gaps.append((float(c), "nonpositive rate in window"))
            continue
        if np.any(i_vals[mask] <= 0):
            gaps.append((float(c), "nonpositive state in window"))
            continue
        lx, ly = np.log(i_vals[mask]), np.log(r_vals[mask])
        w = ts.epanechnikov((t[mask] - c) / half)
        sw = w.sum()
        if (w * (lx - (w * lx).sum() / sw) ** 2).sum() / sw < ts.VAR_LOG_TOL:
            gaps.append((float(c), "degenerate regressor"))
            continue
        eff_lag = min(est.auto_lag(n_win) if lag == "auto" else lag, n_win - 2)
        slope, _, se = hac_slope_se(lx, ly, w, eff_lag)
        rows.append((float(c), slope, se))
    return rows, gaps


@st.composite
def telemetry(draw):
    """A non-uniform grid with a log-linear rate on a random-walk state,
    optionally with nonpositive samples and flat (degenerate) stretches."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(8, 80))
    t = draw(st.sampled_from([0.0, 1.7e9])) \
        + np.cumsum(rng.uniform(0.2, 2.0, n))
    lx = np.cumsum(rng.normal(0.0, 0.3, n))
    if draw(st.booleans()):
        a = int(rng.integers(0, n - 5))
        lx[a:a + int(rng.integers(5, n - a + 1))] = lx[a]
    i_vals = np.exp(lx)
    r_vals = np.exp(1.5 * lx + rng.normal(0.0, 0.05, n))
    if draw(st.booleans()):
        r_vals[rng.integers(0, n, 2)] = -1.0
    if draw(st.booleans()):
        i_vals[rng.integers(0, n)] = 0.0
    window = draw(st.floats(0.05, 0.7)) * (t[-1] - t[0])
    return t, i_vals, r_vals, window


@EXAMPLES
@given(telemetry(),
       st.one_of(st.just("auto"), st.integers(0, 4)),
       st.booleans())
def test_rolling_elasticity_matches_per_window_reference(
        data, lag, explicit_centers):
    t, i_vals, r_vals, window = data
    centers = None
    if explicit_centers:
        centers = np.concatenate([t[::3], t[1::4] + window / 2,
                                  [t[0] - window, t[-1] + 1.0]])
    rows, gaps = reference_rolling(t, i_vals, r_vals, window, lag, centers)
    I = ts.TimeSeries("I", "nat", t, i_vals)
    Idot = ts.TimeSeries("Idot", "nat/s", t, r_vals)
    if not rows:
        with pytest.raises(AllWindowsDegenerate):
            est.rolling_elasticity(I, Idot, window, lag=lag, centers=centers)
        return
    prof = est.rolling_elasticity(I, Idot, window, lag=lag, centers=centers)
    assert prof.gaps == gaps
    assert [e.t for e in prof.estimates] == [r[0] for r in rows]
    ref_slope = np.array([r[1] for r in rows])
    ref_se = np.array([r[2] for r in rows])
    np.testing.assert_allclose(prof.values, ref_slope, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(prof.ses, ref_se, rtol=1e-7, atol=1e-12)


@EXAMPLES
@given(telemetry(), st.booleans())
def test_elasticity_and_log_slope_match_per_window_reference(data, weighted):
    t, i_vals, r_vals, window = data
    rng = np.random.default_rng(t.size)
    q = rng.uniform(0.0, 1.0, t.size) if weighted else None
    x = ts.TimeSeries("x", "u", t, np.abs(i_vals) + 0.5, q)
    y = ts.TimeSeries("y", "u", t, np.abs(r_vals) + 0.5)
    lx, ly = np.log(x.values), np.log(y.values)
    qual = x.effective_weights()
    half = window / 2.0
    ref = []
    for c in t:
        mask = np.abs(t - c) <= half * (1 + ts.GRID_RTOL)
        w = ts.epanechnikov((t[mask] - c) / half) * qual[mask]
        sw = w.sum()
        if mask.sum() < 3 or sw <= 0 \
                or (w * (lx[mask] - (w * lx[mask]).sum() / sw) ** 2).sum() \
                / sw < ts.VAR_LOG_TOL:
            continue
        slope, _, se, _ = ts.wls_slope(lx[mask], ly[mask], w)
        ref.append((c, slope, se))
    if ref:
        prof = ts.elasticity(y, x, window)
        assert prof.t.tolist() == [r[0] for r in ref]
        np.testing.assert_allclose(prof.slope, [r[1] for r in ref],
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(prof.se, [r[2] for r in ref],
                                   rtol=1e-7, atol=1e-12)
    else:
        with pytest.raises(DegenerateRegressor):
            ts.elasticity(y, x, window)

    c = float(t[t.size // 2])
    mask = np.abs(t - c) <= half * (1 + ts.GRID_RTOL)
    if mask.sum() < 3:
        with pytest.raises(InsufficientWindow):
            ts.log_slope(x, window, c)
        return
    pt = ts.log_slope(x, window, c)
    w = ts.epanechnikov((t[mask] - c) / half) * qual[mask]
    slope, _, se, _ = ts.wls_slope(t[mask] - c, lx[mask], w)
    assert pt.slope == pytest.approx(slope, rel=1e-9, abs=1e-12)
    assert pt.se == pytest.approx(se, rel=1e-7, abs=1e-15)


@EXAMPLES
@given(telemetry(), st.floats(1e-12, 1e-6))
def test_window_bounds_match_masks(data, rtol):
    t, _, _, window = data
    half = window / 2.0
    # centers on, between and exactly half a window from the samples put
    # samples right at the tolerance edge
    centers = np.concatenate([t, t + half, t - half, 0.5 * (t[1:] + t[:-1]),
                              [t[0] - 10 * window, t[-1] + 10 * window]])
    lo, hi = ts.window_bounds(t, centers, half, rtol=rtol)
    for c, a, b in zip(centers, lo, hi):
        idx = np.flatnonzero(np.abs(t - c) <= half * (1 + rtol))
        if idx.size:
            assert (a, b) == (idx[0], idx[-1] + 1)
        else:
            assert a == b


def test_hac_se_extended_precision_long_window():
    # one 4000-sample window on epoch-second timestamps, auto lag 9; the
    # reference repeats the closed form in extended precision
    rng = np.random.default_rng(7)
    n = 4001
    t = 1.7e9 + np.cumsum(rng.uniform(0.5, 1.5, n))
    x = np.log(1.0 + (t - t[0]) / 50.0)
    e = np.empty(n)
    e[0] = 0.0
    for i in range(1, n):
        e[i] = 0.6 * e[i - 1] + rng.normal(0.0, 1e-3)
    y = 1.3 * x + e
    c, half = float(t[n // 2]), float(t[-1] - t[0])
    lag = est.auto_lag(n)
    fit = ts.windowed_wls(t, x, y, [c], half, [0], [n], lags=np.array([lag]))

    ld = np.longdouble
    w, xl, yl = (a.astype(ld) for a in
                 (ts.epanechnikov((t - c) / half), x, y))
    sw = w.sum()
    dx = xl - (w * xl).sum() / sw
    dy = yl - (w * yl).sum() / sw
    sxx = (w * dx * dx).sum()
    b = (w * dx * dy).sum() / sxx
    g = w * dx * (dy - b * dx)
    meat = (g * g).sum()
    for ell in range(1, lag + 1):
        meat += 2 * (1 - ld(ell) / (lag + 1)) * (g[ell:] * g[:-ell]).sum()
    n_eff = sw * sw / (w * w).sum()
    se = np.sqrt(meat / (sxx * sxx) * n_eff / (n_eff - 2))
    assert float(abs(fit.slope[0] - b)) <= 1e-12 * abs(float(b))
    assert float(abs(fit.se[0] - se) / se) <= 1e-12
