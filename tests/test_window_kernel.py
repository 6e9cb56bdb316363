"""The shared windowed regression kernel against direct per-window fits.

Each reference below masks one window at a time and fits it with
``wls_slope`` and ``newey_west_cov``, the way the rolling estimators did
before they shared ``series.windowed_wls``, or repeats the kernel's closed
forms in extended precision, the yardstick for its prefix-sum moments.
"""

import math
from unittest import mock

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


def check_elasticity_and_log_slope(t, i_vals, r_vals, window, weighted):
    """elasticity against wls_slope per window, and log_slope's window at
    the middle sample against wls_slope (slope) and extended_fits (se):
    on an exact fit the kernel's se is ~1e-31, and wls_slope's rounds to
    ~1e-15."""
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
    slope, _, _, _ = ts.wls_slope(t[mask] - c, lx[mask], w)
    lo, hi = np.flatnonzero(mask)[[0, -1]] + [0, 1]
    with np.errstate(invalid="ignore"):    # cond is 0/0 on an exact fit
        se = extended_fits(t, t, lx, [c], half, [lo], [hi], qual, None)[2, 0]
    assert pt.slope == pytest.approx(slope, rel=1e-9, abs=1e-12)
    assert pt.se == pytest.approx(se, rel=1e-7, abs=1e-15)


@EXAMPLES
@given(telemetry(), st.booleans())
def test_elasticity_and_log_slope_match_per_window_reference(data, weighted):
    check_elasticity_and_log_slope(*data, weighted)


def test_log_slope_of_an_exact_fit_matches_extended_precision():
    # a weighted 12-sample draw whose log_slope window holds 3 equal values:
    # the fit is exact, the kernel's se 3.8e-31, and wls_slope's 1.7e-15
    rng = np.random.default_rng(20)
    t = 1.53067973 + np.concatenate([[0.0],
                                     np.cumsum(rng.uniform(0.2, 2.0, 11))])
    lx = np.cumsum(rng.normal(0.0, 0.3, t.size))
    lx[4:] = math.log(3.59505345)
    r_vals = np.exp(1.5 * lx + rng.normal(0.0, 0.05, t.size))
    check_elasticity_and_log_slope(t, np.exp(lx), r_vals, 1.31728162680339,
                                   True)


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


def extended_fits(t, x, y, centers, half, lo, hi, quality, lags):
    """Per window, in extended precision from the kernel's own weights: slope,
    var_x and se as the kernel's closed forms give them (centred in one
    exact pass), the slope scale sqrt(syy / sxx), and the error's condition
    number: a first-order bound on the relative change of se when x - xbar
    and the residual r = (y - ybar) - slope (x - xbar) are each rounded at
    the magnitude of the terms that form them."""
    ld = np.longdouble
    q = np.ones(t.size) if quality is None else np.asarray(quality)
    x, y = (np.asarray(a).astype(ld) for a in (x, y))
    out = np.full((5, len(centers)), np.nan, dtype=ld)
    for k, (c, a, b) in enumerate(zip(centers, lo, hi)):
        w = (ts.epanechnikov((t[a:b] - c) / half) * q[a:b]).astype(ld)
        sw = w.sum()
        dx = x[a:b] - (w * x[a:b]).sum() / sw
        dy = y[a:b] - (w * y[a:b]).sum() / sw
        sxx, syy = (w * dx * dx).sum(), (w * dy * dy).sum()
        if not sxx > 0:
            continue
        slope = (w * dx * dy).sum() / sxx
        r = dy - slope * dx
        # the rounding of x - xbar and of r, per unit of eps
        dx_err = np.abs(x[a:b]) + np.abs(dx)
        r_err = np.abs(y[a:b]) + np.abs(dy) + np.abs(slope) * dx_err
        n_eff = sw * sw / (w * w).sum()
        if lags is None:
            meat = (w * r * r).sum() * sxx / sw
            cond = 2 * (w * np.abs(r) * r_err).sum() / (w * r * r).sum()
        else:
            g = w * dx * r
            meat = (g * g).sum()
            for ell in range(1, int(lags[k]) + 1):
                meat += 2 * (1 - ld(ell) / (lags[k] + 1)) \
                    * (g[ell:] * g[:-ell]).sum()
            g_err = w * (dx_err * np.abs(r) + np.abs(dx) * r_err)
            cond = 2 * (2 * lags[k] + 1) * np.abs(g).sum() * g_err.sum() \
                / meat
        se = np.sqrt(meat / (sxx * sxx) * n_eff / max(n_eff - 2, ld(1)))
        out[:, k] = slope, sxx / sw, se, np.sqrt(syy / sxx), cond
    return out.astype(float)


@st.composite
def kernel_inputs(draw):
    """Windows over irregular grids, epoch or across 0: sampling intervals
    that vary 100-fold, flat regressor stretches and level shifts, fits
    from nearly exact to noisy, optional quality weights, centres on or off
    the grid or a single window, up to wider than the series, with and
    without Bartlett lags."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(30, 300))
    dt = rng.uniform(0.5, 1.5, n)
    if draw(st.booleans()):                        # a sparse stretch
        a = int(rng.integers(0, n))
        dt[a:a + int(rng.integers(1, n))] *= 100.0
    t = draw(st.sampled_from([-150.0, 0.0, 1.7e9])) + np.cumsum(dt)
    x = draw(st.sampled_from([0.0, 15.0])) \
        + np.cumsum(rng.normal(0.0, 0.05, n))
    if draw(st.booleans()):                        # a flat stretch
        a = int(rng.integers(0, n - 5))
        x[a:a + int(rng.integers(5, n - a + 1))] = x[a]
    if draw(st.booleans()):                        # a level shift
        x[int(rng.integers(1, n)):] += 10.0 ** rng.uniform(0.0, 6.0)
    noise = draw(st.sampled_from([1e-6, 1e-3, 0.1]))
    y = -3.0 + 1.5 * x + rng.normal(0.0, noise, n)
    quality = rng.uniform(0.0, 1.0, n) if draw(st.booleans()) else None
    half = draw(st.floats(0.02, 0.8)) * (t[-1] - t[0])
    layout = draw(st.sampled_from(["grid", "off-grid", "single"]))
    if layout == "grid":
        centers = t
    elif layout == "off-grid":
        centers = np.concatenate([t[::3] + 0.37 * half, t[1::5] - 0.61 * half])
    else:
        centers = np.array([t[n // 2] + 0.1 * half])
    lo, hi = ts.window_bounds(t, centers, half)
    sel = hi - lo >= 3
    centers, lo, hi = centers[sel], lo[sel], hi[sel]
    lags = None
    if draw(st.booleans()):
        lags = np.array([min(est.auto_lag(k), k - 2) for k in hi - lo])
    block = draw(st.sampled_from([1, 64, ts.WINDOW_BLOCK_ELEMENTS]))
    return t, x, y, centers, half, lo, hi, quality, lags, block


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_moment_kernel_within_stated_tolerance(data):
    # relative error against extended precision, whichever path fits the
    # window: at most 1e-10 on var_x, and on the slope relative to its scale
    # sqrt(syy / sxx), which a slope near 0 does not set; at most 1e-8 on
    # the error where rounding its inputs moves it by at most 1e-10 (a
    # nearly exact fit, a regressor far from 0 that barely moves, or lag
    # sums that cancel leave no double-precision fit that close), and
    # elsewhere no worse than the gathered two-pass fit on every window the
    # moments fit.  Windows below VAR_LOG_TOL, which every caller drops,
    # are left out.
    t, x, y, centers, half, lo, hi, quality, lags, block = data
    with mock.patch.object(ts, "WINDOW_BLOCK_ELEMENTS", block):
        fit = ts.windowed_wls(t, x, y, centers, half, lo, hi, quality, lags)
    with mock.patch.object(ts, "WINDOW_BLOCK_ELEMENTS", 1 << 40):
        gathered = ts.windowed_wls(t, x, y, centers, half, lo, hi, quality,
                                   lags)
    slope, var_x, se, scale, cond = extended_fits(
        t, x, y, centers, half, lo, hi, quality, lags)
    a, b = ts.window_bounds(t, centers, half, rtol=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = ts._window_moments(t, x, y, centers, half, a, b, quality)[-1]
    ok = var_x >= ts.VAR_LOG_TOL
    resolved = ok & (cond * np.finfo(float).eps <= 1e-10)
    by_moments = ok & ((hi - lo).sum() > block) & (bound <= ts.MOMENT_RTOL)
    assert np.all(np.abs(fit.slope - slope)[ok] <= 1e-10 * scale[ok])
    np.testing.assert_allclose(fit.var_x[ok], var_x[ok], rtol=1e-10, atol=0)
    np.testing.assert_allclose(fit.se[resolved], se[resolved], rtol=1e-8,
                               atol=0)
    err, err_gathered = (np.abs(f.se - se) / se for f in (fit, gathered))
    assert np.all((err <= np.maximum(err_gathered, 1e-8))[by_moments])


def test_fallback_refits_a_window_bit_for_bit():
    # a 1e6 jump in x just after one window, inside the span its block's
    # prefix sums cover: the block mean moves by ~3e5, the window's raw
    # moments dwarf its spread, and _fit_rows refits it from its samples;
    # so it does the few windows that reach the jump with a zero weight,
    # and no window farther away, and the windows whose lag sums are over
    # their own bound: exactly those, each bit for bit
    rng = np.random.default_rng(3)
    n = 400
    t = 1.7e9 + np.arange(n, dtype=float)
    x = np.cumsum(rng.normal(0.0, 0.05, n))
    y = 0.5 + 1.2 * x + rng.normal(0.0, 0.01, n)
    half, k = 10.0, 200
    lo, hi = ts.window_bounds(t, t, half)
    x[hi[k]:] += 1e6
    lags = np.array([min(est.auto_lag(m), m - 2) for m in hi - lo])
    refitted = []

    def spy(xs, ys, w, lg, fit_rows=ts._fit_rows):
        refitted.extend(xs.tolist())
        return fit_rows(xs, ys, w, lg)

    # one window per gathered block, so the refit row is not padded
    with mock.patch.object(ts, "WINDOW_BLOCK_ELEMENTS", 1):
        with mock.patch.object(ts, "_fit_rows", spy):
            fit = ts.windowed_wls(t, x, y, t, half, lo, hi, lags=lags)
        a, b = ts.window_bounds(t, t, half, rtol=0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = ts._window_moments(t, x, y, t, half, a, b, None, lags)
    moments_over = ~(out[11] <= ts.MOMENT_RTOL)
    over = np.flatnonzero(moments_over | ~(out[10] <= ts.LAG_RTOL))
    near = [j for j in range(n) if x[lo[j]:hi[j]].tolist() in refitted]
    assert near == over.tolist() and len(refitted) == over.size
    assert moments_over[k]
    assert all(abs(t[j] - t[hi[k]]) <= 2 * half
               for j in np.flatnonzero(moments_over))
    for j in over:
        a, b = lo[j], hi[j]
        w = ts.epanechnikov((t[a:b] - t[j]) / half)
        ref = ts._fit_rows(x[None, a:b], y[None, a:b], w[None], lags[[j]])
        assert [f[j] for f in fit] == [r[0] for r in ref]


@st.composite
def lag_inputs(draw):
    """Windows for the Newey-West lag sums: the kernel_inputs grids with
    quality weights or none and epoch-second timestamps or not, centres on
    the grid (so the first windows start before sample L), off it or at the
    series' start, and one lag rule: a fixed lag 0 or 1, k - 2 for a window
    of k samples, the automatic rule, or lags mixed at random within a
    block."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(40, 300))
    t = draw(st.sampled_from([0.0, 1.7e9])) \
        + np.cumsum(rng.uniform(0.5, 1.5, n))
    x = draw(st.sampled_from([0.0, 15.0])) \
        + np.cumsum(rng.normal(0.0, 0.05, n))
    e = np.zeros(n)                     # AR(1) residuals, as the lags expect
    for i in range(1, n):
        e[i] = 0.6 * e[i - 1] + rng.normal(0.0, 1.0)
    y = -3.0 + 1.5 * x + draw(st.sampled_from([1e-3, 0.1])) * e
    quality = rng.uniform(0.0, 1.0, n) if draw(st.booleans()) else None
    half = draw(st.floats(0.03, 0.3)) * (t[-1] - t[0])
    centers = draw(st.sampled_from([
        t, np.concatenate([t[::3] + 0.37 * half, t[1::5] - 0.61 * half]),
        t[:10]]))
    lo, hi = ts.window_bounds(t, centers, half)
    sel = hi - lo >= 3
    centers, lo, hi = centers[sel], lo[sel], hi[sel]
    k = hi - lo
    rule = draw(st.sampled_from(["0", "1", "k-2", "auto", "mixed"]))
    lags = {"0": np.zeros_like(k), "1": np.minimum(1, k - 2), "k-2": k - 2,
            "auto": np.minimum(est.auto_lags(k), k - 2),
            "mixed": np.minimum(rng.integers(0, 8, k.size), k - 2)}[rule]
    return t, x, y, centers, half, lo, hi, quality, lags


def lag_path_fits(t, x, y, centers, half, lo, hi, quality, lags):
    """windowed_wls with every window on the moments and lag sums, and the
    windows whose lag sums passed their bound.  The bound's feature norms
    run over the positions that a window's block is read at with the other
    blocks of its chunk, so the moments are taken in the same chunks."""
    a, b = ts.window_bounds(t, centers, half, rtol=0.0)
    with mock.patch.object(ts, "WINDOW_BLOCK_ELEMENTS", 1), \
            np.errstate(divide="ignore", invalid="ignore"):
        fit = ts.windowed_wls(t, x, y, centers, half, lo, hi, quality, lags)
        out = ts._window_moments(t, x, y, centers, half, a, b, quality, lags)
    return fit, (out[10] <= ts.LAG_RTOL) & (out[11] <= ts.MOMENT_RTOL)


@settings(max_examples=200, deadline=None)
@given(lag_inputs())
def test_lag_sums_match_the_gathered_meat(data):
    # the Newey-West error from lag sums against the gathered reference
    # (_fit_rows) on every window whose lag sums pass
    # their rounding bound; at least 1e-9, about 10 LAG_RTOL, apart
    t, x, y, centers, half, lo, hi, quality, lags = data
    fit, by_sums = lag_path_fits(t, x, y, centers, half, lo, hi, quality,
                                 lags)
    with mock.patch.object(ts, "WINDOW_BLOCK_ELEMENTS", 1 << 40):
        ref = ts.windowed_wls(t, x, y, centers, half, lo, hi, quality, lags)
    np.testing.assert_allclose(fit.se[by_sums], ref.se[by_sums], rtol=1e-9,
                               atol=0)


def lag_fixture(n=600, noise=0.1, start=1.7e9, seed=5, half=40.0):
    rng = np.random.default_rng(seed)
    t = start + np.arange(n, dtype=float)
    x = np.log(1.0 + np.arange(n) / 50.0)
    e = np.zeros(n)
    for i in range(1, n):
        e[i] = 0.6 * e[i - 1] + rng.normal(0.0, 1.0)
    y = 1.3 * x + noise * e
    lo, hi = ts.window_bounds(t, t, half)
    return t, x, y, t, half, lo, hi


@pytest.mark.parametrize("rule", ["0", "1", "auto", "mixed"])
def test_lag_sums_take_nearly_every_window(rule):
    # the lag sums take nearly every window of a noisy fit, the first ones
    # (which start before sample L) included
    t, x, y, centers, half, lo, hi = lag_fixture()
    k = hi - lo
    lags = {"0": np.zeros_like(k), "1": np.ones_like(k),
            "auto": est.auto_lags(k),
            "mixed": np.random.default_rng(1).integers(0, 8, k.size)}[rule]
    quality = np.random.default_rng(2).uniform(0.5, 1.0, t.size)
    fit, by_sums = lag_path_fits(t, x, y, centers, half, lo, hi, quality,
                                 lags)
    ref = extended_fits(t, x, y, centers, half, lo, hi, quality, lags)[2]
    assert by_sums[:5].all() and by_sums.mean() > 0.95
    np.testing.assert_allclose(fit.se, ref, rtol=1e-9, atol=0)


def test_windows_over_either_bound_are_refitted_whole():
    # residuals 1e-9 of a regressor of order 1 put every window over the
    # moments' bound; a noisy fit with L = k - 2 passes that bound, and
    # its lag sums take most windows, but not those at the series' ends.
    # Either way a window over a bound is refitted from its gathered
    # samples, every field as _fit_rows gives it.
    for noise, half, rule, shares, rtol in (
            (1e-9, 40.0, est.auto_lags, (0.0, 0.05), 1e-6),
            (0.1, 10.0, lambda k: k - 2, (0.85, 0.95), 1e-9)):
        t, x, y, centers, half, lo, hi = lag_fixture(noise=noise, half=half)
        lags = rule(hi - lo)
        fit, by_sums = lag_path_fits(t, x, y, centers, half, lo, hi, None,
                                     lags)
        assert shares[0] <= by_sums.mean() < shares[1]
        for k in np.flatnonzero(~by_sums):
            a, b = lo[k], hi[k]
            w = ts.epanechnikov((t[a:b] - centers[k]) / half)
            ref = ts._fit_rows(x[None, a:b], y[None, a:b], w[None],
                               lags[[k]])
            assert [f[k] for f in fit] == [r[0] for r in ref]
        ref = extended_fits(t, x, y, centers, half, lo, hi, None, lags)[2]
        np.testing.assert_allclose(fit.se, ref, rtol=rtol, atol=0)


@pytest.mark.parametrize("past", [-1, 0, 3])
def test_lags_at_or_past_the_window_length(past):
    # L = k - 1 and L = k leave the lag sums' head and tail side by side;
    # L = k + 3 would overlap them and count their sums twice, so such a
    # window takes the gathered refit.  Either way the error is the
    # gathered one.
    t, x, y, centers, half, lo, hi = lag_fixture(half=10.0)
    lags = np.minimum(hi - lo + past, ts.LAG_SUMS_MAX_LAG)
    fit, by_sums = lag_path_fits(t, x, y, centers, half, lo, hi, None, lags)
    with mock.patch.object(ts, "WINDOW_BLOCK_ELEMENTS", 1 << 40):
        ref = ts.windowed_wls(t, x, y, centers, half, lo, hi, None, lags)
    assert by_sums.mean() > 0.8 if past <= 0 else not by_sums.any()
    np.testing.assert_allclose(fit.se, ref.se, rtol=1e-9, atol=0)


def test_lag_over_the_cap_skips_the_lag_sums():
    # a lag above LAG_SUMS_MAX_LAG would cost L + 1 passes over its
    # windows' blocks for the moving sums, and a pass per distinct lag:
    # such windows take the gathered pass, and the lag sums never see
    # their lag
    t, x, y, centers, half, lo, hi = lag_fixture()
    lags = np.where(np.arange(t.size) % 2, ts.LAG_SUMS_MAX_LAG + 8, 3)
    seen = []

    def spy(features, L, *args, lag_prefix=ts._lag_prefix):
        seen.append(L)
        return lag_prefix(features, L, *args)

    with mock.patch.object(ts, "_lag_prefix", spy):
        fit, by_sums = lag_path_fits(t, x, y, centers, half, lo, hi, None,
                                     lags)
    assert set(seen) == {3}
    assert not by_sums[lags > ts.LAG_SUMS_MAX_LAG].any()
    assert by_sums[lags == 3].mean() > 0.95
    ref = extended_fits(t, x, y, centers, half, lo, hi, None, lags)[2]
    np.testing.assert_allclose(fit.se, ref, rtol=1e-9, atol=0)


def test_auto_lags_is_the_scalar_rule():
    k = np.arange(1, 2_000_001)
    assert est.auto_lags(k).tolist() == [est.auto_lag(n) for n in
                                         range(1, 2_000_001)]
