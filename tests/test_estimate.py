import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rsi_certify import estimate as est
from rsi_certify import series as ts
from rsi_certify.errors import (
    AllWindowsDegenerate,
    InsufficientRange,
    NonPositiveSeries,
    TooShort,
    WeakInstrument,
)


def make_series(t, v, name="s", unit="x"):
    return ts.TimeSeries(name, unit, t, v)


# ---------------------------------------------------------------------------
# Newey-West


def white_se(X, e):
    """Independent heteroskedasticity-robust oracle."""
    bread = np.linalg.inv(X.T @ X)
    meat = (X * e[:, None]).T @ (X * e[:, None])
    return np.sqrt(np.diag(bread @ meat @ bread))


def test_newey_west_lag0_equals_white():
    rng = np.random.default_rng(1)
    X = np.column_stack([np.ones(200), rng.standard_normal(200)])
    e = rng.standard_normal(200) * (1 + 0.5 * np.abs(X[:, 1]))
    se = est.newey_west_se(X, e, lag=0)
    np.testing.assert_allclose(se, white_se(X, e), rtol=0, atol=1e-12)


def test_newey_west_iid_close_to_classical():
    # Monte-Carlo oracle: on i.i.d. residuals the HAC SE approaches the
    # classical OLS SE
    rng = np.random.default_rng(42)
    n = 4000
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    beta = np.array([0.5, 2.0])
    e = rng.standard_normal(n)
    y = X @ beta + e
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    classical = np.sqrt(resid @ resid / (n - 2) * np.diag(np.linalg.inv(X.T @ X)))
    hac = est.newey_west_se(X, resid, lag=est.auto_lag(n))
    np.testing.assert_allclose(hac, classical, rtol=0.10)


def ar1_fixture(n=600, rho=0.8, seed=7):
    rng = np.random.default_rng(seed)
    e = np.empty(n)
    e[0] = rng.standard_normal()
    for i in range(1, n):
        e[i] = rho * e[i - 1] + rng.standard_normal()
    X = np.column_stack([np.ones(n), np.linspace(0, 1, n)])
    return X, e


def test_newey_west_ar1_larger_than_lag0():
    X, e = ar1_fixture()
    se0 = est.newey_west_se(X, e, lag=0)
    se10 = est.newey_west_se(X, e, lag=10)
    assert np.all(se10 > se0)


def test_newey_west_monotone_in_lag_on_ar1():
    X, e = ar1_fixture()
    ses = [est.newey_west_se(X, e, lag=lag)[1] for lag in (0, 2, 5, 10)]
    assert all(b >= a for a, b in zip(ses, ses[1:]))


def test_newey_west_singular_design():
    X = np.column_stack([np.ones(50), np.ones(50)])
    with pytest.raises(est.SingularDesign):
        est.newey_west_se(X, np.zeros(50), lag=0)


# ---------------------------------------------------------------------------
# rolling elasticity


def blowup_series(n=400, t_end=0.9):
    t = np.linspace(0.0, t_end, n)
    I = 1.0 / (1.0 - t)
    return (make_series(t, I, "I", "nat"),
            make_series(t, I ** 2, "Idot", "nat/s"))


def test_rolling_elasticity_blowup_feedback():
    I, Idot = blowup_series()
    prof = est.rolling_elasticity(I, Idot, window=0.1)
    assert np.all(np.abs(prof.values - 2.0) < 0.05)


def test_rolling_elasticity_exponential():
    t = np.linspace(0, 10, 300)
    I = make_series(t, np.exp(0.5 * t), "I")
    Idot = make_series(t, 0.5 * np.exp(0.5 * t), "Idot")
    prof = est.rolling_elasticity(I, Idot, window=2.0)
    np.testing.assert_allclose(prof.values, 1.0, atol=1e-8)


def test_rolling_elasticity_logistic_tail_subcritical():
    # analytic oracle: for logistic I the rate is r I (1 - I/L), so the
    # elasticity is 1 - I/(L - I) < 1 past the midpoint
    t = np.linspace(0, 12, 500)
    L, r = 10.0, 1.0
    I = L / (1.0 + np.exp(-r * (t - 6.0)))
    Idot = r * I * (1 - I / L)
    prof = est.rolling_elasticity(make_series(t, I, "I"),
                                  make_series(t, Idot, "Idot"), window=1.0)
    tail = prof.values[prof.t > 9.0]
    assert np.all(tail < 1.0)


def test_rolling_elasticity_skips_nonpositive_rate():
    t = np.linspace(0, 10, 200)
    I = np.exp(t)
    Idot = np.exp(t).copy()
    Idot[80:90] = -1.0
    prof = est.rolling_elasticity(make_series(t, I, "I"),
                                  make_series(t, Idot, "Idot"), window=1.0)
    assert prof.gaps
    assert all("nonpositive rate" in reason for _, reason in prof.gaps)
    # estimates exist away from the corrupted span
    assert prof.estimates


def test_rolling_elasticity_scale_invariant():
    I, Idot = blowup_series()
    base = est.rolling_elasticity(I, Idot, window=0.1)
    scaled = est.rolling_elasticity(
        I.replace(values=13.7 * I.values),
        Idot.replace(values=13.7 * Idot.values), window=0.1)
    np.testing.assert_allclose(base.values, scaled.values, atol=1e-10)


def test_excitation_infimum_diagnostic():
    t = np.linspace(0, 10, 101)
    u = 0.5 + 0.4 * np.sin(t)
    prof = est.excitation_infimum(make_series(t, u, "u"), window=2.0)
    # rolling infimum never exceeds the series values at the window center
    centers = {round(c, 9): v for c, v in zip(prof.t, prof.slope)}
    for tt_, uu_ in zip(t, u):
        key = round(float(tt_), 9)
        if key in centers:
            assert centers[key] <= uu_ + 1e-12
    # global infimum is attained
    assert min(prof.slope) == pytest.approx(u.min(), abs=0.05)


def test_rolling_elasticity_all_degenerate():
    t = np.linspace(0, 1, 50)
    I = make_series(t, np.full_like(t, 2.0), "I")
    Idot = make_series(t, np.full_like(t, 1.0), "Idot")
    with pytest.raises(AllWindowsDegenerate):
        est.rolling_elasticity(I, Idot, window=0.2)


def test_rolling_elasticity_ci_covers_noisy_truth():
    # 1% multiplicative noise on both state and rate; the mid-window CI
    # should cover p=2 in most seeded runs (full calibration is asserted at
    # acceptance level)
    hits = 0
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        t = np.linspace(0.0, 0.9, 300)
        I = 1.0 / (1.0 - t) * (1 + 0.01 * rng.standard_normal(t.size))
        Idot = (1.0 / (1.0 - t)) ** 2 * (1 + 0.01 * rng.standard_normal(t.size))
        prof = est.rolling_elasticity(make_series(t, I, "I"),
                                      make_series(t, Idot, "Idot"),
                                      window=0.2)
        mid = prof.estimates[len(prof.estimates) // 2]
        if mid.ci[0] <= 2.0 <= mid.ci[1]:
            hits += 1
    assert hits >= 32  # >= 80% in the small-sample smoke check


# ---------------------------------------------------------------------------
# regular-variation indices


def test_rv_indices_exact_power_law():
    I = np.geomspace(1.0, 1e3, 120)
    res = est.rv_indices(phi_samples=(I, I ** 0.7), bootstrap_reps=99)
    assert res.q.hat == pytest.approx(0.7, abs=1e-9)
    assert res.q.accepted
    assert res.rv_accepted


def test_rv_indices_learning_curve_slope():
    z = np.geomspace(1.0, 1e3, 120)
    res = est.rv_indices(neg_lprime_samples=(z, z ** -1.5), bootstrap_reps=99)
    assert res.rho.hat == pytest.approx(0.5, abs=1e-9)
    assert res.rho.minus <= res.rho.hat <= res.rho.plus


def test_rv_indices_piecewise_exponent_rejected():
    lo = np.geomspace(1.0, 30.0, 60)
    hi = np.geomspace(33.0, 1e3, 60)
    phi = np.concatenate([lo ** 0.5, lo[-1] ** 0.5 / hi[0] ** 1.5 * hi ** 1.5])
    I = np.concatenate([lo, hi])
    res = est.rv_indices(phi_samples=(I, phi), bootstrap_reps=99)
    assert not res.q.accepted
    assert res.q.minus == pytest.approx(0.5, abs=0.1)
    assert res.q.plus == pytest.approx(1.5, abs=0.1)


def test_rv_indices_envelopes_bracket_profile():
    rng = np.random.default_rng(3)
    I = np.geomspace(1.0, 1e3, 150)
    phi = I ** 0.8 * np.exp(0.05 * rng.standard_normal(I.size))
    res = est.rv_indices(phi_samples=(I, phi), bootstrap_reps=99)
    slopes = np.array(res.q.profile_slopes)
    assert res.q.minus == pytest.approx(slopes.min())
    assert res.q.plus == pytest.approx(slopes.max())
    assert res.q.minus <= res.q.hat <= res.q.plus


def test_rv_indices_efficiency_index():
    x = np.geomspace(1.0, 1e3, 120)
    res = est.rv_indices(eta_samples=(x, 2.0 * x ** 0.3), bootstrap_reps=99)
    assert res.q is None and res.rho is None
    assert res.xi.hat == pytest.approx(0.3, abs=1e-9)
    assert res.xi.accepted and res.rv_accepted
    # a kink in the efficiency factor fails constancy, and the joint verdict
    kinked = np.where(x < 30.0, x ** 0.2, 30.0 ** -0.6 * x ** 0.8)
    both = est.rv_indices(phi_samples=(x, x ** 0.7),
                          eta_samples=(x, kinked), bootstrap_reps=99)
    assert both.q.accepted and not both.xi.accepted
    assert not both.rv_accepted
    assert both.xi.minus == pytest.approx(0.2, abs=0.1)
    assert both.xi.plus == pytest.approx(0.8, abs=0.1)


def test_rv_indices_insufficient_range():
    I = np.geomspace(1.0, 5.0, 50)
    with pytest.raises(InsufficientRange):
        est.rv_indices(phi_samples=(I, I ** 2))


# ---------------------------------------------------------------------------
# Potter bounds


def test_potter_constant_slowly_varying():
    I = np.geomspace(1, 1e6, 100)
    L = np.full_like(I, 3.0)
    assert est.potter_check(I, L, eps=0.01, c_eps=1.0).passed


def test_potter_log_factor_passes_above_threshold():
    # direct pair-scan oracle: log grows slower than any power once samples
    # sit above the (eps, c_eps) threshold; for eps=0.1, c=2 the bound
    # log(x/y) <= 0.1(x-y) + log 2 holds for all x, y >= 10 (the map
    # x -> log x - 0.1 x is decreasing past x = 10)
    I = np.exp(np.linspace(10, 100, 200))
    L = np.log(I)
    res = est.potter_check(I, L, eps=0.1, c_eps=2.0)
    assert res.passed


def test_potter_log_factor_fails_below_threshold():
    # the same pair scan exhibits a witness when small samples violate the
    # precondition (pairs like (e, e^10) break the bound)
    I = np.exp(np.linspace(1, 100, 200))
    L = np.log(I)
    res = est.potter_check(I, L, eps=0.1, c_eps=2.0)
    assert not res.passed
    assert res.worst_margin > 0


def test_potter_power_violates():
    I = np.geomspace(1, 1e4, 80)
    L = I ** 0.2
    res = est.potter_check(I, L, eps=0.1, c_eps=1.0)
    assert not res.passed
    i, j = res.worst_pair
    lhs = abs(math.log(L[i] / L[j]))
    rhs = 0.1 * abs(math.log(I[i] / I[j]))
    assert lhs > rhs
    assert res.worst_margin > 0


# ---------------------------------------------------------------------------
# IV slope


def test_iv_equals_ols_when_instrument_is_regressor():
    t = np.linspace(0, 10, 300)
    rng = np.random.default_rng(11)
    x = np.exp(0.3 * t + 0.05 * rng.standard_normal(t.size))
    y = x ** 1.7 * np.exp(0.1 * rng.standard_normal(t.size))
    X = make_series(t, x, "X")
    Y = make_series(t, y, "Y")
    res = est.iv_slope(Y, X, X, lag=0)
    assert res.beta == pytest.approx(est.ols_loglog_slope(Y, X), abs=1e-12)


def test_iv_corrects_attenuation():
    # Monte-Carlo oracle with a known latent process: log X observed with
    # i.i.d. noise attenuates OLS; a clean instrument correlated with the
    # latent regressor restores the slope in almost all seeded runs
    beta_true = 1.5
    wins = 0
    for seed in range(40):
        rng = np.random.default_rng(2000 + seed)
        n = 400
        t = np.arange(n, dtype=float)
        # modest latent spread against strong observation noise makes the
        # OLS attenuation bias dominate the IV sampling noise
        latent = 0.5 * np.sin(t / 9.0) + 0.2 * rng.standard_normal(n)
        x_obs = np.exp(latent + 0.40 * rng.standard_normal(n))
        z = np.exp(latent + 0.10 * rng.standard_normal(n))
        y = np.exp(beta_true * latent + 0.05 * rng.standard_normal(n))
        Y, X, Z = (make_series(t, v, nm) for v, nm in
                   ((y, "Y"), (x_obs, "X"), (z, "Z")))
        iv = est.iv_slope(Y, X, Z).beta
        ols = est.ols_loglog_slope(Y, X)
        if abs(iv - beta_true) < abs(ols - beta_true):
            wins += 1
    assert wins >= 38  # >= 95%


def test_iv_weak_instrument():
    rng = np.random.default_rng(5)
    t = np.arange(300, dtype=float)
    x = np.exp(0.01 * t + 0.1 * rng.standard_normal(300))
    z = np.exp(rng.standard_normal(300))  # independent of x
    y = x ** 2
    with pytest.raises(WeakInstrument) as err:
        est.iv_slope(make_series(t, y, "Y"), make_series(t, x, "X"),
                     make_series(t, z, "Z"))
    assert err.value.first_stage_f is not None
    assert err.value.first_stage_f < est.WEAK_INSTRUMENT_F


# ---------------------------------------------------------------------------
# Kalman trend


def test_kalman_identity_on_noiseless_exponential():
    t = np.linspace(0, 10, 200)
    s = make_series(t, np.exp(0.4 * t), "X")
    sm = est.kalman_trend(s, process_var=1e-6, obs_var=1e-4)
    np.testing.assert_allclose(sm.values, s.values, rtol=1e-8)


def test_kalman_huge_obs_var_free_trend():
    t = np.linspace(0, 10, 100)
    rng = np.random.default_rng(9)
    vals = np.exp(0.4 * t + 0.2 * rng.standard_normal(t.size))
    s = make_series(t, vals, "X")
    sm = est.kalman_trend(s, process_var=1e-6, obs_var=1e12)
    # oracle: measurement ignored -> the trend through the first two log
    # observations propagates unchanged
    y0 = math.log(vals[0])
    slope0 = (math.log(vals[1]) - y0) / (t[1] - t[0])
    free = np.exp(y0 + slope0 * (t - t[0]))
    np.testing.assert_allclose(sm.values, free, rtol=1e-6)


def test_kalman_denoises_noisy_exponential():
    rng = np.random.default_rng(123)
    t = np.linspace(0, 15, 400)
    latent_log = 0.35 * t
    obs = np.exp(latent_log + 0.05 * rng.standard_normal(t.size))
    sm = est.kalman_trend(make_series(t, obs, "X"),
                          process_var=1e-6, obs_var=0.05 ** 2)
    rmse_raw = np.sqrt(np.mean((np.log(obs) - latent_log) ** 2))
    rmse_sm = np.sqrt(np.mean((np.log(sm.values) - latent_log) ** 2))
    assert rmse_sm <= 0.5 * rmse_raw


def test_kalman_rejects_nonpositive():
    t = np.linspace(0, 1, 10)
    with pytest.raises(NonPositiveSeries):
        est.kalman_trend(make_series(t, np.linspace(-1, 1, 10), "X"), 1e-4, 1e-4)


# ---------------------------------------------------------------------------
# structural breaks


def slope_series_from(values, t=None):
    values = np.asarray(values, dtype=float)
    t = np.arange(values.size, dtype=float) if t is None else t
    return ts.SlopeSeries(t, values, np.zeros_like(values), 1.0)


def test_sup_wald_null_no_breaks():
    rng = np.random.default_rng(77)
    y = 1.0 + 0.1 * rng.standard_normal(200)
    seg = est.sup_wald_breaks(slope_series_from(y))
    assert seg.breakpoints == []
    assert len(seg.segments) == 1


def test_sup_wald_single_break_location():
    rng = np.random.default_rng(78)
    y = np.concatenate([1.0 + 0.05 * rng.standard_normal(100),
                        2.5 + 0.05 * rng.standard_normal(100)])
    seg = est.sup_wald_breaks(slope_series_from(y))
    assert len(seg.breakpoints) == 1
    assert abs(seg.breakpoints[0] - 100) <= 3


def test_sup_wald_two_breaks_ordered():
    rng = np.random.default_rng(79)
    y = np.concatenate([1.0 + 0.05 * rng.standard_normal(120),
                        2.5 + 0.05 * rng.standard_normal(120),
                        0.5 + 0.05 * rng.standard_normal(120)])
    seg = est.sup_wald_breaks(slope_series_from(y))
    assert len(seg.breakpoints) == 2
    assert abs(seg.breakpoints[0] - 120) <= 3
    assert abs(seg.breakpoints[1] - 240) <= 3
    assert seg.breakpoints == sorted(seg.breakpoints)
    # segments partition the window
    assert seg.segments[0][0] == 0.0
    for (a, b), (c, d) in zip(seg.segments, seg.segments[1:]):
        assert b == c


def test_sup_wald_false_positive_rate():
    # empirical size on 500 seeded null runs stays within alpha + 0.03
    rejections = 0
    for seed in range(500):
        rng = np.random.default_rng(30_000 + seed)
        y = rng.standard_normal(100)
        seg = est.sup_wald_breaks(slope_series_from(y), alpha=0.05)
        if seg.breakpoints:
            rejections += 1
    assert rejections / 500 <= 0.05 + 0.03


def test_sup_wald_too_short():
    with pytest.raises(TooShort):
        est.sup_wald_breaks(slope_series_from(np.ones(10)))


def sup_wald_by_loop(y, trim):
    """The scan as a loop over k, the reference for the array form."""
    n = y.size
    k_lo = max(int(math.floor(trim * n)), 2)
    k_hi = min(int(math.ceil((1 - trim) * n)), n - 2)
    if k_hi <= k_lo:
        return 0.0, None
    rss0 = float(((y - y.mean()) ** 2).sum())
    best_w, best_k = -1.0, None
    csum = np.cumsum(y)
    csum2 = np.cumsum(y * y)
    total = csum[-1]
    total2 = csum2[-1]
    for k in range(k_lo, k_hi + 1):
        s1, s2 = csum[k - 1], total - csum[k - 1]
        q1, q2 = csum2[k - 1], total2 - csum2[k - 1]
        rss1 = (q1 - s1 * s1 / k) + (q2 - s2 * s2 / (n - k))
        denom = rss1 / max(n - 2, 1)
        w = (rss0 - rss1) / denom if denom > 0 else math.inf
        if w > best_w:
            best_w, best_k = w, k
    return best_w, best_k


@st.composite
def scan_inputs(draw):
    n = draw(st.integers(4, 80))
    kind = draw(st.sampled_from(["noise", "constant", "step", "offset",
                                 "small integers", "extreme"]))
    if kind == "constant":
        y = np.full(n, draw(st.floats(-1e6, 1e6)))
    elif kind == "step":        # exact fit at the step: denom 0, w = inf
        cut = draw(st.integers(1, n - 1))
        y = np.where(np.arange(n) < cut, draw(st.floats(-10, 10)),
                     draw(st.floats(-10, 10)))
    else:
        elements = {"noise": st.floats(-10, 10),
                    "offset": st.floats(-1e-3, 1e-3).map(lambda v: 1e8 + v),
                    "small integers": st.integers(-2, 2).map(float),
                    "extreme": st.floats(allow_nan=True, allow_infinity=True)}
        y = np.array(draw(st.lists(elements[kind], min_size=n, max_size=n)))
    trim = draw(st.one_of(st.sampled_from([1e-12, 0.01, 0.15, 0.4499999]),
                          st.floats(1e-12, 0.4499999)))
    return y, trim


@settings(max_examples=500, deadline=None)
@given(scan_inputs())
@example((np.full(40, 0.7), 0.15))
@example((np.repeat([1.0, 2.0], 20), 0.15))
@example((np.repeat([1.0, 2.0, 1.0, 2.0], 10), 1e-12))
@example((np.r_[np.ones(10), 1e200, -1e200, np.ones(10)], 0.15))  # NaN w
def test_sup_wald_scan_matches_the_loop(case):
    y, trim = case
    with np.errstate(all="ignore"):
        got = est._sup_wald_mean_shift(y, trim)
        want = sup_wald_by_loop(y, trim)
    assert got == want


def profile_of(values):
    n = len(values)
    return est.RollingElasticity(np.arange(n, dtype=float),
                                 np.asarray(values, dtype=float),
                                 np.full(n, 0.1), np.full(n, 10.0), 1.0, [],
                                 0.05)


def test_profile_records_read_its_columns():
    # each record holds its window's columns, and the interval the
    # per-window arithmetic gives: value -+ z * se in Python floats
    rng = np.random.default_rng(12)
    prof = profile_of(rng.normal(1.0, 0.3, 40))
    prof.ses = rng.uniform(0.0, 0.2, 40)
    z = float(norm.ppf(1 - prof.alpha / 2))
    for k, e in enumerate(prof.estimates):
        v, se = float(prof.values[k]), float(prof.ses[k])
        assert (e.t, e.value, e.se, e.ci, e.window, e.n_eff) == \
            (float(prof.t[k]), v, se, (v - z * se, v + z * se), 1.0, 10.0)
    assert len(prof.estimates) == prof.t.size


def test_segment_profile_scans_only_long_profiles():
    y = np.concatenate([np.full(60, 1.0), np.full(60, 2.5)])
    y += 0.05 * np.random.default_rng(80).standard_normal(y.size)
    long_prof = profile_of(y)
    assert est.segment_profile(long_prof).to_json_dict() == \
        est.sup_wald_breaks(long_prof.to_slope_series()).to_json_dict()
    short = profile_of(y[:est.SUP_WALD_MIN_SEGMENT - 1])
    seg = est.segment_profile(short)
    assert seg.breakpoints == []
    assert seg.segments == [(0.0, est.SUP_WALD_MIN_SEGMENT - 2 + 1e-9)]


# ---------------------------------------------------------------------------
# power analysis


def test_required_samples_reference_value():
    # quantile arithmetic oracle: (1.6449 + 0.8416)^2 / 0.25 = 24.73 -> 25
    z = norm.ppf(0.95) + norm.ppf(0.80)
    assert math.ceil(z * z / 0.25) == 25
    assert est.required_samples(1.0, 1.0, 0.5, 0.05, 0.2) == 25


def test_required_samples_scaling_laws():
    base = est.required_samples(1.0, 1.0, 0.5, 0.05, 0.2)
    quarter = est.required_samples(1.0, 1.0, 1.0, 0.05, 0.2)
    assert base == pytest.approx(4 * quarter, abs=3)  # inverse-square in delta
    four_x = est.required_samples(2.0, 1.0, 0.5, 0.05, 0.2)
    assert four_x == pytest.approx(4 * base, abs=3)  # square in sigma


# ---------------------------------------------------------------------------
# antagonism diagnostics


def test_antagonism_cooperative_accepted():
    res = est.antagonism_diagnostics(
        partials=[(0.2, 0.01), (0.05, 0.01), (0.0, 0.01)],
        a_hat=1.0, theta=0.5)
    assert res.viol == 0.0
    assert res.cooperative_accepted


def test_antagonism_negative_partial_rejected():
    res = est.antagonism_diagnostics(
        partials=[(-0.3, 0.01), (0.1, 0.01)], a_hat=1.0, theta=0.5)
    assert res.viol == pytest.approx(0.3)
    assert not res.statistically_zero
    assert not res.cooperative_accepted


def test_antagonism_residual_budget():
    res = est.antagonism_diagnostics(
        partials=[(0.1, 0.01)], a_hat=1.0, theta=0.5,
        residuals_I=[0.25, -0.5], residuals_x=[0.15])
    assert res.sigma_I_hat == pytest.approx(0.25)
    assert res.sigma_x_hat == pytest.approx(0.15)
    assert res.residual_bound_ok  # 0.4 <= 0.5
    assert res.cooperative_accepted
    tight = est.antagonism_diagnostics(
        partials=[(0.1, 0.01)], a_hat=1.0, theta=0.3,
        residuals_I=[0.25], residuals_x=[0.15])
    assert not tight.residual_bound_ok
