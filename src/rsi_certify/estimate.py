"""Statistical estimation layer for telemetry elasticities.

Rolling log-log slopes with heteroskedasticity- and autocorrelation-robust
(Newey-West) standard errors are the workhorse.  On top of those sit
regular-variation index diagnostics with wild-bootstrap constancy checks,
Potter-bound verification for the slowly varying part, instrumental-variable
slopes against measurement-error attenuation, a local-linear-trend Kalman
smoother for de-noising, sup-Wald structural-break segmentation, the
sample-size rule for detecting a given superlinearity margin, and
cooperative-structure (antagonism) diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import series as ts
from .errors import (
    AllWindowsDegenerate,
    InsufficientRange,
    NonPositiveSeries,
    SingularDesign,
    TooShort,
    WeakInstrument,
)


@functools.lru_cache
def normal_quantile(q: float) -> float:
    """The standard normal quantile at ``q``, computed once per level."""
    return float(ndtri(q))


WEAK_INSTRUMENT_F = 10.0  # Staiger-Stock rule of thumb for one instrument
MIN_WINDOW_POINTS = 5     # fewest samples a rolling or index window fits
RV_WINDOW_DECADES = 0.5   # width of an index window in log10 abscissa
RV_ACCEPT_QUANTILE = 0.95  # bootstrap quantile a constant index stays under
POTTER_MAX_PAIRS = 250_000  # pairs the Potter scan checks at most


# ---------------------------------------------------------------------------
# HAC covariance


def auto_lags(counts: np.ndarray) -> np.ndarray:
    """Standard automatic truncation lag floor(4 * (n/100)^(2/9)) of each
    count n."""
    return np.floor(4.0 * (counts / 100.0) ** (2.0 / 9.0)).astype(int)


def auto_lag(n: int) -> int:
    """``auto_lags`` of one count."""
    return int(auto_lags(n))


def newey_west_cov(X: np.ndarray, residuals: np.ndarray, lag: int) -> np.ndarray:
    """HAC sandwich covariance of least-squares coefficients.

    Bartlett weights w_l = 1 - l/(lag+1) taper the autocovariance terms;
    lag 0 collapses to the heteroskedasticity-robust (White) covariance.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    e = np.asarray(residuals, dtype=float)
    n, k = X.shape
    if e.shape != (n,):
        raise SingularDesign("residual length does not match design")
    if not 0 <= lag < n:
        raise SingularDesign(f"lag={lag} must satisfy 0 <= lag < n={n}")
    xtx = X.T @ X
    try:
        bread = np.linalg.inv(xtx)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("X'X is singular") from exc
    _require_conditioned(np.linalg.cond(xtx))

    xe = X * e[:, None]
    meat = xe.T @ xe
    for ell in range(1, lag + 1):
        w = 1.0 - ell / (lag + 1.0)
        gamma = xe[ell:].T @ xe[:-ell]
        meat += w * (gamma + gamma.T)
    return bread @ meat @ bread


def _require_conditioned(cond) -> None:
    """Refuse fits whose X'X condition number exceeds 1e14 or is NaN."""
    if not np.all(cond <= 1e14):
        raise SingularDesign("X'X is numerically singular")


def newey_west_se(X: np.ndarray, residuals: np.ndarray, lag: int) -> np.ndarray:
    """HAC standard errors (square root of the sandwich diagonal)."""
    cov = newey_west_cov(X, residuals, lag)
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _hac_slope_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray, lag: int):
    """Kernel-weighted slope of y on x with HAC standard error and the
    n_eff/(n_eff - 2) degrees-of-freedom factor: one row of the windowed
    kernel's closed-form fit.  Returns (slope, se, intercept)."""
    rows = (np.asarray(a, dtype=float)[None, :] for a in (x, y, w))
    fit = ts._fit_rows(*rows, np.array([lag]))
    _require_conditioned(fit.cond)
    return float(fit.slope[0]), float(fit.se[0]), float(fit.intercept[0])


# ---------------------------------------------------------------------------
# rolling feedback elasticity


@dataclass(frozen=True)
class ElasticityEstimate:
    """One local elasticity with its HAC uncertainty."""

    t: float
    value: float
    se: float
    ci: tuple[float, float]
    window: float
    n_eff: float

    def to_json_dict(self) -> dict:
        return {"t": self.t, "value": self.value, "se": self.se,
                "ci": list(self.ci), "window": self.window,
                "n_eff": self.n_eff}


@dataclass
class RollingElasticity:
    """Rolling feedback-elasticity profile as arrays, one entry per fitted
    window centre, with gap markers for skipped windows (nonpositive rates
    or degenerate regressors)."""

    t: np.ndarray
    values: np.ndarray
    ses: np.ndarray
    n_eff: np.ndarray
    window: float
    gaps: list[tuple[float, str]]
    alpha: float

    @property
    def ci(self) -> tuple[np.ndarray, np.ndarray]:
        """Two-sided level-``alpha`` bounds value -+ z * se, per window."""
        z = normal_quantile(1 - self.alpha / 2.0)
        return self.values - z * self.ses, self.values + z * self.ses

    @property
    def estimates(self) -> list[ElasticityEstimate]:
        """The profile as one record per window."""
        return [ElasticityEstimate(c, b, se, (lo, hi), self.window, ne)
                for c, b, se, lo, hi, ne in zip(*(a.tolist() for a in (
                    self.t, self.values, self.ses, *self.ci, self.n_eff)))]

    def to_slope_series(self) -> ts.SlopeSeries:
        return ts.SlopeSeries(self.t, self.values, self.ses, self.window / 2)


# gap reasons, in the order the windows are checked
GAP_REASONS = ("nonpositive rate in window", "nonpositive state in window",
               "degenerate regressor")


def shared_samples(I: ts.TimeSeries, Idot: ts.TimeSeries):
    """(t, I, Idot) at the timestamps both series hold, with no value
    interpolated: the one join of state and rate."""
    common, ia, ib = np.intersect1d(I.t, Idot.t, return_indices=True)
    return common, I.values[ia], Idot.values[ib]


def rolling_elasticity(I: ts.TimeSeries, Idot: ts.TimeSeries, window: float,
                       lag: int | str = "auto", alpha: float = 0.05,
                       centers=None) -> RollingElasticity:
    """Local log-log slope of the rate against the state, per window center.

    The feedback elasticity is only defined where the rate is positive;
    windows containing nonpositive rates are skipped and recorded as gaps
    rather than clamped.  Standard errors are Newey-West with Bartlett
    weights (lag "auto" uses the floor(4(n/100)^(2/9)) rule per window),
    capped at the window's sample count minus two.
    ``centers`` restricts evaluation to the given window centers (default:
    every shared sample time).  All windows are fitted by the shared
    kernel ``series.windowed_wls`` (moments from block-local prefix sums,
    closed forms, per-window HAC sums).
    """
    common, i_vals, r_vals = shared_samples(I, Idot)
    if common.size < MIN_WINDOW_POINTS:
        raise AllWindowsDegenerate("series share too few timestamps")

    half = window / 2.0
    eval_centers = common if centers is None \
        else np.atleast_1d(np.asarray(centers, dtype=float))
    lo, hi = ts.window_bounds(common, eval_centers, half)
    n_win = hi - lo
    # per window: 0 fit, k > 0 gap GAP_REASONS[k - 1], -1 too few samples;
    # prefix counts of nonpositive samples find the nonpositive windows
    gap = np.where(n_win < MIN_WINDOW_POINTS, -1, 0)
    for code, values in ((1, r_vals), (2, i_vals)):
        bad = np.concatenate(([0], np.cumsum(values <= 0)))
        gap[(gap == 0) & (bad[hi] > bad[lo])] = code
    sel = np.flatnonzero(gap == 0)

    counts = n_win[sel]
    lags = np.minimum(auto_lags(counts) if lag == "auto" else int(lag),
                      counts - 2)
    lx = np.log(np.where(i_vals > 0, i_vals, 1.0))
    ly = np.log(np.where(r_vals > 0, r_vals, 1.0))
    fit = ts.windowed_wls(common, lx, ly, eval_centers[sel], half, lo[sel],
                          hi[sel], lags=lags)
    degenerate = fit.var_x < ts.VAR_LOG_TOL
    gap[sel[degenerate]] = 3
    ok = ~degenerate
    if np.any(lags[ok] < 0):
        raise SingularDesign(f"lag={lag} must be nonnegative")
    _require_conditioned(fit.cond[ok])

    gaps = [(c, GAP_REASONS[k - 1])
            for c, k in zip(eval_centers.tolist(), gap.tolist()) if k > 0]
    if not ok.any():
        raise AllWindowsDegenerate(
            "no window produced a usable elasticity estimate")
    return RollingElasticity(eval_centers[sel[ok]], fit.slope[ok],
                             fit.se[ok], fit.n_eff[ok], window, gaps, alpha)


# ---------------------------------------------------------------------------
# regular-variation indices


@dataclass(frozen=True)
class IndexEstimate:
    """A local log-log index with min/max envelopes over the validation
    range and the constancy verdict."""

    hat: float
    minus: float
    plus: float
    accepted: bool
    fluctuation: float
    bootstrap_threshold: float
    profile_abscissa: tuple[float, ...] = ()
    profile_slopes: tuple[float, ...] = ()


@dataclass
class RVIndices:
    """Index diagnostics for the state factor (q), efficiency factor (xi),
    and learning-curve slope (rho)."""

    q: IndexEstimate | None = None
    xi: IndexEstimate | None = None
    rho: IndexEstimate | None = None

    @property
    def rv_accepted(self) -> bool:
        parts = [e.accepted for e in (self.q, self.xi, self.rho) if e is not None]
        return bool(parts) and all(parts)


def _local_index_profile(abscissa: np.ndarray, values: np.ndarray):
    """Rolling log-log slopes over windows of fixed width in log-abscissa.

    Returns (centers, slopes, masses, s, global_fit, resid_local) where
    masses are the kernel mass per window (the weights of the band-weighted
    mean), s the sorted abscissa, global_fit each sample's log-value on the
    global power-law fit, and resid_local each sample's residual from the
    window centered on it (from the global fit at the edges); the last
    three feed the wild bootstrap.
    """
    order = np.argsort(abscissa)
    s = np.asarray(abscissa, dtype=float)[order]
    v = np.asarray(values, dtype=float)[order]
    if np.any(s <= 0) or np.any(v <= 0):
        raise NonPositiveSeries("index estimation requires positive samples")
    span = math.log10(s[-1] / s[0])
    if span < 1.0:
        raise InsufficientRange(
            f"abscissa spans {span:.2f} decades; need at least one")
    ls = np.log(s)
    lv = np.log(v)
    half = 0.5 * RV_WINDOW_DECADES * math.log(10.0)
    slope_g, intercept_g, _, _ = ts.wls_slope(ls, lv, np.ones_like(ls))
    global_fit = intercept_g + slope_g * ls
    local_fit = global_fit.copy()
    lo, hi = ts.window_bounds(ls, ls, half, rtol=1e-12)
    sel = np.flatnonzero(hi - lo >= MIN_WINDOW_POINTS)
    fit = ts.windowed_wls(ls, ls, lv, ls[sel], half, lo[sel], hi[sel])
    ok = fit.var_x > 0
    if not ok.any():
        raise AllWindowsDegenerate("no index window had enough points")
    sel, slopes = sel[ok], fit.slope[ok]
    local_fit[sel] = fit.intercept[ok] + slopes * ls[sel]
    return np.exp(ls[sel]), slopes, fit.sw[ok], s, global_fit, lv - local_fit


def _index_estimate(abscissa, values, bootstrap_reps, seed) -> IndexEstimate:
    centers, slopes, masses, s, global_fit, resid_local = \
        _local_index_profile(abscissa, values)
    hat = float((masses * slopes).sum() / masses.sum())
    fluct = float(np.max(np.abs(slopes - hat)))

    # wild bootstrap of the fluctuation statistic under a constant index:
    # rebuild on the global power-law fit plus Rademacher-flipped LOCAL
    # residuals (global residuals would absorb breakpoint structure into
    # the null and mask genuine index changes)
    rng = np.random.default_rng(seed)
    boot_fluct = np.empty(bootstrap_reps)
    for b in range(bootstrap_reps):
        flips = rng.choice([-1.0, 1.0], size=s.size)
        lv_b = global_fit + flips * resid_local
        _, slopes_b, masses_b, *_ = _local_index_profile(s, np.exp(lv_b))
        hat_b = (masses_b * slopes_b).sum() / masses_b.sum()
        boot_fluct[b] = np.max(np.abs(slopes_b - hat_b))
    threshold = float(np.quantile(boot_fluct, RV_ACCEPT_QUANTILE))
    accepted = fluct <= threshold + 1e-12
    return IndexEstimate(hat, float(slopes.min()), float(slopes.max()),
                         accepted, fluct, threshold,
                         tuple(map(float, centers)), tuple(map(float, slopes)))


def rv_indices(phi_samples=None, eta_samples=None, neg_lprime_samples=None,
               bootstrap_reps: int = 999) -> RVIndices:
    """Estimate local power-law indices by log-derivative regressions.

    Each input is a pair of positive arrays (abscissa, values) spanning at
    least a decade.  The state-factor index q and efficiency index xi are
    the local slopes themselves; the learning-curve index is recovered
    from the slope of the negated loss derivative via rho = -1 - slope.
    Constancy (the regular-variation hypothesis) is accepted when the
    profile fluctuation stays below the ``RV_ACCEPT_QUANTILE`` quantile of
    a wild bootstrap, seeded 0, 1 and 2 for q, xi and rho.
    """
    out = RVIndices()
    if phi_samples is not None:
        out.q = _index_estimate(*phi_samples, bootstrap_reps, 0)
    if eta_samples is not None:
        out.xi = _index_estimate(*eta_samples, bootstrap_reps, 1)
    if neg_lprime_samples is not None:
        base = _index_estimate(*neg_lprime_samples, bootstrap_reps, 2)
        # rho = -1 - slope flips the envelope ordering
        out.rho = IndexEstimate(
            hat=-1.0 - base.hat, minus=-1.0 - base.plus,
            plus=-1.0 - base.minus, accepted=base.accepted,
            fluctuation=base.fluctuation,
            bootstrap_threshold=base.bootstrap_threshold,
            profile_abscissa=base.profile_abscissa,
            profile_slopes=tuple(-1.0 - s for s in base.profile_slopes))
    return out


# ---------------------------------------------------------------------------
# Potter bounds


@dataclass(frozen=True)
class PotterResult:
    passed: bool
    worst_pair: tuple[int, int] | None
    worst_margin: float  # max of |log L ratio| - eps|log I ratio| - log c

    def __bool__(self):
        return self.passed


def potter_check(I_values, L_values, eps: float,
                 c_eps: float) -> PotterResult:
    """Check |log(L_i/L_j)| <= eps |log(I_i/I_j)| + log(c_eps) over pairs.

    All pairs are scanned when their count is at most ``POTTER_MAX_PAIRS``;
    beyond that a seeded random subsample keeps the scan deterministic.  Returns
    the worst pair and its violation margin (positive means violated).
    """
    I = np.asarray(I_values, dtype=float)
    L = np.asarray(L_values, dtype=float)
    if I.shape != L.shape or I.ndim != 1:
        raise InsufficientRange("paired samples required")
    if np.any(I <= 0) or np.any(L <= 0):
        raise NonPositiveSeries("Potter check requires positive samples")
    if c_eps < 1.0:
        raise InsufficientRange("c_eps must be >= 1")
    n = I.size
    li = np.log(I)
    ll = np.log(L)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= POTTER_MAX_PAIRS:
        iu, ju = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(0)
        iu = rng.integers(0, n, size=POTTER_MAX_PAIRS)
        ju = rng.integers(0, n, size=POTTER_MAX_PAIRS)
        keep = iu != ju
        iu, ju = iu[keep], ju[keep]
    margin = np.abs(ll[iu] - ll[ju]) - eps * np.abs(li[iu] - li[ju]) \
        - math.log(c_eps)
    worst = int(np.argmax(margin))
    worst_margin = float(margin[worst])
    return PotterResult(worst_margin <= 1e-12,
                        (int(iu[worst]), int(ju[worst])),
                        worst_margin)


# ---------------------------------------------------------------------------
# instrumental-variable slope


@dataclass(frozen=True)
class IvSlopeResult:
    beta: float
    se: float
    first_stage_f: float


def iv_slope(Y: ts.TimeSeries, X: ts.TimeSeries, Z: ts.TimeSeries,
             lag: int | str = "auto") -> IvSlopeResult:
    """Instrumented log-log slope Cov(log Y, log Z) / Cov(log X, log Z).

    Consistent when the instrument is uncorrelated with the measurement
    error in X but correlated with the latent regressor.  The standard
    error is HAC on the instrument-weighted moment condition.  A first-stage
    F below 10 raises WeakInstrument.
    """
    ts.require_same_grid(Y, X)
    ts.require_same_grid(Z, X)
    for s in (Y, X, Z):
        if np.any(s.values <= 0):
            raise NonPositiveSeries(f"series {s.name!r} must be positive")
    ly = np.log(Y.values)
    lx = np.log(X.values)
    lz = np.log(Z.values)
    n = ly.size
    dy = ly - ly.mean()
    dx = lx - lx.mean()
    dz = lz - lz.mean()

    szx = float((dz * dx).sum())
    szz = float((dz * dz).sum())
    # first-stage F of X on Z
    r2 = szx ** 2 / (szz * float((dx * dx).sum())) if szz > 0 else 0.0
    f_stat = (n - 2) * r2 / max(1.0 - r2, 1e-300)
    if f_stat < WEAK_INSTRUMENT_F or abs(szx) < 1e-12:
        raise WeakInstrument("instrument too weak for a reliable slope",
                             first_stage_f=f_stat)
    beta = float((dz * dy).sum()) / szx

    # HAC (Bartlett) long-run variance of the moment m_t = z_t * e_t around
    # the IV solution
    eff_lag = auto_lag(n) if lag == "auto" else int(lag)
    if eff_lag < 0:
        raise SingularDesign(f"lag={eff_lag} must be nonnegative")
    m = dz * (dy - beta * dx)
    var_beta = float(ts._newey_west_meat(
        m[None, :], np.array([min(eff_lag, n - 1)]))[0]) / szx ** 2
    return IvSlopeResult(beta, math.sqrt(max(var_beta, 0.0)), float(f_stat))


def ols_loglog_slope(Y: ts.TimeSeries, X: ts.TimeSeries) -> float:
    """Plain log-log least-squares slope (attenuated under measurement
    error; the IV variant corrects it)."""
    ly = np.log(Y.values)
    lx = np.log(X.values)
    dx = lx - lx.mean()
    return float((dx * (ly - ly.mean())).sum() / (dx * dx).sum())


# ---------------------------------------------------------------------------
# Kalman local-linear-trend smoother


def kalman_trend(series: ts.TimeSeries, process_var: float,
                 obs_var: float) -> ts.TimeSeries:
    """Smooth a positive series with a local linear trend on its logarithm.

    State is (level, slope) of log(value); the forward filter is followed
    by a Rauch-Tung-Striebel backward pass and the smoothed level is
    exponentiated back.  The filter is initialized from the first two
    observations with a prior variance tied to the process noise, so an
    enormous observation variance reproduces the free trend from the
    initial state, and model-consistent noiseless data pass through
    unchanged.
    """
    if process_var <= 0 or obs_var <= 0:
        raise NonPositiveSeries("variances must be positive")
    if np.any(series.values <= 0):
        raise NonPositiveSeries(f"series {series.name!r} must be positive")
    y = np.log(series.values)
    t = series.t
    n = y.size
    if n < 3:
        raise TooShort("need at least 3 samples to smooth a trend")

    dt0 = t[1] - t[0]
    x = np.array([y[0], (y[1] - y[0]) / dt0])
    P = np.diag([process_var, process_var / dt0 ** 2])

    H = np.array([[1.0, 0.0]])
    xs_pred = np.empty((n, 2))
    Ps_pred = np.empty((n, 2, 2))
    xs_filt = np.empty((n, 2))
    Ps_filt = np.empty((n, 2, 2))
    Fs = np.empty((n, 2, 2))

    for k in range(n):
        if k == 0:
            F = np.eye(2)
            x_pred, P_pred = x, P
        else:
            dt = t[k] - t[k - 1]
            F = np.array([[1.0, dt], [0.0, 1.0]])
            Q = process_var * np.array([[dt, 0.0], [0.0, dt]])
            x_pred = F @ xs_filt[k - 1]
            P_pred = F @ Ps_filt[k - 1] @ F.T + Q
        Fs[k] = F
        xs_pred[k] = x_pred
        Ps_pred[k] = P_pred
        innov = y[k] - float((H @ x_pred)[0])
        S = float((H @ P_pred @ H.T)[0, 0]) + obs_var
        K = (P_pred @ H.T / S).ravel()
        xs_filt[k] = x_pred + K * innov
        Ps_filt[k] = (np.eye(2) - np.outer(K, H)) @ P_pred

    xs_smooth = np.empty_like(xs_filt)
    xs_smooth[-1] = xs_filt[-1]
    P_smooth = Ps_filt[-1]
    for k in range(n - 2, -1, -1):
        P_pred_next = Ps_pred[k + 1]
        G = Ps_filt[k] @ Fs[k + 1].T @ np.linalg.inv(P_pred_next)
        xs_smooth[k] = xs_filt[k] + G @ (xs_smooth[k + 1] - xs_pred[k + 1])
        P_smooth = Ps_filt[k] + G @ (P_smooth - P_pred_next) @ G.T

    return ts.TimeSeries(f"{series.name}_smoothed", series.unit, t,
                         np.exp(xs_smooth[:, 0]), None, series.snapshot_version)


# ---------------------------------------------------------------------------
# structural breaks


# Asymptotic critical values for the sup-Wald test of one coefficient with
# 15% trimming (Andrews 1993, as corrected 2003), the only trim tabulated.
SUP_WALD_TRIM = 0.15
SUP_WALD_CRITICAL_15 = {0.10: 7.17, 0.05: 8.85, 0.01: 12.35}


@dataclass
class BreakSegmentation:
    """Sorted breakpoints and the half-open segments they induce."""

    breakpoints: list[float]
    segments: list[tuple[float, float]]

    def to_json_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints),
                "segments": [list(s) for s in self.segments]}


def _sup_wald_mean_shift(y: np.ndarray, trim: float):
    """Sup of Wald statistics for a single mean shift at unknown time.

    Each candidate split compares pooled and split residual sums of squares;
    the statistic is the F form for one restriction, infinite where the
    split fits exactly.  All splits are scored at once from prefix sums;
    the first split with the largest score above -1 wins (NaN never does),
    else (-1.0, None).
    """
    n = y.size
    k_lo = max(int(math.floor(trim * n)), 2)
    k_hi = min(int(math.ceil((1 - trim) * n)), n - 2)
    if k_hi <= k_lo:
        return 0.0, None
    rss0 = float(((y - y.mean()) ** 2).sum())
    csum = np.cumsum(y)
    csum2 = np.cumsum(y * y)
    k = np.arange(k_lo, k_hi + 1)
    s1, q1 = csum[k_lo - 1:k_hi], csum2[k_lo - 1:k_hi]
    s2, q2 = csum[-1] - s1, csum2[-1] - q1
    rss1 = (q1 - s1 * s1 / k) + (q2 - s2 * s2 / (n - k))
    denom = rss1 / max(n - 2, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(denom > 0, (rss0 - rss1) / denom, math.inf)
    w = np.where(w > -1.0, w, -1.0)     # NaN never wins, as in a loop on >
    best = int(np.argmax(w))
    if not w[best] > -1.0:
        return -1.0, None
    return float(w[best]), k_lo + best


SUP_WALD_MIN_SEGMENT = 30  # fewest estimates a segment needs to be scanned


def sup_wald_breaks(slope_series: ts.SlopeSeries,
                    alpha: float = 0.05) -> BreakSegmentation:
    """Segment a local-slope process at mean shifts found by sup-Wald scans.

    A single-break scan at SUP_WALD_TRIM with the asymptotic critical value
    is applied recursively (binary segmentation) until no segment of at
    least SUP_WALD_MIN_SEGMENT points rejects stability.  No break yields
    one segment covering the whole window.
    """
    if alpha not in SUP_WALD_CRITICAL_15:
        raise TooShort(f"no tabulated critical value for alpha={alpha}; "
                       f"choose from {sorted(SUP_WALD_CRITICAL_15)}")
    y = np.asarray(slope_series.slope, dtype=float)
    t = np.asarray(slope_series.t, dtype=float)
    if y.size < SUP_WALD_MIN_SEGMENT:
        raise TooShort(f"need >= {SUP_WALD_MIN_SEGMENT} points, "
                       f"got {y.size}")
    critical = SUP_WALD_CRITICAL_15[alpha]

    breaks: list[int] = []

    def scan(lo: int, hi: int):
        if hi - lo < SUP_WALD_MIN_SEGMENT:
            return
        w, k = _sup_wald_mean_shift(y[lo:hi], SUP_WALD_TRIM)
        if k is None or w <= critical:
            return
        split = lo + k
        breaks.append(split)
        scan(lo, split)
        scan(split, hi)

    scan(0, y.size)
    breaks.sort()
    bp_times = [float(t[k]) for k in breaks]
    edges = [float(t[0])] + bp_times + [_segment_end(t[-1])]
    segments = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    return BreakSegmentation(bp_times, segments)


def segment_profile(prof: RollingElasticity) -> BreakSegmentation:
    """Regime segments of a rolling elasticity profile: sup-Wald breaks
    when the profile holds at least SUP_WALD_MIN_SEGMENT estimates, else
    one segment covering the whole profile."""
    if prof.t.size >= SUP_WALD_MIN_SEGMENT:
        return sup_wald_breaks(prof.to_slope_series())
    return BreakSegmentation(
        [], [(float(prof.t[0]), _segment_end(prof.t[-1]))])


def _segment_end(t_last: float) -> float:
    """Open end of a last segment that must still hold ``t_last``: 1e-9
    past it, or the next float where 1e-9 is below the float spacing (it is
    2.4e-7 at epoch seconds, where t_last + 1e-9 rounds back to t_last)."""
    return max(float(t_last) + 1e-9, float(np.nextafter(t_last, math.inf)))


# ---------------------------------------------------------------------------
# power analysis


def required_samples(sigma: float, tau: float, delta: float,
                     alpha: float, beta: float) -> int:
    """Effective samples needed to detect an elasticity margin delta.

    Ceiling of (z_{1-alpha} + z_{1-beta})^2 sigma^2 / (delta^2 tau^2), where
    sigma^2 is the log-rate noise variance and tau^2 the log-state spread
    in the window.
    """
    if min(sigma, tau, delta) <= 0:
        raise TooShort("sigma, tau, delta must be positive")
    if not (0 < alpha < 0.5 and 0 < beta < 0.5):
        raise TooShort("alpha and beta must lie in (0, 0.5)")
    z = normal_quantile(1 - alpha) + normal_quantile(1 - beta)
    return int(math.ceil(z * z * sigma * sigma / (delta * delta * tau * tau)))


# ---------------------------------------------------------------------------
# excitation diagnostic


def excitation_infimum(u: ts.TimeSeries, window: float) -> ts.SlopeSeries:
    """Rolling infimum of an allocation signal.

    Persistence of excitation has no agreed test threshold, so this is a
    diagnostic only: a window infimum bounded away from zero supports the
    elasticity-bound hypotheses, a vanishing one flags them.
    """
    half = window / 2.0
    lo, hi = ts.window_bounds(u.t, u.t, half)
    keep = hi - lo >= 2
    # every window holds its own center, so lo < hi; reduceat over the
    # interleaved bounds takes the minimum of u[lo:hi] at the even slots
    # (the appended sample keeps hi = n a valid index)
    bounds = np.column_stack([lo, hi]).ravel()
    mins = np.minimum.reduceat(np.append(u.values, np.inf), bounds)[::2]
    return ts.SlopeSeries(u.t[keep], mins[keep], np.zeros(int(keep.sum())),
                          half)


# ---------------------------------------------------------------------------
# antagonism diagnostics


@dataclass(frozen=True)
class AntagonismResult:
    viol: float
    sigma_I_hat: float
    sigma_x_hat: float
    cooperative_accepted: bool
    statistically_zero: bool
    residual_bound_ok: bool


def antagonism_diagnostics(partials, a_hat: float, theta: float,
                           residuals_I=(), residuals_x=(),
                           alpha: float = 0.05) -> AntagonismResult:
    """Test the cooperative-structure assumptions behind the envelopes.

    ``partials`` are estimated off-diagonal cross-partials as (value, se)
    pairs; the violation magnitude sums the negative parts.  The sector
    residuals are deviations from the cooperative fit whose positive parts
    bound the antagonistic channel.  The cooperative envelope is accepted
    when no partial is statistically negative and the residual bound
    sigma_I + sigma_x <= theta * a_hat holds with theta < 1.
    """
    if not 0 <= theta < 1:
        raise TooShort(f"theta={theta} must lie in [0, 1)")
    z = normal_quantile(1 - alpha)
    viol = 0.0
    stat_zero = True
    for value, se in partials:
        viol += max(0.0, -float(value))
        if value + z * se < 0:
            stat_zero = False
    sigma_i = float(max([max(0.0, float(r)) for r in residuals_I], default=0.0))
    sigma_x = float(max([max(0.0, float(r)) for r in residuals_x], default=0.0))
    bound_ok = sigma_i + sigma_x <= theta * a_hat + 1e-12
    return AntagonismResult(viol, sigma_i, sigma_x,
                            stat_zero and bound_ok, stat_zero, bound_ok)
