"""The certify derivation, pure: ``profile`` (shared with ``estimate``)
is I, its rate, the rolling elasticity profile and its segmentation;
``certify`` adds the envelope check (Phi fitted from the envelope if the
config sets none), the Osgood class, per-segment p_tot, the capital region
note, the event bound and the margins, then ``certify.decide``.  Series
come through ``load``; nothing here opens a file or writes text.
"""

from __future__ import annotations

import math

import numpy as np

from . import capability as cap
from . import certify as ct
from . import dynamics as dyn
from . import envelopes as env
from . import estimate as est
from . import series as ts
from .errors import ConfigError, ToolkitError
from .estimate import alpha_in_range

# (series role in the config, compute_envelope argument, expected unit)
ENVELOPE_ROLES = (("P_fac", "P_fac", "W"), ("T", "T", "K"),
                  ("B_io", "B_io", "bit/s"), ("B_mem", "B_mem", "bit/s"),
                  ("P_use", "P_use", "W"), ("COP", "cop", None))


def window_in_range(window, name: str) -> float:
    """``window`` if positive and finite, else a ConfigError on ``name``."""
    if not 0 < window < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {window!r}")
    return window


def envelope(c, params, load, alpha) -> env.EnvelopeResult:
    """The service envelope of the config's series roles, COP model and
    hard caps; the ``envelope`` command and ``certify`` both build it here."""
    alpha_in_range(alpha, "alpha")
    series = {arg: load(getattr(c.series, role), unit)
              for role, arg, unit in ENVELOPE_ROLES
              if getattr(c.series, role) is not None}
    return env.compute_envelope(
        params, **series,
        cop_model=c.cop_model and vars(c.cop_model),
        hard_cap_b_mem=c.hard_cap_b_mem, hard_cap_p_use=c.hard_cap_p_use,
        rel_errors=c.rel_errors and vars(c.rel_errors), alpha=alpha)


def profile(c, window, load, alpha, spec) -> tuple:
    """I and Idot (from loss series indexed by the BenchmarkSpec ``spec``,
    or a direct series), their snapshots, the rolling elasticity profile
    and its regime segmentation."""
    window_in_range(window, "window"), alpha_in_range(alpha, "alpha")
    roles = c.series
    snapshots = {}
    if roles.losses is not None:
        losses = []
        for entry in roles.losses:
            s = load(entry.path)
            losses.append(s.replace(name=entry.task or s.name))
            snapshots[f"loss:{losses[-1].name}"] = losses[-1].snapshot_version
        series_cap = cap.canonicalize(cap.loss_index(losses, spec), spec)
        i_series, idot = series_cap.I, series_cap.Idot
    else:
        i_series = load(roles.capability, "nat")
        snapshots["capability"] = i_series.snapshot_version
        if roles.capability_rate is not None:
            idot = load(roles.capability_rate, "nat/s")
        else:
            idot = cap.capability_rate(i_series)
    prof = est.rolling_elasticity(i_series, idot, window,
                                  lag=c.estimation.lag, alpha=alpha)
    return i_series, idot, snapshots, prof, est.segment_profile(prof)


def segment_ptots(prof: est.RollingElasticity, segs, effs, upsilons):
    """Per-segment elasticity bounds: the rolling profile's infimum and
    supremum, which already reflect realized resource co-movement, plus the
    resource terms of measured capital elasticities (a conservative double
    count)."""
    res_minus, res_plus, var_minus, var_plus = ct.resource_terms(effs,
                                                                 upsilons)
    out = []
    # segments start at profile timestamps, so none is empty
    for start, stop in np.searchsorted(prof.t, segs.segments):
        lo = start + int(np.argmin(prof.values[start:stop]))
        hi = start + int(np.argmax(prof.values[start:stop]))
        comp_minus = {"p_hat_inf": float(prof.values[lo]), **res_minus}
        comp_plus = {"p_hat_sup": float(prof.values[hi]), **res_plus}
        out.append(ct.PtotEstimate(
            minus=float(sum(comp_minus.values())),
            plus=float(sum(comp_plus.values())),
            se_minus=math.hypot(prof.ses[lo], math.sqrt(var_minus)),
            se_plus=math.hypot(prof.ses[hi], math.sqrt(var_plus)),
            components_minus=comp_minus,
            components_plus=comp_plus))
    return out


def _measured_upsilons(roles, load, window) -> dict[str, ct.UpsilonBand]:
    """Capital elasticities of any resource series present in the config."""
    if roles.K is None:
        return {}
    K = load(roles.K)
    out = {}
    for name, role in (("C", "C"), ("D", "D_eff"), ("E", "E")):
        if getattr(roles, role) is None:
            continue
        fit = ts.elasticity(load(getattr(roles, role)), K, window)
        lo, hi = np.argmin(fit.slope), np.argmax(fit.slope)
        out[name] = ct.UpsilonBand(float(fit.slope[lo]), float(fit.slope[hi]),
                                   float(fit.se[lo]), float(fit.se[hi]))
    return out


def certify(c, window, alpha, load, spec, config_echo) -> tuple:
    """The certificate of the read config ``c``, which echoes ``config_echo``
    (plus any capital region note), what ``profile`` gave for ``c``, and the
    envelope check (None without an envelope layer)."""
    knob, flags = c.certify, c.flags
    shared = profile(c, window, load, alpha, spec)
    i_series, idot, snapshots, prof, segs = shared
    t_on, i_on, rate_on = est.shared_samples(i_series, idot)
    pos = (i_on > 0) & (rate_on > 0)
    i_pos, rate_pos = i_on[pos], rate_on[pos]
    phi_spec = c.phi

    # optional envelope layer
    envelope_check_res = None
    if c.envelope_params is not None:
        svc = envelope(c, c.envelope_params, load, alpha).phi_svc
        common, ji, si = np.intersect1d(t_on, svc.t, return_indices=True)
        i_env, rate_env, svc_env = i_on[ji], rate_on[ji], svc.values[si]
        if phi_spec is None:
            # least-squares power law of Idot / phi_svc against I (log-log)
            with np.errstate(divide="ignore"):
                ratio = rate_env / svc_env
                fit = (i_env > 0) & (ratio > 0)
                slope, intercept, _, _ = ts.wls_slope(
                    np.log(i_env[fit]), np.log(ratio[fit]), np.ones(fit.sum()))
            phi_spec = dyn.PhiSpec.power(max(slope, 0.0), math.exp(intercept))
        phi_of_i = phi_spec(np.maximum(i_env, phi_spec.domain_floor))
        envelope_check_res = ct.envelope_check(
            ts.TimeSeries("Idot", "nat/s", common, rate_env),
            ts.TimeSeries("Phi_of_I", "nat", common, phi_of_i),
            ts.TimeSeries("phi_svc", "nat/s", common, svc_env),
            small_gain=knob.small_gain, tol=knob.envelope_tol)
        snapshots = {**snapshots, "phi_svc": svc.snapshot_version}

    # reciprocal-integral classification of the state factor
    if phi_spec is not None:
        i_min = np.min(i_series.values[i_series.values > 0], initial=1.0)
        osgood = dyn.osgood_classify(
            phi_spec, max(phi_spec.domain_floor, float(i_min), 1e-12))
    else:
        # no envelope layer: classify the fitted direct feedback law
        # dI/dt <= a0 * I^p with p the profile supremum and a0 the tightest
        # gain covering every sample
        sup_p = float(prof.values.max())
        if sup_p <= 1.0 or not i_pos.size:
            osgood = dyn.OsgoodResult(True, math.inf, sup_p)
        else:
            a0_fit = float(np.max(rate_pos / i_pos ** sup_p))
            osgood = dyn.osgood_classify(dyn.PhiSpec.power(sup_p, a0_fit),
                                         float(i_pos.min()))

    # per-segment totals
    if c.exponents is not None:
        effs = ct.effective_exponents(**vars(c.exponents))
        upsilons = _measured_upsilons(c.series, load, window)
    else:
        effs = ct.effective_exponents(0, 0, 0, 0, rho=0.0, r=1.0, chi_hat=0.0)
        upsilons = {}
    ptots = segment_ptots(prof, segs, effs, upsilons)
    ptot_plus = max(p.plus for p in ptots)

    # optional capital channel and region classification
    capital_T = None
    if c.capital is not None:
        capital_T = c.capital.escape_time()
        try:
            region = dyn.classify_region(
                c.capital.zeta, ptot_plus, capped_power=flags.capped_power,
                logistic=flags.logistic_data,
                baseline_effort_floor=flags.effort_floor, capital=c.capital)
            bound = "" if region.bound is None else f", T_K={region.bound!r}"
            region_note = f"region {region.region}: {region.conclusion}{bound}"
        except ToolkitError as exc:
            region_note = f"region classification unavailable: {exc}"
        config_echo = {**config_echo, "region": region_note}

    # event-level bound for a singular verdict
    event_bound = None
    delta = max(p.minus for p in ptots) - 1.0
    if delta > 0.0:
        a0 = float(np.min(rate_pos / i_pos ** (1.0 + delta)))
        event_bound = ct.event_blowup_bound(float(i_pos[-1]), delta, a0)

    extra_margins = {}
    if knob.grad_norm:
        extra_margins["manifold_distance"] = ct.manifold_distance(
            ptot_plus, knob.grad_norm)
    w = knob.wasserstein
    if w is not None:
        dm = ct.distribution_margin(ptot_plus, w.gamma, w.L_xi, w.L_rho,
                                    w.delta_W, w.safety_delta)
        extra_margins["wasserstein_margin"] = (1.0 - w.safety_delta
                                               - dm.worst_case_ptot)

    certificate = ct.decide(
        ptots, envelope_check_res, osgood, segs, alpha=alpha,
        nonbinding_slack=knob.nonbinding_slack,
        nonbinding_fraction=knob.nonbinding_fraction,
        event_bound=event_bound, capital_escape_time=capital_T,
        extra_margins=extra_margins, config_echo=config_echo,
        snapshot_versions=snapshots)
    return certificate, shared, envelope_check_res
