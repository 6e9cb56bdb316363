"""Pipeline orchestration: ingest, envelope, estimate, certify, simulate,
control-sim, report.

Each command is a function ``run_<cmd>(cfg, args, load) -> Outcome`` that
opens no file: series come through ``load``, and the deterministic
artifacts (same inputs, config and seed, same bytes) come back as text.
``main`` alone reads the config and writes the artifacts.  Exit codes: 0
for a nonsingular certificate or a completed run, 2 for
singular-admissible, 3 for inconclusive, 1 for any operational or usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import capability as cap
from . import certify as ct
from . import dynamics as dyn
from . import envelopes as env
from . import estimate as est
from . import series as ts
from .errors import ConfigError, ParseError, ToolkitError
from . import safectl as sc

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SINGULAR = 2
EXIT_INCONCLUSIVE = 3
VERDICT_EXIT = {ct.VERDICT_NONSINGULAR: EXIT_OK,
                ct.VERDICT_SINGULAR: EXIT_SINGULAR,
                ct.VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE}


class Outcome(NamedTuple):
    """What a command hands back to ``main``."""

    code: int
    message: str        # printed to stdout
    artifacts: dict     # output file name -> file text


def _load_json(path):
    """The JSON document in ``path``; a file that is not UTF-8 JSON raises
    a ParseError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: not a UTF-8 JSON document: {exc}") from None


class FileInputs:
    """``main``'s ``load``: ``load(path, unit)`` reads a CSV or JSON series,
    ``load.document(path)`` any other JSON file a config names.  A series
    that cannot be read raises a ParseError that names its file."""

    def __call__(self, path, unit=None) -> ts.TimeSeries:
        path = str(path)
        try:
            s = ts.read_json(path) if path.endswith(".json") \
                else ts.ingest_csv(path)
        except (ToolkitError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from None
        if unit is not None and s.unit != unit:
            raise ts.UnitMismatch(f"{path}: unit {s.unit!r}, expected {unit!r}")
        return s

    document = staticmethod(_load_json)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _section(cfg: dict, key: str, required: bool = False) -> dict:
    """The JSON object at ``cfg[key]``; {} if absent and not required."""
    value = cfg.get(key)
    if value is None:
        if required:
            raise ConfigError(f"missing config key {key!r}")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config key {key!r} must be a JSON object, "
                          f"got {type(value).__name__}")
    return value


def _number(value, key: str, kind=float):
    """A JSON number, integral for ``kind=int``; true, false and numeric
    text are refused too."""
    try:
        if isinstance(value, (bool, str)) or \
                kind is int and not float(value).is_integer():
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r} must be {what}, "
                          f"got {value!r}") from None


def _known(d: dict, allowed, where: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown {where} key {key!r}")


def _build(cls, d: dict, where: str, exclude=(), **convert):
    """A ``cls`` from the config object ``d``, whose keys must be fields of
    ``cls`` outside ``exclude``; ``convert`` maps a key to its converter.
    A ValueError of ``cls``'s own checks begins with the field it names,
    so ``where`` turns that into the config key (``control.Delta``)."""
    _known(d, {f.name for f in dataclasses.fields(cls)} - set(exclude), where)
    try:
        return cls(**{k: convert[k](v) if k in convert else v
                      for k, v in d.items()})
    except TypeError as exc:        # a missing field or a non-numeric value
        raise ConfigError(f"{where}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from None


# PhiSpec arguments a config may set, per kind
PHI_ARGS = {"power": ("p", "c", "domain_floor"),
            "power_log": ("p", "c", "domain_floor"),
            "tabulated": ("grid", "values")}


def _phi(d) -> dyn.PhiSpec:
    if not isinstance(d, dict):
        raise ConfigError("config key 'phi' must be a JSON object")
    kind = d.get("kind")
    names = PHI_ARGS.get(kind, ()) if isinstance(kind, str) else ()
    if names:                       # an unknown kind is PhiSpec's to name
        _known(d, ("kind", *names), f"phi ({kind})")
    return dyn.PhiSpec(kind, **{
        k: d[k] if kind == "tabulated" else _number(d[k], f"phi.{k}")
        for k in names if k in d})


def run_ingest(cfg, args, load) -> Outcome:
    loaded, failures = [], []
    for entry in cfg["files"]:
        try:
            s = load(entry["path"], entry.get("unit"))
            s = s.replace(name=entry.get("name", s.name))
            loaded.append((entry["path"], s))
        except ToolkitError as exc:     # load names the file
            failures.append(str(exc))
    if failures:
        raise ToolkitError("; ".join(failures))

    artifacts, summary = {}, []
    for path, s in sorted(loaded, key=lambda r: r[1].name):
        artifacts[f"{s.name}.json"] = _json_text(s.to_json_dict())
        summary.append({"path": path, "name": s.name, "unit": s.unit,
                        "snapshot_version": s.snapshot_version,
                        "n_samples": len(s)})
    artifacts["ingest_manifest.json"] = _json_text({"files": summary})
    return Outcome(EXIT_OK, f"ingested {len(summary)} series into {args.out}",
                   artifacts)


# (series role in the config, compute_envelope argument, expected unit)
ENVELOPE_ROLES = (("P_fac", "P_fac", "W"), ("T", "T", "K"),
                  ("B_io", "B_io", "bit/s"), ("B_mem", "B_mem", "bit/s"),
                  ("P_use", "P_use", "W"), ("COP", "cop", None))

# The keys estimate and certify read, per section.  The two commands share
# one config, so both refuse any other key.
SECTION_KEYS = {
    "series": ("capability", "capability_rate", "losses", "K", "C", "D_eff",
               "E", *(role for role, _, _ in ENVELOPE_ROLES)),
    "estimation": ("window", "lag", "alpha", "trim"),
    "certify": ("alpha", "small_gain", "envelope_tol", "nonbinding_slack",
                "nonbinding_fraction", "grad_norm", "wasserstein"),
    "exponents": ("alpha", "beta", "gamma", "alpha_tilde", "rho", "r",
                  "chi_hat"),       # effective_exponents' order
    "capital": ("K0", "r", "zeta", "delta"),
    "flags": ("capped_power", "logistic_data", "effort_floor")}
PIPELINE_KEYS = (*SECTION_KEYS, "seed", "benchmark", "envelope_params", "phi",
                 "cop_model", "hard_cap_b_mem", "hard_cap_p_use", "rel_errors")


def _envelope(cfg, params, load, alpha) -> env.EnvelopeResult:
    """The service envelope of the config's series roles, COP model and
    hard caps; ``envelope`` and ``certify`` both build it here."""
    roles = _section(cfg, "series", required=True)
    series = {arg: load(roles[role], unit)
              for role, arg, unit in ENVELOPE_ROLES if role in roles}
    return env.compute_envelope(
        params, **series, cop_model=cfg.get("cop_model"),
        hard_cap_b_mem=cfg.get("hard_cap_b_mem"),
        hard_cap_p_use=cfg.get("hard_cap_p_use"),
        rel_errors=cfg.get("rel_errors"), alpha=alpha)


def _envelope_params(cfg, key: str) -> env.EnvelopeParams:
    """EnvelopeParams from the config object ``cfg[key]``, whose entries
    must be its fields, as numbers and pairs of numbers."""
    def number(name):
        return lambda value: _number(value, f"{key}.{name}")

    def pair(name):
        def convert(value):
            if not (isinstance(value, list) and len(value) == 2):
                raise ConfigError(f"config key '{key}.{name}' must be a pair "
                                  f"of numbers, got {value!r}")
            return tuple(map(number(name), value))
        return convert

    ranges = ("T_range", "cop_range", "eta_elec_range", "eta_use_range")
    return _build(env.EnvelopeParams, _section(cfg, key, required=True), key,
                  P_max=number("P_max"),
                  sigma_eff=number("sigma_eff"),
                  **{name: pair(name) for name in ranges})


def run_envelope(cfg, args, load) -> Outcome:
    params = _envelope_params(cfg, "params")
    result = _envelope(cfg, params, load, _alpha(args, cfg, ""))
    return Outcome(
        EXIT_OK,
        f"static cap phi_pt_bar = {result.phi_pt_bar.value:.6e} nat/s "
        f"(sigma_eff = {params.sigma_eff} nat/bit, "
        f"snapshot {result.phi_svc.snapshot_version or 'n/a'})",
        {"envelope.json": _json_text(result.to_json_dict()),
         "envelope.csv": ts.csv_text({
             "t": result.phi_svc.t, "phi_pt_nat_per_s": result.phi_pt.values,
             "phi_svc_nat_per_s": result.phi_svc.values,
             "binding": result.binding})})


def _setting(args, option: str, section: dict, where: str, default=None):
    """``--option`` if given, else the config's ``where.option`` (top-level
    ``option`` when ``where`` is empty, or ``default``), as a number, and
    the name to report it under."""
    value = getattr(args, option, None)
    if value is not None:
        return value, f"--{option}"
    key = f"{where}.{option}" if where else option
    return _number(section.get(option, default), key), key


def _alpha(args, section: dict, where: str) -> float:
    alpha, name = _setting(args, "alpha", section, where, 0.05)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {alpha!r}")
    return alpha


def _profile(cfg, args, load, alpha):
    """What estimate and certify share: the window, I and Idot (from loss
    series or a direct series), their snapshots, the rolling elasticity
    profile and its regime segmentation.  A key that neither command reads
    is refused here, for both."""
    _known(cfg, PIPELINE_KEYS, "config")
    for where, keys in SECTION_KEYS.items():
        _known(_section(cfg, where), keys, where)
    est_cfg = _section(cfg, "estimation")
    window, name = _setting(args, "window", est_cfg, "estimation")
    if not 0 < window < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {window!r}")
    trim = _number(est_cfg.get("trim", est.SUP_WALD_TRIM), "estimation.trim")
    if trim != est.SUP_WALD_TRIM:   # the one trim with tabulated critical values
        raise ConfigError(f"estimation.trim must be 0.15, got {trim!r}")
    lag = est_cfg.get("lag", "auto")
    if lag != "auto":
        lag = _number(lag, "estimation.lag")
        if not (lag >= 0 and lag.is_integer()):
            raise ConfigError('estimation.lag must be "auto" or an integer '
                              f">= 0, got {lag!r}")
        lag = int(lag)
    roles = _section(cfg, "series", required=True)
    snapshots = {}
    if "losses" in roles:
        bench = cfg["benchmark"]
        spec = cap.BenchmarkSpec.from_json_dict(
            bench if isinstance(bench, dict) else load.document(bench))
        losses = []
        for entry in roles["losses"]:
            s = load(entry["path"])
            losses.append(s.replace(name=entry.get("task", s.name)))
            snapshots[f"loss:{losses[-1].name}"] = losses[-1].snapshot_version
        series_cap = cap.canonicalize(cap.loss_index(losses, spec), spec)
        i_series, idot = series_cap.I, series_cap.Idot
    else:
        i_series = load(roles["capability"], "nat")
        snapshots["capability"] = i_series.snapshot_version
        if "capability_rate" in roles:
            idot = load(roles["capability_rate"], "nat/s")
        else:
            idot = cap.capability_rate(i_series)
    prof = est.rolling_elasticity(i_series, idot, window, lag=lag, alpha=alpha)
    segs = est.segment_profile(prof)
    return window, i_series, idot, snapshots, prof, segs


def _elasticity_csv(prof) -> str:
    ci_lo, ci_hi = prof.ci
    return ts.csv_text({"t": prof.t, "p_hat": prof.values, "se": prof.ses,
                        "ci_lo": ci_lo, "ci_hi": ci_hi})


def run_estimate(cfg, args, load) -> Outcome:
    alpha = _alpha(args, _section(cfg, "estimation"), "estimation")
    window, _, _, snapshots, prof, segs = _profile(cfg, args, load, alpha)
    return Outcome(
        EXIT_OK,
        f"{prof.t.size} elasticity windows, "
        f"{len(segs.breakpoints)} break(s)",
        {"elasticity.json": _json_text({
            "alpha": alpha,
            "window_seconds": window,
            "estimates": [e.to_json_dict() for e in prof.estimates],
            "gaps": [{"t": t, "reason": r} for t, r in prof.gaps],
            "breaks": segs.to_json_dict(),
            "snapshot_versions": snapshots}),
         "elasticity.csv": _elasticity_csv(prof)})


def _segment_ptots(prof: est.RollingElasticity, segs, effs, upsilons):
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


def _measured_upsilons(cfg, load, window) -> dict[str, ct.UpsilonBand]:
    """Capital elasticities of any resource series present in the config."""
    roles = _section(cfg, "series", required=True)
    if "K" not in roles:
        return {}
    K = load(roles["K"])
    out = {}
    for name, role in (("C", "C"), ("D", "D_eff"), ("E", "E")):
        if role not in roles:
            continue
        profile = ts.elasticity(load(roles[role]), K, window)
        out[name] = ct.UpsilonBand(float(profile.slope.min()),
                                   float(profile.slope.max()),
                                   float(profile.se[np.argmin(profile.slope)]),
                                   float(profile.se[np.argmax(profile.slope)]))
    return out


def run_certify(cfg, args, load) -> Outcome:
    cert_cfg = _section(cfg, "certify")
    alpha = _alpha(args, cert_cfg, "certify")
    knob = {key: _number(cert_cfg.get(key, default), f"certify.{key}")
            for key, default in (("small_gain", 0.0), ("envelope_tol", 0.05),
                                 ("nonbinding_slack", ct.NONBINDING_SLACK),
                                 ("nonbinding_fraction", ct.NONBINDING_FRACTION),
                                 ("grad_norm", 0.0))}
    seed = _number(args.seed if args.seed is not None else cfg.get("seed", 0),
                   "seed", int)
    window, i_series, idot, snapshots, prof, segs = _profile(cfg, args, load,
                                                             alpha)
    # _profile refused any other flags key
    flags = dict.fromkeys(SECTION_KEYS["flags"], False) | _section(cfg, "flags")
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ConfigError(f"config key 'flags.{key}' must be true or "
                              f"false, got {value!r}")
    t_on, i_on, rate_on = est.shared_samples(i_series, idot)
    pos = (i_on > 0) & (rate_on > 0)
    i_pos, rate_pos = i_on[pos], rate_on[pos]
    phi_cfg = _section(cfg, "phi")
    phi_spec = _phi(phi_cfg) if phi_cfg else None

    # optional envelope layer
    envelope_check_res = None
    env_cfg = _section(cfg, "envelope_params")
    if "envelope_params" in cfg:
        svc = _envelope(cfg, _envelope_params(cfg, "envelope_params"), load,
                        alpha).phi_svc
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
            small_gain=knob["small_gain"], tol=knob["envelope_tol"])
        snapshots["phi_svc"] = svc.snapshot_version

    # reciprocal-integral classification of the state factor
    if phi_spec is not None:
        floor = max(phi_spec.domain_floor,
                    float(np.min(i_series.values[i_series.values > 0],
                                 initial=1.0)))
        osgood = dyn.osgood_classify(phi_spec, max(floor, 1e-12))
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
    e = _section(cfg, "exponents")
    if e:
        effs = ct.effective_exponents(*(_number(e.get(k), f"exponents.{k}")
                                        for k in SECTION_KEYS["exponents"]))
        upsilons = _measured_upsilons(cfg, load, window)
    else:
        effs = ct.effective_exponents(0, 0, 0, 0, rho=0.0, r=1.0, chi_hat=0.0)
        upsilons = {}
    ptots = _segment_ptots(prof, segs, effs, upsilons)
    ptot_plus = max(p.plus for p in ptots)

    # optional capital channel and region classification
    capital_T = region_note = None
    c = _section(cfg, "capital")
    if c:
        params_k = dyn.CapitalParams(
            *(_number(c.get(k), f"capital.{k}") for k in ("K0", "r", "zeta")),
            _number(c.get("delta", 0.0), "capital.delta"))
        capital_T = params_k.escape_time()
        try:
            region = dyn.classify_region(
                params_k.zeta, ptot_plus,
                capped_power=flags["capped_power"],
                logistic=flags["logistic_data"],
                baseline_effort_floor=flags["effort_floor"],
                capital=params_k)
            bound = "" if region.bound is None else f", T_K={region.bound!r}"
            region_note = f"region {region.region}: {region.conclusion}{bound}"
        except ToolkitError as exc:
            region_note = f"region classification unavailable: {exc}"

    # event-level bound for a singular verdict
    event_bound = None
    delta = max(p.minus for p in ptots) - 1.0
    if delta > 0.0:
        a0 = float(np.min(rate_pos / i_pos ** (1.0 + delta)))
        event_bound = ct.event_blowup_bound(float(i_pos[-1]), delta, a0)

    extra_margins = {}
    if knob["grad_norm"]:
        extra_margins["manifold_distance"] = ct.manifold_distance(
            ptot_plus, knob["grad_norm"])
    w = _section(cert_cfg, "wasserstein")
    if w:
        ball_keys = ("gamma", "L_xi", "L_rho", "delta_W")
        _known(w, (*ball_keys, "safety_delta"), "certify.wasserstein")
        ball = [_number(w.get(key), f"certify.wasserstein.{key}")
                for key in ball_keys]
        safety = _number(w.get("safety_delta", 0.1),
                         "certify.wasserstein.safety_delta")
        dm = ct.distribution_margin(ptot_plus, *ball, safety)
        extra_margins["wasserstein_margin"] = 1.0 - safety - dm.worst_case_ptot

    config_echo = {"config_path": str(args.config), "seed": seed,
                   "window": window, "alpha": alpha,
                   "sigma_eff": env_cfg.get("sigma_eff", 1.0) if env_cfg
                   else None,
                   "certify": cert_cfg,
                   "estimation": _section(cfg, "estimation")}
    if region_note:
        config_echo["region"] = region_note

    certificate = ct.decide(
        ptots, envelope_check_res, osgood, segs, alpha=alpha,
        nonbinding_slack=knob["nonbinding_slack"],
        nonbinding_fraction=knob["nonbinding_fraction"],
        event_bound=event_bound, capital_escape_time=capital_T,
        extra_margins=extra_margins, config_echo=config_echo,
        snapshot_versions=snapshots)

    artifacts = {"certificate.json": certificate.to_json() + "\n",
                 "elasticity.csv": _elasticity_csv(prof)}
    if envelope_check_res is not None:
        artifacts["envelope_slack.csv"] = ts.csv_text({
            "t": envelope_check_res.t,
            "slack_fraction": envelope_check_res.slack,
            "passed": envelope_check_res.passed})
    segments = certificate.segments
    artifacts["segments.csv"] = ts.csv_text({
        "t_start": [r.t_start for r in segments],
        "t_end": [r.t_end for r in segments],
        "ptot_minus": [r.ptot.minus for r in segments],
        "ptot_plus": [r.ptot.plus for r in segments]})
    artifacts["report.txt"] = render_report(certificate)
    return Outcome(VERDICT_EXIT[certificate.verdict], artifacts["report.txt"],
                   artifacts)


def render_report(cert: ct.Certificate) -> str:
    lines = ["=" * 64, f"REGIME CERTIFICATE: {cert.verdict}", "=" * 64,
             f"segments analyzed: {len(cert.segments)}"]
    for i, r in enumerate(cert.segments):
        lines.append(
            f"  [{i}] t in [{r.t_start:.6g}, {r.t_end:.6g}): "
            f"p_tot in [{r.ptot.minus:.4f}, {r.ptot.plus:.4f}] "
            f"(se {r.ptot.se_minus:.4f}/{r.ptot.se_plus:.4f}), "
            f"superlinearity {r.super_test_minus.label}, "
            f"envelope pass {r.envelope_pass_fraction:.3f}"
            + (" [disabled]" if r.envelope_disabled else ""))
    lines += [f"envelope pass fraction: {cert.envelope_pass_fraction:.4f}",
              "state-factor reciprocal integral divergent: "
              f"{cert.osgood_divergent}"]
    for name, value in sorted(cert.margins.items()):
        shown = "not evaluated" if value is None else f"{value:.6g}"
        lines.append(f"margin {name}: {shown}")
    if cert.event_bound is not None:
        lines.append(f"event blow-up bound T_hat: {cert.event_bound:.6g} s")
    if cert.capital_escape_time is not None:
        lines.append(f"capital escape time T_K: {cert.capital_escape_time!r} s")
    if cert.data_snapshot_versions:
        lines.append("data snapshots: " + ", ".join(
            f"{k}={v}" for k, v in sorted(cert.data_snapshot_versions.items())))
    lines += [f"note: {note}" for note in cert.notes]
    if cert.config_echo:
        lines.append("config echo: " + json.dumps(cert.config_echo,
                                                  sort_keys=True))
    lines.append("=" * 64)
    return "\n".join(lines) + "\n"


SCENARIO_KEYS = ("phi", "gain", "I0", "horizon", "threshold", "rtol", "name")


def run_simulate(cfg, args, load) -> Outcome:
    phi = _phi(_section(cfg, "phi", required=True))
    _known(cfg, SCENARIO_KEYS, "scenario")
    for key in ("I0", "horizon"):
        if key not in cfg:
            raise ConfigError(f"missing config key {key!r}")
    threshold = cfg.get("threshold")
    res = dyn.integrate(
        dyn.envelope_rhs(phi, _number(cfg.get("gain", 1.0), "gain")),
        _number(cfg["I0"], "I0"), _number(cfg["horizon"], "horizon"),
        blowup_threshold=None if threshold is None
        else _number(threshold, "threshold"),
        rtol=_number(cfg.get("rtol", 1e-8), "rtol"))
    if args.format == "json":
        traj = ts.TimeSeries(cfg.get("name", "trajectory"), "nat", res.t,
                             res.I)
        artifacts = {"trajectory.json": _json_text(traj.to_json_dict())}
    else:
        artifacts = {"trajectory.csv": ts.csv_text({"t": res.t, "I": res.I})}
    artifacts["simulation.json"] = _json_text(
        {"status": res.status, "t_star": res.t_star, "n_steps": res.n_steps,
         "final_I": float(res.I[-1]), "final_t": float(res.t[-1])})
    return Outcome(EXIT_OK, f"simulation {res.status}"
                   + (f" at t* = {res.t_star:.9g} s" if res.t_star else ""),
                   artifacts)


def _integer(key: str):
    """A ``_build`` converter to an integral JSON number."""
    return lambda value: _number(value, key, int)


def _as_given(key: str, optional: bool = False):
    """A ``_build`` converter that refuses all but a JSON number (null too
    where ``optional``), true and false included, and passes the number on
    as given: an integer stays one in the control log."""
    def check(value):
        if value is not None or not optional:
            _number(value, key)
        return value
    return check


def _tuple_of(key: str, entry=_as_given):
    """A ``_build`` converter of a JSON array to a tuple whose entry i is
    converted by ``entry(f"{key}[{i}]")``."""
    return lambda values: tuple(entry(f"{key}[{i}]")(value)
                                for i, value in enumerate(values))


def run_control_sim(cfg, args, load) -> Outcome:
    def numbers(where, *names, optional=()):
        return {k: _as_given(f"{where}.{k}", k in optional) for k in names}

    _known(cfg, ("plant", "control", "policy"), "control-sim")
    scenario = _build(sc.PlantScenario, _section(cfg, "plant", required=True),
                      "plant", phi=_phi,
                      antagonism=_tuple_of("plant.antagonism"),
                      n_steps=_integer("plant.n_steps"),
                      benchmark_every=_integer("plant.benchmark_every"),
                      **numbers("plant", "I0", "phi_svc_true", "phi_svc_meas",
                                "u_ref", "state_error", "latency", "ptot_hat",
                                optional=("phi_svc_meas", "ptot_hat")))
    config = _build(sc.ControlConfig, _section(cfg, "control", required=True),
                    "control", exclude=("alpha_fn",),
                    r_u=_tuple_of("control.r_u"),
                    u_box=_tuple_of("control.u_box", _tuple_of),
                    **numbers("control", "I_bar", "kappa", "Delta", "tau_bar",
                              "L_h", "eps_I", "slack_weight"))
    policy = _build(sc.PolicyThresholds, _section(cfg, "policy"), "policy",
                    exclude=("slack_tol",),
                    escalate_consecutive_slack=_integer(
                        "policy.escalate_consecutive_slack"),
                    **numbers("policy", "governance_delta",
                              "antagonism_theta"))
    log = sc.supervise(scenario, config, policy)
    return Outcome(
        EXIT_OK,
        f"control loop {log.final_status}; max overshoot "
        f"{log.max_overshoot:.3e} nat",
        {"control_log.jsonl": log.to_jsonl(),
         "control_summary.json": _json_text(
             {"final_status": log.final_status,
              "max_overshoot": log.max_overshoot,
              "max_violation_rate": log.max_violation_rate,
              "n_steps": len(log.steps)})})


def run_report(cfg, args, load) -> Outcome:
    text = render_report(ct.Certificate.from_json_dict(cfg))
    return Outcome(EXIT_OK, text, {"report.txt": text})


# ---------------------------------------------------------------------------
# entry point

# subcommand -> (run function, help, its options besides --config/--out)
COMMANDS = {
    "ingest": (run_ingest, "validate and store telemetry series", ()),
    "envelope": (run_envelope, "compute service-rate ceilings", ()),
    "estimate": (run_estimate, "rolling elasticities and breaks",
                 ("window", "alpha")),
    "certify": (run_certify, "full certification pipeline",
                ("window", "alpha", "seed")),
    "simulate": (run_simulate, "integrate a growth scenario", ("format",)),
    "control-sim": (run_control_sim, "closed-loop throttling run", ()),
    "report": (run_report, "render a certificate as text", ()),
}
OPTIONS = {"window": {"type": float, "help": "estimation window (s)"},
           "alpha": {"type": float, "help": "test level"},
           "seed": {"type": int, "help": "seed echoed in the certificate"},
           "format": {"choices": ("json", "csv"), "default": "csv",
                      "help": "trajectory output format"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsi-certify",
        description="Certify growth regimes from telemetry: elasticities, "
                    "service envelopes, blow-up analytics, and barrier "
                    "throttling simulations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
        p.set_defaults(run=run)
    return parser


PARSER = build_parser()    # argparse keeps no state between parse_args calls


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:   # --help: 0; usage error: 1 (2 is singular)
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        # every warning the command raises, each time it raises it: printed
        # once per distinct text, without the raising source line
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            outcome = args.run(cfg, args, FileInputs())
        os.makedirs(args.out, exist_ok=True)
        for name, text in outcome.artifacts.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
    except ToolkitError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, KeyError, ValueError, TypeError, AttributeError,
            ArithmeticError) as exc:
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
    for text in dict.fromkeys(str(w.message) for w in raised):
        print(f"warning [{args.command}]: {text}", file=sys.stderr)
    print(outcome.message)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
