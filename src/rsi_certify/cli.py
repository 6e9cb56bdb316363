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
import functools
import json
import math
import os
import re
import sys
import types
import typing
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


# ---------------------------------------------------------------------------
# config declarations and their one reader: a command's config is a frozen
# declaration with one typed field per key, and a field without a default
# is a required key; a field typed ``object`` is a hook for library
# callers, not a config key.


def _declare(name: str, label: str | None = None, /, **keys):
    """A frozen declaration of ``keys``, each a type (required) or a (type,
    default) pair; ``label`` names an unknown key of a whole config."""
    return dataclasses.make_dataclass(name, [
        (key, spec[0], dataclasses.field(default=spec[1]))
        if isinstance(spec, tuple) else (key, spec)
        for key, spec in keys.items()],
        namespace={"label": label}, frozen=True, kw_only=True)


def _optional(tp):
    """An optional key: null or absent is None."""
    return tp | None, None


Loss = _declare("Loss", path=str, task=_optional(str))  # task: series name
SERIES_ROLES = ("capability", "capability_rate", "K", "C", "D_eff", "E",
                "P_fac", "T", "B_io", "B_mem", "P_use", "COP")
Series = _declare("Series", losses=_optional(tuple[Loss, ...]),
                  **dict.fromkeys(SERIES_ROLES, _optional(str)))
Estimation = _declare("Estimation", window=_optional(float),  # or --window
                      lag=(int | str, "auto"), alpha=(float, 0.05),
                      trim=(float, est.SUP_WALD_TRIM))
Wasserstein = _declare("Wasserstein", gamma=float, L_xi=float, L_rho=float,
                       delta_W=float, safety_delta=(float, 0.1))
Certify = _declare(
    "Certify", alpha=(float, 0.05), small_gain=(float, 0.0),
    envelope_tol=(float, 0.05), nonbinding_slack=(float, ct.NONBINDING_SLACK),
    nonbinding_fraction=(float, ct.NONBINDING_FRACTION),
    grad_norm=(float, 0.0), wasserstein=_optional(Wasserstein))
# ct.effective_exponents' arguments, in its order
Exponents = _declare("Exponents", **dict.fromkeys(
    ("alpha", "beta", "gamma", "alpha_tilde", "rho", "r", "chi_hat"), float))
Flags = _declare("Flags", **dict.fromkeys(
    ("capped_power", "logistic_data", "effort_floor"), (bool, False)))
RelErrors = _declare("RelErrors", **dict.fromkeys(env.DELTA_KEYS, float))
# what a config sets of a PhiSpec, per kind
PowerPhi = _declare("PowerPhi", kind=str, p=float, c=(float, 1.0),
                    domain_floor=_optional(float))
PHI_KINDS = {"power": PowerPhi, "power_log": PowerPhi,
             "tabulated": _declare("TabulatedPhi", kind=str,
                                   grid=tuple[float, ...],
                                   values=tuple[float, ...])}

# what the envelope is built from, in envelope's config and certify's
ENVELOPE_KEYS = {
    "series": Series,
    "cop_model": _optional(_declare("CopModel", T_hot=float, zeta_cop=float)),
    "hard_cap_b_mem": _optional(float), "hard_cap_p_use": _optional(float),
    "rel_errors": _optional(RelErrors)}
# estimate and certify share one config, so both refuse a key neither reads
Config = _declare(
    "Config", "config", **ENVELOPE_KEYS, seed=(int, 0),
    # a BenchmarkSpec or the path of one, read where series.losses needs it
    benchmark=_optional(dict | str),
    envelope_params=(env.EnvelopeParams, None),  # absent: no envelope layer
    phi=_optional(dyn.PhiSpec), estimation=(Estimation, Estimation()),
    certify=(Certify, Certify()), exponents=_optional(Exponents),
    capital=_optional(dyn.CapitalParams), flags=(Flags, Flags()))
PIPELINE_KEYS = tuple(f.name for f in dataclasses.fields(Config))
EnvelopeConfig = _declare("EnvelopeConfig", "config", **ENVELOPE_KEYS,
                          params=env.EnvelopeParams, alpha=(float, 0.05))
Ingest = _declare("Ingest", "config", files=tuple[_declare(
    "IngestFile", path=str, unit=_optional(str), name=_optional(str)), ...])
Scenario = _declare("Scenario", "scenario", phi=dyn.PhiSpec, I0=float,
                    horizon=float, gain=(float, 1.0),
                    threshold=_optional(float), rtol=(float, 1e-8),
                    name=(str, "trajectory"))
ControlSim = _declare("ControlSim", "control-sim", plant=sc.PlantScenario,
                      control=sc.ControlConfig,
                      policy=(sc.PolicyThresholds, sc.PolicyThresholds()))


@functools.cache
def _fields(cls) -> dict:
    """``cls``'s config keys: name -> (type, default), resolved once."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)
            if hints[f.name] is not object}


NUMBER = (int, float)
WORDS = {float: "a number", int: "an integer", bool: "true or false",
         str: "a string"}


@functools.cache
def _shape(tp):
    """``tp`` taken apart once: its origin (``tp`` itself if plain), its
    arguments less None, whether None is one of them, the Python type of
    the JSON values it reads, and its rule in words."""
    origin = typing.get_origin(tp) or tp
    args = typing.get_args(tp)
    arms = tuple(arg for arg in args if arg is not type(None))
    if origin is types.UnionType:
        words = " or ".join(_shape(arm)[4] for arm in arms)
    elif origin is tuple:
        words = "an array" + ("" if args[-1] is Ellipsis
                              else f" of {len(args)} entries")
    else:
        words = WORDS.get(tp, "a JSON object")
    kind = {float: NUMBER, int: NUMBER, bool: bool, str: str, tuple: list}
    return origin, arms, len(arms) < len(args), kind.get(origin, dict), words


def _takes(tp, value) -> bool:
    """Whether ``value`` is of the JSON kind that ``tp`` reads."""
    kind = _shape(tp)[3]
    return isinstance(value, kind) and not (kind is NUMBER
                                            and isinstance(value, bool))


def _read(tp, value, where: str):
    """``value``, the config's entry at key path ``where``, read as ``tp``,
    or a ConfigError that names ``where``.  A ``float`` takes a JSON number
    but not a bool (an integer reads as a float), an ``int`` an integral
    number (``5.0`` is ``5``), a ``bool`` true or false, a ``str`` a
    string, a ``tuple`` an array entry by entry, ``X | None`` null too (and
    ``{}`` for a section X: an empty section is an absent one), and a
    declaration an object whose keys must all be its fields."""
    origin, args, optional, _, words = _shape(tp)
    if origin is types.UnionType:
        if optional and (value is None or value == {}
                         and any(_takes(arm, value) for arm in args)):
            return None
        tp = next((arm for arm in args if _takes(arm, value)), tp)
        if tp in args:
            return _read(tp, value, where)
    elif _takes(tp, value):
        if tp in (bool, str, dict):
            return value
        if tp is float or tp is int and (isinstance(value, int)
                                         or value.is_integer()):
            return tp(value)
        if origin is tuple:
            if args[-1] is Ellipsis:
                args = (args[0],) * len(value)
            if len(args) == len(value):
                return tuple(_read(arg, v, f"{where}[{i}]")
                             for i, (arg, v) in enumerate(zip(args, value)))
        elif tp is dyn.PhiSpec:
            kind = _read(str, value.get("kind"), f"{where}.kind")
            if kind in PHI_KINDS:
                return _object(PHI_KINDS[kind], value, where, dyn.PhiSpec)
            raise ConfigError(f"config key '{where}.kind' must be one of "
                              f"{', '.join(PHI_KINDS)}, got {kind!r}")
        elif dataclasses.is_dataclass(tp):
            return _object(tp, value, where)
    raise ConfigError(f"config key {where!r} must be {words}, got {value!r}")


def _object(cls, d: dict, where: str, make=None):
    """``make`` (``cls`` by default) of the config object ``d``, whose keys
    must be ``cls``'s fields; an error of ``make``'s own is located."""
    fields = _fields(cls)
    for key in d:
        if key not in fields:
            raise ConfigError(f"unknown {where or cls.label} key {key!r}")
    kwargs = {}
    for name, (tp, default) in fields.items():
        path = f"{where}.{name}" if where else name
        if name in d:
            kwargs[name] = _read(tp, d[name], path)
        elif default is dataclasses.MISSING:
            raise ConfigError(f"missing config key {path!r}: {cls.__name__} "
                              f"has no default for {name!r}")
    try:
        return (make or cls)(**kwargs)
    except (ValueError, ToolkitError) as exc:
        text = str(exc)
        sep = "." if re.match(r"\w*", text).group() in fields else ": "
        raise ConfigError(f"{where}{sep}{text}") from None


def run_ingest(cfg, args, load) -> Outcome:
    loaded, failures = [], []
    for entry in _read(Ingest, cfg, "").files:
        try:
            s = load(entry.path, entry.unit)
            s = s.replace(name=entry.name or s.name)
            loaded.append((entry.path, s))
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


def _envelope(c, params, load, alpha) -> env.EnvelopeResult:
    """The service envelope of the config's series roles, COP model and
    hard caps; ``envelope`` and ``certify`` both build it here."""
    series = {arg: load(getattr(c.series, role), unit)
              for role, arg, unit in ENVELOPE_ROLES
              if getattr(c.series, role) is not None}
    return env.compute_envelope(
        params, **series,
        cop_model=c.cop_model and vars(c.cop_model),
        hard_cap_b_mem=c.hard_cap_b_mem, hard_cap_p_use=c.hard_cap_p_use,
        rel_errors=c.rel_errors and vars(c.rel_errors), alpha=alpha)


def run_envelope(cfg, args, load) -> Outcome:
    c = _read(EnvelopeConfig, cfg, "")
    result = _envelope(c, c.params, load, _alpha(args, c.alpha, "alpha"))
    return Outcome(
        EXIT_OK,
        f"static cap phi_pt_bar = {result.phi_pt_bar.value:.6e} nat/s "
        f"(sigma_eff = {c.params.sigma_eff} nat/bit, "
        f"snapshot {result.phi_svc.snapshot_version or 'n/a'})",
        {"envelope.json": _json_text(result.to_json_dict()),
         "envelope.csv": ts.csv_text({
             "t": result.phi_svc.t, "phi_pt_nat_per_s": result.phi_pt.values,
             "phi_svc_nat_per_s": result.phi_svc.values,
             "binding": result.binding})})


def _setting(args, option: str, value, key: str):
    """``--option`` if given, else ``value``, and the name it goes by."""
    flag = getattr(args, option, None)
    return (flag, f"--{option}") if flag is not None else (value, key)


def _alpha(args, value: float, key: str) -> float:
    alpha, name = _setting(args, "alpha", value, key)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {alpha!r}")
    return alpha


def _pipeline(cfg, args):
    """The config ``estimate`` and ``certify`` read, its rules between
    keys and of range checked, and the estimation window."""
    c = _read(Config, cfg, "")
    e = c.estimation
    window, name = _setting(args, "window", e.window, "estimation.window")
    if window is None:
        raise ConfigError("missing config key 'estimation.window'")
    if not 0 < window < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {window!r}")
    if e.trim != est.SUP_WALD_TRIM:     # the one tabulated trim
        raise ConfigError(f"estimation.trim must be 0.15, got {e.trim!r}")
    if e.lag != "auto" and (isinstance(e.lag, str) or e.lag < 0):
        raise ConfigError('estimation.lag must be "auto" or an integer '
                          f">= 0, got {e.lag!r}")
    if c.series.losses is not None and c.benchmark is None:
        raise ConfigError("series.losses needs config key 'benchmark'")
    if c.series.losses is None and c.series.capability is None:
        raise ConfigError("series needs a 'capability' or 'losses' key")
    if isinstance(c.benchmark, dict):   # weights must sum to 1 where used
        _object(cap.BenchmarkSpec, c.benchmark, "benchmark", dict)
    return c, window


def _profile(c, window, load, alpha):
    """What estimate and certify share: I and Idot (from loss series or a
    direct series), their snapshots, the rolling elasticity profile and
    its regime segmentation."""
    roles = c.series
    snapshots = {}
    if roles.losses is not None:
        spec = _read(cap.BenchmarkSpec, c.benchmark if isinstance(
            c.benchmark, dict) else load.document(c.benchmark), "benchmark")
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
    segs = est.segment_profile(prof)
    return i_series, idot, snapshots, prof, segs


def _elasticity_csv(prof) -> str:
    ci_lo, ci_hi = prof.ci
    return ts.csv_text({"t": prof.t, "p_hat": prof.values, "se": prof.ses,
                        "ci_lo": ci_lo, "ci_hi": ci_hi})


def run_estimate(cfg, args, load) -> Outcome:
    c, window = _pipeline(cfg, args)
    alpha = _alpha(args, c.estimation.alpha, "estimation.alpha")
    _, _, snapshots, prof, segs = _profile(c, window, load, alpha)
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


def _measured_upsilons(roles, load, window) -> dict[str, ct.UpsilonBand]:
    """Capital elasticities of any resource series present in the config."""
    if roles.K is None:
        return {}
    K = load(roles.K)
    out = {}
    for name, role in (("C", "C"), ("D", "D_eff"), ("E", "E")):
        if getattr(roles, role) is None:
            continue
        profile = ts.elasticity(load(getattr(roles, role)), K, window)
        out[name] = ct.UpsilonBand(float(profile.slope.min()),
                                   float(profile.slope.max()),
                                   float(profile.se[np.argmin(profile.slope)]),
                                   float(profile.se[np.argmax(profile.slope)]))
    return out


def run_certify(cfg, args, load) -> Outcome:
    c, window = _pipeline(cfg, args)
    knob, flags = c.certify, c.flags
    alpha = _alpha(args, knob.alpha, "certify.alpha")
    seed = args.seed if args.seed is not None else c.seed
    i_series, idot, snapshots, prof, segs = _profile(c, window, load, alpha)
    t_on, i_on, rate_on = est.shared_samples(i_series, idot)
    pos = (i_on > 0) & (rate_on > 0)
    i_pos, rate_pos = i_on[pos], rate_on[pos]
    phi_spec = c.phi

    # optional envelope layer
    envelope_check_res = None
    if c.envelope_params is not None:
        svc = _envelope(c, c.envelope_params, load, alpha).phi_svc
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
    if c.exponents is not None:
        effs = ct.effective_exponents(**vars(c.exponents))
        upsilons = _measured_upsilons(c.series, load, window)
    else:
        effs = ct.effective_exponents(0, 0, 0, 0, rho=0.0, r=1.0, chi_hat=0.0)
        upsilons = {}
    ptots = _segment_ptots(prof, segs, effs, upsilons)
    ptot_plus = max(p.plus for p in ptots)

    # optional capital channel and region classification
    capital_T = region_note = None
    if c.capital is not None:
        capital_T = c.capital.escape_time()
        try:
            region = dyn.classify_region(
                c.capital.zeta, ptot_plus,
                capped_power=flags.capped_power,
                logistic=flags.logistic_data,
                baseline_effort_floor=flags.effort_floor,
                capital=c.capital)
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
    if knob.grad_norm:
        extra_margins["manifold_distance"] = ct.manifold_distance(
            ptot_plus, knob.grad_norm)
    w = knob.wasserstein
    if w is not None:
        dm = ct.distribution_margin(ptot_plus, w.gamma, w.L_xi, w.L_rho,
                                    w.delta_W, w.safety_delta)
        extra_margins["wasserstein_margin"] = (1.0 - w.safety_delta
                                               - dm.worst_case_ptot)

    config_echo = {"config_path": str(args.config), "seed": seed,
                   "window": window, "alpha": alpha,
                   "sigma_eff": None if c.envelope_params is None
                   else c.envelope_params.sigma_eff,
                   # the sections as written
                   "certify": cfg.get("certify", {}),
                   "estimation": cfg.get("estimation", {})}
    if region_note:
        config_echo["region"] = region_note

    certificate = ct.decide(
        ptots, envelope_check_res, osgood, segs, alpha=alpha,
        nonbinding_slack=knob.nonbinding_slack,
        nonbinding_fraction=knob.nonbinding_fraction,
        event_bound=event_bound, capital_escape_time=capital_T,
        extra_margins=extra_margins, config_echo=config_echo,
        snapshot_versions=snapshots)

    document, text = certificate.document()
    artifacts = {"certificate.json": text + "\n",
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
    artifacts["report.txt"] = render_report(document)
    return Outcome(VERDICT_EXIT[certificate.verdict], artifacts["report.txt"],
                   artifacts)


def render_report(doc: dict) -> str:
    """The text report of a certificate document, as ``certificate.json``
    holds it: each number goes through ``float``, so the strings "inf",
    "-inf" and "nan" print as those numbers do."""
    lines = ["=" * 64, f"REGIME CERTIFICATE: {doc['verdict']}", "=" * 64,
             f"segments analyzed: {len(doc['segments'])}"]
    for i, s in enumerate(doc["segments"]):
        t_start, t_end = map(float, s["range"])
        lines.append(
            f"  [{i}] t in [{t_start:.6g}, {t_end:.6g}): "
            f"p_tot in [{float(s['ptot_minus']):.4f}, "
            f"{float(s['ptot_plus']):.4f}] "
            f"(se {float(s['se_minus']):.4f}/{float(s['se_plus']):.4f}), "
            f"superlinearity {s['tests']['superlinearity_minus']}, "
            f"envelope pass {float(s['envelope']['pass_fraction']):.3f}"
            + (" [disabled]" if s["envelope"]["disabled"] else ""))
    lines += ["envelope pass fraction: "
              f"{float(doc['envelope_pass_fraction']):.4f}",
              "state-factor reciprocal integral divergent: "
              f"{doc['osgood_divergent']}"]
    for name, value in sorted(doc["margins"].items()):
        shown = "not evaluated" if value is None else f"{float(value):.6g}"
        lines.append(f"margin {name}: {shown}")
    if doc["event_bound"] is not None:
        lines.append("event blow-up bound T_hat: "
                     f"{float(doc['event_bound']):.6g} s")
    if doc["capital_escape_time"] is not None:
        lines.append("capital escape time T_K: "
                     f"{float(doc['capital_escape_time'])!r} s")
    if doc["data_snapshot_versions"]:
        lines.append("data snapshots: " + ", ".join(
            f"{k}={v}" for k, v in sorted(doc["data_snapshot_versions"].items())))
    lines += [f"note: {note}" for note in doc["notes"]]
    if doc["config_echo"]:
        lines.append("config echo: " + json.dumps(doc["config_echo"],
                                                  sort_keys=True))
    lines.append("=" * 64)
    return "\n".join(lines) + "\n"


def run_simulate(cfg, args, load) -> Outcome:
    c = _read(Scenario, cfg, "")
    res = dyn.integrate(dyn.envelope_rhs(c.phi, c.gain), c.I0, c.horizon,
                        blowup_threshold=c.threshold, rtol=c.rtol)
    if args.format == "json":
        traj = ts.TimeSeries(c.name, "nat", res.t, res.I)
        artifacts = {"trajectory.json": _json_text(traj.to_json_dict())}
    else:
        artifacts = {"trajectory.csv": ts.csv_text({"t": res.t, "I": res.I})}
    artifacts["simulation.json"] = _json_text(
        {"status": res.status, "t_star": res.t_star, "n_steps": res.n_steps,
         "final_I": float(res.I[-1]), "final_t": float(res.t[-1])})
    return Outcome(EXIT_OK, f"simulation {res.status}"
                   + (f" at t* = {res.t_star:.9g} s" if res.t_star else ""),
                   artifacts)


def run_control_sim(cfg, args, load) -> Outcome:
    c = _read(ControlSim, cfg, "")
    log = sc.supervise(c.plant, c.control, c.policy)
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
    text = render_report(cfg)
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
