"""The config reader and the I/O shell of the commands: each is a
``run_<cmd>(cfg, args, load) -> Outcome`` that reads its config, calls the
library (``pipeline`` for estimate and certify) and renders its artifacts
as text, the same bytes for the same inputs, config and seed.  It opens no
file (series come through ``load``); ``main`` alone reads the config and
writes the artifacts.  Exit codes: 0 for a nonsingular certificate or a
completed run, 2 for singular-admissible, 3 for inconclusive, 1 for any
operational or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
import types
import typing
import warnings
from typing import Literal, NamedTuple

from . import capability as cap
from . import certify as ct
from . import dynamics as dyn
from . import envelopes as env
from . import estimate as est
from . import pipeline
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


class FileInputs:
    """``main``'s ``load``: ``load(path, unit)`` reads a CSV or JSON series,
    ``load.document(path)`` any other JSON file a config names.  A series
    that cannot be read raises a ParseError that names its file.  One
    instance serves one command: the CSV files it reads share the
    timestamp columns already parsed (``ts.ingest_csv``'s ``clocks``)."""

    def __init__(self):
        self.clocks = {}

    def __call__(self, path, unit=None) -> ts.TimeSeries:
        path = str(path)
        try:
            s = ts.read_json(path) if path.endswith(".json") \
                else ts.ingest_csv(path, clocks=self.clocks)
        except (ToolkitError, TypeError, ValueError) as exc:
            text = str(exc)     # a document that is not JSON names its file
            raise ParseError(text if text.startswith(f"{path}: ")
                             else f"{path}: {text}") from None
        if unit is not None and s.unit != unit:
            raise ts.UnitMismatch(f"{path}: unit {s.unit!r}, expected {unit!r}")
        return s

    document = staticmethod(ts.read_json_document)


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
                      lag=(int | Literal["auto"], "auto"), alpha=(float, 0.05),
                      # the one trim with tabulated critical values
                      trim=(Literal[est.SUP_WALD_TRIM], est.SUP_WALD_TRIM))
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
PHI_KIND = Literal[tuple(PHI_KINDS)]

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
# certificate.json as report reads it: a non-finite number is written as
# one of three strings
NUM = float | Literal["inf", "-inf", "nan"]
LABEL = Literal["reject", "fail_to_reject"]
CertificateDoc = _declare(
    "CertificateDoc", "certificate", verdict=Literal[tuple(VERDICT_EXIT)],
    segments=tuple[_declare(
        "Segment", range=tuple[NUM, NUM], components_minus=dict,
        components_plus=dict, **dict.fromkeys(
            ("ptot_minus", "ptot_plus", "se_minus", "se_plus"), NUM),
        tests=_declare("Tests", superlinearity_plus=LABEL,
                       superlinearity_minus=LABEL, margin_minus=NUM),
        envelope=_declare("SegmentEnvelope", pass_fraction=NUM,
                          nonbinding=bool, disabled=bool)), ...],
    envelope_pass_fraction=NUM, margins=_declare(
        "Margins", ptot_margin=NUM, manifold_distance=NUM | None,
        wasserstein_margin=NUM | None),
    osgood_divergent=bool, event_bound=NUM | None,
    capital_escape_time=NUM | None, config_echo=dict,
    data_snapshot_versions=dict, notes=tuple[str, ...])


@functools.cache
def _fields(cls) -> dict:
    """``cls``'s config keys: name -> (type, default), resolved once."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)
            if hints[f.name] is not object}


NUMBER = (int, float)
UNIONS = (types.UnionType, typing.Union)   # X | None, X | Literal[...]
# a scalar type: the Python type of the JSON values it reads, and its rule
SCALARS = {float: (NUMBER, "a number"), sc.Unbounded: (NUMBER, "a number"),
           int: (NUMBER, "an integer"), bool: (bool, "true or false"),
           str: (str, "a string")}
# a number type: the numbers it takes, and its rule for one it refuses
NUMBER_RULES = {float: (math.isfinite, "a finite number"),
                sc.Unbounded: (lambda x: not math.isnan(x),
                               "a number or ±Infinity")}


@functools.cache
def _shape(tp):
    """``tp`` taken apart once: its origin (``tp`` itself if plain), its
    arguments less None, whether None is one of them, the Python type of
    the JSON values it reads, and its rule in words."""
    origin = typing.get_origin(tp) or tp
    args = typing.get_args(tp)
    arms = tuple(arg for arg in args if arg is not type(None))
    kind, words = SCALARS.get(origin, (dict, "a JSON object"))
    if origin in UNIONS:
        words = " or ".join(_shape(arm)[4] for arm in arms)
    elif origin is Literal:
        kind = SCALARS[type(args[0])][0]
        words = "one of " * (len(args) > 1) + ", ".join(map(repr, args))
    elif origin is tuple:
        kind, words = list, "an array" + (
            "" if args[-1] is Ellipsis else f" of {len(args)} entries")
    return origin, arms, len(arms) < len(args), kind, words


def _takes(tp, value) -> bool:
    """Whether ``value`` is of the JSON kind that ``tp`` reads."""
    kind = _shape(tp)[3]
    return isinstance(value, kind) and not (kind is NUMBER
                                            and isinstance(value, bool))


def _float(number) -> float:
    """A JSON number as a float: NaN for an integer beyond the float range,
    so that no number key takes it."""
    try:
        return float(number)
    except OverflowError:
        return math.nan


def _read(tp, value, where: str):
    """``value``, the config's entry at key path ``where``, read as ``tp``,
    or a ConfigError that names ``where``.  A ``float`` takes a finite JSON
    number but not a bool (an integer reads as a float), an ``Unbounded``
    ``±Infinity`` too, an ``int`` an integral number (``5.0`` is ``5``), a
    ``bool`` true or false, a ``str`` a string, a ``Literal`` one of its
    values, of the same JSON kind, a ``tuple`` an array entry by entry, a
    union the value by the arm of its JSON kind, ``X | None`` null too (and
    ``{}`` for a section X: an empty section is an absent one), and a
    declaration an object whose keys must all be its fields.  No key takes
    NaN, or an integer beyond the float range."""
    origin, args, optional, _, words = _shape(tp)
    if origin in UNIONS:
        if optional and (value is None or value == {}
                         and any(_takes(arm, value) for arm in args)):
            return None
        tp = next((arm for arm in args if _takes(arm, value)), tp)
        if tp in args:
            return _read(tp, value, where)
    elif _takes(tp, value):
        if origin is Literal:
            if value in args:
                return args[args.index(value)]
        elif tp in (bool, str, dict):
            return value
        elif tp in NUMBER_RULES:
            admits, words = NUMBER_RULES[tp]
            if admits(number := _float(value)):
                return number
        elif tp is int and _float(value).is_integer():
            return int(value)
        elif origin is tuple:
            if args[-1] is Ellipsis:
                args = (args[0],) * len(value)
            if len(args) == len(value):
                return tuple(_read(arg, v, f"{where}[{i}]")
                             for i, (arg, v) in enumerate(zip(args, value)))
        elif tp is dyn.PhiSpec:
            kind = _read(PHI_KIND, value.get("kind"), f"{where}.kind")
            return _object(PHI_KINDS[kind], value, where, dyn.PhiSpec)
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
        artifacts[f"{s.name}.json"] = ts.json_text(s.to_json_dict())
        summary.append({"path": path, "name": s.name, "unit": s.unit,
                        "snapshot_version": s.snapshot_version,
                        "n_samples": len(s)})
    artifacts["ingest_manifest.json"] = ts.json_text({"files": summary})
    return Outcome(EXIT_OK, f"ingested {len(summary)} series into {args.out}",
                   artifacts)


def run_envelope(cfg, args, load) -> Outcome:
    c = _read(EnvelopeConfig, cfg, "")
    result = pipeline.envelope(c, c.params, load, pipeline.alpha_in_range(
        *_setting(args, "alpha", c.alpha, "alpha")))
    return Outcome(
        EXIT_OK,
        f"static cap phi_pt_bar = {result.phi_pt_bar.value:.6e} nat/s "
        f"(sigma_eff = {c.params.sigma_eff} nat/bit, "
        f"snapshot {result.phi_svc.snapshot_version or 'n/a'})",
        {"envelope.json": ts.json_text(result.to_json_dict()),
         "envelope.csv": ts.csv_text({
             "t": result.phi_svc.t, "phi_pt_nat_per_s": result.phi_pt.values,
             "phi_svc_nat_per_s": result.phi_svc.values,
             "binding": result.binding})})


def _setting(args, option: str, value, key: str):
    """``--option`` if given, else ``value``, and the name it goes by."""
    flag = getattr(args, option, None)
    return (flag, f"--{option}") if flag is not None else (value, key)


def _pipeline_config(cfg, args, load, section: str):
    """The config ``estimate`` and ``certify`` read, its rules between
    keys and of range checked, the estimation window, the test level of
    ``section`` and the BenchmarkSpec that indexes series.losses."""
    c = _read(Config, cfg, "")
    e = c.estimation
    window, name = _setting(args, "window", e.window, "estimation.window")
    if window is None:
        raise ConfigError("missing config key 'estimation.window'")
    pipeline.window_in_range(window, name)
    if e.lag != "auto" and e.lag < 0:
        raise ConfigError('estimation.lag must be "auto" or an integer '
                          f">= 0, got {e.lag!r}")
    if c.series.losses is not None and c.benchmark is None:
        raise ConfigError("series.losses needs config key 'benchmark'")
    if c.series.losses is None and c.series.capability is None:
        raise ConfigError("series needs a 'capability' or 'losses' key")
    if isinstance(c.benchmark, dict):   # weights must sum to 1 where used
        _object(cap.BenchmarkSpec, c.benchmark, "benchmark", dict)
    alpha = pipeline.alpha_in_range(*_setting(
        args, "alpha", getattr(c, section).alpha, f"{section}.alpha"))
    spec = None if c.series.losses is None else _read(
        cap.BenchmarkSpec, c.benchmark if isinstance(c.benchmark, dict)
        else load.document(c.benchmark), "benchmark")
    return c, window, alpha, spec


def _elasticity_csv(prof) -> str:
    ci_lo, ci_hi = prof.ci
    return ts.csv_text({"t": prof.t, "p_hat": prof.values, "se": prof.ses,
                        "ci_lo": ci_lo, "ci_hi": ci_hi})


def run_estimate(cfg, args, load) -> Outcome:
    c, window, alpha, spec = _pipeline_config(cfg, args, load, "estimation")
    _, _, snapshots, prof, segs = pipeline.profile(c, window, load, alpha,
                                                   spec)
    return Outcome(
        EXIT_OK,
        f"{prof.t.size} elasticity windows, {len(segs.breakpoints)} break(s)",
        {"elasticity.json": ts.json_text({
            "alpha": alpha, "window_seconds": window,
            "estimates": [e.to_json_dict() for e in prof.estimates],
            "gaps": [{"t": t, "reason": r} for t, r in prof.gaps],
            "breaks": segs.to_json_dict(),
            "snapshot_versions": snapshots}),
         "elasticity.csv": _elasticity_csv(prof)})


def run_certify(cfg, args, load) -> Outcome:
    c, window, alpha, spec = _pipeline_config(cfg, args, load, "certify")
    config_echo = {"config_path": str(args.config),
                   "seed": _setting(args, "seed", c.seed, "seed")[0],
                   "window": window, "alpha": alpha,
                   "sigma_eff": None if c.envelope_params is None
                   else c.envelope_params.sigma_eff,
                   # the sections as written
                   "certify": cfg.get("certify", {}),
                   "estimation": cfg.get("estimation", {})}
    certificate, (_, _, _, prof, _), check = pipeline.certify(
        c, window, alpha, load, spec, config_echo)
    document = certificate.to_json_dict()
    artifacts = {"certificate.json": ts.json_text(document),
                 "elasticity.csv": _elasticity_csv(prof)}
    if check is not None:
        artifacts["envelope_slack.csv"] = ts.csv_text({
            "t": check.t, "slack_fraction": check.slack,
            "passed": check.passed})
    artifacts["segments.csv"] = ts.csv_text({
        "t_start": [r.t_start for r in certificate.segments],
        "t_end": [r.t_end for r in certificate.segments],
        "ptot_minus": [r.ptot.minus for r in certificate.segments],
        "ptot_plus": [r.ptot.plus for r in certificate.segments]})
    artifacts["report.txt"] = render_report(document)
    return Outcome(VERDICT_EXIT[certificate.verdict], artifacts["report.txt"],
                   artifacts)


def render_report(doc: dict) -> str:
    """The text report of a certificate document, the dict ``certify``
    writes or ``certificate.json`` read back: each number goes through
    ``float`` and the config echo through ``json_text``, so a non-finite
    float and the string ``json_text`` writes for it print alike."""
    lines = ["=" * 64, f"REGIME CERTIFICATE: {doc['verdict']}", "=" * 64,
             f"segments analyzed: {len(doc['segments'])}"]
    if doc["segments"]:     # bounds as offsets from one origin, in full
        t0 = float(doc["segments"][0]["range"][0])
        lines.append(f"segment bounds: seconds from t0 = {t0!r}")
    for i, s in enumerate(doc["segments"]):
        t_start, t_end = (float(t) - t0 for t in s["range"])
        lines.append(
            f"  [{i}] t - t0 in [{t_start!r}, {t_end!r}): "
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
        lines.append("config echo: "
                     + ts.json_text(doc["config_echo"], indent=None).rstrip())
    lines.append("=" * 64)
    return "\n".join(lines) + "\n"


def run_simulate(cfg, args, load) -> Outcome:
    c = _read(Scenario, cfg, "")
    res = dyn.integrate(dyn.envelope_rhs(c.phi, c.gain), c.I0, c.horizon,
                        blowup_threshold=c.threshold, rtol=c.rtol)
    if args.format == "json":
        traj = ts.TimeSeries(c.name, "nat", res.t, res.I)
        artifacts = {"trajectory.json": ts.json_text(traj.to_json_dict())}
    else:
        artifacts = {"trajectory.csv": ts.csv_text({"t": res.t, "I": res.I})}
    artifacts["simulation.json"] = ts.json_text(
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
         "control_summary.json": ts.json_text(
             {"final_status": log.final_status,
              "max_overshoot": log.max_overshoot,
              "max_violation_rate": log.max_violation_rate,
              "n_steps": len(log.steps)})})


def run_report(cfg, args, load) -> Outcome:
    try:
        _read(CertificateDoc, cfg, "")
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
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
        cfg = ts.read_json_document(args.config)
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
