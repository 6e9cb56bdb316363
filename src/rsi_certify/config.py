"""Config declarations and their one reader, ``read``: a command's config
is a frozen declaration with one typed field per key, and a field without
a default is a required key; a field typed ``object`` is a hook for
library callers, not a config key.  ``report`` reads certificate.json
with ``read`` into ``certify.Certificate``, its one declaration."""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import types
import typing
from typing import Literal

from . import certify as ct
from . import dynamics as dyn
from . import envelopes as env
from . import estimate as est
from . import safectl as sc
from .errors import ConfigError, ToolkitError


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
    envelope_tol=(float, ct.DEFAULT_ENVELOPE_TOL),
    nonbinding_slack=(float, ct.NONBINDING_SLACK),
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


def read(tp, value, where: str = ""):
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
            return read(tp, value, where)
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
                return tuple(read(arg, v, f"{where}[{i}]")
                             for i, (arg, v) in enumerate(zip(args, value)))
        elif tp is dyn.PhiSpec:
            kind = read(PHI_KIND, value.get("kind"), f"{where}.kind")
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
            kwargs[name] = read(tp, d[name], path)
        elif default is dataclasses.MISSING:
            raise ConfigError(f"missing config key {path!r}: {cls.__name__} "
                              f"has no default for {name!r}")
    try:
        return (make or cls)(**kwargs)
    except (ValueError, ToolkitError) as exc:
        text = str(exc)
        sep = "." if re.match(r"\w*", text).group() in fields else ": "
        raise ConfigError(f"{where}{sep}{text}") from None

