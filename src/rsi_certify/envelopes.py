"""Calibrated service-rate ceilings from metered facility quantities.

The chain is: facility power -> usable board power (electrical efficiency,
cooling split, use efficiency) -> bit-erasure ceiling at k_B*T*ln2 joules
per bit -> nat/s service ceilings.  The power-temperature ceiling competes
with I/O and memory bandwidth through a pointwise minimum, and a static
worst-case cap with first-order and log-normal uncertainty bands supports
desk analysis when only ranges are known.

Every ceiling emitted here is a service-rate upper bound meant to multiply
the state factor in downstream rate checks; nothing here ever divides by an
envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import series as ts
from .errors import (
    NegativeDelta,
    NegativePower,
    NonPositiveTemperature,
    TemperatureOrdering,
)
from .estimate import alpha_in_range, normal_quantile

K_B = 1.380649e-23  # J/K, exact SI value
LN2 = math.log(2.0)

DELTA_KEYS = ("delta_use", "delta_elec", "delta_cop", "delta_P", "delta_T")


@dataclass(frozen=True)
class EnvelopeParams:
    """Facility calibration: efficiency and COP ranges, temperature band,
    and the plant power cap.

    ``sigma_eff`` (nat per irreversible bit) is a user calibration with no
    universal value; the default 1 nat/bit is echoed in every report so the
    ceiling scale is always explicit.
    """

    P_max: float
    T_range: tuple[float, float]
    cop_range: tuple[float, float]
    eta_elec_range: tuple[float, float] = (1.0, 1.0)
    eta_use_range: tuple[float, float] = (1.0, 1.0)
    sigma_eff: float = 1.0

    def __post_init__(self):
        if self.P_max < 0:
            raise NegativePower(f"P_max={self.P_max!r} must be >= 0")
        if self.T_range[0] <= 0:
            raise NonPositiveTemperature("T_min must be positive")
        for name, (lo, hi) in (("T_range", self.T_range),
                               ("cop_range", self.cop_range),
                               ("eta_elec_range", self.eta_elec_range),
                               ("eta_use_range", self.eta_use_range)):
            if lo > hi:
                raise ValueError(f"{name} is not ordered: {lo} > {hi}")
        if self.cop_range[0] < 0:
            raise ValueError("cop_range cannot be negative")
        for name, (lo, hi) in (("eta_elec_range", self.eta_elec_range),
                               ("eta_use_range", self.eta_use_range)):
            if not (0 < lo <= hi <= 1):
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.sigma_eff <= 0:
            raise ValueError("sigma_eff must be positive")


@dataclass(frozen=True)
class UncertaintyBand:
    """First-order relative band plus a log-normal interval.

    ``first_order`` is the sum of the five relative errors;
    ``interval_factors`` are exp(+-z_{1-alpha/2} * s) with s^2 the sum of
    squared errors.
    """

    first_order: float
    s: float
    interval_factors: tuple[float, float]
    alpha: float


@dataclass(frozen=True)
class StaticCap:
    """Worst-case constant power-temperature ceiling with its band."""

    value: float
    band: UncertaintyBand | None = None


@dataclass
class EnvelopeResult:
    """Per-sample ceilings (all nat/s), the binding channel per sample, and
    the static worst-case cap."""

    phi_pt: ts.TimeSeries
    phi_io: ts.TimeSeries | None
    phi_mem: ts.TimeSeries | None
    phi_svc: ts.TimeSeries
    binding: list[str]
    phi_pt_bar: StaticCap
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        ceilings = {"phi_pt": self.phi_pt, "phi_svc": self.phi_svc,
                    "phi_io": self.phi_io, "phi_mem": self.phi_mem}
        return {"binding": self.binding, "warnings": self.warnings,
                "phi_pt_bar": asdict(self.phi_pt_bar),
                **{name: None if s is None else s.to_json_dict()
                   for name, s in ceilings.items()}}


# ---------------------------------------------------------------------------
# pointwise operations


def cop_carnot(T: float, T_hot: float, zeta_cop: float) -> float:
    """Carnot-relative cooling performance: zeta_cop * T / (T_hot - T)."""
    if not 0 < zeta_cop < 1:
        raise ValueError("zeta_cop must lie in (0, 1)")
    if T <= 0:
        raise NonPositiveTemperature(f"T={T} must be positive")
    if T >= T_hot:
        raise TemperatureOrdering(f"need T < T_hot, got T={T}, T_hot={T_hot}")
    return zeta_cop * T / (T_hot - T)


def usable_power(P_fac, T, cop, eta_elec: float, eta_use: float):
    """Board-level usable power: eta_use * COP/(1+COP) * eta_elec * P_fac.

    Temperature enters only through the supplied COP; the argument is kept
    so callers can pass the operating point alongside.  Accepts scalars or
    arrays; never exceeds eta_elec * P_fac.
    """
    P_fac = np.asarray(P_fac, dtype=float)
    cop = np.asarray(cop, dtype=float)
    if np.any(P_fac < 0):
        raise NegativePower("facility power must be nonnegative")
    if np.any(cop < 0):
        raise ValueError("COP must be nonnegative")
    for name, eta in (("eta_elec", eta_elec), ("eta_use", eta_use)):
        if not 0 < eta <= 1:
            raise ValueError(f"{name} must lie in (0, 1]")
    out = eta_use * (cop / (1.0 + cop)) * eta_elec * P_fac
    return float(out) if out.ndim == 0 else out


def erasure_cap(P_use, T):
    """Maximum irreversible bit-erasure rate P_use / (k_B * T * ln2) [bit/s]."""
    P_use = np.asarray(P_use, dtype=float)
    T = np.asarray(T, dtype=float)
    if np.any(T <= 0):
        raise NonPositiveTemperature("temperature must be positive")
    if np.any(P_use < 0):
        raise NegativePower("usable power must be nonnegative")
    out = P_use / (K_B * T * LN2)
    return float(out) if out.ndim == 0 else out


def phi_pt(P_use: ts.TimeSeries, T: ts.TimeSeries,
           sigma_eff: float = 1.0) -> ts.TimeSeries:
    """Power-temperature service ceiling sigma_eff/(k_B ln2) * P_use/T [nat/s]."""
    ts.require_same_grid(P_use, T)
    if np.any(T.values <= 0):
        raise NonPositiveTemperature("temperature series must be positive")
    if np.any(P_use.values < 0):
        raise NegativePower("usable power series must be nonnegative")
    vals = (sigma_eff / (K_B * LN2)) * P_use.values / T.values
    return ts.TimeSeries("phi_pt", "nat/s", P_use.t, vals, None,
                         P_use.snapshot_version)


def phi_svc(phi_pt_series: ts.TimeSeries,
            B_io: ts.TimeSeries | None,
            B_mem: ts.TimeSeries | None,
            sigma_eff: float = 1.0):
    """Pointwise service minimum min{phi_PT, sigma_eff*B_io, sigma_eff*B_mem}.

    Returns (series, binding flags, warnings).  A missing bandwidth channel
    degrades the minimum to the remaining channels and is reported as an
    explicit warning rather than a silent infinity.
    """
    channels = [("pt-limited", phi_pt_series.values)]
    warns = []
    for label, s in (("io-limited", B_io), ("mem-limited", B_mem)):
        if s is None:
            warns.append(f"unconstrained channel: no {label.split('-')[0]} "
                         "bandwidth series supplied")
            continue
        ts.require_same_grid(s, phi_pt_series)
        channels.append((label, sigma_eff * s.values))
    stacked = np.vstack([v for _, v in channels])
    argmin = np.argmin(stacked, axis=0)
    svc = stacked[argmin, np.arange(stacked.shape[1])]
    binding = [channels[i][0] for i in argmin]
    out = ts.TimeSeries("phi_svc", "nat/s", phi_pt_series.t, svc, None,
                        phi_pt_series.snapshot_version)
    return out, binding, warns


def propagate_uncertainty(rel_errors: dict, alpha: float = 0.05) -> UncertaintyBand:
    """Combine the five relative calibration errors.

    First-order band is their plain sum; the log-normal interval treats them
    as independent log-scale standard deviations, s^2 = sum(delta_i^2),
    at a test level ``alpha`` in (0, 1).
    """
    alpha_in_range(alpha, "alpha")
    missing = [k for k in DELTA_KEYS if k not in rel_errors]
    if missing:
        raise NegativeDelta(f"missing relative errors: {missing}")
    deltas = [float(rel_errors[k]) for k in DELTA_KEYS]
    if any(d < 0 for d in deltas):
        raise NegativeDelta(f"relative errors must be nonnegative: {deltas}")
    first_order = float(sum(deltas))
    s = math.sqrt(sum(d * d for d in deltas))
    z = normal_quantile(1.0 - alpha / 2.0)
    try:
        upper = math.exp(z * s)
    except OverflowError:   # past the largest float, as static_cap overflows
        upper = math.inf
    return UncertaintyBand(first_order, s, (math.exp(-z * s), upper), alpha)


def static_cap(params: EnvelopeParams, rel_errors: dict | None = None,
               alpha: float = 0.05) -> StaticCap:
    """Worst-case constant ceiling from range extremes.

    Uses the most permissive end of every range (max efficiencies, max COP,
    min temperature, plant power cap), so the result upper-bounds the
    instantaneous power-temperature ceiling over all admissible operation.
    """
    cop_max = params.cop_range[1]
    value = (params.sigma_eff / (K_B * LN2)) \
        * (params.eta_use_range[1] * params.eta_elec_range[1] / params.T_range[0]) \
        * (cop_max / (1.0 + cop_max)) * params.P_max
    band = None if rel_errors is None else propagate_uncertainty(rel_errors, alpha)
    return StaticCap(float(value), band)


# ---------------------------------------------------------------------------
# ceiling-induced elasticity caps


@dataclass(frozen=True)
class CeilingCaps:
    """Per-channel upper elasticities of service ceilings with respect to
    capital, and their minimum (the binding cap)."""

    e_io: float
    e_mem: float
    e_pow: float

    @property
    def e_ceil(self) -> float:
        return min(self.e_io, self.e_mem, self.e_pow)


def ceiling_elasticities(K: ts.TimeSeries, B_io: ts.TimeSeries,
                         B_mem: ts.TimeSeries, P_use_over_T: ts.TimeSeries,
                         window: float) -> CeilingCaps:
    """Upper (rolling max) elasticity of each service channel w.r.t. capital.

    Works purely on log-slopes, so the dimension-bridging constants between
    compute and service rates cancel.  ``window`` is the local-regression
    window in seconds.
    """
    caps = []
    for s in (B_io, B_mem, P_use_over_T):
        prof = ts.elasticity(s, K, window)
        caps.append(float(np.max(prof.slope)))
    return CeilingCaps(*caps)


# ---------------------------------------------------------------------------
# assembly


def compute_envelope(params: EnvelopeParams,
                     P_fac: ts.TimeSeries | None = None,
                     T: ts.TimeSeries | None = None,
                     B_io: ts.TimeSeries | None = None,
                     B_mem: ts.TimeSeries | None = None,
                     P_use: ts.TimeSeries | None = None,
                     cop: ts.TimeSeries | None = None,
                     cop_model: dict | None = None,
                     hard_cap_b_mem: float | None = None,
                     hard_cap_p_use: float | None = None,
                     rel_errors: dict | None = None,
                     alpha: float = 0.05) -> EnvelopeResult:
    """Build the full per-sample envelope from metered series.

    Either ``P_use`` is supplied directly, or it is derived from ``P_fac``
    with the COP resolved in precedence order: per-sample series, then the
    Carnot-relative model ``{"zeta_cop": ..., "T_hot": ...}``, then the
    midpoint of the configured COP band.  Optional hard caps clamp memory
    bandwidth and usable power when external limits are certified.
    """
    warns = []
    if T is None:
        raise NonPositiveTemperature("a temperature series is required")

    if P_use is None:
        if P_fac is None:
            raise NegativePower("supply either P_use or P_fac")
        ts.require_same_grid(P_fac, T)
        if cop is not None:
            ts.require_same_grid(cop, T)
            cop_vals = cop.values
        elif cop_model is not None:
            cop_vals = np.array([
                cop_carnot(tt, cop_model["T_hot"], cop_model["zeta_cop"])
                for tt in T.values])
        else:
            cop_vals = np.full_like(T.values,
                                    0.5 * (params.cop_range[0] + params.cop_range[1]))
            warns.append("COP taken as band midpoint; supply per-sample COP "
                         "or a Carnot model for tighter ceilings")
        p_use_vals = usable_power(P_fac.values, T.values, cop_vals,
                                  params.eta_elec_range[1],
                                  params.eta_use_range[1])
        P_use = ts.TimeSeries("P_use", "W", P_fac.t, p_use_vals, None,
                              P_fac.snapshot_version)
    else:
        ts.require_same_grid(P_use, T)

    if hard_cap_p_use is not None:
        P_use = P_use.replace(values=np.minimum(P_use.values, hard_cap_p_use))
        warns.append(f"usable power clamped at {hard_cap_p_use} W by external cap")
    if hard_cap_b_mem is not None and B_mem is not None:
        B_mem = B_mem.replace(values=np.minimum(B_mem.values, hard_cap_b_mem))
        warns.append(f"memory bandwidth clamped at {hard_cap_b_mem} bit/s "
                     "by external cap")

    pt = phi_pt(P_use, T, params.sigma_eff)
    svc, binding, svc_warns = phi_svc(pt, B_io, B_mem, params.sigma_eff)
    warns.extend(svc_warns)
    for w in warns:
        warnings.warn(w, stacklevel=2)

    io_series, mem_series = (
        None if s is None else ts.TimeSeries(
            name, "nat/s", s.t, params.sigma_eff * s.values, None,
            s.snapshot_version)
        for name, s in (("phi_io", B_io), ("phi_mem", B_mem)))
    cap = static_cap(params, rel_errors, alpha)
    return EnvelopeResult(pt, io_series, mem_series, svc, binding, cap, warns)
