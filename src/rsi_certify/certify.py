"""Regime certification: exponent caps, total-feedback estimates,
hypothesis tests, envelope verification, and the final verdict.

A run is certified nonsingular when the upper total-feedback elasticity
stays at or below one in every detected regime segment, the measured rate
never exceeds the state-factor-times-service-rate envelope, and the
reciprocal integral of the state factor diverges.  The singular-admissible
verdict needs the opposite: a segment whose lower elasticity tests above
one while the service ceilings are slack.  Anything in between is reported
as inconclusive with both facts attached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import series as ts
from .dynamics import OsgoodResult, excess_escape_time
from .errors import GridMismatch, ZeroGradient
from .estimate import BreakSegmentation, normal_quantile

DEFAULT_ENVELOPE_TOL = 1e-9
NONBINDING_SLACK = 0.10      # envelope slack fraction that counts as headroom
NONBINDING_FRACTION = 0.95   # share of samples that must show that headroom

VERDICT_NONSINGULAR = "nonsingular-certified"
VERDICT_SINGULAR = "singular-admissible"
VERDICT_INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# effective exponents


@dataclass(frozen=True)
class ExponentSet:
    """Raw scaling exponents with their learning-theory caps applied.

    ``rho`` is the diminishing-returns index of the learning curve, ``r``
    the minimax rate that caps the data exponent, and ``chi_hat`` the
    observed loss-compute exponent that caps the compute exponent.
    Effective values are (1-rho) times the capped raw values.
    """

    alpha: float
    beta: float
    gamma: float
    alpha_tilde: float
    rho: float
    r: float
    chi_hat: float
    alpha_eff: float = field(default=float("nan"))
    beta_eff: float = field(default=float("nan"))
    gamma_eff: float = field(default=float("nan"))
    alpha_tilde_eff: float = field(default=float("nan"))
    caps_applied: tuple[str, ...] = ()


def effective_exponents(alpha: float, beta: float, gamma: float,
                        alpha_tilde: float, rho: float, r: float,
                        chi_hat: float) -> ExponentSet:
    """Apply diminishing returns and learning-theory caps.

    alpha_eff = (1-rho) * min(alpha, chi_hat): compute gains cannot exceed
    the observed loss-compute exponent.  beta_eff = (1-rho) * max(0, beta-r):
    the minimax rate eats into the data exponent.  gamma and alpha_tilde
    carry only the (1-rho) factor.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho={rho} outside [0, 1]")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r={r} outside (0, 1]")
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma),
                    ("alpha_tilde", alpha_tilde), ("chi_hat", chi_hat)):
        if v < 0:
            raise ValueError(f"{name}={v} must be nonnegative")
    caps = []
    a_base = alpha
    if chi_hat < alpha:
        a_base = chi_hat
        caps.append("alpha capped by observed loss-compute exponent")
    b_base = beta - r
    if b_base <= 0:
        b_base = 0.0
        caps.append("beta zeroed by minimax rate")
    return ExponentSet(alpha, beta, gamma, alpha_tilde, rho, r, chi_hat,
                       alpha_eff=(1 - rho) * a_base,
                       beta_eff=(1 - rho) * b_base,
                       gamma_eff=(1 - rho) * gamma,
                       alpha_tilde_eff=(1 - rho) * alpha_tilde,
                       caps_applied=tuple(caps))


# ---------------------------------------------------------------------------
# total feedback elasticity


@dataclass(frozen=True)
class UpsilonBand:
    """Lower/upper capital elasticity of one resource with standard errors."""

    minus: float
    plus: float
    se_minus: float = 0.0
    se_plus: float = 0.0


@dataclass(frozen=True)
class PtotEstimate:
    """Lower and upper total feedback elasticity with delta-method errors
    and the per-term contribution breakdown."""

    minus: float
    plus: float
    se_minus: float
    se_plus: float
    components_minus: dict
    components_plus: dict


def ptot(q_hat: tuple[float, float], xi_hat: tuple[float, float],
         gamma: float, effs: ExponentSet,
         upsilons: dict[str, UpsilonBand]) -> PtotEstimate:
    """Plug-in total feedback elasticity q + gamma*xi + sum(coeff * upsilon).

    ``q_hat`` and ``xi_hat`` are (value, se) pairs; ``upsilons`` maps
    resource names C, D, E (any subset) to capital-elasticity bands.  Term
    standard errors combine as independent unless the caller has already
    folded covariances into them.
    """
    q, q_se = q_hat
    xi, xi_se = xi_hat
    res_minus, res_plus, var_minus, var_plus = resource_terms(effs, upsilons)
    comp_minus = {"q": q, "gamma_xi": gamma * xi, **res_minus}
    comp_plus = {"q": q, "gamma_xi": gamma * xi, **res_plus}
    var_own = q_se ** 2 + (gamma * xi_se) ** 2
    return PtotEstimate(
        minus=float(sum(comp_minus.values())),
        plus=float(sum(comp_plus.values())),
        se_minus=math.sqrt(var_own + var_minus),
        se_plus=math.sqrt(var_own + var_plus),
        components_minus=comp_minus,
        components_plus=comp_plus)


def resource_terms(effs: ExponentSet, upsilons: dict[str, UpsilonBand]):
    """Resource contributions coeff * upsilon to the lower and upper total
    elasticity, in C, D, E order, with the variances they add:
    (components_minus, components_plus, var_minus, var_plus)."""
    coeffs = {"C": effs.alpha_eff, "D": effs.beta_eff,
              "E": effs.alpha_tilde_eff}
    comp_minus, comp_plus = {}, {}
    var_minus = var_plus = 0.0
    for name, coeff in coeffs.items():
        band = upsilons.get(name)
        if band is None:
            continue
        comp_minus[name] = coeff * band.minus
        comp_plus[name] = coeff * band.plus
        var_minus += (coeff * band.se_minus) ** 2
        var_plus += (coeff * band.se_plus) ** 2
    return comp_minus, comp_plus, var_minus, var_plus


# ---------------------------------------------------------------------------
# hypothesis tests


@dataclass(frozen=True)
class TestOutcome:
    reject: bool
    margin: float
    statistic: float

    @property
    def label(self) -> str:
        return "reject" if self.reject else "fail_to_reject"


def test_superlinearity(p_hat: float, se: float, alpha: float = 0.05) -> TestOutcome:
    """One-sided test of elasticity above one: reject the subcritical null
    when p_hat - z_{1-alpha} * se exceeds 1 strictly."""
    if se < 0:
        raise ValueError("se must be nonnegative")
    z = normal_quantile(1 - alpha)
    stat = p_hat - z * se
    return TestOutcome(stat > 1.0, stat - 1.0, stat)


@dataclass(frozen=True)
class CeilingTestOutcome:
    reject: bool
    lhs: float
    rhs: float
    binding_channel: str


def test_ceiling(upsilon_c_plus: float, se_c: float,
                 ceilings: dict[str, tuple[float, float]],
                 alpha: float = 0.05) -> CeilingTestOutcome:
    """Familywise test that the capital-compute elasticity exceeds every
    service-channel ceiling.

    Uses a Bonferroni split over the three one-sided comparisons: reject
    only when the lower band of the measured elasticity clears the upper
    band of the smallest ceiling at level alpha/3.
    """
    if set(ceilings) != {"io", "mem", "pow"}:
        raise ValueError("ceilings must be given for io, mem, pow")
    z = normal_quantile(1 - alpha / 3.0)
    lhs = upsilon_c_plus - z * se_c
    upper = {name: e + z * se for name, (e, se) in ceilings.items()}
    binding = min(upper, key=upper.get)
    rhs = upper[binding]
    return CeilingTestOutcome(lhs > rhs, lhs, rhs, binding)


# ---------------------------------------------------------------------------
# measurable envelope check


@dataclass
class EnvelopeCheckResult:
    """Per-sample verdicts of the rate-versus-envelope inequality, on
    increasing timestamps ``t``."""

    t: np.ndarray
    passed: np.ndarray
    slack: np.ndarray          # (envelope - rate) / envelope
    pass_fraction: float
    first_failure: tuple[float, int] | None

    def evidence(self, lo, hi, slack_threshold: float = NONBINDING_SLACK,
                 fraction: float = NONBINDING_FRACTION):
        """Per range of samples ``lo[j]:hi[j]``, from prefix counts: the
        share that passed (1.0 for none), and whether slack of at least
        ``slack_threshold`` holds on at least ``fraction`` (False for none)."""
        counts = np.cumsum([np.r_[0, self.passed],
                            np.r_[0, self.slack >= slack_threshold]], axis=1)
        n = np.subtract(hi, lo)
        passed, roomy = (counts[:, hi] - counts[:, lo]) / np.maximum(n, 1)
        return np.where(n > 0, passed, 1.0), (n > 0) & (roomy >= fraction)

    def nonbinding(self, slack_threshold: float = NONBINDING_SLACK,
                   fraction: float = NONBINDING_FRACTION) -> bool:
        """Headroom test: slack of at least ``slack_threshold`` on at least
        ``fraction`` of the samples."""
        _, headroom = self.evidence([0], [self.t.size], slack_threshold,
                                    fraction)
        return bool(headroom[0])


def envelope_check(Idot_k: ts.TimeSeries, Phi_of_I_k: ts.TimeSeries,
                   phi_svc_k: ts.TimeSeries, small_gain: float = 0.0,
                   tol: float = DEFAULT_ENVELOPE_TOL) -> EnvelopeCheckResult:
    """Verify (1 - gamma) * rate <= Phi(I) * phi_svc at every sample.

    ``small_gain`` is the antagonistic-feedback factor gamma < 1 that
    rescales the measured rate; ``tol`` is a multiplicative slack absorbing
    floating error.  The envelope always MULTIPLIES the state factor by the
    service rate; nothing is ever divided by an envelope.
    """
    if not 0.0 <= small_gain < 1.0:
        raise ValueError(f"small_gain={small_gain} outside [0, 1)")
    ts.require_same_grid(Idot_k, Phi_of_I_k)
    ts.require_same_grid(Idot_k, phi_svc_k)
    envelope = Phi_of_I_k.values * phi_svc_k.values
    lhs = (1.0 - small_gain) * Idot_k.values
    passed = lhs <= envelope * (1.0 + tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(envelope > 0, (envelope - Idot_k.values) / envelope,
                         -np.inf)
    fails = np.nonzero(~passed)[0]
    first = (float(Idot_k.t[fails[0]]), int(fails[0])) if fails.size else None
    return EnvelopeCheckResult(Idot_k.t.copy(), passed, slack,
                               float(passed.mean()), first)


# ---------------------------------------------------------------------------
# scalar margins


def event_blowup_bound(I_t: float, delta: float, a0: float) -> float:
    """Time bound I(t)^(-delta) / (a0 * delta) once the rate floor
    a0 * I^(1+delta) is in force (``dynamics.excess_escape_time``)."""
    if delta <= 0 or a0 <= 0 or I_t <= 0:
        raise ValueError("I_t, delta, a0 must be positive")
    return excess_escape_time(I_t, a0, delta)


@dataclass(frozen=True)
class DistributionMargin:
    worst_case_ptot: float
    certified: bool
    budget: float


def distribution_margin(ptot_base: float, gamma: float, L_xi: float,
                        L_rho: float, delta_W: float,
                        safety_delta: float) -> DistributionMargin:
    """Distribution-shift audit: certify only if the worst-case elasticity
    over a Wasserstein ball of radius delta_W stays at or below
    1 - safety_delta."""
    if min(gamma, L_xi, L_rho, delta_W, safety_delta) < 0:
        raise ValueError("Lipschitz constants, radius, and margin must be "
                         "nonnegative")
    worst = ptot_base + gamma * L_xi * delta_W + L_rho * delta_W
    budget = 1.0 - safety_delta
    return DistributionMargin(worst, worst <= budget + 1e-12, budget)


def manifold_distance(ptot_value: float, grad_norm: float) -> float:
    """First-order distance |p_tot - 1| / ||grad p_tot|| to the critical
    surface."""
    if grad_norm <= 0:
        raise ZeroGradient("gradient norm must be positive")
    return abs(ptot_value - 1.0) / grad_norm


# ---------------------------------------------------------------------------
# final decision


@dataclass
class SegmentRecord:
    """Evidence collected for one regime segment."""

    t_start: float
    t_end: float
    ptot: PtotEstimate
    super_test_plus: TestOutcome
    super_test_minus: TestOutcome
    envelope_pass_fraction: float
    envelope_nonbinding: bool
    envelope_disabled: bool

    def to_json_dict(self) -> dict:
        return {
            "range": [self.t_start, self.t_end],
            "ptot_minus": self.ptot.minus,
            "ptot_plus": self.ptot.plus,
            "se_minus": self.ptot.se_minus,
            "se_plus": self.ptot.se_plus,
            "components_minus": dict(self.ptot.components_minus),
            "components_plus": dict(self.ptot.components_plus),
            "tests": {
                "superlinearity_plus": self.super_test_plus.label,
                "superlinearity_minus": self.super_test_minus.label,
                "margin_minus": self.super_test_minus.margin,
            },
            "envelope": {
                "pass_fraction": self.envelope_pass_fraction,
                "nonbinding": self.envelope_nonbinding,
                "disabled": self.envelope_disabled,
            },
        }


@dataclass
class Certificate:
    """The regime verdict with every supporting record attached."""

    verdict: str
    segments: list[SegmentRecord]
    envelope_pass_fraction: float
    margins: dict
    osgood_divergent: bool
    event_bound: float | None = None
    capital_escape_time: float | None = None
    config_echo: dict = field(default_factory=dict)
    data_snapshot_versions: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "segments": [s.to_json_dict() for s in self.segments],
            "envelope_pass_fraction": self.envelope_pass_fraction,
            "margins": dict(self.margins),
            "osgood_divergent": self.osgood_divergent,
            "event_bound": self.event_bound,
            "capital_escape_time": self.capital_escape_time,
            "config_echo": self.config_echo,
            "data_snapshot_versions": dict(self.data_snapshot_versions),
            "notes": list(self.notes),
        }

    def document(self) -> tuple[dict, str]:
        """The certificate document and its strict JSON text (no bare
        Infinity or NaN): non-finite floats at any depth are the strings
        "inf", "-inf" and "nan" in both.  The dict is walked for them only
        when the plain dump refuses one."""
        d = self.to_json_dict()
        try:
            return d, json.dumps(d, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            d = _encode_nonfinite(d)
            return d, json.dumps(d, indent=2, sort_keys=True, allow_nan=False)


def _encode_nonfinite(obj):
    """Replace non-finite floats, at any depth, by "inf", "-inf" or "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _encode_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_nonfinite(v) for v in obj]
    return obj


def decide(ptots: PtotEstimate | list[PtotEstimate],
           envelope: EnvelopeCheckResult | None,
           osgood: OsgoodResult | None,
           segments: BreakSegmentation,
           alpha: float = 0.05,
           nonbinding_slack: float = NONBINDING_SLACK,
           nonbinding_fraction: float = NONBINDING_FRACTION,
           event_bound: float | None = None,
           capital_escape_time: float | None = None,
           extra_margins: dict | None = None,
           config_echo: dict | None = None,
           snapshot_versions: dict | None = None) -> Certificate:
    """Fold per-segment evidence into the final certificate.

    Nonsingular certification needs, in every segment, an upper elasticity
    at or below one and a fully verified envelope, plus a divergent
    reciprocal integral globally.  The singular-admissible verdict needs
    one segment whose lower elasticity tests above one while the envelope
    is nonbinding (absent envelope data counts as nonbinding, with a note).
    Everything else is inconclusive, with both facts recorded.  Envelope
    evidence is read for all half-open segments [t_lo, t_hi) in one pass; a
    segment with no sample keeps pass fraction 1.0 and has no headroom.
    """
    seg_ranges = segments.segments
    if isinstance(ptots, PtotEstimate):
        ptots = [ptots] * len(seg_ranges)
    if len(ptots) != len(seg_ranges):
        raise GridMismatch(
            f"{len(ptots)} elasticity estimates for {len(seg_ranges)} segments")

    notes = []
    envelope_disabled = envelope is None
    if envelope_disabled:
        notes.append("no envelope series supplied; ceilings treated as "
                     "nonbinding by absence")

    fracs, nonbinding = [1.0] * len(ptots), [True] * len(ptots)
    if not envelope_disabled:
        lo, hi = np.searchsorted(envelope.t, np.reshape(seg_ranges, (-1, 2)).T)
        fracs, nonbinding = (a.tolist() for a in envelope.evidence(
            lo, hi, nonbinding_slack, nonbinding_fraction))
    records = [SegmentRecord(t_lo, t_hi, pt,
                             test_superlinearity(pt.plus, pt.se_plus, alpha),
                             test_superlinearity(pt.minus, pt.se_minus, alpha),
                             frac, nonbind, envelope_disabled)
               for (t_lo, t_hi), pt, frac, nonbind
               in zip(seg_ranges, ptots, fracs, nonbinding)]

    osgood_divergent = bool(osgood.divergent) if osgood is not None else False
    if osgood is None:
        notes.append("no state-factor classification supplied")

    all_subcritical = all(r.ptot.plus <= 1.0 + 1e-12 for r in records)
    all_envelopes_verified = all(r.envelope_pass_fraction >= 1.0 - 1e-12
                                 for r in records) and not envelope_disabled
    singular_segments = [r for r in records
                         if r.super_test_minus.reject and r.envelope_nonbinding]

    if all_subcritical and all_envelopes_verified and osgood_divergent:
        verdict = VERDICT_NONSINGULAR
    elif singular_segments:
        verdict = VERDICT_SINGULAR
    else:
        verdict = VERDICT_INCONCLUSIVE
        if not all_subcritical and not singular_segments:
            notes.append("superlinear upper elasticity without a "
                         "test-confirmed superlinear segment")
        if not all_envelopes_verified and not envelope_disabled:
            notes.append("envelope verification incomplete")

    worst_plus = max(r.ptot.plus for r in records)
    margins = {"ptot_margin": 1.0 - worst_plus,
               "manifold_distance": None,
               "wasserstein_margin": None}
    if extra_margins:
        margins.update(extra_margins)

    overall_frac = (1.0 if envelope_disabled else envelope.pass_fraction)
    return Certificate(
        verdict=verdict,
        segments=records,
        envelope_pass_fraction=overall_frac,
        margins=margins,
        osgood_divergent=osgood_divergent,
        event_bound=event_bound if verdict == VERDICT_SINGULAR else None,
        capital_escape_time=capital_escape_time,
        config_echo=config_echo or {},
        data_snapshot_versions=snapshot_versions or {},
        notes=notes)
