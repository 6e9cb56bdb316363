"""Sampled-data barrier-certificate throttling.

The safety set is {I <= I_bar} with barrier coordinate h = I - I_bar.  Each
sample period a small quadratic knapsack program filters the requested
actuation so the predicted improvement rate respects the barrier budget,
with explicit margins for worst-case actuation latency (L_h * tau_bar) and
antagonistic residuals; a penalized slack keeps the program feasible and
doubles as the escalation signal.  An observer propagates the capability
estimate between benchmark evaluations, and a supervisor runs the closed
loop against a simulated plant, certifying, escalating, or shutting down
per the governance thresholds.

Orientation note: the reported barrier residual is F_hat - kappa*(I - I_bar)
and a positive value at or above the boundary is a violation; below the
boundary the sign flips to an allowance, so the enforced interior budget is
kappa*(I_bar - I), which shrinks to zero exactly at the boundary.  Both
orientations agree where it matters (rate <= 0 on the boundary).  With
exact state and kappa*Delta <= 1 the discrete loop keeps I(t_k) <= I_bar;
with estimation error bounded by eps_I and latency tau_bar the per-step
budget violation never exceeds kappa*eps_I + L_h*tau_bar, so supervise
refuses a plant whose state error or latency exceeds them.

Sampling caveat: the guarantees assume the barrier rate is Lipschitz on the
operating set over one period.  A zero-order-hold command on a strongly
superlinear plant can escape within a single period if Delta exceeds
roughly I/(kappa*(I_bar - I)*(p - 1)) at the current state; pick the sample
period below that scale (it is most restrictive when the state is small).

Cost note: a step pays for its arithmetic only.  The box (bounds, radii and
rows) is built with the ControlConfig, Phi's evaluator is bound with the
PhiSpec, and u_ref, the barrier row's buffer and the measured phi_svc are
set, and the plant's rules checked, once per run.  Per step remain one
Phi(I_hat)*phi_svc, an active QP's ~50 numpy calls (~30 us on 6 channels,
2-vCPU x86-64), and per hold (two under a latency, else one) one Phi for
the violation and the plant's ``PhiSpec.advance`` (a power Phi's exact
flow, else 64 RK4 stages per period).  The QP's dots stay numpy calls:
OpenBLAS computes a ddot of length < 16 as a sequential fused
multiply-add, and Python 3.11 has no math.fma to match it.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import series as ts
from .errors import ConfigError, InfeasibleBox, NoStaticCapPossible


# a config number that may be infinite: a rate limit or a box bound
Unbounded = typing.NewType("Unbounded", float)
# searchsorted's bounds of the positive finite floats (the least is 5e-324)
_POSITIVE_FINITE = np.array([5e-324, math.inf])


@dataclass(frozen=True)
class ControlConfig:
    """Barrier and actuation parameters for the sampled-data loop.

    ``alpha_fn`` optionally replaces the linear barrier gain with any
    strictly increasing function through zero (extended class-K); the
    linear default alpha(r) = kappa*r is what the robustness analysis
    assumes, so nonlinear choices are for experimentation.
    """

    I_bar: float                     # capability ceiling (nats)
    kappa: float                     # linear barrier gain, alpha(r) = kappa*r
    Delta: float                     # sample period (s)
    tau_bar: float = 0.0             # worst-case actuation latency (s)
    L_h: float = 0.0                 # Lipschitz bound on the barrier rate
    eps_I: float = 0.0               # certified state-estimation error (nats)
    r_u: tuple[Unbounded, ...] = (math.inf,)   # per-channel rate limit
    u_box: tuple[tuple[Unbounded, Unbounded], ...] = ((0.0, 1.0),)
    slack_weight: float = 1e6        # rho_s, penalty on the barrier slack
    alpha_fn: object = None          # optional monotone class-K callback

    def __post_init__(self):
        for name in ("kappa", "Delta", "slack_weight"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("tau_bar", "L_h", "eps_I"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if len(self.r_u) != len(self.u_box):
            raise ValueError("r_u and u_box must have matching channel counts")
        for i, (r, box) in enumerate(zip(self.r_u, self.u_box)):
            if r < 0:
                raise ValueError(f"r_u[{i}] must be nonnegative, got {r!r}")
            if len(box) != 2 or not box[0] <= box[1]:
                raise ValueError(f"u_box[{i}] must be an ordered pair "
                                 f"(lo, hi), got {box!r}")
        # the QP's per-step arrays, built once: box bounds, rate radii, and
        # the box as rows (lo, hi) where no channel's rate is limited
        lo, hi = np.array(self.u_box, dtype=float).reshape(-1, 2).T.copy()
        r = np.array(self.r_u, dtype=float) * self.Delta
        object.__setattr__(self, "_box", (lo, hi, r, np.array([lo, hi])
                                          if np.all(r == math.inf) else None))
        if self.alpha_fn is not None:
            if abs(self.alpha_fn(0.0)) > 1e-12:
                raise ValueError("alpha_fn must vanish at zero")
            if self.alpha_fn(1.0) <= self.alpha_fn(-1.0):
                raise ValueError("alpha_fn must be strictly increasing")
        elif self.kappa * self.Delta > 1.0 + 1e-12:
            raise ValueError(
                f"kappa*Delta = {self.kappa * self.Delta:.3g} exceeds 1; the "
                "discrete barrier update would overshoot the boundary")

    def alpha(self, r: float) -> float:
        """Barrier gain function: the configured callback or kappa * r."""
        if self.alpha_fn is not None:
            return float(self.alpha_fn(r))
        return self.kappa * r

    @property
    def n_channels(self) -> int:
        return len(self.u_box)


@dataclass(frozen=True)
class ObserverState:
    """Capability estimate with the most recent benchmark correction."""

    I_hat: float
    last_benchmark: tuple[float, float, float] | None = None  # (value, age, K)

    def __post_init__(self):
        if not math.isfinite(self.I_hat):
            raise ValueError("I_hat must be finite")
        if self.last_benchmark is not None:
            k = self.last_benchmark[2]
            if not 0.0 <= k <= 1.0:
                raise ValueError("benchmark confidence must lie in [0, 1]")


# ---------------------------------------------------------------------------
# barrier residuals


@dataclass(frozen=True)
class BarrierResidual:
    residual: float
    h: float
    violation: bool        # positive residual at or above the boundary
    informational: bool    # positive residual strictly inside the set


def barrier_residual(I: float, config: ControlConfig,
                     F_hat: float) -> BarrierResidual:
    """Residual F_hat - alpha(I - I_bar) of the barrier inequality.

    At or above the boundary a positive residual flags a genuine violation;
    strictly inside the set the same arithmetic yields a positive number
    whenever the predicted rate is below the (positive) interior allowance,
    so it is reported as informational only.
    """
    h = I - config.I_bar
    residual = F_hat - config.alpha(h)
    above = h >= 0.0
    positive = residual > 0.0
    return BarrierResidual(residual, h, positive and above,
                           positive and not above)


def robust_residual(base: float, sigma_I: float, sigma_x: float) -> float:
    """Tighten a barrier residual by the antagonistic sector bounds
    (|h'| = 1 for the linear barrier coordinate)."""
    if sigma_I < 0 or sigma_x < 0:
        raise ValueError("sector bounds must be nonnegative")
    return base + sigma_I + sigma_x


def barrier_budget(I_hat: float, config: ControlConfig,
                   sigma_I: float = 0.0, sigma_x: float = 0.0) -> float:
    """Interior rate budget -alpha(I_hat - I_bar) less the latency and
    antagonism margins.  May be negative near or above the boundary, in
    which case the QP throttles to the box floor and takes slack."""
    budget = -config.alpha(I_hat - config.I_bar)
    budget -= config.L_h * config.tau_bar
    budget -= sigma_I + sigma_x
    return budget


# ---------------------------------------------------------------------------
# barrier QP (continuous quadratic knapsack)


@dataclass(frozen=True)
class QpResult:
    u_star: np.ndarray
    slack: float
    barrier_active: bool
    objective: float


def _clip(x, lo, hi):
    # np.clip's ufunc, in place: maximum/minimum return the bound on ties
    return np.minimum(np.maximum(x, lo, out=x), hi, out=x)


def _effective_box(u_prev: np.ndarray, config: ControlConfig) -> np.ndarray:
    """Rows (lo, hi): the box cut to the rate window u_prev -/+ r."""
    box_lo, box_hi, radius, _ = config._box     # the box wins ties, as above
    lo = np.maximum(u_prev - radius, box_lo)
    hi = np.minimum(u_prev + radius, box_hi)
    meets = lo <= hi + 1e-15    # False at a NaN bound: u_prev NaN, inf-inf
    if np.count_nonzero(meets) < meets.size:
        i = int(meets.argmin())
        (b_lo, b_hi), r = config.u_box[i], config.r_u[i] * config.Delta
        raise InfeasibleBox(
            f"channel {i}: box [{b_lo}, {b_hi}] and rate window "
            f"[{u_prev[i] - r}, {u_prev[i] + r}] do not intersect")
    return np.array((lo, hi))


def qp_step(u_ref, u_prev, a_row, b_rhs: float,
            config: ControlConfig) -> QpResult:
    """Solve min 0.5||u - u_ref||^2 + rho_s*z^2 subject to a.u <= b + z,
    z >= 0, the actuation box, and the per-step rate limits.

    A continuous quadratic knapsack (Kiwiel 2008): with the barrier row
    active, u(lam) = clip(u_ref - lam*a, lo, hi), z = lam/(2 rho_s), and
    lam > 0 is the root of g(lam) = a.u(lam) - b - lam/(2 rho_s), which
    decreases piecewise-linearly between kinks (u_ref - lo)/a, (u_ref - hi)/a.
    lam follows in closed form from the root piece's free channels, summed
    afresh: 1/(2 rho_s) drowns in sums carried across kinks.
    """
    u_ref = np.asarray(u_ref, dtype=float).ravel()
    u_prev = np.asarray(u_prev, dtype=float).ravel()
    a = np.asarray(a_row, dtype=float).ravel()
    m = config.n_channels
    if not (u_ref.size == u_prev.size == a.size == m):
        raise InfeasibleBox(f"expected {m}-channel vectors")
    box = config._box[3]    # None if a channel's rate is limited
    if box is None or not math.isfinite(u_prev.dot(u_prev)):   # u_prev too
        box = _effective_box(u_prev, config)
    lo, hi = box[0], box[1]
    rho = config.slack_weight

    # barrier inactive: box projection feasible up to rounding of a.u - b?
    u = _clip(u_ref.copy(), lo, hi)
    z = 0.0
    excess = float(a.dot(u)) - b_rhs    # <= 0: inactive at any scale
    active = excess > 0.0 and excess > 1e-12 * (
        abs(b_rhs) + float(np.abs(a).dot(np.abs(u))))
    if active:
        # kinks of zero or tiny entries of a are not finite and are dropped
        with np.errstate(all="ignore"):
            kinks = ((u_ref - box) / a).ravel()
            kinks.sort()    # NaN sorts last
            i, k = kinks.searchsorted(_POSITIVE_FINITE).tolist()
            kinks = kinks[i:k]
            j = int(np.count_nonzero(_clip(u_ref - kinks[:, None] * a, lo, hi)
                                     .dot(a) - b_rhs > kinks / (2.0 * rho)))
            left, right = ([0.0] + kinks.tolist() + [math.inf])[j:j + 2]
            # a point strictly inside the root's piece fixes its clamp pattern
            v = u_ref - min(0.5 * (left + right), 2.0 * left + 1.0) * a
            free = (lo < v) & (v < hi)
            np.copyto(_clip(v, lo, hi), u_ref, where=free)
            a_free = a[free]
            lam = (a.dot(v) - b_rhs) / (a_free.dot(a_free) + 1.0 / (2.0 * rho))
            lam = min(max(lam, left), right)
            u = _clip(u_ref - lam * a, lo, hi)
        z = lam / (2.0 * rho)
    d = u - u_ref
    return QpResult(u, float(z), active, 0.5 * float(d.dot(d)) + rho * z * z)


# ---------------------------------------------------------------------------
# observer


def observer_update(state: ObserverState, phi_svc_hat: float, Phi,
                    benchmark: tuple[float, float, float] | None,
                    config: ControlConfig,
                    throttle: float = 1.0) -> ObserverState:
    """One prediction-correction step of the capability observer.

    Prediction integrates the envelope rate Phi(I_hat) * phi_svc_hat *
    throttle over the sample period; the correction moves the prediction
    toward the latest benchmark value by its confidence weight (zero when
    no benchmark arrived this period).
    """
    return ObserverState(*_observer_estimate(state, phi_svc_hat, Phi,
                                             benchmark, config, throttle))


def _observer_estimate(state: ObserverState, phi_svc_hat: float, Phi,
                       benchmark: tuple[float, float, float] | None,
                       config: ControlConfig, throttle: float):
    """``observer_update``'s estimate and last benchmark, which may not be
    finite (an escaped benchmark or an overflowing prediction)."""
    predicted = state.I_hat \
        + config.Delta * Phi(state.I_hat) * phi_svc_hat * throttle
    if benchmark is None:
        return predicted, state.last_benchmark
    value, age, confidence = benchmark
    # exact at both ends: at unit confidence the benchmark, however far off
    return (predicted + confidence * (value - predicted) if confidence < 0.5
            else value - (1.0 - confidence) * (value - predicted),
            (value, age, confidence))


# ---------------------------------------------------------------------------
# static throttle certificate


@dataclass(frozen=True)
class ThrottleCertificate:
    phi_bar: float
    osgood: dyn.OsgoodResult
    note: str


def throttle_cap(phi_spec: dyn.PhiSpec,
                 requested_cap: float = 1.0) -> ThrottleCertificate:
    """Certify a constant service cap against the state factor.

    When the reciprocal integral of the state factor diverges, any constant
    cap keeps the closed loop nonsingular (constants cannot change the
    divergence class), so the requested cap is certified.  A convergent
    integral cannot be repaired by any constant cap: NoStaticCapPossible.
    """
    if requested_cap <= 0:
        raise NoStaticCapPossible("requested cap must be positive")
    # divergence class of a power-type factor does not depend on the start
    # point; anchor away from an underflowing domain floor
    res = dyn.osgood_classify(phi_spec, max(phi_spec.domain_floor, 1.0))
    if not res.divergent:
        raise NoStaticCapPossible(
            "state factor has a convergent reciprocal integral "
            f"(value {res.value:.6g}); no constant service cap can restore "
            "divergence")
    note = ("closed-loop growth at most exponential at the cap rate"
            if abs(res.tail_exponent - 1.0) < 1e-9
            else "reciprocal integral divergent under any constant cap")
    return ThrottleCertificate(float(requested_cap), res, note)


# ---------------------------------------------------------------------------
# closed-loop supervisor


SLACK_TOL = 1e-9    # a QP slack above this counts toward escalation


@dataclass
class PlantScenario:
    """Simulated control-affine plant dI/dt = Phi(I) * phi_svc * u."""

    phi: dyn.PhiSpec
    I0: float
    phi_svc_true: float = 1.0
    phi_svc_meas: float | None = None     # telemetry value; defaults to true
    n_steps: int = 100
    u_ref: float = 1.0
    state_error: float = 0.0              # |e_k| <= eps amplitude, alternating
    latency: float = 0.0                  # actuation delay within [0, tau_bar]
    benchmark_every: int = 0              # 0 = exact state each sample
    antagonism: tuple[float, float] = (0.0, 0.0)  # (sigma_I, sigma_x)
    ptot_hat: float | None = None         # governance signal, constant
    osgood_ok: bool = True

    def __post_init__(self):
        for name, least in (("n_steps", 1), ("latency", 0.0),
                            ("I0", self.phi.domain_floor)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least!r}, got "
                                 f"{getattr(self, name)!r}")


@dataclass(frozen=True)
class PolicyThresholds:
    governance_delta: float = 0.1      # throttle-and-escalate margin on ptot
    escalate_consecutive_slack: int = 3
    antagonism_theta: float = 0.5      # fraction of the current gain budget


@dataclass
class StepLog:
    k: int
    t: float
    I_true: float
    I_hat: float
    u: float
    slack: float
    action: str
    budget: float
    violation_rate: float


@dataclass
class SupervisionLog:
    steps: list[StepLog]
    final_status: str          # "completed" | "shutdown"
    max_overshoot: float       # max(I - I_bar) over samples
    max_violation_rate: float  # max per-step budget violation

    def actions(self) -> list[str]:
        return [s.action for s in self.steps]

    def to_jsonl(self) -> str:
        """One strict JSON object per step (its fields, sorted), one step
        per line."""
        return "".join(ts.json_text(vars(s), indent=None) for s in self.steps)


def supervise(scenario: PlantScenario, config: ControlConfig,
              policy: PolicyThresholds = PolicyThresholds()) -> SupervisionLog:
    """Run the sampled-data barrier loop against a simulated plant.

    Per sample: synthesize telemetry, update the observer (or use the
    exact state with the configured bounded error), build the barrier row
    a = Phi(I_hat)*phi_svc_hat against the interior budget, filter the
    reference throttle through the QP, and apply it in holds: the previous
    command through the scenario's actuation latency, then the new one.
    Actions: escalate when the governance elasticity exceeds 1 - delta or
    the QP slack stays positive for the configured run of steps; shutdown
    on a blown antagonism budget, a convergent reciprocal integral of the
    gain, or a sampled state or observer estimate that is not finite.  A
    latency beyond Delta or tau_bar, or a state error beyond eps_I, is a
    ConfigError naming both keys.
    """
    for key, limit in (("latency", "Delta"), ("latency", "tau_bar"),
                       ("state_error", "eps_I")):
        if getattr(scenario, key) > getattr(config, limit) + 1e-12:
            raise ConfigError(f"plant.{key} must be at most control.{limit} "
                              f"{getattr(config, limit)!r}, got "
                              f"{getattr(scenario, key)!r}")
    I, phi, floor = scenario.I0, scenario.phi, scenario.phi.domain_floor
    phi_svc_hat = scenario.phi_svc_true if scenario.phi_svc_meas is None \
        else scenario.phi_svc_meas          # the telemetry value
    u_prev = np.zeros(config.n_channels)
    u_ref = np.full(config.n_channels, scenario.u_ref)
    a_row = np.empty(config.n_channels)     # the barrier row, filled per step
    steps: list[StepLog] = []
    slack_run = 0       # steps in a row whose QP took slack
    governance = scenario.ptot_hat is not None and \
        scenario.ptot_hat > 1.0 - policy.governance_delta
    max_overshoot, max_violation = -math.inf, 0.0
    sigma_i, sigma_x = scenario.antagonism
    observer = ObserverState(scenario.I0)
    # False for a convergent integral, or once the observer's estimate is
    # not finite
    may_run = scenario.osgood_ok

    def rate(state: float, phi_svc: float) -> float:    # per unit throttle
        return phi(max(state, floor)) * phi_svc

    for k in range(scenario.n_steps):
        t = k * config.Delta
        max_overshoot = max(max_overshoot, I - config.I_bar)

        # -- state estimate
        if scenario.benchmark_every <= 0:
            I_hat = I + scenario.state_error * (1 if k % 2 == 0 else -1)
        else:
            benchmark = (I, 0.0, 1.0) if k % scenario.benchmark_every == 0 \
                else None
            I_hat, last = _observer_estimate(
                observer, phi_svc_hat, phi, benchmark, config,
                float(u_prev[0]))
            if math.isfinite(I_hat):
                observer = ObserverState(I_hat, last)
            else:
                may_run = False

        # -- governance checks before actuation: a state or estimate that
        # is not finite (an escape), or a blown antagonism budget
        if not (may_run and math.isfinite(I)) or sigma_i + sigma_x > \
                policy.antagonism_theta * (gain := rate(I_hat, phi_svc_hat)):
            steps.append(StepLog(k, t, I, I_hat, 0.0, 0.0, "shutdown",
                                 0.0, 0.0))
            return SupervisionLog(steps, "shutdown", max_overshoot,
                                  max_violation)

        # -- barrier QP
        a_row.fill(gain)
        budget = barrier_budget(I_hat, config, sigma_i, sigma_x)
        qp = qp_step(u_ref, u_prev, a_row, budget, config)
        u_0 = float(qp.u_star[0])
        slack_run = slack_run + 1 if qp.slack > SLACK_TOL else 0
        action = "escalate" if governance or \
            slack_run >= policy.escalate_consecutive_slack else "certify"

        # -- actuate hold by hold: the previous command through the latency,
        # then the new one.  Each hold's violation of the barrier the QP
        # enforces, rate <= -alpha(I - I_bar), is taken against the TRUE
        # state where the hold starts (intersample drift is covered by the
        # L_h * tau_bar margin); the period's is the largest, and a nan
        # (an overflowed Phi times a zero throttle) reads as inf
        holds = ((float(u_prev[0]), scenario.latency),
                 (u_0, config.Delta - scenario.latency)) \
            if scenario.latency > 0 else ((u_0, config.Delta),)
        state, violations = I, []
        for command, dt in holds:
            v = rate(state, scenario.phi_svc_true) * command \
                + config.alpha(state - config.I_bar)
            violations.append(v if v == v else math.inf)
            state = phi.advance(scenario.phi_svc_true, command, state, dt)
        step_violation = max(violations)
        max_violation = max(max_violation, step_violation)
        steps.append(StepLog(k, t, I, I_hat, u_0, qp.slack, action, budget,
                             max(0.0, step_violation)))
        I, u_prev = state, qp.u_star

    return SupervisionLog(steps, "completed", max_overshoot, max_violation)
