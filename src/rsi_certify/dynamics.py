"""Closed-form growth dynamics, blow-up classification, and a numerical
integration oracle.

The scalar comparison equation is dI/dt = a(t) * Phi(I) with Phi positive
and nondecreasing.  Whether trajectories can reach infinity in finite time
is decided by the divergence of the reciprocal integral of Phi: divergent
means no finite-time escape under any locally integrable gain, convergent
means a superlinear envelope admits explosion with explicit time bounds.
Everything here is desk-scale analytics: power-law solutions, capital
subsolutions, logistic saturation, a discrete recursion analyzer, and an
adaptive Runge-Kutta integrator used as the cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # loads scipy.special on first use, in osgood_classify

from .errors import (
    AmbiguousFlags,
    BeyondBlowup,
    EnvelopeOrderViolation,
    NonPositivePhi,
    StepUnderflowWithoutThreshold,
    SubcriticalExponent,
)

P_DEGENERATE_TOL = 1e-9  # below this |zeta-1| capital_lower is exponential
INTEGRATE_MAX_STEPS = 2_000_000  # step budget, accepted plus rejected
DISCRETE_MAX_STEPS = 10_000      # iterate budget of the recursion
# worst_case_times checks the envelopes' order at this many points,
# geometric from the floor to this multiple of it
ORDER_CHECK_POINTS = 128
ORDER_CHECK_SPAN = 1e6
RK4_SUBSTEPS = 16    # PhiSpec.advance's RK4 substeps per period


# ---------------------------------------------------------------------------
# rate factors


# The scalar exponents that numpy's float64 power loop (DOUBLE_power, given
# one exponent for the whole array) computes by arithmetic instead of pow,
# as plain-float formulas with its bits.  Its -1 entry, 1/s, is left out:
# 1/0 raises in Python where numpy only warns.
EXACT_POWERS = {0.0: lambda s: 1.0, 0.5: math.sqrt, 1.0: lambda s: s,
                2.0: lambda s: s * s}


class PhiSpec:
    """State-dependent rate factor Phi on [domain_floor, inf).

    Kinds:
      power      Phi(s) = c * s**p
      power_log  Phi(s) = c * s**p * ln(s)   (floor must exceed 1)
      tabulated  log-log interpolation of positive nondecreasing samples,
                 extrapolated beyond the table with the last local exponent.

    A Python float passed to a power kind takes a scalar path that returns
    the array path's result bit for bit, because libm's pow, exp and log
    differ from numpy's vectorized loops in the last bit, and the barrier
    QP amplifies that bit.  An exponent in ``EXACT_POWERS`` is the
    plain-float formula numpy's loop itself computes; any other exponent,
    and any power that is not finite (numpy's value and its overflow
    warning), goes through ``np.power``, and ``power_log`` through
    ``np.log`` as well.  It is ``evaluate``, bound when the spec is made
    (and fixed from then on), which ``__call__`` calls.
    """

    def __init__(self, kind: str, p: float | None = None, c: float = 1.0,
                 grid: np.ndarray | None = None,
                 values: np.ndarray | None = None,
                 domain_floor: float | None = None):
        self.kind = kind
        if kind in ("power", "power_log"):
            if p is None or p < 0:
                raise NonPositivePhi(f"exponent must be >= 0, got {p!r}")
            if c <= 0:
                raise NonPositivePhi(f"amplitude must be positive, got {c!r}")
            self.p = float(p)
            self.c = float(c)
            default_floor = math.e if kind == "power_log" else 1e-300
            self.domain_floor = float(domain_floor) if domain_floor is not None \
                else default_floor
            if kind == "power_log" and self.domain_floor <= 1.0:
                raise NonPositivePhi("power_log needs domain_floor > 1 so the "
                                     "factor stays positive")
            self.grid = self.values = self.p_tail = self.c_tail = None
        elif kind == "tabulated":
            grid = np.asarray(grid, dtype=float)
            values = np.asarray(values, dtype=float)
            if grid.ndim != 1 or grid.size < 3 or grid.shape != values.shape:
                raise NonPositivePhi("tabulated spec needs >= 3 paired samples")
            if not np.all(np.diff(grid) > 0):
                raise NonPositivePhi("tabulated grid must be strictly increasing")
            if np.any(values <= 0):
                raise NonPositivePhi("tabulated values must be positive")
            if np.any(np.diff(values) < 0):
                raise NonPositivePhi("tabulated values must be nondecreasing")
            self.grid = grid
            self.values = values
            self.domain_floor = float(grid[0]) if domain_floor is None \
                else float(domain_floor)
            self.p = None
            self.c = None
            self._lg = np.log(grid)
            self._lv = np.log(values)
            # tail: least squares over the last decade (at least 3 points)
            mask = grid >= grid[-1] / 10.0
            if mask.sum() < 3:
                mask = np.zeros_like(mask)
                mask[-3:] = True
            self.p_tail = float(np.polyfit(self._lg[mask], self._lv[mask], 1)[0])
            self.c_tail = values[-1] / grid[-1] ** self.p_tail
        else:
            raise NonPositivePhi(f"unknown rate-factor kind {kind!r}")
        # the least argument taken: the floor less a relative 1e-12
        self.lowest = self.domain_floor * (1 - 1e-12)
        self.evaluate = array_path = self._array_path
        if self.p is not None:      # a Python float takes the scalar path
            c, p, with_log = self.c, self.p, kind == "power_log"
            power, log, below = np.power, np.log, self.lowest
            exact, isfinite = EXACT_POWERS.get(p), math.isfinite

            def evaluate(s):
                if type(s) is not float or s < below:
                    return array_path(s)    # which refuses s below the floor
                x = exact(s) if exact else math.nan     # nan: no formula
                if not isfinite(x):     # numpy's value and overflow warning
                    x = float(power(s, p))
                out = c * x     # same bits as numpy's product
                return out * float(log(s)) if with_log else out
            self.evaluate = evaluate

    @classmethod
    def power(cls, p: float, c: float = 1.0):
        return cls("power", p=p, c=c)

    @classmethod
    def power_log(cls, p: float, c: float = 1.0, domain_floor: float = math.e):
        return cls("power_log", p=p, c=c, domain_floor=domain_floor)

    @classmethod
    def tabulated(cls, grid, values):
        return cls("tabulated", grid=grid, values=values)

    def __call__(self, s):
        return self.evaluate(s)

    def _array_path(self, s):
        s_arr = np.asarray(s, dtype=float)
        scalar = s_arr.ndim == 0
        s_arr = np.atleast_1d(s_arr)
        if np.any(s_arr < self.lowest):
            raise NonPositivePhi(
                f"evaluation below domain floor {self.domain_floor}")
        if self.kind == "power":
            out = self.c * s_arr ** self.p
        elif self.kind == "power_log":
            out = self.c * s_arr ** self.p * np.log(s_arr)
        else:
            out = np.empty_like(s_arr)
            inside = s_arr <= self.grid[-1]
            out[inside] = np.exp(np.interp(np.log(s_arr[inside]),
                                           self._lg, self._lv))
            out[~inside] = self.c_tail * s_arr[~inside] ** self.p_tail
        return float(out[0]) if scalar else out

    def advance(self, phi_svc: float, u: float, I: float, dt: float) -> float:
        """The plant dI/dt = Phi(I) * phi_svc * u from I over dt, u held.

        A power Phi = c I^p from a normal I at or above its floor (I^(p-1)
        is then finite for p < 1), with k = c phi_svc u >= 0, takes the
        exact flow I (1 - x)^(-1/(p-1)), x = k (p-1) dt I^(p-1), computed as
        I exp(-log1p(-x)/(p-1)): exact near p = 1 too; inf past the escape
        time (x >= 1).  Every other Phi and input takes ``RK4_SUBSTEPS``
        RK4 substeps through ``evaluate``.
        """
        if u <= 0 or dt <= 0:
            return I
        if self.kind == "power" and I >= self.lowest and I >= 2.0 ** -1022 \
                and phi_svc >= 0:
            I, d = float(I), self.p - 1.0
            kdt = self.c * float(phi_svc) * float(u) * float(dt)
            try:
                x = kdt * d * math.pow(I, d)
                return math.inf if x >= 1 else \
                    I * math.exp(-math.log1p(-x) / d if d else kdt)
            except OverflowError:   # pow or exp beyond the float range
                return I if kdt == 0 else math.inf
        h = dt / RK4_SUBSTEPS
        f, half, sixth = self.evaluate, 0.5 * h, h / 6.0
        y = I
        for _ in range(RK4_SUBSTEPS):
            k1 = f(y) * phi_svc * u
            k2 = f(y + half * k1) * phi_svc * u
            k3 = f(y + half * k2) * phi_svc * u
            k4 = f(y + h * k3) * phi_svc * u
            y += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y


# ---------------------------------------------------------------------------
# reciprocal-integral classification


@dataclass(frozen=True)
class OsgoodResult:
    """Outcome of the reciprocal integral of Phi from I0 to infinity."""

    divergent: bool
    value: float  # math.inf when divergent
    tail_exponent: float


def osgood_classify(phi: PhiSpec, I0: float) -> OsgoodResult:
    """Classify the integral of 1/Phi from I0 to infinity.

    Divergence certifies that no finite-time escape is possible under any
    rate dI/dt <= a(t) * Phi(I) with locally integrable a.  Power kinds are
    evaluated in closed form; tabulated factors use the trapezoid rule over
    the table plus an analytic tail from the last fitted local exponent.
    """
    if I0 < phi.lowest:
        raise NonPositivePhi(f"I0={I0} below domain floor {phi.domain_floor}")
    if phi.kind != "power" and phi(I0) <= 0:   # c I^p > 0 if it underflows
        raise NonPositivePhi("rate factor must be positive at I0")

    if phi.kind == "power":     # the integral is the escape time of c I^p
        return OsgoodResult(phi.p <= 1.0,
                            float(blowup_time(I0, phi.c, phi.p)), phi.p)

    if phi.kind == "power_log":
        if phi.p <= 1.0:
            # log factor cannot rescue integrability: 1/(s^p ln s) still
            # diverges for p <= 1 (log-log growth at p = 1)
            return OsgoodResult(True, math.inf, phi.p)
        # substitute u = ln s: the integral of exp(-(p-1)u) / (c u) du from
        # ln I0 is the exponential integral E1((p-1) ln I0) / c
        val = scipy.special.exp1((phi.p - 1.0) * math.log(I0)) / phi.c
        return OsgoodResult(False, float(val), phi.p)

    # tabulated: trapezoid rule over the table, analytic tail beyond it
    p_tail = phi.p_tail
    lo = max(I0, phi.grid[0])
    hi = phi.grid[-1]
    body = 0.0
    if hi > lo:
        s_grid = np.geomspace(lo, hi, 2049)
        f = 1.0 / phi(s_grid)
        body = float((np.diff(s_grid) * (f[1:] + f[:-1]) / 2.0).sum())
    tail = blowup_time(max(hi, lo), phi.c_tail, p_tail)
    return OsgoodResult(p_tail <= 1.0, body + tail, p_tail)


# ---------------------------------------------------------------------------
# closed forms


# exp overflows above this, the log of the largest float
LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _power_times(x: float, y: float, scale: float) -> float:
    """scale * x ** y for positive floats, with that product's bits; taken
    in logarithms where the power alone is beyond the float range (there
    Python's ** raises), and inf where the product is beyond it too."""
    try:
        return scale * x ** y
    except OverflowError:
        log_v = math.log(scale) + y * math.log(x)
        return math.exp(log_v) if log_v < LOG_FLOAT_MAX else math.inf


def excess_escape_time(I0, a, delta):
    """Escape time I0^(-delta) / (a delta) of dI/dt = a I^(1+delta): the
    bound I0^(1-p)/(a (p-1)) at delta = p - 1, bit for bit, since
    fl(1 - p) = -fl(p - 1); inf where it is beyond the float range.
    Callers check delta > 0."""
    try:
        return I0 ** (-delta) / (a * delta)
    except OverflowError:   # the power alone is beyond the float range
        return _power_times(I0, -delta, 1.0 / (a * delta))


def blowup_bound(I0: float, I1: float, a0: float, p: float) -> float:
    """Upper bound on the escape time under dI/dt >= a0 * I^p above I1.

    For I0 >= I1 the bound is I0^(1-p)/(a0 (p-1)).  For I0 < I1 the
    superlinear floor only holds once the state reaches I1, so the bound
    returned is the post-threshold time I1^(1-p)/(a0 (p-1)); the transit
    time up to I1 is not bounded by these hypotheses.
    """
    if p <= 1.0:
        raise SubcriticalExponent(f"need p > 1, got p={p}")
    if a0 <= 0 or I0 <= 0 or I1 <= 0:
        raise NonPositivePhi("a0, I0, I1 must be positive")
    return excess_escape_time(I0 if I0 >= I1 else I1, a0, p - 1.0)


def powerlaw_solution(I0: float, a0: float, p: float, t) -> float | np.ndarray:
    """Exact solution of dI/dt = a0 * I^p from I0.

    I0 exp(-log1p(-x)/(p-1)) with x = a0 (p-1) t I0^(p-1), or I0 e^(a0 t)
    at p = 1: (I0^(1-p) - a0 (p-1) t)^(-1/(p-1)) cancels near p = 1.  For
    p > 1 it escapes at T = I0^(1-p)/(a0 (p-1)); times with x >= 1 raise
    BeyondBlowup.  Where I0^(p-1) is beyond the float range the base is
    unfactored; it may underflow at t = 0, where the solution is I0.
    """
    if I0 <= 0 or a0 <= 0:
        raise NonPositivePhi("I0 and a0 must be positive")
    t_arr = np.asarray(t, dtype=float)
    delta = p - 1.0
    try:
        x = a0 * delta * t_arr * I0 ** delta
    except OverflowError:   # I0^delta beyond the float range: I0 unfactored
        x, base = None, I0 ** -delta - a0 * delta * t_arr
    if p > 1.0 and np.any(x >= 1.0 if x is not None
                          else (base <= 0) & (t_arr != 0.0)):
        T = excess_escape_time(I0, a0, delta)
        raise BeyondBlowup(f"t >= blow-up time {T!r}")
    if x is None:
        with np.errstate(divide="ignore"):      # 0^(-1/delta) at t = 0
            out = np.where(t_arr == 0.0, I0, base ** (-1.0 / delta))
    else:
        out = I0 * np.exp(-np.log1p(-x) / delta if delta else a0 * t_arr)
    return float(out) if t_arr.ndim == 0 else out


def blowup_time(I0: float, a0: float, p: float) -> float:
    """Exact escape time of dI/dt = a0 * I^p (infinite when p <= 1)."""
    if p <= 1.0:
        return math.inf
    return excess_escape_time(I0, a0, p - 1.0)


# ---------------------------------------------------------------------------
# numerical oracle: adaptive Cash-Karp RK45 with threshold event


@dataclass
class IntegrationResult:
    t: np.ndarray
    I: np.ndarray
    status: str                # "completed" | "blowup_detected"
    t_star: float | None = None
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def blowup_detected(self) -> bool:
        return self.status == "blowup_detected"


def envelope_rhs(phi: PhiSpec, gain=1.0):
    """Right-hand side gain * Phi(I) for a constant gain."""
    g = float(gain)
    return lambda t, I: g * phi(I)


# Cash-Karp 5(4) tableau
_CK_C = (0.0, 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8)
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def integrate(rhs, I0: float, horizon: float,
              blowup_threshold: float | None = None,
              rtol: float = 1e-8, atol: float = 1e-12) -> IntegrationResult:
    """Adaptive scalar integration of dI/dt = rhs(t, I) with blow-up event.

    Steps are accepted when the embedded 4th/5th order error estimate meets
    the tolerance and rejected otherwise.  When the state crosses
    ``blowup_threshold`` (default 1e9 * I0) the crossing time is refined by
    log-interpolation within the step and the run stops with status
    ``blowup_detected``.  Near a blow-up the controller legitimately drives
    the step far below the time resolution while the state keeps advancing,
    so stalling is judged on joint (t, I) progress: a step that moves
    neither raises StepUnderflowWithoutThreshold, as does exhausting the
    step budget.
    """
    if I0 <= 0:
        raise NonPositivePhi("I0 must be positive")
    threshold = 1e9 * I0 if blowup_threshold is None else float(blowup_threshold)
    if threshold <= I0:
        raise NonPositivePhi("blow-up threshold must exceed I0")

    t, I = 0.0, float(I0)
    ts_out, is_out = [t], [I]
    f0 = rhs(t, I)
    # initial step from the local timescale
    scale = atol + rtol * abs(I)
    h = min(horizon, 0.1 * scale / max(abs(f0), 1e-300)) or horizon
    h = min(max(h, horizon * 1e-12), horizon)
    n_steps = n_rejected = 0
    k = [0.0] * 6

    while t < horizon:
        if n_steps + n_rejected > INTEGRATE_MAX_STEPS:
            raise StepUnderflowWithoutThreshold(
                f"step budget exhausted at t={t!r}, I={I!r}")
        h = min(h, horizon - t)
        failed = False
        k[0] = rhs(t, I)
        for i in range(1, 6):
            yi = I + h * sum(a * k[j] for j, a in enumerate(_CK_A[i]))
            if not math.isfinite(yi) or yi <= 0:
                failed = True
                break
            k[i] = rhs(t + _CK_C[i] * h, yi)
        if not failed:
            y5 = I + h * sum(b * k[i] for i, b in enumerate(_CK_B5))
            y4 = I + h * sum(b * k[i] for i, b in enumerate(_CK_B4))
            failed = not math.isfinite(y5) or not math.isfinite(y4) or y5 <= 0
        if failed:
            h *= 0.25
            n_rejected += 1
            continue
        err = abs(y5 - y4)
        scale = atol + rtol * max(abs(I), abs(y5))
        ratio = err / scale
        if ratio > 1.0:
            h *= max(0.1, 0.9 * ratio ** -0.2)
            n_rejected += 1
            continue

        t_new, i_new = t + h, y5
        if t_new == t and i_new == I:
            raise StepUnderflowWithoutThreshold(
                f"no progress at t={t!r}, I={I!r} below threshold {threshold!r}")
        n_steps += 1
        if i_new >= threshold:
            # refine the crossing time inside the step via exponential
            # interpolation of the state (I < threshold: the run stops at
            # the first crossing)
            frac = (math.log(threshold) - math.log(I)) \
                / (math.log(i_new) - math.log(I))
            t_star = t + frac * h
            ts_out.append(t_star)
            is_out.append(threshold)
            return IntegrationResult(np.array(ts_out), np.array(is_out),
                                     "blowup_detected", float(t_star),
                                     n_steps, n_rejected)
        t, I = t_new, i_new
        ts_out.append(t)
        is_out.append(I)
        h *= min(5.0, 0.9 * max(ratio, 1e-12) ** -0.2)

    return IntegrationResult(np.array(ts_out), np.array(is_out),
                             "completed", None, n_steps, n_rejected)


# ---------------------------------------------------------------------------
# discrete recursion analysis


@dataclass(frozen=True)
class DiscreteRsiResult:
    """Simulation of I_{n+1} = I_n + a * I_n^p against the analytic step
    bound.

    ``steps_to_threshold`` counts the iterates inspected up to and including
    the first one at or above the threshold (the initial state included).
    The quoted analytic bound ceil(I0^(1-p)/(a(p-1))) disagrees with direct
    simulation on canonical inputs; the discrepancy flag is raised instead
    of silently trusting either number.
    """

    iterates: tuple[float, ...]
    steps_to_threshold: int
    analytic_step_bound: int | float    # inf beyond the float range
    bound_respected: bool

    @property
    def discrepancy(self) -> bool:
        return not self.bound_respected


def discrete_rsi(I0: float, a: float, p: float,
                 threshold: float) -> DiscreteRsiResult:
    """Iterate the superlinear recursion until the threshold is crossed."""
    if a <= 0 or p <= 1.0 or I0 <= 0:
        raise SubcriticalExponent("need a > 0, p > 1, I0 > 0")
    iterates = [float(I0)]
    x = float(I0)
    while x < threshold and len(iterates) <= DISCRETE_MAX_STEPS:
        try:
            x = x + a * x ** p
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            x = math.inf
        iterates.append(x)
        if x == math.inf:
            break
    if iterates[-1] < threshold:
        raise StepUnderflowWithoutThreshold(
            f"threshold {threshold} not reached within {DISCRETE_MAX_STEPS} "
            "steps")
    steps = len(iterates)
    bound = excess_escape_time(I0, a, p - 1.0)     # inf beyond the floats
    bound = bound if bound == math.inf else math.ceil(bound)
    return DiscreteRsiResult(tuple(iterates), steps, bound, steps <= bound)


@dataclass(frozen=True)
class SublinearCheckResult:
    passed: bool
    first_violation: int | None

    def __bool__(self):
        return self.passed


def discrete_sublinear_check(iterates, A: float, p: float) -> SublinearCheckResult:
    """Verify the increment envelope I_{n+1} - I_n <= A * (1 + I_n)^p.

    With p <= 1 a pass certifies the sequence cannot explode in finitely
    many steps.
    """
    if p > 1.0:
        raise SubcriticalExponent(f"sublinear certificate needs p <= 1, got {p}")
    if A <= 0:
        raise NonPositivePhi("A must be positive")
    x = np.asarray(list(iterates), dtype=float)
    bad = np.flatnonzero(np.diff(x) > A * (1.0 + x[:-1]) ** p)
    return SublinearCheckResult(bad.size == 0,
                                int(bad[0]) if bad.size else None)


# ---------------------------------------------------------------------------
# capital and data channels


@dataclass(frozen=True)
class CapitalParams:
    """Reduced-form capital accumulation dK/dt = r K^zeta - delta K.

    In u = K^(1-zeta) the channel is linear, u' = (zeta-1)(delta u - r).
    For zeta > 1, K escapes iff it grows at K0, that is iff K0 exceeds the
    critical stock K* = (delta/r)^(1/(zeta-1)); at or below K* it decays
    or stays.
    """

    K0: float
    r: float
    zeta: float
    delta: float = 0.0

    def __post_init__(self):
        if self.K0 <= 0 or self.r <= 0 or self.zeta < 0 or self.delta < 0:
            raise ValueError("need K0 > 0, r > 0, zeta >= 0, delta >= 0")

    def halved_rate_holds(self) -> bool:
        """Whether dK/dt >= (r/2) K^zeta from K0 on: delta = 0, or zeta > 1
        and K0 >= (2 delta/r)^(1/(zeta-1)), from where K only grows."""
        return self.delta == 0.0 or (self.zeta > 1.0 and _power_times(
            self.K0, 1.0 - self.zeta, 2.0 * self.delta) <= self.r)

    def escapes(self) -> bool:
        """Whether K escapes: zeta > 1 and K0 > K*, delta K0^(1-zeta) < r."""
        return self.zeta > 1.0 and (self.delta == 0.0 or _power_times(
            self.K0, 1.0 - self.zeta, self.delta) < self.r)

    def escape_time(self) -> float:
        """T_K, infinite when K does not escape (zeta <= 1, or K0 <= K*),
        or escapes after a time beyond the float range.

        Where the halved rate holds, T_K = 2 K0^(1-zeta) / (r (zeta-1)),
        the escape time of dK/dt = (r/2) K^zeta.  Between K* and that
        threshold it is the exact escape time
        ln(r / (r - delta K0^(1-zeta))) / ((zeta-1) delta), which is
        shorter."""
        if not self.escapes():
            return math.inf
        if self.halved_rate_holds():
            return 2.0 * blowup_time(self.K0, self.r, self.zeta)
        room = self.r - _power_times(self.K0, 1.0 - self.zeta, self.delta)
        return math.log(self.r / room) / ((self.zeta - 1.0) * self.delta)


@dataclass(frozen=True)
class CapitalLowerResult:
    K_lower: float | np.ndarray
    T_K: float
    label: str  # "power-blowup" | "exponential" | "polynomial" | "bounded"


def capital_lower(params: CapitalParams, t) -> CapitalLowerResult:
    """Explicit lower solution of the capital channel.  Where the halved
    rate holds, the comparison dK/dt >= (r/2) K^zeta, solved by
    ``powerlaw_solution``; elsewhere (delta > 0) the exact solution.  For
    zeta > 1 it escapes at T_K = ``escape_time()`` when that is finite
    (t >= T_K raises BeyondBlowup), and is labelled bounded when it is
    not.  Within 1e-9 of zeta = 1 it is exponential, below that polynomial
    (bounded when delta > 0), T_K infinite."""
    zeta, delta = params.zeta, params.delta
    t_arr = np.asarray(t, dtype=float)
    if abs(zeta - 1.0) < P_DEGENERATE_TOL:
        label, T_K = "exponential", math.inf
    elif zeta < 1.0:
        label, T_K = "polynomial" if delta == 0.0 else "bounded", math.inf
    else:
        T_K = params.escape_time()
        label = "power-blowup" if params.escapes() else "bounded"
        if np.any(t_arr >= T_K):
            raise BeyondBlowup(f"t >= capital escape time T_K={T_K!r}")
    if params.halved_rate_holds():
        return CapitalLowerResult(powerlaw_solution(
            params.K0, 0.5 * params.r, zeta, t), T_K, label)
    if label == "exponential":
        K = params.K0 * np.exp((params.r - delta) * t_arr)
    else:   # u = K^(1-zeta) relaxes to r/delta at rate (1-zeta) delta
        try:
            scale, u0, rest = 1.0, params.K0 ** (1.0 - zeta), params.r / delta
        except OverflowError:   # u0 beyond the float range: u in its units
            scale, u0 = params.K0, 1.0
            rest = params.r / delta * params.K0 ** (zeta - 1.0)
        u = u0 + (u0 - rest) * np.expm1((zeta - 1.0) * delta * t_arr)
        if np.any(u <= 0):      # the last ulps before T_K
            raise BeyondBlowup(f"t >= capital escape time T_K={T_K!r}")
        K = scale * u ** (1.0 / (1.0 - zeta))
    return CapitalLowerResult(float(K) if t_arr.ndim == 0 else K, T_K, label)


def logistic_data(D_max: float, nu: float, rate: float, t) -> float | np.ndarray:
    """Closed-form saturating data stock D(t) = D_max / (1 + nu e^{-rate t})."""
    if D_max <= 0 or nu <= 0 or rate <= 0:
        raise NonPositivePhi("D_max, nu, rate must be positive")
    t_arr = np.asarray(t, dtype=float)
    out = D_max / (1.0 + nu * np.exp(-rate * t_arr))
    return float(out) if t_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# robustness: ordered worst-case envelopes


@dataclass(frozen=True)
class WorstCaseResult:
    T_min: float
    T_max: float
    verdict: str  # "robust-nonsingular" | "robust-blowup" | "indeterminate"


def worst_case_times(a_min: PhiSpec, a_max: PhiSpec,
                     I0: float) -> WorstCaseResult:
    """Uniform time bounds from ordered gain envelopes.

    T_min integrates 1/a_max (the fastest admissible growth), T_max
    integrates 1/a_min.  A divergent integral of 1/a_max certifies robust
    nonsingularity, a convergent one of 1/a_min robust blow-up (if beyond
    the float range, its time reads inf); otherwise the question is open.
    """
    floor = max(a_min.domain_floor, a_max.domain_floor, I0)
    grid = np.geomspace(floor, floor * ORDER_CHECK_SPAN, ORDER_CHECK_POINTS)
    lo_vals = a_min(grid)
    hi_vals = a_max(grid)
    if np.any(lo_vals > hi_vals * (1 + 1e-9)):
        worst = int(np.argmax(lo_vals / hi_vals))
        raise EnvelopeOrderViolation(
            f"a_min({grid[worst]:.6g})={lo_vals[worst]:.6g} exceeds "
            f"a_max={hi_vals[worst]:.6g}")
    t_min_res = osgood_classify(a_max, max(I0, a_max.domain_floor))
    t_max_res = osgood_classify(a_min, max(I0, a_min.domain_floor))
    T_min = t_min_res.value
    T_max = t_max_res.value
    if t_min_res.divergent:
        verdict = "robust-nonsingular"
    elif not t_max_res.divergent:
        verdict = "robust-blowup"
    else:
        verdict = "indeterminate"
    return WorstCaseResult(T_min, T_max, verdict)


# ---------------------------------------------------------------------------
# parameter-region table


REGION_A_SUPER = "A-supercritical"
REGION_A_SUB = "A-subcritical"
REGION_B = "B-capped"
REGION_C = "C-logistic"

BLOWUP = "finite-time blow-up"
NONSINGULAR = "nonsingular"
CONDITIONAL = "conditional"


@dataclass(frozen=True)
class RegionVerdict:
    region: str
    conclusion: str
    bound: float | None = None
    bound_kind: str | None = None  # "T_K" | "T_bu"
    note: str = ""


def classify_region(zeta: float, p: float, capped_power: bool = False,
                    logistic: bool = False,
                    baseline_effort_floor: bool = False,
                    capital: CapitalParams | None = None) -> RegionVerdict:
    """Map (zeta, p, channel flags) to the canonical parameter regions.

    A-supercritical (zeta>1, p>1): blow-up, bounded by the capital escape
    time when parameters are supplied (infinite when it is beyond the float
    range), but conditional when they put K0 at or below the critical
    stock, where capital does not escape.
    A-subcritical (zeta>1, p<=1): nonsingular, possibly hyper-exponential.
    B (capped power): nonsingular for p<=1; for p>1 blow-up requires a
    baseline effort floor, otherwise the conclusion is conditional.  C
    (logistic data, bounded compute): the criterion reduces to p versus 1.
    """
    if capped_power and logistic:
        raise AmbiguousFlags("capped_power and logistic_data cannot both be "
                             "the dominant channel")
    if capped_power:
        if p <= 1.0:
            return RegionVerdict(REGION_B, NONSINGULAR,
                                 note="service cap plus sublinear feedback")
        if baseline_effort_floor:
            return RegionVerdict(
                REGION_B, BLOWUP,
                note="superlinear feedback with a positive effort floor; "
                     "capped power does not preclude algorithmic escape")
        return RegionVerdict(REGION_B, CONDITIONAL,
                             note="superlinear feedback but no certified "
                                  "effort floor")
    if logistic:
        if p <= 1.0:
            return RegionVerdict(REGION_C, NONSINGULAR,
                                 note="saturating data reduces to the "
                                      "algorithmic criterion")
        return RegionVerdict(REGION_C, BLOWUP,
                             note="saturating data with superlinear feedback")
    if zeta > 1.0:
        bound = capital.escape_time() if capital is not None else None
        if capital is not None and not capital.escapes():
            stays = "capital at or below its critical stock does not escape; "
            if p > 1.0:
                return RegionVerdict(REGION_A_SUPER, CONDITIONAL,
                                     note=stays + "superlinear feedback "
                                                  "alone is not certified")
            return RegionVerdict(REGION_A_SUB, NONSINGULAR,
                                 note=stays + "feedback is sublinear")
        if p > 1.0:
            late = "; capital escapes after a time beyond the float range" \
                if bound == math.inf else ""
            return RegionVerdict(REGION_A_SUPER, BLOWUP, bound,
                                 "T_K" if bound is not None else None,
                                 note="superlinear capital and feedback" + late)
        return RegionVerdict(REGION_A_SUB, NONSINGULAR,
                             note="capital escapes but feedback is "
                                  "sublinear; growth may be hyper-exponential")
    raise AmbiguousFlags(
        "zeta <= 1 with no capped-power or logistic-data flag does not "
        "select a tabulated region")
