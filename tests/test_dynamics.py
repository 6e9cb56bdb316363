import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from rsi_certify import certify as ct
from rsi_certify import dynamics as dyn
from rsi_certify.errors import (
    AmbiguousFlags,
    BeyondBlowup,
    EnvelopeOrderViolation,
    NonPositivePhi,
    StepUnderflowWithoutThreshold,
    SubcriticalExponent,
)


# ---------------------------------------------------------------------------
# reciprocal integral classification


def test_osgood_power_quadratic_closed_form():
    res = dyn.osgood_classify(dyn.PhiSpec.power(2.0), 1.0)
    assert not res.divergent
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_osgood_power_linear_divergent():
    res = dyn.osgood_classify(dyn.PhiSpec.power(1.0), 1.0)
    assert res.divergent
    assert math.isinf(res.value)


def test_osgood_boundary_exactness():
    for p in (0.5, 0.9, 1.0):
        assert dyn.osgood_classify(dyn.PhiSpec.power(p), 1.0).divergent
    for p in (1.01, 1.5):
        assert not dyn.osgood_classify(dyn.PhiSpec.power(p), 1.0).divergent


def test_osgood_s_log_s_divergent():
    # analytic oracle: integral of ds/(s log s) = log log s, divergent
    res = dyn.osgood_classify(dyn.PhiSpec.power_log(1.0), math.e)
    assert res.divergent


def test_osgood_superlinear_log_convergent_matches_quadrature():
    phi = dyn.PhiSpec.power_log(2.0)
    res = dyn.osgood_classify(phi, math.e)
    oracle, _ = sp_integrate.quad(lambda s: 1.0 / (s * s * math.log(s)),
                                  math.e, np.inf, limit=200)
    assert not res.divergent
    assert res.value == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 4.0, 7.0])
@pytest.mark.parametrize("I0", [math.e, 10.0, 1e3, 1e8])
@pytest.mark.parametrize("c", [1.0, 2.5])
def test_osgood_power_log_matches_exponential_integral(p, I0, c):
    # oracle: 50-digit E1((p - 1) ln I0) / c; the relative error is set by
    # the rounding of (p - 1) ln I0 times E1's condition number (~110 at
    # p = 7, I0 = 1e8)
    mpmath.mp.dps = 50
    exact = mpmath.e1((mpmath.mpf(p) - 1) * mpmath.log(mpmath.mpf(I0))) / c
    res = dyn.osgood_classify(dyn.PhiSpec.power_log(p, c), I0)
    assert not res.divergent
    assert abs(res.value - exact) <= 5e-14 * exact


def test_osgood_power_log_loads_exp1_on_first_use():
    # a fresh interpreter: the CLI's import leaves scipy.special unloaded,
    # and the first power_log classification loads it and gives its E1 in
    # bits
    src = os.path.dirname(os.path.dirname(dyn.__file__))
    probe = (
        "import math, sys, rsi_certify.cli\n"
        "from rsi_certify import dynamics as dyn\n"
        "print('scipy.special' in sys.modules)\n"
        "I0s = (math.e, 3.0, 10.0, 1e8, 1e300)\n"
        "got = [dyn.osgood_classify(dyn.PhiSpec.power_log(1.5, 0.5), I0)"
        ".value for I0 in I0s]\n"
        "print('scipy.special' in sys.modules)\n"
        "import scipy.special\n"
        "print(all(g.hex() == float(scipy.special.exp1(0.5 * math.log(I0))"
        " / 0.5).hex() for g, I0 in zip(got, I0s)))\n")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True", "True"]


def test_osgood_tabulated_convergent_tail():
    grid = np.geomspace(1.0, 1e4, 200)
    phi = dyn.PhiSpec.tabulated(grid, 2.0 * grid ** 2)
    res = dyn.osgood_classify(phi, 1.0)
    # oracle: integral of ds/(2 s^2) from 1 = 0.5
    assert not res.divergent
    assert res.value == pytest.approx(0.5, rel=1e-3)
    assert res.tail_exponent == pytest.approx(2.0, abs=1e-6)


def test_osgood_tabulated_sublinear_tail_divergent():
    grid = np.geomspace(1.0, 1e4, 100)
    phi = dyn.PhiSpec.tabulated(grid, grid ** 0.5)
    assert dyn.osgood_classify(phi, 1.0).divergent


def test_osgood_rejects_below_floor():
    with pytest.raises(NonPositivePhi):
        dyn.osgood_classify(dyn.PhiSpec.power_log(1.0), 1.5)


def test_osgood_power_whose_factor_underflows_at_I0():
    # 1e-200 ** 3 rounds to 0.0, but c I^p > 0 for any I0 > 0 and c > 0:
    # the integral converges, to a time beyond the float range
    phi = dyn.PhiSpec.power(3.0)
    assert phi(1e-200) == 0.0
    assert dyn.osgood_classify(phi, 1e-200) == dyn.OsgoodResult(
        False, math.inf, 3.0)
    assert dyn.worst_case_times(phi, phi, 1e-200) == dyn.WorstCaseResult(
        math.inf, math.inf, "robust-blowup")
    # a power_log factor is 0 at s = 1, below its floor by a relative 1e-12
    with pytest.raises(NonPositivePhi, match="positive at I0"):
        dyn.osgood_classify(dyn.PhiSpec.power_log(2.0, domain_floor=1.0
                                                  + 1e-13), 1.0)


# ---------------------------------------------------------------------------
# rate factor: a Python float against a one-element array

# exponents at which numpy's power loop and libm often differ in the last
# bit, the exact-power table's and their neighbours (the ufunc path)
EXPONENTS = st.sampled_from([0.8, 1.5, 2.0, 3.0, *dyn.EXACT_POWERS,
                             float(np.nextafter(2.0, math.inf)),
                             float(np.nextafter(2.0, -math.inf))]) \
    | st.floats(0.0, 6.0)


@st.composite
def phi_and_state(draw):
    kind = draw(st.sampled_from(["power", "power_log", "tabulated"]))
    p = draw(EXPONENTS)
    c = draw(st.floats(1e-3, 1e3))
    if kind == "tabulated":
        grid = np.geomspace(draw(st.floats(1e-3, 10.0)),
                            draw(st.floats(1e2, 1e6)), draw(st.integers(3, 40)))
        phi = dyn.PhiSpec.tabulated(grid, c * grid ** p)
    else:
        floor = draw(st.floats(1.001, 50.0) if kind == "power_log"
                     else st.floats(1e-6, 50.0))
        phi = dyn.PhiSpec(kind, p=p, c=c, domain_floor=floor)
    floor = phi.domain_floor
    s = draw(st.sampled_from([floor, floor * (1 - 1e-13), floor * (1 - 1e-11),
                              math.inf])
             | st.floats(floor / 2, floor * 1e6)
             | st.floats(1e100, 1e308))       # s**p overflows for p > 3.08
    return phi, s


@settings(max_examples=400, deadline=None)
@given(phi_and_state())
# states where libm's pow or log and numpy's loops differ in the last bit
# on an AVX-512 x86-64 host
@example((dyn.PhiSpec.power(0.8), 10.124989680618624))
@example((dyn.PhiSpec.power(2.0), 33.80206634493505))
@example((dyn.PhiSpec.power_log(1.0, domain_floor=1.0005), 1.0009197891108657))
@example((dyn.PhiSpec.power_log(2.0), 977.2087326721016))
def test_scalar_call_matches_array_call_bit_for_bit(case):
    phi, s = case
    with np.errstate(over="ignore"):
        try:
            expected = phi(np.array([s]))[0]
        except NonPositivePhi:
            with pytest.raises(NonPositivePhi):
                phi(s)
            return
        got = phi(s)
    assert type(got) is float
    assert got == expected


def test_scalar_call_overflows_to_inf_like_the_array_call():
    phi = dyn.PhiSpec.power(3.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert phi(1e200) == math.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert phi(np.array([1e200]))[0] == math.inf
    # an exact-table exponent: the overflowing s * s goes back to numpy
    square = dyn.PhiSpec.power(2.0)
    with pytest.warns(RuntimeWarning, match="overflow encountered in power"):
        assert square(1e155) == math.inf
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert square(np.array([1e155]))[0] == math.inf


def bits_of(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("p", sorted(dyn.EXACT_POWERS))
def test_exact_powers_are_numpys_bits(p):
    # a numpy whose power loop computes one of these otherwise fails here,
    # not through moved digests
    rng = np.random.default_rng(20221)
    top = math.sqrt(np.finfo(float).max)
    near_top = [top * (1 + k * 2.0 ** -52) for k in range(-4, 5)]
    x = np.concatenate([
        rng.integers(0, 0x7FF0_0000_0000_0000, 40_000,
                     dtype=np.uint64).view(np.float64),   # finite, >= 0
        rng.integers(1, 1 << 52, 2_000, dtype=np.uint64).view(np.float64),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.0, *near_top,
         np.finfo(float).max, math.inf]])
    entry = dyn.EXACT_POWERS[p]
    with np.errstate(all="ignore"):
        want = np.power(x, p)
        got = np.array([entry(s) for s in x.tolist()])
        # the scalar call the evaluator makes, and the evaluator itself
        scalar = np.array([float(np.power(s, p)) for s in x.tolist()])
        phi = dyn.PhiSpec("power", p=p, domain_floor=5e-324)
        evaluated = np.array([phi(s) for s in x[x > 0].tolist()])
    np.testing.assert_array_equal(bits_of(scalar), bits_of(want))
    finite = np.isfinite(got)
    np.testing.assert_array_equal(bits_of(got[finite]), bits_of(want[finite]))
    assert not np.isfinite(want[~finite]).any()   # numpy's value stands
    np.testing.assert_array_equal(bits_of(evaluated), bits_of(want[x > 0]))


# ---------------------------------------------------------------------------
# closed forms


def test_blowup_bound_above_threshold():
    assert dyn.blowup_bound(1.0, 0.5, 1.0, 2.0) == pytest.approx(1.0)
    assert dyn.blowup_bound(2.0, 0.5, 1.0, 2.0) == pytest.approx(0.5)


def test_blowup_bound_guard():
    with pytest.raises(SubcriticalExponent):
        dyn.blowup_bound(1.0, 1.0, 1.0, 1.0)


def test_powerlaw_solution_values():
    assert dyn.powerlaw_solution(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0)
    assert dyn.powerlaw_solution(1.0, 1.0, 2.0, 0.0) == pytest.approx(1.0)
    assert dyn.powerlaw_solution(1.0, 1.0, 2.0, 0.999) == pytest.approx(1000.0)
    with pytest.raises(BeyondBlowup):
        dyn.powerlaw_solution(1.0, 1.0, 2.0, 1.0)


@pytest.mark.parametrize("I0, p", [
    (1e200, 3.0),       # I0^(1-p) underflows to 0
    (1e200, 2.6),       # to a subnormal
    (1e-200, -1.0),     # I0^(p-1) = 1e400 with p < 1
])
def test_powerlaw_solution_is_I0_at_t0_beyond_the_float_range(I0, p):
    # I0^(p-1) overflows, so the base is unfactored and may lose I0; at
    # t = 0 the solution is I0 exactly, element by element for array t
    with np.errstate(all="raise"):
        assert dyn.powerlaw_solution(I0, 1.0, p, 0.0) == I0
        t = np.array([0.0, 1e-300, 0.0]) if p < 1 else np.zeros(2)
        out = dyn.powerlaw_solution(I0, 1.0, p, t)
    assert out[0] == out[-1] == I0
    if p < 1:   # t > 0 is the unfactored form's: (I0^2 + 2 t)^(1/2)
        assert out[1] == (I0 ** 2 + 2e-300) ** 0.5
    else:       # the escape time I0^(1-p)/(p-1) lies below 1e-300
        with pytest.raises(BeyondBlowup):
            dyn.powerlaw_solution(I0, 1.0, p, np.array([0.0, 1e-300]))


def test_powerlaw_degenerate_exponent_limit():
    out = dyn.powerlaw_solution(2.0, 0.3, 1.0 + 1e-12, 5.0)
    assert out == pytest.approx(2.0 * math.exp(1.5), rel=1e-8)


@pytest.mark.parametrize("p", [1.0 + s * e for s in (-1.0, 1.0)
                               for e in (1e-8, 1e-6, 1e-4)])
def test_powerlaw_solution_near_the_exponential_is_exact(p):
    # (I0^(1-p) - a0 (p-1) t)^(-1/(p-1)) cancels here: 3.3e-9 relative at
    # p = 1 + 1e-8, 2.4e-11 at 1 + 1e-6, 2.4e-13 at 1 + 1e-4
    I0, a0, t = 1.3, 0.7, 2.0
    with mpmath.workdps(50):
        d = mpmath.mpf(p) - 1
        exact = I0 * (1 - a0 * d * t * mpmath.mpf(I0) ** d) ** (-1 / d)
        assert abs(dyn.powerlaw_solution(I0, a0, p, t) - exact) \
            <= 1e-14 * exact


def test_powerlaw_solution_satisfies_its_ode():
    # numerical derivative of the closed form must match a0 * I^p
    for p in (1.5, 2.0, 3.0):
        a0, I0 = 0.7, 1.3
        T = dyn.blowup_time(I0, a0, p)
        t = np.linspace(0.05 * T, 0.8 * T, 30)
        h = 1e-6 * T
        up = dyn.powerlaw_solution(I0, a0, p, t + h)
        dn = dyn.powerlaw_solution(I0, a0, p, t - h)
        deriv = (up - dn) / (2 * h)
        vals = dyn.powerlaw_solution(I0, a0, p, t)
        np.testing.assert_allclose(deriv, a0 * vals ** p, rtol=1e-6)


# ---------------------------------------------------------------------------
# integration oracle


def test_integrate_blowup_detection_quadratic():
    # closed-form oracle: crossing of 1e6 happens at 1 - 1/1e6
    res = dyn.integrate(dyn.envelope_rhs(dyn.PhiSpec.power(2.0)), 1.0,
                        horizon=2.0, blowup_threshold=1e6)
    assert res.blowup_detected
    assert res.t_star == pytest.approx(1.0 - 1e-6, abs=1e-3)


def test_integrate_linear_completes():
    res = dyn.integrate(dyn.envelope_rhs(dyn.PhiSpec.power(1.0)), 1.0,
                        horizon=10.0, blowup_threshold=1e9,
                        rtol=1e-11, atol=1e-14)
    assert res.status == "completed"
    assert res.I[-1] == pytest.approx(math.exp(10.0), rel=1e-8)


def test_integrate_sublinear_any_horizon():
    # closed form: I(t) = (sqrt(I0) + phibar*t/2)^2 for dI = phibar*sqrt(I)
    phibar = 0.8
    res = dyn.integrate(dyn.envelope_rhs(dyn.PhiSpec.power(0.5), phibar), 4.0,
                        horizon=50.0, rtol=1e-10)
    assert res.status == "completed"
    oracle = (math.sqrt(4.0) + phibar * 50.0 / 2.0) ** 2
    assert res.I[-1] == pytest.approx(oracle, rel=1e-7)


def test_integrate_threshold_correction_grid():
    # detected crossing times agree with the threshold-corrected closed form
    for p in (1.5, 2.0, 3.0):
        for a0 in (0.5, 2.0):
            I0, thr = 1.0, 1e6
            res = dyn.integrate(dyn.envelope_rhs(dyn.PhiSpec.power(p), a0),
                                I0, horizon=1e6, blowup_threshold=thr)
            expected = (I0 ** (1 - p) - thr ** (1 - p)) / (a0 * (p - 1))
            assert res.blowup_detected
            assert res.t_star == pytest.approx(expected, rel=1e-3)


def test_integrate_time_varying_gain():
    # dI = 2t * I -> I(t) = exp(t^2)
    res = dyn.integrate(lambda t, i: 2 * t * i, 1.0, horizon=2.0,
                        blowup_threshold=1e9, rtol=1e-10)
    assert res.status == "completed"
    assert res.I[-1] == pytest.approx(math.exp(4.0), rel=1e-7)


def test_integrate_rejects_bad_threshold():
    with pytest.raises(NonPositivePhi):
        dyn.integrate(lambda t, i: i, 1.0, 1.0, blowup_threshold=0.5)


def test_integrate_rejects_a_stage_that_leaves_the_positive_states():
    # dI = -I decays below atol, where the controller grows the step until
    # a stage overshoots zero: that stage is rejected and the step shrunk,
    # so rhs is never evaluated at a nonpositive state
    seen = []

    def rhs(t, i):
        seen.append(i)
        return -i
    res = dyn.integrate(rhs, 1.0, horizon=100.0)
    assert res.status == "completed" and res.t[-1] == 100.0
    assert res.n_rejected > 0
    assert min(seen) > 0 and np.all(res.I > 0)
    assert res.I[-1] == pytest.approx(math.exp(-100.0), rel=1e-3)


# ---------------------------------------------------------------------------
# discrete recursion


def test_discrete_rsi_exact_integer_oracle():
    # exact recursion with Python ints: 1, 2, 6, 42, 1806, 3263442, ...
    seq = [1]
    while seq[-1] < 10 ** 12:
        seq.append(seq[-1] + seq[-1] ** 2)
    assert len(seq) == 7
    assert seq == [1, 2, 6, 42, 1806, 3263442, 10650056950806]

    res = dyn.discrete_rsi(1.0, 1.0, 2.0, 1e12)
    assert res.steps_to_threshold == 7
    np.testing.assert_allclose(res.iterates, [float(x) for x in seq], rtol=1e-12)
    assert res.analytic_step_bound == 1
    assert res.bound_respected is False
    assert res.discrepancy


def test_discrete_rsi_monotone_and_doubly_exponential():
    # the gain offset decays like log(a)/log(I_n), so the p=1.5 low-gain
    # case needs a deep threshold before the slope settles
    for p, a, thr in ((1.5, 0.1, 1e250), (2.0, 1.0, 1e30), (3.0, 1.0, 1e100)):
        res = dyn.discrete_rsi(1.0, a, p, thr)
        xs = np.array(res.iterates)
        assert np.all(np.diff(xs) > 0)
        # tail oracle: log I_{n+1} ~ p log I_n, so log log I advances by
        # log p per step once I is large
        big = xs[(xs > 100.0) & np.isfinite(xs)]
        diffs = np.diff(np.log(np.log(big)))
        assert abs(diffs[-1] / math.log(p) - 1) < 0.05


def test_discrete_sublinear_check_cases():
    # bounded increments
    xs = np.arange(1.0, 50.0)
    assert dyn.discrete_sublinear_check(xs, A=1.0, p=0.0)
    # doubling obeys increment <= (1 + I)
    xs = 2.0 ** np.arange(20)
    assert dyn.discrete_sublinear_check(xs, A=1.0, p=1.0)
    # quadratic recursion violates the linear envelope at the first n with
    # I_n^2 > 1 + I_n (direct scan oracle)
    xs = [1.0]
    while xs[-1] < 1e6:
        xs.append(xs[-1] + xs[-1] ** 2)
    res = dyn.discrete_sublinear_check(xs, A=1.0, p=1.0)
    scan = next(i for i, v in enumerate(xs[:-1]) if v ** 2 > 1 + v)
    assert not res.passed
    assert res.first_violation == scan


def test_discrete_sublinear_check_guard():
    with pytest.raises(SubcriticalExponent):
        dyn.discrete_sublinear_check([1.0, 2.0], A=1.0, p=1.5)


# ---------------------------------------------------------------------------
# capital and data channels


def test_capital_lower_escape_time():
    params = dyn.CapitalParams(K0=1.0, r=2.0, zeta=2.0)
    res = dyn.capital_lower(params, 0.0)
    assert res.K_lower == pytest.approx(1.0)
    assert res.T_K == pytest.approx(1.0)


def test_capital_lower_midpoint_and_ode_crosscheck():
    params = dyn.CapitalParams(K0=1.0, r=2.0, zeta=2.0)
    res = dyn.capital_lower(params, 0.5)
    assert res.K_lower == pytest.approx(2.0)
    # cross-check against integrating dK = (r/2) K^zeta
    num = dyn.integrate(lambda t, k: 0.5 * params.r * k ** params.zeta,
                        params.K0, horizon=0.5, blowup_threshold=1e12,
                        rtol=1e-10)
    assert num.status == "completed"
    assert num.I[-1] == pytest.approx(2.0, rel=1e-7)


def test_capital_lower_is_subsolution_of_full_dynamics():
    # the full channel dK = r K^zeta - delta K from K0 stays above the
    # halved-rate closed form up to its own (earlier) escape; valid once
    # r K^(zeta-1) >= 2 delta, which holds here from t=0
    params = dyn.CapitalParams(K0=1.0, r=2.0, zeta=2.0, delta=0.5)
    T_K = params.escape_time()
    num = dyn.integrate(
        lambda t, k: params.r * k ** params.zeta - params.delta * k,
        params.K0, horizon=T_K, blowup_threshold=1e9, rtol=1e-10)
    assert num.blowup_detected
    assert num.t_star < T_K
    grid = np.linspace(0.0, 0.999 * num.t_star, 40)
    k_full = np.interp(grid, num.t, num.I)
    k_low = dyn.capital_lower(params, grid).K_lower
    assert np.all(k_full >= k_low * (1 - 1e-6))


def test_capital_lower_subcritical_labels():
    exp = dyn.capital_lower(dyn.CapitalParams(1.0, 2.0, 1.0), 3.0)
    assert exp.label == "exponential"
    assert exp.K_lower == pytest.approx(math.exp(3.0))
    assert math.isinf(exp.T_K)
    poly = dyn.capital_lower(dyn.CapitalParams(1.0, 2.0, 0.5), 4.0)
    assert poly.label == "polynomial"
    assert math.isinf(poly.T_K)
    # oracle: dK = (r/2) K^0.5 with r=2 -> K = (sqrt(K0) + t/2)^2 = 9 at t=4
    assert poly.K_lower == pytest.approx(9.0)
    # depreciation bounds a sublinear channel: K -> (r/delta)^2 = 4, and
    # sqrt(K) = 2 - e^(-t/2) solves dK = 2 K^0.5 - K from K0 = 1
    sat = dyn.capital_lower(dyn.CapitalParams(1.0, 2.0, 0.5, delta=1.0), 4.0)
    assert (sat.label, sat.T_K) == ("bounded", math.inf)
    assert sat.K_lower == pytest.approx((2.0 - math.exp(-2.0)) ** 2)
    # zeta within 1e-9 of 1 and 2 delta > r: the halved rate fails at K0,
    # and dK/dt = r K - delta K gives K0 e^{(r - delta) t}
    decay = dyn.CapitalParams(1.0, 1.0, 1.0 + 1e-10, delta=0.75)
    assert not decay.halved_rate_holds()
    off = dyn.capital_lower(decay, np.array([0.0, 2.0, 4.0]))
    assert (off.label, off.T_K) == ("exponential", math.inf)
    np.testing.assert_allclose(off.K_lower, np.exp([0.0, 0.5, 1.0]),
                               rtol=1e-15)


def test_capital_lower_beyond_escape():
    with pytest.raises(BeyondBlowup):
        dyn.capital_lower(dyn.CapitalParams(1.0, 2.0, 2.0), 1.5)


def test_capital_below_its_critical_stock_does_not_escape():
    # dK/dt = 2 K^2 - 10 K decays from K0 = 1 (K* = 5)
    params = dyn.CapitalParams(K0=1.0, r=2.0, zeta=2.0, delta=10.0)
    assert params.escape_time() == math.inf
    low = dyn.capital_lower(params, np.array([0.0, 0.5, 2.0]))
    assert (low.T_K, low.label) == (math.inf, "bounded")
    num = dyn.integrate(lambda t, k: 2.0 * k * k - 10.0 * k, 1.0,
                        horizon=2.0, rtol=1e-10, atol=1e-20)
    assert num.status == "completed"
    np.testing.assert_allclose(low.K_lower[-1], num.I[-1], rtol=1e-7)
    assert low.K_lower[-1] < 1e-8
    for p in (0.5, 2.0):
        verdict = dyn.classify_region(2.0, p, capital=params)
        assert verdict.bound is None
        assert "capital escapes" not in verdict.note
        assert "critical stock" in verdict.note
    assert dyn.classify_region(2.0, 2.0, capital=params).conclusion \
        == dyn.CONDITIONAL


def test_capital_escape_between_the_manifold_and_the_halved_rate():
    # K* = 0.75 < K0 = 1 < 1.5: dK/dt = 2 K^2 - 1.5 K escapes at the exact
    # time ln(r / (r - delta K0^(1-zeta))) / ((zeta-1) delta) = ln 4 / 1.5
    params = dyn.CapitalParams(K0=1.0, r=2.0, zeta=2.0, delta=1.5)
    assert not params.halved_rate_holds()
    assert params.escape_time() == pytest.approx(math.log(4.0) / 1.5,
                                                 rel=1e-15)
    low = dyn.capital_lower(params, 0.5)
    assert low.label == "power-blowup"
    # u = 1/K = 4/3 - (1/3) e^(1.5 t)
    assert low.K_lower == pytest.approx(1.0 / (4.0 / 3.0
                                               - math.exp(0.75) / 3.0))
    with pytest.raises(BeyondBlowup):
        dyn.capital_lower(params, params.escape_time())


def test_capital_escape_beyond_the_float_range_is_infinite():
    # K0^(1-zeta) = 1e400 is beyond the float range, where Python's **
    # raises; with delta = 0, K* = 0 and this capital escapes after ~1e400 s
    params = dyn.CapitalParams(1e-200, 2.0, 3.0)
    assert params.escape_time() == math.inf
    assert dyn.blowup_time(1e-200, 2.0, 3.0) == math.inf
    assert params.escapes()
    low = dyn.capital_lower(params, np.array([0.0, 1e6]))
    assert (low.T_K, low.label) == (math.inf, "power-blowup")
    np.testing.assert_array_equal(low.K_lower, [1e-200, 1e-200])
    assert dyn.powerlaw_solution(1e-200, 1.0, 3.0, 1.0) == 1e-200
    for p, conclusion in ((2.0, dyn.BLOWUP), (0.5, dyn.NONSINGULAR)):
        verdict = dyn.classify_region(3.0, p, capital=params)
        assert verdict.conclusion == conclusion
        assert "critical stock" not in verdict.note
    assert "beyond the float range" in dyn.classify_region(
        3.0, 2.0, capital=params).note
    # the discrete step bound I0^(1-p) / (a (p-1)) is beyond it too
    steps = dyn.discrete_rsi(1e-200, 1.0, 3.0, 1e-200)
    assert (steps.analytic_step_bound, steps.bound_respected) \
        == (math.inf, True)


def test_capital_times_with_a_power_beyond_the_float_range():
    # K0^(1-zeta) = 1e400, but T_K = 2e400 / (1e300 * 2) = 1e100 is a float
    params = dyn.CapitalParams(1e-200, 1e300, 3.0)
    assert params.escape_time() == pytest.approx(1e100, rel=1e-12)
    assert dyn.blowup_time(1e-200, 1e300, 3.0) == pytest.approx(5e99,
                                                                rel=1e-12)
    # with delta = 1 that K0 is below K* = 0.5^(1/2): u = 1/K^2 grows as
    # e^(2t), so K decays as K0 e^(-t)
    decays = dyn.CapitalParams(1e-200, 2.0, 3.0, delta=1.0)
    assert not decays.halved_rate_holds() and not decays.escapes()
    assert decays.escape_time() == math.inf
    low = dyn.capital_lower(decays, np.array([0.0, 1.0]))
    assert low.label == "bounded"
    np.testing.assert_allclose(low.K_lower, [1e-200, 1e-200 * math.exp(-1)],
                               rtol=1e-12)
    verdict = dyn.classify_region(3.0, 2.0, capital=decays)
    assert (verdict.conclusion, verdict.bound) == (dyn.CONDITIONAL, None)
    assert "critical stock" in verdict.note


@settings(max_examples=150, deadline=None)
@given(K0=st.floats(1e-2, 1e2), r=st.floats(0.1, 10.0),
       zeta=st.floats(1.1, 4.0),
       delta=st.just(0.0) | st.floats(0.0, 20.0))
def test_capital_escapes_exactly_above_its_critical_stock(K0, r, zeta, delta):
    params = dyn.CapitalParams(K0, r, zeta, delta)
    K_star = (delta / r) ** (1.0 / (zeta - 1.0))
    # the two sides of K0 = K* round differently in the last bits
    assume(abs(K0 - K_star) > 1e-9 * K0)
    T_K = params.escape_time()
    assert (T_K == math.inf) == (K0 <= K_star)
    if T_K < math.inf:
        num = dyn.integrate(lambda t, k: r * k ** zeta - delta * k, K0,
                            horizon=2.0 * T_K, blowup_threshold=1e8 * K0,
                            rtol=1e-10)
        assert num.blowup_detected
        # up to the integrator's own tolerance, where T_K is exact
        assert num.t_star <= T_K * (1 + 1e-7)


# ---------------------------------------------------------------------------
# one escape-time formula: every site that used to write I^(1-p)/(a(p-1))
# out, and the capital solution that used to restate the power law, against
# the expressions they replaced, bit for bit


def old_blowup_time(I0, a0, p):
    if p <= 1.0:
        return math.inf
    return I0 ** (1.0 - p) / (a0 * (p - 1.0))


def old_blowup_bound(I0, I1, a0, p):
    if p <= 1.0:
        raise SubcriticalExponent(p)
    anchor = I0 if I0 >= I1 else I1
    return anchor ** (1.0 - p) / (a0 * (p - 1.0))


def old_step_bound(I0, a, p):
    if p <= 1.0:
        raise SubcriticalExponent(p)
    return math.ceil(I0 ** (1.0 - p) / (a * (p - 1.0)))


def old_osgood_power(I0, c, p):
    if p <= 1.0:
        return True, math.inf
    return False, float(I0 ** (1.0 - p) / (c * (p - 1.0)))


def old_osgood_tail(anchor, c_tail, p_tail):
    if p_tail <= 1.0:
        return True, math.inf
    return False, 0.0 + anchor ** (1.0 - p_tail) / (c_tail * (p_tail - 1.0))


def osgood(phi, I0):
    res = dyn.osgood_classify(phi, I0)
    return res.divergent, res.value


def old_powerlaw_solution(I0, a0, p, t):
    t_arr = np.asarray(t, dtype=float)
    if abs(p - 1.0) < dyn.P_DEGENERATE_TOL:
        out = I0 * np.exp(a0 * t_arr)
        return float(out) if t_arr.ndim == 0 else out
    base = I0 ** (1.0 - p) - a0 * (p - 1.0) * t_arr
    if p > 1.0 and np.any(base <= 0):
        T = I0 ** (1.0 - p) / (a0 * (p - 1.0))
        raise BeyondBlowup(f"t >= blow-up time {T!r}")
    out = base ** (-1.0 / (p - 1.0))
    return float(out) if t_arr.ndim == 0 else out


def assert_exact_powerlaw(I0, a0, p, t):
    """powerlaw_solution at t against the flow at 50 digits from the same
    floats: |ln(I/exact)| within 8 half-ulps times 1 + |ln(I/I0)| +
    (1 + |(p-1) ln I0|) times x's condition number |x / ((p-1)(1-x))|,
    which diverges at the escape time.  In log space, as ln I is what the
    closed form computes: to first order this is the relative bound on I,
    and it still holds where 1 - x is a few ulps and the rounding of x
    moves ln I by O(1), where I is then off by a factor the relative bound
    does not allow.  That rounding can move the escape time across t, so
    BeyondBlowup may be raised, or not, only within 1e-12 of x = 1."""
    with mpmath.workdps(50):
        d = mpmath.mpf(p) - 1
        xs = [mpmath.mpf(a0) * d * mpmath.mpf(s) * mpmath.mpf(I0) ** d
              for s in np.atleast_1d(t).tolist()]
        try:
            with np.errstate(over="ignore"):
                got = np.atleast_1d(dyn.powerlaw_solution(I0, a0, p, t))
        except BeyondBlowup:
            assert max(xs) >= 1 - 1e-12
            return
        assert got.shape == np.shape(xs)
        for y, x, s in zip(got.tolist(), xs, np.atleast_1d(t).tolist()):
            if x >= 1:
                assert x < 1 + 1e-12
                continue
            log_ratio = -mpmath.log1p(-x) / d if d else mpmath.mpf(a0) * s
            exact = I0 * mpmath.exp(log_ratio)
            if exact > 1e308:   # beyond the float range
                continue
            kappa = abs(x / (d * (1 - x))) if d else 0
            scale = 1 + abs(log_ratio) + kappa * (
                1 + abs(d * mpmath.log(I0)))
            assert abs(mpmath.log(y / exact)) <= 8 * 2.0 ** -53 * scale


def old_escape_time(K0, r, zeta):
    if zeta <= 1.0:
        return math.inf
    return 2.0 * K0 ** (1.0 - zeta) / (r * (zeta - 1.0))


def old_event_bound(I_t, delta, a0):
    if delta <= 0 or a0 <= 0 or I_t <= 0:
        raise ValueError(delta)
    return I_t ** (-delta) / (a0 * delta)


def old_capital_lower(params, t):
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    zeta, r, K0 = params.zeta, params.r, params.K0
    if abs(zeta - 1.0) < dyn.P_DEGENERATE_TOL:
        vals = K0 * np.exp(0.5 * r * t_arr)
        return dyn.CapitalLowerResult(float(vals) if scalar else vals,
                                      math.inf, "exponential")
    if zeta < 1.0:
        vals = (K0 ** (1.0 - zeta)
                + 0.5 * r * (1.0 - zeta) * t_arr) ** (1.0 / (1.0 - zeta))
        return dyn.CapitalLowerResult(float(vals) if scalar else vals,
                                      math.inf, "polynomial")
    T_K = old_escape_time(K0, r, zeta)
    if np.any(t_arr >= T_K):
        raise BeyondBlowup(f"t >= capital escape time T_K={T_K!r}")
    base = K0 ** (1.0 - zeta) - 0.5 * r * (zeta - 1.0) * t_arr
    vals = base ** (-1.0 / (zeta - 1.0))
    return dyn.CapitalLowerResult(float(vals) if scalar else vals, T_K,
                                  "power-blowup")


def outcome(fn, *args):
    """fn(*args) with numpy's warnings off, or the class of what it
    raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except Exception as exc:
        return type(exc)


def same_bits(a, b):
    """Equal raised classes, or values of one type with equal bits."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if isinstance(a, int):          # the ceiling of a step bound
        return type(a) is type(b) and a == b
    if isinstance(a, tuple):        # (divergent, value) of an Osgood result
        return type(b) is tuple and a[0] is b[0] and same_bits(a[1], b[1])
    return type(a) is type(b) and np.shape(a) == np.shape(b) \
        and np.asarray(a).tobytes() == np.asarray(b).tobytes()


POSITIVE = st.one_of(st.floats(1e-6, 1e6),
                     st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
# (0, 6), with draws within 1e-9 of 1 on both sides
EXPONENT = st.one_of(st.floats(0.0, 6.0, exclude_min=True, exclude_max=True),
                     st.floats(-1e-9, 1e-9).map(lambda d: 1.0 + d))
FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)


@settings(max_examples=600, deadline=None)
@given(I=POSITIVE, I1=POSITIVE, a=POSITIVE, p=EXPONENT, fracs=FRACTIONS,
       scalar=st.booleans())
@example(I=1.0, I1=1.0, a=1.0, p=2.0, fracs=[1.0], scalar=True)
@example(I=1e-6, I1=1e6, a=1e-6, p=1.0 + 5e-10, fracs=[0.5], scalar=False)
# 1 - x is a few ulps: the rounding of x moves ln I by 3.3
@example(I=1.0, I1=1.0, a=9.999999999999998, p=1.182729338653296,
         fracs=[0.9999999999999999], scalar=True)
def test_escape_time_sites_match_the_parent_expressions(I, I1, a, p, fracs,
                                                        scalar):
    delta = p - 1.0
    sites = [
        (lambda: dyn.blowup_time(I, a, p), lambda: old_blowup_time(I, a, p)),
        (lambda: dyn.blowup_bound(I, I1, a, p),
         lambda: old_blowup_bound(I, I1, a, p)),
        (lambda: dyn.discrete_rsi(I, a, p, I).analytic_step_bound,
         lambda: old_step_bound(I, a, p)),
        (lambda: osgood(dyn.PhiSpec.power(p, a), I),
         lambda: old_osgood_power(I, a, p)),
        (lambda: ct.event_blowup_bound(I, delta, a),
         lambda: old_event_bound(I, delta, a)),
        (lambda: dyn.CapitalParams(I, a, p).escape_time(),
         lambda: old_escape_time(I, a, p)),
        (lambda: 2.0 * dyn.blowup_time(I, a, p),
         lambda: old_escape_time(I, a, p)),
        (lambda: dyn.blowup_time(I, a / 2, p),
         lambda: old_escape_time(I, a, p)),
    ]
    # past the table's end the tabulated integral is its fitted tail alone
    grid = I * np.geomspace(1.0, 100.0, 7)
    tab = dyn.PhiSpec.tabulated(grid, a * grid ** p)
    beyond = float(grid[-1]) * (1.0 + fracs[0])
    sites.append((lambda: osgood(tab, beyond),
                  lambda: old_osgood_tail(beyond, tab.c_tail, tab.p_tail)))
    for new, old in sites:
        assert same_bits(outcome(new), outcome(old))
    # the power law inside its escape time (whose bits left the parent's
    # expression, which cancels near p = 1), and its message past it
    T = old_blowup_time(I, a, p)
    t = np.array(fracs) * (T if math.isfinite(T) else 1.0 / a)
    assert_exact_powerlaw(I, a, p, float(t[0]) if scalar else t)
    if math.isfinite(T) and abs(delta) >= dyn.P_DEGENERATE_TOL:
        with pytest.raises(BeyondBlowup) as new_msg:
            dyn.powerlaw_solution(I, a, p, 2.0 * T)
        with pytest.raises(BeyondBlowup) as old_msg:
            old_powerlaw_solution(I, a, p, 2.0 * T)
        assert str(new_msg.value) == str(old_msg.value)


@settings(max_examples=600, deadline=None)
@given(K0=POSITIVE, r=POSITIVE, zeta=EXPONENT, fracs=FRACTIONS,
       scalar=st.booleans())
@example(K0=1.0, r=2.0, zeta=1.0 + 5e-10, fracs=[0.5], scalar=True)
@example(K0=1.0, r=2.0, zeta=2.0, fracs=[0.0, 0.5, 1.0], scalar=False)
@example(K0=3.0, r=0.7, zeta=2.0, fracs=[0.9999999999999999], scalar=True)
def test_capital_lower_is_the_halved_rate_powerlaw_solution(K0, r, zeta, fracs,
                                                            scalar):
    params = dyn.CapitalParams(K0, r, zeta)
    T_K = old_escape_time(K0, r, zeta)
    t = np.array(fracs) * (T_K if math.isfinite(T_K) else 1.0 / r)
    t = float(t[0]) if scalar else t
    new = outcome(dyn.capital_lower, params, t)
    old = outcome(old_capital_lower, params, t)
    if new is BeyondBlowup and old is not BeyondBlowup:
        # the one difference: in the last ulps before T_K the rounded x
        # can reach 1 while t < T_K; the old branch then returned inf, nan
        # or a power of a negative base, powerlaw_solution raises
        x = 0.5 * r * (zeta - 1.0) * np.asarray(t) * K0 ** (zeta - 1.0)
        assert np.any(x >= 1)
        return
    if isinstance(new, type) or isinstance(old, type):
        assert new is old
        return
    assert new.label == old.label
    assert same_bits(new.T_K, old.T_K)
    # K_lower is powerlaw_solution at the halved rate, which the escape
    # time test checks against the exact flow; old_capital_lower's copy
    # of the textbook form cancels near zeta = 1
    assert same_bits(new.K_lower, outcome(dyn.powerlaw_solution, K0, 0.5 * r,
                                          zeta, t))


def test_logistic_data_closed_form():
    assert dyn.logistic_data(100.0, 9.0, 1.0, 0.0) == pytest.approx(10.0)
    # saturation
    assert dyn.logistic_data(100.0, 9.0, 1.0, 1e3) == pytest.approx(100.0)
    # midpoint at t = ln(nu)/rate
    t_mid = math.log(9.0) / 1.0
    assert dyn.logistic_data(100.0, 9.0, 1.0, t_mid) == pytest.approx(50.0)


# ---------------------------------------------------------------------------
# worst-case envelopes


def test_worst_case_fast_envelope_time():
    res = dyn.worst_case_times(dyn.PhiSpec.power(2.0, 1.0),
                               dyn.PhiSpec.power(2.0, 2.0), 1.0)
    # oracle: integral of ds/(2 s^2) from 1 = 0.5
    assert res.T_min == pytest.approx(0.5, rel=1e-9)


def test_worst_case_linear_lower_not_robust_blowup():
    res = dyn.worst_case_times(dyn.PhiSpec.power(1.0),
                               dyn.PhiSpec.power(2.0), 1.0)
    assert math.isinf(res.T_max)
    assert res.verdict == "indeterminate"


def test_worst_case_robust_blowup():
    res = dyn.worst_case_times(dyn.PhiSpec.power(1.5),
                               dyn.PhiSpec.power(2.0), 1.0)
    # analytic integrals: T_max = 1/(0.5) = 2, T_min = 1
    assert res.T_max == pytest.approx(2.0, rel=1e-12)
    assert res.T_min == pytest.approx(1.0, rel=1e-12)
    assert res.verdict == "robust-blowup"


def test_worst_case_robust_nonsingular():
    res = dyn.worst_case_times(dyn.PhiSpec.power(0.5),
                               dyn.PhiSpec.power(0.9), 1.0)
    assert res.verdict == "robust-nonsingular"


def test_worst_case_convergent_beyond_the_float_range_is_blowup():
    # p = 1 + 1 ulp converges, but its escape time from 1 at c = 1e-300
    # (1 / (c (p - 1)) ~ 4.5e315) reads inf: the verdict follows convergence
    phi = dyn.PhiSpec.power(math.nextafter(1.0, 2.0), 1e-300)
    assert not dyn.osgood_classify(phi, 1.0).divergent
    assert dyn.worst_case_times(phi, phi, 1.0) == dyn.WorstCaseResult(
        math.inf, math.inf, "robust-blowup")


def test_worst_case_order_violation():
    with pytest.raises(EnvelopeOrderViolation):
        dyn.worst_case_times(dyn.PhiSpec.power(2.0),
                             dyn.PhiSpec.power(1.0), 1.0)


# ---------------------------------------------------------------------------
# parameter regions


def test_region_table_rows():
    cap_params = dyn.CapitalParams(K0=1.0, r=2.0, zeta=2.0)
    r1 = dyn.classify_region(2.0, 2.0, capital=cap_params)
    assert (r1.region, r1.conclusion) == (dyn.REGION_A_SUPER, dyn.BLOWUP)
    assert r1.bound == pytest.approx(1.0)
    assert r1.bound_kind == "T_K"

    r2 = dyn.classify_region(2.0, 0.5)
    assert (r2.region, r2.conclusion) == (dyn.REGION_A_SUB, dyn.NONSINGULAR)

    r3 = dyn.classify_region(0.5, 0.8, capped_power=True)
    assert (r3.region, r3.conclusion) == (dyn.REGION_B, dyn.NONSINGULAR)

    r4 = dyn.classify_region(0.5, 1.2, capped_power=True,
                             baseline_effort_floor=True)
    assert (r4.region, r4.conclusion) == (dyn.REGION_B, dyn.BLOWUP)

    r5 = dyn.classify_region(0.5, 0.9, logistic=True)
    assert (r5.region, r5.conclusion) == (dyn.REGION_C, dyn.NONSINGULAR)

    r6 = dyn.classify_region(0.5, 1.1, logistic=True)
    assert (r6.region, r6.conclusion) == (dyn.REGION_C, dyn.BLOWUP)


def test_region_conditional_without_floor():
    r = dyn.classify_region(0.5, 1.2, capped_power=True)
    assert r.conclusion == dyn.CONDITIONAL


def test_region_ambiguous_flags():
    with pytest.raises(AmbiguousFlags):
        dyn.classify_region(2.0, 2.0, capped_power=True, logistic=True)
    with pytest.raises(AmbiguousFlags):
        dyn.classify_region(0.5, 2.0)
