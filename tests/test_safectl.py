import dataclasses
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rsi_certify import dynamics as dyn
from rsi_certify import safectl as sc
from rsi_certify.errors import InfeasibleBox, NoStaticCapPossible


def config(I_bar=10.0, kappa=1.0, Delta=0.1, tau_bar=0.0, L_h=0.0,
           eps_I=0.0, r_u=(math.inf,), u_box=((0.0, 1.0),),
           slack_weight=1e6):
    return sc.ControlConfig(I_bar=I_bar, kappa=kappa, Delta=Delta,
                            tau_bar=tau_bar, L_h=L_h, eps_I=eps_I,
                            r_u=r_u, u_box=u_box, slack_weight=slack_weight)


# ---------------------------------------------------------------------------
# barrier residuals


def test_barrier_residual_boundary_neutrality():
    cfg = config()
    res = sc.barrier_residual(10.0, cfg, F_hat=0.0)
    assert res.residual == 0.0
    assert not res.violation


def test_barrier_residual_violation_on_boundary():
    res = sc.barrier_residual(10.0, config(), F_hat=1.0)
    assert res.residual == 1.0
    assert res.violation


def test_barrier_residual_interior_informational():
    # I below the ceiling: positive residual is informational, not a
    # violation (the interior allows positive growth budget)
    res = sc.barrier_residual(9.0, config(kappa=2.0), F_hat=-1.0)
    assert res.residual == pytest.approx(1.0)  # -1 - 2*(-1)
    assert not res.violation
    assert res.informational


def test_robust_residual_addition():
    assert sc.robust_residual(-0.5, 0.0, 0.0) == -0.5
    assert sc.robust_residual(-0.5, 0.2, 0.1) == pytest.approx(-0.2)
    assert sc.robust_residual(-0.1, 0.2, 0.1) == pytest.approx(0.2)


def test_config_rejects_overshooting_gain():
    with pytest.raises(ValueError):
        config(kappa=20.0, Delta=0.1)


def test_nonlinear_class_k_callback():
    cubic = lambda r: 2.0 * r + 0.1 * r ** 3
    cfg = sc.ControlConfig(I_bar=10.0, kappa=2.0, Delta=0.1, alpha_fn=cubic)
    # residual uses the callback: F_hat - alpha(h)
    res = sc.barrier_residual(9.0, cfg, F_hat=0.0)
    assert res.residual == pytest.approx(-cubic(-1.0))
    # interior budget is -alpha(h): positive inside, zero at the boundary
    assert sc.barrier_budget(9.0, cfg) == pytest.approx(-cubic(-1.0))
    assert sc.barrier_budget(10.0, cfg) == 0.0
    with pytest.raises(ValueError):
        sc.ControlConfig(I_bar=1.0, kappa=1.0, Delta=0.1,
                         alpha_fn=lambda r: r + 1.0)  # alpha(0) != 0


# ---------------------------------------------------------------------------
# QP: closed forms and grid-search oracle


def grid_search_1d(u_ref, a, b, lo, hi, rho, n=4_000_001):
    """Dense oracle for the 1-D program."""
    u = np.linspace(lo, hi, n)
    z = np.maximum(0.0, a * u - b)
    obj = 0.5 * (u - u_ref) ** 2 + rho * z ** 2
    k = int(np.argmin(obj))
    return float(u[k]), float(z[k])


def test_qp_unconstrained_reference_feasible():
    cfg = config()
    res = sc.qp_step([0.5], [0.5], [1.0], b_rhs=10.0, config=cfg)
    assert res.u_star[0] == pytest.approx(0.5)
    assert res.slack == 0.0
    assert not res.barrier_active


def test_qp_hard_clamp_high_penalty():
    # 1-D KKT closed form: rho -> inf forces u -> b/a = 0
    cfg = config(u_box=((-1.0, 1.0),), slack_weight=1e9)
    res = sc.qp_step([1.0], [0.0], [1.0], b_rhs=0.0, config=cfg)
    assert res.u_star[0] == pytest.approx(0.0, abs=1e-8)
    assert res.slack == pytest.approx(0.0, abs=1e-8)


def test_qp_finite_penalty_splits_between_u_and_slack():
    # KKT: lam = (u_ref - b) / (a^2 + 1/(2 rho)) = 1 / 1.5, u = 1 - lam
    cfg = config(u_box=((-1.0, 1.0),), slack_weight=1.0)
    res = sc.qp_step([1.0], [0.0], [1.0], b_rhs=0.0, config=cfg)
    assert res.u_star[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert res.slack == pytest.approx(1.0 / 3.0, abs=1e-9)
    u_o, z_o = grid_search_1d(1.0, 1.0, 0.0, -1.0, 1.0, 1.0)
    assert res.u_star[0] == pytest.approx(u_o, abs=1e-6)


def test_qp_matches_grid_search_1d_fixtures():
    fixtures = [
        dict(u_ref=1.0, a=1.0, b=0.0, lo=-1.0, hi=1.0, rho=1.0),
        dict(u_ref=0.9, a=2.0, b=0.5, lo=0.0, hi=1.0, rho=10.0),
        dict(u_ref=-0.4, a=-1.5, b=0.3, lo=-1.0, hi=1.0, rho=5.0),
        dict(u_ref=0.2, a=0.7, b=-0.1, lo=0.0, hi=0.6, rho=100.0),
        dict(u_ref=1.0, a=1.0, b=2.0, lo=0.0, hi=1.0, rho=1.0),
    ]
    for f in fixtures:
        cfg = config(u_box=((f["lo"], f["hi"]),), slack_weight=f["rho"])
        res = sc.qp_step([f["u_ref"]], [0.5 * (f["lo"] + f["hi"])],
                         [f["a"]], f["b"], cfg)
        u_o, _ = grid_search_1d(f["u_ref"], f["a"], f["b"], f["lo"],
                                f["hi"], f["rho"])
        assert res.u_star[0] == pytest.approx(u_o, abs=1e-6), f
        # exact feasibility of hard constraints
        assert f["lo"] - 1e-12 <= res.u_star[0] <= f["hi"] + 1e-12
        assert f["a"] * res.u_star[0] <= f["b"] + res.slack + 1e-9


def test_qp_matches_grid_search_2d():
    rng = np.random.default_rng(17)
    for trial in range(8):
        u_ref = rng.uniform(-1, 1, 2)
        a = rng.uniform(-2, 2, 2)
        b = rng.uniform(-0.5, 0.5)
        rho = float(rng.uniform(0.5, 50))
        cfg = config(u_box=((-1.0, 1.0), (-1.0, 1.0)),
                     r_u=(math.inf, math.inf), slack_weight=rho)
        res = sc.qp_step(u_ref, [0.0, 0.0], a, b, cfg)
        # dense 2-D oracle
        grid = np.linspace(-1, 1, 1001)
        U1, U2 = np.meshgrid(grid, grid, indexing="ij")
        Z = np.maximum(0.0, a[0] * U1 + a[1] * U2 - b)
        obj = 0.5 * ((U1 - u_ref[0]) ** 2 + (U2 - u_ref[1]) ** 2) \
            + rho * Z ** 2
        k = np.unravel_index(np.argmin(obj), obj.shape)
        best = obj[k]
        z_res = max(0.0, a @ res.u_star - b)
        obj_res = 0.5 * float((res.u_star - u_ref) @ (res.u_star - u_ref)) \
            + rho * z_res ** 2
        # the analytic optimum can only be at least as good as the grid
        assert obj_res <= best + 1e-6, (trial, res, best)
        assert abs(res.u_star[0] - grid[k[0]]) < 5e-3
        assert abs(res.u_star[1] - grid[k[1]]) < 5e-3


@st.composite
def knapsack_instances(draw):
    """QP instances with m = 1..64 channels and rho_s from 1e-1 to 1e14:
    zero entries in a, all-zero rows with b < 0, boxes with lo = hi, and
    rate windows that meet the box."""
    m = draw(st.integers(1, 64))

    def vec(elements):
        return np.array(draw(st.lists(elements, min_size=m, max_size=m)))

    lo = vec(st.floats(-1.0, 1.0))
    hi = lo + vec(st.just(0.0) | st.floats(0.0, 2.0))
    u_prev = lo + (hi - lo) * vec(st.floats(0.0, 1.0))
    r_u = vec(st.just(math.inf) | st.floats(0.01, 2.0))
    u_ref = vec(st.floats(-3.0, 3.0))
    rho = 10.0 ** draw(st.floats(-1.0, 14.0))
    if draw(st.booleans()):
        a = np.zeros(m)
        b = -draw(st.floats(1e-9, 1.0))
    else:
        a = vec(st.just(0.0) | st.floats(-10.0, 10.0))
        b = draw(st.floats(-1.0, 1.5)) * float(a @ np.clip(u_ref, lo, hi)) \
            + draw(st.floats(-1.0, 1.0))
    cfg = config(Delta=1.0, r_u=tuple(r_u), slack_weight=rho,
                 u_box=tuple(zip(lo.tolist(), hi.tolist())))
    return u_ref, u_prev, a, b, cfg


@settings(max_examples=100, deadline=None)
@given(knapsack_instances())
def test_qp_satisfies_kkt(instance):
    # the KKT conditions pin the unique optimum of this strictly convex
    # program; lam = 2 rho z is the barrier multiplier
    u_ref, u_prev, a, b, cfg = instance
    lo, hi = sc._effective_box(u_prev, cfg)
    res = sc.qp_step(u_ref, u_prev, a, b, cfg)
    u, z = res.u_star, res.slack
    tol = 1e-9 * (1.0 + float(np.abs(a) @ np.abs(u)) + abs(b))
    assert np.all((lo <= u) & (u <= hi))
    assert z >= 0.0
    gap = float(a @ u) - b - z
    assert gap <= 1e-12 + tol
    if z > 0.0:
        assert abs(gap) <= tol
    lam = 2.0 * cfg.slack_weight * z
    assert np.max(np.abs(u - np.clip(u_ref - lam * a, lo, hi))) <= tol


def test_qp_zero_row_with_tiny_negative_bound_is_active():
    # a = 0 and b = -7e-284: a.u > b however small b is, so the barrier
    # must be active and the slack must cover the violation
    cfg = config(r_u=(math.inf,) * 3, u_box=((0.0, 1.0),) * 3)
    a, b = np.zeros(3), -7e-284
    res = sc.qp_step([0.5, 0.2, 0.9], [0.5, 0.2, 0.9], a, b, cfg)
    assert res.barrier_active
    assert float(a @ res.u_star) <= b + res.slack


def test_qp_rate_limits_hard():
    cfg = config(r_u=(0.5,), u_box=((0.0, 1.0),), Delta=0.1)
    # rate window is u_prev +- 0.05
    res = sc.qp_step([1.0], [0.2], [1.0], b_rhs=10.0, config=cfg)
    assert res.u_star[0] == pytest.approx(0.25)
    res2 = sc.qp_step([0.0], [0.2], [1.0], b_rhs=10.0, config=cfg)
    assert res2.u_star[0] == pytest.approx(0.15)


def test_qp_infeasible_box():
    cfg = config(r_u=(0.1,), u_box=((0.8, 1.0),), Delta=0.1)
    with pytest.raises(InfeasibleBox):
        sc.qp_step([0.9], [0.0], [1.0], b_rhs=1.0, config=cfg)


def test_qp_infeasible_box_names_the_channel_its_box_and_window():
    # channel 1's rate window [-0.05, 0.05] misses its box [0.8, 1.0];
    # channels 0 and 2 are feasible
    cfg = config(r_u=(math.inf, 0.5, 0.5), Delta=0.1,
                 u_box=((0.0, 1.0), (0.8, 1.0), (0.0, 1.0)))
    with pytest.raises(InfeasibleBox) as exc:
        sc.qp_step([0.9] * 3, [0.5, 0.0, 0.5], [1.0] * 3, b_rhs=1.0,
                   config=cfg)
    assert str(exc.value) == ("channel 1: box [0.8, 1.0] and rate window "
                              "[-0.05, 0.05] do not intersect")


# the solver as it stood before its per-step numpy overhead was cut
# (np.clip, a per-channel box loop, a concatenated kink list), kept to pin
# the lean path's results bit for bit

def _reference_effective_box(u_prev, config):
    lo = np.empty(config.n_channels)
    hi = np.empty(config.n_channels)
    for i, (b_lo, b_hi) in enumerate(config.u_box):
        r = config.r_u[i] * config.Delta
        lo[i] = max(b_lo, u_prev[i] - r)
        hi[i] = min(b_hi, u_prev[i] + r)
        if lo[i] > hi[i] + 1e-15:
            raise InfeasibleBox(
                f"channel {i}: box [{b_lo}, {b_hi}] and rate window "
                f"[{u_prev[i] - r}, {u_prev[i] + r}] do not intersect")
    return lo, hi


def _reference_qp_step(u_ref, u_prev, a_row, b_rhs, config):
    u_ref = np.asarray(u_ref, dtype=float).ravel()
    u_prev = np.asarray(u_prev, dtype=float).ravel()
    a = np.asarray(a_row, dtype=float).ravel()
    lo, hi = _reference_effective_box(u_prev, config)
    rho = config.slack_weight
    u = np.clip(u_ref, lo, hi)
    z = 0.0
    scale = abs(b_rhs) + float(np.abs(a) @ np.abs(u))
    active = float(a @ u) - b_rhs > 1e-12 * scale
    if active:
        with np.errstate(all="ignore"):
            kinks = np.concatenate([(u_ref - lo) / a, (u_ref - hi) / a])
            kinks = np.sort(kinks[(kinks > 0) & (kinks < math.inf)])
            g = np.clip(u_ref - kinks[:, None] * a, lo, hi) @ a - b_rhs \
                - kinks / (2.0 * rho)
            j = int(np.count_nonzero(g > 0))
            left, right = np.concatenate([[0.0], kinks, [math.inf]])[j:j + 2]
            v = u_ref - min(0.5 * (left + right), 2.0 * left + 1.0) * a
            free = (lo < v) & (v < hi)
            lam = (a @ np.where(free, u_ref, np.clip(v, lo, hi)) - b_rhs) \
                / (a[free] @ a[free] + 1.0 / (2.0 * rho))
            lam = min(max(lam, left), right)
            u = np.clip(u_ref - lam * a, lo, hi)
        z = lam / (2.0 * rho)
    d = u - u_ref
    return sc.QpResult(u, float(z), active, 0.5 * float(d @ d) + rho * z * z)


# signed zeros, ties and 1e-300 among the draws
_EDGE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300])


@st.composite
def lean_qp_instances(draw):
    """m = 1..8 channels; boxes that may be degenerate; finite, zero and
    infinite rate limits, with u_prev at, inside or beyond the box; entries
    of a that are zero, negative or 1e-300; b of both signs, drawn about
    a.clip(u_ref) so that both barrier states occur."""
    m = draw(st.integers(1, 8))

    def vec(elements):
        return np.array(draw(st.lists(elements, min_size=m, max_size=m)))

    lo = vec(_EDGE | st.floats(-1.0, 1.0))
    hi = lo + vec(st.just(0.0) | _EDGE.map(abs) | st.floats(0.0, 2.0))
    frac = vec(st.sampled_from([0.0, 1.0, -0.25, 1.25]) | st.floats(0.0, 1.0))
    u_prev = np.where(frac == 0.0, lo, np.where(frac == 1.0, hi,
                                                lo + (hi - lo) * frac))
    r_u = vec(st.sampled_from([math.inf, 0.0]) | st.floats(0.0, 2.0))
    u_ref = vec(_EDGE | st.floats(-3.0, 3.0))
    a = vec(_EDGE | st.floats(-10.0, 10.0))
    a_u = float(a @ np.clip(u_ref, lo, hi))
    b = a_u - draw(st.floats(-0.5, 1.5)) * abs(a_u) \
        + draw(_EDGE | st.floats(-0.1, 0.1))
    rho = 10.0 ** draw(st.floats(-1.0, 14.0))
    cfg = config(Delta=draw(st.sampled_from([1.0, 0.1, 0.02])),
                 r_u=tuple(r_u), slack_weight=rho,
                 u_box=tuple(zip(lo.tolist(), hi.tolist())))
    return u_ref, u_prev, a, b, cfg


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(lean_qp_instances())
# kinks 2 and 3, root between them at lam = 2.5: the root piece's left
# kink is kinks[0], not 0
@example((np.array([3.0]), np.array([0.5]), np.array([1.0]), 0.5,
          config(slack_weight=1e6)))
def test_qp_step_matches_reference_bit_for_bit(instance):
    u_ref, u_prev, a, b, cfg = instance
    try:
        expected = _reference_qp_step(u_ref, u_prev, a, b, cfg)
    except InfeasibleBox as exc:
        with pytest.raises(InfeasibleBox) as got:
            sc.qp_step(u_ref, u_prev, a, b, cfg)
        assert str(got.value) == str(exc)
        return
    for got_bound, bound in zip(sc._effective_box(u_prev, cfg),
                                _reference_effective_box(u_prev, cfg)):
        assert _bits(got_bound) == _bits(bound)
    got = sc.qp_step(u_ref, u_prev, a, b, cfg)
    assert got.barrier_active == expected.barrier_active
    assert _bits(got.u_star) == _bits(expected.u_star)
    assert _bits(got.slack) == _bits(expected.slack)
    assert _bits(got.objective) == _bits(expected.objective)


def _assert_same_bits(got, expected):
    assert got.barrier_active == expected.barrier_active
    for field in ("u_star", "slack", "objective"):
        assert _bits(getattr(got, field)) == _bits(getattr(expected, field))


# the control benchmark's loop (6 channels, Phi = 2 I^2, Delta = 0.02, rho_s
# = 1e14, exact state from I0 = 1.2) on its own box, under a rate limit,
# and on unequal per-channel boxes
_SIX = ((0.0, 1.0),) * 6


@pytest.mark.parametrize("r_u, u_box, needs", [
    ((math.inf,) * 6, _SIX, "static"),
    ((0.5,) * 6, _SIX, "window"),
    ((math.inf,) * 6, ((0.0, 1.0), (0.0, 0.5), (0.2, 0.8), (0.0, 2.0),
                       (-1.0, 1.0), (0.1, 0.3)), "static"),
], ids=["benchmark", "rate-limited", "unequal-boxes"])
def test_supervisor_qp_calls_match_reference_bit_for_bit(
        monkeypatch, r_u, u_box, needs):
    # the Hypothesis draws above rarely give this traffic: uniform rows, all
    # active, on the box that no rate limit cuts
    cfg = config(I_bar=10.0, kappa=1.0, Delta=0.02, r_u=r_u, u_box=u_box,
                 slack_weight=1e14)
    calls, qp_step = [], sc.qp_step

    def recorded(u_ref, u_prev, a_row, b_rhs, config):
        args = (u_ref.copy(), u_prev.copy(), a_row.copy(), b_rhs)
        result = qp_step(u_ref, u_prev, a_row, b_rhs, config)
        calls.append((args, result))
        return result

    monkeypatch.setattr(sc, "qp_step", recorded)
    log = sc.supervise(sc.PlantScenario(phi=dyn.PhiSpec.power(2.0, c=2.0),
                                        I0=1.2, n_steps=300), cfg)
    assert log.final_status == "completed" and len(calls) == 300
    assert (cfg._box[3] is None) == (needs == "window")
    assert sum(result.barrier_active for _, result in calls) >= 200
    for (u_ref, u_prev, a, b), result in calls:
        _assert_same_bits(result, _reference_qp_step(u_ref, u_prev, a, b,
                                                     cfg))


@st.composite
def unlimited_boxes(draw):
    """m = 1..8 channels with no rate limit; box bounds that may be signed
    zeros or infinite; u_prev finite, or with an inf or NaN entry."""
    m = draw(st.integers(1, 8))
    bound = _EDGE | st.floats(-2.0, 2.0) | st.sampled_from([-math.inf,
                                                            math.inf])
    u_box = tuple(tuple(sorted(draw(st.lists(bound, min_size=2,
                                             max_size=2))))
                  for _ in range(m))
    u_prev = np.array(draw(st.lists(_EDGE | st.floats(-3.0, 3.0),
                                    min_size=m, max_size=m)))
    if draw(st.booleans()):
        u_prev[draw(st.integers(0, m - 1))] = draw(st.sampled_from(
            [math.inf, -math.inf, math.nan]))
    cfg = config(Delta=draw(st.sampled_from([1.0, 0.02])),
                 r_u=(math.inf,) * m, u_box=u_box)
    return u_prev, cfg


@settings(max_examples=200, deadline=None)
@given(unlimited_boxes(), st.data())
def test_static_box_is_the_effective_box(instance, data):
    # with no rate limit the QP takes the box built with the config, which
    # must be the rate-window cut in bits for a finite u_prev; an inf or
    # NaN entry of u_prev takes the cut (``general``), whatever it gives
    u_prev, cfg = instance
    m = cfg.n_channels
    u_ref = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=m,
                                        max_size=m)))
    a = np.array(data.draw(st.lists(_EDGE | st.floats(-10.0, 10.0),
                                    min_size=m, max_size=m)))
    b = data.draw(st.floats(-1.0, 1.0))
    general = dataclasses.replace(cfg)
    object.__setattr__(general, "_box", cfg._box[:3] + (None,))
    with np.errstate(invalid="ignore"):
        if np.all(np.isfinite(u_prev)):
            assert _bits(cfg._box[3]) == _bits(sc._effective_box(u_prev, cfg))
        try:
            expected = sc.qp_step(u_ref, u_prev, a, b, general)
        except InfeasibleBox as exc:    # a NaN bound of the rate window
            assert not np.all(np.isfinite(u_prev))
            with pytest.raises(InfeasibleBox) as got:
                sc.qp_step(u_ref, u_prev, a, b, cfg)
            assert str(got.value) == str(exc)
            return
        _assert_same_bits(sc.qp_step(u_ref, u_prev, a, b, cfg), expected)


@pytest.mark.parametrize("r_u, u_prev, window", [
    ((0.5, 0.5), [math.nan, 0.5], "[nan, nan]"),
    ((math.inf, math.inf), [math.nan, 0.5], "[nan, nan]"),
    ((math.inf, math.inf), [-math.inf, 0.5], "[-inf, nan]"),
    ((math.inf, math.inf), [0.5, math.inf], "[nan, inf]"),
], ids=["nan-rate-limited", "nan", "-inf", "inf"])
def test_qp_refuses_a_u_prev_whose_rate_window_is_nan(r_u, u_prev, window):
    # a NaN throttle with zero slack would pass for a feasible step; the
    # window is refused, and named, as a finite rate limit refuses -inf
    cfg = config(r_u=r_u, Delta=0.1, u_box=((0.0, 1.0),) * 2)
    i = int(not math.isnan(u_prev[0]) and math.isfinite(u_prev[0]))
    with np.errstate(invalid="ignore"), pytest.raises(InfeasibleBox) as exc:
        sc.qp_step([1.0, 1.0], u_prev, [1.0, 1.0], 0.5, cfg)
    assert str(exc.value) == (f"channel {i}: box [0.0, 1.0] and rate window "
                              f"{window} do not intersect")


# ---------------------------------------------------------------------------
# observer


def test_observer_full_correction():
    cfg = config(Delta=1e-12)
    state = sc.ObserverState(3.0)
    out = sc.observer_update(state, 1.0, lambda s: 1.0, (5.0, 0.0, 1.0), cfg)
    assert out.I_hat == pytest.approx(5.0, abs=1e-9)


def test_observer_pure_prediction():
    cfg = config(Delta=0.5)
    out = sc.observer_update(sc.ObserverState(2.0), 3.0, lambda s: 2.0,
                             None, cfg)
    assert out.I_hat == pytest.approx(2.0 + 0.5 * 2.0 * 3.0)


def test_observer_blended_update():
    # predicted 1 + 0.1 * 1 * 2 = 1.2, moved halfway to the benchmark 1.5
    cfg = config(Delta=0.1)
    out = sc.observer_update(sc.ObserverState(1.0), 2.0, lambda s: 1.0,
                             (1.5, 0.0, 0.5), cfg)
    assert out.I_hat == pytest.approx(1.35)


def test_observer_tracks_model_consistent_run():
    # full-confidence benchmarks each step zero the error at correction
    # time; what remains is the one-step prediction mismatch, O(Delta^2)
    cfg = config(I_bar=100.0, kappa=1.0, Delta=0.05)
    phi = dyn.PhiSpec.power(1.0, c=0.5)
    I = 1.0
    obs = sc.ObserverState(I)
    worst = 0.0
    for _ in range(40):
        obs = sc.observer_update(obs, 1.0, phi, (I, 0.0, 1.0), cfg)
        assert obs.I_hat == I
        I = phi.advance(1.0, 1.0, I, cfg.Delta)
        predicted = sc.observer_update(obs, 1.0, phi, None, cfg)
        worst = max(worst, abs(predicted.I_hat - I) / I)
    # Euler-vs-exact one-step gap for dI = 0.5 I: (Delta*0.5)^2/2 relative
    assert worst <= (cfg.Delta * 0.5) ** 2


def rk4_reference(f, phi_svc, u, I, dt):
    """The plant's RK4 loop as it stood before the closed form (16
    substeps, stages scaled by c = 1.0), kept to pin the loop bit for bit
    on every Phi and input the closed form does not take."""
    if u <= 0 or dt <= 0:
        return I
    h = dt / 16
    half, sixth = 0.5 * h, h / 6.0
    y = I
    for _ in range(16):
        k1 = 1.0 * f(y) * phi_svc * u
        k2 = 1.0 * f(y + half * k1) * phi_svc * u
        k3 = 1.0 * f(y + half * k2) * phi_svc * u
        k4 = 1.0 * f(y + h * k3) * phi_svc * u
        y += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([0.8, 1.5, 2.0, 3.0]) | st.floats(0.0, 4.0),
       c=st.floats(0.1, 2.0), I=st.floats(3.0, 20.0),
       svc=st.floats(0.1, 2.0), u=st.floats(0.0, 1.0),
       dt=st.floats(1e-4, 0.02))
def test_plant_advance_scalar_path_matches_array_path(p, c, I, svc, u, dt):
    # the plant's last bit feeds the QP, where u = 1 - lambda a cancels;
    # a power_log Phi keeps RK4, whose stages take Phi's scalar path
    phi = dyn.PhiSpec.power_log(p, c=c)
    via_array = lambda y: float(phi(np.array([y]))[0])  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore"):
        got = phi.advance(svc, u, I, dt)
        expected = rk4_reference(via_array, svc, u, I, dt)
    np.testing.assert_equal(got, expected)


def _advance_outcome(advance, phi, *args):
    """What one plant period gives: its value with its type and bits, or
    the error it raises, and every warning it records."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            y = advance(phi, *args)
            out = (type(y), np.float64(y).tobytes())
        except Exception as exc:    # noqa: BLE001 - compared, not hidden
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


PLANT_PS = [0.8, 1.5, 3.0, *dyn.EXACT_POWERS,
            math.nextafter(2.0, math.inf), math.nextafter(2.0, -math.inf)]
NUMBER_TYPES = st.sampled_from([float, np.float64])


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["power", "power_log"]),
       p=st.sampled_from(PLANT_PS), c=st.just(1.0) | st.floats(0.1, 3.0),
       I=st.floats(-300.0, 160.0).map(lambda e: 10.0 ** e)
       | st.floats(1e-300, 1e160),
       svc=st.sampled_from([-0.0, -1.0]) | st.floats(-2.0, 2.0),
       u=st.just(0.0) | st.floats(0.0, 2.0), dt=st.floats(1e-4, 1.0),
       types=st.tuples(NUMBER_TYPES, NUMBER_TYPES, NUMBER_TYPES,
                       NUMBER_TYPES))
# an overflowing period, in Python floats and with a numpy state (types
# are those of phi_svc, u, I and dt), and one below a power's floor
@example(kind="power_log", p=2.0, c=1.0, I=1e155, svc=1.0, u=1.0, dt=0.1,
         types=(float,) * 4)
@example(kind="power_log", p=2.0, c=1.0, I=1e155, svc=1.0, u=1.0, dt=0.1,
         types=(float, float, np.float64, float))
@example(kind="power", p=2.0, c=1.0, I=1e155, svc=-1.0, u=1.0, dt=0.1,
         types=(float,) * 4)
@example(kind="power", p=2.0, c=1.0, I=1.0, svc=1.0, u=1.0, dt=0.1,
         types=(float,) * 4)
def test_plant_advance_table_binding_matches_evaluate(kind, p, c, I, svc, u,
                                                      dt, types):
    # every Phi and input the closed form does not take (power_log, and a
    # power below its floor of 3 or with phi_svc < 0) keeps the RK4 loop
    # through evaluate: its value, type, error and warnings, bit for bit
    phi = dyn.PhiSpec(kind, p=p, c=c, domain_floor=3.0)
    assume(kind == "power_log" or I < phi.lowest or svc < 0)
    args = [t(v) for t, v in zip(types, (svc, u, I, dt))]
    assert _advance_outcome(dyn.PhiSpec.advance, phi, *args) == \
        _advance_outcome(rk4_reference, phi.evaluate, *args)


def exact_flow(p, c, svc, u, I, dt):
    """dI/dt = c I^p phi_svc u from I over dt, at 50 digits, from the
    float inputs as given: I (1 - x)^(-1/(p-1)), x = k (p-1) dt I^(p-1)."""
    with mpmath.workdps(50):
        k, I, d = (mpmath.mpf(c) * mpmath.mpf(svc) * mpmath.mpf(u),
                   mpmath.mpf(I), mpmath.mpf(p) - 1)
        if d == 0:
            return I * mpmath.exp(k * dt)
        return I * (1 - k * d * dt * I ** d) ** (-1 / d)


# p over [0, 4], and within 1e-12 to 1e-4 of 1 on both sides
FLOW_PS = st.floats(0.0, 4.0) | st.just(1.0) | st.tuples(
    st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -4.0)).map(
        lambda t: 1.0 + t[0] * 10.0 ** t[1])
# I <= 2 keeps x = k (p-1) dt I^(p-1) <= 0.48: the flow's relative
# condition number x / ((p-1)(1-x)) stays below 1 (it diverges at escape)
FLOW_INPUTS = dict(p=FLOW_PS, c=st.floats(0.1, 1.0), svc=st.floats(0.1, 1.0),
                   u=st.floats(0.0, 1.0), I=st.floats(0.5, 2.0))


@settings(max_examples=300, deadline=None)
@given(**FLOW_INPUTS)
@example(p=1.0 + 1e-12, c=1.0, svc=1.0, u=1.0, I=2.0)
@example(p=4.0, c=1.0, svc=1.0, u=1.0, I=2.0)
def test_plant_closed_form_matches_the_exact_flow(p, c, svc, u, I):
    # within 1e-15 of the flow at 50 digits, and no farther than RK4 (up
    # to an ulp, where RK4's own error is at the rounding level)
    phi, dt = dyn.PhiSpec.power(p, c=c), 0.02
    exact = exact_flow(p, c, svc, u, I, dt)
    got = phi.advance(svc, u, I, dt)
    rk4 = rk4_reference(phi.evaluate, svc, u, I, dt)
    assert type(got) is float
    err, rk4_err = (float(abs(y - exact) / exact) for y in (got, rk4))
    assert err <= 1e-15
    assert err <= max(rk4_err, 2.0 ** -52)


@settings(max_examples=300, deadline=None)
@given(**FLOW_INPUTS, frac=st.floats(0.0, 1.0))
def test_plant_closed_form_split_period_is_the_whole_period(p, c, svc, u, I,
                                                             frac):
    # supervise's latency path: tau then Delta - tau is the whole period
    phi, dt = dyn.PhiSpec.power(p, c=c), 0.02
    tau = frac * dt
    whole = phi.advance(svc, u, I, dt)
    split = phi.advance(svc, u, phi.advance(svc, u, I, tau), dt - tau)
    assert abs(split - whole) <= 4 * math.ulp(whole)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, 3.7])
@pytest.mark.parametrize("I", [1e-300, 1.3, 1e300])
def test_plant_closed_form_without_service_keeps_the_state(p, I):
    phi = dyn.PhiSpec.power(p, c=2.0)
    for svc in (0.0, -0.0):
        got = phi.advance(svc, 1.0, I, 0.02)
        assert type(got) is float and got == I


def test_plant_subnormal_state_keeps_rk4():
    # I^(p-1) at p = 0 is beyond the float range from I = 1e-320, where
    # the flow I + k dt is not: a state below the least normal float keeps
    # RK4, as a state below the floor does
    phi = dyn.PhiSpec("power", p=0.0, domain_floor=1e-320)
    got = phi.advance(1.0, 1.0, 1e-320, 0.02)
    assert got == rk4_reference(phi.evaluate, 1.0, 1.0, 1e-320, 0.02)
    assert got == pytest.approx(0.02, rel=1e-15)


@pytest.mark.parametrize("p, c, I, dt", [
    (2.0, 1.0, 1e155, 1.0),         # past the escape time: x = 1e155
    (2.0, 1.0, 0.5, 2.0),           # x = 1 exactly
    (3.0, 1.0, 1e200, 1e-300),      # I^(p-1) beyond the float range
    (1.0, 1e300, 1.0, 1e10),        # k dt beyond the float range
    (1.0, 1.0, 1.0, 800.0),         # e^(k dt) beyond the float range
    (1.01, 1.0, 1.0, 99.99),        # x < 1, (1 - x)^-100 beyond it
])
def test_plant_closed_form_overflow_is_inf_without_a_warning(p, c, I, dt):
    phi = dyn.PhiSpec.power(p, c=c)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert phi.advance(1.0, 1.0, I, dt) == math.inf


def test_supervisor_shuts_down_a_plant_that_escapes_within_a_period():
    # x = k dt I0 = 10 >= 1: the state escapes before the next sample, the
    # supervisor shuts down there, and its log stays strict JSON
    cfg = config(I_bar=1e300, kappa=1.0, Delta=1.0)
    scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(2.0), I0=10.0,
                                n_steps=5)
    log = sc.supervise(scenario, cfg)
    assert log.final_status == "shutdown"
    assert log.actions() == ["certify", "shutdown"]
    assert log.steps[1].I_true == math.inf

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    lines = [json.loads(line, parse_constant=refuse)
             for line in log.to_jsonl().splitlines()]
    assert [line["I_true"] for line in lines] == [10.0, "inf"]


def test_observer_zero_interval_correction_is_exact():
    # with a zero-length prediction interval and unit confidence the
    # estimate lands exactly on the benchmark
    cfg = config(Delta=1e-300)
    out = sc.observer_update(sc.ObserverState(7.0), 5.0, lambda s: 3.0,
                             (2.5, 0.0, 1.0), cfg)
    assert out.I_hat == pytest.approx(2.5, abs=1e-12)


# ---------------------------------------------------------------------------
# throttle certificates


def test_throttle_cap_sublinear_certified():
    cert = sc.throttle_cap(dyn.PhiSpec.power(0.8), requested_cap=10.0)
    assert cert.phi_bar == 10.0
    assert cert.osgood.divergent


def test_throttle_cap_superlinear_impossible():
    with pytest.raises(NoStaticCapPossible):
        sc.throttle_cap(dyn.PhiSpec.power(1.2))


def test_throttle_cap_linear_notes_exponential():
    cert = sc.throttle_cap(dyn.PhiSpec.power(1.0), requested_cap=2.0)
    assert "exponential" in cert.note
    # comparison solution oracle: growth under the cap is exp(phi_bar * t)
    res = dyn.integrate(dyn.envelope_rhs(dyn.PhiSpec.power(1.0), 2.0), 1.0,
                        horizon=3.0, blowup_threshold=1e9, rtol=1e-10)
    assert res.I[-1] == pytest.approx(math.exp(6.0), rel=1e-7)


# ---------------------------------------------------------------------------
# closed-loop supervision


def supercritical_grid():
    grid = []
    for p in (1.2, 1.5, 2.0, 3.0):
        for kappa, I_bar, I0 in ((1.0, 10.0, 1.0), (2.0, 5.0, 0.5),
                                 (0.5, 20.0, 2.0), (4.0, 8.0, 1.0),
                                 (1.0, 3.0, 0.2)):
            grid.append((p, kappa, I_bar, I0))
    return grid


def safe_period(p, kappa, I_bar, I0):
    # the sampler must beat the within-step escape of the throttled plant:
    # from state I at the full budget, the zero-order-hold comparison ODE
    # escapes no sooner than I / (kappa (I_bar - I)(p-1)), worst near I0
    escape = I0 / (kappa * I_bar * (p - 1.0))
    return min(0.1 / kappa, 0.2 * escape)


def test_closed_loop_invariance_exact_state():
    # 20 supercritical plants: I(t_k) <= I_bar at every sample, zero slack
    # (a stiff slack penalty makes the feasibility relaxation inert)
    assert len(supercritical_grid()) == 20
    for p, kappa, I_bar, I0 in supercritical_grid():
        cfg = config(I_bar=I_bar, kappa=kappa,
                     Delta=safe_period(p, kappa, I_bar, I0),
                     u_box=((0.0, 1.0),), slack_weight=1e14)
        scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(p, c=2.0), I0=I0,
                                    n_steps=400, u_ref=1.0)
        log = sc.supervise(scenario, cfg)
        assert log.final_status == "completed"
        assert log.max_overshoot <= 1e-9, (p, kappa, I_bar, I0)
        assert all(s.slack <= 1e-9 for s in log.steps), (p, kappa)
        assert all(a == "certify" for a in log.actions())


def test_closed_loop_estimation_error_and_latency_margin():
    # bounded estimation error and actuation latency stay within the
    # documented per-step violation margin kappa*eps_I + L_h*tau_bar
    for p in (1.5, 2.0):
        phi = dyn.PhiSpec.power(p, c=2.0)
        kappa, I_bar, I0 = 1.0, 10.0, 1.0
        eps_i, tau = 0.05, 0.02
        # L_h bounds the drift of the applied rate over the delay window:
        # max Phi'(I)*rate over the operating set [0, I_bar]
        rate_max = phi(I_bar) * 1.0
        lh = 2.0 * p * I_bar ** (p - 1) * rate_max
        cfg = config(I_bar=I_bar, kappa=kappa, Delta=0.1, tau_bar=tau,
                     L_h=lh, eps_I=eps_i)
        scenario = sc.PlantScenario(phi=phi, I0=I0, n_steps=300, u_ref=1.0,
                                    state_error=eps_i, latency=tau)
        log = sc.supervise(scenario, cfg)
        margin = kappa * eps_i + lh * tau
        assert log.max_violation_rate <= margin + 1e-9, (p, log.max_violation_rate, margin)
        assert log.max_overshoot <= eps_i + lh * tau / kappa + 1e-9


def test_logged_violation_uses_the_enforced_barrier():
    # with a nonlinear alpha_fn the QP enforces rate <= -alpha(I - I_bar);
    # each logged violation is measured against that barrier, not kappa's
    cubic = lambda r: 2.0 * r + 0.5 * r ** 3
    cfg = sc.ControlConfig(I_bar=10.0, kappa=1.0, Delta=0.02, alpha_fn=cubic,
                           slack_weight=1e14)
    phi = dyn.PhiSpec.power(2.0, c=2.0)
    log = sc.supervise(sc.PlantScenario(phi=phi, I0=1.0, n_steps=300), cfg)
    for s in log.steps:
        rate = phi(s.I_true) * s.u
        assert s.violation_rate == max(0.0, rate + cubic(s.I_true - 10.0))
    assert log.max_violation_rate <= 1e-9


def test_supervisor_escalates_on_persistent_slack():
    # start above the ceiling: budget negative, throttle floors at zero,
    # slack stays positive -> escalation after 3 consecutive steps
    cfg = config(I_bar=1.0, kappa=1.0, Delta=0.1)
    scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(1.5, c=1.0), I0=2.0,
                                n_steps=10, u_ref=1.0)
    log = sc.supervise(scenario, cfg)
    acts = log.actions()
    assert acts[0] == "certify"  # one slack step is not yet persistent
    assert "escalate" in acts
    first = acts.index("escalate")
    assert first == 2  # third consecutive slack step


def test_supervisor_escalates_on_governance_threshold():
    cfg = config(I_bar=100.0, kappa=1.0, Delta=0.1)
    scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(0.8), I0=1.0,
                                n_steps=5, u_ref=0.1, ptot_hat=0.95)
    log = sc.supervise(scenario, cfg,
                       sc.PolicyThresholds(governance_delta=0.1))
    assert all(a == "escalate" for a in log.actions())


def test_supervisor_shutdown_on_antagonism():
    cfg = config(I_bar=100.0, kappa=1.0, Delta=0.1)
    scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(1.0, c=0.5), I0=1.0,
                                n_steps=50, u_ref=1.0,
                                antagonism=(0.4, 0.2))
    # budget at I0: phi(1)*0.5... antagonism 0.6 > theta * gain
    log = sc.supervise(scenario, cfg,
                       sc.PolicyThresholds(antagonism_theta=0.5))
    assert log.final_status == "shutdown"
    assert log.actions()[-1] == "shutdown"


def test_supervisor_shutdown_on_lost_divergence():
    cfg = config(I_bar=100.0, kappa=1.0, Delta=0.1)
    scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(0.8), I0=1.0,
                                n_steps=5, u_ref=1.0, osgood_ok=False)
    log = sc.supervise(scenario, cfg)
    assert log.final_status == "shutdown"
    assert len(log.steps) == 1


def test_subcritical_plant_under_cap_all_certify():
    # sublinear plant far from the ceiling: comparison solution bounds the
    # trajectory and no intervention triggers
    phi = dyn.PhiSpec.power(0.8)
    cfg = config(I_bar=1e5, kappa=1.0, Delta=0.1)
    scenario = sc.PlantScenario(phi=phi, I0=1.0, n_steps=200, u_ref=1.0)
    log = sc.supervise(scenario, cfg)
    assert all(a == "certify" for a in log.actions())
    # oracle: closed form of dI = I^0.8 (exponent 0.2 comparison solution)
    T = 200 * cfg.Delta
    bound = (1.0 + 0.2 * T) ** 5.0
    assert log.steps[-1].I_true <= bound * (1 + 1e-6)


def test_supervisor_observer_predicts_between_benchmarks():
    # benchmark_every = 3: off the benchmark steps the estimate is the model
    # prediction with the telemetry service rate (0.8 against a true 1.0)
    # and the previous throttle; a benchmark step lands within one
    # predicted increment of the measured state
    cfg = config(I_bar=5.0, kappa=1.0, Delta=0.1)
    phi = dyn.PhiSpec.power(1.5, c=1.0)
    scenario = sc.PlantScenario(phi=phi, I0=1.0, phi_svc_meas=0.8,
                                n_steps=30, benchmark_every=3)
    log = sc.supervise(scenario, cfg)
    assert len(log.steps) == 30 and log.final_status == "completed"
    prev, u_prev = 1.0, 0.0
    for s in log.steps:
        step = cfg.Delta * phi(prev) * 0.8 * u_prev
        if s.k % 3:
            assert s.I_hat == prev + step
            assert s.I_hat != s.I_true      # the estimate, not the state
        else:
            assert abs(s.I_hat - s.I_true) <= step + 1e-12 * s.I_true
        prev, u_prev = s.I_hat, s.u


def test_supervisor_full_confidence_benchmark_lands_on_the_state():
    # the correction moves the prediction, not the previous estimate, to
    # the benchmark: at unit confidence the step's estimate is the state
    # (the two lie within a factor 2, so value - predicted is exact)
    scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(1.5), I0=1.0,
                                phi_svc_meas=0.8, benchmark_every=3,
                                n_steps=10)
    log = sc.supervise(scenario, config(I_bar=10.0, kappa=1.0, Delta=0.1))
    errors = {s.k: s.I_hat - s.I_true for s in log.steps if s.k % 3 == 0}
    assert errors == {0: 0.0, 3: 0.0, 6: 0.0, 9: 0.0}


def test_supervisor_observer_steps_are_observer_update():
    # the supervisor's estimate is observer_update's at the throttle it
    # applied the step before, with a unit-confidence benchmark every 3rd
    cfg = config(I_bar=5.0, kappa=1.0, Delta=0.1)
    phi = dyn.PhiSpec.power(1.5, c=1.0)
    scenario = sc.PlantScenario(phi=phi, I0=1.0, phi_svc_meas=0.8,
                                n_steps=30, benchmark_every=3)
    log = sc.supervise(scenario, cfg)
    obs, u_prev = sc.ObserverState(1.0), 0.0
    for s in log.steps:
        benchmark = (s.I_true, 0.0, 1.0) if s.k % 3 == 0 else None
        obs = sc.observer_update(obs, 0.8, phi, benchmark, cfg,
                                 throttle=u_prev)
        assert obs.I_hat == s.I_hat
        u_prev = s.u


@pytest.mark.parametrize("benchmark_every", [1, 2, 3])
def test_supervisor_observer_shuts_down_a_plant_that_escapes(benchmark_every):
    # the plant escapes in the first period; at k = 1 a benchmark (every
    # step) corrects the estimate to inf, and the run shuts down where it
    # used to raise "I_hat must be finite"; without one there the estimate
    # is a finite prediction and the state check shuts it down
    scenario = sc.PlantScenario(dyn.PhiSpec.power(2.0), 10.0, n_steps=5,
                                benchmark_every=benchmark_every)
    log = sc.supervise(scenario, sc.ControlConfig(I_bar=1e300, kappa=1.0,
                                                  Delta=1.0))
    assert log.final_status == "shutdown"
    assert log.actions()[-1] == "shutdown"
    assert log.steps[-1].I_true == math.inf


@pytest.mark.parametrize("I0, n_logged", [(1e155, 1), (1e150, 3)])
def test_supervisor_observer_shuts_down_when_its_prediction_overflows(
        I0, n_logged):
    # no service, so the state stays finite; the observer's prediction
    # I_hat + Delta Phi(I_hat) phi_svc_meas u overflows (from 1e155, Phi is
    # inf and inf * 0 at the first step's throttle is nan; from 1e150 the
    # second prediction is 1e300 and the third inf)
    scenario = sc.PlantScenario(dyn.PhiSpec.power(2.0), I0, n_steps=5,
                                benchmark_every=3, phi_svc_true=0.0,
                                phi_svc_meas=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        log = sc.supervise(scenario, sc.ControlConfig(I_bar=1e300, kappa=1.0,
                                                      Delta=1.0))
    assert log.final_status == "shutdown"
    assert len(log.steps) == n_logged
    assert log.steps[-1].I_true == I0
    assert not math.isfinite(log.steps[-1].I_hat)
    json.loads(log.to_jsonl().splitlines()[-1],
               parse_constant=lambda name: pytest.fail(name))


def test_supervisor_observer_lands_on_a_benchmark_its_prediction_dwarfs():
    # no service from 1e150: each step predicts about 1e300, and the
    # unit-confidence benchmark 1e150 is the estimate; the blend used to
    # cancel to 1e300 + (1e150 - 1e300) = 0.0, and Phi(0) raised
    # NonPositivePhi at the next step
    scenario = sc.PlantScenario(dyn.PhiSpec.power(2.0), 1e150, n_steps=5,
                                benchmark_every=1, phi_svc_true=0.0,
                                phi_svc_meas=1.0)
    log = sc.supervise(scenario, sc.ControlConfig(I_bar=1e300, kappa=1.0,
                                                  Delta=1.0))
    assert len(log.steps) == 5
    assert [s.I_hat for s in log.steps] == [s.I_true for s in log.steps] \
        == [1e150] * 5


def test_supervisor_reads_a_nan_hold_violation_as_inf():
    # Phi(1e155) overflows: the first hold's violation is inf * 0 = nan
    # (u_prev = 0), the second hold's inf; a nan reads as a violation, so
    # the period logs inf, where max(nan, inf) kept the nan and
    # max(0.0, nan) logged 0.0
    cfg = sc.ControlConfig(I_bar=1e300, kappa=1.0, Delta=0.02, tau_bar=0.005)
    scenario = sc.PlantScenario(dyn.PhiSpec.power(2.0), 1e155, n_steps=5,
                                latency=0.005)
    with np.errstate(over="ignore"):
        log = sc.supervise(scenario, cfg)
    assert log.actions() == ["certify", "shutdown"]
    assert log.steps[0].u == 1.0
    assert log.steps[0].violation_rate == log.max_violation_rate == math.inf


def test_supervision_log_jsonl_roundtrip():
    cfg = config(I_bar=5.0, kappa=1.0, Delta=0.1)
    scenario = sc.PlantScenario(phi=dyn.PhiSpec.power(1.5), I0=1.0,
                                n_steps=20, u_ref=1.0)
    log = sc.supervise(scenario, cfg)
    import json
    lines = [json.loads(line) for line in log.to_jsonl().splitlines()]
    assert len(lines) == 20
    assert {"k", "t", "I_true", "I_hat", "u", "slack", "action",
            "budget", "violation_rate"} <= set(lines[0])
