import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from rsi_certify import certify as ct
from rsi_certify import series as ts
from rsi_certify.dynamics import OsgoodResult
from rsi_certify.errors import ZeroGradient
from rsi_certify.estimate import BreakSegmentation


def make_series(t, v, name="s", unit="nat/s"):
    return ts.TimeSeries(name, unit, t, v)


# ---------------------------------------------------------------------------
# effective exponents


def test_effective_exponents_no_diminishing_returns():
    effs = ct.effective_exponents(0.8, 0.4, 0.3, 0.2, rho=0.0, r=0.1,
                                  chi_hat=1.0)
    assert effs.alpha_eff == pytest.approx(0.8)
    assert effs.beta_eff == pytest.approx(0.3)  # beta - r
    assert effs.gamma_eff == pytest.approx(0.3)
    assert effs.alpha_tilde_eff == pytest.approx(0.2)


def test_effective_exponents_compute_cap():
    effs = ct.effective_exponents(0.8, 0.0, 0.0, 0.0, rho=0.5, r=0.1,
                                  chi_hat=0.6)
    assert effs.alpha_eff == pytest.approx(0.3)  # 0.5 * min(0.8, 0.6)
    assert any("loss-compute" in c for c in effs.caps_applied)


def test_effective_exponents_data_cap_zeroes():
    effs = ct.effective_exponents(0.0, 0.4, 0.0, 0.0, rho=0.0, r=0.5,
                                  chi_hat=1.0)
    assert effs.beta_eff == 0.0
    assert any("minimax" in c for c in effs.caps_applied)


# ---------------------------------------------------------------------------
# total feedback


def upsilons(c=(0.0, 0.0), d=(0.0, 0.0), e=(0.0, 0.0), se=0.0):
    return {"C": ct.UpsilonBand(*c, se, se),
            "D": ct.UpsilonBand(*d, se, se),
            "E": ct.UpsilonBand(*e, se, se)}


def test_ptot_exact_sum():
    effs = ct.effective_exponents(1.0, 1.0, 1.0, 1.0, rho=0.0, r=1e-12,
                                  chi_hat=10.0)
    # contributions 0.2 + 0.05 + 0.05 on top of q + gamma*xi = 0.7
    res = ct.ptot((0.5, 0.0), (0.2, 0.0), 1.0, effs,
                  upsilons(c=(0.2, 0.2), d=(0.05, 0.05), e=(0.05, 0.05)))
    assert res.plus == pytest.approx(1.0, abs=1e-9)
    assert res.minus == pytest.approx(1.0, abs=1e-9)


def test_ptot_frozen_resources():
    effs = ct.effective_exponents(0.5, 0.5, 0.5, 0.5, rho=0.0, r=0.1,
                                  chi_hat=1.0)
    res = ct.ptot((0.5, 0.0), (0.4, 0.0), 0.5, effs, upsilons())
    assert res.plus == pytest.approx(0.5 + 0.5 * 0.4)


def test_ptot_components_sum_to_totals():
    effs = ct.effective_exponents(0.9, 0.8, 0.7, 0.6, rho=0.3, r=0.2,
                                  chi_hat=0.7)
    res = ct.ptot((0.4, 0.02), (0.3, 0.02), 0.7, effs,
                  upsilons(c=(0.2, 0.9), d=(0.1, 0.8), e=(0.0, 0.7), se=0.02))
    assert sum(res.components_minus.values()) == pytest.approx(res.minus,
                                                               abs=1e-12)
    assert sum(res.components_plus.values()) == pytest.approx(res.plus,
                                                              abs=1e-12)


def test_ptot_delta_method_se():
    # variance arithmetic oracle: five independent terms with SE 0.02 each
    effs = ct.effective_exponents(1.0, 1.0, 1.0, 1.0, rho=0.0, r=1e-12,
                                  chi_hat=10.0)
    res = ct.ptot((0.5, 0.02), (0.2, 0.02), 1.0, effs,
                  upsilons(c=(0.2, 0.2), d=(0.05, 0.05), e=(0.05, 0.05),
                           se=0.02))
    assert res.se_plus == pytest.approx(math.sqrt(5 * 0.0004), rel=1e-9)


# ---------------------------------------------------------------------------
# hypothesis tests


def test_superlinearity_reject_case():
    # quantile arithmetic oracle: 1.30 - 1.6449 * 0.10 = 1.1355 > 1
    out = ct.test_superlinearity(1.30, 0.10, alpha=0.05)
    assert out.reject
    assert out.statistic == pytest.approx(1.30 - norm.ppf(0.95) * 0.10)


def test_superlinearity_boundary_never_rejects():
    for se in (0.0, 0.05, 1.0):
        assert not ct.test_superlinearity(1.0, se).reject


def test_superlinearity_insufficient_margin():
    out = ct.test_superlinearity(1.10, 0.10, alpha=0.05)
    assert not out.reject
    assert out.statistic == pytest.approx(0.9355, abs=1e-3)


def test_ceiling_reject_case():
    # z_{1-0.05/3} = z_{0.98333} ~ 2.128
    z = norm.ppf(1 - 0.05 / 3)
    out = ct.test_ceiling(1.0, 0.05,
                          {"io": (0.3, 0.05), "mem": (0.4, 0.05),
                           "pow": (0.5, 0.05)}, alpha=0.05)
    assert out.reject
    assert out.lhs == pytest.approx(1.0 - z * 0.05)
    assert out.rhs == pytest.approx(0.3 + z * 0.05)
    assert out.binding_channel == "io"


def test_ceiling_boundary_strict():
    out = ct.test_ceiling(0.3, 0.0,
                          {"io": (0.3, 0.0), "mem": (0.4, 0.0),
                           "pow": (0.5, 0.0)})
    assert not out.reject


def test_ceiling_overlapping_bands():
    out = ct.test_ceiling(0.45, 0.1,
                          {"io": (0.5, 0.1), "mem": (0.6, 0.1),
                           "pow": (0.7, 0.1)})
    assert not out.reject


# ---------------------------------------------------------------------------
# envelope check


def const_env(idot, phi, svc, n=5, gamma=0.0, tol=1e-9):
    t = np.arange(n, dtype=float)
    return ct.envelope_check(make_series(t, np.full(n, idot), "Idot"),
                             make_series(t, np.full(n, phi), "Phi"),
                             make_series(t, np.full(n, svc), "phi_svc"),
                             small_gain=gamma, tol=tol)


def test_envelope_check_pass_and_fail():
    assert const_env(1.0, 1.0, 2.0).pass_fraction == 1.0
    res = const_env(1.0, 1.0, 0.5)
    assert res.pass_fraction == 0.0
    assert res.first_failure == (0.0, 0)


def test_envelope_check_small_gain():
    # (1 - 0.2) * 1.0 = 0.8 <= 0.9
    assert const_env(1.0, 1.0, 0.9, gamma=0.2).pass_fraction == 1.0
    assert const_env(1.0, 1.0, 0.9, gamma=0.0).pass_fraction == 0.0


def test_envelope_polarity_formula_audit():
    # the envelope must be the PRODUCT Phi * phi_svc: with Phi=2, svc=3 a
    # rate of 5 passes (5 <= 6); a divided envelope (2/3) would fail it
    res = const_env(5.0, 2.0, 3.0)
    assert res.pass_fraction == 1.0
    # raising the service rate only increases slack, as multiplication does
    lo = const_env(5.0, 2.0, 3.0).slack.mean()
    hi = const_env(5.0, 2.0, 30.0).slack.mean()
    assert hi > lo
    # hand-computed slack at one sample: (6 - 5)/6
    assert res.slack[0] == pytest.approx(1.0 / 6.0)


def test_envelope_check_agrees_with_direct_scan():
    rng = np.random.default_rng(4)
    t = np.arange(200, dtype=float)
    idot = rng.uniform(0.1, 2.0, 200)
    phi = rng.uniform(0.5, 1.5, 200)
    svc = rng.uniform(0.5, 1.5, 200)
    res = ct.envelope_check(make_series(t, idot, "Idot"),
                            make_series(t, phi, "Phi"),
                            make_series(t, svc, "svc"), small_gain=0.0,
                            tol=0.0)
    direct = idot <= phi * svc
    np.testing.assert_array_equal(res.passed, direct)


def test_envelope_nonbinding_threshold():
    t = np.arange(100, dtype=float)
    idot = np.full(100, 0.8)
    res = ct.envelope_check(make_series(t, idot, "Idot"),
                            make_series(t, np.ones(100), "Phi"),
                            make_series(t, np.ones(100), "svc"))
    # slack 0.2 >= 0.10 everywhere
    assert res.nonbinding()
    tight = ct.envelope_check(make_series(t, np.full(100, 0.95), "Idot"),
                              make_series(t, np.ones(100), "Phi"),
                              make_series(t, np.ones(100), "svc"))
    assert not tight.nonbinding()


# ---------------------------------------------------------------------------
# scalar margins


def test_event_blowup_bound_values():
    assert ct.event_blowup_bound(100.0, 1.0, 0.01) == pytest.approx(1.0)
    assert ct.event_blowup_bound(1.0, 0.3, 0.2) == pytest.approx(1 / (0.2 * 0.3))
    # monotone limit: larger delta with I > 1 shrinks the bound
    assert ct.event_blowup_bound(10.0, 5.0, 1.0) < \
        ct.event_blowup_bound(10.0, 1.0, 1.0)


def test_distribution_margin_cases():
    res = ct.distribution_margin(0.8, 1.0, 1.0, 1.0, 0.05, 0.1)
    assert res.worst_case_ptot == pytest.approx(0.9)
    assert res.certified
    assert ct.distribution_margin(0.8, 1.0, 1.0, 1.0, 0.0, 0.1) \
        .worst_case_ptot == pytest.approx(0.8)
    bad = ct.distribution_margin(0.95, 1.0, 1.0, 1.0, 0.1, 0.05)
    assert bad.worst_case_ptot == pytest.approx(1.15)
    assert not bad.certified


def test_manifold_distance():
    assert ct.manifold_distance(1.0, 2.0) == 0.0
    assert ct.manifold_distance(0.8, 2.0) == pytest.approx(0.1)
    with pytest.raises(ZeroGradient):
        ct.manifold_distance(0.8, 0.0)


# ---------------------------------------------------------------------------
# decision rule


def pt_est(minus, plus, se=0.01):
    return ct.PtotEstimate(minus, plus, se, se,
                           {"q": minus}, {"q": plus})


def seg(n=1, t_end=100.0):
    edges = np.linspace(0.0, t_end, n + 1)
    return BreakSegmentation(
        [float(e) for e in edges[1:-1]],
        [(float(a), float(b)) for a, b in zip(edges, edges[1:])])


def passing_envelope(n=100, idot=0.5):
    t = np.linspace(0.0, 100.0, n)
    return ct.envelope_check(make_series(t, np.full(n, idot), "Idot"),
                             make_series(t, np.ones(n), "Phi"),
                             make_series(t, np.ones(n), "svc"))


def test_decide_nonsingular_branch():
    cert = ct.decide(pt_est(0.7, 0.9), passing_envelope(),
                     OsgoodResult(True, math.inf, 0.8), seg())
    assert cert.verdict == ct.VERDICT_NONSINGULAR
    assert cert.margins["ptot_margin"] == pytest.approx(0.1)


def test_decide_singular_branch():
    cert = ct.decide(pt_est(1.5, 2.1), passing_envelope(),
                     OsgoodResult(False, 0.5, 2.0), seg(),
                     event_bound=3.0)
    assert cert.verdict == ct.VERDICT_SINGULAR
    assert cert.event_bound == 3.0


def test_decide_mixed_evidence_inconclusive():
    # superlinearity rejected but envelope binding: record both facts
    t = np.linspace(0.0, 100.0, 100)
    binding = ct.envelope_check(
        make_series(t, np.full(100, 0.99), "Idot"),
        make_series(t, np.ones(100), "Phi"),
        make_series(t, np.ones(100), "svc"))
    cert = ct.decide(pt_est(1.5, 2.1), binding,
                     OsgoodResult(False, 0.5, 2.0), seg())
    assert cert.verdict == ct.VERDICT_INCONCLUSIVE
    assert cert.segments[0].super_test_minus.reject
    assert not cert.segments[0].envelope_nonbinding


def test_decide_envelope_disabled_allows_singular():
    cert = ct.decide(pt_est(1.5, 2.1), None,
                     OsgoodResult(False, 0.5, 2.0), seg())
    assert cert.verdict == ct.VERDICT_SINGULAR
    assert any("absence" in n for n in cert.notes)


def test_decide_requires_osgood_for_nonsingular():
    cert = ct.decide(pt_est(0.7, 0.9), passing_envelope(),
                     OsgoodResult(False, 1.0, 1.5), seg())
    assert cert.verdict == ct.VERDICT_INCONCLUSIVE


def test_decide_monotone_in_improvements():
    # improving the upper elasticity never flips nonsingular to another
    # verdict; worsening a sample can
    base = ct.decide(pt_est(0.7, 0.9), passing_envelope(),
                     OsgoodResult(True, math.inf, 0.8), seg())
    better = ct.decide(pt_est(0.7, 0.8), passing_envelope(),
                       OsgoodResult(True, math.inf, 0.8), seg())
    assert base.verdict == better.verdict == ct.VERDICT_NONSINGULAR


def test_decide_per_segment_estimates():
    cert = ct.decide([pt_est(0.5, 0.8), pt_est(1.4, 1.9)],
                     passing_envelope(), OsgoodResult(False, 2.0, 1.5),
                     seg(2))
    assert cert.verdict == ct.VERDICT_SINGULAR
    assert len(cert.segments) == 2
    assert cert.segments[1].super_test_minus.reject


def evidence_by_mask(res, t_lo, t_hi, slack_threshold, fraction):
    """One segment's envelope evidence as a boolean mask over the samples,
    the reference for the prefix-count pass: (pass fraction, headroom)."""
    mask = (res.t >= t_lo) & (res.t < t_hi)
    sub_pass, sub_slack = res.passed[mask], res.slack[mask]
    frac = float(sub_pass.mean()) if sub_pass.size else 1.0
    if sub_slack.size == 0:
        return frac, False
    return frac, float((sub_slack >= slack_threshold).mean()) >= fraction


SLACKS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(
    [0.0, 0.1, -0.0, 0.05, -math.inf, math.inf, math.nan]))


@st.composite
def envelopes_and_segments(draw):
    # sample times and segment edges on a coarse grid, so edges fall on
    # samples; edges may repeat (empty segments) and run past the samples
    grid = st.integers(-20, 80).map(lambda k: k / 2)
    t = np.array(sorted(draw(st.sets(grid, max_size=60))))
    n = t.size
    passed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                      dtype=bool)
    slack = np.array(draw(st.lists(SLACKS, min_size=n, max_size=n)))
    res = ct.EnvelopeCheckResult(t, passed, slack,
                                 float(passed.mean()) if n else 1.0, None)
    edges = sorted(draw(st.lists(grid, min_size=2, max_size=12)))
    segments = BreakSegmentation(edges[1:-1], list(zip(edges, edges[1:])))
    threshold = draw(st.one_of(SLACKS, st.sampled_from(slack.tolist())
                               if n else st.just(0.1)))
    denominator = draw(st.integers(1, 12))
    fraction = draw(st.one_of(
        st.integers(0, denominator).map(lambda k: k / denominator),
        st.floats(0.0, 1.0)))
    return res, segments, threshold, fraction


@settings(max_examples=400, deadline=None)
@given(envelopes_and_segments())
@example((ct.EnvelopeCheckResult(np.array([]), np.array([], dtype=bool),
                                 np.array([]), 1.0, None),
          BreakSegmentation([], [(0.0, 1.0)]), 0.1, 0.95))
def test_segment_evidence_matches_the_mask(case):
    res, segments, threshold, fraction = case
    cert = ct.decide(pt_est(0.7, 0.9), res, OsgoodResult(True, math.inf, 0.8),
                     segments, nonbinding_slack=threshold,
                     nonbinding_fraction=fraction)
    for (t_lo, t_hi), record in zip(segments.segments, cert.segments):
        frac, headroom = evidence_by_mask(res, t_lo, t_hi, threshold,
                                          fraction)
        assert type(record.envelope_pass_fraction) is float
        assert type(record.envelope_nonbinding) is bool
        assert (record.envelope_pass_fraction, record.envelope_nonbinding) \
            == (frac, headroom)
    assert res.nonbinding(threshold, fraction) is evidence_by_mask(
        res, -math.inf, math.inf, threshold, fraction)[1]


def test_certificate_json_encodes_nonfinite_as_strings():
    cert = ct.decide(pt_est(0.7, 0.9), passing_envelope(),
                     OsgoodResult(True, math.inf, 0.8), seg(1),
                     capital_escape_time=math.inf,
                     extra_margins={"manifold_distance": -math.inf,
                                    "wasserstein_margin": math.nan})
    text = cert.document()[1]

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(text, parse_constant=reject)
    assert doc["capital_escape_time"] == "inf"
    assert doc["margins"]["manifold_distance"] == "-inf"
    assert doc["margins"]["wasserstein_margin"] == "nan"
