"""Rewrites that must give the same bytes as the forms they replaced.

The replaced forms are kept here as ``_reference_*``: the certificate's
JSON text from an always-walked copy of its dict, ``same_grid`` through
``np.allclose``, the sup-Wald scan's prefix sums through fancy gathers,
and every normal quantile through ``float(ndtri(...))`` at its call site.
"""

import json
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from rsi_certify import certify as ct
from rsi_certify import cli
from rsi_certify import envelopes as env
from rsi_certify import estimate as est
from rsi_certify import series as ts


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Certificate.to_json


def _reference_encode_nonfinite(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _reference_encode_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_encode_nonfinite(v) for v in obj]
    return obj


def _reference_to_json(cert) -> str:
    return json.dumps(_reference_encode_nonfinite(cert.to_json_dict()),
                      indent=2, sort_keys=True, allow_nan=False)


NUMBER = st.floats(allow_nan=True, allow_infinity=True)
OPTIONAL = st.none() | NUMBER
KEY = st.text(max_size=3)
NESTED = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | NUMBER | KEY,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(KEY, inner, max_size=3)),
    max_leaves=12)


@st.composite
def certificates(draw):
    def outcome():
        return ct.TestOutcome(draw(st.booleans()), draw(NUMBER), draw(NUMBER))

    def segment():
        ptot = ct.PtotEstimate(
            *(draw(NUMBER) for _ in range(4)),
            *(draw(st.dictionaries(KEY, OPTIONAL, max_size=3))
              for _ in range(2)))
        return ct.SegmentRecord(draw(NUMBER), draw(NUMBER), ptot, outcome(),
                                outcome(), draw(NUMBER), draw(st.booleans()),
                                draw(st.booleans()))

    return ct.Certificate(
        draw(st.sampled_from([ct.VERDICT_NONSINGULAR, ct.VERDICT_SINGULAR,
                              ct.VERDICT_INCONCLUSIVE])),
        [segment() for _ in range(draw(st.integers(0, 3)))],
        draw(NUMBER), draw(st.dictionaries(KEY, OPTIONAL, max_size=4)),
        draw(st.booleans()), draw(OPTIONAL), draw(OPTIONAL),
        draw(st.dictionaries(KEY, NESTED, max_size=4)),
        draw(st.dictionaries(KEY, KEY, max_size=2)),
        draw(st.lists(KEY, max_size=2)))


@settings(max_examples=300, deadline=None)
@given(certificates())
def test_certificate_json_matches_reference(cert):
    assert cert.document()[1] == _reference_to_json(cert)


@settings(max_examples=300, deadline=None)
@given(certificates())
def test_report_of_the_document_is_the_report_of_its_text(cert):
    document, text = cert.document()
    assert cli.render_report(document) == cli.render_report(json.loads(text))


# ---------------------------------------------------------------------------
# same_grid


def _reference_same_grid(a, b) -> bool:
    if len(a) != len(b):
        return False
    tol = ts.GRID_RTOL * max(1.0, float(np.max(np.abs(a.t))))
    if len(a) > 1:
        tol = min(tol, ts.GRID_SPACING_FRACTION
                  * float(min(np.diff(a.t).min(), np.diff(b.t).min())))
    return bool(np.allclose(a.t, b.t, rtol=0.0, atol=tol))


# multiples of the tolerance a timestamp is moved by: on it, a float to
# either side of it, and well inside and outside
FACTORS = st.sampled_from([0.0, 0.5, 1.0 - 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52,
                           2.0, 1e3])


@st.composite
def grid_pairs(draw):
    t = np.array(sorted(draw(st.lists(st.floats(-1e9, 1e9), min_size=1,
                                      max_size=12, unique=True))))
    tol = ts.GRID_RTOL * max(1.0, float(np.max(np.abs(t))))
    if t.size > 1:
        tol = min(tol, ts.GRID_SPACING_FRACTION * float(np.diff(t).min()))
    shift = np.array([draw(FACTORS) * draw(st.sampled_from([-1.0, 1.0]))
                      for _ in t]) * tol
    return t, t + shift


@settings(max_examples=300, deadline=None)
@given(grid_pairs())
@example((np.array([0.0]), np.array([1e-9])))     # exactly the tolerance
@example((np.array([0.0]), np.array([np.nextafter(1e-9, 1.0)])))
@example((np.array([5e8]), np.array([5e8 - 0.5])))
def test_same_grid_matches_allclose(pair):
    ta, tb = pair
    assume(tb.size == 1 or np.all(np.diff(tb) > 0))
    a, b = ts.TimeSeries("a", "s", ta, ta), ts.TimeSeries("b", "s", tb, tb)
    for x, y in ((a, b), (b, a)):
        assert ts.same_grid(x, y) is _reference_same_grid(x, y)


# ---------------------------------------------------------------------------
# sup-Wald scan


def _reference_sup_wald_mean_shift(y, trim):
    n = y.size
    k_lo = max(int(math.floor(trim * n)), 2)
    k_hi = min(int(math.ceil((1 - trim) * n)), n - 2)
    if k_hi <= k_lo:
        return 0.0, None
    rss0 = float(((y - y.mean()) ** 2).sum())
    csum = np.cumsum(y)
    csum2 = np.cumsum(y * y)
    k = np.arange(k_lo, k_hi + 1)
    s1, q1 = csum[k - 1], csum2[k - 1]
    s2, q2 = csum[-1] - s1, csum2[-1] - q1
    rss1 = (q1 - s1 * s1 / k) + (q2 - s2 * s2 / (n - k))
    denom = rss1 / max(n - 2, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(denom > 0, (rss0 - rss1) / denom, math.inf)
    w = np.where(w > -1.0, w, -1.0)
    best = int(np.argmax(w))
    if not w[best] > -1.0:
        return -1.0, None
    return float(w[best]), k_lo + best


# runs of one value: a constant run fits a split exactly (an infinite
# score), and NaN or infinite entries poison the sums after them
RUNS = st.lists(st.tuples(st.floats(-1e6, 1e6)
                          | st.sampled_from([0.0, 1.0, math.nan, math.inf]),
                          st.integers(1, 25)), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(RUNS, st.integers(1, 80))
@example([(1.0, 5)], 5)          # n = 5: the first n with a split to score
@example([(1.0, 4)], 4)          # n = 4: k_hi = k_lo, nothing scored
@example([(0.0, 20), (1.0, 20)], 40)
def test_sup_wald_scan_matches_gathered_form(runs, n):
    y = np.concatenate([np.full(length, v) for v, length in runs])[:n]
    with np.errstate(invalid="ignore", over="ignore"):
        got = est._sup_wald_mean_shift(y, est.SUP_WALD_TRIM)
        expected = _reference_sup_wald_mean_shift(y, est.SUP_WALD_TRIM)
    assert _bits(got[0]) == _bits(expected[0])
    assert got[1] == expected[1]


# ---------------------------------------------------------------------------
# normal quantiles


LEVELS = st.floats(0.0, 1.0) | st.sampled_from([1e-300, 0.5, math.nan])

# the quantile each call site asks for, at a level alpha
CALL_FORMS = {"test_superlinearity": lambda alpha: 1 - alpha,
              "test_ceiling": lambda alpha: 1 - alpha / 3.0,
              "propagate_uncertainty": lambda alpha: 1.0 - alpha / 2.0,
              "RollingElasticity.ci": lambda alpha: 1 - alpha / 2.0,
              "antagonism_diagnostics": lambda alpha: 1 - alpha}


@settings(max_examples=200, deadline=None)
@given(LEVELS, LEVELS)
def test_normal_quantile_matches_ndtri_at_every_call_form(alpha, beta):
    for form in CALL_FORMS.values():
        q = form(alpha)
        for _ in range(2):                  # computed, then cached
            assert est.normal_quantile(q).hex() == float(ndtri(q)).hex()
    # required_samples adds two quantiles
    got = est.normal_quantile(1 - alpha) + est.normal_quantile(1 - beta)
    with np.errstate(invalid="ignore"):     # inf + -inf at the end levels
        expected = float(ndtri(1 - alpha) + ndtri(1 - beta))
    assert got.hex() == expected.hex()


@settings(max_examples=100, deadline=None)
@given(st.floats(0.001, 0.499), st.floats(0.001, 0.499),
       st.floats(-3.0, 3.0), st.floats(0.0, 2.0))
def test_quantile_call_sites_match_ndtri(alpha, beta, value, se):
    def z(q):
        return float(ndtri(q))

    stat = ct.test_superlinearity(value, se, alpha).statistic
    assert _bits(stat) == _bits(value - z(1 - alpha) * se)

    ceilings = {"io": (value, se), "mem": (1.0, se), "pow": (2.0, 0.5)}
    got = ct.test_ceiling(value, se, ceilings, alpha)
    z3 = z(1 - alpha / 3.0)
    upper = {name: e + z3 * s for name, (e, s) in ceilings.items()}
    assert _bits([got.lhs, got.rhs]) == _bits([value - z3 * se,
                                               min(upper.values())])

    rel = dict.fromkeys(env.DELTA_KEYS, se)
    s = math.sqrt(sum(d * d for d in rel.values()))
    z2 = z(1.0 - alpha / 2.0)
    assert _bits(env.propagate_uncertainty(rel, alpha).interval_factors) \
        == _bits([math.exp(-z2 * s), math.exp(z2 * s)])

    prof = est.RollingElasticity(np.array([0.0]), np.array([value]),
                                 np.array([se]), np.array([10.0]), 1.0, [],
                                 alpha)
    lo, hi = prof.ci
    assert _bits([lo, hi]) == _bits([value - z2 * se, value + z2 * se])

    zz = float(ndtri(1 - alpha) + ndtri(1 - beta))
    assert est.required_samples(1.0, 1.0, 0.5, alpha, beta) \
        == int(math.ceil(zz * zz / 0.25))

    partials = [(value, se)]
    assert est.antagonism_diagnostics(partials, 1.0, 0.5, alpha=alpha) \
        .statistically_zero == (value + z(1 - alpha) * se >= 0)
