import math

import numpy as np
import pytest

from rsi_certify import capability as cap
from rsi_certify import config
from rsi_certify import series as ts
from rsi_certify.errors import MissingTask, RefOutOfRange


def loss_series(name, t, values):
    return ts.TimeSeries(name, "loss", t, values)


def one_task_spec(t_ref=0.0, floor=1.0):
    return cap.BenchmarkSpec((cap.TaskSpec("task", 1.0, floor),), t_ref)


# ---------------------------------------------------------------------------
# loss_index


def test_loss_index_at_floor_is_zero():
    t = [0.0, 1.0]
    itilde = cap.loss_index([loss_series("task", t, [1.0, 1.0])], one_task_spec())
    np.testing.assert_allclose(itilde.values, 0.0)


def test_loss_index_two_tasks_at_e():
    t = [0.0, 1.0]
    spec = cap.BenchmarkSpec(
        (cap.TaskSpec("a", 0.5, 1.0), cap.TaskSpec("b", 0.5, 1.0)), 0.0)
    losses = [loss_series("a", t, [math.e, math.e]),
              loss_series("b", t, [math.e, math.e])]
    itilde = cap.loss_index(losses, spec)
    np.testing.assert_allclose(itilde.values, -1.0)


def test_loss_index_log_additivity():
    t = [0.0, 1.0, 2.0]
    spec = cap.BenchmarkSpec(
        (cap.TaskSpec("a", 0.3, 0.5), cap.TaskSpec("b", 0.7, 2.0)), 0.0)
    base = [loss_series("a", t, [1.0, 0.9, 0.8]),
            loss_series("b", t, [4.0, 3.5, 3.0])]
    scaled = [loss_series("a", t, [math.e * v for v in [1.0, 0.9, 0.8]]),
              loss_series("b", t, [math.e * v for v in [4.0, 3.5, 3.0]])]
    i0 = cap.loss_index(base, spec)
    i1 = cap.loss_index(scaled, spec)
    np.testing.assert_allclose(i1.values, i0.values - 1.0, atol=1e-12)


def test_loss_index_below_floor_warns_not_raises():
    t = [0.0, 1.0]
    spec = one_task_spec(floor=1.0)
    with pytest.warns(UserWarning, match="floor"):
        itilde = cap.loss_index([loss_series("task", t, [0.5, 0.5])], spec)
    np.testing.assert_allclose(itilde.values, -np.log(0.5))


def test_loss_index_missing_task():
    with pytest.raises(MissingTask):
        cap.loss_index([loss_series("other", [0.0, 1.0], [1.0, 1.0])],
                       one_task_spec())


def test_loss_index_refuses_a_series_of_no_task():
    t = [0.0, 1.0]
    with pytest.raises(MissingTask, match="loss series 'extra' is not a "
                       "benchmark task"):
        cap.loss_index([loss_series("task", t, [1.0, 1.0]),
                        loss_series("extra", t, [1.0, 1.0])], one_task_spec())


def test_loss_index_monotone_in_losses():
    t = [0.0, 1.0]
    spec = one_task_spec()
    hi = cap.loss_index([loss_series("task", t, [2.0, 2.0])], spec)
    lo = cap.loss_index([loss_series("task", t, [1.5, 1.5])], spec)
    assert np.all(lo.values >= hi.values)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_pins_reference():
    t = np.linspace(0, 10, 50)
    itilde = ts.TimeSeries("itilde", "nat", t, 3.0 + 0.5 * t)
    I = cap.canonicalize(itilde, one_task_spec(t_ref=4.0))
    assert np.interp(4.0, I.t, I.values) == pytest.approx(0.0, abs=1e-9)


def test_canonicalize_one_nat_per_e_fold():
    # dropping the geometric-mean loss ratio by a factor e raises the
    # canonical index by exactly one
    t = np.array([0.0, 1.0])
    spec = one_task_spec(t_ref=0.0, floor=0.5)
    losses = [loss_series("task", t, [2.0, 2.0 / math.e])]
    I = cap.canonicalize(cap.loss_index(losses, spec), spec)
    assert I.values[1] - I.values[0] == pytest.approx(1.0, abs=1e-12)


def test_canonicalize_shift_invariance():
    t = np.linspace(0, 5, 30)
    base = ts.TimeSeries("itilde", "nat", t, np.sin(t) + t)
    shifted = ts.TimeSeries("itilde", "nat", t, np.sin(t) + t + 17.5)
    spec = one_task_spec(t_ref=2.0)
    np.testing.assert_allclose(cap.canonicalize(base, spec).values,
                               cap.canonicalize(shifted, spec).values,
                               atol=1e-12)


def test_canonicalize_rate_grid_and_values():
    t = np.linspace(0, 1, 11)
    itilde = ts.TimeSeries("itilde", "nat", t, t ** 2)
    I = cap.canonicalize(itilde, one_task_spec(t_ref=0.0))
    Idot = cap.capability_rate(I)
    # rate lives on the sample grid minus the last point
    assert len(Idot) == len(I) - 1
    np.testing.assert_array_equal(Idot.t, I.t[:-1])
    # central differences of t^2 are exact for the interior
    np.testing.assert_allclose(Idot.values[1:], 2 * t[1:-1], atol=1e-12)


def test_canonicalize_ref_out_of_range():
    t = np.linspace(0, 1, 5)
    itilde = ts.TimeSeries("itilde", "nat", t, t)
    with pytest.raises(RefOutOfRange):
        cap.canonicalize(itilde, one_task_spec(t_ref=2.0))


# ---------------------------------------------------------------------------
# affine invariance of the feedback elasticity


def canonical_and_rate(itilde):
    """The canonical index pinned at t = 0 and its finite-difference rate."""
    I = cap.canonicalize(itilde, one_task_spec(t_ref=0.0))
    return I, cap.capability_rate(I)


def blowup_capability(n=400, t_end=0.9, scale=1.0):
    t = np.linspace(0.0, t_end, n)
    return canonical_and_rate(
        ts.TimeSeries("itilde", "nat", t, scale / (1.0 - t)))


def test_affine_identity():
    I, Idot = blowup_capability()
    assert cap.affine_invariance_check(I, Idot, 1.0, 0.0, window=0.05)


def test_affine_pure_scaling_on_blowup_samples():
    # closed form: with I = 1/(1-t), Idot = I^2; scaling I -> 2I leaves the
    # slope of log Idot against log I at exactly 2 wherever I > 0
    I, Idot = blowup_capability()
    res = cap.affine_invariance_check(I, Idot, 2.0, 0.0, window=0.05)
    assert res.ok
    assert res.max_deviation < 1e-9


def test_affine_shift_asymptotic():
    # additive shifts die off like b/I; dense samples at I >> b keep the
    # discrepancy under the acceptance tolerance
    t = np.linspace(0.0, 0.99, 500)
    itilde = ts.TimeSeries("itilde", "nat", t, 1e7 / (1.0 - t))
    res = cap.affine_invariance_check(*canonical_and_rate(itilde), 1.0, 5.0,
                                      window=0.05, min_abscissa=1e6)
    assert res.ok
    assert res.windows_compared > 100


def test_affine_mismatch_reports_instead_of_raising():
    # a shift comparable to the state breaks invariance at finite I; the
    # check reports rather than raises
    I, Idot = blowup_capability()
    res = cap.affine_invariance_check(I, Idot, 1.0, 50.0, window=0.05)
    assert not res.ok
    assert res.detail != ""


def test_benchmark_spec_validation_and_json():
    spec = cap.BenchmarkSpec(
        (cap.TaskSpec("a", 0.25, 0.5), cap.TaskSpec("b", 0.75, 1.5)), 3.0)
    spec2 = config.read(cap.BenchmarkSpec, spec.to_json_dict(), "benchmark")
    assert spec2 == spec
    with pytest.raises(ValueError):
        cap.BenchmarkSpec((cap.TaskSpec("a", 0.5, 1.0),), 0.0)
    with pytest.raises(ValueError):
        cap.TaskSpec("a", 1.0, -1.0)
