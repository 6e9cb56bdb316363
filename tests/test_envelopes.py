import math

import mpmath
import numpy as np
import pytest

from rsi_certify import envelopes as env
from rsi_certify import series as ts
from rsi_certify.errors import (
    ConfigError,
    GridMismatch,
    NegativeDelta,
    NonPositiveTemperature,
    TemperatureOrdering,
)

mpmath.mp.dps = 50
MP_KB = mpmath.mpf("1.380649e-23")


def landauer_rate(P_use, T):
    """Arbitrary-precision oracle for P_use / (k_B T ln 2)."""
    return P_use / (MP_KB * T * mpmath.log(2))


def params(P_max=100.0, T_min=300.0, T_max=320.0, cop=(1.0, 1.0),
           eta_elec=(1.0, 1.0), eta_use=(1.0, 1.0), sigma_eff=1.0):
    return env.EnvelopeParams(P_max=P_max, T_range=(T_min, T_max),
                              cop_range=cop, eta_elec_range=eta_elec,
                              eta_use_range=eta_use, sigma_eff=sigma_eff)


# ---------------------------------------------------------------------------
# pointwise physics


def test_cop_carnot_midpoint():
    assert env.cop_carnot(300.0, 600.0, 0.999999) == pytest.approx(1.0, rel=1e-5)
    assert env.cop_carnot(300.0, 600.0, 0.5) == pytest.approx(0.5)
    with pytest.raises(TemperatureOrdering):
        env.cop_carnot(600.0, 600.0, 0.5)


def test_usable_power_even_split():
    # COP=1 rejects half the DC power as cooling work
    assert env.usable_power(100.0, 300.0, 1.0, 1.0, 1.0) == pytest.approx(50.0)


def test_usable_power_high_cop_limit():
    out = env.usable_power(100.0, 300.0, 1e9, 0.9, 0.8)
    assert out == pytest.approx(100.0 * 0.9 * 0.8, rel=1e-8)


def test_usable_power_zero_and_bound():
    assert env.usable_power(0.0, 300.0, 1.0, 1.0, 1.0) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.uniform(0, 1000)
        cop = rng.uniform(0, 50)
        ee = rng.uniform(0.1, 1.0)
        eu = rng.uniform(0.1, 1.0)
        assert env.usable_power(p, 300.0, cop, ee, eu) <= ee * p + 1e-12


def test_erasure_cap_one_bit_per_second():
    # oracle: power exactly k_B * 300 * ln2 erases one bit per second
    p_use = float(MP_KB * 300 * mpmath.log(2))
    assert env.erasure_cap(p_use, 300.0) == pytest.approx(1.0, rel=1e-12)


def test_erasure_cap_one_watt():
    oracle = float(landauer_rate(mpmath.mpf(1), mpmath.mpf(300)))
    assert env.erasure_cap(1.0, 300.0) == pytest.approx(oracle, rel=1e-12)
    assert env.erasure_cap(0.0, 300.0) == 0.0
    with pytest.raises(NonPositiveTemperature):
        env.erasure_cap(1.0, 0.0)


# ---------------------------------------------------------------------------
# series ceilings


def grid_series(name, values, unit, n=4):
    t = np.arange(n, dtype=float)
    return ts.TimeSeries(name, unit, t, np.full(n, float(values)))


def test_phi_pt_against_precision_oracle():
    p_use = grid_series("P_use", 1.0, "W")
    temp = grid_series("T", 300.0, "K")
    out = env.phi_pt(p_use, temp, sigma_eff=1.0)
    oracle = float(landauer_rate(mpmath.mpf(1), mpmath.mpf(300)))
    np.testing.assert_allclose(out.values, oracle, rtol=1e-12)
    assert out.unit == "nat/s"


def test_phi_pt_linearity():
    p_use = grid_series("P_use", 2.0, "W")
    temp = grid_series("T", 300.0, "K")
    base = env.phi_pt(p_use, temp, sigma_eff=1.0).values
    np.testing.assert_allclose(env.phi_pt(p_use, temp, sigma_eff=2.0).values,
                               2 * base, rtol=1e-14)
    hot = grid_series("T", 600.0, "K")
    np.testing.assert_allclose(env.phi_pt(p_use, hot, 1.0).values,
                               base / 2, rtol=1e-14)


def test_phi_pt_grid_mismatch():
    p_use = grid_series("P_use", 1.0, "W", n=4)
    temp = ts.TimeSeries("T", "K", [0.0, 1.0], [300.0, 300.0])
    with pytest.raises(GridMismatch):
        env.phi_pt(p_use, temp)


def test_phi_svc_pointwise_min_and_binding():
    t = np.arange(3, dtype=float)
    pt = ts.TimeSeries("phi_pt", "nat/s", t, [3.0, 1.0, 3.0])
    b_io = ts.TimeSeries("B_io", "bit/s", t, [1.0, 5.0, 5.0])
    b_mem = ts.TimeSeries("B_mem", "bit/s", t, [2.0, 2.0, 2.0])
    svc, binding, warns = env.phi_svc(pt, b_io, b_mem, sigma_eff=1.0)
    np.testing.assert_allclose(svc.values, [1.0, 1.0, 2.0])
    assert binding == ["io-limited", "pt-limited", "mem-limited"]
    assert warns == []


def test_phi_svc_io_limited_run():
    t = np.arange(5, dtype=float)
    pt = ts.TimeSeries("phi_pt", "nat/s", t, np.full(5, 10.0))
    b_io = ts.TimeSeries("B_io", "bit/s", t, np.full(5, 2.0))
    b_mem = ts.TimeSeries("B_mem", "bit/s", t, np.full(5, 7.0))
    svc, binding, _ = env.phi_svc(pt, b_io, b_mem, sigma_eff=1.5)
    np.testing.assert_allclose(svc.values, 3.0)
    assert all(b == "io-limited" for b in binding)


def test_phi_svc_missing_channel_warns():
    t = np.arange(3, dtype=float)
    pt = ts.TimeSeries("phi_pt", "nat/s", t, [3.0, 3.0, 3.0])
    svc, binding, warns = env.phi_svc(pt, None, None)
    np.testing.assert_allclose(svc.values, pt.values)
    assert len(warns) == 2
    assert all(b == "pt-limited" for b in binding)


# ---------------------------------------------------------------------------
# static cap and uncertainty


def test_static_cap_worst_case_value():
    # oracle at 50 digits: (1/(k_B ln2)) * (1/300) * 0.5 * 100
    oracle = float(1 / (MP_KB * mpmath.log(2)) / 300 * mpmath.mpf("0.5") * 100)
    cap = env.static_cap(params())
    assert cap.value == pytest.approx(oracle, rel=1e-12)
    assert cap.value == pytest.approx(1.742e22, rel=1e-3)


def test_static_cap_zero_cop():
    assert env.static_cap(params(cop=(0.0, 0.0))).value == 0.0


def test_static_cap_monotonicity():
    base = env.static_cap(params()).value
    assert env.static_cap(params(P_max=200.0)).value == pytest.approx(2 * base)
    assert env.static_cap(params(T_min=150.0)).value > base
    assert env.static_cap(params(cop=(1.0, 3.0))).value > base
    assert env.static_cap(params(eta_use=(0.5, 0.5))).value < base


def test_propagate_uncertainty_sum():
    band = env.propagate_uncertainty(
        {k: 0.01 for k in env.DELTA_KEYS}, alpha=0.05)
    assert band.first_order == pytest.approx(0.05)
    zero = env.propagate_uncertainty({k: 0.0 for k in env.DELTA_KEYS})
    assert zero.first_order == 0.0
    assert zero.interval_factors == (1.0, 1.0)


def test_propagate_uncertainty_lognormal_interval():
    # arithmetic oracle: s = sqrt(0.0004+0.0001+0.0009+0.0001+0.0001) = 0.04
    band = env.propagate_uncertainty(
        {"delta_use": 0.02, "delta_elec": 0.01, "delta_cop": 0.03,
         "delta_P": 0.01, "delta_T": 0.01}, alpha=0.05)
    assert band.first_order == pytest.approx(0.08)
    assert band.s == pytest.approx(0.04)
    lo, hi = band.interval_factors
    z = 1.959963984540054  # z_{0.975}
    assert hi == pytest.approx(math.exp(z * 0.04), rel=1e-9)
    assert lo == pytest.approx(math.exp(-z * 0.04), rel=1e-9)


def test_propagate_uncertainty_rejects_negative():
    bad = {k: 0.01 for k in env.DELTA_KEYS}
    bad["delta_P"] = -0.01
    with pytest.raises(NegativeDelta):
        env.propagate_uncertainty(bad)


@pytest.mark.parametrize("alpha", [1.5, 0.0, math.nan])
def test_propagate_uncertainty_refuses_a_level_outside_the_unit_interval(
        alpha):
    with pytest.raises(ConfigError) as exc:
        env.propagate_uncertainty(dict.fromkeys(env.DELTA_KEYS, 0.01), alpha)
    assert str(exc.value) == f"alpha must lie in (0, 1), got {alpha!r}"


# ---------------------------------------------------------------------------
# ceiling elasticities


def capital_fixture(exponents=(0.3, 0.4, 0.5), n=300):
    t = np.linspace(0, 20, n)
    K = np.exp(0.2 * t)
    kio, kmem, kpow = exponents
    mk = lambda name, e, unit: ts.TimeSeries(name, unit, t, K ** e)
    return (ts.TimeSeries("K", "usd", t, K),
            mk("B_io", kio, "bit/s"), mk("B_mem", kmem, "bit/s"),
            mk("PoT", kpow, "W/K"))


def test_ceiling_elasticities_exact_power_laws():
    K, b_io, b_mem, pot = capital_fixture()
    caps = env.ceiling_elasticities(K, b_io, b_mem, pot, window=4.0)
    assert caps.e_io == pytest.approx(0.3, abs=1e-6)
    assert caps.e_mem == pytest.approx(0.4, abs=1e-6)
    assert caps.e_pow == pytest.approx(0.5, abs=1e-6)
    assert caps.e_ceil == pytest.approx(0.3, abs=1e-6)


def test_ceiling_elasticities_constant_channels():
    t = np.linspace(0, 20, 200)
    K = ts.TimeSeries("K", "usd", t, np.exp(0.2 * t))
    flat = lambda name: ts.TimeSeries(name, "bit/s", t, np.full_like(t, 3.0))
    caps = env.ceiling_elasticities(K, flat("B_io"), flat("B_mem"),
                                    flat("PoT"), window=4.0)
    assert caps.e_ceil == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# assembly and dimensional audit


def test_compute_envelope_from_facility_power():
    t = np.arange(4, dtype=float)
    p_fac = ts.TimeSeries("P_fac", "W", t, np.full(4, 100.0))
    temp = ts.TimeSeries("T", "K", t, np.full(4, 300.0))
    with pytest.warns(UserWarning):
        res = env.compute_envelope(params(), P_fac=p_fac, T=temp)
    # COP band (1,1) -> midpoint 1 -> half the power is usable
    oracle = float(landauer_rate(mpmath.mpf(50), mpmath.mpf(300)))
    np.testing.assert_allclose(res.phi_pt.values, oracle, rtol=1e-12)
    assert res.phi_io is None and res.phi_mem is None
    assert len(res.warnings) >= 1


def test_compute_envelope_hard_caps():
    t = np.arange(4, dtype=float)
    p_use = ts.TimeSeries("P_use", "W", t, np.full(4, 10.0))
    temp = ts.TimeSeries("T", "K", t, np.full(4, 300.0))
    b_mem = ts.TimeSeries("B_mem", "bit/s", t, np.full(4, 1e22))
    with pytest.warns(UserWarning):
        res = env.compute_envelope(params(), P_use=p_use, T=temp, B_mem=b_mem,
                                   hard_cap_p_use=5.0, hard_cap_b_mem=1e21)
    oracle = float(landauer_rate(mpmath.mpf(5), mpmath.mpf(300)))
    np.testing.assert_allclose(res.phi_pt.values, oracle, rtol=1e-12)
    np.testing.assert_allclose(res.phi_mem.values, 1e21, rtol=1e-12)


def test_compute_envelope_with_a_carnot_cop_model():
    # no COP series: each sample's COP is zeta_cop * T / (T_hot - T)
    t = np.arange(3, dtype=float)
    temps = np.array([290.0, 300.0, 310.0])
    p_fac = ts.TimeSeries("P_fac", "W", t, np.full(3, 100.0))
    temp = ts.TimeSeries("T", "K", t, temps)
    res = env.compute_envelope(
        params(eta_elec=(0.9, 0.9), eta_use=(0.8, 0.8)), P_fac=p_fac,
        T=temp, B_io=ts.TimeSeries("B_io", "bit/s", t, np.full(3, 1e30)),
        B_mem=ts.TimeSeries("B_mem", "bit/s", t, np.full(3, 1e30)),
        cop_model={"T_hot": 350.0, "zeta_cop": 0.5})
    assert res.warnings == []
    for i, T in enumerate(temps):
        cop = mpmath.mpf(0.5) * T / (350 - mpmath.mpf(T))
        p_use = mpmath.mpf(0.8) * mpmath.mpf(0.9) * 100 * cop / (1 + cop)
        assert res.phi_pt.values[i] == pytest.approx(
            float(landauer_rate(p_use, mpmath.mpf(T))), rel=1e-12)


def test_compute_envelope_io_channel_binds_where_it_is_lowest():
    # sigma_eff * B_io against phi_PT = 10 W / (k_B 300 K ln 2) = 2.41e21
    t = np.arange(4, dtype=float)
    b_io = np.array([1e21, 1e22, 2e21, 5e21])
    res = env.compute_envelope(
        params(sigma_eff=2.0), P_use=ts.TimeSeries("P_use", "W", t,
                                                   np.full(4, 10.0)),
        T=ts.TimeSeries("T", "K", t, np.full(4, 300.0)),
        B_io=ts.TimeSeries("B_io", "bit/s", t, b_io, None, "io01"),
        B_mem=ts.TimeSeries("B_mem", "bit/s", t, np.full(4, 1e30)))
    pt = 2.0 * float(landauer_rate(mpmath.mpf(10), mpmath.mpf(300)))
    assert res.phi_io.unit == "nat/s" and res.phi_io.snapshot_version == "io01"
    assert np.array_equal(res.phi_io.values, 2.0 * b_io)
    assert res.binding == ["io-limited", "pt-limited", "io-limited",
                           "pt-limited"]
    np.testing.assert_allclose(res.phi_svc.values,
                               [2e21, pt, 4e21, pt], rtol=1e-12)


def test_units_chain_audit():
    # symbolic unit bookkeeping: both envelope channels must land on nat/s
    def mul(a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
            if out[k] == 0:
                del out[k]
        return out

    def inv(a):
        return {k: -v for k, v in a.items()}

    nat_per_bit = {"nat": 1, "bit": -1}          # sigma_eff
    bit_per_s = {"bit": 1, "s": -1}              # B_io, B_mem
    watt = {"J": 1, "s": -1}                     # P_use
    landauer = {"J": 1, "K": -1, "bit": -1}      # k_B ln2: joules per kelvin-bit
    kelvin = {"K": 1}                            # T

    # bandwidth channel: sigma_eff * B
    assert mul(nat_per_bit, bit_per_s) == {"nat": 1, "s": -1}

    # erasure channel: P_use / (k_B ln2 * T) is bit/s ...
    erasure_rate = mul(watt, inv(mul(landauer, kelvin)))
    assert erasure_rate == {"bit": 1, "s": -1}
    # ... and sigma_eff converts it to nat/s
    assert mul(nat_per_bit, erasure_rate) == {"nat": 1, "s": -1}
