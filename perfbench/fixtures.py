"""Deterministic synthetic inputs for the benchmark workloads.

Every fixture is a directory holding the files the CLI reads (telemetry
CSV, series JSON, a pipeline or control config) and a ``truth.json`` that
records the law the data were drawn from and what a correct run may
output.  The same seed always writes byte-identical files.

Noise is kept at the levels stated below on purpose: the spurious-break
behaviour of the segmentation is part of what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

K_B = 1.380649e-23          # J/K, the value the program pins
EPOCH = 1.7e9               # timestamps are epoch seconds
HOUR = 3600.0

# raw-index law of the subcritical fixtures: dG/dt = C_TRUE * G**P_SUB
P_SUB = 0.8
C_TRUE = 1.0 / HOUR         # nat/s at G = 1
G_START, G_END = 10.0, 40.0
LOG_NOISE = 1e-3            # std of the multiplicative noise on losses and I
TASKS = (("t0", 0.4, 0.05), ("t1", 0.3, 0.1), ("t2", 0.2, 0.02),
         ("t3", 0.1, 0.2))  # (id, weight, floor)
PHI_C = 3.0                 # amplitude of the certified state factor
SVC_LEVEL = 1.25 * C_TRUE   # usable-power ceiling phi_PT in nat/s

# superlinear fixture: I = 1/(1 - t/HOUR), i.e. dI/dt = I**2 / HOUR
SUPER_SPAN = 0.9 * HOUR

# closed-loop plant of the control workloads
CONTROL_P, CONTROL_C = 2.0, 2.0
CONTROL_I_BAR, CONTROL_KAPPA, CONTROL_DELTA = 10.0, 1.0, 0.02
CONTROL_SLACK_WEIGHT = 1e14
OVERSHOOT_TOL = 1e-9

VERDICT_EXIT = {"nonsingular-certified": 0, "singular-admissible": 2,
                "inconclusive": 3}


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, fixture index)."""
    return np.random.default_rng([seed, *stream])


def _write_csv(path, t, values, unit):
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), values.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# unit={unit}\nt,value\n{rows}")


def _write_series_json(path, name, t, values, unit):
    samples = [{"t": a, "value": b} for a, b in zip(t.tolist(), values.tolist())]
    body = json.dumps(samples, sort_keys=True)
    doc = {"name": name, "unit": unit, "samples": samples,
           "snapshot_version": hashlib.sha256(body.encode()).hexdigest()[:16]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def subcritical_raw_index(t_rel: np.ndarray) -> np.ndarray:
    """Exact solution of dG/dt = C_TRUE * G**P_SUB from G(0) = G_START."""
    q = 1.0 - P_SUB
    return (G_START ** q + q * C_TRUE * t_rel) ** (1.0 / q)


def subcritical_span() -> float:
    q = 1.0 - P_SUB
    return (G_END ** q - G_START ** q) / (q * C_TRUE)


def write_subcritical(path, rng, n, full_envelope, capital_exponents):
    """Loss-path fixture whose raw index obeys dG/dt = G**0.8 / HOUR.

    Four task losses carry log-noise LOG_NOISE.  The canonical index pins
    I(t_ref = first sample) = 0, so I = G - G_START and the rate obeys
    Idot = C_TRUE * (I + G_START)**0.8: subcritical everywhere.  The
    certified state factor PHI_C * max(I, G_START)**0.8 times the power
    ceiling SVC_LEVEL covers the true rate by a factor >= 2.1.
    """
    os.makedirs(path, exist_ok=True)
    span = subcritical_span()
    t_rel = np.linspace(0.0, span, n)
    t = EPOCH + t_rel
    g = subcritical_raw_index(t_rel)
    series = {}
    losses = []
    for task_id, _, floor in TASKS:
        loss = floor * np.exp(G_END + 0.01 - g + rng.normal(0.0, LOG_NOISE, n))
        name = f"loss_{task_id}.csv"
        _write_csv(os.path.join(path, name), t, loss, "loss")
        losses.append({"task": task_id, "path": os.path.join(path, name)})
    series["losses"] = losses

    temp = 300.0 * np.exp(rng.normal(0.0, 1e-4, n))
    # P_use tracks T so that phi_PT = P_use / (k_B T ln 2) stays at SVC_LEVEL
    p_use = SVC_LEVEL * K_B * math.log(2.0) * temp
    roles = {"T": (temp, "K"), "P_use": (p_use, "W")}
    if full_envelope:
        roles["B_io"] = (2.0 * SVC_LEVEL * np.exp(rng.normal(0.0, 1e-4, n)),
                         "bit/s")
        roles["B_mem"] = (3.0 * SVC_LEVEL * np.exp(rng.normal(0.0, 1e-4, n)),
                          "bit/s")
    if capital_exponents:
        log_k = 3.0 * t_rel / span
        roles["K"] = (np.exp(log_k + rng.normal(0.0, LOG_NOISE, n)), "USD")
        roles["C"] = (np.exp(0.5 * log_k + rng.normal(0.0, LOG_NOISE, n)),
                      "FLOP/s")
    for role, (values, unit) in roles.items():
        name = f"{role.lower()}.csv"
        _write_csv(os.path.join(path, name), t, values, unit)
        series[role] = os.path.join(path, name)

    cfg = {
        "seed": 0,
        "series": series,
        "benchmark": {"tasks": [{"id": i, "weight": w, "floor": f}
                                for i, w, f in TASKS],
                      "t_ref": float(t[0])},
        "envelope_params": {"P_max": 1e-18, "T_range": [299.0, 301.0],
                            "cop_range": [1e9, 1e9], "sigma_eff": 1.0},
        "phi": {"kind": "power", "p": P_SUB, "c": PHI_C,
                "domain_floor": G_START},
        "estimation": {"window": span / 9.0, "lag": "auto", "alpha": 0.05},
        "certify": {"alpha": 0.05, "envelope_tol": 0.05},
        "flags": {"capped_power": True},
    }
    if capital_exponents:
        # alpha_eff = 0.05 on an elasticity of C to K of 0.5
        cfg["exponents"] = {"alpha": 0.1, "beta": 0.0, "gamma": 0.0,
                            "alpha_tilde": 0.0, "rho": 0.5, "r": 1.0,
                            "chi_hat": 0.1}
    _write_json(os.path.join(path, "config.json"), cfg)
    truth = {"kind": "certify", "regime": "subcritical", "n": n,
             "law": f"dG/dt = {C_TRUE!r} * G**{P_SUB}, G(0) = {G_START}",
             "p": P_SUB, "forbidden_verdict": "singular-admissible"}
    _write_json(os.path.join(path, "truth.json"), truth)
    return path


def write_superlinear(path, rng, n):
    """Capability-JSON fixture on I = 1/(1 - t/HOUR): dI/dt = I**2/HOUR,
    p = 2, with log-noise LOG_NOISE and a capital channel escaping at
    T_K = 1 s.  No envelope series, so the Osgood fallback and the event
    bound both run."""
    os.makedirs(path, exist_ok=True)
    t_rel = np.linspace(0.0, SUPER_SPAN, n)
    i_vals = np.exp(rng.normal(0.0, LOG_NOISE, n)) / (1.0 - t_rel / HOUR)
    cap_path = os.path.join(path, "capability.json")
    _write_series_json(cap_path, "capability", EPOCH + t_rel, i_vals, "nat")
    cfg = {
        "seed": 0,
        "series": {"capability": cap_path},
        "estimation": {"window": SUPER_SPAN / 9.0, "alpha": 0.05},
        "certify": {"alpha": 0.05},
        "capital": {"K0": 1.0, "r": 2.0, "zeta": 2.0},
    }
    _write_json(os.path.join(path, "config.json"), cfg)
    truth = {"kind": "certify", "regime": "superlinear", "n": n,
             "law": "dI/dt = I**2 / 3600, I(0) = 1", "p": 2.0,
             "forbidden_verdict": "nonsingular-certified"}
    _write_json(os.path.join(path, "truth.json"), truth)
    return path


def write_control(path, rng, channels, n_steps):
    """control-sim config on Phi(I) = 2 I**2 with exact state; the initial
    state is drawn from the seed within the range where Delta stays at most
    a fifth of the plant's escape scale I0 / (kappa I_bar (p - 1))."""
    os.makedirs(path, exist_ok=True)
    i0 = 1.0 + 0.5 * float(rng.random())
    cfg = {
        "plant": {"phi": {"kind": "power", "p": CONTROL_P, "c": CONTROL_C},
                  "I0": i0, "n_steps": n_steps, "u_ref": 1.0},
        "control": {"I_bar": CONTROL_I_BAR, "kappa": CONTROL_KAPPA,
                    "Delta": CONTROL_DELTA,
                    "r_u": [math.inf] * channels,
                    "u_box": [[0.0, 1.0]] * channels,
                    "slack_weight": CONTROL_SLACK_WEIGHT},
    }
    with open(os.path.join(path, "config.json"), "w", encoding="utf-8") as fh:
        # r_u = inf is written as the JSON extension Infinity, which the
        # CLI's json.load accepts
        json.dump(cfg, fh, indent=2, sort_keys=True)
    truth = {"kind": "control", "n_steps": n_steps, "channels": channels,
             "max_overshoot_le": OVERSHOOT_TOL}
    _write_json(os.path.join(path, "truth.json"), truth)
    return path


# ---------------------------------------------------------------------------
# workloads

FLEET_SIZE = 30
FLEET_N = 500
SWEEP_NS = (500, 2000, 8000)


def build_workload(name, seed, root) -> list[str]:
    """Write the fixtures of one workload under ``root``; return their
    directories in the order the benchmark runs them."""
    if name == "certify-8k":
        return [write_subcritical(os.path.join(root, "w0"), rng_for(seed, 0),
                                  8000, full_envelope=True,
                                  capital_exponents=True)]
    if name == "certify-fleet":
        out = []
        for i in range(FLEET_SIZE):
            path = os.path.join(root, f"w{i}")
            if i % 2 == 0:
                out.append(write_subcritical(path, rng_for(seed, i), FLEET_N,
                                             full_envelope=False,
                                             capital_exponents=False))
            else:
                out.append(write_superlinear(path, rng_for(seed, i), FLEET_N))
        return out
    if name == "control-1ch":
        return [write_control(os.path.join(root, "w0"), rng_for(seed, 0),
                              1, 4000)]
    if name == "control-6ch":
        return [write_control(os.path.join(root, "w0"), rng_for(seed, 0),
                              6, 300)]
    raise ValueError(f"unknown workload {name!r}")


def build_sweep(seed, root) -> dict[int, str]:
    """certify-8k's generator at each sweep size, for the per-stage split."""
    return {n: write_subcritical(os.path.join(root, f"n{n}"),
                                 rng_for(seed, 1000 + n), n,
                                 full_envelope=True, capital_exponents=True)
            for n in SWEEP_NS}


WORKLOADS = ("certify-8k", "certify-fleet", "control-1ch", "control-6ch")
