"""Pipeline orchestration: ingest, envelope, estimate, certify, simulate,
control-sim, report.

Every command is driven by a JSON config, writes deterministic artifacts
(identical inputs, config, and seed produce byte-identical outputs), and
reports numbers together with their units and source snapshot versions.
Exit codes: 0 for a nonsingular certificate or a completed run, 2 for
singular-admissible, 3 for inconclusive, 1 for any operational error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import capability as cap
from . import certify as ct
from . import dynamics as dyn
from . import envelopes as env
from . import estimate as est
from . import series as ts
from .errors import ToolkitError
from . import safectl as sc

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SINGULAR = 2
EXIT_INCONCLUSIVE = 3

def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, (int, float))
                              else str(x) for x in row) + "\n")


def _load_series(path, expected_unit=None) -> ts.TimeSeries:
    path = str(path)
    if path.endswith(".json"):
        s = ts.read_json(path)
        if expected_unit is not None and s.unit != expected_unit:
            raise ts.UnitMismatch(
                f"{path}: unit {s.unit!r}, expected {expected_unit!r}")
        return s
    return ts.ingest_csv(path, expected_unit)


def _phi_from_config(d: dict) -> dyn.PhiSpec:
    kind = d["kind"]
    if kind == "power":
        return dyn.PhiSpec.power(d["p"], d.get("c", 1.0),
                                 d.get("domain_floor"))
    if kind == "power_log":
        return dyn.PhiSpec.power_log(d["p"], d.get("c", 1.0),
                                     d.get("domain_floor", math.e))
    if kind == "tabulated":
        return dyn.PhiSpec.tabulated(d["grid"], d["values"])
    raise ToolkitError(f"unknown state-factor kind {kind!r}")


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args) -> int:
    manifest = _load_json(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    entries = manifest["files"]

    def one(entry):
        s = _load_series(entry["path"], entry.get("unit"))
        if "name" in entry:
            s = s.replace(name=entry["name"])
        return entry["path"], s

    failures = []
    results = []
    for entry in entries:
        try:
            results.append(one(entry))
        except ToolkitError as exc:
            failures.append((entry["path"], str(exc)))

    if failures:
        for path, msg in failures:
            print(f"error: {path}: {msg}", file=sys.stderr)
        return EXIT_ERROR

    summary = []
    for path, s in sorted(results, key=lambda r: r[1].name):
        ts.write_json(s, os.path.join(out_dir, f"{s.name}.json"))
        summary.append({"path": path, "name": s.name, "unit": s.unit,
                        "snapshot_version": s.snapshot_version,
                        "n_samples": len(s)})
    _dump_json({"files": summary}, os.path.join(out_dir, "ingest_manifest.json"))
    print(f"ingested {len(summary)} series into {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# envelope


def cmd_envelope(args) -> int:
    cfg = _load_json(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    params = env.EnvelopeParams.from_json_dict(cfg["params"])
    roles = cfg["series"]

    def load_role(role, unit=None):
        if role not in roles:
            return None
        return _load_series(roles[role], unit)

    result = env.compute_envelope(
        params,
        P_fac=load_role("P_fac", "W"),
        T=load_role("T", "K"),
        B_io=load_role("B_io", "bit/s"),
        B_mem=load_role("B_mem", "bit/s"),
        P_use=load_role("P_use", "W"),
        cop=load_role("COP"),
        cop_model=cfg.get("cop_model"),
        hard_cap_b_mem=cfg.get("hard_cap_b_mem"),
        hard_cap_p_use=cfg.get("hard_cap_p_use"),
        rel_errors=cfg.get("rel_errors"),
        alpha=cfg.get("alpha", 0.05))

    _dump_json(result.to_json_dict(), os.path.join(out_dir, "envelope.json"))
    rows = zip(result.phi_svc.t, result.phi_pt.values, result.phi_svc.values,
               result.binding)
    _write_csv(os.path.join(out_dir, "envelope.csv"),
               ["t", "phi_pt_nat_per_s", "phi_svc_nat_per_s", "binding"], rows)
    print(f"static cap phi_pt_bar = {result.phi_pt_bar.value:.6e} nat/s "
          f"(sigma_eff = {params.sigma_eff} nat/bit, "
          f"snapshot {result.phi_svc.snapshot_version or 'n/a'})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _capability_from_config(cfg: dict):
    """Build (I, Idot, snapshot map) from loss series or a direct series."""
    snapshots = {}
    if "losses" in cfg["series"]:
        bench = cfg["benchmark"]
        spec = cap.BenchmarkSpec.from_json_dict(
            bench if isinstance(bench, dict) else _load_json(bench))
        losses = []
        for entry in cfg["series"]["losses"]:
            s = _load_series(entry["path"])
            losses.append(s.replace(name=entry.get("task", s.name)))
            snapshots[f"loss:{losses[-1].name}"] = losses[-1].snapshot_version
        itilde = cap.loss_index(losses, spec)
        series_cap = cap.canonicalize(itilde, spec)
        return series_cap.I, series_cap.Idot, snapshots
    i_series = _load_series(cfg["series"]["capability"], "nat")
    snapshots["capability"] = i_series.snapshot_version
    if "capability_rate" in cfg["series"]:
        idot = _load_series(cfg["series"]["capability_rate"], "nat/s")
    else:
        dt, rate = cap._finite_difference_rate(i_series.t, i_series.values)
        idot = ts.TimeSeries("capability_rate", "nat/s", dt, rate, None,
                             i_series.snapshot_version)
    return i_series, idot, snapshots


def cmd_estimate(args) -> int:
    cfg = _load_json(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    est_cfg = cfg.get("estimation", {})
    window = float(args.window or est_cfg.get("window"))
    alpha = float(args.alpha or est_cfg.get("alpha", 0.05))
    lag = est_cfg.get("lag", "auto")

    i_series, idot, snapshots = _capability_from_config(cfg)
    prof = est.rolling_elasticity(i_series, idot, window, lag=lag,
                                  alpha=alpha)
    segs = est.segment_profile(prof, trim=est_cfg.get("trim", 0.15))

    _dump_json({
        "alpha": alpha,
        "window_seconds": window,
        "estimates": [e.to_json_dict() for e in prof.estimates],
        "gaps": [{"t": t, "reason": r} for t, r in prof.gaps],
        "breaks": segs.to_json_dict(),
        "snapshot_versions": snapshots,
    }, os.path.join(out_dir, "elasticity.json"))
    _write_csv(os.path.join(out_dir, "elasticity.csv"),
               ["t", "p_hat", "se", "ci_lo", "ci_hi"],
               [(e.t, e.value, e.se, e.ci[0], e.ci[1])
                for e in prof.estimates])
    print(f"{len(prof.estimates)} elasticity windows, "
          f"{len(segs.breakpoints)} break(s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def _fit_state_factor(i_vals, rate_over_svc):
    """Least-squares power-law fit of the state factor from rate/service
    samples (log-log)."""
    mask = (i_vals > 0) & (rate_over_svc > 0)
    lx = np.log(i_vals[mask])
    ly = np.log(rate_over_svc[mask])
    slope, intercept, _, _ = ts.wls_slope(lx, ly, np.ones_like(lx))
    return dyn.PhiSpec.power(max(slope, 0.0), math.exp(intercept))


def _positive_pairs(i_series, idot):
    """(I, Idot) sample pairs joined on their shared timestamps, kept where
    both are positive."""
    _, ii, ri = np.intersect1d(i_series.t, idot.t, return_indices=True)
    i_on, rate_on = i_series.values[ii], idot.values[ri]
    pos = (rate_on > 0) & (i_on > 0)
    return i_on[pos], rate_on[pos]


def _segment_ptots(prof: est.RollingElasticity, segs, effs, upsilons):
    """Per-segment elasticity bounds from the rolling profile.

    The direct feedback elasticity already reflects realized resource
    co-movement, so the profile's infimum/supremum are the primary bounds;
    configured resource contributions are stacked on top only when capital
    elasticities were measured (conservative double-counting bias is
    documented in the report)."""
    t, values, ses = prof.t, prof.values, prof.ses
    res_minus, res_plus, var_minus, var_plus = ct.resource_terms(effs,
                                                                 upsilons)
    out = []
    # segments start at profile timestamps, so none is empty
    for start, stop in np.searchsorted(t, segs.segments):
        lo = start + int(np.argmin(values[start:stop]))
        hi = start + int(np.argmax(values[start:stop]))
        comp_minus = {"p_hat_inf": float(values[lo]), **res_minus}
        comp_plus = {"p_hat_sup": float(values[hi]), **res_plus}
        out.append(ct.PtotEstimate(
            minus=float(sum(comp_minus.values())),
            plus=float(sum(comp_plus.values())),
            se_minus=math.hypot(ses[lo], math.sqrt(var_minus)),
            se_plus=math.hypot(ses[hi], math.sqrt(var_plus)),
            components_minus=comp_minus,
            components_plus=comp_plus))
    return out


def _measured_upsilons(cfg, window) -> dict[str, ct.UpsilonBand]:
    """Capital elasticities of any resource series present in the config."""
    roles = cfg["series"]
    if "K" not in roles:
        return {}
    K = _load_series(roles["K"])
    out = {}
    for name, role in (("C", "C"), ("D", "D_eff"), ("E", "E")):
        if role not in roles:
            continue
        x = _load_series(roles[role])
        profile = ts.elasticity(x, K, window)
        out[name] = ct.UpsilonBand(float(profile.slope.min()),
                                   float(profile.slope.max()),
                                   float(profile.se[np.argmin(profile.slope)]),
                                   float(profile.se[np.argmax(profile.slope)]))
    return out


def cmd_certify(args) -> int:
    cfg = _load_json(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    est_cfg = cfg.get("estimation", {})
    cert_cfg = cfg.get("certify", {})
    window = float(args.window or est_cfg.get("window"))
    alpha = float(args.alpha or cert_cfg.get("alpha", 0.05))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))

    i_series, idot, snapshots = _capability_from_config(cfg)
    if len(idot) == 0 or len(i_series) < 5:
        print("error: empty data window", file=sys.stderr)
        return EXIT_ERROR

    # rolling elasticity and regime segmentation
    prof = est.rolling_elasticity(i_series, idot, window,
                                  lag=est_cfg.get("lag", "auto"), alpha=alpha)
    segs = est.segment_profile(prof, trim=est_cfg.get("trim", 0.15))

    # optional envelope layer
    envelope_result = None
    envelope_check_res = None
    phi_spec = None
    roles = cfg["series"]
    if cfg.get("envelope_params") and "T" in roles:
        params = env.EnvelopeParams.from_json_dict(cfg["envelope_params"])
        envelope_result = env.compute_envelope(
            params,
            P_fac=_load_series(roles["P_fac"], "W") if "P_fac" in roles else None,
            T=_load_series(roles["T"], "K"),
            B_io=_load_series(roles["B_io"], "bit/s") if "B_io" in roles else None,
            B_mem=_load_series(roles["B_mem"], "bit/s") if "B_mem" in roles else None,
            P_use=_load_series(roles["P_use"], "W") if "P_use" in roles else None,
            cop_model=cfg.get("cop_model"),
            rel_errors=cfg.get("rel_errors"), alpha=alpha)
        svc = envelope_result.phi_svc
        common, ii, si = np.intersect1d(idot.t, svc.t, return_indices=True)
        idot_on = ts.TimeSeries("Idot", "nat/s", common, idot.values[ii],
                                None, idot.snapshot_version)
        svc_on = ts.TimeSeries("phi_svc", "nat/s", common, svc.values[si],
                               None, svc.snapshot_version)
        i_on = np.interp(common, i_series.t, i_series.values)
        if cfg.get("phi"):
            phi_spec = _phi_from_config(cfg["phi"])
        else:
            with np.errstate(divide="ignore"):
                phi_spec = _fit_state_factor(i_on, idot_on.values / svc_on.values)
        phi_of_i = ts.TimeSeries("Phi_of_I", "nat", common,
                                 phi_spec(np.maximum(i_on, phi_spec.domain_floor)),
                                 None, i_series.snapshot_version)
        envelope_check_res = ct.envelope_check(
            idot_on, phi_of_i, svc_on,
            small_gain=cert_cfg.get("small_gain", 0.0),
            tol=cert_cfg.get("envelope_tol", 0.05))
        snapshots["phi_svc"] = svc.snapshot_version
    elif cfg.get("phi"):
        phi_spec = _phi_from_config(cfg["phi"])

    # reciprocal-integral classification of the state factor
    if phi_spec is not None:
        floor = max(phi_spec.domain_floor,
                    float(np.min(i_series.values[i_series.values > 0],
                                 initial=1.0)))
        osgood = dyn.osgood_classify(phi_spec, max(floor, 1e-12))
    else:
        # no envelope layer: classify the fitted direct feedback law
        # dI/dt <= a0 * I^p with p the profile supremum and a0 the tightest
        # gain covering every sample
        sup_p = float(prof.values.max())
        i_on, rate_on = _positive_pairs(i_series, idot)
        if sup_p <= 1.0 or not i_on.size:
            osgood = dyn.OsgoodResult(True, math.inf, sup_p)
        else:
            a0_fit = float(np.max(rate_on / i_on ** sup_p))
            osgood = dyn.osgood_classify(dyn.PhiSpec.power(sup_p, a0_fit),
                                         float(i_on.min()))

    # per-segment totals
    effs = None
    upsilons = {}
    if cfg.get("exponents"):
        e = cfg["exponents"]
        effs = ct.effective_exponents(e["alpha"], e["beta"], e["gamma"],
                                      e["alpha_tilde"], e["rho"], e["r"],
                                      e["chi_hat"])
        upsilons = _measured_upsilons(cfg, window)
    else:
        effs = ct.effective_exponents(0, 0, 0, 0, rho=0.0, r=1.0, chi_hat=0.0)
    ptots = _segment_ptots(prof, segs, effs, upsilons)

    # optional capital channel and region classification
    capital_T = None
    region_note = None
    if cfg.get("capital"):
        c = cfg["capital"]
        params_k = dyn.CapitalParams(c["K0"], c["r"], c["zeta"],
                                     c.get("delta", 0.0))
        capital_T = params_k.escape_time()
        flags = cfg.get("flags", {})
        try:
            region = dyn.classify_region(
                params_k.zeta, max(p.plus for p in ptots),
                capped_power=flags.get("capped_power", False),
                logistic=flags.get("logistic_data", False),
                baseline_effort_floor=flags.get("effort_floor", False),
                capital=params_k)
            region_note = (f"region {region.region}: {region.conclusion}"
                           + (f", T_K={region.bound!r}" if region.bound
                              is not None else ""))
        except ToolkitError as exc:
            region_note = f"region classification unavailable: {exc}"

    # event-level bound for a singular verdict
    event_bound = None
    worst_minus = max(ptots, key=lambda p: p.minus)
    if worst_minus.minus > 1.0:
        delta = worst_minus.minus - 1.0
        i_on, rate_on = _positive_pairs(i_series, idot)
        a0 = float(np.min(rate_on / i_on ** (1.0 + delta)))
        event_bound = ct.event_blowup_bound(float(i_on[-1]), delta, a0)

    extra_margins = {}
    if cert_cfg.get("grad_norm"):
        extra_margins["manifold_distance"] = ct.manifold_distance(
            max(p.plus for p in ptots), cert_cfg["grad_norm"])
    if cert_cfg.get("wasserstein"):
        w = cert_cfg["wasserstein"]
        dm = ct.distribution_margin(max(p.plus for p in ptots), w["gamma"],
                                    w["L_xi"], w["L_rho"], w["delta_W"],
                                    w.get("safety_delta", 0.1))
        extra_margins["wasserstein_margin"] = 1.0 - w.get("safety_delta", 0.1) \
            - dm.worst_case_ptot

    config_echo = {"config_path": str(args.config), "seed": seed,
                   "window": window, "alpha": alpha,
                   "sigma_eff": cfg.get("envelope_params", {}).get(
                       "sigma_eff", 1.0) if cfg.get("envelope_params") else None,
                   "certify": cert_cfg, "estimation": est_cfg}
    if region_note:
        config_echo["region"] = region_note

    certificate = ct.decide(
        ptots, envelope_check_res, osgood, segs, alpha=alpha,
        nonbinding_slack=cert_cfg.get("nonbinding_slack", ct.NONBINDING_SLACK),
        nonbinding_fraction=cert_cfg.get("nonbinding_fraction",
                                         ct.NONBINDING_FRACTION),
        event_bound=event_bound, capital_escape_time=capital_T,
        extra_margins=extra_margins, config_echo=config_echo,
        snapshot_versions=snapshots)

    cert_path = os.path.join(out_dir, "certificate.json")
    with open(cert_path, "w", encoding="utf-8") as fh:
        fh.write(certificate.to_json())
        fh.write("\n")

    _write_csv(os.path.join(out_dir, "elasticity.csv"),
               ["t", "p_hat", "se", "ci_lo", "ci_hi"],
               [(e.t, e.value, e.se, e.ci[0], e.ci[1])
                for e in prof.estimates])
    if envelope_check_res is not None:
        _write_csv(os.path.join(out_dir, "envelope_slack.csv"),
                   ["t", "slack_fraction", "passed"],
                   [(t, s, int(p)) for t, s, p in
                    zip(envelope_check_res.t, envelope_check_res.slack,
                        envelope_check_res.passed)])
    _write_csv(os.path.join(out_dir, "segments.csv"),
               ["t_start", "t_end", "ptot_minus", "ptot_plus"],
               [(r.t_start, r.t_end, r.ptot.minus, r.ptot.plus)
                for r in certificate.segments])

    report = render_report(certificate)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report)
    print(report)

    return {ct.VERDICT_NONSINGULAR: EXIT_OK,
            ct.VERDICT_SINGULAR: EXIT_SINGULAR,
            ct.VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE}[certificate.verdict]


def render_report(cert: ct.Certificate) -> str:
    lines = ["=" * 64,
             f"REGIME CERTIFICATE: {cert.verdict}",
             "=" * 64]
    lines.append(f"segments analyzed: {len(cert.segments)}")
    for i, r in enumerate(cert.segments):
        lines.append(
            f"  [{i}] t in [{r.t_start:.6g}, {r.t_end:.6g}): "
            f"p_tot in [{r.ptot.minus:.4f}, {r.ptot.plus:.4f}] "
            f"(se {r.ptot.se_minus:.4f}/{r.ptot.se_plus:.4f}), "
            f"superlinearity {r.super_test_minus.label}, "
            f"envelope pass {r.envelope_pass_fraction:.3f}"
            + (" [disabled]" if r.envelope_disabled else ""))
    lines.append(f"envelope pass fraction: {cert.envelope_pass_fraction:.4f}")
    lines.append("state-factor reciprocal integral divergent: "
                 f"{cert.osgood_divergent}")
    for name, value in sorted(cert.margins.items()):
        shown = "not evaluated" if value is None else f"{value:.6g}"
        lines.append(f"margin {name}: {shown}")
    if cert.event_bound is not None:
        lines.append(f"event blow-up bound T_hat: {cert.event_bound:.6g} s")
    if cert.capital_escape_time is not None:
        lines.append(f"capital escape time T_K: {cert.capital_escape_time!r} s")
    if cert.data_snapshot_versions:
        lines.append("data snapshots: " + ", ".join(
            f"{k}={v}" for k, v in sorted(cert.data_snapshot_versions.items())))
    for note in cert.notes:
        lines.append(f"note: {note}")
    if cert.config_echo:
        lines.append("config echo: " + json.dumps(cert.config_echo,
                                                  sort_keys=True))
    lines.append("=" * 64)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simulate / control-sim


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    if "phi" not in cfg:
        print("error: scenario missing key 'phi'", file=sys.stderr)
        return EXIT_ERROR
    for key in cfg:
        if key not in {"phi", "gain", "I0", "horizon", "threshold", "rtol",
                       "capital", "name"}:
            print(f"error: unknown scenario key {key!r}", file=sys.stderr)
            return EXIT_ERROR
    phi = _phi_from_config(cfg["phi"])
    res = dyn.integrate(dyn.envelope_rhs(phi, cfg.get("gain", 1.0)),
                        cfg["I0"], cfg["horizon"],
                        blowup_threshold=cfg.get("threshold"),
                        rtol=cfg.get("rtol", 1e-8))
    if args.format == "json":
        traj = ts.TimeSeries(cfg.get("name", "trajectory"), "nat",
                             res.t, res.I)
        ts.write_json(traj, os.path.join(out_dir, "trajectory.json"))
    else:
        _write_csv(os.path.join(out_dir, "trajectory.csv"), ["t", "I"],
                   zip(res.t, res.I))
    _dump_json({"status": res.status, "t_star": res.t_star,
                "n_steps": res.n_steps, "final_I": float(res.I[-1]),
                "final_t": float(res.t[-1])},
               os.path.join(out_dir, "simulation.json"))
    print(f"simulation {res.status}"
          + (f" at t* = {res.t_star:.9g} s" if res.t_star else ""))
    return EXIT_OK


def cmd_control_sim(args) -> int:
    cfg = _load_json(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    plant = cfg["plant"]
    control = cfg["control"]
    scenario = sc.PlantScenario(
        phi=_phi_from_config(plant["phi"]), I0=plant["I0"],
        phi_svc_true=plant.get("phi_svc_true", 1.0),
        phi_svc_meas=plant.get("phi_svc_meas"),
        n_steps=plant.get("n_steps", 100),
        u_ref=plant.get("u_ref", 1.0),
        state_error=plant.get("state_error", 0.0),
        latency=plant.get("latency", 0.0),
        benchmark_every=plant.get("benchmark_every", 0),
        antagonism=tuple(plant.get("antagonism", (0.0, 0.0))),
        ptot_hat=plant.get("ptot_hat"),
        osgood_ok=plant.get("osgood_ok", True))
    config = sc.ControlConfig(
        I_bar=control["I_bar"], kappa=control["kappa"],
        Delta=control["Delta"], tau_bar=control.get("tau_bar", 0.0),
        L_h=control.get("L_h", 0.0), eps_I=control.get("eps_I", 0.0),
        r_u=tuple(control.get("r_u", [math.inf])),
        u_box=tuple(tuple(b) for b in control.get("u_box", [[0.0, 1.0]])),
        slack_weight=control.get("slack_weight", 1e6))
    policy = sc.PolicyThresholds(
        governance_delta=cfg.get("policy", {}).get("governance_delta", 0.1),
        escalate_consecutive_slack=cfg.get("policy", {}).get(
            "escalate_consecutive_slack", 3),
        antagonism_theta=cfg.get("policy", {}).get("antagonism_theta", 0.5))
    log = sc.supervise(scenario, config, policy)
    log.write_jsonl(os.path.join(out_dir, "control_log.jsonl"))
    _dump_json({"final_status": log.final_status,
                "max_overshoot": log.max_overshoot,
                "max_violation_rate": log.max_violation_rate,
                "n_steps": len(log.steps)},
               os.path.join(out_dir, "control_summary.json"))
    print(f"control loop {log.final_status}; max overshoot "
          f"{log.max_overshoot:.3e} nat")
    return EXIT_OK


def cmd_report(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cert = ct.Certificate.from_json(fh.read())
    text = render_report(cert)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsi-certify",
        description="Certify growth regimes from telemetry: elasticities, "
                    "service envelopes, blow-up analytics, and barrier "
                    "throttling simulations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
            ("ingest", cmd_ingest, "validate and store telemetry series"),
            ("envelope", cmd_envelope, "compute service-rate ceilings"),
            ("estimate", cmd_estimate, "rolling elasticities and breaks"),
            ("certify", cmd_certify, "full certification pipeline"),
            ("simulate", cmd_simulate, "integrate a growth scenario"),
            ("control-sim", cmd_control_sim, "closed-loop throttling run"),
            ("report", cmd_report, "render a certificate as text")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--window", type=float, default=None)
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="trajectory output format (simulate)")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
