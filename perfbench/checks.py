"""Output checks behind the benchmark's failure count.

Each check compares a run's output against the ground truth recorded with
its fixture or against an analytic condition, never against a stored
output of an earlier build.  Every function returns a list of failure
messages; an empty list means the operation passed.
"""

from __future__ import annotations

import json
import os

import numpy as np

from fixtures import VERDICT_EXIT

KKT_TOL = 1e-9


def check_certify(code: int, cert_bytes: bytes | None, truth: dict,
                  reference: bytes | None) -> list[str]:
    """Exit code against verdict, verdict against the fixture's regime, and
    byte-identity with the first certificate of the same input."""
    if cert_bytes is None:
        return [f"no certificate written (exit {code})"]
    try:
        verdict = json.loads(cert_bytes)["verdict"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable certificate: {exc}"]
    failures = []
    if VERDICT_EXIT.get(verdict) != code:
        failures.append(f"exit {code} does not match verdict {verdict!r}")
    if verdict == truth["forbidden_verdict"]:
        failures.append(f"{truth['regime']} fixture certified {verdict!r}")
    if reference is not None and cert_bytes != reference:
        failures.append("certificate differs from the first run on this input")
    return failures


def check_control(code: int, out_dir: str, truth: dict) -> list[str]:
    """Run completed, every step logged, exact-state invariance held."""
    if code != 0:
        return [f"control-sim exited {code}"]
    try:
        with open(os.path.join(out_dir, "control_summary.json"),
                  encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(out_dir, "control_log.jsonl"),
                  encoding="utf-8") as fh:
            logged = sum(1 for _ in fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable control output: {exc}"]
    failures = []
    if summary.get("final_status") != "completed":
        failures.append(f"final status {summary.get('final_status')!r}")
    if summary.get("n_steps") != truth["n_steps"] or logged != truth["n_steps"]:
        failures.append(f"{logged} steps logged, {summary.get('n_steps')} "
                        f"reported, {truth['n_steps']} configured")
    if not summary.get("max_overshoot", float("inf")) <= truth["max_overshoot_le"]:
        failures.append(f"max overshoot {summary.get('max_overshoot')!r} above "
                        f"{truth['max_overshoot_le']}")
    return failures


def check_qp_kkt(u_ref, lo, hi, a, b, rho, result) -> list[str]:
    """KKT conditions of min 0.5|u - u_ref|^2 + rho z^2 s.t. a.u <= b + z,
    z >= 0, lo <= u <= hi, with the barrier multiplier recovered from the
    slack as lam = 2 rho z (stationarity in z)."""
    u = np.asarray(result.u_star, dtype=float)
    z = float(result.slack)
    lam = 2.0 * rho * z
    scale = 1.0 + float(np.abs(a).sum())
    failures = []
    if z < 0.0:
        failures.append(f"negative slack {z!r}")
    if np.any(u < lo - KKT_TOL) or np.any(u > hi + KKT_TOL):
        failures.append("u outside its box")
    residual = float(a @ u) - b - z
    if residual > KKT_TOL * scale:
        failures.append(f"barrier row violated by {residual!r}")
    if lam > 0.0 and abs(residual) > KKT_TOL * scale:
        failures.append(f"complementarity: lam {lam!r} with gap {residual!r}")
    # stationarity in u: each channel is the box projection of u_ref - lam*a
    u_kkt = np.clip(u_ref - lam * a, lo, hi)
    if np.max(np.abs(u - u_kkt)) > KKT_TOL * scale:
        failures.append("u is not the box projection of u_ref - lam*a")
    return failures
