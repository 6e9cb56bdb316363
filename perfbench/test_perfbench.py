"""Tests of the benchmark's own code: fixture determinism, the output
checks and the tracer's patching."""

import hashlib
import json
import os

import pytest

import checks
import fixtures
import rsi_certify
import worker
from tracer import Tracer, bindings


def _digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("workload", ["certify-fleet", "control-6ch"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    # paths inside configs are absolute, so every build uses the same root
    root = str(tmp_path / "w")
    digests = []
    for seed in (3, 3, 4):
        fixtures.build_workload(workload, seed, root)
        digests.append(_digest(root))
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                os.remove(os.path.join(dirpath, name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _subcritical(tmp_path):
    return fixtures.write_subcritical(
        str(tmp_path / "b"), fixtures.rng_for(0, 0), 500,
        full_envelope=False, capital_exponents=False)


def test_tampered_certificate_counts_as_failed(tmp_path, monkeypatch):
    runner = worker.Runner([_subcritical(tmp_path)])
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (1, 0)

    real_main = rsi_certify.cli.main

    def main_then_flip_verdict(argv):
        code = real_main(argv)
        path = os.path.join(argv[argv.index("--out") + 1], "certificate.json")
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
        cert["verdict"] = "singular-admissible"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        return code

    monkeypatch.setattr(rsi_certify.cli, "main", main_then_flip_verdict)
    runner.one_pass()
    assert (runner.attempted, runner.failed) == (2, 1)
    joined = " ".join(runner.messages)
    assert "does not match verdict" in joined
    assert "subcritical fixture certified" in joined
    assert "differs from the first run" in joined


def test_control_check_flags_overshoot(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "control_log.jsonl").write_text("{}\n" * 3)
    (out / "control_summary.json").write_text(json.dumps(
        {"final_status": "completed", "n_steps": 3, "max_overshoot": 1e-6}))
    truth = {"n_steps": 3, "max_overshoot_le": fixtures.OVERSHOOT_TOL}
    assert checks.check_control(0, str(out), truth) == [
        "max overshoot 1e-06 above 1e-09"]
    assert checks.check_control(0, str(out), {**truth, "n_steps": 4})


def test_qp_kkt_check_accepts_solver_and_rejects_perturbation():
    sc = rsi_certify.safectl
    for m in (1, 3):
        config = sc.ControlConfig(I_bar=1.0, kappa=1.0, Delta=1.0,
                                  r_u=(0.5,) * m, u_box=((0.0, 1.0),) * m,
                                  slack_weight=worker.QP_RHO)
        for u_ref, u_prev, a, b, lo, hi in worker.qp_instances(0, m, 5):
            res = sc.qp_step(u_ref, u_prev, a, b, config)
            assert res.barrier_active
            assert checks.check_qp_kkt(u_ref, lo, hi, a, b, worker.QP_RHO,
                                       res) == []
            bad = sc.QpResult(res.u_star - 1e-3 * a, res.slack, True,
                              res.objective)
            assert checks.check_qp_kkt(u_ref, lo, hi, a, b, worker.QP_RHO,
                                       bad)


def test_tracer_restores_originals_and_self_times_add_up(tmp_path):
    runner = worker.Runner([_subcritical(tmp_path)])
    originals = bindings(rsi_certify)
    tracer = Tracer(rsi_certify)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert bindings(rsi_certify) != originals
            runner.one_pass()
            1 / 0
    assert bindings(rsi_certify) == originals

    self_times = tracer.self_times()
    assert sum(self_times.values()) == pytest.approx(tracer.root_time(),
                                                     rel=1e-9)
    assert self_times["estimate.rolling_elasticity"] > 0
    assert tracer.counters["certify.decide.segments"] >= 1
    assert tracer.counters["series.ingest_csv.rows"] == 4 * 500 + 2 * 500
