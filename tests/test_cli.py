import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsi_certify import capability as cap
from rsi_certify import certify as ct
from rsi_certify import cli
from rsi_certify import config
from rsi_certify import dynamics as dyn
from rsi_certify import estimate as est
from rsi_certify import pipeline
from rsi_certify import safectl as sc
from rsi_certify import series as ts


def write_series_csv(path, t, values, unit):
    lines = [f"# unit={unit}", "t,value"]
    lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, values)]
    path.write_text("\n".join(lines) + "\n")


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def run(argv):
    return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# ingest


def test_ingest_manifest(tmp_path):
    t = np.linspace(0, 9, 10)
    for i in range(5):
        write_series_csv(tmp_path / f"s{i}.csv", t, np.exp(0.1 * i * t), "W")
    cfg = write_json(tmp_path / "manifest.json", {
        "files": [{"path": str(tmp_path / f"s{i}.csv"), "unit": "W"}
                  for i in range(5)]})
    out = tmp_path / "out"
    assert run(["ingest", "--config", cfg, "--out", out]) == 0
    stored = sorted(p.name for p in out.glob("s*.json"))
    assert stored == [f"s{i}.json" for i in range(5)]
    manifest = json.loads((out / "ingest_manifest.json").read_text())
    assert len(manifest["files"]) == 5
    assert all(f["snapshot_version"] for f in manifest["files"])


def test_ingest_reports_bad_file(tmp_path, capsys):
    write_series_csv(tmp_path / "good.csv", [0, 1], [1, 2], "W")
    (tmp_path / "bad.csv").write_text("# unit=W\nt,value\n0,1\nzz,2\n")
    cfg = write_json(tmp_path / "manifest.json", {
        "files": [{"path": str(tmp_path / "good.csv"), "unit": "W"},
                  {"path": str(tmp_path / "bad.csv"), "unit": "W"}]})
    code = run(["ingest", "--config", cfg, "--out", tmp_path / "out"])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.csv" in err
    assert "line 4" in err


def test_ingest_deterministic(tmp_path):
    t = np.linspace(0, 9, 10)
    write_series_csv(tmp_path / "a.csv", t, np.exp(t), "W")
    cfg = write_json(tmp_path / "m.json", {
        "files": [{"path": str(tmp_path / "a.csv"), "unit": "W"}]})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["ingest", "--config", cfg, "--out", out1]) == 0
    assert run(["ingest", "--config", cfg, "--out", out2]) == 0
    assert (out1 / "a.json").read_bytes() == (out2 / "a.json").read_bytes()


@pytest.mark.parametrize("entries, refused", [
    # a config name that leaves --out, and the names that are no file name
    ([{"path": "s.csv", "name": "../evil"}], "files[0]: series name '../evil'"),
    ([{"path": "s.csv", "name": ".."}], "files[0]: series name '..'"),
    ([{"path": "s.json"}], "files[0]: series name 'doc/s'"),     # doc's name
    # the manifest's name, from a file stem
    ([{"path": "ingest_manifest.csv"}],
     "files[0]: series name 'ingest_manifest'"),
    # one stem in two directories, and one config name twice
    ([{"path": "s.csv"}, {"path": "a/loss.csv"}, {"path": "b/loss.csv"}],
     "files[1] and files[2]: series name 'loss'"),
    ([{"path": "s.csv", "name": "x"}, {"path": "t.csv", "name": "x"}],
     "files[0] and files[1]: series name 'x'"),
])
def test_ingest_refuses_a_series_without_a_file_of_its_own(tmp_path, capsys,
                                                           entries, refused):
    # each series is written to <name>.json in --out: one outside it, one
    # over the manifest or one over another series is refused, and nothing
    # is written
    for entry in entries:
        path = tmp_path / entry["path"]
        path.parent.mkdir(exist_ok=True)
        if path.suffix == ".json":
            write_json(path, {"name": "doc/s", "unit": "W", "samples": [
                {"t": 0.0, "value": 1.0}, {"t": 1.0, "value": 2.0}]})
        else:
            write_series_csv(path, [0, 1], [1, 2], "W")
    cfg = write_json(tmp_path / "m.json", {"files": [
        dict(entry, path=str(tmp_path / entry["path"])) for entry in entries]})
    out = tmp_path / "run" / "out"
    assert run(["ingest", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error [ingest]: {refused} names no file of its own"]
    assert not (tmp_path / "run").exists()


def test_each_command_reads_through_a_fresh_loader(tmp_path, monkeypatch):
    # a process that runs many commands, as the benchmark's worker does,
    # must not reuse an earlier command's parse of a clock
    t = np.linspace(0, 9, 10)
    for name in "ab":
        write_series_csv(tmp_path / f"{name}.csv", t, np.exp(t), "W")
    cfg = write_json(tmp_path / "m.json", {
        "files": [{"path": str(tmp_path / f"{name}.csv")} for name in "ab"]})
    loaders, reads = [], []

    class Recording(cli.FileInputs):
        def __init__(self):
            super().__init__()
            loaders.append(self)

    real = ts.ingest_csv

    def ingest(path, expected_unit=None, clocks=None):
        reads.append((clocks, len(clocks)))    # the clocks known before
        return real(path, expected_unit, clocks)

    monkeypatch.setattr(cli, "FileInputs", Recording)
    monkeypatch.setattr(ts, "ingest_csv", ingest)
    for out in ("o1", "o2"):
        assert run(["ingest", "--config", cfg, "--out", tmp_path / out]) == 0
    assert len(loaders) == 2 and loaders[0].clocks is not loaders[1].clocks
    assert [(c is loaders[i // 2].clocks, n) for i, (c, n) in
            enumerate(reads)] == [(True, 0), (True, 1)] * 2


# ---------------------------------------------------------------------------
# envelope


def test_envelope_command(tmp_path, capsys):
    t = np.linspace(0, 9, 10)
    write_series_csv(tmp_path / "p_use.csv", t, np.full(10, 1.0), "W")
    write_series_csv(tmp_path / "temp.csv", t, np.full(10, 300.0), "K")
    cfg = write_json(tmp_path / "env.json", {
        "params": {"P_max": 100.0, "T_range": [300.0, 320.0],
                   "cop_range": [1.0, 1.0], "sigma_eff": 1.0},
        "series": {"P_use": str(tmp_path / "p_use.csv"),
                   "T": str(tmp_path / "temp.csv")},
        "rel_errors": {"delta_use": 0.01, "delta_elec": 0.01,
                       "delta_cop": 0.01, "delta_P": 0.01, "delta_T": 0.01},
    })
    out = tmp_path / "out"
    assert run(["envelope", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning [envelope]: unconstrained channel: no {channel} bandwidth "
        "series supplied" for channel in ("io", "mem")]
    doc = json.loads((out / "envelope.json").read_text())
    assert doc["phi_svc"]["unit"] == "nat/s"
    assert doc["phi_pt_bar"]["band"]["first_order"] == pytest.approx(0.05)
    assert doc["binding"] == ["pt-limited"] * 10
    assert (out / "envelope.csv").exists()


@pytest.mark.parametrize("alpha", [1.5, 0, "x"])
def test_envelope_alpha_is_checked(tmp_path, capsys, alpha):
    t = np.linspace(0, 9, 10)
    write_series_csv(tmp_path / "p_use.csv", t, np.full(10, 1.0), "W")
    write_series_csv(tmp_path / "temp.csv", t, np.full(10, 300.0), "K")
    cfg = write_json(tmp_path / "env.json", {
        "params": {"P_max": 100.0, "T_range": [300.0, 320.0],
                   "cop_range": [1.0, 1.0], "sigma_eff": 1.0},
        "series": {"P_use": str(tmp_path / "p_use.csv"),
                   "T": str(tmp_path / "temp.csv")},
        "alpha": alpha,
    })
    assert run(["envelope", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "alpha" in err[0]


def row_csv_text(header, rows) -> str:
    """The row-by-row CSV writer the column form replaced, as reference."""
    lines = [",".join(header)]
    lines += [",".join(repr(float(x)) if isinstance(x, (int, float))
                       else str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


NUMBERS = st.one_of(st.floats(), st.integers(-2**53, 2**53), st.booleans(),
                    st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
LABELS = st.one_of(st.sampled_from(["pt-limited", "io-limited",
                                    "mem-limited", "cap-limited"]),
                   st.text(st.characters(blacklist_characters=",\r\n")))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csv_artifacts_match_the_row_form(data):
    """Each CSV artifact's columns, given as the commands pass them, and
    the rows the row form took, give the same text."""
    n = data.draw(st.integers(0, 6))
    lists = [data.draw(st.lists(NUMBERS, min_size=n, max_size=n))
             for _ in range(5)]
    arrays = [np.array(col, dtype=float) for col in lists]
    passed = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)), dtype=bool)
    binding = data.draw(st.lists(LABELS, min_size=n, max_size=n))
    a, b, c, d, e = lists
    cases = [
        ({"t": arrays[0], "p_hat": arrays[1], "se": arrays[2], "ci_lo": d,
          "ci_hi": e}, zip(a, b, c, d, e)),                 # elasticity.csv
        ({"t": arrays[0], "slack_fraction": arrays[1], "passed": passed},
         [(x, y, int(p)) for x, y, p in zip(arrays[0], arrays[1], passed)]),
        ({"t_start": a, "t_end": b, "ptot_minus": c, "ptot_plus": d},
         zip(a, b, c, d)),                                  # segments.csv
        ({"t": arrays[0], "phi_pt_nat_per_s": arrays[1],
          "phi_svc_nat_per_s": arrays[2], "binding": binding},
         zip(arrays[0], arrays[1], arrays[2], binding)),    # envelope.csv
        ({"t": arrays[3], "I": arrays[4]}, zip(arrays[3], arrays[4])),
    ]
    for columns, rows in cases:
        assert ts.csv_text(columns) == row_csv_text(list(columns), rows)


# ---------------------------------------------------------------------------
# estimate


def capability_fixture(tmp_path, n=400):
    t = np.linspace(0.0, 0.9, n)
    i_vals = 1.0 / (1.0 - t)
    path = tmp_path / "capability.json"
    ts.write_json(ts.TimeSeries("capability", "nat", t, i_vals, None,
                                "fix01"), path)
    return str(path)


def test_estimate_command(tmp_path):
    cap_path = capability_fixture(tmp_path)
    cfg = write_json(tmp_path / "est.json", {
        "series": {"capability": cap_path},
        "estimation": {"window": 0.1, "alpha": 0.05},
    })
    out = tmp_path / "out"
    assert run(["estimate", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "elasticity.json").read_text())
    values = [e["value"] for e in doc["estimates"]]
    assert all(1.9 < v < 2.1 for v in values)
    assert doc["snapshot_versions"]["capability"] == "fix01"
    assert (out / "elasticity.csv").exists()


# ---------------------------------------------------------------------------
# certify: closed-form fixtures


def case_b_config(tmp_path, n=400):
    # capped-power regime: dI = phibar * I^0.8 from I0=1, telemetry with
    # 25% service headroom
    phibar_true = 1.0
    T_end = 10.0
    t = np.linspace(0.0, T_end, n)
    i_vals = (1.0 + 0.2 * phibar_true * t) ** 5
    ts.write_json(ts.TimeSeries("capability", "nat", t, i_vals, None, "caseB"),
                  tmp_path / "capability.json")
    # constant P_use/T chosen so phi_PT = 1.25 * phibar_true (sigma_eff = 1)
    k_b_ln2 = 1.380649e-23 * math.log(2)
    p_use = 1.25 * phibar_true * k_b_ln2 * 300.0
    write_series_csv(tmp_path / "p_use.csv", t, np.full(n, p_use), "W")
    write_series_csv(tmp_path / "temp.csv", t, np.full(n, 300.0), "K")
    return write_json(tmp_path / "caseB.json", {
        "seed": 0,
        "series": {"capability": str(tmp_path / "capability.json"),
                   "P_use": str(tmp_path / "p_use.csv"),
                   "T": str(tmp_path / "temp.csv")},
        "envelope_params": {"P_max": 1e-18, "T_range": [300.0, 300.0],
                            "cop_range": [1e9, 1e9], "sigma_eff": 1.0},
        "phi": {"kind": "power", "p": 0.8, "c": 1.0},
        "estimation": {"window": 1.0, "alpha": 0.05},
        "certify": {"alpha": 0.05, "envelope_tol": 0.05},
        "flags": {"capped_power": True},
    })


def case_a_config(tmp_path, n=400):
    # superlinear feedback with capital escape: dI = I^2, K0=1, r=2, zeta=2
    t = np.linspace(0.0, 0.9, n)
    i_vals = 1.0 / (1.0 - t)
    ts.write_json(ts.TimeSeries("capability", "nat", t, i_vals, None, "caseA"),
                  tmp_path / "capability.json")
    return write_json(tmp_path / "caseA.json", {
        "seed": 0,
        "series": {"capability": str(tmp_path / "capability.json")},
        "estimation": {"window": 0.1, "alpha": 0.05},
        "certify": {"alpha": 0.05},
        "capital": {"K0": 1.0, "r": 2.0, "zeta": 2.0},
    })


def test_certify_case_b_nonsingular(tmp_path):
    cfg = case_b_config(tmp_path)
    out = tmp_path / "out"
    code = run(["certify", "--config", cfg, "--out", out])
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "nonsingular-certified"
    assert code == 0
    assert cert["envelope_pass_fraction"] == 1.0
    assert cert["osgood_divergent"] is True
    assert all(s["ptot_plus"] <= 1.0 for s in cert["segments"])
    assert (out / "report.txt").exists()
    assert (out / "envelope_slack.csv").exists()


def test_envelope_drops_a_rate_sample_the_state_lacks(tmp_path):
    # the envelope check pairs each rate with a measured state: a rate
    # sample between two state samples is left out, not paired with an
    # interpolated state
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    t = ts.read_json(cfg["series"]["capability"]).t
    t_rate = np.sort(np.r_[t, (t[10] + t[11]) / 2])
    ts.write_json(ts.TimeSeries("capability_rate", "nat/s", t_rate,
                                (1.0 + 0.2 * t_rate) ** 4),
                  tmp_path / "rate.json")
    k_b_ln2 = 1.380649e-23 * math.log(2)
    write_series_csv(tmp_path / "p_use.csv", t_rate,
                     np.full(t_rate.size, 1.25 * k_b_ln2 * 300.0), "W")
    write_series_csv(tmp_path / "temp.csv", t_rate,
                     np.full(t_rate.size, 300.0), "K")
    cfg["series"]["capability_rate"] = str(tmp_path / "rate.json")
    out = tmp_path / "out"
    assert run(["certify", "--config", write_json(tmp_path / "c.json", cfg),
                "--out", out]) in (0, 2, 3)
    rows = (out / "envelope_slack.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[0]) for r in rows] == t.tolist()


def test_certify_case_a_singular_with_capital_time(tmp_path):
    cfg = case_a_config(tmp_path)
    out = tmp_path / "out"
    code = run(["certify", "--config", cfg, "--out", out])
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "singular-admissible"
    assert code == 2
    # T_K = 2 K0^(1-zeta) / (r (zeta-1)) = 1.0 exactly
    assert cert["capital_escape_time"] == 1.0
    assert cert["event_bound"] is not None and cert["event_bound"] > 0
    assert "A-supercritical" in cert["config_echo"]["region"]


def test_certify_capital_escape_beyond_the_float_range(tmp_path):
    # K0^(1-zeta) = 1e400 is beyond the float range: T_K is inf, and the
    # capital (delta = 0, so K* = 0) still escapes
    cfg = json.loads(open(case_a_config(tmp_path)).read())
    cfg["capital"] = {"K0": 1e-200, "r": 2.0, "zeta": 3.0}
    out = tmp_path / "out"
    assert run(["certify", "--config", write_json(tmp_path / "cfg.json", cfg),
                "--out", out]) == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["capital_escape_time"] == "inf"
    assert cert["config_echo"]["region"] \
        == "region A-supercritical: finite-time blow-up, T_K=inf"


def test_certify_joins_rate_on_timestamps(tmp_path):
    # a capability_rate on every other timestamp of I: the event bound
    # must pair each rate with the state at the same time, not with the
    # state at the same position
    cfg_path = case_a_config(tmp_path)
    t = np.linspace(0.0, 0.9, 400)
    i_vals = 1.0 / (1.0 - t)
    ts.write_json(ts.TimeSeries("capability_rate", "nat/s", t[::2],
                                i_vals[::2] ** 2, None, "caseA"),
                  tmp_path / "rate.json")
    cfg = json.loads(open(cfg_path).read())
    cfg["series"]["capability_rate"] = str(tmp_path / "rate.json")
    out = tmp_path / "out"
    code = run(["certify", "--config", write_json(tmp_path / "cfg.json", cfg),
                "--out", out])
    cert = json.loads((out / "certificate.json").read_text())
    assert code == 2 and cert["verdict"] == "singular-admissible"
    delta = max(s["ptot_minus"] for s in cert["segments"]) - 1.0
    i_on, rate_on = i_vals[::2], i_vals[::2] ** 2
    a0 = float(np.min(rate_on / i_on ** (1.0 + delta)))
    expected = ct.event_blowup_bound(float(i_on[-1]), delta, a0)
    assert cert["event_bound"] == pytest.approx(expected, rel=1e-12)


def test_certificate_is_strict_json(tmp_path, capsys):
    # zeta = 1 gives an infinite capital escape time
    cfg = json.loads(open(case_a_config(tmp_path)).read())
    cfg["capital"]["zeta"] = 1.0
    out = tmp_path / "out"
    assert run(["certify", "--config", write_json(tmp_path / "cfg.json", cfg),
                "--out", out]) == 2
    text = (out / "certificate.json").read_text()

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    cert = json.loads(text, parse_constant=reject)
    assert cert["capital_escape_time"] == "inf"
    capsys.readouterr()
    assert run(["report", "--config", out / "certificate.json",
                "--out", tmp_path / "rep"]) == 0
    assert "capital escape time T_K: inf s" in capsys.readouterr().out


def test_last_segment_keeps_final_estimate_at_epoch_seconds():
    # at 1.7e9 s, t[-1] + 1e-9 rounds back to t[-1]: the half-open last
    # segment must still hold the profile's final estimate
    t0 = 1.7e9
    values = [0.5] * 9 + [1.5]
    n = len(values)
    prof = est.RollingElasticity(t0 + np.arange(n), np.array(values),
                                 np.full(n, 0.1), np.full(n, 5.0), 4.0, [],
                                 0.05)
    segs = est.segment_profile(prof)
    effs = ct.effective_exponents(0, 0, 0, 0, rho=0.0, r=1.0, chi_hat=0.0)
    (ptot,) = pipeline.segment_ptots(prof, segs, effs, {})
    assert ptot.components_plus["p_hat_sup"] == 1.5
    assert ptot.plus == 1.5


def test_certify_empty_window_inconclusive(tmp_path):
    t = np.linspace(0, 1, 4)
    ts.write_json(ts.TimeSeries("capability", "nat", t, 1 + t, None, "tiny"),
                  tmp_path / "capability.json")
    cfg = write_json(tmp_path / "cfg.json", {
        "series": {"capability": str(tmp_path / "capability.json")},
        "estimation": {"window": 0.5},
    })
    code = run(["certify", "--config", cfg, "--out", tmp_path / "out"])
    assert code == 1  # too little data is an operational error


def test_certify_byte_identical_reruns(tmp_path):
    cfg = case_a_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["certify", "--config", cfg, "--out", out1]) == 2
    assert run(["certify", "--config", cfg, "--out", out2]) == 2
    assert (out1 / "certificate.json").read_bytes() == \
        (out2 / "certificate.json").read_bytes()
    assert (out1 / "report.txt").read_bytes() == \
        (out2 / "report.txt").read_bytes()


def test_certify_losses_path_end_to_end(tmp_path):
    # losses -> aggregated index -> canonical capability -> certificate;
    # the floor sits below every observed loss, the canonical pinning
    # removes the resulting offset
    n = 300
    t = np.linspace(0.0, 10.0, n)
    i_latent = (0.2 * t) ** 5 + 1e-9  # canonical-compatible: I(0) ~ 0
    losses = np.exp(-i_latent)
    lines = [f"# unit=loss", "t,value"]
    lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, losses)]
    (tmp_path / "task0.csv").write_text("\n".join(lines) + "\n")
    cfg = write_json(tmp_path / "cfg.json", {
        "series": {"losses": [{"path": str(tmp_path / "task0.csv"),
                               "task": "task0"}]},
        "benchmark": {"tasks": [{"id": "task0", "weight": 1.0,
                                 "floor": 1e-16}],
                      "t_ref": 0.0},
        "estimation": {"window": 1.5},
    })
    out = tmp_path / "out"
    code = run(["certify", "--config", cfg, "--out", out])
    assert code in (0, 2, 3)
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] in ("nonsingular-certified", "singular-admissible",
                               "inconclusive")
    assert any(k.startswith("loss:") for k in cert["data_snapshot_versions"])


def loss_task_config(tmp_path, losses, tasks) -> str:
    """A certify config of the loss series ``losses`` (task, file stem), on
    the losses of the end-to-end test, and a benchmark of ``tasks``, each
    with weight 1 / len(tasks)."""
    t = np.linspace(0.0, 10.0, 300)
    for _, stem in losses:
        write_series_csv(tmp_path / f"{stem}.csv", t,
                         np.exp(-(0.2 * t) ** 5 - 1e-9), "loss")
    return write_json(tmp_path / "cfg.json", {
        "series": {"losses": [{"path": str(tmp_path / f"{stem}.csv"),
                               "task": task} for task, stem in losses]},
        "benchmark": {"tasks": [{"id": task, "weight": 1.0 / len(tasks),
                                 "floor": 1e-16} for task in tasks],
                      "t_ref": 0.0},
        "estimation": {"window": 1.5}})


@pytest.mark.parametrize("losses, tasks, refused", [
    # the first loss series of task0 was dropped, and the certificate
    # listed one loss:task0 snapshot
    ([("task0", "a"), ("task0", "b")], ["task0"],
     "more than one loss series named 'task0'"),
    # task0's loss was weighed twice
    ([("task0", "a")], ["task0", "task0"],
     "benchmark: task 'task0' is listed more than once"),
])
def test_certify_refuses_a_loss_task_given_twice(tmp_path, capsys, losses,
                                                 tasks, refused):
    cfg = loss_task_config(tmp_path, losses, tasks)
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error [certify]: {refused}"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate / control-sim / report


def test_simulate_blowup_matches_closed_form(tmp_path):
    cfg = write_json(tmp_path / "scen.json", {
        "phi": {"kind": "power", "p": 2.0, "c": 1.0},
        "gain": 1.0, "I0": 1.0, "horizon": 5.0, "threshold": 1e6})
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "simulation.json").read_text())
    assert doc["status"] == "blowup_detected"
    assert doc["t_star"] == pytest.approx(1.0 - 1e-6, abs=1e-3)
    assert (out / "trajectory.csv").exists()


def test_simulate_unknown_key_rejected(tmp_path, capsys):
    cfg = write_json(tmp_path / "scen.json", {
        "phi": {"kind": "power", "p": 2.0}, "I0": 1.0, "horizon": 1.0,
        "thresold": 1e6})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "thresold" in capsys.readouterr().err


def test_control_sim_keeps_ceiling(tmp_path):
    cfg = write_json(tmp_path / "ctl.json", {
        "plant": {"phi": {"kind": "power", "p": 2.0, "c": 1.0}, "I0": 1.0,
                  "n_steps": 200, "u_ref": 1.0},
        "control": {"I_bar": 5.0, "kappa": 1.0, "Delta": 0.05,
                    "u_box": [[0.0, 1.0]], "slack_weight": 1e12},
    })
    out = tmp_path / "out"
    assert run(["control-sim", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "control_summary.json").read_text())
    assert summary["final_status"] == "completed"
    assert summary["max_overshoot"] <= 1e-9
    lines = (out / "control_log.jsonl").read_text().splitlines()
    assert len(lines) == 200
    assert json.loads(lines[0])["action"] == "certify"


def test_control_sim_overflowing_square_warns_as_numpy(tmp_path, capsys):
    # Phi = I^2 takes the plain-float product; the overflowing one goes
    # back through numpy, which warns, and the escaped plant shuts down.
    # From 1e150 the supervisor's Phi(I) = 1e300 is finite, and the plant's
    # closed form passes the escape time (inf) without a warning
    for I0, err in ((1e155, "warning [control-sim]: overflow encountered "
                             "in power\n"), (1e150, "")):
        cfg = write_json(tmp_path / "ctl.json", {
            "plant": {"phi": {"kind": "power", "p": 2.0, "c": 1.0},
                      "I0": I0, "n_steps": 5},
            "control": {"I_bar": 1e300, "kappa": 1.0, "Delta": 1.0}})
        out = tmp_path / f"out{I0:g}"
        assert run(["control-sim", "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().err == err
        summary = json.loads((out / "control_summary.json").read_text())
        assert summary["final_status"] == "shutdown"


def test_report_roundtrip(tmp_path, capsys):
    cfg = case_a_config(tmp_path)
    out = tmp_path / "out"
    run(["certify", "--config", cfg, "--out", out])
    capsys.readouterr()
    assert run(["report", "--config", out / "certificate.json",
                "--out", tmp_path / "rep"]) == 0
    text = capsys.readouterr().out
    assert "singular-admissible" in text
    assert (tmp_path / "rep" / "report.txt").exists()


@pytest.mark.parametrize("grad_norm", [2.0, math.inf], ids=["finite",
                                                            "infinity"])
def test_report_reproduces_the_certify_report(tmp_path, capsys, grad_norm):
    cfg = json.loads(open(case_a_config(tmp_path)).read())
    cfg["certify"]["grad_norm"] = grad_norm     # echoed as written
    path = write_json(tmp_path / "cfg.json", cfg)
    assert ("Infinity" in open(path).read()) is (grad_norm == math.inf)
    out, rep = tmp_path / "out", tmp_path / "rep"
    if grad_norm == math.inf:   # a config number is finite
        assert run(["certify", "--config", path, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error [certify]: config key 'certify.grad_norm' must be a "
            "finite number, got inf"]
        return
    assert run(["certify", "--config", path, "--out", out]) == 2
    assert run(["report", "--config", out / "certificate.json",
                "--out", rep]) == 0
    assert (rep / "report.txt").read_bytes() == \
        (out / "report.txt").read_bytes()


def test_missing_config_is_operational_error(tmp_path, capsys):
    assert run(["certify", "--config", tmp_path / "nope.json",
                "--out", tmp_path / "out"]) == 1


# ---------------------------------------------------------------------------
# pure commands behind the I/O shell


def certify_args(cfg_path):
    return argparse.Namespace(config=cfg_path, out="unused", window=None,
                              alpha=None, seed=None)


@pytest.mark.parametrize("make_config", [case_a_config, case_b_config])
def test_run_certify_is_pure_and_matches_main(tmp_path, monkeypatch,
                                              make_config):
    # run_certify, run_estimate and the library call pipeline.certify open
    # no file, and give what main writes
    cfg_path = make_config(tmp_path)
    cfg = json.loads(open(cfg_path).read())
    files = cli.FileInputs()
    table = {path: files(path) for path in cfg["series"].values()}

    def load(path, unit=None):
        return table[path]

    def no_open(*args, **kwargs):
        raise AssertionError("a pure command opened a file")

    with monkeypatch.context() as m:
        m.setattr("builtins.open", no_open)
        outcomes = {"certify": cli.run_certify(cfg, certify_args(cfg_path),
                                               load),
                    "estimate": cli.run_estimate(cfg, certify_args(cfg_path),
                                                 load)}
        certificate, _, _ = pipeline.certify(cfg, load, cfg_path)
    for command, outcome in outcomes.items():
        out = tmp_path / command
        assert run([command, "--config", cfg_path, "--out", out]) == \
            outcome.code
        assert sorted(outcome.artifacts) == sorted(p.name
                                                   for p in out.iterdir())
        for name, text in outcome.artifacts.items():
            assert (out / name).read_text() == text
    assert ts.json_text(certificate.to_json_dict()) == \
        (tmp_path / "certify" / "certificate.json").read_text()


# a config fault of each rule between keys, by the message it gives
BETWEEN_KEYS = {
    'estimation.lag must be "auto" or an integer >= 0, got -1':
        {"estimation": {"lag": -1}},
    "series.losses needs config key 'benchmark'":
        {"series": {"losses": [{"path": "loss.csv"}]}},
    "series needs a 'capability' or 'losses' key": {"series": {}},
}


@pytest.mark.parametrize("window, alpha, message", [
    (0.1, 1.5, "alpha must lie in (0, 1), got 1.5"),
    (0.1, 0.0, "alpha must lie in (0, 1), got 0.0"),
    (0.0, 0.05, "window must be positive and finite, got 0.0"),
    (-0.1, 0.05, "window must be positive and finite, got -0.1"),
    (math.nan, 0.05, "window must be positive and finite, got nan"),
    (0.0, 1.5, "window must be positive and finite, got 0.0"),
    *((0.1, 0.05, message) for message in BETWEEN_KEYS),
])
def test_pipeline_applies_the_range_rules(tmp_path, window, alpha, message):
    # a library caller gets the CLI's located error, not a verdict or
    # AllWindowsDegenerate; the window is checked first, as the CLI does.
    # The window and level are given as overrides, which an error names by
    # their CLI flags
    fault = BETWEEN_KEYS.get(message, {})
    cfg = dict(json.loads(open(case_a_config(tmp_path)).read()), **fault)
    load = cli.FileInputs()
    with pytest.raises(cli.ConfigError) as certify_exc:
        pipeline.certify(cfg, load, "c.json", window=window, alpha=alpha)
    with pytest.raises(cli.ConfigError) as estimate_exc:
        pipeline.estimate(cfg, load, window, alpha)
    assert str(certify_exc.value) == str(estimate_exc.value) == (
        message if fault else f"--{message}")


@pytest.mark.parametrize("alpha", [1.5, 0.0, math.nan])
def test_pipeline_envelope_applies_the_alpha_rule(tmp_path, alpha):
    # a library caller of the envelope gets the CLI's error before any
    # series is read, not interval factors whose lower one is the larger
    c = config.read(config.EnvelopeConfig, envelope_config(tmp_path))

    def load(*_):
        raise AssertionError("a series was read")

    with pytest.raises(cli.ConfigError) as exc:
        pipeline.envelope(c, c.params, load, alpha)
    assert str(exc.value) == f"alpha must lie in (0, 1), got {alpha!r}"


def cop_series_config(tmp_path, cfg):
    # facility power whose COP = 4 series leaves 1.25x service headroom;
    # the COP band midpoint (1e9) would give 1.5625x
    t = np.linspace(0.0, 10.0, 400)
    p_use = 1.25 * 1.380649e-23 * math.log(2) * 300.0
    write_series_csv(tmp_path / "p_fac.csv", t, np.full(t.size, p_use / 0.8),
                     "W")
    write_series_csv(tmp_path / "cop.csv", t, np.full(t.size, 4.0), "1")
    del cfg["series"]["P_use"]
    cfg["series"]["P_fac"] = str(tmp_path / "p_fac.csv")
    cfg["series"]["COP"] = str(tmp_path / "cop.csv")


def hard_cap_config(tmp_path, cfg):
    cfg["hard_cap_p_use"] = 0.8 * 1.25 * 1.380649e-23 * math.log(2) * 300.0


@pytest.mark.parametrize("extend", [cop_series_config, hard_cap_config])
def test_certify_builds_the_envelope_command_envelope(tmp_path, monkeypatch,
                                                      capsys, extend):
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    extend(tmp_path, cfg)
    env_cfg = {"params": cfg["envelope_params"], "series": cfg["series"],
               **{k: cfg[k] for k in ("hard_cap_p_use",) if k in cfg}}
    seen = []
    compute = pipeline.env.compute_envelope

    def recording(*args, **kwargs):
        seen.append(compute(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(pipeline.env, "compute_envelope", recording)
    run(["envelope", "--config", write_json(tmp_path / "env.json", env_cfg),
         "--out", tmp_path / "env"])
    assert "warning [envelope]: unconstrained channel" in \
        capsys.readouterr().err
    run(["certify", "--config", write_json(tmp_path / "cfg.json", cfg),
         "--out", tmp_path / "cert"])
    assert "warning [certify]: unconstrained channel" in \
        capsys.readouterr().err
    envelope_svc, certify_svc = (r.phi_svc.values for r in seen)
    assert np.array_equal(certify_svc, envelope_svc)
    assert envelope_svc == pytest.approx(np.full(400, 1.0 if "hard_cap_p_use"
                                                 in cfg else 1.25))


def test_certify_adds_the_measured_compute_band(tmp_path):
    # C = K^0.5 * exp(0.01 sin 3t): a C-K elasticity of 0.5 + 0.1 cos 3t
    # before smoothing; alpha_eff = (1 - rho) * min(alpha, chi_hat) = 0.05
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    t = np.linspace(0.0, 10.0, 400)
    log_k = 0.3 * t
    write_series_csv(tmp_path / "k.csv", t, np.exp(log_k), "USD")
    write_series_csv(tmp_path / "c.csv", t,
                     np.exp(0.5 * log_k + 0.01 * np.sin(3.0 * t)), "FLOP/s")
    cfg["series"].update(K=str(tmp_path / "k.csv"), C=str(tmp_path / "c.csv"))
    cfg["exponents"] = {"alpha": 0.1, "beta": 0.0, "gamma": 0.0,
                        "alpha_tilde": 0.0, "rho": 0.5, "r": 1.0,
                        "chi_hat": 0.1}
    out = tmp_path / "out"
    assert run(["certify", "--config", write_json(tmp_path / "cfg.json", cfg),
                "--out", out]) == 0
    band = ts.elasticity(ts.ingest_csv(tmp_path / "c.csv"),
                         ts.ingest_csv(tmp_path / "k.csv"), 1.0).slope
    assert 0.35 < band.min() < 0.5 < band.max() < 0.65
    alpha_eff = ct.effective_exponents(**cfg["exponents"]).alpha_eff
    assert alpha_eff == 0.05
    segments = json.loads((out / "certificate.json").read_text())["segments"]
    for s in segments:
        assert s["components_minus"]["C"] == alpha_eff * float(band.min())
        assert s["components_plus"]["C"] == alpha_eff * float(band.max())
        assert s["ptot_plus"] == s["components_plus"]["p_hat_sup"] \
            + s["components_plus"]["C"]


def test_certify_fits_the_state_factor_from_the_envelope(tmp_path,
                                                         monkeypatch):
    # no phi: Idot / phi_svc against I is fitted as a power law.  The exact
    # rate I^0.8 over a constant phi_svc of 1.25 is Phi(I) = 0.8 I^0.8.
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    del cfg["phi"]
    t = np.linspace(0.0, 10.0, 400)
    ts.write_json(ts.TimeSeries("capability_rate", "nat/s", t,
                                (1.0 + 0.2 * t) ** 4), tmp_path / "rate.json")
    cfg["series"]["capability_rate"] = str(tmp_path / "rate.json")
    fitted = []
    classify = cli.dyn.osgood_classify

    def recording(phi, I0):
        fitted.append(phi)
        return classify(phi, I0)

    monkeypatch.setattr(cli.dyn, "osgood_classify", recording)
    out = tmp_path / "out"
    assert run(["certify", "--config", write_json(tmp_path / "cfg.json", cfg),
                "--out", out]) == 0
    (phi,) = fitted
    assert (phi.kind, phi.p, phi.c) == ("power", pytest.approx(0.8, abs=1e-12),
                                        pytest.approx(0.8, rel=1e-12))
    slack = np.loadtxt(out / "envelope_slack.csv", delimiter=",",
                       skiprows=1)
    assert slack.shape == (400, 3)
    assert np.all(slack[:, 2] == 1.0)               # every sample passes
    assert np.max(np.abs(slack[:, 1])) < 1e-9       # on the fitted law


def test_certify_refuses_envelope_params_without_a_temperature(tmp_path):
    # the envelope command refuses this config; certify used to drop the
    # whole envelope layer and certify without it
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    del cfg["series"]["T"]
    code, err = run_quietly(["certify", "--config",
                             write_json(tmp_path / "cfg.json", cfg),
                             "--out", tmp_path / "out"])
    assert code == 1 and err == [
        "error [certify]: a temperature series is required"]


# ---------------------------------------------------------------------------
# usage and config errors


@pytest.mark.parametrize("argv", [
    [],
    ["certify"],
    ["certify", "--config", "c.json", "--bogus"],
    ["certify", "--config", "c.json", "--alpha", "abc"],
    ["nonesuch", "--config", "c.json"],
])
def test_usage_errors_exit_1_not_2(argv, capsys):
    # 2 is the singular verdict: a typo must not read as one
    assert cli.main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.main(["certify", "--help"]) == 0
    assert "--seed" in capsys.readouterr().out


OPTIONS = {"window": "1.0", "alpha": "0.1", "seed": "3", "format": "json"}
TAKES = {"ingest": (), "envelope": (), "estimate": ("window", "alpha"),
         "certify": ("window", "alpha", "seed"), "simulate": ("format",),
         "control-sim": (), "report": ()}


@pytest.mark.parametrize("command", sorted(TAKES))
def test_each_command_takes_only_the_options_it_reads(command, capsys):
    parser = cli.build_parser()
    for option, value in OPTIONS.items():
        argv = [command, "--config", "c.json", f"--{option}", value]
        if option in TAKES[command]:
            assert getattr(parser.parse_args(argv), option) is not None
        else:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


def drop_window(cfg):
    del cfg["estimation"]["window"]
    return cfg, "estimation.window"


def as_list(cfg):
    return [cfg], "JSON object"


def series_not_object(cfg):
    cfg["series"] = [cfg["series"]["capability"]]
    return cfg, "'series'"


def window_not_number(cfg):
    cfg["estimation"]["window"] = "wide"
    return cfg, "estimation.window"


@pytest.mark.parametrize("command", ["estimate", "certify"])
@pytest.mark.parametrize("malform", [drop_window, as_list, series_not_object,
                                     window_not_number])
def test_malformed_config_exits_1_with_one_line(tmp_path, capsys, command,
                                                malform):
    cfg, key = malform(json.loads(open(case_a_config(tmp_path)).read()))
    path = write_json(tmp_path / "bad.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert key in err


@pytest.mark.parametrize("command", ["estimate", "certify"])
@pytest.mark.parametrize("flag, value", [
    ("--alpha", "0"), ("--alpha", "1"), ("--alpha", "-0.5"), ("--alpha", "nan"),
    ("--window", "0"), ("--window", "-0.1"), ("--window", "nan"),
    ("--window", "inf"),
])
def test_out_of_range_flag_is_refused_not_replaced(tmp_path, capsys, command,
                                                   flag, value):
    # an explicit 0 must not fall through to the config's value
    cfg = case_a_config(tmp_path)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out, flag, value]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert flag in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("estimate", "estimation", "alpha", 0),
    ("estimate", "estimation", "alpha", 1.5),
    ("certify", "certify", "alpha", 0),
    ("certify", "certify", "alpha", 1),
    ("estimate", "estimation", "window", 0),
    ("certify", "estimation", "window", -1.0),
])
def test_out_of_range_config_value_exits_1_naming_the_key(
        tmp_path, capsys, command, section, key, value):
    cfg = json.loads(open(case_a_config(tmp_path)).read())
    cfg[section][key] = value
    path = write_json(tmp_path / "bad.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"{section}.{key}" in err


def test_flags_override_the_config(tmp_path):
    cfg = case_a_config(tmp_path)
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--alpha", "0.2",
                "--window", "0.2"]) == 2
    echo = json.loads((out / "certificate.json").read_text())["config_echo"]
    assert (echo["alpha"], echo["window"]) == (0.2, 0.2)


def control_config(**changes):
    cfg = {"plant": {"phi": {"kind": "power", "p": 2.0, "c": 1.0}, "I0": 1.0,
                     "n_steps": 5},
           "control": {"I_bar": 5.0, "kappa": 1.0, "Delta": 0.05}}
    for where, (key, value) in changes.items():
        cfg.setdefault(where, {})[key] = value
    return cfg


@pytest.mark.parametrize("changes, named", [
    ({"plant": ("stat_error", 0.1)}, "stat_error"),
    ({"control": ("alpha_fn", "cubic")}, "alpha_fn"),
    ({"policy": ("slack_tol", 0.1)}, "slack_tol"),
    ({"plant": ("phi", {"kind": ["power"], "p": 2.0})}, "kind"),
    ({"plant": ("I0", None)}, "plant"),
])
def test_control_sim_rejects_keys_it_does_not_read(tmp_path, capsys, changes,
                                                   named):
    cfg = control_config(**changes)
    if cfg["plant"]["I0"] is None:
        del cfg["plant"]["I0"]
    path = write_json(tmp_path / "ctl.json", cfg)
    assert run(["control-sim", "--config", path, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and named in err


@pytest.mark.parametrize("changes, line", [
    # a latency past the period ran its first hold for the whole latency,
    # and the new command never acted
    ({"plant": ("latency", 0.06), "control": ("tau_bar", 0.06)},
     "plant.latency must be at most control.Delta 0.05, got 0.06"),
    ({"plant": ("latency", 0.01)},
     "plant.latency must be at most control.tau_bar 0.0, got 0.01"),
    ({"plant": ("latency", -0.01)},
     "plant.latency must be at least 0.0, got -0.01"),
    # the per-step margin kappa eps_I + L_h tau_bar assumes the error
    ({"plant": ("state_error", 0.05)},
     "plant.state_error must be at most control.eps_I 0.0, got 0.05"),
    # the floor of phi
    ({"plant": ("I0", -1.0)}, "plant.I0 must be at least 1e-300, got -1.0"),
    ({"plant": ("n_steps", 0)}, "plant.n_steps must be at least 1, got 0"),
    ({"plant": ("n_steps", -2)}, "plant.n_steps must be at least 1, got -2"),
], ids=["latency-delta", "latency-tau_bar", "latency-negative",
        "state_error-eps_I", "I0-floor", "n_steps-0", "n_steps-negative"])
def test_control_sim_refuses_a_plant_rule_naming_its_key(tmp_path, changes,
                                                         line):
    path = write_json(tmp_path / "ctl.json", control_config(**changes))
    out = tmp_path / "out"
    assert run_quietly(["control-sim", "--config", path, "--out", out]) == \
        (1, [f"error [control-sim]: {line}"])
    assert not out.exists()


@pytest.mark.parametrize("where, key, value", [
    ("control", "Delta", math.nan),
    ("control", "kappa", math.nan),
    ("control", "I_bar", math.nan),
    ("control", "slack_weight", math.nan),
    ("control", "L_h", math.nan),
    ("control", "eps_I", math.inf),
    ("control", "u_box", [[math.nan, 1.0]]),
    ("control", "r_u", [math.nan]),
    ("control", "r_u", [-1.0]),
    ("plant", "u_ref", math.nan),
    ("plant", "phi_svc_true", math.nan),
    ("plant", "I0", math.nan),
    ("policy", "governance_delta", math.nan),
])
def test_control_sim_rejects_nonfinite_numbers(tmp_path, capsys, where, key,
                                               value):
    # a NaN passes every range check written as a comparison
    path = write_json(tmp_path / "ctl.json",
                      control_config(**{where: (key, value)}))
    assert run(["control-sim", "--config", path, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and f"{where}.{key}" in err


BEYOND_FLOAT = 10 ** 400    # a JSON integer that float() cannot convert
SCENARIO = {"phi": {"kind": "power", "p": 2.0, "c": 1.0}, "I0": 1.0,
            "horizon": 1.0}


def full_certify_config(tmp_path):
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    cfg["capital"] = {"K0": 1.0, "r": 2.0, "zeta": 2.0}
    cfg["exponents"] = dict(FULL_PIPELINE["exponents"])
    return cfg


@pytest.mark.parametrize("command, path, value", [
    ("certify", ("capital", "K0"), math.nan),
    ("certify", ("exponents", "alpha"), math.nan),
    ("envelope", ("params", "T_range", 0), math.nan),
    ("certify", ("envelope_params", "sigma_eff"), math.nan),
    ("certify", ("phi", "p"), math.nan),
    ("certify", ("certify", "small_gain"), math.nan),
    ("simulate", ("I0",), math.nan),
    ("simulate", ("horizon",), math.inf),
    pytest.param("simulate", ("I0",), BEYOND_FLOAT,
                 id="simulate-I0-beyond_float"),
], ids=lambda v: key_text(v) if isinstance(v, tuple) else None)
def test_nonfinite_config_number_is_refused_naming_its_key(
        tmp_path, command, path, value):
    # a NaN passed every range check written as a comparison: certify
    # certified on capital.K0 = NaN, and simulate spun to its step budget;
    # an integer beyond the float range failed with an unlocated line
    cfg = {"certify": full_certify_config, "envelope": envelope_config,
           "simulate": lambda tmp: copy.deepcopy(SCENARIO)}[command](tmp_path)
    at(cfg, path[:-1])[path[-1]] = value
    start = time.perf_counter()
    code, err = run_quietly([command, "--config",
                             write_json(tmp_path / "cfg.json", cfg),
                             "--out", tmp_path / "out"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (1, [
        f"error [{command}]: config key '{key_text(path)}' must be a finite "
        f"number, got {value!r}"])


@pytest.mark.parametrize("command, cfg, named", [
    ("simulate", {**SCENARIO, "I0": "1"}, "'I0'"),
    ("simulate", {"phi": SCENARIO["phi"], "horizon": 1.0},
     "missing config key 'I0'"),
    ("simulate", {"phi": SCENARIO["phi"], "I0": 1.0},
     "missing config key 'horizon'"),
    ("simulate", {**SCENARIO, "gain": True}, "'gain'"),
    ("simulate", {**SCENARIO, "horizon": [1.0]}, "'horizon'"),
    ("simulate", {**SCENARIO, "threshold": "1e6"}, "'threshold'"),
    ("simulate", {**SCENARIO, "rtol": False}, "'rtol'"),
    ("simulate", {**SCENARIO, "capital": {"K0": 1.0, "r": 2.0, "zeta": 2.0}},
     "scenario key 'capital'"),
    ("control-sim", control_config(plant=("n_steps", 2.5)), "plant.n_steps"),
    ("control-sim", control_config(plant=("n_steps", True)), "plant.n_steps"),
    ("control-sim", control_config(plant=("benchmark_every", True)),
     "plant.benchmark_every"),
    ("control-sim", control_config(plant=("benchmark_every", 1.5)),
     "plant.benchmark_every"),
    ("control-sim", control_config(policy=("escalate_consecutive_slack", 2.5)),
     "policy.escalate_consecutive_slack"),
    ("control-sim", control_config(policy=("escalate_consecutive_slack",
                                           True)),
     "policy.escalate_consecutive_slack"),
    ("control-sim", control_config(plant=("I0", True)),
     "config key 'plant.I0' must be a number, got True"),
    ("control-sim", control_config(plant=("ptot_hat", False)),
     "config key 'plant.ptot_hat' must be a number, got False"),
    ("control-sim", control_config(plant=("antagonism", [0.0, True])),
     "config key 'plant.antagonism[1]' must be a number, got True"),
    ("control-sim", control_config(control=("kappa", True)),
     "config key 'control.kappa' must be a number, got True"),
    ("control-sim", control_config(control=("r_u", [True])),
     "config key 'control.r_u[0]' must be a number, got True"),
    ("control-sim", control_config(control=("u_box", [[0.0, True]])),
     "config key 'control.u_box[0][1]' must be a number, got True"),
    ("control-sim", control_config(policy=("antagonism_theta", False)),
     "config key 'policy.antagonism_theta' must be a number, got False"),
    ("control-sim", control_config(plant=("osgood_ok", "false")),
     "config key 'plant.osgood_ok' must be true or false, got 'false'"),
    ("control-sim", control_config(plant=("osgood_ok", 0)),
     "config key 'plant.osgood_ok' must be true or false, got 0"),
    ("control-sim", control_config(plant=("osgood_ok", None)),
     "config key 'plant.osgood_ok' must be true or false, got None"),
])
def test_simulate_and_control_sim_numbers_name_the_key(tmp_path, capsys,
                                                       command, cfg, named):
    path = write_json(tmp_path / "cfg.json", cfg)
    assert run([command, "--config", path, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0], err


def test_integral_float_is_an_integer(tmp_path):
    digests = []
    for n_steps in (5, 5.0):
        path = write_json(tmp_path / "ctl.json",
                          control_config(plant=("n_steps", n_steps)))
        out = tmp_path / f"out{n_steps!r}"
        assert run(["control-sim", "--config", path, "--out", out]) == 0
        digests.append(artifact_digests(out))
    assert digests[0] == digests[1]


def test_integers_in_float_fields_are_read_as_floats(tmp_path, monkeypatch):
    # one rule for every command: certify echoes an integral
    # estimation.window as 360.0, and control-sim logs an integral plant.I0
    # as 1.0, byte for byte as if the config had written 1.0
    monkeypatch.chdir(tmp_path)
    cfg = json.loads(Path(superlinear_json_config()).read_text())
    cfg["estimation"]["window"] = 360
    assert run(["certify", "--config", write_json(Path("int.json"), cfg),
                "--out", "out"]) == 3
    window = json.loads(Path("out/certificate.json").read_text())[
        "config_echo"]["window"]
    assert type(window) is float and window == 360.0
    digests = []
    for i0 in (1, 1.0):
        path = write_json(tmp_path / "ctl.json",
                          control_config(plant=("I0", i0)))
        out = tmp_path / f"ctl{i0!r}"
        assert run(["control-sim", "--config", path, "--out", out]) == 0
        digests.append(artifact_digests(out))
        first = json.loads((out / "control_log.jsonl").read_text()
                           .splitlines()[0])
        assert type(first["I_true"]) is float and first["I_true"] == 1.0
    assert digests[0] == digests[1]


# sha256 of control_log.jsonl and control_summary.json on scenarios shaped
# like the benchmark's control configs, shortened to 200 steps (recorded
# with numpy 2.4.6 on x86-64).  Both moved when the power plant's period
# became its exact flow instead of 16 RK4 substeps: I_true by at most
# 9.4e-12 (m = 1) and 3.0e-14 (m = 6) relative, RK4's truncation error.
# Making the plant a function of all m channels moves the m = 6 digests;
# it must not move the m = 1 ones.
CONTROL_DIGESTS = {
    1: ("9d86fa6dac0c698a502699175fd08cd92cb0d1e9919c50ab87c9d30c5fdca3b5",
        "7de125a101e75fe6622dc49cc5a15918e8d4a64a38430563f70df0e4f2e6e8aa"),
    6: ("781eddbc29b628461ddd49fbb7ff821f01d25e14098b3293c96a8690f5f49fae",
        "427bb0bb0be0900b56447ac5e669f6fec3e103ceb0e73219ed301d2b140cb64f"),
}


@pytest.mark.parametrize("channels", sorted(CONTROL_DIGESTS))
def test_control_sim_artifacts_are_pinned(tmp_path, channels):
    path = write_json(tmp_path / "ctl.json", {
        "plant": {"phi": {"kind": "power", "p": 2.0, "c": 2.0},
                  "I0": 1.2345678901234567, "n_steps": 200, "u_ref": 1.0},
        "control": {"I_bar": 10.0, "kappa": 1.0, "Delta": 0.02,
                    "r_u": [math.inf] * channels,
                    "u_box": [[0.0, 1.0]] * channels,
                    "slack_weight": 1e14}})
    out = tmp_path / "out"
    assert run(["control-sim", "--config", path, "--out", out]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("control_log.jsonl", "control_summary.json"))
    assert digests == CONTROL_DIGESTS[channels]


def subcritical_csv_config(n=500):
    """Loss-path CSV series in the working directory whose raw index obeys
    dG/dt = G**0.8 / 3600 from G = 10, with temperature and usable-power
    series whose service ceiling covers the rate; returns the config."""
    rng = np.random.default_rng(2024)
    span = (40.0 ** 0.2 - 10.0 ** 0.2) / (0.2 / 3600.0)
    t = 1.7e9 + np.linspace(0.0, span, n)
    g = (10.0 ** 0.2 + 0.2 / 3600.0 * (t - t[0])) ** 5.0
    tasks = (("t0", 0.6, 0.05), ("t1", 0.4, 0.1))
    for task, _, floor in tasks:
        write_series_csv(Path(f"loss_{task}.csv"), t, floor * np.exp(
            40.01 - g + rng.normal(0.0, 1e-3, n)), "loss")
    temp = 300.0 * np.exp(rng.normal(0.0, 1e-4, n))
    write_series_csv(Path("temp.csv"), t, temp, "K")
    write_series_csv(Path("p_use.csv"), t,
                     1.25 / 3600.0 * 1.380649e-23 * math.log(2.0) * temp, "W")
    return write_json(Path("subcritical.json"), {
        "seed": 0,
        "series": {"losses": [{"task": task, "path": f"loss_{task}.csv"}
                              for task, _, _ in tasks],
                   "T": "temp.csv", "P_use": "p_use.csv"},
        "benchmark": {"tasks": [{"id": i, "weight": w, "floor": f}
                                for i, w, f in tasks], "t_ref": float(t[0])},
        "envelope_params": {"P_max": 1e-18, "T_range": [299.0, 301.0],
                            "cop_range": [1e9, 1e9], "sigma_eff": 1.0},
        "phi": {"kind": "power", "p": 0.8, "c": 3.0, "domain_floor": 10.0},
        "estimation": {"window": span / 9.0, "lag": "auto", "alpha": 0.05},
        "certify": {"alpha": 0.05, "envelope_tol": 0.05},
        "flags": {"capped_power": True}})


def superlinear_json_config(n=500):
    """A capability JSON series in the working directory on
    I = 1 / (1 - t/3600) with log-noise 1e-3 and a capital channel that
    escapes at T_K = 1 s; returns the config."""
    rng = np.random.default_rng(2025)
    t = np.linspace(0.0, 0.9 * 3600.0, n)
    i_vals = np.exp(rng.normal(0.0, 1e-3, n)) / (1.0 - t / 3600.0)
    write_json(Path("capability.json"), {
        "name": "capability", "unit": "nat", "snapshot_version": "superlinear",
        "samples": [{"t": a, "value": b}
                    for a, b in zip((1.7e9 + t).tolist(), i_vals.tolist())]})
    return write_json(Path("superlinear.json"), {
        "seed": 0,
        "series": {"capability": "capability.json"},
        "estimation": {"window": 360.0, "alpha": 0.05},
        "certify": {"alpha": 0.05},
        "capital": {"K0": 1.0, "r": 2.0, "zeta": 2.0}})


# sha256 of every certify artifact on the two configs above, written and
# run from a working directory of their own (the certificate echoes the
# config path); recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64.
CERTIFY_DIGESTS = {
    "subcritical": {
        "certificate.json":
            "d7d01a5757d7d93973e86d3df77fef0e8b0ceb2a910d041fe6c2fd6ebcf32686",
        "elasticity.csv":
            "33470e5e886d21ae641bcb8bdf3e6c0855a51856a19786ffcf0781a0232f82de",
        "envelope_slack.csv":
            "787580ad53a7dd8db3d24e065a3e1b7ccf941556306bd4f03a46f9610b06ef9c",
        "report.txt":
            "24cb7616aec6601350d4bac5b892898cf9ae4a1cf15899409bc48dc968c864d5",
        "segments.csv":
            "be2c68432c3b7479a3b68355fd5fb21e1e08b7f35c03b9f9f1f0a6ecead87db8"},
    "superlinear": {
        "certificate.json":
            "da2d52805d20aed38a12ca77a9c381b9336097613033528eb22b8fd6930870ea",
        "elasticity.csv":
            "4e2ebdf106a5677cc4b6a0c4565c2ad021c0aae52cc90d36322bf935bbbaef8b",
        "report.txt":
            "c673a352cc85774ef1e80a897f70210702b53eb8c8412b5073cb610227010aee",
        "segments.csv":
            "77c30f622fe5ffe707dcf97f8df2e5ae3255e873ff97c9c9ad708f4169f0f617"},
}
# (config writer, exit code) per pinned config
CERTIFY_CONFIGS = {"subcritical": (subcritical_csv_config, 0),
                   "superlinear": (superlinear_json_config, 3)}


def artifact_digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())}


@pytest.mark.parametrize("name", sorted(CERTIFY_DIGESTS))
def test_certify_artifacts_are_pinned(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write, code = CERTIFY_CONFIGS[name]
    assert run(["certify", "--config", write(), "--out", "out"]) == code
    assert artifact_digests("out") == CERTIFY_DIGESTS[name]


def test_report_prints_each_segment_bound_in_full(tmp_path, monkeypatch):
    # epoch-second bounds print as offsets from the first start, so the
    # segments of one hour no longer all read 1.7e+09
    monkeypatch.chdir(tmp_path)
    assert run(["certify", "--config", superlinear_json_config(),
                "--out", "out"]) == 3
    ranges = [s["range"] for s in json.loads(
        Path("out/certificate.json").read_text())["segments"]]
    report = Path("out/report.txt").read_text()
    t0 = ranges[0][0]
    assert f"segment bounds: seconds from t0 = {t0!r}\n" in report
    printed = re.findall(r"t - t0 in \[(\S+), (\S+)\)", report)
    assert [(float(a), float(b)) for a, b in printed] == \
        [(a - t0, b - t0) for a, b in ranges]
    assert len({x for pair in printed for x in pair}) == \
        len({t for pair in ranges for t in pair}) > 2


def test_main_is_reentrant(tmp_path, monkeypatch, capsys):
    # consecutive calls in one process give what each gives in a fresh
    # interpreter, whatever options the call before them set
    monkeypatch.chdir(tmp_path)
    cfg = superlinear_json_config()
    scen = write_json(Path("scen.json"), {
        "phi": {"kind": "power", "p": 2.0, "c": 1.0},
        "gain": 1.0, "I0": 1.0, "horizon": 5.0, "threshold": 1e6})
    calls = [["certify", "--config", cfg, "--alpha", "0.1"],
             ["certify", "--config", cfg],
             ["simulate", "--config", scen, "--format", "json"],
             ["simulate", "--config", scen],
             ["certify", "--config", cfg, "--alpha", "0.1"]]
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    for i, argv in enumerate(calls):
        alone = subprocess.run(
            [sys.executable, "-m", "rsi_certify.cli", *argv,
             "--out", f"alone{i}"], env=env, capture_output=True, text=True)
        capsys.readouterr()
        assert run([*argv, "--out", f"main{i}"]) == alone.returncode
        assert capsys.readouterr().out == alone.stdout
        assert (artifact_digests(f"main{i}")
                == artifact_digests(f"alone{i}")), argv
    assert artifact_digests("main0") != artifact_digests("main1")
    assert cli.main(["certify", "--help"]) == 0
    assert cli.main(["certify", "--config", cfg, "--bogus"]) == 1

    def no_rebuild():
        raise AssertionError("main rebuilt its parser")
    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    assert run(["certify", "--config", cfg, "--out", "again"]) == 3
    assert artifact_digests("again") == artifact_digests("main1")


def test_warnings_print_one_line_each_on_every_run(tmp_path, monkeypatch,
                                                  capsys):
    # the warnings module printed each under the path and line of the call
    # that raised it, and only on the first run of the process
    monkeypatch.chdir(tmp_path)
    cfg = subcritical_csv_config()
    errs = []
    for out in ("out0", "out1"):
        assert run(["certify", "--config", cfg, "--out", out]) == 0
        errs.append(capsys.readouterr().err.splitlines())
    assert errs[0] == errs[1] == [
        f"warning [certify]: unconstrained channel: no {channel} bandwidth "
        "series supplied" for channel in ("io", "mem")]


def test_a_failed_run_prints_only_its_error(tmp_path, capsys):
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    cfg["exponents"] = {"alpha": "x"}   # read after the envelope warned
    assert run(["certify", "--config", write_json(tmp_path / "bad.json", cfg),
                "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error [certify]: config key 'exponents.alpha' must be a number, "
        "got 'x'"]


def test_benchmark_spec_by_path_matches_inline(tmp_path):
    n = 300
    t = np.linspace(0.0, 10.0, n)
    write_series_csv(tmp_path / "task0.csv", t, np.exp(-(0.2 * t) ** 5 - 1e-9),
                     "loss")
    bench = {"tasks": [{"id": "task0", "weight": 1.0, "floor": 1e-16}],
             "t_ref": 0.0}
    cfg = {"series": {"losses": [{"path": str(tmp_path / "task0.csv"),
                                  "task": "task0"}]},
           "benchmark": bench, "estimation": {"window": 1.5}}
    texts = []
    for spec in (bench, write_json(tmp_path / "bench.json", bench)):
        cfg["benchmark"] = spec
        path = write_json(tmp_path / "cfg.json", cfg)
        run(["certify", "--config", path, "--out", tmp_path / "out"])
        texts.append((tmp_path / "out" / "certificate.json").read_text())
    assert texts[0] == texts[1]
    assert "loss:task0" in texts[0]


# ---------------------------------------------------------------------------
# fuzzed series and configs: exit 0, 2 or 3, or one located line


def run_quietly(argv):
    """(exit code, stderr lines) of one run, its warning lines included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue().splitlines()


def assert_clean_exit(code, err):
    assert code in (0, 2, 3) or (code == 1 and len(err) == 1), (code, err)
    assert not any("Traceback" in line for line in err)


JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.integers(-3, 3), st.floats(),
                 st.lists(st.integers(0, 3), max_size=2),
                 st.dictionaries(st.sampled_from(["t", "x"]), st.integers(0, 3),
                                 max_size=1))


def valid_series_doc(n=60):
    t = np.linspace(0.0, 0.9, n)
    return ts.TimeSeries("capability", "nat", t, 1.0 / (1.0 - t), None,
                         "fuzz").to_json_dict()


@st.composite
def series_documents(draw):
    """JSON text of a capability series, valid or broken in one or more
    ways: the document's shape, its keys, sample fields (wrong types,
    nan/inf, repeated or decreasing timestamps), the unit, or the text."""
    doc = valid_series_doc()
    samples = doc["samples"]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["field", "time", "drop", "unit", "key",
                                      "samples", "top", "quality"]))
        if fault == "field":
            s = draw(st.sampled_from(samples)) if samples else {}
            s[draw(st.sampled_from(["t", "value", "quality"]))] = draw(JUNK)
        elif fault == "time" and len(samples) > 1:
            i = draw(st.integers(1, len(samples) - 1))
            samples[i]["t"] = draw(st.sampled_from([samples[i - 1]["t"],
                                                    -1.0]))
        elif fault == "drop":
            del samples[draw(st.integers(0, 5)):]
        elif fault == "unit" and isinstance(doc, dict):
            doc["unit"] = draw(st.one_of(st.just("W"), JUNK))
        elif fault == "key" and isinstance(doc, dict):
            doc.pop(draw(st.sampled_from(["name", "unit", "samples"])), None)
        elif fault == "samples" and isinstance(doc, dict):
            doc["samples"] = draw(st.one_of(
                JUNK, st.just([[s["t"], s["value"]] for s in samples])))
        elif fault == "top":
            doc = draw(st.one_of(JUNK, st.just([doc])))
        elif fault == "quality":
            for s in samples:
                s["quality"] = draw(st.sampled_from([0.5, None, 2.0, -1.0]))
    text = json.dumps(doc)
    return draw(st.sampled_from([text, text, text, "", text[:-1],
                                 "\ufeff" + text]))


@settings(max_examples=150, deadline=None)
@given(text=series_documents(), command=st.sampled_from(["estimate",
                                                         "certify"]))
def test_fuzzed_json_series_exit_cleanly(tmp_path_factory, text, command):
    tmp = tmp_path_factory.mktemp("series")
    path = tmp / "capability.json"
    path.write_text(text, encoding="utf-8")
    cfg = write_json(tmp / "cfg.json", {
        "series": {"capability": str(path)},
        "estimation": {"window": 0.2}})
    code, err = run_quietly([command, "--config", cfg, "--out", tmp / "out"])
    assert_clean_exit(code, err)
    try:                            # is the file itself at fault?
        faulty = ts.read_json(path).unit != "nat"
    except Exception:
        faulty = True
    if faulty:
        assert code == 1 and str(path) in err[0], err


def fuzz_base_config(tmp):
    path = tmp / "capability.json"
    path.write_text(json.dumps(valid_series_doc(120)))
    return {"seed": 0,
            "series": {"capability": str(path)},
            "estimation": {"window": 0.2, "alpha": 0.05, "trim": 0.15,
                           "lag": "auto"},
            "certify": {"alpha": 0.05, "grad_norm": 2.0,
                        "wasserstein": {"gamma": 0.5, "L_xi": 0.1,
                                        "L_rho": 0.1, "delta_W": 0.1}},
            "phi": {"kind": "power_log", "p": 2.0, "c": 1.0},
            "capital": {"K0": 1.0, "r": 2.0, "zeta": 2.0, "delta": 0.0},
            "flags": {"capped_power": False}}


def config_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from config_paths(value, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("config")
    cfg = fuzz_base_config(tmp)
    paths = list(config_paths(cfg))
    for _ in range(data.draw(st.integers(1, 3))):
        *where, key = data.draw(st.sampled_from(paths))
        section = cfg
        for k in where:
            section = section.get(k) if isinstance(section, dict) else None
        if isinstance(section, dict):
            section[key] = data.draw(JUNK)
    path = write_json(tmp / "cfg.json", cfg)
    code, err = run_quietly(["certify", "--config", path, "--out",
                             tmp / "out"])
    assert_clean_exit(code, err)


ENVELOPE = {"P_max": 1e-18, "T_range": [300.0, 300.0],
            "cop_range": [1e9, 1e9]}
LOSS = {"path": "loss_t0.csv", "task": "t0"}
BENCH = {"tasks": [{"id": "t0", "weight": 1.0, "floor": 0.01}], "t_ref": 0.0}
REL = {"delta_use": 0.01, "delta_elec": 0.01, "delta_cop": 0.01,
       "delta_P": 0.01, "delta_T": 0.01}


@pytest.mark.parametrize("cfg, named", [
    ({"estimation": {"window": 0.1, "trim": "a"}}, "estimation.trim"),
    ({"phi": {"kind": "power", "p": "a"}}, "phi.p"),
    ({"capital": {"K0": "a", "r": 2.0, "zeta": 2.0}}, "capital.K0"),
    ({"certify": {"wasserstein": [1]}}, "wasserstein"),
    ({"estimation": {"window": math.inf}}, "estimation.window"),
    ({"estimation": {"window": 0.1, "trim": 0.3}}, "estimation.trim"),
    ({"certify": {"small_gain": "x"}}, "certify.small_gain"),
    ({"certify": {"envelope_tol": "x"}}, "certify.envelope_tol"),
    ({"certify": {"nonbinding_slack": [1]}}, "certify.nonbinding_slack"),
    ({"certify": {"nonbinding_fraction": "x"}}, "certify.nonbinding_fraction"),
    ({"certify": {"grad_norm": "x"}}, "certify.grad_norm"),
    ({"certify": {"wasserstein": {"gamma": "x", "L_xi": 0.1, "L_rho": 0.1,
                                  "delta_W": 0.1}}},
     "certify.wasserstein.gamma"),
    ({"certify": {"wasserstein": {"gamma": 0.5}}}, "certify.wasserstein.L_xi"),
    ({"estimation": {"window": 0.1, "lag": "x"}}, "estimation.lag"),
    ({"estimation": {"window": 0.1, "lag": 2.7}}, "estimation.lag"),
    ({"estimation": {"window": 0.1, "lag": -1}}, "estimation.lag"),
    ({"envelope_param": {"P_max": 1.0}}, "'envelope_param'"),
    ({"certify": {"envelope_tol ": 0}}, "'envelope_tol '"),
    ({"certify": {"alpah": 0.01}}, "certify key 'alpah'"),
    ({"estimation": {"window": 0.1, "windw": 0.2}}, "estimation key 'windw'"),
    ({"series": {"capability": "c.json", "Tt": "t.csv"}}, "series key 'Tt'"),
    ({"capital": {"K0": 1.0, "r": 2.0, "zeta": 2.0, "dleta": 0.1}},
     "capital key 'dleta'"),
    ({"flags": {"capped_pwr": True}}, "flags key 'capped_pwr'"),
    ({"exponents": {"alpha": 0.1, "chi": 0.1}}, "exponents key 'chi'"),
    ({"exponents": {"alpha": 0.1}}, "exponents.beta"),
    ({"phi": {"kind": "power", "p": 2.0, "exponent": 2.0}}, "'exponent'"),
    ({"certify": {"wasserstein": {"gamma": 0.5, "radius": 0.1}}},
     "'radius'"),
    ({"estimation": {"window": 0.1, "lag": True}}, "estimation.lag"),
    ({"estimation": {"window": "0.1"}}, "estimation.window"),
    ({"certify": {"alpha": "0.05"}}, "certify.alpha"),
    ({"envelope_params": {}}, "'P_max'"),
    ({"envelope_params": None}, "'envelope_params'"),
    ({"envelope_params": {**ENVELOPE, "eta_use_rnage": [1.0, 1.0]}},
     "envelope_params key 'eta_use_rnage'"),
    ({"envelope_params": {**ENVELOPE, "P_max": "1e-18"}},
     "envelope_params.P_max"),
    ({"envelope_params": {**ENVELOPE, "T_range": "ab"}},
     "envelope_params.T_range"),
    ({"envelope_params": {**ENVELOPE, "T_range": ["a", 300.0]}},
     "envelope_params.T_range"),
    ({"envelope_params": {"P_max": 1e-18, "T_range": [300.0, 300.0]}},
     "'cop_range'"),
    ({"envelope_params": {**ENVELOPE, "cop_range": [1e9]}},
     "envelope_params.cop_range"),
    ({"envelope_params": {**ENVELOPE, "sigma_eff": True}},
     "envelope_params.sigma_eff"),
    ({"series": {"losses": [{"task": "t0"}]}, "benchmark": BENCH},
     "missing config key 'series.losses[0].path'"),
    ({"series": {"losses": ["loss_t0.csv"]}, "benchmark": BENCH},
     "config key 'series.losses[0]' must be a JSON object"),
    ({"series": {"losses": [LOSS]}}, "needs config key 'benchmark'"),
    ({"series": {"losses": [LOSS]},
      "benchmark": {**BENCH, "tasks": [{**BENCH["tasks"][0],
                                        "weight": "0.4"}]}},
     "config key 'benchmark.tasks[0].weight' must be a number"),
    ({"series": {"losses": [LOSS]}, "benchmark": {**BENCH, "t_ref": "1.7e9"}},
     "config key 'benchmark.t_ref' must be a number"),
    ({"series": {"losses": [LOSS]}, "benchmark": {**BENCH, "t_rf": 0.0}},
     "unknown benchmark key 't_rf'"),
    ({"series": {"losses": [{**LOSS, "taks": "t0"}]}, "benchmark": BENCH},
     "unknown series.losses[0] key 'taks'"),
    ({"rel_errors": {**REL, "delta_P": "0.01"}},
     "config key 'rel_errors.delta_P' must be a number"),
    ({"rel_errors": {**REL, "delta_P": True}},
     "config key 'rel_errors.delta_P' must be a number"),
    ({"rel_errors": {**REL, "delta_typo": 0.01}},
     "unknown rel_errors key 'delta_typo'"),
    ({"hard_cap_p_use": True}, "config key 'hard_cap_p_use' must be a number"),
    ({"hard_cap_p_use": "5"}, "config key 'hard_cap_p_use' must be a number"),
    ({"series": {"capability": "c.json", "P_use": 5}},
     "config key 'series.P_use' must be a string"),
    # an inline benchmark is read even where no loss series uses it
    ({"benchmark": {"tsks": 1}}, "unknown benchmark key 'tsks'"),
    ({"benchmark": {"tasks": []}}, "missing config key 'benchmark.t_ref'"),
    ({"benchmark": {**BENCH, "t_ref": "0"}},
     "config key 'benchmark.t_ref' must be a number"),
    ({"benchmark": {**BENCH, "tasks": [{**BENCH["tasks"][0], "wieght": 1.0}]}},
     "unknown benchmark.tasks[0] key 'wieght'"),
    ({"benchmark": {**BENCH, "tasks": [{**BENCH["tasks"][0], "floor": -1.0}]}},
     "benchmark.tasks[0]: task 't0': floor must be positive"),
])
def test_config_type_faults_name_the_key(tmp_path, cfg, named):
    cap_path = capability_fixture(tmp_path)
    cfg = {"series": {"capability": cap_path},
           "estimation": {"window": 0.1}, **cfg}
    code, err = run_quietly(["certify", "--config",
                             write_json(tmp_path / "c.json", cfg),
                             "--out", tmp_path / "out"])
    assert code == 1 and len(err) == 1 and named in err[0], err


@pytest.mark.parametrize("cfg, named", [
    ({"flags": {"capped_power": "false"}}, "'flags.capped_power'"),
    ({"flags": {"capped_power": [0]}}, "'flags.capped_power'"),
    ({"flags": {"logistic_data": 0}}, "'flags.logistic_data'"),
    ({"flags": {"effort_floor": None}}, "'flags.effort_floor'"),
    ({"seed": 2.7}, "'seed'"),
])
def test_flags_and_seed_are_refused_not_coerced(tmp_path, cfg, named):
    # "false" once classified the region as B-capped in config_echo, and a
    # seed of 2.7 was echoed as 2
    cfg = {"series": {"capability": capability_fixture(tmp_path)},
           "estimation": {"window": 0.1},
           "capital": {"K0": 1.0, "r": 2.0, "zeta": 0.5}, **cfg}
    code, err = run_quietly(["certify", "--config",
                             write_json(tmp_path / "c.json", cfg),
                             "--out", tmp_path / "out"])
    assert code == 1 and len(err) == 1 and named in err[0], err


# a config that sets every key each declaration reads, to a value of its
# type that passes every range check; no series is ever read
FULL_PIPELINE = {
    "seed": 0,
    "series": {"capability": "c.json", "capability_rate": "r.json",
               "losses": [LOSS],
               **{role: f"{role}.csv" for role in (
                   "K", "C", "D_eff", "E", "P_fac", "T", "B_io", "B_mem",
                   "P_use", "COP")}},
    "benchmark": BENCH,
    "envelope_params": {**ENVELOPE, "eta_elec_range": [1.0, 1.0],
                        "eta_use_range": [1.0, 1.0], "sigma_eff": 1.0},
    "phi": {"kind": "power", "p": 2.0, "c": 1.0, "domain_floor": 1.0},
    "estimation": {"window": 0.1, "lag": 1, "alpha": 0.05, "trim": 0.15},
    "certify": {"alpha": 0.05, "small_gain": 0.0, "envelope_tol": 0.05,
                "nonbinding_slack": 0.1, "nonbinding_fraction": 0.5,
                "grad_norm": 0.0,
                "wasserstein": {"gamma": 0.5, "L_xi": 0.1, "L_rho": 0.1,
                                "delta_W": 0.1, "safety_delta": 0.1}},
    "exponents": {"alpha": 0.1, "beta": 0.0, "gamma": 0.0,
                  "alpha_tilde": 0.0, "rho": 0.5, "r": 1.0, "chi_hat": 0.1},
    "capital": {"K0": 1.0, "r": 2.0, "zeta": 2.0, "delta": 0.0},
    "flags": {"capped_power": False, "logistic_data": False,
              "effort_floor": False},
    "cop_model": {"T_hot": 320.0, "zeta_cop": 0.5},
    "hard_cap_b_mem": 1.0, "hard_cap_p_use": 1.0,
    "rel_errors": REL}
FULL_CONTROL = {
    "plant": {"phi": {"kind": "power", "p": 2.0, "c": 1.0,
                      "domain_floor": 1e-3},
              "I0": 1.0, "phi_svc_true": 1.0, "phi_svc_meas": 1.0,
              "n_steps": 5, "u_ref": 1.0, "state_error": 0.0, "latency": 0.0,
              "benchmark_every": 0, "antagonism": [0.0, 0.0],
              "ptot_hat": 0.5, "osgood_ok": True},
    "control": {"I_bar": 5.0, "kappa": 1.0, "Delta": 0.05, "tau_bar": 0.0,
                "L_h": 0.0, "eps_I": 0.0, "r_u": [1.0], "u_box": [[0.0, 1.0]],
                "slack_weight": 1e6},
    "policy": {"governance_delta": 0.1, "escalate_consecutive_slack": 3,
               "antagonism_theta": 0.5}}


# the other commands' configs, set as fully; the certificate document as
# certify writes it, non-finite numbers as strings
FULL_ENVELOPE = {"params": FULL_PIPELINE["envelope_params"], "alpha": 0.05,
                 **{key: FULL_PIPELINE[key] for key in (
                     "series", "cop_model", "hard_cap_b_mem",
                     "hard_cap_p_use", "rel_errors")}}
FULL_SCENARIO = {"phi": {"kind": "power", "p": 2.0, "c": 1.0,
                         "domain_floor": 1e-3},
                 "I0": 1.0, "horizon": 1.0, "gain": 1.0, "threshold": 1e6,
                 "rtol": 1e-8, "name": "trajectory"}
FULL_INGEST = {"files": [{"path": "c.csv", "unit": "nat",
                          "name": "capability"}]}
FULL_CERTIFICATE = {
    "verdict": "inconclusive",
    "segments": [{"range": [0.0, 1.0], "ptot_minus": 0.5, "ptot_plus": 1.5,
                  "se_minus": 0.1, "se_plus": 0.1,
                  "components_minus": {"p_hat_inf": 0.5},
                  "components_plus": {"p_hat_sup": 1.5},
                  "tests": {"superlinearity_plus": "reject",
                            "superlinearity_minus": "fail_to_reject",
                            "margin_minus": -0.5},
                  "envelope": {"pass_fraction": 1.0, "nonbinding": True,
                               "disabled": True}}],
    "envelope_pass_fraction": 1.0,
    "margins": {"ptot_margin": -0.5, "manifold_distance": None,
                "wasserstein_margin": "nan"},
    "osgood_divergent": False, "event_bound": None,
    "capital_escape_time": "inf", "config_echo": {"seed": 0},
    "data_snapshot_versions": {"capability": "fix01"},
    "notes": ["no envelope series supplied"]}
# (command, its full config, the declaration it is read by)
FULL_CONFIGS = ((cli.run_certify, FULL_PIPELINE, config.Config),
                (cli.run_control_sim, FULL_CONTROL, config.ControlSim),
                (cli.run_envelope, FULL_ENVELOPE, config.EnvelopeConfig),
                (cli.run_simulate, FULL_SCENARIO, config.Scenario),
                (cli.run_ingest, FULL_INGEST, config.Ingest),
                (cli.run_report, FULL_CERTIFICATE, ct.Certificate))


def arms(tp):
    """The types a key of type ``tp`` may hold."""
    return typing.get_args(tp) if typing.get_origin(tp) in config.UNIONS \
        else (tp,)


def section_of(tp, name):
    """The declaration a key ``name`` of type ``tp`` holds, if any.  A
    ``phi`` is read by PowerPhi here (the configs above set a power kind)
    and the ``benchmark`` object by BenchmarkSpec."""
    for arm in arms(tp):
        if arm is dict and name == "benchmark":
            return cap.BenchmarkSpec
        if arm is dyn.PhiSpec or dataclasses.is_dataclass(arm):
            return {dyn.PhiSpec: config.PowerPhi}.get(arm, arm)
    return None


def typed_keys(path, tp):
    """(key path, type) of the key at ``path`` and of every key within it:
    a section's keys and an array's first entry, recursively."""
    yield path, tp
    for arm in arms(tp):
        if typing.get_origin(arm) is tuple:
            yield from typed_keys(path + (0,), typing.get_args(arm)[0])
    section = section_of(tp, path[-1])
    if section is not None:
        yield from declared_keys(section, path)


def declared_keys(cls, path=()):
    """(key path, type) of every key ``cls`` reads, nested sections and
    the first entry of every array included."""
    for name, (tp, _) in config._fields(cls).items():
        yield from typed_keys(path + (name,), tp)


def key_text(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")


def faults(tp):
    """The values the property puts at a key of type ``tp``: each one that
    the type refuses of a bool, numeric text, null and a list, and at a
    number key NaN and an integer beyond the float range, and ±Infinity
    unless the key is Unbounded."""
    takes = arms(tp)
    out = [[True], *[fault for fault, kind in (
        (True, bool), ("0.5", str), (None, type(None))) if kind not in takes]]
    if any(config._shape(arm)[3] is config.NUMBER for arm in takes):
        out += [math.nan, BEYOND_FLOAT] if sc.Unbounded in takes \
            else [math.nan, BEYOND_FLOAT, math.inf, -math.inf]
    return out


UNKNOWN = object()      # stands for an unknown key beside the drawn one
PROPERTY_CASES = [(command, base, path, fault)
                  for command, base, decl in FULL_CONFIGS
                  for path, tp in declared_keys(decl)
                  for fault in [*faults(tp), *[UNKNOWN] * isinstance(
                      path[-1], str)]]


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_full_configs_set_every_declared_key():
    # the property below reaches every key only if these set each one
    for _, base, decl in FULL_CONFIGS:
        config.read(decl, base)
        for path, _ in declared_keys(decl):
            at(base, path)


def no_series(path, unit=None):
    return {}[path]     # no series: the run must stop at its config


no_series.document = no_series


def test_every_declared_key_refuses_a_value_of_another_type():
    # every case on every run: the whole set takes a fraction of a second
    for command, base, path, fault in PROPERTY_CASES:
        cfg = copy.deepcopy(base)
        if fault is UNKNOWN:
            at(cfg, path[:-1])["zz_unknown"] = 1.0
            parent = key_text(path[:-1])
            named = f"unknown {parent} key 'zz_unknown'" if parent \
                else "key 'zz_unknown'"
        else:
            at(cfg, path[:-1])[path[-1]] = fault
            named = key_text(path)
        try:
            command(cfg, certify_args("c.json"), no_series)
            text = "accepted"
        except cli.ConfigError as exc:
            text = str(exc)
        assert "\n" not in text and named in text, \
            (command.__name__, path, fault, text)


def test_misspelled_envelope_key_is_refused_by_both_commands(tmp_path):
    # the parent took the default efficiency range and certified
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    assert run(["certify", "--config", write_json(tmp_path / "ok.json", cfg),
                "--out", tmp_path / "ok"]) == 0
    cfg["envelope_params"]["eta_use_rnage"] = [0.5, 0.5]
    env_cfg = {"params": cfg["envelope_params"], "series": cfg["series"]}
    for command, doc, key in (("certify", cfg, "envelope_params"),
                              ("envelope", env_cfg, "params")):
        code, err = run_quietly([command, "--config",
                                 write_json(tmp_path / "bad.json", doc),
                                 "--out", tmp_path / "bad"])
        assert code == 1 and err == [
            f"error [{command}]: unknown {key} key 'eta_use_rnage'"]


def numeric_texts(doc):
    """The strings in a JSON document that float() would read."""
    if isinstance(doc, dict):
        return [s for v in doc.values() for s in numeric_texts(v)]
    if isinstance(doc, list):
        return [s for v in doc for s in numeric_texts(v)]
    try:
        return [doc] if isinstance(doc, str) and float(doc) is not None \
            else []
    except ValueError:
        return []


def test_acceptance_configs_hold_no_numeric_text(tmp_path):
    # config numbers must be JSON numbers; no config the acceptance gate
    # runs spells one as text
    import test_acceptance
    for build in (test_acceptance._case_a_config,
                  test_acceptance._case_b_config, case_a_config,
                  case_b_config):
        doc = json.loads(open(build(tmp_path)).read())
        assert numeric_texts(doc) == []
    assert numeric_texts({"a": ["1.5", "x", {"b": "1e3"}]}) == ["1.5", "1e3"]


@pytest.mark.parametrize("command", ["estimate", "certify"])
def test_both_commands_read_one_set_of_config_keys(tmp_path, command):
    # the README's full pipeline config passes either command; a
    # misspelled top-level key is refused by both
    cfg = json.loads(open(case_b_config(tmp_path)).read())
    cfg.update(benchmark={"tasks": [], "t_ref": 0.0},
               capital={"K0": 1.0, "r": 2.0, "zeta": 0.5},
               exponents={}, cop_model=None, hard_cap_b_mem=None,
               hard_cap_p_use=None, rel_errors=None)
    assert set(cfg) == set(config.PIPELINE_KEYS)
    out = tmp_path / "out"
    assert run([command, "--config", write_json(tmp_path / "ok.json", cfg),
                "--out", out]) == 0
    cfg["envelope_param"] = cfg.pop("envelope_params")
    code, err = run_quietly([command, "--config",
                             write_json(tmp_path / "bad.json", cfg),
                             "--out", tmp_path / "bad"])
    assert code == 1 and err == [
        f"error [{command}]: unknown config key 'envelope_param'"]


def test_import_loads_no_scipy_stats_or_integrate():
    # numpy and the top-level scipy package are the import-time needs;
    # scipy.stats and scipy.integrate would add ~430 modules to every
    # command's start-up
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, rsi_certify.cli; print(sorted(m for m in sys.modules"
             " if m.startswith(('scipy.stats', 'scipy.integrate'))))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_scipy_special():
    # the normal quantile is a port of Cephes ndtri; scipy.special is
    # loaded on first use, for E1 under a power_log Phi with p > 1
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, rsi_certify.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy.special' or m.startswith('scipy.special.')),"
             " 'scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[] True"


# ---------------------------------------------------------------------------
# files that are not what they claim: one line that names the file


@pytest.mark.parametrize("data", [b"{", b"\xff\xfe{}", b"[1, 2,]"])
def test_config_that_is_not_json_names_its_file(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    code, err = run_quietly(["certify", "--config", path,
                             "--out", tmp_path / "out"])
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith(f"error [certify]: {path}: ")


def test_benchmark_document_that_is_not_json_names_its_file(tmp_path):
    bench = tmp_path / "bench.json"
    bench.write_text('{"tasks": [', encoding="utf-8")
    write_series_csv(tmp_path / "task0.csv", np.linspace(0.0, 10.0, 50),
                     np.linspace(1.0, 0.5, 50), "loss")
    cfg = {"series": {"losses": [{"path": str(tmp_path / "task0.csv"),
                                  "task": "task0"}]},
           "benchmark": str(bench), "estimation": {"window": 1.5}}
    code, err = run_quietly(["certify", "--config",
                             write_json(tmp_path / "cfg.json", cfg),
                             "--out", tmp_path / "out"])
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith(f"error [certify]: {bench}: ")


@pytest.mark.parametrize("key, junk", [("t", [1.0]), ("value", [1.0]),
                                       ("t", {"s": 1.0}), ("quality", [0.5])])
def test_json_series_field_that_is_not_a_number_is_named(tmp_path, key, junk):
    doc = valid_series_doc()
    doc["samples"][3][key] = junk
    path = tmp_path / "capability.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = write_json(tmp_path / "cfg.json", {
        "series": {"capability": str(path)}, "estimation": {"window": 0.2}})
    code, err = run_quietly(["estimate", "--config", cfg,
                             "--out", tmp_path / "out"])
    assert code == 1 and len(err) == 1, err
    assert f"{path}: each sample's {key!r} must be a number" in err[0]


def test_module_run_writes_one_stderr_line(tmp_path):
    # python -m rsi_certify.cli: the package does not import cli first, so
    # runpy has no module to warn about and an error is one line
    path = tmp_path / "cfg.json"
    path.write_text("{", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "rsi_certify.cli", "certify", "--config",
         str(path), "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error [certify]: {path}: not a UTF-8 JSON document: Expecting "
        "property name enclosed in double quotes: line 1 column 2 (char 1)"]


# ---------------------------------------------------------------------------
# every artifact is strict JSON; every document may carry a BOM


def strict_json(text):
    """``text`` read as RFC 8259 JSON: a bare Infinity or NaN raises."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def escaping_plant(n_steps=5):
    # dI/dt = 50 I^3 u from I0 = 5 escapes within one period Delta = 1
    return {"plant": {"phi": {"kind": "power", "p": 3.0, "c": 50.0},
                      "I0": 5.0, "n_steps": n_steps},
            "control": {"I_bar": 10.0, "kappa": 1.0, "Delta": 1.0}}


def envelope_config(tmp_path, **params):
    t = np.linspace(0, 9, 10)
    write_series_csv(tmp_path / "p_use.csv", t, np.full(10, 1.0), "W")
    write_series_csv(tmp_path / "temp.csv", t, np.full(10, 300.0), "K")
    return {"params": {"P_max": 100.0, "T_range": [300.0, 320.0],
                       "cop_range": [1.0, 1.0], "sigma_eff": 1.0, **params},
            "series": {"P_use": str(tmp_path / "p_use.csv"),
                       "T": str(tmp_path / "temp.csv")}}


def infinite_capital_escape(tmp_path):
    cfg = json.loads(open(case_a_config(tmp_path)).read())
    cfg["capital"]["zeta"] = 1.0        # T_K is infinite
    return cfg


# case -> (command, config writer, exit code)
STRICT_CASES = {
    "control-sim-escape": ("control-sim", lambda tmp: escaping_plant(), 0),
    "envelope-overflow": ("envelope", lambda tmp: envelope_config(
        tmp, P_max=1e300, T_range=[1e-300, 320.0]), 0),
    "certify-infinite-escape": ("certify", infinite_capital_escape, 2),
}


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_every_json_artifact_is_strict(tmp_path, case):
    command, write, code = STRICT_CASES[case]
    path = tmp_path / "bom.json"
    path.write_text("\ufeff" + json.dumps(write(tmp_path)), encoding="utf-8")
    out = tmp_path / "out"
    assert run_quietly([command, "--config", path, "--out", out])[0] == code
    texts = []
    for artifact in sorted(out.iterdir()):
        if artifact.suffix in (".json", ".jsonl"):
            texts.append(artifact.read_text(encoding="utf-8"))
            for doc in (texts[-1].splitlines() if artifact.suffix == ".jsonl"
                        else [texts[-1]]):
                strict_json(doc)
    assert any(word in text for text in texts
               for word in ('"inf"', '"-inf"')), texts
    if command == "certify":     # report reads a BOM'd certificate
        cert = tmp_path / "certificate.json"
        cert.write_bytes(b"\xef\xbb\xbf" + (out / "certificate.json")
                         .read_bytes())
        assert run_quietly(["report", "--config", cert,
                            "--out", tmp_path / "rep"])[0] == 0
        assert (tmp_path / "rep" / "report.txt").read_bytes() == \
            (out / "report.txt").read_bytes()


def test_escaped_plant_shuts_down(tmp_path):
    path = write_json(tmp_path / "ctl.json", escaping_plant(n_steps=50))
    out = tmp_path / "out"
    assert run_quietly(["control-sim", "--config", path, "--out", out])[0] == 0
    summary = strict_json((out / "control_summary.json").read_text())
    steps = [strict_json(line) for line
             in (out / "control_log.jsonl").read_text().splitlines()]
    assert summary["final_status"] == "shutdown"
    assert summary["n_steps"] == len(steps) == 2
    assert [s["action"] for s in steps] == ["certify", "shutdown"]
    assert steps[-1]["I_true"] == "inf"


@pytest.mark.parametrize("benchmark_every", [0, 1, 2])
def test_escaped_plant_under_the_observer_shuts_down(tmp_path,
                                                     benchmark_every):
    # the observer's estimate of an escaped plant is not finite: the run
    # shuts down as the exact-state run does, with a strict JSON log
    cfg = {"plant": {"phi": {"kind": "power", "p": 2.0, "c": 1.0},
                     "I0": 10.0, "n_steps": 5,
                     "benchmark_every": benchmark_every},
           "control": {"I_bar": 1e300, "kappa": 1.0, "Delta": 1.0}}
    out = tmp_path / "out"
    assert run_quietly(["control-sim", "--config",
                        write_json(tmp_path / "ctl.json", cfg),
                        "--out", out]) == (0, [])
    summary = strict_json((out / "control_summary.json").read_text())
    steps = [strict_json(line) for line
             in (out / "control_log.jsonl").read_text().splitlines()]
    assert summary["final_status"] == "shutdown"
    assert [s["action"] for s in steps] == ["certify", "shutdown"]
    assert steps[-1]["I_true"] == "inf"


def test_envelope_band_overflows_to_infinity(tmp_path, capsys):
    cfg = envelope_config(tmp_path)
    cfg["rel_errors"] = dict.fromkeys(
        ("delta_use", "delta_elec", "delta_cop", "delta_P", "delta_T"), 0.01)
    cfg["rel_errors"]["delta_use"] = 400.0
    out = tmp_path / "out"
    assert run(["envelope", "--config", write_json(tmp_path / "env.json", cfg),
                "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning [envelope]: unconstrained channel: no {channel} bandwidth "
        "series supplied" for channel in ("io", "mem")]
    band = strict_json((out / "envelope.json").read_text())["phi_pt_bar"]["band"]
    assert band["interval_factors"][1] == "inf"


@pytest.mark.parametrize("fault, field", [
    ("no fields", "'verdict'"), ("no ptot_minus", "'segments[0].ptot_minus'"),
    ("segments 5", "'segments' must be an array")])
def test_report_names_the_faulty_certificate_field(tmp_path, fault, field):
    out = tmp_path / "out"
    assert run(["certify", "--config", case_a_config(tmp_path),
                "--out", out]) == 2
    doc = json.loads((out / "certificate.json").read_text())
    if fault == "no fields":
        doc = {}
    elif fault == "no ptot_minus":
        del doc["segments"][0]["ptot_minus"]
    else:
        doc["segments"] = 5
    path = write_json(tmp_path / "cert.json", doc)
    code, err = run_quietly(["report", "--config", path,
                             "--out", tmp_path / "rep"])
    assert code == 1 and len(err) == 1, err
    assert f"error [report]: {path}: " in err[0] and field in err[0], err


@pytest.mark.parametrize("path, text, named", [
    (("segments", 0, "ptot_minus"), "abc",
     "config key 'segments[0].ptot_minus' must be one of 'inf', '-inf', "
     "'nan', got 'abc'"),
    (("margins", "ptot_margin"), "abc",
     "config key 'margins.ptot_margin' must be one of 'inf', '-inf', "
     "'nan', got 'abc'"),
    (("verdict",), "totally-fine",
     "config key 'verdict' must be one of 'nonsingular-certified', "
     "'singular-admissible', 'inconclusive', got 'totally-fine'"),
], ids=["ptot_minus", "margin", "verdict"])
def test_report_refuses_a_string_the_certificate_never_writes(
        tmp_path, path, text, named):
    out = tmp_path / "out"
    assert run_quietly(["certify", "--config", case_a_config(tmp_path),
                        "--out", out])[0] == 2
    doc = json.loads((out / "certificate.json").read_text())
    at(doc, path[:-1])[path[-1]] = text
    cert = write_json(tmp_path / "cert.json", doc)
    assert run_quietly(["report", "--config", cert,
                        "--out", tmp_path / "rep"]) == (
        1, [f"error [report]: {cert}: {named}"])


def test_certify_writes_the_wasserstein_margin(tmp_path):
    cfg = json.loads(open(case_a_config(tmp_path)).read())
    w = {"gamma": 0.5, "L_xi": 0.1, "L_rho": 0.2, "delta_W": 0.1,
         "safety_delta": 0.05}
    cfg["certify"]["wasserstein"] = w
    out = tmp_path / "out"
    assert run_quietly(["certify", "--config",
                        write_json(tmp_path / "cfg.json", cfg),
                        "--out", out])[0] == 2
    doc = json.loads((out / "certificate.json").read_text())
    ptot_plus = max(s["ptot_plus"] for s in doc["segments"])
    dm = ct.distribution_margin(ptot_plus, w["gamma"], w["L_xi"], w["L_rho"],
                                w["delta_W"], w["safety_delta"])
    assert doc["margins"]["wasserstein_margin"] == \
        1.0 - w["safety_delta"] - dm.worst_case_ptot
    assert "margin wasserstein_margin: " in (out / "report.txt").read_text()


def test_exponents_without_capital_series_add_no_resource_term(tmp_path):
    # without series.K no capital elasticity is measured, so each segment's
    # bounds are the rolling profile's infimum and supremum alone
    cfg = json.loads(open(case_a_config(tmp_path)).read())
    cfg["exponents"] = dict(FULL_PIPELINE["exponents"])
    out = tmp_path / "out"
    assert run_quietly(["certify", "--config",
                        write_json(tmp_path / "cfg.json", cfg),
                        "--out", out])[0] == 2
    segments = json.loads((out / "certificate.json").read_text())["segments"]
    assert segments
    for s in segments:
        assert s["components_minus"] == {"p_hat_inf": s["ptot_minus"]}
        assert s["components_plus"] == {"p_hat_sup": s["ptot_plus"]}
