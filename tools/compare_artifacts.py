"""Byte-compare the CLI's outputs of two source trees on the benchmark inputs.

    python3 tools/compare_artifacts.py --parent ../old --change . --seeds 1 2 3

Each tree is a source checkout (its package under ``src/``).  For every
seed and workload the inputs are written once by the benchmark's own
generator (``perfbench/fixtures.py`` of this checkout, imported as it
is), and each tree then runs all of them in one fresh interpreter of its
own, through ``rsi_certify.cli.main`` as the benchmark's worker calls it.
On a certify fixture it runs ``certify``, ``estimate`` (the other command
that reads the certify config), ``envelope`` (on the fixture's envelope
series roles with its ``envelope_params`` as ``params``, where it has
them) and ``ingest`` (on the fixture's CSV series), ``certify`` again with
its ``phi`` made ``CERTIFY_PHI`` (a ``power_log`` Phi with p > 1, whose
Osgood integral is the exponential integral E1: the one command path that
loads ``scipy.special``), where the fixture sets a ``phi``
(``<fixture>-power-log``), and ``certify`` and ``ingest`` again on a copy
of the fixture whose CSV files have CRLF line ends (``<fixture>-crlf``),
and ``certify`` and ``estimate`` again with ``--window`` (``FLAG_WINDOW``
times the config's) and ``--alpha`` set, and ``--seed`` for ``certify``
(``<fixture>-flags``, ``<fixture>-estimate-flags``).  After each of these
``certify`` runs it runs ``report`` on the ``certificate.json`` that
tree's ``certify`` wrote (``<run>-report``), so the report is rendered
from every verdict and margin set the fixtures reach.  On the first certify
fixture it also runs ``certify`` and ``estimate`` on each of ``FAULTS``, a
faulty config or a flag out of range (``fault-<name>-<command>``),
``envelope`` with ``alpha`` 1.5, and ``report`` on each of
``REPORT_FAULTS``, the ``certificate.json`` that tree's ``certify`` wrote
with one fault (``fault-<name>-report``: an empty document, a segment
without ``ptot_minus``, an unknown segment key, a text ``ptot_margin``, a
number for ``segments``), so that the error messages and the order in
which they are reported are compared too.  On a control fixture
it runs ``control-sim``, and ``simulate`` in both ``--format``s from the
plant's ``phi`` and ``I0`` over a horizon of 1 s; it runs them again with
the plant's exponent set to each of ``PLANT_EXPONENTS``, with each of
``PLANT_VARIANTS`` (a control period split by latency, an observer, no or
negative service, a ``power_log`` plant), with each of ``qp_variants``
(a rate limit that binds, unequal per-channel boxes, a ceiling below the
state), and once each on ``OVERFLOW_CONFIG``, ``STAGE_OVERFLOW_CONFIG``
and ``LATENCY_OVERFLOW_CONFIG``, plants that overflow first in the
supervisor's Phi, first in the plant, and under a latency.  So the plant
runs both in closed form (a ``power`` Phi) and in RK4 stages through
Phi's evaluator (``power_log``, negative service), over whole, split and
escaping periods, and the barrier QP runs both on the box built with the
config and on the box its rate window cuts, with and without slack (and
escalation).  On the first control fixture it also runs ``control-sim``
on each of ``CONTROL_FAULTS`` (``fault-<name>-control-sim``), each a
plant rule broken, so that those error lines are compared too.  Every
artifact, exit code, stdout and stderr must be byte-identical between the
trees.  Prints one line per difference and a summary; exits 0 when there
is none, 1 otherwise.  A control log's line gives the largest relative
difference of its I_true.  A certify or estimate artifact's (``.csv`` or
``.json``) ends "numbers only, largest relative difference R" when the
two have the same keys, columns, lengths and non-numeric values, else
"structure differs"; the summary counts both kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("certify-8k", "certify-fleet", "control-1ch", "control-6ch")
# the series roles the envelope command reads, as the certify config names them
ENVELOPE_ROLES = ("P_fac", "T", "B_io", "B_mem", "P_use", "COP")
# the Phi keys set on each certify fixture's phi (its c and domain floor
# are kept) for the ``<fixture>-power-log`` run
CERTIFY_PHI = {"kind": "power_log", "p": 1.5}
# the flags of each certify fixture's ``-flags`` runs: --window is this
# fraction of the config's window
FLAG_WINDOW = 0.75
FLAG_ARGS = ("--alpha", "0.1")
FLAG_SEED = ("--seed", "7")


def section(cfg, name, **keys) -> dict:
    """``cfg`` with ``keys`` set in its section ``name``."""
    return dict(cfg, **{name: dict(cfg[name], **keys)})


# faults run on the first certify fixture (a loss-series config), by name:
# (the config's change or None, the flags); each is run by certify and
# estimate.  The window and the test level out of range, by key and by
# flag; each rule between keys; an unknown benchmark key; and a window
# fault beside a lag fault, where the window's is reported.
FAULTS = {
    "window0": (lambda c: section(c, "estimation", window=0.0), ()),
    "window-nan": (lambda c: section(c, "estimation", window=math.nan), ()),
    "window0-flag": (None, ("--window", "0")),
    "window-nan-flag": (None, ("--window", "nan")),
    "alpha": (lambda c: section(section(c, "estimation", alpha=1.5),
                                "certify", alpha=1.5), ()),
    "alpha-flag": (None, ("--alpha", "1.5")),
    "lag": (lambda c: section(c, "estimation", lag=-1), ()),
    "losses-no-benchmark": (lambda c: {k: v for k, v in c.items()
                                       if k != "benchmark"}, ()),
    "no-series": (lambda c: dict(c, series={
        k: v for k, v in c["series"].items() if k != "losses"}), ()),
    "benchmark-key": (lambda c: section(c, "benchmark", zz_unknown=1.0), ()),
    "window0-lag": (lambda c: section(c, "estimation", window=0.0, lag=-1),
                    ()),
}
# report faults run on the first certify fixture's certificate, by name:
# the document's change, made to the certificate each tree wrote
REPORT_FAULTS = {
    "empty": lambda doc: {},
    "segment-no-ptot-minus": lambda doc: dict(doc, segments=[
        {k: v for k, v in doc["segments"][0].items() if k != "ptot_minus"}]),
    "segment-key": lambda doc: dict(doc, segments=[
        dict(doc["segments"][0], zz_unknown=1.0)]),
    "margin-text": lambda doc: section(doc, "margins", ptot_margin="abc"),
    "segments-number": lambda doc: dict(doc, segments=5),
}
# Phi exponents run on each control fixture's plant besides its own p = 2:
# those Phi evaluates in plain floats, and 2 + 1 ulp, which takes np.power
PLANT_EXPONENTS = (0.0, 0.5, 1.0, math.nextafter(2.0, math.inf))
# plant and control keys set on each control fixture, by run name: the
# period split by an actuation latency, an observer whose telemetry
# misreads phi_svc, no service, a negative one under a positive reading (a
# plant the supervisor keeps running), and a power_log Phi from a state
# above its floor
PLANT_VARIANTS = {
    "latency": ({"latency": 0.005}, {"tau_bar": 0.005}),
    "observer": ({"benchmark_every": 3, "phi_svc_meas": 0.8}, {}),
    "svc0": ({"phi_svc_true": 0.0}, {}),
    "svc-neg": ({"phi_svc_true": -0.5, "phi_svc_meas": 1.0}, {}),
    "power-log": ({"phi": {"kind": "power_log", "p": 1.5, "c": 0.5},
                   "I0": 3.0}, {}),
}
# control-sim faults run on the first control fixture, by name, as plant
# and control keys set: a latency beyond the period, one beyond tau_bar, a
# negative one, a state error beyond eps_I, a state below Phi's floor, and
# no steps
CONTROL_FAULTS = {
    "latency-delta": ({"latency": 0.05}, {"tau_bar": 0.05}),
    "latency-tau-bar": ({"latency": 0.005}, {}),
    "latency-negative": ({"latency": -0.005}, {}),
    "state-error-eps-i": ({"state_error": 0.005}, {}),
    "I0-floor": ({"I0": -1.0}, {}),
    "no-steps": ({"n_steps": 0}, {}),
}


def qp_variants(m) -> dict:
    """Control keys that move the barrier QP off the benchmark's path on
    ``m`` channels, by run name: a rate limit whose window binds while the
    throttle ramps up from 0, unequal per-channel boxes (for m = 1, one
    box other than [0, 1]) and a ceiling below the initial state, where
    the QP takes slack at every step and the supervisor escalates."""
    return {
        "rate": ({}, {"r_u": [2.0] * m}),
        "boxes": ({}, {"u_box": [[0.0, 0.9 - 0.1 * i] for i in range(m)]}),
        "slack": ({}, {"I_bar": 1.0}),
    }


# a plant whose Phi = I^2 overflows: numpy's value and its warning
OVERFLOW_CONFIG = {
    "plant": {"phi": {"kind": "power", "p": 2.0, "c": 1.0}, "I0": 1e155,
              "n_steps": 5},
    "control": {"I_bar": 1e300, "kappa": 1.0, "Delta": 1.0}}
# the same from 1e150, where the supervisor's Phi(I) = 1e300 is finite and
# the plant's first period passes its escape time
STAGE_OVERFLOW_CONFIG = dict(OVERFLOW_CONFIG, plant=dict(
    OVERFLOW_CONFIG["plant"], I0=1e150))


def with_keys(cfg, plant, control) -> dict:
    """The control config ``cfg`` with ``plant`` and ``control`` keys set."""
    return dict(cfg, plant=dict(cfg["plant"], **plant),
                control=dict(cfg["control"], **control))


# OVERFLOW_CONFIG under a latency: the first hold's violation, inf * 0, is
# NaN, which reads as inf, as the second hold's is
LATENCY_OVERFLOW_CONFIG = with_keys(OVERFLOW_CONFIG, {"latency": 0.005},
                                    {"Delta": 0.02, "tau_bar": 0.005})


def write_config(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return path


def crlf_copy(d, cfg) -> tuple[str, dict]:
    """A copy of the fixture directory ``d`` whose CSV files end their
    lines with CRLF, and its config, whose paths into ``d`` name the copy."""
    crlf = d + "-crlf"
    os.makedirs(crlf)
    for name in os.listdir(d):
        with open(os.path.join(d, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".csv"):
            data = data.replace(b"\n", b"\r\n")
        with open(os.path.join(crlf, name), "wb") as fh:
            fh.write(data)
    text = json.dumps(cfg).replace(json.dumps(d + os.sep)[1:-1],
                                   json.dumps(crlf + os.sep)[1:-1])
    return crlf, json.loads(text)


def ingest_run(rid, d) -> list[dict]:
    """``ingest`` of the CSV files in ``d``, if it holds any."""
    files = [{"path": os.path.join(d, name)}
             for name in sorted(os.listdir(d)) if name.endswith(".csv")]
    return [{"id": f"{rid}-ingest", "cmd": "ingest",
             "config": write_config(os.path.join(d, "ingest.json"),
                                    {"files": files})}] if files else []


def envelope_config(cfg, **keys) -> dict:
    """The envelope config of a certify config's envelope series roles and
    ``envelope_params``, with ``keys``."""
    return {"series": {role: cfg["series"][role] for role in ENVELOPE_ROLES
                       if role in cfg["series"]},
            "params": cfg["envelope_params"], **keys}


def certificate(rid) -> str:
    """The ``certificate.json`` that the certify run ``rid`` writes,
    relative: in each tree's output."""
    return os.path.join(rid, "certificate.json")


def certify_runs(rid, config, args=()) -> list[dict]:
    """``certify`` on ``config`` with the flags ``args``, and ``report`` on
    the certificate it writes (``<rid>-report``)."""
    return [{"id": rid, "cmd": "certify", "config": config,
             "args": list(args)},
            {"id": f"{rid}-report", "cmd": "report",
             "config": certificate(rid)}]


def fault_runs(d, cfg, cert) -> list[dict]:
    """``FAULTS`` on the certify config ``cfg`` of the fixture ``d``,
    ``envelope`` with a test level out of range, and ``REPORT_FAULTS`` on
    the certificate ``cert`` that the fixture's ``certify`` run writes."""
    runs = []
    for name, (change, args) in FAULTS.items():
        config = os.path.join(d, "config.json") if change is None \
            else write_config(os.path.join(d, f"fault-{name}.json"),
                              change(cfg))
        runs += [{"id": f"fault-{name}-{cmd}", "cmd": cmd, "config": config,
                  "args": list(args)} for cmd in ("certify", "estimate")]
    return runs + [{"id": "fault-alpha-envelope", "cmd": "envelope",
                    "config": write_config(
                        os.path.join(d, "fault-alpha-envelope.json"),
                        envelope_config(cfg, alpha=1.5))}] + [
        {"id": f"fault-{name}-report", "cmd": "report", "config": cert,
         "fault": name} for name in REPORT_FAULTS]


def build_runs(seeds, workloads, root) -> list[dict]:
    """Write the fixtures under ``root``; one record per CLI run."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import fixtures

    runs, faulted, control_faulted = [], False, False
    for seed in seeds:
        for workload in workloads:
            base = os.path.join(root, "inputs", f"{workload}-s{seed}")
            for d in fixtures.build_workload(workload, seed, base):
                with open(os.path.join(d, "truth.json"), encoding="utf-8") as fh:
                    kind = json.load(fh)["kind"]
                rid = os.path.relpath(d, os.path.join(root, "inputs"))
                config = os.path.join(d, "config.json")
                with open(config, encoding="utf-8") as fh:
                    cfg = json.load(fh)
                if kind == "certify":
                    runs += [*certify_runs(rid, config),
                             {"id": f"{rid}-estimate", "cmd": "estimate",
                              "config": config}]
                    if "envelope_params" in cfg:
                        runs.append({"id": f"{rid}-envelope", "cmd": "envelope",
                                     "config": write_config(
                                         os.path.join(d, "envelope.json"),
                                         envelope_config(cfg))})
                    runs += ingest_run(rid, d)
                    if "phi" in cfg:
                        runs += certify_runs(f"{rid}-power-log", write_config(
                            os.path.join(d, "power-log.json"),
                            dict(cfg, phi={**cfg["phi"], **CERTIFY_PHI})))
                    crlf, crlf_cfg = crlf_copy(d, cfg)
                    runs += [*certify_runs(f"{rid}-crlf", write_config(
                                 os.path.join(crlf, "config.json"), crlf_cfg)),
                             *ingest_run(f"{rid}-crlf", crlf)]
                    window = ("--window",
                              repr(FLAG_WINDOW * cfg["estimation"]["window"]))
                    runs += [*certify_runs(f"{rid}-flags", config,
                                           [*window, *FLAG_ARGS, *FLAG_SEED]),
                             {"id": f"{rid}-estimate-flags", "cmd": "estimate",
                              "config": config,
                              "args": [*window, *FLAG_ARGS]}]
                    if not faulted:
                        runs += fault_runs(d, cfg, certificate(rid))
                        faulted = True
                else:
                    runs += control_runs(rid, d, cfg)
                    for p in PLANT_EXPONENTS:
                        plant = dict(cfg["plant"],
                                     phi=dict(cfg["plant"]["phi"], p=p))
                        runs += control_runs(f"{rid}-p{p!r}", d,
                                             dict(cfg, plant=plant))
                    variants = {**PLANT_VARIANTS,
                                **qp_variants(len(cfg["control"]["u_box"]))}
                    for name, (plant, control) in variants.items():
                        runs += control_runs(f"{rid}-{name}", d,
                                             with_keys(cfg, plant, control))
                    if not control_faulted:
                        runs += [{"id": f"fault-{name}-control-sim",
                                  "cmd": "control-sim",
                                  "config": write_config(
                                      os.path.join(d, f"fault-{name}.json"),
                                      with_keys(cfg, *keys))}
                                 for name, keys in CONTROL_FAULTS.items()]
                        control_faulted = True
    if any(w.startswith("control") for w in workloads):
        d = os.path.join(root, "inputs", "overflow")
        os.makedirs(d)
        runs += control_runs("overflow", d, OVERFLOW_CONFIG)
        runs += control_runs("overflow-stage", d, STAGE_OVERFLOW_CONFIG)
        runs += control_runs("overflow-latency", d, LATENCY_OVERFLOW_CONFIG)
    return runs


def control_runs(rid, d, cfg) -> list[dict]:
    """``control-sim`` on ``cfg``, and ``simulate`` of its plant in both
    formats, with their configs written to ``d``."""
    name = os.path.basename(rid)
    runs = [{"id": rid, "cmd": "control-sim",
             "config": write_config(os.path.join(d, f"{name}.json"), cfg)}]
    scenario = write_config(
        os.path.join(d, f"{name}-simulate.json"),
        {"phi": cfg["plant"]["phi"], "I0": cfg["plant"]["I0"],
         "horizon": 1.0})
    return runs + [{"id": f"{rid}-simulate-{fmt}", "cmd": "simulate",
                    "config": scenario, "args": ["--format", fmt]}
                   for fmt in ("json", "csv")]


def run_tree(tree, runs, out_root) -> dict:
    """Exit code, stdout and stderr of each run, from one interpreter on
    ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree),
                                                   "src"))
    spec = os.path.join(out_root, "runs.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "out": out_root}, fh)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                    spec], env=env, cwd=tree, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(os.path.join(out_root, "results.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child(spec_path) -> None:
    """Run every CLI call of ``spec_path`` in this interpreter."""
    import rsi_certify.cli

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    # relative --out paths, so that a message naming one reads alike in
    # both trees
    os.chdir(spec["out"])
    results = {}
    for r in spec["runs"]:
        config = r["config"]
        if "fault" in r:    # the certificate this tree wrote, with the fault
            with open(config, encoding="utf-8") as fh:
                doc = REPORT_FAULTS[r["fault"]](json.load(fh))
            config = write_config(f"{r['id']}.json", doc)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = rsi_certify.cli.main(
                [r["cmd"], "--config", config, "--out", r["id"],
                 *r.get("args", ())])
        results[r["id"]] = {"code": code, "stdout": stdout.getvalue(),
                            "stderr": stderr.getvalue()}
    with open("results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def files_under(d) -> dict:
    out = {}
    for base, _, names in os.walk(d):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, d)] = fh.read()
    return out


def compare(runs, outs, results) -> list[str]:
    """One line per artifact, exit code, stdout or stderr that differs; a
    differing certify or estimate artifact (.csv or .json) says whether
    only its numbers moved."""
    diffs = []
    for r in runs:
        rid = r["id"]
        parent, change = (res[rid] for res in results)
        p_out, c_out = (os.path.join(o, rid) for o in outs)
        if parent["code"] != change["code"]:
            diffs.append(f"{rid}: exit code {parent['code']} != "
                         f"{change['code']}")
        for stream in ("stdout", "stderr"):
            if parent[stream] != change[stream]:
                diffs.append(f"{rid}: {stream} differs")
        p_files, c_files = files_under(p_out), files_under(c_out)
        for name in sorted(set(p_files) | set(c_files)):
            if p_files.get(name) != c_files.get(name):
                state = ("only in parent" if name not in c_files else
                         "only in change" if name not in p_files else
                         "differs")
                if state == "differs" and name == "control_log.jsonl":
                    state += f" ({state_move(p_files[name], c_files[name])})"
                elif state == "differs" and name.endswith((".csv", ".json")) \
                        and r["cmd"] in ("certify", "estimate"):
                    state += ", " + number_move(name, p_files[name],
                                                c_files[name])
                diffs.append(f"{rid}/{name}: {state}")
    return diffs


def state_move(parent: bytes, change: bytes) -> str:
    """How far two control logs' I_true moved: the largest relative
    difference over the steps both logged, and the step counts if they
    differ.  A non-finite I_true is logged as the text "inf" or "nan"."""
    p_run, c_run = ([float(json.loads(line)["I_true"])
                     for line in log.splitlines()] for log in (parent, change))
    move = max((0.0 if c == p else abs(c - p) / abs(p)
                for p, c in zip(p_run, c_run)), default=0.0)
    text = f"largest relative I_true difference {move:.3g}"
    if len(p_run) != len(c_run):
        text += f", {len(p_run)} steps != {len(c_run)}"
    return text


def tokens(name, data: bytes) -> list:
    """The parts of a .json or .csv artifact in order: each key, each
    list's or row's length, each value or cell, the numbers as floats."""
    out = []

    def walk(v):
        if isinstance(v, dict):
            for key, item in v.items():
                out.append(("key", key))
                walk(item)
        elif isinstance(v, list):
            out.append(("length", len(v)))
            for item in v:
                walk(item)
        else:
            out.append(float(v) if isinstance(v, (int, float))
                       and not isinstance(v, bool) else ("value", v))

    text = data.decode("utf-8")
    if name.endswith(".json"):
        walk(json.loads(text))
    else:
        for row in csv.reader(text.splitlines()):
            out.append(("length", len(row)))
            for cell in row:
                try:
                    out.append(float(cell))
                except ValueError:
                    out.append(("value", cell))
    return out


def number_move(name, parent: bytes, change: bytes) -> str:
    """Whether only the numbers of two artifacts moved: "numbers only"
    and their largest relative difference, when the two have the same
    keys, columns, lengths and non-numeric values, else "structure
    differs"."""
    try:
        p_parts, c_parts = tokens(name, parent), tokens(name, change)
    except ValueError:
        return "structure differs"
    if len(p_parts) != len(c_parts):
        return "structure differs"
    move = 0.0
    for p, c in zip(p_parts, c_parts):
        if isinstance(p, float) and isinstance(c, float):
            if p != c and not (math.isnan(p) and math.isnan(c)):
                rel = abs(c - p) / abs(p) if p else math.inf
                move = max(move, rel if rel == rel else math.inf)
        elif p != c:
            return "structure differs"
    return f"numbers only, largest relative difference {move:.3g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="source tree of the reference")
    ap.add_argument("--change", help="source tree under test")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as root:
        runs = build_runs(args.seeds, args.workloads, root)
        outs = [os.path.join(root, side) for side in ("parent", "change")]
        results = []
        for tree, out in zip((args.parent, args.change), outs):
            os.makedirs(out)
            results.append(run_tree(tree, runs, out))
        diffs = compare(runs, outs, results)
        n_files = sum(len(files_under(os.path.join(outs[0], r["id"])))
                      for r in runs)
    for line in diffs:
        print(line)
    numbers = sum("numbers only" in line for line in diffs)
    structure = sum(line.endswith("structure differs") for line in diffs)
    print(f"{len(runs)} runs ({n_files} artifacts per tree) on seeds "
          f"{' '.join(map(str, args.seeds))}: "
          + (f"{len(diffs)} difference(s), {numbers} numbers only, "
             f"{structure} structure differs" if diffs else "byte-identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
