"""One workload in one fresh process: the benchmark's measuring side.

Started by ``run.py``; drives ``rsi_certify.cli.main`` in-process, one
operation at a time (a closed loop with one client), checks every output
and writes its measurements as JSON to ``--result``.

With ``--trace 0`` it times operations for ``--seconds``.  With
``--trace 1`` it alternates untraced and traced passes over the
workload's inputs for ``--seconds``, then runs the scaling sweeps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import rsi_certify  # noqa: E402
import rsi_certify.cli  # noqa: E402,F401  (loads every layer module)

import checks  # noqa: E402
import fixtures  # noqa: E402
from tracer import COUNTER_NAMES, SPAN_NAMES, Tracer, bindings  # noqa: E402

MIN_OPS = 3                      # timed operations per run, at least
PARENT_SPANS = ("cli.main", "safectl.supervise")
QP_SWEEP = {1: 200, 2: 200, 4: 100, 6: 30, 8: 8}   # m -> instances
QP_RHO = 1e6
STAGES = {
    "ingest": ("series.ingest_csv", "series.read_json"),
    "capability": ("capability.loss_index", "capability.canonicalize"),
    "rolling_elasticity": ("estimate.rolling_elasticity",),
    "capital_elasticity": ("series.elasticity",),
    "segmentation": ("estimate.sup_wald_breaks",),
    "envelope": ("envelopes.compute_envelope", "certify.envelope_check"),
    "osgood": ("dynamics.osgood_classify",),
    "decide": ("certify.decide",),
    "report": ("cli.render_report",),
    "cli": ("cli.main",),
}


class Runner:
    """Runs and checks operations on a workload's fixture directories."""

    def __init__(self, dirs):
        self.inputs = []
        for d in dirs:
            with open(os.path.join(d, "truth.json"), encoding="utf-8") as fh:
                truth = json.load(fh)
            cmd = "certify" if truth["kind"] == "certify" else "control-sim"
            self.inputs.append((d, cmd, truth))
        self.references = {}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def op(self, index) -> float:
        """One CLI operation; returns its wall time.  The output check runs
        after the timed region."""
        d, cmd, truth = self.inputs[index]
        out = os.path.join(d, "out")
        argv = [cmd, "--config", os.path.join(d, "config.json"), "--out", out]
        start = time.perf_counter()
        code = rsi_certify.cli.main(argv)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if cmd == "certify":
            try:
                with open(os.path.join(out, "certificate.json"), "rb") as fh:
                    cert = fh.read()
            except OSError:
                cert = None
            found = checks.check_certify(code, cert, truth,
                                         self.references.get(d))
            if cert is not None:
                self.references.setdefault(d, cert)
        else:
            found = checks.check_control(code, out, truth)
        self.record(os.path.basename(d), found)
        return elapsed

    def record(self, label, found):
        """Count one checked operation that produced ``found`` failures."""
        self.failed += bool(found)
        self.messages.extend(f"{label}: {msg}" for msg in found)

    def one_pass(self) -> list[float]:
        return [self.op(i) for i in range(len(self.inputs))]


REF_GRID = np.linspace(0.0, 1.0, 8000)
REF_EVERY_S = 0.5       # one more reference sample per 0.5 s of operation
REF_MAX_SAMPLES = 8


def reference_s() -> float:
    """Wall time of a fixed kernel shaped like the program's work: windowed
    numpy reductions on an 8000-point grid, then a plain Python loop."""
    start = time.perf_counter()
    for c in REF_GRID[::20]:
        w = REF_GRID[np.abs(REF_GRID - c) <= 0.05]
        float((w * w).sum() / w.sum())
    s = 0
    for i in range(60000):
        s += i * i
    return time.perf_counter() - start


def measure(runner, seconds):
    """Untraced closed loop: whole passes until ``seconds`` have elapsed
    and at least MIN_OPS operations were timed.

    The sandbox this was tuned on changes speed by up to 1.4x in phases of
    seconds to minutes.  So the reference kernel also runs before the first
    operation and after each one, more often after longer operations.  Each
    operation is divided by the mean of the medians on either side of it."""
    times, refs = [], [reference_s()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(times) < MIN_OPS:
        for i in range(len(runner.inputs)):
            times.append(runner.op(i))
            samples = min(REF_MAX_SAMPLES, 1 + int(times[-1] / REF_EVERY_S))
            refs.append(statistics.median(
                reference_s() for _ in range(samples)))
    op_ref = [t / (0.5 * (refs[i] + refs[i + 1]))
              for i, t in enumerate(times)]
    return {"op_times": times, "op_ref": op_ref,
            "ref_s": statistics.median(refs)}


def traced(runner, seconds, seed, sweep_dirs, errors):
    """Alternate untraced and traced passes; per-layer figures are means
    per traced pass.  Then the scaling sweeps."""
    untraced_passes, traced_passes = [], []
    tracer = Tracer(rsi_certify)
    originals = bindings(rsi_certify)
    start = time.perf_counter()
    while not traced_passes or time.perf_counter() - start < seconds:
        # alternate which side of the pair runs first
        for side in ((0, 1) if len(traced_passes) % 2 == 0 else (1, 0)):
            if side:
                with tracer:
                    traced_passes.append(sum(runner.one_pass()))
            else:
                untraced_passes.append(sum(runner.one_pass()))
        if bindings(rsi_certify) != originals:
            errors.append("tracer left a wrapper installed")
    k = len(traced_passes)
    metrics = dict.fromkeys(COUNTER_NAMES, 0.0)
    self_times = tracer.self_times()
    for name in SPAN_NAMES:
        metrics[time_metric(name)] = self_times[name] / k
    for key, value in tracer.counters.items():
        metrics[key] = value / k
    root = tracer.root_time()
    if not math.isclose(sum(self_times.values()), root, rel_tol=1e-9):
        errors.append(
            f"self times sum to {sum(self_times.values())!r}, root spans "
            f"to {root!r}")
    metrics["trace.pass_s"] = root / k
    untraced_med = statistics.median(untraced_passes)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_passes) - untraced_med) / untraced_med
    metrics.update(stage_sweep(runner, sweep_dirs))
    metrics.update(qp_sweep(runner, seed))
    return {"metrics": metrics, "passes": k}


def time_metric(span_name):
    """Spans with traced children report self time, named ``.self_s``."""
    return f"{span_name}.self_s" if span_name in PARENT_SPANS \
        else f"{span_name}.s"


def stage_sweep(runner, sweep_dirs):
    """One traced certify per sample count; the per-stage self times and
    the log-log growth exponent of the rolling elasticity."""
    sweep = Runner([sweep_dirs[n] for n in fixtures.SWEEP_NS])
    sweep.op(0)                       # warm the certify path untraced
    metrics = {}
    rolling = []
    for i, n in enumerate(fixtures.SWEEP_NS):
        tracer = Tracer(rsi_certify)
        with tracer:
            sweep.op(i)
        self_times = tracer.self_times()
        metrics[f"certify.stage_s.n{n}"] = tracer.root_time()
        for stage, names in STAGES.items():
            metrics[f"certify.stage_s.n{n}.{stage}"] = sum(
                self_times[name] for name in names)
        rolling.append(self_times["estimate.rolling_elasticity"])
    slope = np.polyfit(np.log(fixtures.SWEEP_NS), np.log(rolling), 1)[0]
    metrics["estimate.rolling_elasticity.n_exponent"] = float(slope)
    runner.attempted += sweep.attempted
    runner.failed += sweep.failed
    runner.messages.extend(f"sweep {msg}" for msg in sweep.messages)
    return metrics


def qp_instances(seed, m, count):
    """Generated QP instances with the barrier row active."""
    rng = fixtures.rng_for(seed, 2000 + m)
    for _ in range(count):
        u_ref = rng.uniform(0.0, 1.0, m)
        u_prev = rng.uniform(0.0, 1.0, m)
        a = rng.uniform(0.5, 2.0, m)
        lo = np.maximum(0.0, u_prev - 0.5)
        hi = np.minimum(1.0, u_prev + 0.5)
        b = 0.5 * float(a @ np.clip(u_ref, lo, hi))
        yield u_ref, u_prev, a, b, lo, hi


def qp_sweep(runner, seed):
    """Microseconds per qp_step call against channel count, each result
    checked against the KKT conditions."""
    sc = rsi_certify.safectl
    metrics = {}
    for m, count in QP_SWEEP.items():
        config = sc.ControlConfig(I_bar=1.0, kappa=1.0, Delta=1.0,
                                  r_u=(0.5,) * m, u_box=((0.0, 1.0),) * m,
                                  slack_weight=QP_RHO)
        elapsed = 0.0
        for u_ref, u_prev, a, b, lo, hi in qp_instances(seed, m, count):
            start = time.perf_counter()
            result = sc.qp_step(u_ref, u_prev, a, b, config)
            elapsed += time.perf_counter() - start
            runner.attempted += 1
            runner.record(f"qp m={m}", checks.check_qp_kkt(
                u_ref, lo, hi, a, b, QP_RHO, result))
        metrics[f"safectl.qp_step.us_m{m}"] = 1e6 * elapsed / count
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True,
                    help="JSON file: workload fixture dirs and sweep dirs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    runner = Runner(inputs["workload"])
    runner.one_pass()                 # warm-up, untimed; sets references
    errors = []
    if args.trace:
        sweep_dirs = {int(n): d for n, d in inputs["sweep"].items()}
        out = traced(runner, args.seconds, args.seed, sweep_dirs, errors)
    else:
        out = measure(runner, args.seconds)
    out.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "messages": runner.messages[:20],
        "harness_errors": errors,
        "steps_per_op": runner.inputs[0][2].get("n_steps", 0),
        "versions": {"numpy": np.__version__,
                     "scipy": sys.modules["scipy"].__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_s": time.process_time() - cpu0,
        "wall_s": time.perf_counter() - wall0,
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
