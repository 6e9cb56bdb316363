"""Benchmark of the rsi-certify CLI.

    python3 perfbench/run.py --workload certify-8k --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Generates the workload's inputs from the seed, measures the
set-up time of a fresh interpreter, then runs the workload in one fresh
child process (``worker.py``) and prints, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a run record (machine, versions,
load, process CPU and wall time).  Exits 1 without a result when the
program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
THREADS_ENV = "RSI_CERTIFY_THREADS"
BLAS_ENVS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import fixtures  # noqa: E402


def child_env() -> dict:
    """The program's environment: package on the path, the ingest thread
    knob unset (its default), BLAS/OpenMP pools capped at the CPUs this
    process may use."""
    env = dict(os.environ)
    env.pop(THREADS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = len(os.sched_getaffinity(0))
    for key in BLAS_ENVS:
        try:
            current = int(env.get(key, ""))
        except ValueError:
            current = nproc
        env[key] = str(max(1, min(current, nproc)))
    return env


def setup_seconds(env) -> list[float]:
    """Wall time of a fresh interpreter importing rsi_certify.cli, which
    every CLI invocation pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rsi_certify.cli"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run_worker(args, env, inputs_path, result_path, log_path) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--inputs", inputs_path, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed", str(args.seed),
           "--result", result_path]
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"worker exited {code}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail_index(n: int, beyond: int = 10) -> int | None:
    """Index into n sorted samples of the highest percentile that leaves
    at least ``beyond`` samples above it."""
    return n - 1 - beyond if n > beyond else None


def end_to_end(worker, setup) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_ref": {"value": statistics.median(worker["op_ref"]),
                   "unit": "ref"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=fixtures.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit, so the worker is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "rsi_certify", "cli.py")):
        print(f"error: no rsi_certify sources under {SRC}", file=sys.stderr)
        return 1

    load_before = os.getloadavg()
    run_dir = os.path.join(RUNS, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        os.makedirs(run_dir)
        inputs = {"workload": fixtures.build_workload(
            args.workload, args.seed, os.path.join(run_dir, "fixtures"))}
        if args.trace:
            inputs["sweep"] = fixtures.build_sweep(
                args.seed, os.path.join(run_dir, "sweep"))
        inputs_path = os.path.join(run_dir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        env = child_env()
        setup = [] if args.trace else setup_seconds(env)
        worker = run_worker(args, env, inputs_path,
                            os.path.join(run_dir, "result.json"),
                            os.path.join(run_dir, "worker.log"))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "platform": platform.platform(), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), **worker["versions"],
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        THREADS_ENV: "unset",
        "blas_threads": env["OMP_NUM_THREADS"],
        "worker_cpu_s": worker["cpu_s"], "worker_wall_s": worker["wall_s"],
        "setup_runs_s": setup,
        "error_rate": worker["failed"] / worker["attempted"],
        "failures": worker["messages"], "harness_errors": worker["harness_errors"],
    }
    if args.trace:
        record["traced_passes"] = worker["passes"]
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(worker["metrics"].items())}
    else:
        times = sorted(worker["op_times"])
        record.update(ops=len(times), op_s=statistics.median(times),
                      op_times_s=worker["op_times"], ref_s=worker["ref_s"])
        tail = tail_index(len(times))
        if tail is not None:
            record["op_tail_s"] = times[tail]
            record["op_tail_percentile"] = 100.0 * (tail + 1) / len(times)
        if worker["steps_per_op"]:
            record["control_steps_per_s"] = \
                worker["steps_per_op"] / record["op_s"]
        metrics = end_to_end(worker, setup)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": worker["failed"] == 0 and not worker["harness_errors"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_s", ".s")) or ".stage_s." in name:
        return "s"
    if ".us_m" in name:
        return "us"
    if name.endswith("n_exponent"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
