"""Byte-compare the CLI's outputs of two source trees on the benchmark inputs.

    python3 tools/compare_artifacts.py --parent ../old --change . --seeds 1 2 3

Each tree is a source checkout (its package under ``src/``).  For every
seed and workload the inputs are written once by the benchmark's own
generator (``perfbench/fixtures.py`` of this checkout, imported as it
is), and each tree then runs all of them in one fresh interpreter of its
own, through ``rsi_certify.cli.main`` as the benchmark's worker calls it:
``certify``, ``estimate`` (the other command that reads the certify
config) and ``report`` (on the ``certificate.json`` that tree's ``certify``
wrote) on certify fixtures, ``control-sim`` on control ones.  Every
artifact, exit code, stdout and stderr must be byte-identical between the
trees.  Prints one line per difference and a summary; exits 0 when there
is none, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("certify-8k", "certify-fleet", "control-1ch", "control-6ch")


def build_runs(seeds, workloads, root) -> list[dict]:
    """Write the fixtures under ``root``; one record per CLI run."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import fixtures

    runs = []
    for seed in seeds:
        for workload in workloads:
            base = os.path.join(root, "inputs", f"{workload}-s{seed}")
            for d in fixtures.build_workload(workload, seed, base):
                with open(os.path.join(d, "truth.json"), encoding="utf-8") as fh:
                    kind = json.load(fh)["kind"]
                rid = os.path.relpath(d, os.path.join(root, "inputs"))
                config = os.path.join(d, "config.json")
                if kind == "certify":
                    # relative: in each tree's output, where certify wrote it
                    cert = os.path.join(rid, "certificate.json")
                    runs += [{"id": rid, "cmd": "certify", "config": config},
                             {"id": f"{rid}-estimate", "cmd": "estimate",
                              "config": config},
                             {"id": f"{rid}-report", "cmd": "report",
                              "config": cert}]
                else:
                    runs.append({"id": rid, "cmd": "control-sim",
                                 "config": config})
    return runs


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
    results = {}
    for r in spec["runs"]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = rsi_certify.cli.main(
                [r["cmd"], "--config", os.path.join(spec["out"], r["config"]),
                 "--out", os.path.join(spec["out"], r["id"])])
        results[r["id"]] = {"code": code, "stdout": stdout.getvalue(),
                            "stderr": stderr.getvalue()}
    with open(os.path.join(spec["out"], "results.json"), "w",
              encoding="utf-8") as fh:
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
    """One line per artifact, exit code, stdout or stderr that differs."""
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
                diffs.append(f"{rid}/{name}: {state}")
    return diffs


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
    print(f"{len(runs)} runs ({n_files} artifacts per tree) on seeds "
          f"{' '.join(map(str, args.seeds))}: "
          + (f"{len(diffs)} difference(s)" if diffs else "byte-identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
