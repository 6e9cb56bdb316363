"""The I/O shell of the commands: each is a ``run_<cmd>(cfg, args, load)
-> Outcome`` that hands its config document to the library (``config.read``,
or the ``pipeline`` entry of estimate and certify) and renders its artifacts
as text, the same bytes for the same inputs, config and seed.  It opens no
file (series come through ``load``); ``main`` alone reads the config and
writes the artifacts.  Exit codes: 0 for a nonsingular certificate or a
completed run, 2 for singular-admissible, 3 for inconclusive, 1 for any
operational or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import NamedTuple

from . import certify as ct
from . import config
from . import dynamics as dyn
from . import pipeline
from . import series as ts
from .errors import ConfigError, ParseError, ToolkitError
from . import safectl as sc

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SINGULAR = 2
EXIT_INCONCLUSIVE = 3
VERDICT_EXIT = {ct.VERDICT_NONSINGULAR: EXIT_OK,
                ct.VERDICT_SINGULAR: EXIT_SINGULAR,
                ct.VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE}


class Outcome(NamedTuple):
    """What a command hands back to ``main``."""

    code: int
    message: str        # printed to stdout
    artifacts: dict     # output file name -> file text


class FileInputs:
    """``main``'s ``load``: ``load(path, unit)`` reads a CSV or JSON series,
    ``load.document(path)`` any other JSON file a config names.  A series
    that cannot be read raises a ParseError that names its file.  One
    instance serves one command: the CSV files it reads share the
    timestamp columns already parsed (``ts.ingest_csv``'s ``clocks``)."""

    def __init__(self):
        self.clocks = {}

    def __call__(self, path, unit=None) -> ts.TimeSeries:
        path = str(path)
        try:
            s = ts.read_json(path) if path.endswith(".json") \
                else ts.ingest_csv(path, clocks=self.clocks)
        except (ToolkitError, TypeError, ValueError) as exc:
            text = str(exc)     # a document that is not JSON names its file
            raise ParseError(text if text.startswith(f"{path}: ")
                             else f"{path}: {text}") from None
        if unit is not None and s.unit != unit:
            raise ts.UnitMismatch(f"{path}: unit {s.unit!r}, expected {unit!r}")
        return s

    document = staticmethod(ts.read_json_document)


def run_ingest(cfg, args, load) -> Outcome:
    loaded, failures = {}, []   # series name -> [("files[i]", path, series)]
    for i, entry in enumerate(config.read(config.Ingest, cfg).files):
        try:
            s = load(entry.path, entry.unit)
            s = s.replace(name=entry.name or s.name)
            loaded.setdefault(s.name, []).append((f"files[{i}]", entry.path, s))
        except ToolkitError as exc:     # load names the file
            failures.append(str(exc))
    if failures:
        raise ToolkitError("; ".join(failures))

    artifacts, summary = {}, []
    for name, [(_, path, s), *more] in sorted(loaded.items()):
        if more or name in ("", ".", "..", "ingest_manifest") \
                or os.path.basename(name) != name:
            raise ConfigError(" and ".join(r[0] for r in loaded[name]) + ": "
                              f"series name {name!r} names no file of its own")
        artifacts[f"{name}.json"] = ts.json_text(s.to_json_dict())
        summary.append({"path": path, "name": name, "unit": s.unit,
                        "snapshot_version": s.snapshot_version,
                        "n_samples": len(s)})
    artifacts["ingest_manifest.json"] = ts.json_text({"files": summary})
    return Outcome(EXIT_OK, f"ingested {len(summary)} series into {args.out}",
                   artifacts)


def run_envelope(cfg, args, load) -> Outcome:
    c = config.read(config.EnvelopeConfig, cfg)
    result = pipeline.envelope(c, c.params, load, c.alpha)
    return Outcome(
        EXIT_OK,
        f"static cap phi_pt_bar = {result.phi_pt_bar.value:.6e} nat/s "
        f"(sigma_eff = {c.params.sigma_eff} nat/bit, "
        f"snapshot {result.phi_svc.snapshot_version or 'n/a'})",
        {"envelope.json": ts.json_text(result.to_json_dict()),
         "envelope.csv": ts.csv_text({
             "t": result.phi_svc.t, "phi_pt_nat_per_s": result.phi_pt.values,
             "phi_svc_nat_per_s": result.phi_svc.values,
             "binding": result.binding})})


def _elasticity_csv(prof) -> str:
    ci_lo, ci_hi = prof.ci
    return ts.csv_text({"t": prof.t, "p_hat": prof.values, "se": prof.ses,
                        "ci_lo": ci_lo, "ci_hi": ci_hi})


def run_estimate(cfg, args, load) -> Outcome:
    window, alpha, snapshots, prof, segs = pipeline.estimate(
        cfg, load, args.window, args.alpha)
    return Outcome(
        EXIT_OK,
        f"{prof.t.size} elasticity windows, {len(segs.breakpoints)} break(s)",
        {"elasticity.json": ts.json_text({
            "alpha": alpha, "window_seconds": window,
            "estimates": [e.to_json_dict() for e in prof.estimates],
            "gaps": [{"t": t, "reason": r} for t, r in prof.gaps],
            "breaks": segs.to_json_dict(),
            "snapshot_versions": snapshots}),
         "elasticity.csv": _elasticity_csv(prof)})


def run_certify(cfg, args, load) -> Outcome:
    certificate, (_, _, _, prof, _), check = pipeline.certify(
        cfg, load, args.config, window=args.window, alpha=args.alpha,
        seed=args.seed)
    artifacts = {"certificate.json": ts.json_text(certificate.to_json_dict()),
                 "elasticity.csv": _elasticity_csv(prof)}
    if check is not None:
        artifacts["envelope_slack.csv"] = ts.csv_text({
            "t": check.t, "slack_fraction": check.slack,
            "passed": check.passed})
    artifacts["segments.csv"] = ts.csv_text({
        "t_start": [s.range[0] for s in certificate.segments],
        "t_end": [s.range[1] for s in certificate.segments],
        "ptot_minus": [s.ptot_minus for s in certificate.segments],
        "ptot_plus": [s.ptot_plus for s in certificate.segments]})
    artifacts["report.txt"] = render_report(certificate)
    return Outcome(VERDICT_EXIT[certificate.verdict], artifacts["report.txt"],
                   artifacts)


def render_report(cert: ct.Certificate) -> str:
    """The text of a certificate's records, as ``decide`` builds them or
    ``report`` reads them back (a non-finite number as a string): numbers
    go through ``float``, and the config echo through ``json_text``."""
    lines = ["=" * 64, f"REGIME CERTIFICATE: {cert.verdict}", "=" * 64,
             f"segments analyzed: {len(cert.segments)}"]
    if cert.segments:       # bounds as offsets from one origin, in full
        t0 = float(cert.segments[0].range[0])
        lines.append(f"segment bounds: seconds from t0 = {t0!r}")
    for i, s in enumerate(cert.segments):
        t_start, t_end = (float(t) - t0 for t in s.range)
        lines.append(
            f"  [{i}] t - t0 in [{t_start!r}, {t_end!r}): "
            f"p_tot in [{float(s.ptot_minus):.4f}, {float(s.ptot_plus):.4f}] "
            f"(se {float(s.se_minus):.4f}/{float(s.se_plus):.4f}), "
            f"superlinearity {s.tests.superlinearity_minus}, "
            f"envelope pass {float(s.envelope.pass_fraction):.3f}"
            + (" [disabled]" if s.envelope.disabled else ""))
    lines += ["envelope pass fraction: "
              f"{float(cert.envelope_pass_fraction):.4f}",
              "state-factor reciprocal integral divergent: "
              f"{cert.osgood_divergent}"]
    for name, value in sorted(vars(cert.margins).items()):
        shown = "not evaluated" if value is None else f"{float(value):.6g}"
        lines.append(f"margin {name}: {shown}")
    if cert.event_bound is not None:
        lines.append("event blow-up bound T_hat: "
                     f"{float(cert.event_bound):.6g} s")
    if cert.capital_escape_time is not None:
        lines.append("capital escape time T_K: "
                     f"{float(cert.capital_escape_time)!r} s")
    if cert.data_snapshot_versions:
        lines.append("data snapshots: " + ", ".join(
            f"{k}={v}" for k, v in sorted(cert.data_snapshot_versions.items())))
    lines += [f"note: {note}" for note in cert.notes]
    if cert.config_echo:
        lines.append("config echo: "
                     + ts.json_text(cert.config_echo, indent=None).rstrip())
    lines.append("=" * 64)
    return "\n".join(lines) + "\n"


def run_simulate(cfg, args, load) -> Outcome:
    c = config.read(config.Scenario, cfg)
    res = dyn.integrate(dyn.envelope_rhs(c.phi, c.gain), c.I0, c.horizon,
                        blowup_threshold=c.threshold, rtol=c.rtol)
    if args.format == "json":
        traj = ts.TimeSeries(c.name, "nat", res.t, res.I)
        artifacts = {"trajectory.json": ts.json_text(traj.to_json_dict())}
    else:
        artifacts = {"trajectory.csv": ts.csv_text({"t": res.t, "I": res.I})}
    artifacts["simulation.json"] = ts.json_text(
        {"status": res.status, "t_star": res.t_star, "n_steps": res.n_steps,
         "final_I": float(res.I[-1]), "final_t": float(res.t[-1])})
    return Outcome(EXIT_OK, f"simulation {res.status}"
                   + (f" at t* = {res.t_star:.9g} s" if res.t_star else ""),
                   artifacts)


def run_control_sim(cfg, args, load) -> Outcome:
    c = config.read(config.ControlSim, cfg)
    log = sc.supervise(c.plant, c.control, c.policy)
    return Outcome(
        EXIT_OK,
        f"control loop {log.final_status}; max overshoot "
        f"{log.max_overshoot:.3e} nat",
        {"control_log.jsonl": log.to_jsonl(),
         "control_summary.json": ts.json_text(
             {"final_status": log.final_status,
              "max_overshoot": log.max_overshoot,
              "max_violation_rate": log.max_violation_rate,
              "n_steps": len(log.steps)})})


def run_report(cfg, args, load) -> Outcome:
    try:
        text = render_report(config.read(ct.Certificate, cfg))
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    return Outcome(EXIT_OK, text, {"report.txt": text})


# ---------------------------------------------------------------------------
# entry point

# subcommand -> (run function, help, its options besides --config/--out)
COMMANDS = {
    "ingest": (run_ingest, "validate and store telemetry series", ()),
    "envelope": (run_envelope, "compute service-rate ceilings", ()),
    "estimate": (run_estimate, "rolling elasticities and breaks",
                 ("window", "alpha")),
    "certify": (run_certify, "full certification pipeline",
                ("window", "alpha", "seed")),
    "simulate": (run_simulate, "integrate a growth scenario", ("format",)),
    "control-sim": (run_control_sim, "closed-loop throttling run", ()),
    "report": (run_report, "render a certificate as text", ()),
}
OPTIONS = {"window": {"type": float, "help": "estimation window (s)"},
           "alpha": {"type": float, "help": "test level"},
           "seed": {"type": int, "help": "seed echoed in the certificate"},
           "format": {"choices": ("json", "csv"), "default": "csv",
                      "help": "trajectory output format"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsi-certify",
        description="Certify growth regimes from telemetry: elasticities, "
                    "service envelopes, blow-up analytics, and barrier "
                    "throttling simulations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
        p.set_defaults(run=run)
    return parser


PARSER = build_parser()    # argparse keeps no state between parse_args calls


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:   # --help: 0; usage error: 1 (2 is singular)
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        cfg = ts.read_json_document(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        # every warning the command raises, each time it raises it: printed
        # once per distinct text, without the raising source line
        with warnings.catch_warnings(record=True) as raised:
            warnings.simplefilter("always")
            outcome = args.run(cfg, args, FileInputs())
        os.makedirs(args.out, exist_ok=True)
        for name, text in outcome.artifacts.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
    except ToolkitError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, KeyError, ValueError, TypeError, AttributeError,
            ArithmeticError) as exc:
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR
    for text in dict.fromkeys(str(w.message) for w in raised):
        print(f"warning [{args.command}]: {text}", file=sys.stderr)
    print(outcome.message)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
