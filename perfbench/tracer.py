"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the program's modules by
wrappers that record one span per call and derive counters from the
return value; ``Tracer.restore`` puts the originals back.  A layer's self
time is its spans' duration minus the part covered by child spans, so the
self times of all layers add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

GAP_REASONS = {
    "nonpositive rate in window":
        "estimate.rolling_elasticity.gaps.nonpositive_rate",
    "nonpositive state in window":
        "estimate.rolling_elasticity.gaps.nonpositive_state",
    "degenerate regressor":
        "estimate.rolling_elasticity.gaps.degenerate_regressor"}
VERDICT_KEYS = {"nonsingular-certified": "certify.verdict.nonsingular",
                "singular-admissible": "certify.verdict.singular",
                "inconclusive": "certify.verdict.inconclusive"}
SLACK_TOL = 1e-9    # the supervisor's default slack threshold


def _rolling_counts(r):
    out = Counter({"estimate.rolling_elasticity.windows": len(r.estimates)})
    for _, reason in r.gaps:
        out[GAP_REASONS[reason]] += 1
    return out


def _qp_counts(r):
    return {"safectl.qp_step.calls": 1,
            "safectl.qp_step.barrier_active": int(r.barrier_active),
            "safectl.qp_step.slack_steps": int(r.slack > SLACK_TOL)}


# (module, attribute, counters taken from the return value); the span is
# named "<module>.<attribute>"
TARGETS = (
    ("cli", "main", None),
    ("cli", "render_report", None),
    ("series", "ingest_csv", lambda r: {"series.ingest_csv.rows": len(r)}),
    ("series", "read_json", None),
    ("series", "elasticity", lambda r: {"series.elasticity.windows": len(r)}),
    ("capability", "loss_index", None),
    ("capability", "canonicalize", None),
    ("envelopes", "compute_envelope", None),
    ("estimate", "rolling_elasticity", _rolling_counts),
    ("estimate", "sup_wald_breaks",
     lambda r: {"estimate.sup_wald_breaks.breaks": len(r.breakpoints)}),
    ("dynamics", "osgood_classify", None),
    ("certify", "envelope_check", None),
    ("certify", "decide",
     lambda r: {"certify.decide.segments": len(r.segments),
                VERDICT_KEYS[r.verdict]: 1}),
    ("safectl", "supervise", None),
    ("safectl", "qp_step", _qp_counts),
)
SPAN_NAMES = tuple(f"{m}.{a}" for m, a, _ in TARGETS)
# PhiSpec.__call__ runs ~67 times per supervisor step: count, do not time
CALL_COUNTERS = (("dynamics", "PhiSpec", "__call__", "dynamics.PhiSpec.calls"),)
COUNTER_NAMES = (
    "series.ingest_csv.rows", "series.elasticity.windows",
    "estimate.rolling_elasticity.windows", *GAP_REASONS.values(),
    "estimate.sup_wald_breaks.breaks", "certify.decide.segments",
    *VERDICT_KEYS.values(), "safectl.qp_step.calls",
    "safectl.qp_step.barrier_active", "safectl.qp_step.slack_steps",
    *(key for *_, key in CALL_COUNTERS))


def bindings(package) -> list:
    """Every attribute the tracer patches, as currently bound."""
    out = [getattr(getattr(package, m), a) for m, a, _ in TARGETS]
    out += [getattr(getattr(package, m), c).__dict__[a]
            for m, c, a, _ in CALL_COUNTERS]
    return out


class Tracer:
    """Span and counter recorder; one instance per traced phase."""

    def __init__(self, package):
        self.package = package
        self.spans = []             # [name, start, end, parent index]
        self.counters = Counter()
        self._stack = []
        self._saved = []

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, count in TARGETS:
            mod = getattr(self.package, mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", orig, count))
        for mod_name, cls_name, attr, key in CALL_COUNTERS:
            cls = getattr(getattr(self.package, mod_name), cls_name)
            orig = cls.__dict__[attr]
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self._counting(key, orig))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                counters.update(count(result))
            return result
        return traced

    def _counting(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name with the time of child spans removed."""
        total = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return {name: total.get(name, 0.0) for name in SPAN_NAMES}

    def root_time(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if parent < 0)
