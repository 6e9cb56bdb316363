"""Measurement-first certification of recursive-improvement regimes.

Submodules: series (telemetry primitives), capability (canonical index),
envelopes (thermodynamic service ceilings), dynamics (blow-up analytics),
estimate (HAC statistics), certify (tests and verdicts), safectl (barrier
throttling), config (the config declarations and their reader) and
pipeline (the pure estimate and certify derivations), both imported by
cli (the I/O shell; imported on its own, so that ``python -m
rsi_certify.cli`` runs it without a warning).
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    capability,
    certify,
    dynamics,
    envelopes,
    errors,
    estimate,
    safectl,
    series,
)
