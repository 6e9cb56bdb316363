"""Exception types shared across the toolkit.

Every error raised by library code derives from ToolkitError so CLI entry
points can map any operational failure to a single exit code.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- series ---------------------------------------------------------------

class ParseError(ToolkitError):
    """Malformed input file row; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnitMismatch(ToolkitError):
    """Declared unit differs from the expected unit."""


class NonMonotoneTime(ToolkitError):
    """Timestamps must be strictly increasing within a series."""


class NonPositiveValue(ToolkitError):
    """Operation requires strictly positive values (log taken)."""


class InsufficientWindow(ToolkitError):
    """Window contains too few samples for the requested fit."""


class DegenerateRegressor(ToolkitError):
    """Regressor has (near-)zero variance in every usable window."""


class OutOfRange(ToolkitError):
    """Requested time lies outside the sampled range (no extrapolation)."""


class GridMismatch(ToolkitError):
    """Series are not aligned on a common time grid."""


class RhoOutOfRange(ToolkitError):
    """Synthetic-data replacement coefficient must lie in [0, 1]."""


# --- capability -----------------------------------------------------------

class MissingTask(ToolkitError):
    """Loss series and benchmark tasks do not match one to one."""


class RepeatedTask(ToolkitError):
    """A benchmark task is listed twice, or two loss series share a name."""


class RefOutOfRange(ToolkitError):
    """Reference time lies outside the series range."""


# --- envelopes ------------------------------------------------------------

class TemperatureOrdering(ToolkitError):
    """Cold-side temperature must be strictly below the hot side."""


class NegativePower(ToolkitError):
    """Power inputs must be nonnegative."""


class NonPositiveTemperature(ToolkitError):
    """Absolute temperature must be strictly positive."""


class NegativeDelta(ToolkitError):
    """Relative error terms must be nonnegative."""


# --- dynamics -------------------------------------------------------------

class NonPositivePhi(ToolkitError):
    """Rate factor must be strictly positive on its domain."""


class SubcriticalExponent(ToolkitError):
    """Formula requires a superlinear exponent (p > 1)."""


class BeyondBlowup(ToolkitError):
    """Requested time is at or past the finite blow-up time."""


class StepUnderflowWithoutThreshold(ToolkitError):
    """Step controller collapsed although the state never crossed the
    blow-up threshold; usually a stiffness diagnostic."""


class EnvelopeOrderViolation(ToolkitError):
    """Lower envelope exceeds upper envelope somewhere on the test grid."""


class AmbiguousFlags(ToolkitError):
    """Region flags do not select a unique dominant channel."""


# --- estimate -------------------------------------------------------------

class SingularDesign(ToolkitError):
    """Regression design matrix is singular."""


class AllWindowsDegenerate(ToolkitError):
    """No window produced a usable elasticity estimate."""


class InsufficientRange(ToolkitError):
    """Abscissa must span at least one decade for index estimation."""


class WeakInstrument(ToolkitError):
    """Instrument is too weakly correlated with the regressor."""

    def __init__(self, message, first_stage_f=None):
        self.first_stage_f = first_stage_f
        if first_stage_f is not None:
            message = f"{message} (first-stage F = {first_stage_f:.3g})"
        super().__init__(message)


class NonPositiveSeries(ToolkitError):
    """Series must be strictly positive before taking logs."""


class TooShort(ToolkitError):
    """Series is too short for the requested test."""


# --- certify --------------------------------------------------------------

class ZeroGradient(ToolkitError):
    """Gradient norm must be strictly positive for a distance estimate."""


# --- safectl --------------------------------------------------------------

class InfeasibleBox(ToolkitError):
    """Actuation box and rate limits have empty intersection."""


class NoStaticCapPossible(ToolkitError):
    """No constant service cap can restore a divergent gain integral."""


# --- cli ------------------------------------------------------------------

class ConfigError(ToolkitError):
    """A config entry is missing, of the wrong type, or not recognised."""
