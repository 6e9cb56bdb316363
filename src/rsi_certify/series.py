"""Telemetry ingestion and log-slope primitives.

A TimeSeries is an immutable, unit-tagged, versioned run of scalar samples
with strictly increasing timestamps.  All downstream estimation works on
log-slopes computed from these series, so the transforms here are kept
deliberately small: CSV/JSON round-trips, linear resampling without
extrapolation, kernel-weighted local log-slopes, rolling elasticities, and
the effective-dataset combination D_real + rho * D_synth.

CSV ingest reads a file in the layout the package writes (the ``# unit=``
line, the header, then rows of plain numbers with the header's field
count and increasing timestamps, with LF or CRLF line ends) in one
vectorised pass; one np.array(cells, dtype=float) follows float() as the
per-line loop does.  Any other file goes to that loop from the top:
comments or blank lines among the rows, quotes, a lone CR, spaced or empty
cells, RFC3339 timestamps, nan/inf cells, a wrong field count, a timestamp
that does not increase.  The loop is the only code that names a line in
an error.  A leading UTF-8 BOM, as spreadsheet exports write, is dropped
before either reads.  The files of one collector share a clock: a caller
that passes one ``clocks`` dict to each read has a timestamp column parsed
once, and a later file whose timestamp cells are the same text reuses it.

Every rolling fit in the package (log_slope, elasticity, and in the
estimation layer the rolling elasticity, the index profiles and the
excitation infimum) goes through one windowed kernel: window_bounds finds
each window with np.searchsorted, and windowed_wls fits all windows with
closed-form weighted least squares and a scalar Newey-West variance.  The
windows' weighted moments come from prefix sums in O(n): not over the
whole series, whose sums would cancel catastrophically on epoch-second
timestamps, but over blocks about one window wide, each shifted to its own
origin, so the cancellation is bounded by the block (Chan, Golub & LeVeque
1983).  The Newey-West lag sums come from prefix sums over the same
blocks too: the Bartlett weights are the autocorrelation of a box of L + 1
ones, so a meat is the sum of the squared (L + 1)-sample moving sums of
the residual products g_i, over L + 1 (Newey & West 1987).  g_i is the
window's 15 coefficients dotted with 15 per-sample features, so 120
prefix-summed products of the features' moving sums give the moving sums
inside each window, and running sums of g the L at either end.  Two
passes and one fallback: a small call is fitted from its gathered samples
and a larger one from the prefix sums, and a window whose own rounding
bound is over budget is refitted whole from its gathered samples.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateRegressor,
    GridMismatch,
    InsufficientWindow,
    NonMonotoneTime,
    NonPositiveValue,
    OutOfRange,
    ParseError,
    RhoOutOfRange,
    UnitMismatch,
)

GRID_RTOL = 1e-9
GRID_SPACING_FRACTION = 1e-3  # same_grid's cap on the timestamp tolerance
VAR_LOG_TOL = 1e-12  # minimum Var(log x) for a usable regressor window


class TimeSeries:
    """Immutable sampled scalar signal.

    Timestamps are float epoch seconds and strictly increasing; all samples
    share the declared unit.  ``snapshot_version`` identifies the data
    snapshot the samples came from (a content hash for ingested files), so
    revised inputs become distinct series rather than silent overwrites.
    """

    __slots__ = ("name", "unit", "t", "values", "weights", "snapshot_version")

    def __init__(self, name, unit, t, values, weights=None, snapshot_version=""):
        t = np.asarray(t, dtype=float)
        values = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise NonMonotoneTime("series must contain at least one sample")
        if t.shape != values.shape:
            raise GridMismatch("timestamp and value arrays differ in length")
        if not np.all(np.isfinite(t)):
            raise NonMonotoneTime("timestamps must be finite")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise NonMonotoneTime(f"timestamps not strictly increasing in {name!r}")
        if not np.all(np.isfinite(values)):
            raise NonPositiveValue(f"non-finite value in series {name!r}")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != t.shape:
                raise GridMismatch("quality array length mismatch")
            if np.any((weights < 0) | (weights > 1) | ~np.isfinite(weights)):
                raise NonPositiveValue("quality weights must lie in [0, 1]")
            weights = weights.copy()
            weights.flags.writeable = False
        t = t.copy()
        values = values.copy()
        t.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "unit", str(unit))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "snapshot_version", str(snapshot_version))

    def __setattr__(self, key, value):
        raise AttributeError("TimeSeries is immutable")

    def __len__(self):
        return self.t.size

    def __repr__(self):
        return (f"TimeSeries({self.name!r}, unit={self.unit!r}, n={len(self)}, "
                f"span=[{self.t[0]:g}, {self.t[-1]:g}])")

    # -- derived views ----------------------------------------------------

    def effective_weights(self) -> np.ndarray:
        """Quality weights, defaulting to 1 where the column was absent."""
        if self.weights is None:
            return np.ones_like(self.values)
        return self.weights

    def replace(self, *, name=None, values=None) -> "TimeSeries":
        """A new name or new values; timestamps and the rest are kept."""
        return TimeSeries(self.name if name is None else name, self.unit,
                          self.t, self.values if values is None else values,
                          self.weights, self.snapshot_version)

    # -- serialization ----------------------------------------------------

    def _columns(self) -> dict:
        """The sample columns by field name; quality only when present."""
        columns = {"t": self.t, "value": self.values}
        if self.weights is not None:
            columns["quality"] = self.weights
        return columns

    def to_json_dict(self) -> dict:
        columns = self._columns()
        rows = zip(*(col.tolist() for col in columns.values()))
        return {
            "name": self.name,
            "unit": self.unit,
            "snapshot_version": self.snapshot_version,
            "samples": [dict(zip(columns, row)) for row in rows],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TimeSeries":
        samples = d.get("samples") if isinstance(d, dict) else None
        if not (isinstance(samples, list) and "name" in d and "unit" in d
                and all(isinstance(s, dict) and "t" in s and "value" in s
                        for s in samples)):
            raise ParseError("want an object with 'name', 'unit' and "
                             "'samples', a list of {t, value[, quality]}")
        t, v = (_numbers([s[key] for s in samples], key)
                for key in ("t", "value"))
        has_quality = any(s.get("quality") is not None for s in samples)
        w = _numbers([1.0 if s.get("quality") is None else s["quality"]
                      for s in samples], "quality") if has_quality else None
        return cls(d["name"], d["unit"], t, v, w, d.get("snapshot_version", ""))

    def to_csv_text(self) -> str:
        return f"# unit={self.unit}\n" + csv_text(self._columns())


def _numbers(values: list, key: str) -> np.ndarray:
    """The samples' field ``key``, ``values``, as one float per sample."""
    try:
        column = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # an object, a list, text
        column = None
    if column is None or column.ndim != 1:
        raise ParseError(f"each sample's {key!r} must be a number")
    return column


@dataclass(frozen=True)
class SlopePoint:
    """Local log-slope estimate at one window center."""

    t: float
    slope: float
    se: float
    window_half_width: float
    n_eff: float = 0.0


class SlopeSeries:
    """Rolling local-slope estimates (log-derivatives or elasticities).

    Points exist only where the window held at least three usable samples;
    standard errors are the plain weighted-least-squares ones (HAC-corrected
    variants live in the estimation layer).
    """

    __slots__ = ("t", "slope", "se", "window_half_width")

    def __init__(self, t, slope, se, window_half_width):
        self.t = np.asarray(t, dtype=float)
        self.slope = np.asarray(slope, dtype=float)
        self.se = np.asarray(se, dtype=float)
        self.window_half_width = float(window_half_width)
        if not (self.t.shape == self.slope.shape == self.se.shape):
            raise GridMismatch("slope series arrays differ in length")
        if np.any(self.se < 0):
            raise NonPositiveValue("standard errors must be nonnegative")

    def __len__(self):
        return self.t.size


# ---------------------------------------------------------------------------
# ingestion


def _parse_timestamp(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    iso = text.strip()
    if iso.endswith("Z"):
        iso = iso[:-1] + "+00:00"
    try:
        return datetime.fromisoformat(iso).timestamp()
    except ValueError as exc:
        raise ValueError(f"unparseable timestamp {text!r}") from exc


HEADERS = (["t", "value"], ["t", "value", "quality"])
_CELL = r"[0-9eE.+\-]+"   # the only characters the columnar pass accepts


def ingest_csv(path, expected_unit: str | None = None,
               clocks: dict | None = None) -> TimeSeries:
    """Read a telemetry CSV into a validated TimeSeries.

    Expected layout: a ``# unit=<unit>`` comment line, a ``t,value[,quality]``
    header, then one row per sample, in UTF-8 with or without a BOM.
    Timestamps may be epoch seconds or RFC3339.  The snapshot version is a
    content hash of the file's bytes, so re-ingesting a revised file yields
    a distinct series.  ``clocks``, a dict the caller passes to each file
    it reads together, holds the timestamp columns the columnar pass has
    parsed, so a file whose timestamp cells are text-identical to an
    earlier one's parses only its other cells.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    snapshot = hashlib.sha256(raw).hexdigest()[:16]
    text = raw.decode("utf-8-sig")
    unit, t, values, qualities = (_read_columns(text, clocks)
                                  or _read_lines(text))
    if expected_unit is not None and unit != expected_unit:
        raise UnitMismatch(f"file declares unit {unit!r}, expected {expected_unit!r}")
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return TimeSeries(name, unit, t, values, qualities, snapshot)


def _read_columns(text: str, clocks: dict | None = None):
    """The columnar pass: (unit, t, values, qualities or None) of a file
    whose first line declares the unit, whose second is the header, and
    whose data rows are plain numbers with the header's field count, one
    row per line (LF or CRLF), timestamps finite and increasing.  Anything
    else gives None, and _read_lines reads the file.  With ``clocks``, the
    timestamp column is taken from it when its cells, joined, are a key
    there, and is added to it otherwise: identical cells, identical
    floats."""
    if "\r" in text:   # a CRLF file reads as LF; a lone CR stays
        text = text.replace("\r\n", "\n")
    parts = text.split("\n", 2)
    # a lone CR or another break that splitlines sees makes lines differ
    if len(parts) < 3 or not (parts[0].isprintable() and parts[1].isprintable()):
        return None
    unit_line, header_line, block = parts
    first = unit_line.strip()
    unit = _declared_unit(first) if first.startswith("#") else None
    header = [c.lower() for c in _cells(header_line)]
    if unit is None or header not in HEADERS:
        return None
    k = len(header)
    row = ",".join([_CELL] * k)
    if not re.fullmatch(f"(?:{row}\n)*{row}\n?", block):
        return None
    cells = block.replace(",", " ").split()
    n = len(cells) // k
    key = None if clocks is None else ",".join(cells[::k])
    t = None if key is None else clocks.get(key)
    if t is not None:
        del cells[::k]      # a known clock: parse the other cells only
    try:
        data = np.array(cells, dtype=float).reshape(n, -1)
    except ValueError:
        return None
    if t is None:
        t, data = data[:, 0], data[:, 1:]
    if not (np.isfinite(t).all() and np.isfinite(data).all()
            and np.all(np.diff(t) > 0)):
        return None
    if key is not None:     # the column alone, not the block it came from
        clocks[key] = np.ascontiguousarray(t)
    return unit, t, data[:, 0], data[:, 1] if k == 3 else None


def _read_lines(text: str):
    """The per-line reader, and the one place that names a line: what
    _read_columns returns, for any layout, or a located error.  Blank lines
    are skipped, ``#`` lines are comments (the last ``# unit=`` wins),
    cells are stripped, quotes follow the csv module, and an empty quality
    cell reads as 1."""
    unit = header = None
    t, values, qualities = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            declared = _declared_unit(stripped)
            unit = unit if declared is None else declared
            continue
        row = _cells(line)
        if header is None:
            header = [c.lower() for c in row]
            if header not in HEADERS:
                raise ParseError(f"unexpected header {row!r}; "
                                 "want t,value[,quality]", line=lineno)
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                             line=lineno)
        try:
            cells = [_parse_timestamp(row[0]), float(row[1])]
            if len(row) == 3:
                cells.append(float(row[2]) if row[2] != "" else 1.0)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not math.isfinite(cells[0]):
            raise NonMonotoneTime(f"line {lineno}: timestamp {row[0]!r} "
                                  "is not finite")
        if t and cells[0] <= t[-1]:
            raise NonMonotoneTime(f"line {lineno}: timestamp {row[0]!r} "
                                  "does not increase")
        if not all(map(math.isfinite, cells[1:])):
            raise NonPositiveValue(f"line {lineno}: non-finite cell in {row!r}")
        t.append(cells[0])
        values.append(cells[1])
        qualities += cells[2:]

    if unit is None:
        raise ParseError("missing '# unit=<unit>' declaration")
    if header is None or not t:
        raise ParseError("no data rows found")
    return unit, t, values, qualities if len(header) == 3 else None


def _declared_unit(comment: str) -> str | None:
    """The unit a stripped ``#`` line declares, if it is a unit line."""
    body = comment.lstrip("#").strip()
    return body[len("unit="):].strip() if body.startswith("unit=") else None


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in next(csv.reader([line]))]


def csv_text(columns: dict) -> str:
    """CSV text of named columns, written column by column: numbers and
    bools as repr(float), so 1 is written 1.0; any other column as str."""
    cells = []
    for col in columns.values():
        arr = np.asarray(col)
        cells.append(map(repr, arr.astype(float).tolist())
                     if arr.dtype.kind in "biuf" else map(str, col))
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


_ENCODERS: dict = {}    # json_text's strict encoder per indent, built once


def json_text(obj, indent=2) -> str:
    """Strict JSON text of ``obj`` (RFC 8259), keys sorted, and a newline:
    a non-finite float at any depth is written "inf", "-inf" or "nan", for
    which ``obj`` is walked only when the plain dump refuses it."""
    encoder = _ENCODERS.get(indent)
    if encoder is None:
        encoder = _ENCODERS[indent] = json.JSONEncoder(
            indent=indent, sort_keys=True, allow_nan=False)
    try:
        return encoder.encode(obj) + "\n"
    except ValueError:
        return encoder.encode(_nonfinite_as_text(obj)) + "\n"


def _nonfinite_as_text(obj):
    """``obj`` with its non-finite floats as json_text writes them."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _nonfinite_as_text(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_as_text(v) for v in obj]
    return obj


def read_json_document(path):
    """The JSON document in ``path``, UTF-8 with or without a BOM; a file
    that is not one raises a ParseError that names it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise ParseError(f"{path}: not a UTF-8 JSON document: {exc}") from None


def write_csv(series: TimeSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(series.to_csv_text())


def write_json(series: TimeSeries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(series.to_json_dict()))


def read_json(path) -> TimeSeries:
    return TimeSeries.from_json_dict(read_json_document(path))


# ---------------------------------------------------------------------------
# grid utilities


def same_grid(a: TimeSeries, b: TimeSeries) -> bool:
    """Equal lengths and timestamps within GRID_RTOL * max(1, |t|), capped
    at GRID_SPACING_FRACTION of the smallest spacing: a series offset by a
    sample, or by part of one, does not pair."""
    if len(a) != len(b):
        return False
    tol = GRID_RTOL * max(1.0, float(np.max(np.abs(a.t))))
    if len(a) > 1:
        tol = min(tol, GRID_SPACING_FRACTION
                  * float(min(np.diff(a.t).min(), np.diff(b.t).min())))
    return bool(np.all(np.abs(a.t - b.t) <= tol))


def require_same_grid(a: TimeSeries, b: TimeSeries) -> None:
    if not same_grid(a, b):
        raise GridMismatch(f"series {a.name!r} and {b.name!r} are not on a "
                           "common grid; resample first")


def resample(x: TimeSeries, grid: float, start: float | None = None,
             end: float | None = None) -> TimeSeries:
    """Linearly interpolate onto a uniform grid with step ``grid``.

    The grid never extends past the sampled range: requesting points before
    the first or after the last sample raises OutOfRange rather than
    extrapolating.
    """
    if grid <= 0:
        raise OutOfRange("grid step must be positive")
    t0 = x.t[0] if start is None else float(start)
    t1 = x.t[-1] if end is None else float(end)
    if t0 < x.t[0] - GRID_RTOL or t1 > x.t[-1] + GRID_RTOL:
        raise OutOfRange(
            f"requested grid [{t0}, {t1}] exceeds sampled range "
            f"[{x.t[0]}, {x.t[-1]}] of {x.name!r}")
    if t1 < t0:
        raise OutOfRange("grid end precedes grid start")
    n = int(math.floor((t1 - t0) / grid + GRID_RTOL)) + 1
    grid_t = t0 + grid * np.arange(n)
    values = np.interp(grid_t, x.t, x.values)
    weights = None
    if x.weights is not None:
        weights = np.clip(np.interp(grid_t, x.t, x.weights), 0.0, 1.0)
    return TimeSeries(x.name, x.unit, grid_t, values, weights, x.snapshot_version)


def align(y: TimeSeries, x: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    """Put two series on the common grid given by x's timestamps restricted
    to the overlap of both ranges (linear interpolation of y)."""
    if same_grid(y, x):
        return y, x
    lo = max(y.t[0], x.t[0])
    hi = min(y.t[-1], x.t[-1])
    if hi <= lo:
        raise GridMismatch(f"series {y.name!r} and {x.name!r} do not overlap in time")
    mask = (x.t >= lo) & (x.t <= hi)
    grid_t = x.t[mask]
    y_vals = np.interp(grid_t, y.t, y.values)
    y_on = TimeSeries(y.name, y.unit, grid_t, y_vals, None, y.snapshot_version)
    x_on = TimeSeries(x.name, x.unit, grid_t, x.values[mask],
                      None if x.weights is None else x.weights[mask],
                      x.snapshot_version)
    return y_on, x_on


# ---------------------------------------------------------------------------
# local regression primitives


def epanechnikov(u: np.ndarray) -> np.ndarray:
    """Compactly supported parabolic kernel on |u| <= 1."""
    w = u * u
    np.subtract(1.0, w, out=w)
    return np.maximum(w, 0.0, out=w)


def wls_slope(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least-squares fit y ~ a + b*x.

    Returns (slope, intercept, se_slope, residuals).  The slope SE is the
    classical weighted one; zero when the fit is exact.
    """
    w = np.asarray(w, dtype=float)
    sw = w.sum()
    if sw <= 0:
        raise InsufficientWindow("all kernel weights vanish in window")
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    dx = x - xbar
    sxx = (w * dx * dx).sum()
    if sxx <= 0:
        raise DegenerateRegressor("zero regressor variance in window")
    slope = (w * dx * (y - ybar)).sum() / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    n_eff = sw * sw / (w * w).sum()
    dof = max(n_eff - 2.0, 1.0)
    sigma2 = (w * resid * resid).sum() / sw * (n_eff / dof)
    se = math.sqrt(max(sigma2 / sxx, 0.0))
    return slope, intercept, se, resid


# Windows are gathered in blocks of at most this many samples (256 KB of
# float64), and prefix sums are built over chunks of blocks of at most twice
# as many values (512 KB).  A chunk keeps at least one block, though, whose
# prefix sums hold 23 * (block + window) values, so past ~2850 such samples
# (n near 17k with a window at a ninth of the span) those temporaries grow
# with n: tracemalloc read 1.9, 2.4 and 4.7 MB at n = 8k, 16k and 32k.
# A call whose windows hold no more samples than one gathered block is
# fitted from the gathered samples.
WINDOW_BLOCK_ELEMENTS = 1 << 15


def window_bounds(t, centers, half: float, rtol: float = GRID_RTOL):
    """Bounds (lo, hi) of the samples of sorted ``t`` with
    |t - c| <= half * (1 + rtol), per center c.  np.searchsorted places
    them; they are then stepped until they agree with that comparison as
    evaluated in floating point, so t[lo:hi] is exactly the masked window."""
    t = np.asarray(t, dtype=float)
    c = np.atleast_1d(np.asarray(centers, dtype=float))
    tol = half * (1 + rtol)
    bounds = []
    for idx, reached in ((np.searchsorted(t, c - tol), lambda d: d >= -tol),
                         (np.searchsorted(t, c + tol, "right"),
                          lambda d: d > tol)):
        while True:  # settle on the first j with reached(t[j] - c), or t.size
            back = (idx > 0) & reached(t[np.maximum(idx - 1, 0)] - c)
            ahead = (idx < t.size) & ~reached(t[np.minimum(idx, t.size - 1)] - c)
            if not (back.any() or ahead.any()):
                break
            idx = idx - back + ahead
        bounds.append(idx)
    return tuple(bounds)


class WindowFits(NamedTuple):
    """Per-window weighted least-squares fits of y = a + b*x."""

    sw: np.ndarray         # kernel mass sum(w)
    n_eff: np.ndarray      # sum(w)^2 / sum(w^2)
    var_x: np.ndarray      # weighted variance of x
    slope: np.ndarray
    intercept: np.ndarray
    se: np.ndarray         # classical, or Newey-West when lags are given
    cond: np.ndarray       # 2-norm condition number of X'WX


# A window whose moments may carry more relative rounding error than this
# bound is refitted from its gathered samples.  Measured against extended
# precision, the error stays within a few times the bound.
MOMENT_RTOL = 1e-12
# The same for a Newey-West meat from lag sums.
LAG_RTOL = 1e-10
# A lag L costs the lag sums L + 1 passes over a block for the features'
# moving sums, and each distinct lag one more pass: a window whose lag is
# over LAG_SUMS_MAX_LAG is refitted too.  A step of the lag sums reads at
# most LAG_SUMS_STEP windows or sample positions, under 200 values each,
# whatever the series length.
LAG_SUMS_MAX_LAG = 32
LAG_SUMS_STEP = 512
_EPS = float(np.finfo(float).eps)


def windowed_wls(t, x, y, centers, half: float, lo, hi, quality=None,
                 lags=None) -> WindowFits:
    """The windowed regression kernel behind every rolling fit.

    Window k fits y on x (both finite) over samples lo[k]:hi[k] of the
    sorted coordinate ``t``, which must hold every sample within half of
    centers[k] (as window_bounds gives them), weighted by the Epanechnikov
    kernel of (t - centers[k]) / half times any ``quality``.  The weighted
    moments of every window come from block-local prefix sums
    (_window_moments), in O(n) for all windows together, and give sw,
    n_eff, var_x, the slope sxy / sxx, the intercept, the condition number
    and the classical error in closed form.  With one Bartlett lag L per
    window the error is Newey-West, whose slope entry needs no 2x2 inverse:
    Var(b) = [sum g_i^2 + 2 sum_l (1 - l/(L+1)) sum_i g_i g_{i-l}] / sxx^2
    with g_i = w_i r_i (x_i - xbar), times n_eff / (n_eff - 2).

    Two passes and one fallback: a call whose windows hold at most
    WINDOW_BLOCK_ELEMENTS samples in all is fitted from gathered samples
    (_fit_rows).  A larger one takes its moments from prefix sums, and its
    Newey-West lag sums too (_lag_sums, O(n) in all).  A window whose
    moments' rounding bound exceeds MOMENT_RTOL (a nearly flat regressor, a
    nearly exact fit), or whose lag sums' exceeds LAG_RTOL (or is nan: a
    lag below 0, over LAG_SUMS_MAX_LAG or over the window's sample count),
    is refitted whole by _fit_rows from its gathered samples, centred in
    two passes.
    """
    t, x, y = (np.asarray(a, dtype=float) for a in (t, x, y))
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    lo = np.atleast_1d(np.asarray(lo, dtype=np.intp))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.intp))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if (hi - lo).sum() > WINDOW_BLOCK_ELEMENTS:
            fits, redo = _moment_fits(t, x, y, centers, half, quality, lags)
        else:
            fits = np.empty((len(WindowFits._fields), centers.size))
            redo = np.arange(centers.size)
        for k, w, (xs, ys) in _window_rows(t, (x, y), centers[redo], half,
                                           lo[redo], hi[redo], quality):
            k = redo[k]
            fits[:, k] = _fit_rows(xs, ys, w,
                                   None if lags is None else lags[k])
    return WindowFits(*fits)


def _moment_fits(t, x, y, centers, half, quality, lags):
    """The fits of windowed_wls from _window_moments, one row per
    WindowFits field, and the indices of the windows whose moments' bound
    exceeds MOMENT_RTOL or whose lag sums' exceeds LAG_RTOL, whose columns
    are left to be refitted."""
    # the samples of lo:hi with |t - c| <= half; the others weigh 0
    a, b = window_bounds(t, centers, half, rtol=0.0)
    sw, sww, x0, y0, xbar, ybar, sxx, slope, rss, meat, lag_bound, bound = \
        _window_moments(t, x, y, centers, half, a, b, quality, lags)
    ok = bound <= MOMENT_RTOL
    if lags is None:  # classical: meat / sxx^2 = sigma^2 / sxx
        meat = rss * sxx / sw
    else:
        ok &= lag_bound <= LAG_RTOL
    fits = _closed_form(sw, sw * sw / sww, x0 + xbar, sxx, slope, y0 + ybar,
                        meat)
    return np.array(fits), np.flatnonzero(~ok)


def _window_moments(t, x, y, centers, half, lo, hi, quality, lags=None):
    """Weighted moments of windows lo:hi from prefix sums over blocks.

    A block holds the samples whose t falls in one interval of width half;
    each window reads the block that holds its lo, whose prefix sums run
    over the block and one window past it.  Within a block t is shifted to
    T = (first t) + half / 2 and scaled by half, so the weight of sample i
    in a window centred at v is q_i (1 - (u_i - v)^2) with |v| <= 1.5, and
    every moment combines prefix sums of q u^k {1, x, y, x^2, xy, y^2}
    (k <= 2) and q^2 u^k (k <= 4), built by one cumsum over a chunk of
    blocks: 23 * (block + window) values each, and at least one block per
    chunk however long the window.  x is shifted to its block mean, and y
    to the block's least-squares line in x, which leaves the residuals as
    they are and spares a nearly exact fit most of the cancellation.

    Returns, per window: sum w, sum w^2, the block origins x0 and y0, the
    weighted means of x - x0 and y - y0, sxx = sum w (x - xbar)^2, the
    slope, the residual sum sum w r^2, with ``lags`` the Newey-West meat
    from _lag_sums and its rounding bound (nan without), and a bound on the
    relative rounding error of the moments: each raw magnitude (every term
    taken positive, the prefix sums at both ends, |u| <= (1 + u^2) / 2 for
    odd powers) over the centred result it gives.
    """
    n = t.size
    key = np.floor((t - t[0]) / half)
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    block = np.searchsorted(first, np.minimum(lo, n - 1), "right") - 1
    stop = np.zeros_like(first)
    np.maximum.at(stop, block, hi)
    span = np.maximum(stop - first, 0)          # 0 for a block no window reads
    q = np.ones(n) if quality is None else np.asarray(quality, dtype=float)
    out = np.full((12, centers.size), np.nan)
    step = max(1, 2 * WINDOW_BLOCK_ELEMENTS // (23 * (int(span.max()) + 1)))
    for c in range(0, first.size, step):
        win = np.flatnonzero((block >= c) & (block < c + step))
        if not win.size:
            continue
        s = first[c:c + step]
        idx = np.minimum(s[:, None] + np.arange(int(span[c:c + step].max())),
                         n - 1)
        origin = t[s] + 0.5 * half
        t_at, q_at = t[idx], q[idx]
        u = (t_at - origin[:, None]) / half
        xs, ys = x[idx], y[idx]
        x0, y0 = xs.mean(axis=1), ys.mean(axis=1)
        xs -= x0[:, None]
        ys -= y0[:, None]
        ssx = _row_dot(xs, xs)
        beta = _row_dot(xs, ys) / np.where(ssx > 0, ssx, np.inf)
        ys -= beta[:, None] * xs
        # row k of P: the prefix sums of feature k, after a leading zero
        P = np.zeros((23, s.size, idx.shape[1] + 1))
        f = P[:, :, 1:]
        f[0] = q_at
        np.multiply(f[0], xs, out=f[1])
        np.multiply(f[0], ys, out=f[2])
        np.multiply(f[1], xs, out=f[3])
        np.multiply(f[1], ys, out=f[4])
        np.multiply(f[2], ys, out=f[5])
        np.multiply(f[0:6], u, out=f[6:12])
        np.multiply(f[6:12], u, out=f[12:18])
        np.multiply(f[0], f[0], out=f[18])
        for k in range(19, 23):
            np.multiply(f[k - 1], u, out=f[k])
        np.cumsum(P, axis=2, out=P)
        j = block[win] - c
        below = P[:, j, lo[win] - s[j]]
        d = P[:, j, hi[win] - s[j]]
        del P, f            # the lag sums below hold arrays of their own
        nonneg = [0, 3, 5, 12, 15, 17, 18, 20, 22]   # 1, x^2, y^2 (u^0, u^2)
        mag = d[nonneg] + below[nonneg]              # and q^2 u^0, u^2, u^4
        d -= below
        v = (centers[win] - origin[j]) / half
        # 1 - (u - v)^2 = c0 + c1 u - u^2, and its square in powers of u
        c0, c1 = 1.0 - v * v, 2.0 * v
        sw, sx, sy, sxx, sxy, syy = c0 * d[0:6] + c1 * d[6:12] - d[12:18]
        sq = np.array([c0 * c0, 2.0 * c0 * c1, c1 * c1 - 2.0 * c0, -2.0 * c1,
                       np.ones_like(v)])
        sww = (sq * d[18:23]).sum(axis=0)
        a0, a1 = np.abs(c0), np.abs(c1)
        m1, mxx, myy = (a0 + 0.5 * a1) * mag[0:3] + (1.0 + 0.5 * a1) * mag[3:6]
        a = np.abs(sq)
        mww = ((a[0] + 0.5 * a[1]) * mag[6] + (a[2] + 0.5 * (a[1] + a[3]))
               * mag[7] + (a[4] + 0.5 * a[3]) * mag[8])
        xbar, ybar = sx / sw, sy / sw
        cxx, cxy, cyy = sxx - sx * xbar, sxy - sx * ybar, syy - sy * ybar
        slope = cxy / cxx
        rss = cyy - slope * cxy
        # a result that cancelled to zero or below gets a bound near 1 or
        # more; the last term is the rounding of y - beta x against the
        # residuals, sum w (y - y0)^2 <= 2 (syy + beta^2 sxx) about the block
        k1 = m1 / np.abs(sw)
        kx = (mxx + sxx * k1) / np.abs(cxx)
        ky = (myy + syy * k1) / np.abs(cyy)
        bound = _EPS * np.maximum.reduce(
            [k1, mww / np.abs(sww), kx, np.abs(cyy / rss) * np.maximum(kx, ky),
             np.sqrt(2.0 * (syy + beta[j] ** 2 * sxx) / np.abs(rss))])
        out[:9, win] = (sw, sww, x0[j], y0[j], xbar, ybar + beta[j] * xbar,
                        cxx, slope + beta[j], rss)
        out[11, win] = bound
        if lags is not None:
            del below, d, mag, sq, a
            mid = origin + half
            out[9:11, win] = _lag_sums(
                (q_at, (t_at - mid[:, None]) / half, xs, ys), half, s, mid, j,
                centers[win], lo[win], hi[win], xbar, ybar, slope, lags[win])
    return out


def _lag_sums(rows, half, s, origin, j, centers, a, b, xbar, ybar, slope,
              lags):
    """Newey-West meats of windows a:b, which read block j of a chunk of
    _window_moments, and bounds on their relative rounding error; nan
    where the lag is below 0, over LAG_SUMS_MAX_LAG or over b - a.

    ``rows`` are the chunk's samples as _window_moments gathered them, a
    row per block from its first sample s: q, u, and X and Y in the block's
    own x shift and y line shift, with u from ``origin``, the blocks'
    origin moved on by half, to the middle of the block's window centres,
    so that |v| <= 1/2 and the kernel's expansion below cancels less.  In
    those coordinates g_i = C . phi_i, for the window's 15 coefficients C
    (c0 + c1 u - u^2 = 1 - (u - v)^2 times the expansion of
    (X - xbar)(Y - ybar - slope (X - xbar)) in XY, X^2, X, Y, 1) and the
    15 per-sample features phi = q u^{0,1,2} (XY, X^2, X, Y, 1).  With
    g = 0 outside a:b, (L + 1) meat = sum_j S_j^2 over the moving sums
    S_j = g_{j-L} + ... + g_j: _lag_prefix gives those with a + L <= j < b,
    and running sums of g from a and back from b - 1 the L at either end,
    which would overlap in a window of fewer than L samples.  The bound is
    2 eps (L + 1) (sum_k |C_k| |phi_k|)^2 over the meat, with |phi_k| the
    2-norm of feature k over the samples read: by Cauchy-Schwarz, and as a
    moving sum of L + 1 features has at most L + 1 times their norm, the
    most that the prefix sums at both ends can hold."""
    meat = np.full(j.size, np.nan)
    bound = np.full(j.size, np.nan)
    v = (centers - origin[j]) / half
    kern = (1.0 - v * v, 2.0 * v, -np.ones_like(v))
    resid = (np.ones_like(v), -slope, 2.0 * slope * xbar - ybar, -xbar,
             xbar * (ybar - slope * xbar))
    C = np.array([k * r for k in kern for r in resid])
    ok = (lags >= 0) & (lags <= np.minimum(LAG_SUMS_MAX_LAG, b - a))
    for L in np.unique(lags[ok]).tolist():
        ends = np.arange(L)
        mine = np.flatnonzero(ok & (lags == L))
        mine = mine[np.lexsort((a[mine], j[mine]))]
        for w in np.array_split(mine, -(-mine.size // LAG_SUMS_STEP)):
            blocks, row = np.unique(j[w], return_inverse=True)
            at, bt, Cw, k = a[w] - s[j[w]], b[w] - s[j[w]], C[:, w], j[w]

            def features(p0, p1, k=blocks):     # phi at positions p0:p1
                return _lag_features(*(r[k, p0:p1] for r in rows))

            inner, norm = _lag_prefix(features, L, row, at, bt, Cw)
            # g at the head's and the tail's samples, the kernel not
            # clipped at 0, as in C . phi
            k, c = k[:, None], w[:, None]
            pos = np.hstack((at[:, None] + ends, bt[:, None] - 1 - ends))
            qz, u, X, Y = (r[k, pos] for r in rows)
            X -= xbar[c]
            Y -= ybar[c]
            Y -= slope[c] * X
            u -= v[c]
            edge = (qz * (1.0 - u * u) * X * Y).reshape(w.size, 2, L)
            np.cumsum(edge, axis=2, out=edge)
            meat[w] = (inner + np.einsum("wij,wij->w", edge, edge)) / (L + 1)
            mag = (np.abs(Cw) * np.sqrt(norm[:, row])).sum(axis=0) ** 2
            bound[w] = 2.0 * _EPS * (L + 1) * mag / np.abs(meat[w])
    return meat, bound


_PAIRS = np.triu_indices(15)   # the pairs p <= q of the 15 lag features
_PAIR_WEIGHT = np.where(_PAIRS[0] < _PAIRS[1], 2.0, 1.0)[:, None]


def _lag_prefix(features, L, row, at, bt, C):
    """C'[Q(bt) - Q(at + L)]C per window (column of C), at block positions
    of stacked block row[w], and per block the squared 2-norms of the 15
    features phi over positions min(at) .. max(bt) - 1; features(p0, p1)
    gives phi at positions p0:p1 of every block.

    Q(m) sums over positions min(at) + L <= i < m the 120 products
    Psi_p Psi_q (p <= q) of the moving sums Psi_i = phi_{i-L} + ... + phi_i;
    with the pairs p < q counted twice, C'[Q(b) - Q(a + L)]C is the sum of
    (C . Psi_i)^2 over a + L <= i < b.  The blocks are read together, at
    most LAG_SUMS_STEP positions in all at a time.  Q is needed at every
    window end, so the products are prefix-summed where the ends lie, up to
    max(at) + L and from min(bt); between the two only their sum is
    needed, and one matrix product per block gives it.  The norms start
    where Q does, at the step's first window: Q(a + L) and Q(b) both hold
    the products before a + L, whose rounding their difference keeps, so
    norms over a:b alone would bound too little, and a window's bound
    depends on the windows read with it."""
    rows = int(row.max()) + 1
    start, top, stop = int(at.min()) + L, int(at.max()) + L, int(bt.max())
    mid = max(top, int(bt.min()) - 1)
    width = max(1, LAG_SUMS_STEP // rows)
    Q = np.zeros((120, rows))           # the prefix sums at the piece's start
    norm = np.zeros((15, rows))
    at_end, bt_end = np.zeros(at.size), np.zeros(at.size)
    for lo, hi, dense in ((start, top, True), (top, mid, False),
                          (mid, stop, True)):
        for p0 in range(lo, hi, width):
            p1 = min(p0 + width, hi)
            # phi from p0 - L, and Psi from p0 - 1 with that column 0: their
            # products fill whole rows of a piece
            phi = features(p0 - L, p1)
            counted = phi if p0 == start else phi[:, :, L:]
            norm += np.einsum("krn,krn->kr", counted, counted)
            psi = np.zeros(phi.shape[:2] + (p1 - p0 + 1,))
            for ell in range(L + 1):
                psi[:, :, 1:] += phi[:, :, ell:ell + p1 - p0]
            if not dense:
                M = psi.transpose(1, 0, 2) @ psi.transpose(1, 2, 0)
                Q += M[:, _PAIRS[0], _PAIRS[1]].T
                continue
            piece = np.empty((120,) + psi.shape[1:])
            first = 0
            for p in range(15):
                np.multiply(psi[p], psi[p:], out=piece[first:first + 15 - p])
                first += 15 - p
            piece[:, :, 0] = Q
            np.cumsum(piece, axis=2, out=piece)
            Q = piece[:, :, -1].copy()
            # C'Q(m)C for the windows ending in the piece, a few at a time
            for m, out in ((at + L, at_end), (bt, bt_end)):
                r = np.flatnonzero((m >= p0) & (m <= p1))
                for r0 in range(0, r.size, LAG_SUMS_STEP // 2):
                    w = r[r0:r0 + LAG_SUMS_STEP // 2]
                    c = C[:, w]
                    pairs = c[_PAIRS[0]]
                    pairs *= c[_PAIRS[1]]
                    pairs *= _PAIR_WEIGHT
                    out[w] = np.einsum("pw,pw->w", pairs,
                                       piece[:, row[w], m[w] - p0])
    return bt_end - at_end, norm


def _lag_features(q, u, X, Y):
    """phi = q u^{0,1,2} (XY, X^2, X, Y, 1) at the samples given."""
    f = np.empty((15,) + u.shape)
    f[4] = q
    np.multiply(f[4], X, out=f[2])
    np.multiply(f[4], Y, out=f[3])
    np.multiply(f[2], Y, out=f[0])
    np.multiply(f[2], X, out=f[1])
    np.multiply(f[0:5], u, out=f[5:10])
    np.multiply(f[5:10], u, out=f[10:15])
    return f


def _closed_form(sw, n_eff, xbar, sxx, slope, ybar, meat):
    """WindowFits from centred moments; meat is the sandwich's middle."""
    dof_factor = n_eff / np.maximum(n_eff - 2.0, 1.0)
    # X'WX = [[sw, sw xbar], [sw xbar, sx2]] has determinant sw sxx
    sx2 = sxx + sw * xbar * xbar
    lam_max = 0.5 * (sw + sx2) + np.hypot(0.5 * (sw - sx2), sw * xbar)
    return WindowFits(sw, n_eff, sxx / sw, slope, ybar - slope * xbar,
                      np.sqrt(np.maximum(meat / (sxx * sxx) * dof_factor, 0.0)),
                      lam_max * lam_max / (sw * sxx))


def _window_rows(t, cols, centers, half, lo, hi, quality):
    """Gather windows lo:hi in blocks of at most WINDOW_BLOCK_ELEMENTS
    samples: yields (index slice of the windows, kernel weights, gathered
    rows of each array in ``cols``), padded to the longest window of the
    block.  The padding is the samples past hi, which lie outside the
    kernel when lo:hi holds every sample within half of the centre, then
    t = inf past the series: all get weight 0.  The rows are fresh copies,
    free to overwrite."""
    count = hi - lo
    width = max(int(count.max(initial=1)), 1)

    def rows_of(a, pad=0.0):    # row j is a[j:j + width]: blocks gather rows
        return sliding_window_view(np.concatenate(
            [np.asarray(a, dtype=float), np.full(width, pad)]), width)

    tv, views = rows_of(t, np.inf), [rows_of(a) for a in cols]
    qv = None if quality is None else rows_of(quality)
    rows = max(1, WINDOW_BLOCK_ELEMENTS // width)
    for blk in (slice(k, k + rows) for k in range(0, count.size, rows)):
        starts, span = lo[blk], int(count[blk].max())
        w = epanechnikov((tv[starts, :span] - centers[blk, None]) / half)
        if qv is not None:
            w *= qv[starts, :span]
        yield blk, w, [v[starts, :span] for v in views]


def _fit_rows(x, y, w, lags):
    """Closed-form WLS per row of padded arrays (padding has zero weight)."""
    sw = w.sum(axis=1)
    xbar, dx = _centre(x, w, sw)
    ybar, dy = _centre(y, w, sw)
    wdx = w * dx
    sxx = _row_dot(wdx, dx)
    slope = _row_dot(wdx, dy) / sxx
    resid = dy - slope[:, None] * dx
    n_eff = sw * sw / _row_dot(w, w)
    if lags is None:  # classical: meat / sxx^2 = sigma^2 / sxx
        meat = _row_dot(w * resid, resid) * sxx / sw
    else:
        meat = _newey_west_meat(wdx * resid, lags)
    return _closed_form(sw, n_eff, xbar, sxx, slope, ybar, meat)


def _newey_west_meat(g, lags):
    """Bartlett-weighted sum of the lag products of each row of g."""
    meat = _row_dot(g, g)
    for ell in range(1, int(lags.max(initial=0)) + 1):
        bartlett = np.where(ell <= lags, 1.0 - ell / (lags + 1.0), 0.0)
        meat += 2.0 * bartlett * _row_dot(g[:, ell:], g[:, :-ell])
    return meat


def _row_dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _centre(a, w, sw):
    """Weighted row means and centred rows; the second pass removes the
    rounding of the first, which matters for epoch-second regressors."""
    mean = _row_dot(w, a) / sw
    d = a - mean[:, None]
    fix = _row_dot(w, d) / sw
    return mean + fix, d - fix[:, None]


def log_slope(x: TimeSeries, window: float, center_t: float) -> SlopePoint:
    """Local growth rate d log x / dt at ``center_t``.

    Fits log(value) against t over the window of full width ``window``
    centered at ``center_t``, with Epanechnikov kernel weights times any
    quality weights.  Requires at least three strictly positive samples in
    the window.
    """
    half = window / 2.0
    lo, hi = window_bounds(x.t, center_t, half)
    win = slice(int(lo[0]), int(hi[0]))
    tt = x.t[win]
    if tt.size < 3:
        raise InsufficientWindow(
            f"window [{center_t - half}, {center_t + half}] holds "
            f"{tt.size} samples; need >= 3")
    vv = x.values[win]
    if np.any(vv <= 0):
        raise NonPositiveValue(
            f"log_slope needs strictly positive values in window of {x.name!r}")
    fit = windowed_wls(tt, tt, np.log(vv), [center_t], half, [0], [tt.size],
                       quality=x.effective_weights()[win])
    if not fit.sw[0] > 0:
        raise InsufficientWindow("all kernel weights vanish in window")
    if not fit.var_x[0] > 0:
        raise DegenerateRegressor("zero regressor variance in window")
    return SlopePoint(float(center_t), float(fit.slope[0]), float(fit.se[0]),
                      half, float(fit.n_eff[0]))


def elasticity(y: TimeSeries, x: TimeSeries, window: float) -> SlopeSeries:
    """Rolling local slope of log y against log x (the elasticity of y
    with respect to x), through the shared windowed kernel.

    The series are aligned onto x's grid over their time overlap.  Windows
    with fewer than three samples or no kernel mass are dropped, and so
    are windows where Var(log x) falls below tolerance; if no window
    survives, DegenerateRegressor is raised.
    """
    y_on, x_on = align(y, x)
    if np.any(y_on.values <= 0) or np.any(x_on.values <= 0):
        raise NonPositiveValue("elasticity requires strictly positive series")
    half = window / 2.0
    t = x_on.t
    lo, hi = window_bounds(t, t, half)
    sel = np.flatnonzero(hi - lo >= 3)
    fit = windowed_wls(t, np.log(x_on.values), np.log(y_on.values), t[sel],
                       half, lo[sel], hi[sel],
                       quality=x_on.effective_weights())
    keep = (fit.sw > 0) & (fit.var_x >= VAR_LOG_TOL)
    if not keep.any():
        raise DegenerateRegressor(
            f"Var(log {x.name}) below {VAR_LOG_TOL} in every window")
    return SlopeSeries(t[sel[keep]], fit.slope[keep], fit.se[keep], half)


def effective_dataset(d_real: TimeSeries, d_synth: TimeSeries,
                      rho_syn: float) -> TimeSeries:
    """Pointwise effective dataset D_real + rho_syn * D_synth.

    ``rho_syn`` discounts synthetic data to its real-data equivalent and must
    lie in [0, 1]; both inputs must share grid and unit.
    """
    if not 0.0 <= rho_syn <= 1.0:
        raise RhoOutOfRange(f"rho_syn={rho_syn} outside [0, 1]")
    require_same_grid(d_real, d_synth)
    if d_real.unit != d_synth.unit:
        raise UnitMismatch(
            f"cannot combine units {d_real.unit!r} and {d_synth.unit!r}")
    vals = d_real.values + rho_syn * d_synth.values
    return TimeSeries(f"{d_real.name}_eff", d_real.unit, d_real.t, vals,
                      None, d_real.snapshot_version)
