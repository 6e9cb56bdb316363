import hashlib
import json
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsi_certify import series as ts
from rsi_certify.errors import (
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


def make_series(t, v, unit="W", name="s", weights=None):
    return ts.TimeSeries(name, unit, t, v, weights)


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_well_formed(tmp_path):
    p = tmp_path / "power.csv"
    p.write_text("# unit=W\nt,value\n0.0,1.0\n1.0,2.0\n2.0,3.0\n")
    s = ts.ingest_csv(p, "W")
    assert len(s) == 3
    assert s.unit == "W"
    assert s.name == "power"
    assert s.snapshot_version != ""
    np.testing.assert_allclose(s.values, [1.0, 2.0, 3.0])


def test_ingest_quality_column_and_default(tmp_path):
    p = tmp_path / "q.csv"
    p.write_text("# unit=W\nt,value,quality\n0,1,0.5\n1,2,\n")
    s = ts.ingest_csv(p, "W")
    np.testing.assert_allclose(s.weights, [0.5, 1.0])


def test_ingest_rfc3339_timestamps(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("# unit=K\nt,value\n2024-01-01T00:00:00Z,300\n"
                 "2024-01-01T00:00:01Z,301\n")
    s = ts.ingest_csv(p, "K")
    assert s.t[1] - s.t[0] == pytest.approx(1.0)


def test_ingest_duplicate_timestamp(tmp_path):
    p = tmp_path / "dup.csv"
    p.write_text("# unit=W\nt,value\n0,1\n0,2\n")
    with pytest.raises(NonMonotoneTime):
        ts.ingest_csv(p, "W")


def test_ingest_unit_mismatch(tmp_path):
    p = tmp_path / "u.csv"
    p.write_text("# unit=K\nt,value\n0,1\n1,2\n")
    with pytest.raises(UnitMismatch):
        ts.ingest_csv(p, "W")


def test_ingest_malformed_row_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# unit=W\nt,value\n0,1\nnot-a-number,2\n")
    with pytest.raises(ParseError) as err:
        ts.ingest_csv(p, "W")
    assert err.value.line == 4


@pytest.mark.parametrize("header, rows, error, line", [
    ("t,value", "0,1\n1,nan\n", NonPositiveValue, 4),
    ("t,value", "0,1\n1,-inf\n", NonPositiveValue, 4),
    ("t,value", "0,1\n1,1e999\n2,3\n", NonPositiveValue, 4),
    ("t,value,quality", "0,1,1\n1,2,nan\n", NonPositiveValue, 4),
    ("t,value", "0,1\nnan,2\n", NonMonotoneTime, 4),
    ("t,value", "0,1\n1,2\n1,3\n", NonMonotoneTime, 5),
    ("t,value", "0,1\n2,2\n1,3\n", NonMonotoneTime, 5),
    ("t,value", "0,1\n\n# note\n0,2\n", NonMonotoneTime, 6),
    # a cell of the columnar pass's characters that float() refuses
    ("t,value", "0,1\n1,1e\n", ParseError, 4),
])
def test_ingest_cell_faults_name_their_line(tmp_path, header, rows, error,
                                            line):
    p = tmp_path / "fault.csv"
    p.write_text(f"# unit=W\n{header}\n{rows}")
    with pytest.raises(error, match=rf"^line {line}: "):
        ts.ingest_csv(p, "W")


def assert_same_read(got, want):
    """Two (unit, t, values, qualities) reads agree, bit for bit."""
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert (a is None) == (b is None)
        if a is not None:
            assert (np.asarray(a, float).tobytes()
                    == np.asarray(b, float).tobytes())


def test_columnar_pass_reads_the_package_layout(tmp_path):
    t = 1.7e9 + np.cumsum(np.full(50, 0.1))
    v = np.exp(np.linspace(-3.0, 3.0, 50))
    for weights in (None, np.linspace(0.0, 1.0, 50)):
        ts.write_csv(ts.TimeSeries("s", "W", t, v, weights), tmp_path / "s.csv")
        text = (tmp_path / "s.csv").read_text()
        for body in (text, text.rstrip("\n")):
            got = ts._read_columns(body)
            assert got is not None
            assert_same_read(got, ts._read_lines(body))


def _utc(t):
    return (datetime.fromtimestamp(t, tz=timezone.utc).isoformat()
            .replace("+00:00", "Z"))


# per-line faults: (name, edit of the line's cells)
CELL_FAULTS = {
    "nan value": lambda c, t: c[:1] + ["nan"] + c[2:],
    "inf value": lambda c, t: c[:1] + ["-inf"] + c[2:],
    "overflow value": lambda c, t: c[:1] + ["1e999"] + c[2:],
    "nan time": lambda c, t: ["nan"] + c[1:],
    "rfc3339 time": lambda c, t: [_utc(t)] + c[1:],
    "underscore": lambda c, t: c[:1] + ["1_0"] + c[2:],
    "spaces": lambda c, t: [f" {x} " for x in c],
    "quoted": lambda c, t: [f'"{x}"' for x in c],
    "empty last": lambda c, t: c[:-1] + [""],
    "letters": lambda c, t: c[:1] + ["abc"] + c[2:],
    "exponent only": lambda c, t: c[:1] + ["e"] + c[2:],
    "extra field": lambda c, t: c + ["7"],
    "missing field": lambda c, t: c[:-1],
}
LINE_FAULTS = ("duplicate time", "decreasing time", "shift into next",
               "blank after", "comment after", "unit after")
PREAMBLES = (
    "# unit=W{eol}{header}{eol}",
    "#  unit = W {eol} {header} {eol}",
    "# source: bench{eol}# unit=W{eol}{header}{eol}",
    "{eol}# unit=W{eol}{header}{eol}",
    "{header}{eol}# unit=W{eol}",
    "{header}{eol}",
    "# unit=W{eol}time,value{eol}",
    '# unit=W{eol}"t","value"{eol}',
    "# unit=W{eol}{header}{eol}{eol}",
    "# unit=W\u2028# unit=K{eol}{header}{eol}",   # a break splitlines sees
    "# unit=W{eol}{header}\x1c{eol}",
)
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e5", "-0.0", ".5", "5.", "1E-3", "+2", "2e-320"]))


@st.composite
def telemetry_csv(draw):
    """CSV text in and around the layout the columnar pass reads, with the
    faults and variants the per-line loop has to take over."""
    quality = draw(st.booleans())
    n = draw(st.integers(0, 8))
    t = draw(st.sampled_from([0.0, 1.7e9, -3.5]))
    lines = []
    for _ in range(n):
        t += draw(st.sampled_from([1.0, 0.25, 1e-6, 7.0]))
        cells = [repr(t), draw(NUMBER_CELLS)]
        if quality:
            cells.append(repr(draw(st.floats(0.0, 1.0))))
        lines.append((t, cells))
    faults = draw(st.lists(st.tuples(
        st.integers(0, max(n - 1, 0)),
        st.sampled_from(sorted(CELL_FAULTS) + list(LINE_FAULTS))),
        max_size=3)) if draw(st.booleans()) else []
    extra = {}
    for i, fault in faults:
        if i >= len(lines):
            continue
        t_i, cells = lines[i]
        if fault in CELL_FAULTS:
            lines[i] = (t_i, CELL_FAULTS[fault](cells, t_i))
        elif fault == "duplicate time" and i > 0:
            lines[i] = (t_i, [lines[i - 1][1][0]] + cells[1:])
        elif fault == "decreasing time" and i > 0:
            lines[i] = (t_i, [repr(t_i - 10.0)] + cells[1:])
        elif fault == "shift into next" and i + 1 < len(lines):
            nxt = lines[i + 1][1]   # a long row, then a short one
            lines[i] = (t_i, cells + nxt[:1])
            lines[i + 1] = (lines[i + 1][0], nxt[1:])
        else:
            extra[i] = {"blank after": "", "comment after": "# note",
                        "unit after": "# unit=K"}.get(fault, "")
    body = []
    for i, (_, cells) in enumerate(lines):
        body.append(",".join(cells))
        if i in extra:
            body.append(extra[i])
    # the package's own layout stays the likeliest draw
    eol = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    header = "t,value,quality" if quality else "t,value"
    preamble = draw(st.sampled_from(PREAMBLES[:1] * 16 + PREAMBLES[1:]))
    preamble = preamble.format(eol=eol, header=header)
    text = preamble + eol.join(body) + (eol if draw(st.booleans()) else "")
    return draw(st.sampled_from([""] * 9 + ["\ufeff"])) + text


def _outcome(read, path):
    try:
        s = read(path)
    except Exception as exc:  # the exception is the outcome compared
        return ("error", type(exc), str(exc))
    return ("ok", s.name, s.unit, s.snapshot_version, s.t.tobytes(),
            s.values.tobytes(), None if s.weights is None else s.weights.tobytes())


def _ingest_by_lines(path):
    """ingest_csv with the per-line loop alone, the reference."""
    raw = path.read_bytes()
    unit, t, values, qualities = ts._read_lines(raw.decode("utf-8-sig"))
    return ts.TimeSeries(path.stem, unit, t, values, qualities,
                         hashlib.sha256(raw).hexdigest()[:16])


@settings(max_examples=400, deadline=None)
@given(text=telemetry_csv())
def test_columnar_ingest_matches_the_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(ts.ingest_csv, path) == _outcome(_ingest_by_lines, path)
    columns = ts._read_columns(text)
    if columns is not None:
        assert_same_read(columns, ts._read_lines(text))


def test_crlf_file_takes_the_columnar_pass(tmp_path):
    t = 1.7e9 + np.cumsum(np.full(50, 0.1))
    v = np.exp(np.linspace(-3.0, 3.0, 50))
    for weights in (None, np.linspace(0.0, 1.0, 50)):
        ts.write_csv(ts.TimeSeries("s", "W", t, v, weights), tmp_path / "s.csv")
        text = (tmp_path / "s.csv").read_text()
        for body in (text, text.rstrip("\n")):
            crlf = body.replace("\n", "\r\n")
            got = ts._read_columns(crlf)
            assert got is not None
            assert_same_read(got, ts._read_lines(crlf))
            assert_same_read(got, ts._read_columns(body))
            # a lone CR is a break only the line loop reads
            for lone in (body.replace("\n", "\r"),
                         crlf.replace("\r\n", "\r", 3)):
                assert ts._read_columns(lone) is None


def test_a_shared_clock_is_parsed_once():
    t = 1.7e9 + np.cumsum(np.full(20, 0.25))
    a, b = (ts.TimeSeries(name, "W", t, np.exp(t - t[0]) + k).to_csv_text()
            for k, name in enumerate("ab"))
    clocks = {}
    first = ts._read_columns(a, clocks)
    [clock] = clocks.values()
    second = ts._read_columns(b, clocks)
    assert len(clocks) == 1 and second[1] is clock
    assert_same_read(second, ts._read_lines(b))
    # the same times spelled otherwise are another clock, read to the
    # same floats
    respelled = a.replace(".0,", ".00,")
    assert respelled != a
    third = ts._read_columns(respelled, clocks)
    assert len(clocks) == 2 and third[1] is not clock
    assert_same_read(third, first)


class CountingNumpy:
    """numpy, with the cells of each np.array call on text counted."""

    def __init__(self):
        self.cells = []

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, obj, *args, **kwargs):
        if isinstance(obj, list) and obj and isinstance(obj[0], str):
            self.cells.append(len(obj))
        return np.array(obj, *args, **kwargs)


def test_ingest_without_a_clock_keeps_no_state(tmp_path, monkeypatch):
    n = 30
    t = 1.7e9 + np.arange(float(n))
    ts.write_csv(ts.TimeSeries("s", "W", t, np.exp(t - t[0])),
                 tmp_path / "s.csv")
    counting = CountingNumpy()
    monkeypatch.setattr(ts, "np", counting)
    for _ in range(2):
        ts.ingest_csv(tmp_path / "s.csv")
    assert counting.cells == [2 * n, 2 * n]     # every cell, every time
    clocks = {}
    for _ in range(2):
        ts.ingest_csv(tmp_path / "s.csv", clocks=clocks)
    assert counting.cells[2:] == [2 * n, n]     # the clock once


def _spellings(t: float) -> list[str]:
    """Texts that float() reads as ``t``: 1.0, 1.00, 1e0 and the like."""
    text = repr(t)
    out = [text, f"{t:.17e}"]
    if "." in text and "e" not in text:
        out.append(text + "0")
    if t.is_integer() and abs(t) < 1e15:
        out.append(f"{int(t)}e0")
    return out


CLOCK_EDITS = ("verbatim", "respell one", "move one", "respell all",
               "fewer rows", "more rows", "duplicate time",
               "decreasing time", "cell fault", "own file")


@st.composite
def clocked_csvs(draw):
    """CSV texts that each take their timestamp cells from the file before
    them, verbatim or edited (one cell respelled or moved, every cell
    respelled, rows dropped or added, a duplicate or decreasing time, a
    cell fault), with or without a quality column; or a telemetry_csv
    file of their own."""
    t0 = draw(st.sampled_from([0.0, 1.0, 1.7e9, -3.5]))
    steps = draw(st.lists(st.sampled_from([1.0, 0.25, 1e-6, 7.0]),
                          min_size=1, max_size=8))
    stamps = [repr(float(x)) for x in t0 + np.cumsum(steps)]
    texts = []
    for _ in range(draw(st.integers(2, 5))):
        edit = draw(st.sampled_from(CLOCK_EDITS))
        if edit == "own file":
            texts.append(draw(telemetry_csv()))
            continue
        stamps = list(stamps)
        last = float(stamps[-1])
        i = draw(st.integers(0, len(stamps) - 1))
        if edit == "respell one":
            stamps[i] = draw(st.sampled_from(_spellings(float(stamps[i]))))
        elif edit == "move one":
            stamps[i] = repr(float(stamps[i]) + draw(st.sampled_from(
                [1e-9, -1e-9, 0.5, -0.5])))
        elif edit == "respell all":
            stamps = [draw(st.sampled_from(_spellings(float(x))))
                      for x in stamps]
        elif edit == "fewer rows":
            stamps = stamps[:i + 1]
        elif edit == "more rows":
            stamps += [repr(last + k + 1.0)
                       for k in range(draw(st.integers(1, 3)))]
        elif edit == "duplicate time" and i > 0:
            stamps[i] = stamps[i - 1]
        elif edit == "decreasing time":
            stamps[i] = repr(float(stamps[i]) - 10.0)
        quality = draw(st.booleans())
        rows = []
        for stamp in stamps:
            cells = [stamp, draw(NUMBER_CELLS)]
            if quality:
                cells.append(repr(draw(st.floats(0.0, 1.0))))
            rows.append(cells)
        if edit == "cell fault":
            fault = draw(st.sampled_from(sorted(CELL_FAULTS)))
            rows[i] = CELL_FAULTS[fault](rows[i], float(stamps[i]))
        eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
        header = "t,value,quality" if quality else "t,value"
        texts.append(eol.join(["# unit=W", header, *map(",".join, rows)])
                     + eol)
    return texts


@settings(max_examples=200, deadline=None)
@given(texts=clocked_csvs())
def test_reading_through_a_shared_clock_is_reading_alone(tmp_path_factory,
                                                         texts):
    folder = tmp_path_factory.mktemp("clock")
    clocks = {}
    for i, text in enumerate(texts):
        path = folder / f"s{i}.csv"
        path.write_bytes(text.encode("utf-8"))
        shared = _outcome(lambda p: ts.ingest_csv(p, clocks=clocks), path)
        assert shared == _outcome(ts.ingest_csv, path)


@pytest.mark.parametrize("text", [
    "# unit=W\nt,value\n1.5,2.0\n2.5,3.0\n",              # columnar pass
    "# unit=W\nt,value,quality\n2024-01-01T00:00:00Z,2.0,\n"
    "2024-01-01T00:00:01Z,3.0,0.5\n",                      # per-line loop
])
def test_bom_file_ingests_as_without_bom(tmp_path, text):
    # spreadsheet exports start with a UTF-8 BOM; only the hash sees it
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    plain, bom = tmp_path / "plain" / "s.csv", tmp_path / "bom" / "s.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    a, b = ts.ingest_csv(plain, "W"), ts.ingest_csv(bom, "W")
    assert b.unit == a.unit == "W"
    np.testing.assert_array_equal(b.t, a.t)
    np.testing.assert_array_equal(b.values, a.values)
    np.testing.assert_array_equal(b.weights, a.weights)
    assert b.snapshot_version != a.snapshot_version


def test_ingest_serialize_roundtrip_csv(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("# unit=bit/s\nt,value,quality\n0.5,1.25,0.75\n1.5,2.5,1.0\n")
    s = ts.ingest_csv(p, "bit/s")
    q = tmp_path / "a_copy.csv"
    ts.write_csv(s, q)
    s2 = ts.ingest_csv(q, "bit/s")
    np.testing.assert_array_equal(s.t, s2.t)
    np.testing.assert_array_equal(s.values, s2.values)
    np.testing.assert_array_equal(s.weights, s2.weights)
    assert s.unit == s2.unit


def test_json_roundtrip(tmp_path):
    s = make_series([0.0, 1.0, 2.5], [1.0, 4.0, 9.0], unit="nat")
    p = tmp_path / "s.json"
    ts.write_json(s, p)
    s2 = ts.read_json(p)
    np.testing.assert_array_equal(s.t, s2.t)
    np.testing.assert_array_equal(s.values, s2.values)
    assert s2.unit == "nat"
    # serialized form carries the documented fields
    doc = json.loads(p.read_text())
    assert set(doc) == {"name", "unit", "snapshot_version", "samples"}


def test_series_immutable():
    s = make_series([0, 1], [1, 2])
    with pytest.raises(AttributeError):
        s.name = "other"
    with pytest.raises(ValueError):
        s.values[0] = 99.0


# ---------------------------------------------------------------------------
# log_slope


def test_log_slope_exact_exponential():
    t = np.linspace(0, 10, 101)
    s = make_series(t, np.exp(t))
    pt = ts.log_slope(s, 4.0, 5.0)
    assert pt.slope == pytest.approx(1.0, abs=1e-9)


def test_log_slope_constant_series():
    t = np.linspace(0, 10, 51)
    s = make_series(t, np.full_like(t, 3.7))
    assert ts.log_slope(s, 4.0, 5.0).slope == pytest.approx(0.0, abs=1e-12)


def test_log_slope_quadratic_vs_analytic_derivative():
    # oracle: d/dt log (1+t)^2 = 2/(1+t); at the window center t=5 this is
    # 2/6; the kernel-weighted fit carries an O(h^2) bias of ~1.3e-3
    t = np.linspace(0, 10, 2001)
    s = make_series(t, (1 + t) ** 2)
    oracle = 2.0 / (1.0 + 5.0)
    pt = ts.log_slope(s, 2.0, 5.0)
    assert pt.slope == pytest.approx(oracle, abs=5e-3)


def test_log_slope_window_too_small():
    s = make_series([0, 1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(InsufficientWindow):
        ts.log_slope(s, 0.5, 1.0)


def test_log_slope_nonpositive_value():
    s = make_series([0, 1, 2], [1.0, -1.0, 2.0])
    with pytest.raises(NonPositiveValue):
        ts.log_slope(s, 4.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_log_slope_scale_invariant(c):
    t = np.linspace(0, 10, 41)
    v = np.exp(0.3 * t) * (1 + 0.1 * np.sin(t))
    base = ts.log_slope(make_series(t, v), 4.0, 5.0).slope
    scaled = ts.log_slope(make_series(t, c * v), 4.0, 5.0).slope
    assert scaled == pytest.approx(base, abs=1e-10)


# ---------------------------------------------------------------------------
# elasticity


def test_elasticity_exact_power_law():
    t = np.linspace(1, 10, 200)
    x = make_series(t, 1 + t ** 1.3)
    y = make_series(t, (1 + t ** 1.3) ** 2, unit="W", name="y")
    prof = ts.elasticity(y, x, 2.0)
    np.testing.assert_allclose(prof.slope, 2.0, atol=1e-9)


def test_elasticity_constant_y():
    t = np.linspace(1, 10, 100)
    x = make_series(t, t)
    y = make_series(t, np.full_like(t, 5.0), name="y")
    prof = ts.elasticity(y, x, 3.0)
    np.testing.assert_allclose(prof.slope, 0.0, atol=1e-12)


def test_elasticity_noisy_power_law_coverage():
    # Monte-Carlo oracle: y = x^1.5 with 1% multiplicative noise; at least
    # 95% of windows holding >= 50 points must land in [1.4, 1.6]
    rng = np.random.default_rng(20240811)
    t = np.linspace(0, 30, 1200)
    xv = np.exp(0.1 * t)
    yv = xv ** 1.5 * (1.0 + 0.01 * rng.standard_normal(t.size))
    prof = ts.elasticity(make_series(t, yv, name="y"), make_series(t, xv), 3.0)
    # windows have ~120 points each here
    inside = (prof.slope >= 1.4) & (prof.slope <= 1.6)
    assert inside.mean() >= 0.95


def test_elasticity_degenerate_regressor():
    t = np.linspace(0, 10, 50)
    x = make_series(t, np.full_like(t, 2.0))
    y = make_series(t, np.exp(t), name="y")
    with pytest.raises(DegenerateRegressor):
        ts.elasticity(y, x, 3.0)


def test_elasticity_aligns_offset_grids():
    t1 = np.linspace(1, 10, 180)
    t2 = np.linspace(1, 10, 100)
    x = make_series(t2, t2)
    y = make_series(t1, t1 ** 2, name="y")
    prof = ts.elasticity(y, x, 2.0)
    np.testing.assert_allclose(prof.slope, 2.0, atol=5e-3)


# ---------------------------------------------------------------------------
# resample / effective_dataset


def test_resample_identity_on_native_grid():
    t = np.arange(0.0, 5.0, 1.0)
    s = make_series(t, t ** 2)
    r = ts.resample(s, 1.0)
    np.testing.assert_allclose(r.t, s.t)
    np.testing.assert_allclose(r.values, s.values)


def test_resample_midpoint():
    s = make_series([0.0, 1.0], [1.0, 3.0], weights=[1.0, 0.5])
    r = ts.resample(s, 0.5)
    assert r.values[1] == pytest.approx(2.0)
    assert r.weights.tolist() == [1.0, 0.75, 0.5]   # interpolated too


def test_resample_refuses_extrapolation():
    s = make_series([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(OutOfRange):
        ts.resample(s, 0.5, start=0.0)
    with pytest.raises(OutOfRange):
        ts.resample(s, 0.5, end=3.0)


def test_effective_dataset_formula():
    t = [0.0, 1.0]
    d_real = make_series(t, [100.0, 100.0], unit="tokens", name="real")
    d_synth = make_series(t, [50.0, 50.0], unit="tokens", name="synth")
    eff = ts.effective_dataset(d_real, d_synth, 0.3)
    np.testing.assert_allclose(eff.values, 115.0)
    assert eff.unit == "tokens"
    # boundary coefficients
    np.testing.assert_allclose(
        ts.effective_dataset(d_real, d_synth, 0.0).values, d_real.values)
    d10 = make_series(t, [10.0, 10.0], unit="tokens", name="real")
    d5 = make_series(t, [5.0, 5.0], unit="tokens", name="synth")
    np.testing.assert_allclose(
        ts.effective_dataset(d10, d5, 1.0).values, 15.0)


def test_same_grid_pairs_rounding_but_not_a_sample_offset():
    # at epoch seconds |t| * 1e-9 is 1.7 s: a tolerance scaled by |t|
    # would pair a 1 Hz series with the same series one sample late
    t = 1.7e9 + np.arange(100.0)
    p_use = make_series(t, np.ones(100), name="P_use")
    for offset in (1.0, 0.5):
        late = make_series(t + offset, np.ones(100), unit="K", name="T")
        assert not ts.same_grid(p_use, late)
        with pytest.raises(GridMismatch):
            ts.require_same_grid(p_use, late)
    rounded = make_series(np.nextafter(np.nextafter(t, np.inf), np.inf),
                          np.ones(100), unit="K", name="T")
    assert ts.same_grid(p_use, rounded)
    assert ts.same_grid(make_series([0.0], [1.0]),
                        make_series([1e-12], [1.0]))


def test_effective_dataset_errors():
    d_real = make_series([0, 1], [1, 2], unit="tokens")
    d_synth_grid = make_series([0, 2], [1, 2], unit="tokens", name="s")
    with pytest.raises(GridMismatch):
        ts.effective_dataset(d_real, d_synth_grid, 0.5)
    d_synth = make_series([0, 1], [1, 2], unit="tokens", name="s")
    with pytest.raises(RhoOutOfRange):
        ts.effective_dataset(d_real, d_synth, 1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
       st.floats(min_value=1, max_value=10))
def test_effective_dataset_monotone(rho_a, rho_b, bump):
    t = [0.0, 1.0, 2.0]
    d_real = make_series(t, [10.0, 20.0, 30.0], unit="tok", name="r")
    d_synth = make_series(t, [5.0, 5.0, 5.0], unit="tok", name="s")
    lo, hi = sorted([rho_a, rho_b])
    a = ts.effective_dataset(d_real, d_synth, lo).values
    b = ts.effective_dataset(d_real, d_synth, hi).values
    assert np.all(b >= a)
    # monotone in each series argument as well
    d_real_up = make_series(t, [10.0 + bump, 20.0 + bump, 30.0 + bump],
                            unit="tok", name="r")
    d_synth_up = make_series(t, [5.0 + bump] * 3, unit="tok", name="s")
    assert np.all(ts.effective_dataset(d_real_up, d_synth, hi).values >= b)
    assert np.all(ts.effective_dataset(d_real, d_synth_up, hi).values >= b)
