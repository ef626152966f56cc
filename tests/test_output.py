import os
import stat

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regforge.errors import ValidationError
from regforge.lti import TransferFunction, tf_to_ss
from regforge.output import (
    CSV_CHUNK_ROWS,
    MAX_SVG_POINTS,
    format_value,
    line_chart_svg,
    open_artifact,
    read_timeseries_csv,
    write_timeseries_csv,
)
from regforge.plant import REFERENCE_PARAMS
from regforge.sim import ElectricalTrace, SimConfig, TimeSeries, electrical_trace, simulate


SPECIAL_VALUES = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.797e308, -1e-300]

# Files the reader must reject: (bytes, start of the message after the path).
# `1_0` is a literal float() accepts and the reader does not.
MALFORMED_CSVS = {
    "ragged-row": (b"t,u,y\n0,1,2\n1,2\n", "rows do not match the header width"),
    "trailing-comma": (b"t,u,y\n0,1,2,\n", "rows do not match the header width"),
    "header-only": (b"t,u,y\n", "no data rows"),
    "empty-file": (b" \n", "empty CSV"),
    "empty-cell": (b"t,u,y\n0,,2\n", "malformed numeric cell"),
    "underscore-digits": (b"t,u,y\n0,1,1_0\n", "malformed numeric cell"),
    "not-utf8": (b"t,u,y\n0,1,\xff\n", "not UTF-8 text"),
    "duplicate-column": (b"t,u,y,y\n0,1,2,-2\n", "duplicate column 'y'"),
    "non-uniform-time": (b"t,u,y\n0,1,2\n1,1,2\n3,1,2\n",
                         "sample instants must increase with uniform spacing"),
}


def sample_series(duration=0.5):
    ss = tf_to_ss(TransferFunction([1.0], [1.0, 1.0]))
    return simulate(ss, SimConfig(dt=1e-3, duration=duration))


class TestFormat:
    def test_nine_significant_digits(self):
        assert format_value(91.42857142857143) == "91.4285714"
        assert format_value(0.0) == "0"
        assert format_value(1.0 / 3.0) == "0.333333333"


class TestCsv:
    def test_header_schema(self, tmp_path):
        path = tmp_path / "run.csv"
        write_timeseries_csv(path, sample_series())
        header = path.read_text().splitlines()[0]
        assert header == "t,u,y,x1"

    def test_header_with_electrical(self, tmp_path):
        from regforge.plant import plant_tf

        ss = tf_to_ss(plant_tf(REFERENCE_PARAMS))
        series = simulate(ss, SimConfig(dt=1e-3, duration=0.5, input_amplitude=5.0))
        trace = electrical_trace(REFERENCE_PARAMS, series)
        path = tmp_path / "run.csv"
        write_timeseries_csv(path, series, trace)
        header = path.read_text().splitlines()[0]
        assert header == "t,u,y,x1,x2,i_a,e_g,p_out,p_in"

    def test_bytes_match_format_value_per_cell(self, tmp_path):
        # rows across chunk boundaries, with every awkward value in each column
        special = SPECIAL_VALUES + [1.0 / 3.0, 123456789.5]
        rows = 2 * CSV_CHUNK_ROWS + 3
        rng = np.random.default_rng(7)
        cols = rng.normal(scale=1e3, size=(8, rows))
        for i in range(8):
            cols[i, i * 1000:i * 1000 + len(special)] = special
            cols[i, -len(special):] = special
        t = np.arange(rows) * 1e-3
        series = TimeSeries(times=t, inputs=cols[0], outputs=cols[1], states=cols[2:4].T)
        trace = ElectricalTrace(t, *cols[4:8])
        path = tmp_path / "run.csv"
        write_timeseries_csv(path, series, trace)
        lines = ["t,u,y,x1,x2,i_a,e_g,p_out,p_in"]
        lines += [",".join(format_value(v) for v in row) for row in zip(t, *cols)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_round_trip_sample_identical(self, tmp_path):
        # write -> read -> write again must give identical bytes
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_timeseries_csv(first, sample_series())
        series, _ = read_timeseries_csv(first)
        write_timeseries_csv(second, series)
        assert first.read_bytes() == second.read_bytes()

    def test_read_recovers_columns(self, tmp_path):
        path = tmp_path / "run.csv"
        original = sample_series()
        write_timeseries_csv(path, original)
        series, extras = read_timeseries_csv(path)
        assert extras == {}
        npt.assert_allclose(series.times, original.times, atol=1e-7)
        assert series.states.shape == original.states.shape

    def test_replot_after_round_trip_identical(self, tmp_path):
        path = tmp_path / "run.csv"
        original = sample_series()
        write_timeseries_csv(path, original)
        series, _ = read_timeseries_csv(path)
        chart_a = line_chart_svg([("y", original.times, original.outputs)], "r", "t", "y")
        chart_b = line_chart_svg([("y", series.times, series.outputs)], "r", "t", "y")
        assert chart_a == chart_b

    def test_unix_newlines(self, tmp_path):
        path = tmp_path / "run.csv"
        write_timeseries_csv(path, sample_series())
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_malformed_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u,y\n0,1,oops\n")
        with pytest.raises(ValidationError):
            read_timeseries_csv(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSVS))
    def test_malformed_file_rejected(self, tmp_path, case):
        content, message = MALFORMED_CSVS[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(ValidationError) as info:
            read_timeseries_csv(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_whitespace_only_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_bytes(b"\n  \nt,u,y\n\n0,1,2\n \t \n1,3,4\r\n\n")
        series, extras = read_timeseries_csv(path)
        assert extras == {}
        assert series.times.tolist() == [0.0, 1.0]
        assert series.inputs.tolist() == [1.0, 3.0]
        assert series.outputs.tolist() == [2.0, 4.0]

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from([1, 2, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]),
        seed=st.integers(0, 2**32 - 1),
        values=st.lists(st.floats(width=64), max_size=32),
    )
    @example(rows=CSV_CHUNK_ROWS + 1, seed=0, values=SPECIAL_VALUES)
    def test_read_gives_float_of_each_written_cell(self, tmp_path_factory, rows, seed, values):
        # every cell read back has the bits float() gives for the written text
        rng = np.random.default_rng(seed)
        cols = rng.normal(size=(8, rows)) * 10.0 ** rng.integers(-300, 300, size=(8, rows))
        for v in values + SPECIAL_VALUES:
            cols[rng.integers(8), rng.integers(rows)] = v
        t = np.arange(rows) * 1e-3
        series = TimeSeries(times=t, inputs=cols[0], outputs=cols[1], states=cols[2:4].T)
        path = tmp_path_factory.mktemp("round-trip") / "run.csv"
        write_timeseries_csv(path, series, ElectricalTrace(t, *cols[4:8]))
        back, extras = read_timeseries_csv(path)
        got = np.column_stack([back.times, back.inputs, back.outputs, back.states]
                              + [extras[n] for n in ("i_a", "e_g", "p_out", "p_in")])
        expected = np.array([[float(format_value(v)) for v in row] for row in zip(t, *cols)])
        assert got.tobytes() == expected.tobytes()

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,u\n0,1\n")
        with pytest.raises(ValidationError):
            read_timeseries_csv(path)


class TestOpenArtifact:
    def test_regular_file_replaced_by_new_file(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("old\n")
        with open(path, "rb") as old:
            write_timeseries_csv(path, sample_series())
            assert old.read() == b"old\n"
            assert os.fstat(old.fileno()).st_ino != os.stat(path).st_ino
        assert path.read_text().startswith("t,u,y,x1\n")

    def test_fifo_written_in_place(self, tmp_path):
        # a non-regular file is opened as it is, never unlinked
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with open_artifact(fifo) as fh:
                fh.write("x\n")
            assert os.read(reader, 16) == b"x\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


class TestSvg:
    def test_minimal_chart_structure(self):
        t = np.linspace(0.0, 1.0, 50)
        svg = line_chart_svg(
            [("v_out", t, np.sin(t)), ("i_a", t, np.cos(t))],
            title="demo", xlabel="time [s]", ylabel="volts",
        )
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 2
        assert "demo" in svg and "volts" in svg
        assert "v_out" in svg and "i_a" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_long_series_downsampled(self):
        t = np.linspace(0.0, 20.0, 20001)
        svg = line_chart_svg([("y", t, np.tanh(t))], "big", "t", "y")
        poly = svg.split('points="')[1].split('"')[0]
        assert len(poly.split()) <= 1001

    def test_deterministic(self):
        t = np.linspace(0.0, 1.0, 200)
        a = line_chart_svg([("y", t, t**2)], "d", "x", "y")
        b = line_chart_svg([("y", t, t**2)], "d", "x", "y")
        assert a == b

    def test_polyline_matches_per_point_formatting(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-2.0, 7.0, size=MAX_SVG_POINTS))
        y = rng.normal(scale=50.0, size=MAX_SVG_POINTS)
        svg = line_chart_svg([("y", x, y)], "p", "x", "y")
        x_lo, x_hi = float(np.min(x)), float(np.max(x))
        y_lo, y_hi = float(np.min(y)), float(np.max(y))
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
        # default 720x440 chart: plot area 640x360 at (62, 34)
        expected = " ".join(
            f"{62.0 + (a - x_lo) / (x_hi - x_lo) * 640.0:.2f},"
            f"{34.0 + (y_hi - b) / (y_hi - y_lo) * 360.0:.2f}"
            for a, b in zip(x, y)
        )
        assert svg.split('points="')[1].split('"')[0] == expected

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            line_chart_svg([], "t", "x", "y")
