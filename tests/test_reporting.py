"""The column-wise CSV and SVG writers against row-wise, per-value references."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import reporting
from chronon.dirac_dynamics import TimeSeries
from chronon.reporting import fmt_number, render_line_plot, write_csv

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-3, -1e-3,
               math.nextafter(1e-3, 0.0), math.nextafter(1e-3, 1.0),
               math.nextafter(-1e-3, 0.0), math.nextafter(-1e-3, -1.0),
               math.nan, math.inf, -math.inf]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


def write_csv_rows(path, header, rows):
    """The row-wise writer: ``fmt_number`` on every cell."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_number(v) for v in row) + "\n")


class TestWriteCsv:
    @given(st.lists(st.tuples(floats, st.integers(-10**6, 10**6), floats, st.booleans()),
                    min_size=1, max_size=60),
           st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_row_wise_writer(self, tmp_path_factory, cells, rows_per_write):
        # A float array column, an int column and a column of floats padded with "".
        xs = np.array([c[0] for c in cells])
        ns = [c[1] for c in cells]
        padded = ["" if blank else y for _, _, y, blank in cells]
        path = tmp_path_factory.mktemp("csv")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reporting, "_CSV_ROWS", rows_per_write)  # several writes per table
            write_csv(path / "cols.csv", ["x", "n", "y"], [xs, ns, padded])
        write_csv_rows(path / "rows.csv", ["x", "n", "y"], zip(xs.tolist(), ns, padded))
        assert (path / "cols.csv").read_bytes() == (path / "rows.csv").read_bytes()

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equal length"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), [1, 2]])


def scalar_polylines(series_list):
    """Each series' polyline points, by the per-point scalar formula."""
    xs = [t for s in series_list for t in s.times.tolist()]
    ys = [v for s in series_list for v in s.values.tolist()]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw = reporting._W - reporting._ML - reporting._MR
    ph = reporting._H - reporting._MT - reporting._MB

    def sx(x):
        return reporting._ML + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return reporting._MT + (y_hi - y) / (y_hi - y_lo) * ph

    return [" ".join(f"{sx(t):.2f},{sy(v):.2f}"
                     for t, v in zip(s.times.tolist(), s.values.tolist()))
            for s in series_list]


class TestLinePlot:
    @given(st.integers(0, 2**32 - 1), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=50, deadline=None)
    def test_polylines_match_scalar_formula(self, tmp_path_factory, seed, t_exp, x_exp):
        rng = np.random.default_rng(seed)
        series = []
        for length in rng.integers(2, 400, size=rng.integers(1, 4)):
            span = 10.0**t_exp
            times = rng.uniform(-1.0, 1.0) * span + np.linspace(0.0, span, length)
            series.append(TimeSeries(times=times, values=rng.normal(size=length) * 10.0**x_exp))
        path = tmp_path_factory.mktemp("svg") / "plot.svg"
        render_line_plot(series, [f"s{i}" for i in range(len(series))], path)
        assert re.findall(r'<polyline points="([^"]*)"', path.read_text()) == \
            scalar_polylines(series)


def formatted_points(xs, ys):
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))


# Exact binary half-cent ties (n + odd/8) and their neighbours one ulp away, which
# '{:.2f}' rounds by the exact decimal value of the double.
TIES = [100.125, 70.375, 0.625, 779.875, 9999999.875]
NEAR_TIES = TIES + [float(np.nextafter(t, side)) for t in TIES for side in (0.0, np.inf)]
# Declined by the digit path: too large, negative, or not finite.
DECLINED = [1e7, 2.5e12, 1.7e308, -0.0, -1e-9, -450.0, math.nan, math.inf, -math.inf]
coordinates = st.one_of(st.floats(0.0, 1e7, exclude_max=True), st.sampled_from(NEAR_TIES),
                        st.sampled_from(TIES).map(lambda t: t + 2e-8), st.sampled_from(DECLINED))


class TestPolylineDigits:
    @given(st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_python_format(self, points):
        xs, ys = (np.array(c) for c in zip(*points))
        assert reporting._polyline_points(xs, ys) == formatted_points(xs, ys)

    @given(st.lists(st.floats(0.0, 1e7, exclude_max=True), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_digit_path_away_from_ties(self, values):
        # Off the 1e-6 band around a half cent, and below 1e9 cents, the digits come
        # from rint(100 v).
        v = np.array(values)
        frac = 100 * v - np.floor(100 * v)
        declined = np.any(np.abs(frac - 0.5) < 1e-6) or np.rint(100 * v).max() >= 1e9
        assert (reporting._cents(v) is None) == bool(declined)
        assert reporting._polyline_points(v, v[::-1]) == formatted_points(v, v[::-1])

    @pytest.mark.parametrize("value", TIES + DECLINED)
    def test_ties_and_out_of_range_take_python_format(self, value):
        v = np.array([123.45, value])
        assert reporting._cents(v) is None
        assert reporting._polyline_points(v, v) == formatted_points(v, v)

    @pytest.mark.parametrize("value", [0.0, 5e-324, 0.004, 0.994999, 9999999.99, 100.125 + 2e-8])
    def test_edges_take_digit_path(self, value):
        v = np.array([value, 70.0])
        assert reporting._cents(v) is not None
        assert reporting._polyline_points(v, v) == formatted_points(v, v)
