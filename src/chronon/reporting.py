"""Plain-text reports, CSV tables and self-contained SVG line plots.

Everything written here is byte-deterministic for identical inputs: numbers
go through one formatting function, the SVG is assembled from fixed
templates, and no timestamps or environment state leak into the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"
SKIP = "SKIP"


def fmt_number(v) -> str:
    """Scientific notation below 1e-3 in magnitude, plain decimal otherwise."""
    if isinstance(v, str):
        return v
    if isinstance(v, complex):
        return f"{fmt_number(v.real)}{'+' if v.imag >= 0 else '-'}{fmt_number(abs(v.imag))}j"
    x = float(v)
    if x == 0.0:
        return "0"
    if abs(x) < 1e-3:
        return f"{x:.6e}"
    return f"{x:.9g}"


@dataclass
class ReportLine:
    name: str
    measured: str
    expected: str
    status: str

    def render(self) -> str:
        return f"{self.name}: measured {self.measured}, expected {self.expected}: {self.status}"


@dataclass
class Report:
    title: str
    lines: list[ReportLine] = field(default_factory=list)

    def add(self, name: str, measured, expected, ok: bool | None) -> None:
        """ok=None records an informational line that cannot fail."""
        status = INFO if ok is None else (PASS if ok else FAIL)
        self.lines.append(ReportLine(name, fmt_number(measured), fmt_number(expected), status))

    def skip(self, name: str, reason: str) -> None:
        self.lines.append(ReportLine(name, "-", reason, SKIP))

    @property
    def passed(self) -> bool:
        return all(line.status != FAIL for line in self.lines)

    def render(self) -> str:
        out = [f"== {self.title} =="]
        out.extend(line.render() for line in self.lines)
        out.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out) + "\n"


# Rows formatted per write: memory stays flat in the length of the table.
_CSV_ROWS = 1024


def fmt_column(col) -> list[str]:
    """``fmt_number`` of each cell, with a float array formatted in one pass.

    '{:.9g}' is ``fmt_number``'s rule for every float except 0 (either sign)
    and magnitudes below 1e-3, so only those go back through ``fmt_number``.
    """
    if not (isinstance(col, np.ndarray) and col.dtype.kind == "f"):
        return [fmt_number(v) for v in col]
    values = col.tolist()
    out = list(map("{:.9g}".format, values))
    for i in np.flatnonzero(np.abs(col) < 1e-3).tolist():
        out[i] = fmt_number(values[i])
    return out


def write_csv(path, header: list[str], columns: list) -> None:
    """Write equal-length ``columns`` under ``header``, each cell as ``fmt_number`` prints it.

    A float array column is formatted a block of rows at a time; any other
    column (strings, ints, blank padding) cell by cell.
    """
    if len({len(col) for col in columns}) > 1:
        raise ValueError("write_csv needs columns of equal length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_ROWS):
            cells = [fmt_column(col[start:start + _CSV_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


# Digits of a coordinate's cents below 1e9: seven before the point, two after.
_DIGITS = 9


def _cents(v: np.ndarray):
    """rint(100 v) as int64 if it rounds every v as '{:.2f}' does, else None.

    It does when v is finite, non-negative and below 1e7, and no 100 v lies within 1e-6
    of a half cent: the product's rounding error, at most 6e-8 there, cannot cross the tie.
    """
    if not (np.isfinite(v).all() and not np.signbit(v).any() and v.max() < 1e7):
        return None
    scaled = 100 * v
    cents = np.rint(scaled)
    if cents.max() >= 1e9 or (np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6).any():
        return None
    return cents.astype(np.int64)


def _polyline_points(xs: np.ndarray, ys: np.ndarray) -> str:
    """' '.join of '{:.2f},{:.2f}' over the points.

    Each point is spelled out as a row of 22 ASCII bytes from the digits of its
    ``_cents``, with leading zeros as 0 bytes, and the non-zero bytes are decoded at
    once.  Where ``_cents`` declines, each point is formatted by Python instead.
    """
    cents = [_cents(v) for v in (xs, ys)]
    if cents[0] is None or cents[1] is None:
        return " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
    # Per point and coordinate: 7 integer digits, '.', 2 decimals, then ',' or ' '.
    text = np.zeros((len(xs), 2, _DIGITS + 2), dtype=np.uint8)
    text[:, :, _DIGITS - 2] = ord(".")
    text[:, :, _DIGITS + 1] = ord(","), ord(" ")
    units = _DIGITS - 3
    for j, q in enumerate(cents):
        for col in (_DIGITS, _DIGITS - 1, *range(units, -1, -1)):  # right to left
            rest = q // 10
            digit = q - 10 * rest + ord("0")
            # A digit left of the units with nothing non-zero from it on is a leading zero.
            text[:, j, col] = digit if col >= units else np.where(q > 0, digit, 0)
            q = rest
    flat = text.ravel()
    return flat[flat != 0][:-1].tobytes().decode("ascii")


def render_line_plot(series_list, labels, path, title: str = "") -> None:
    """Write a static SVG line chart; identical inputs give identical bytes.

    ``series_list`` holds TimeSeries-like objects whose .times and .values
    are float arrays.  Polyline points are spelled from digit arrays
    (``_polyline_points``), with the bytes of '{:.2f}' per coordinate.
    """
    if not series_list:
        raise ValueError("render_line_plot needs at least one series")
    if len(labels) != len(series_list):
        raise ValueError("one label per series required")
    x_lo = min(float(s.times.min()) for s in series_list)
    x_hi = max(float(s.times.max()) for s in series_list)
    y_lo = min(float(s.values.min()) for s in series_list)
    y_hi = max(float(s.values.max()) for s in series_list)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    # Scalars (ticks) and whole arrays (polylines) take the same operations in
    # the same order, so a point's pixel coordinates do not depend on which.
    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        px = sx(xt)
        parts.append(f'<line x1="{px:.2f}" y1="{_MT + ph}" x2="{px:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{_MT + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xt:.4g}</text>')
    for yt in _ticks(y_lo, y_hi):
        py = sy(yt)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yt:.4g}</text>')
    parts.append(f'<text x="{_ML + pw // 2}" y="{_H - 10}" text-anchor="middle" '
                 'font-family="sans-serif" font-size="13">t</text>')
    for idx, (series, label) in enumerate(zip(series_list, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = _polyline_points(sx(series.times), sy(series.values))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MT + 18 * idx
        parts.append(f'<line x1="{_ML + pw - 150}" y1="{ly + 6}" x2="{_ML + pw - 120}" '
                     f'y2="{ly + 6}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_ML + pw - 114}" y="{ly + 10}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
