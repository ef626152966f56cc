"""Trajectory serialization: CSV with a bit-exact contract, and static SVG.

CSV schema: header row ``t,u,y[,x1..xn][,i_a,e_g,p_out,p_in]``, values
formatted with 9 significant digits, ``.`` decimal separator, ``\\n`` line
endings. The formatting is deterministic, so identical runs produce
byte-identical files and golden-file comparisons are meaningful.

The reader accepts UTF-8 text whose first non-blank line is a header naming
at least ``t``, ``u`` and ``y``, followed by one or more rows with exactly
as many comma-separated cells as the header. Lines end at ``\\n``, ``\\r\\n``
or ``\\r`` only, and lines holding only whitespace are skipped. Each cell is
a decimal or exponent float literal, or ``nan``, ``inf`` or ``infinity`` in
any case and with either sign, optionally padded with whitespace; numpy's C
tokenizer parses it to the float64 that ``float()`` gives. Underscore digit
separators and non-ASCII digits, which ``float()`` also accepts, are
rejected. Anything else (no header, a column named twice, no data row, a
ragged row, an empty or malformed cell, bytes that are not UTF-8, sample
instants that are not uniformly spaced) raises ``ValidationError`` naming the
file. The spacing check is made here and nowhere else: ``TimeSeries`` holds
views of the arrays it is given and checks only that their lengths agree.

Every artifact is written through ``open_artifact``, which replaces a
regular file already at the path with a new file (truncating it in place
costs tens of milliseconds on ext4, creating a new one well under one) and
opens a symlink, device, FIFO or directory as it is.

SVG output is a minimal static line chart (axes, tick labels, series
polylines, legend) written directly; figures here are verification
artifacts, not an interactive UI, so no plotting dependency is worth its
weight. Long series are strided down to at most 1000 points per polyline.
"""

from __future__ import annotations

import itertools
import math
import os
import stat

import numpy as np

from .errors import ValidationError
from .sim import ElectricalTrace, TimeSeries

__all__ = [
    "format_value",
    "open_artifact",
    "write_timeseries_csv",
    "read_timeseries_csv",
    "line_chart_svg",
]

MAX_SVG_POINTS = 1000
SVG_WIDTH, SVG_HEIGHT = 720, 440
CSV_CHUNK_ROWS = 4096
_PALETTE = ("#1f6fb4", "#d94f30", "#3a9648", "#8450a8", "#b58900", "#3c3c3c")


def format_value(x: float) -> str:
    """Canonical cell format: 9 significant digits."""
    return f"{x:.9g}"


def open_artifact(path):
    """Open ``path`` for writing UTF-8 text as a new file.

    A regular file already at ``path`` is unlinked first, so a hard link to
    it keeps the old bytes and the new file gets default permissions.
    Anything else at ``path`` is opened as it is: a symlink is written
    through, and a directory raises ``IsADirectoryError``.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8", newline="\n")


def write_timeseries_csv(path, ts: TimeSeries, electrical: ElectricalTrace | None = None) -> None:
    """Write a trajectory (and optional electrical columns) to CSV."""
    n = ts.states.shape[1]
    header = ["t", "u", "y"] + [f"x{i + 1}" for i in range(n)]
    columns = [ts.times, ts.inputs, ts.outputs] + [ts.states[:, i] for i in range(n)]
    if electrical is not None:
        if len(electrical.times) != len(ts.times):
            raise ValidationError("electrical trace does not match the trajectory length")
        header += ["i_a", "e_g", "p_out", "p_in"]
        columns += [electrical.i_a, electrical.e_g, electrical.p_out, electrical.p_in]
    # The row template formats exactly like format_value per cell; each chunk
    # is one % over the template repeated per row, so no full copy of the
    # table is held as text.
    template = ",".join(["%.9g"] * len(columns)) + "\n"
    table = np.column_stack(columns)
    with open_artifact(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            chunk = table[start:start + CSV_CHUNK_ROWS]
            fh.write((template * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_timeseries_csv(path) -> tuple[TimeSeries, dict[str, np.ndarray]]:
    """Read a trajectory CSV back into a TimeSeries plus extra columns.

    The rows stream from the file into numpy's C tokenizer; see the module
    docstring for what is accepted. This is where times from outside enter
    a ``TimeSeries``, so the uniform spacing that ``TimeSeries`` assumes is
    checked here. The series and the extra columns view the one table
    parsed from the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header_line = next((ln for ln in fh if not ln.isspace()), None)
            if header_line is None:
                raise ValidationError(f"{path}: empty CSV")
            header = header_line.rstrip("\n").split(",")
            for name in header:
                if header.count(name) > 1:
                    raise ValidationError(f"{path}: duplicate column {name!r}")
            for name in ("t", "u", "y"):
                if name not in header:
                    raise ValidationError(f"{path}: missing column {name!r}")
            rows = _rows(path, fh, len(header))
            first = next(rows, None)
            if first is None:
                raise ValidationError(f"{path}: no data rows")
            try:
                data = np.loadtxt(itertools.chain((first,), rows),
                                  delimiter=",", comments=None, ndmin=2)
            except (ValidationError, UnicodeDecodeError):
                raise
            except ValueError as exc:
                raise ValidationError(f"{path}: malformed numeric cell: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    cols = {name: data[:, i] for i, name in enumerate(header)}
    state_names = sorted((n for n in header if n.startswith("x") and n[1:].isdigit()),
                         key=lambda n: int(n[1:]))
    states = (
        np.column_stack([cols[n] for n in state_names])
        if state_names
        else np.zeros((len(cols["t"]), 0))
    )
    _check_spacing(path, cols["t"])
    ts = TimeSeries(times=cols["t"], inputs=cols["u"], outputs=cols["y"], states=states)
    extras = {n: cols[n] for n in header if n not in ("t", "u", "y") and n not in state_names}
    return ts, extras


def _rows(path, lines, width: int):
    """Yield the non-blank lines, checking that each has ``width`` cells.

    numpy would report a ragged row as a bad cell or a changed column
    count; counting commas here gives one message for every width mismatch.
    """
    for ln in lines:
        if ln.isspace():
            continue
        if ln.count(",") != width - 1:
            raise ValidationError(f"{path}: rows do not match the header width")
        yield ln


def _check_spacing(path, times: np.ndarray) -> None:
    """Every gap within 1e-6 of a positive, finite first gap.

    A NaN gap fails the comparison and so is rejected too.
    """
    if len(times) < 2:
        return
    gaps = np.diff(times)
    g0 = gaps[0]
    if not (0.0 < g0 < math.inf and np.max(np.abs(gaps - g0)) <= 1e-6 * g0):
        raise ValidationError(f"{path}: sample instants must increase with uniform spacing")


def _strided(x: np.ndarray) -> np.ndarray:
    if len(x) <= MAX_SVG_POINTS:
        return x
    stride = int(np.ceil(len(x) / MAX_SVG_POINTS))
    idx = np.arange(0, len(x), stride)
    if idx[-1] != len(x) - 1:
        idx = np.append(idx, len(x) - 1)
    return x[idx]


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    if hi == lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def line_chart_svg(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render labeled (name, x, y) series as a static SVG_WIDTH x SVG_HEIGHT line chart."""
    if not series:
        raise ValidationError("line chart needs at least one series")
    margin_l, margin_r, margin_t, margin_b = 62.0, 18.0, 34.0, 46.0
    plot_w = SVG_WIDTH - margin_l - margin_r
    plot_h = SVG_HEIGHT - margin_t - margin_b

    xs = [_strided(np.asarray(x, dtype=float)) for _, x, _ in series]
    ys = [_strided(np.asarray(y, dtype=float)) for _, _, y in series]
    x_lo = min(float(np.min(x)) for x in xs)
    x_hi = max(float(np.max(x)) for x in xs)
    y_lo = min(float(np.min(y)) for y in ys)
    y_hi = max(float(np.max(y)) for y in ys)
    if y_hi == y_lo:
        y_hi, y_lo = y_hi + 1.0, y_lo - 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(v):
        return margin_l + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return margin_t + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="{SVG_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(
        f'<rect x="{margin_l:.1f}" y="{margin_t:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#444" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.2f}" y1="{margin_t + plot_h:.2f}" x2="{px:.2f}" '
            f'y2="{margin_t + plot_h + 5:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{margin_t + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        parts.append(
            f'<line x1="{margin_l - 5:.2f}" y1="{py:.2f}" x2="{margin_l:.2f}" '
            f'y2="{py:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8:.2f}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{SVG_HEIGHT - 10:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{ylabel}</text>'
    )
    # series + legend
    for i, ((name, _, _), x, y) in enumerate(zip(series, xs, ys)):
        color = _PALETTE[i % len(_PALETTE)]
        # sx and sy scale whole arrays with the same float operations as a
        # scalar, and one % formats every point of the polyline.
        xy = np.column_stack((sx(x), sy(y))).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * len(x)) % tuple(xy)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin_t + 14 + 16 * i
        parts.append(
            f'<line x1="{margin_l + 10:.1f}" y1="{ly:.1f}" x2="{margin_l + 34:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{margin_l + 40:.1f}" y="{ly + 4:.1f}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
