"""Trajectory serialization: CSV with a bit-exact contract, and static SVG.

CSV schema: header row ``t,u,y[,x1..xn][,i_a,e_g,p_out,p_in]``, values
formatted with 9 significant digits, ``.`` decimal separator, ``\\n`` line
endings. The formatting is deterministic, so identical runs produce
byte-identical files and golden-file comparisons are meaningful.

The reader accepts UTF-8 text, with or without a byte-order mark (as
spreadsheet exports write it), whose first non-blank line is a header naming
at least ``t``, ``u`` and ``y``, followed by one or more rows with exactly
as many comma-separated cells as the header. Lines end at ``\\n``, ``\\r\\n``
or ``\\r`` only, and lines holding only whitespace are skipped. A cell is
stripped with ``str.strip()`` and parsed with ``float()``, which takes a
decimal or exponent float literal, or ``nan``, ``inf`` or ``infinity`` in
any case and with either sign; a stripped cell holding ``_`` or a non-ASCII
character is rejected, so underscore digit separators and non-ASCII digits,
which ``float()`` accepts, are not numbers here. Anything else (no header, a
column named twice, no data row, a ragged row, an empty or malformed cell,
bytes that are not UTF-8, sample instants that are not uniformly spaced)
raises ``ValidationError`` naming the file. The rows stream in chunks of
``CSV_READ_ROWS`` lines into one ``array('d')`` per column
(``read_csv_columns``), so the file's text and its cells are never held
whole. The spacing check is made there and nowhere else: ``TimeSeries``
holds views of the arrays it is given and checks only that their lengths
agree. ``read_timeseries_csv`` wraps the columns as numpy arrays without a
copy, and ``column_step_metrics`` reads the step figures off the ``t`` and
``y`` columns as they are. This module imports numpy, and ``sim``, in the
functions that use them, so ``regforge metrics`` loads neither.

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
import sys
from array import array
from typing import TYPE_CHECKING

from .errors import ValidationError
from .steps import SETTLING_BAND, STEADY_STATE_FRACTION, StepMetrics

if TYPE_CHECKING:  # annotations only: a CSV and its figures are read without numpy
    import numpy as np

    from .sim import ElectricalTrace, TimeSeries

__all__ = [
    "format_value",
    "open_artifact",
    "write_timeseries_csv",
    "read_csv_columns",
    "read_timeseries_csv",
    "column_step_metrics",
    "line_chart_svg",
]

MAX_SVG_POINTS = 1000
SVG_WIDTH, SVG_HEIGHT = 720, 440
CSV_CHUNK_ROWS = 4096
# Rows the reader parses at a time: a chunk's cells, several times its text,
# stay small enough for the allocator to reuse their memory chunk after chunk.
CSV_READ_ROWS = 1024
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
    import numpy as np

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


def read_csv_columns(path) -> dict[str, array]:
    """The columns of a trajectory CSV by header name, each an ``array('d')``.

    See the module docstring for what is accepted. This is where times from
    outside enter the program, so their uniform spacing is checked here.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = itertools.filterfalse(str.isspace, fh)
            header_line = next(lines, None)
            if header_line is None:
                raise ValidationError(f"{path}: empty CSV")
            header = header_line.rstrip("\n").split(",")
            for name in header:
                if header.count(name) > 1:
                    raise ValidationError(f"{path}: duplicate column {name!r}")
            for name in ("t", "u", "y"):
                if name not in header:
                    raise ValidationError(f"{path}: missing column {name!r}")
            width = len(header)
            columns = [array("d") for _ in header]
            while chunk := list(itertools.islice(lines, CSV_READ_ROWS)):
                values = _parse_rows(path, chunk, width)
                for j, column in enumerate(columns):
                    column.extend(values[j::width])
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if not columns[0]:
        raise ValidationError(f"{path}: no data rows")
    _check_spacing(path, columns[header.index("t")])
    return dict(zip(header, columns))


# Characters float() treats otherwise than the reader: it accepts `_` and,
# as padding, not \x1c-\x1f, which str.strip() removes.
_FLOAT_DIFFERS = "_\x1c\x1d\x1e\x1f"


def _parse_rows(path, rows: list[str], width: int) -> array:
    """The cells of ``rows``, ``width`` to a row, as floats in row-major order."""
    if set(map(str.count, rows, itertools.repeat(","))) != {width - 1}:
        raise ValidationError(f"{path}: rows do not match the header width")
    if not rows[-1].endswith("\n"):
        rows[-1] += "\n"
    text = "".join(rows)
    cells = text.replace("\n", ",").split(",")
    cells.pop()
    # On ASCII text without those characters, float() of a cell is float()
    # of the cell stripped, and no cell can hold what the reader rejects.
    # Skipping the strip and the checks there takes a 20,001-row figure 4
    # CSV from 44 to 34 ms, and a metrics process by as much.
    if not text.isascii() or any(c in text for c in _FLOAT_DIFFERS):
        cells = [cell.strip() for cell in cells]
        for cell in cells:
            if "_" in cell or not cell.isascii():
                raise ValidationError(f"{path}: malformed numeric cell: {cell!r}")
    try:
        return array("d", map(float, cells))
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed numeric cell: {exc}") from exc


def read_timeseries_csv(path) -> tuple[TimeSeries, dict[str, np.ndarray]]:
    """Read a trajectory CSV back into a TimeSeries plus extra columns.

    The columns of `read_csv_columns`, viewed as numpy arrays.
    """
    import numpy as np

    from .sim import TimeSeries

    cols = {name: np.frombuffer(column) for name, column in read_csv_columns(path).items()}
    state_names = sorted((n for n in cols if n.startswith("x") and n[1:].isdigit()),
                         key=lambda n: int(n[1:]))
    states = (
        np.column_stack([cols[n] for n in state_names])
        if state_names
        else np.zeros((len(cols["t"]), 0))
    )
    ts = TimeSeries(times=cols["t"], inputs=cols["u"], outputs=cols["y"], states=states)
    extras = {n: cols[n] for n in cols if n not in ("t", "u", "y") and n not in state_names}
    return ts, extras


def _check_spacing(path, times: array) -> None:
    """Every gap within 1e-6 of a positive, finite first gap.

    A NaN gap fails the comparison and so is rejected too.
    """
    if len(times) < 2:
        return
    g0 = times[1] - times[0]
    tol = 1e-6 * g0
    gaps = zip(times, itertools.islice(times, 1, None))
    if not (0.0 < g0 < math.inf and all(abs(b - a - g0) <= tol for a, b in gaps)):
        raise ValidationError(f"{path}: sample instants must increase with uniform spacing")


def column_step_metrics(times, outputs) -> StepMetrics:
    """`sim.step_metrics` of a series given as float sequences, on Python floats.

    The series is taken as a run that did not diverge: a CSV carries no
    such flag. The rules are `sim`'s, and every operation is the same, so
    the figures are `step_metrics`'s to the bit: the tail is summed in
    numpy's pairwise order (`_pairwise_sum`).
    """
    y, n = outputs, len(outputs)
    if n < 100:
        raise ValidationError(f"need at least 100 samples for metrics, got {n}")
    # numpy's max and min are NaN when any sample is; Python's skip a NaN
    # that is not the first.
    if any(map(math.isnan, y)):
        y_max = y_min = math.nan
    else:
        y_max, y_min = max(y), min(y)
    peak = max(y_max, -y_min)
    if peak == 0.0:
        return StepMetrics(0.0, 0.0, 0.0, 0.0, settled=True, degenerate=True)

    tail = max(1, int(round(STEADY_STATE_FRACTION * n)))
    ss_value = _pairwise_sum(y, n - tail, tail) / tail
    if abs(ss_value) <= sys.float_info.epsilon * peak < math.inf or ss_value == 0.0:
        return StepMetrics(0.0, 0.0, None, None, settled=False)

    peak_along = y_max if ss_value > 0.0 else -y_min
    overshoot = 100.0 * (peak_along - abs(ss_value)) / abs(ss_value)
    overshoot = 0.0 if overshoot <= 0.0 else overshoot

    band = SETTLING_BAND * abs(ss_value)
    last_out = next((i for i in range(n - 1, -1, -1) if not abs(y[i] - ss_value) <= band), -1)
    if last_out < 0:
        settling: float | None = 0.0
        settled = True
    elif last_out == n - 1:
        settling, settled = None, False
    else:
        settling, settled = times[last_out + 1], True

    rise: float | None = None
    i90 = next((i for i, v in enumerate(y) if v / ss_value >= 0.9), None)
    if i90 is not None:
        i10 = next(i for i, v in enumerate(y) if v / ss_value >= 0.1)
        rise = times[i90] - times[i10]

    return StepMetrics(ss_value, overshoot, settling, rise, settled=settled)


def _pairwise_sum(x, lo: int, n: int) -> float:
    """The sum of ``x[lo:lo + n]`` in the order of numpy's float sum.

    numpy adds runs of up to 128 values with eight strided accumulators and
    splits longer runs in two at a multiple of 8 (`pairwise_sum` in its
    loops). An index-order sum differs in the last bits, and a steady state
    a few ulps away moves the printed overshoot of a response that barely
    passes it: a seeded LQR run of the cli-figures cycle prints 2.27116e-14 %
    with numpy's order and 0 % with index order.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(x, lo, half) + _pairwise_sum(x, lo + half, n - half)
    total = 0.0
    rest = lo
    if n >= 8:
        acc = list(x[lo:lo + 8])
        rest = lo + n - n % 8
        for i in range(lo + 8, rest, 8):
            for j in range(8):
                acc[j] += x[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    # Loops, not sum(): from Python 3.12 on, sum() of floats compensates.
    for v in x[rest:lo + n]:
        total += v
    return total


def _strided(x: np.ndarray) -> np.ndarray:
    import numpy as np

    if len(x) <= MAX_SVG_POINTS:
        return x
    stride = int(np.ceil(len(x) / MAX_SVG_POINTS))
    idx = np.arange(0, len(x), stride)
    if idx[-1] != len(x) - 1:
        idx = np.append(idx, len(x) - 1)
    return x[idx]


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    import numpy as np

    if hi == lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def line_chart_svg(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render labeled (name, x, y) series as a static SVG_WIDTH x SVG_HEIGHT line chart."""
    import numpy as np

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
