"""The step-response figures: their record, their constants and their rules.

`step_figures` states the rules once. `sim.step_metrics` (numpy arrays in
memory) and `output.column_step_metrics` (the float columns of a trajectory
CSV, so that `regforge metrics` runs without numpy) hand it only their
scans. This module imports of the package only `errors`, and neither numpy
nor `dataclasses`, so both can share it. The rules:

* A series has at least `MIN_SAMPLES` samples; an all-zero one is
  degenerate, its figures zero and settled.
* The steady state ss is the mean of the final `STEADY_STATE_FRACTION` of
  the samples (at least one), summed in numpy's pairwise order on both
  paths, so that they give the same bits.
* A steady state lost in rounding against a finite peak (|ss| <= eps *
  max |y|), or exactly zero, counts as zero: unsettled, no overshoot.
  Against an infinite peak a nonzero one stands.
* The overshoot is the peak beyond ss in its direction, in percent of |ss|,
  floored at 0; a NaN sample makes it NaN.
* The band is ss +/- `SETTLING_BAND` |ss|, declared in every output so that
  published settling figures compare like-for-like. A non-finite sample is
  outside it (``not |y - ss| <= band``), so a NaN steady state leaves the
  series unsettled and a NaN or inf ends the settling no earlier than the
  sample after it. A series wholly inside settled at 0; one whose last
  sample is outside, or a diverged run that left the band, is unsettled;
  any other settled at the sample after its last one outside.
* The rise time runs from the first y / ss >= 0.1 to the first y / ss >=
  0.9, and is None when there is no such 90 % sample.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import ValidationError

__all__ = ["StepMetrics", "SETTLING_BAND", "STEADY_STATE_FRACTION", "MIN_SAMPLES", "step_figures"]

SETTLING_BAND = 0.02
STEADY_STATE_FRACTION = 0.05
MIN_SAMPLES = 100


class StepMetrics(NamedTuple):
    """Figures read off a step response against the +/-2 % band.

    settling_time and rise_time are None when the series never settles or
    never completes the 10-90 % rise; `degenerate` marks an all-zero
    series whose metrics are zero by convention. A named tuple, not a
    dataclass: `dataclasses` imports `inspect`, about 7 ms of a `metrics`
    process.
    """

    steady_state: float
    overshoot_pct: float
    settling_time: float | None
    rise_time: float | None
    settled: bool
    degenerate: bool = False


def step_figures(times, extremes, tail_sum, scan, diverged: bool = False) -> StepMetrics:
    """The figures of the series sampled at `times`, from the caller's scans of its samples y.

    ``extremes()`` gives (max y, min y), both NaN when any sample is NaN;
    ``tail_sum(lo)`` the sum of y[lo:] in numpy's pairwise order; and
    ``scan(ss, band)`` the last i with ``not abs(y[i] - ss) <= band`` (or -1),
    the first i with ``y[i] / ss >= 0.9`` (or None) and, when there is one,
    the first with ``y[i] / ss >= 0.1``. Each is called at most once.
    """
    n = len(times)
    if n < MIN_SAMPLES:
        raise ValidationError(f"need at least {MIN_SAMPLES} samples for metrics, got {n}")
    y_max, y_min = extremes()
    peak = max(y_max, -y_min)
    if peak == 0.0:
        return StepMetrics(0.0, 0.0, 0.0, 0.0, settled=True, degenerate=True)

    tail = max(1, int(round(STEADY_STATE_FRACTION * n)))
    ss = tail_sum(n - tail) / tail
    # Normalizing by a steady state lost in rounding would overflow.
    if abs(ss) <= sys.float_info.epsilon * peak < math.inf or ss == 0.0:
        return StepMetrics(0.0, 0.0, None, None, settled=False)
    peak_along = y_max if ss > 0.0 else -y_min
    overshoot = 100.0 * (peak_along - abs(ss)) / abs(ss)
    overshoot = 0.0 if overshoot <= 0.0 else overshoot

    last_out, i90, i10 = scan(ss, SETTLING_BAND * abs(ss))
    if last_out < 0:
        settling: float | None = 0.0
    elif last_out == n - 1 or diverged:
        settling = None
    else:
        settling = float(times[last_out + 1])
    rise = None if i90 is None else float(times[i90] - times[i10])
    return StepMetrics(ss, overshoot, settling, rise, settled=settling is not None)
