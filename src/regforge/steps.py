"""What the step-response figures are: their record and the two constants of their rules.

Two functions compute the figures by the rules stated in `sim`:
`sim.step_metrics` on the numpy arrays of a series in memory, and
`output.column_step_metrics` on the float columns of a trajectory CSV, so
that `regforge metrics` runs without numpy. This module imports only
`typing`, so both can share it.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["StepMetrics", "SETTLING_BAND", "STEADY_STATE_FRACTION"]

SETTLING_BAND = 0.02
STEADY_STATE_FRACTION = 0.05


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
