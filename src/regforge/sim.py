"""Fixed-step time-domain simulation and step-response metrics.

Integration is classical 4th-order Runge-Kutta. For an LTI system driven
by a piecewise-constant input the four stages collapse to the exact
per-step affine map

    x+ = (I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24) x
         + h (I + hA/2 + (hA)^2/6 + (hA)^3/24) B u

which is precomputed once, so a 20 s run at dt = 1e-3 stays well under a
second. Runs that blow up are truncated and flagged rather than raised:
a sample is divergent when it stops being finite or exceeds the
configured magnitude limit.

The settling band used everywhere is +/-2 % of the steady-state value
(declared in all outputs so published settling figures are compared
like-for-like). Steady state is the mean of the final 5 % of samples.

A bare state-feedback regulator drives its output to zero, not to a
voltage target, so tracking loops take an explicit reference prescaler
N = 1 / (C (-(A-BK))^-1 B) ahead of the loop (`reference_prescaler`,
`state_feedback_loop`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .lti import StateSpaceModel
from .plant import PlantParams

__all__ = [
    "SimConfig",
    "TimeSeries",
    "StepMetrics",
    "ElectricalTrace",
    "simulate",
    "step_metrics",
    "electrical_trace",
    "reference_prescaler",
    "state_feedback_loop",
    "SETTLING_BAND",
]

SETTLING_BAND = 0.02
STEADY_STATE_FRACTION = 0.05
INPUT_KINDS = ("step", "constant", "zero")


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run description; defaults resolve the plant's slowest pole."""

    dt: float = 1e-3
    duration: float = 20.0
    input_kind: str = "step"
    input_amplitude: float = 1.0
    divergence_limit: float = 1e12

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt!r}")
        if self.duration < self.dt:
            raise ValidationError("duration must be at least one step")
        if self.duration / self.dt > 1e7:
            raise ValidationError("duration/dt exceeds the 1e7 sample guard")
        if self.input_kind not in INPUT_KINDS:
            raise ValidationError(f"input_kind must be one of {INPUT_KINDS}")
        if not np.isfinite(self.input_amplitude):
            raise ValidationError("input amplitude must be finite")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled trajectory: times, input, output, and states."""

    times: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    states: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        for name in ("times", "inputs", "outputs", "states"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = len(self.times)
        if len(self.inputs) != n or len(self.outputs) != n or self.states.shape[0] != n:
            raise ValidationError("time series columns must have equal length")
        if n >= 2:
            gaps = np.diff(self.times)
            if np.min(gaps) <= 0.0 or not np.allclose(gaps, gaps[0], rtol=1e-6, atol=0.0):
                raise ValidationError("sample instants must increase with uniform spacing")

    @property
    def n_samples(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class StepMetrics:
    """Figures read off a step response against the +/-2 % band.

    settling_time and rise_time are None when the series never settles or
    never completes the 10-90 % rise; `degenerate` marks an all-zero
    series whose metrics are zero by convention.
    """

    steady_state: float
    overshoot_pct: float
    settling_time: float | None
    rise_time: float | None
    settled: bool
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class ElectricalTrace:
    """Pointwise armature current, induced EMF, and power flows."""

    times: np.ndarray
    i_a: np.ndarray
    e_g: np.ndarray
    p_out: np.ndarray
    p_in: np.ndarray


def _rk4_maps(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    eye = np.eye(n)
    ha = dt * a
    ha2 = ha @ ha
    ha3 = ha2 @ ha
    m = eye + ha + ha2 / 2.0 + ha3 / 6.0 + ha3 @ ha / 24.0
    g = dt * (eye + ha / 2.0 + ha2 / 6.0 + ha3 / 24.0) @ b
    return m, g


def simulate(ss: StateSpaceModel, cfg: SimConfig, x0=None) -> TimeSeries:
    """Step/constant/zero-input response, from rest unless x0 is given.

    Returns the full trajectory, or a truncated one with the diverged
    flag set as soon as any state or output sample goes non-finite or
    beyond cfg.divergence_limit.
    """
    if ss.n_inputs != 1 or ss.n_outputs != 1:
        raise ValidationError("simulate drives single-input single-output models")
    n = ss.n_states
    steps = cfg.n_steps
    u = 0.0 if cfg.input_kind == "zero" else float(cfg.input_amplitude)
    m, g = _rk4_maps(ss.a, ss.b, cfg.dt)
    gu = (g * u).ravel() if n else np.zeros(0)
    d_term = ss.d[0, 0] * u

    times = np.arange(steps + 1) * cfg.dt
    states = np.zeros((steps + 1, n))
    outputs = np.zeros(steps + 1)
    c_row = ss.c.ravel()
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.asarray(x0, dtype=float).reshape(n).copy()
    states[0] = x
    outputs[0] = c_row @ x + d_term
    limit = cfg.divergence_limit
    diverged = False
    filled = steps + 1
    for i in range(1, steps + 1):
        x = m @ x + gu
        y = c_row @ x + d_term
        states[i] = x
        outputs[i] = y
        if not (np.all(np.isfinite(x)) and np.isfinite(y)) or np.max(np.abs(x), initial=abs(y)) > limit:
            diverged = True
            filled = i + 1
            break
    inputs = np.full(filled, u)
    return TimeSeries(
        times=times[:filled],
        inputs=inputs,
        outputs=outputs[:filled],
        states=states[:filled],
        diverged=diverged,
    )


def step_metrics(ts: TimeSeries) -> StepMetrics:
    """Steady state, overshoot, settling, and rise figures for a step run."""
    y = ts.outputs
    t = ts.times
    if len(y) < 100:
        raise ValidationError(f"need at least 100 samples for metrics, got {len(y)}")
    if np.max(np.abs(y)) == 0.0:
        return StepMetrics(0.0, 0.0, 0.0, 0.0, settled=True, degenerate=True)

    tail = max(1, int(round(STEADY_STATE_FRACTION * len(y))))
    ss_value = float(np.mean(y[-tail:]))
    if ss_value == 0.0:
        return StepMetrics(0.0, 0.0, None, None, settled=False)

    # Overshoot is the peak beyond the steady state, in its direction.
    direction = np.sign(ss_value)
    overshoot = max(0.0, 100.0 * (float(np.max(direction * y)) - abs(ss_value)) / abs(ss_value))

    band = SETTLING_BAND * abs(ss_value)
    outside = np.abs(y - ss_value) > band
    if not np.any(outside):
        settling: float | None = 0.0
        settled = True
    else:
        last_out = int(np.max(np.nonzero(outside)[0]))
        if last_out == len(y) - 1 or ts.diverged:
            settling, settled = None, False
        else:
            settling, settled = float(t[last_out + 1]), True

    yn = y / ss_value
    rise: float | None = None
    reached_10 = np.nonzero(yn >= 0.1)[0]
    reached_90 = np.nonzero(yn >= 0.9)[0]
    if reached_10.size and reached_90.size:
        rise = float(t[reached_90[0]] - t[reached_10[0]])

    return StepMetrics(ss_value, overshoot, settling, rise, settled=settled)


def electrical_trace(p: PlantParams, ts: TimeSeries) -> ElectricalTrace:
    """Armature/EMF/power traces from a terminal-voltage trajectory.

    The EMF is reconstructed from the armature loop equation with a
    backward difference on i_a (forward difference at the first sample),
    keeping the plant order unchanged.
    """
    g = p.generator
    v = ts.outputs
    i_a = v / g.r_l
    di = np.empty_like(i_a)
    if len(i_a) > 1:
        dt = ts.times[1] - ts.times[0]
        di[1:] = (i_a[1:] - i_a[:-1]) / dt
        di[0] = (i_a[1] - i_a[0]) / dt
    else:
        di[:] = 0.0
    e_g = g.total_inductance * di + g.total_resistance * i_a
    return ElectricalTrace(
        times=ts.times, i_a=i_a, e_g=e_g, p_out=v * i_a, p_in=e_g * i_a
    )


def reference_prescaler(plant: StateSpaceModel, k) -> float:
    """Feedforward gain N = 1/(C (-(A-BK))^-1 B) making dc output equal r.

    A dc gain within rounding of zero (relative to |C| |(-(A-BK))^-1 B|)
    counts as zero: its reciprocal would be rounding noise.
    """
    k = np.atleast_2d(np.asarray(k, dtype=float))
    a_cl = plant.a - plant.b @ k
    try:
        x_dc = np.linalg.solve(-a_cl, plant.b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("closed loop has a pole at the origin; no prescaler exists") from exc
    dc = (plant.c @ x_dc).item()
    if abs(dc) <= 1e-12 * np.linalg.norm(plant.c) * np.linalg.norm(x_dc):
        raise NumericalError("closed-loop dc gain is zero; no prescaler exists")
    return 1.0 / dc


def state_feedback_loop(plant: StateSpaceModel, k, reference_gain: float = 1.0) -> StateSpaceModel:
    """Full-state-feedback loop u = reference_gain * r - K x."""
    k = np.atleast_2d(np.asarray(k, dtype=float))
    return StateSpaceModel(
        plant.a - plant.b @ k, float(reference_gain) * plant.b, plant.c, plant.d
    )
