"""Fixed-step time-domain simulation and step-response metrics.

Integration is classical 4th-order Runge-Kutta. For an LTI system driven
by a piecewise-constant input the four stages collapse to the exact
per-step affine map x+ = M x + g u with

    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24
    g = h (I + hA/2 + (hA)^2/6 + (hA)^3/24) B

`simulate` doubles on the trajectory itself, the recursive-doubling form
of the prefix scan for linear recurrences (Kogge & Stone 1973, "A parallel
algorithm for the efficient solution of a general class of recurrence
equations"; Blelloch 1990, "Prefix sums and their applications"), in
Blelloch's homogeneous coordinates: a row z = [x, 1] makes the affine step
linear. Once the first h samples are known, z[h+j] = z[j] Q_h for j < h,
with Q_h = [[(M^h)^T, 0], [S_h^T, 1]] and S_h = sum_{i<h} M^i g u, so one
batched product yields the next h samples and one square gives Q_2h; a
run of N steps takes ceil(log2(N + 1)) products and no tables. The window
stops doubling at the first power of M that is non-finite or beyond
POWER_LIMIT and slides at that width instead, so a fast unstable mode gets
short chunks, not inf * 0 = NaN samples; a power is tested only while
||M||_inf^k, which bounds its entries, could pass that limit. Runs that
blow up are truncated and flagged rather than raised: a sample is out of
bounds when it is non-finite or beyond `SimConfig.divergence_limit`, a
constant 1e12. Sample 0 is checked before the scan: an x0 or a D u
already out of bounds ends the run there. The states are checked in
batches of CHECK_ROWS rows or more and at the end, and the scan stops
after the first batch holding a state that is out of bounds; a chunk is
computed from the rows before it, so a bad row cannot hide an earlier
one. A batch is checked on its contiguous rows, the constant 1 included.
The outputs take one product with [C, D u] after the scan and are checked
once. The run ends at its first sample whose state or output is out of
bounds, the sample a step-by-step loop would stop at.
Every product of the scan and of the step maps is an `np.dot`: on these
C-contiguous float64 operands it makes the BLAS call `@` makes, so the bits
are the same, without matmul's gufunc dispatch, about 0.25 us a call (a
7 x 7 square: 0.36 against 0.63 us).
Q_1 and its squares depend on (A, B, dt, u) alone, so each ladder Q_1, Q_2,
Q_4, ... is built once: a module-level map keyed by the shape and bytes of
A and B and the bit patterns of dt and u (0.0 and -0.0 are two keys) holds
it as a tuple of read-only arrays, with whether POWER_LIMIT capped it. A
longer horizon squares on from the top rung. The map keeps at most 64
entries, a constant, and drops the oldest first. A cold call computes the
products a run without the map would, in the same order, so the bits are
the same; a warm call reads them back. A 1000-step run takes about 25
products cold and 12 warm. At n = 2, `simulate` plus `step_metrics`
takes about 108 us cold and 63 us warm, where it took 88 us without the map
(medians of 6 runs, one CPU of a 2-CPU AMD EPYC, OpenBLAS SkylakeX kernels).
A run allocates its trajectory once, an (N + 1, n + 1) array: the checks
use min and max, which allocate nothing, and `TimeSeries` keeps views of
the arrays it is given. A truncated run returns copies of the samples it
kept instead, so it does not hold the rest of the horizon's buffers.

The settling band used everywhere is +/-2 % of the steady-state value
(declared in all outputs so published settling figures are compared
like-for-like). Steady state is the mean of the final 5 % of samples.
A non-finite sample lies outside every band, so a NaN steady state (a
NaN in the tail) leaves the series unsettled, and a NaN or inf anywhere
ends the settling no earlier than the sample after it. A NaN sample makes
the overshoot NaN. A steady state within rounding of zero against a finite
peak (|ss| <= eps * peak), or exactly zero, counts as zero and unsettled;
against an infinite peak a nonzero one stands. `step_metrics` applies these
rules to numpy arrays, under an errstate that ignores invalid values and
overflow (about 1 us a call), so an inf in the tail raises no warning;
`output.column_step_metrics` applies them to the float columns of a CSV
readback, for `regforge metrics`, without numpy, and takes every run as
not diverged, as a CSV carries no such flag. It sums the tail in numpy's
pairwise order, not in index order, so the two give the same bits: a tail
sum a few ulps off moves the printed overshoot of a response that barely
passes its steady state.

A bare state-feedback regulator drives its output to zero, not to a
voltage target, so tracking loops take an explicit reference prescaler
N = 1 / (C (-(A-BK))^-1 B) ahead of the loop (`reference_prescaler`,
`state_feedback_loop`).
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .steps import SETTLING_BAND, STEADY_STATE_FRACTION, StepMetrics

if TYPE_CHECKING:  # annotations only: reading a CSV into a TimeSeries loads no model module
    from .lti import StateSpaceModel
    from .plant import PlantParams

__all__ = [
    "SimConfig",
    "TimeSeries",
    "ElectricalTrace",
    "simulate",
    "step_metrics",
    "electrical_trace",
    "reference_prescaler",
    "state_feedback_loop",
]

# The largest magnitude a power of the step map may reach in `simulate`.
POWER_LIMIT = 1e100
# `simulate` checks the states once this many rows are unchecked, and at the end.
CHECK_ROWS = 1024


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run description; defaults resolve the plant's slowest pole.

    `simulate` truncates a run at its first state or output beyond
    `divergence_limit`, a constant and not a field.
    """

    dt: float = 1e-3
    duration: float = 20.0
    input_amplitude: float = 1.0
    divergence_limit: ClassVar[float] = 1e12

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt!r}")
        if not self.duration >= self.dt:
            raise ValidationError(f"duration must be at least one step, got {self.duration!r}")
        # Written so that inf / inf = NaN fails it too.
        if not self.duration / self.dt <= 1e7:
            raise ValidationError("duration/dt exceeds the 1e7 sample guard")
        if not math.isfinite(self.input_amplitude):
            raise ValidationError("input amplitude must be finite")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled trajectory: times, input, output, and states.

    The fields are read-only views of the arrays passed in, not copies: a
    caller that writes to its own array afterwards changes the series. A
    view may be strided: `simulate`'s states are the first n columns of its
    `(samples, n + 1)` scan array, and its inputs have stride 0. Only the
    ranks and the column lengths are checked. `simulate` spaces its samples uniformly
    by construction, and times from outside enter through the CSV reader,
    `output.read_csv_columns`, which checks their spacing.
    """

    times: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    states: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        for name in ("times", "inputs", "outputs", "states"):
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.times.ndim == self.inputs.ndim == self.outputs.ndim == 1 and self.states.ndim == 2):
            raise ValidationError("a time series takes 1-D times, inputs and outputs and a 2-D states array")
        n = len(self.times)
        if len(self.inputs) != n or len(self.outputs) != n or self.states.shape[0] != n:
            raise ValidationError("time series columns must have equal length")

    @property
    def n_samples(self) -> int:
        return len(self.times)


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
    ha2 = np.dot(ha, ha)
    ha3 = np.dot(ha2, ha)
    m = eye + ha + ha2 / 2.0 + ha3 / 6.0 + np.dot(ha3, ha) / 24.0
    g = np.dot(dt * (eye + ha / 2.0 + ha2 / 6.0 + ha3 / 24.0), b)
    return m, g


class _Propagator(NamedTuple):
    """The doubling ladder of one (A, B, dt, u): ladder[k] is Q_(2^k), read-only.

    `capped` marks a ladder whose next square was non-finite or beyond
    POWER_LIMIT; it never grows, and the scan slides at its top width.
    """

    ladder: tuple[np.ndarray, ...]
    capped: bool
    safe_2h: float


# The propagators `simulate` has built, oldest first. At most _PROPAGATORS_MAX
# ladders of at most 24 rungs (the 1e7-sample guard) of at most 7 x 7 floats: 0.6 MB.
_PROPAGATORS: dict[tuple, _Propagator] = {}
_PROPAGATORS_MAX = 64
_PROPAGATORS_LOCK = threading.Lock()


def _propagator(a: np.ndarray, b: np.ndarray, dt: float, u: float, steps: int) -> _Propagator:
    """The ladder of (A, B, dt, u) up to Q_(2^k), 2^k <= steps, or to its cap, memoized.

    The key holds the bytes of A and B and the bit patterns of dt and u, so
    0.0 and -0.0 are two keys. A cold call squares up the ladder the scan
    climbs, in the order it climbs it; a warm one reads it back, and a
    longer horizon squares on from the top of the ladder it finds.
    """
    key = (a.shape, a.tobytes(), b.shape, b.tobytes(), struct.pack("<2d", dt, u))
    prop = _PROPAGATORS.get(key)
    if prop is not None and (prop.capped or len(prop.ladder) >= steps.bit_length()):
        return prop
    prop = _extend(_step_map(a, b, dt, u) if prop is None else prop, steps.bit_length())
    # Entries are never changed in place: a race between two threads can only repeat work.
    with _PROPAGATORS_LOCK:
        if key not in _PROPAGATORS and len(_PROPAGATORS) >= _PROPAGATORS_MAX:
            del _PROPAGATORS[next(iter(_PROPAGATORS))]
        _PROPAGATORS[key] = prop
    return prop


def _step_map(a: np.ndarray, b: np.ndarray, dt: float, u: float) -> _Propagator:
    n = a.shape[0]
    m, g = _rk4_maps(a, b, dt)
    # Entries of M^k are at most beta^k, beta = ||M||_inf: a square M^2h with
    # beta^2h within POWER_LIMIT / 2 (a margin for rounding) needs no test.
    row_sums = [sum(map(abs, row)) for row in m.tolist()]
    beta = max(row_sums, default=0.0) if math.isfinite(sum(row_sums)) else math.inf
    safe_2h = math.log(POWER_LIMIT / 2) / math.log(beta) if beta > 1.0 else math.inf
    # Q_1 is kept C-contiguous: BLAS is several times slower on a transposed view.
    q = np.zeros((n + 1, n + 1))
    q[:n, :n] = m.T
    q[n, :n] = (g * u).ravel()
    q[n, n] = 1.0
    q.flags.writeable = False
    return _Propagator((q,), False, safe_2h)


def _extend(prop: _Propagator, levels: int) -> _Propagator:
    """`prop` with its ladder squared up to `levels` rungs, or until a square fails."""
    ladder = list(prop.ladder)
    n = len(ladder[0]) - 1
    for k in range(len(ladder), levels):
        q2 = np.dot(ladder[-1], ladder[-1])
        # Past POWER_LIMIT the window stops growing and slides instead.
        if (1 << k) > prop.safe_2h and not (-POWER_LIMIT <= q2[:n, :n].min(initial=0.0)
                                            and q2[:n, :n].max(initial=0.0) <= POWER_LIMIT):
            return _Propagator(tuple(ladder), True, prop.safe_2h)
        q2.flags.writeable = False
        ladder.append(q2)
    return _Propagator(tuple(ladder), False, prop.safe_2h)


def _initial_state(x0, n: int) -> np.ndarray:
    try:
        x = np.asarray(x0)
    except ValueError:  # a ragged nesting
        x = None
    if x is None or x.dtype.kind not in "iuf" or x.size != n:
        raise ValidationError(f"x0 must be {n} real numbers, got {x0!r}")
    return x.reshape(n)


def simulate(ss: StateSpaceModel, cfg: SimConfig, x0=None) -> TimeSeries:
    """Response to the constant input cfg.input_amplitude, from rest unless x0 is given.

    Returns the full trajectory, or a truncated one with the diverged
    flag set at the first sample whose state or output goes non-finite
    or beyond SimConfig.divergence_limit (1e12); that may be sample 0,
    from x0 and D u. A full series views the run's buffers (its states are the first n
    columns of the `(samples, n + 1)` scan array), a truncated one holds
    copies of its samples. The inputs repeat one value with stride 0.
    x0 must hold n real numbers; ValidationError otherwise.
    """
    n = ss.n_states
    steps = cfg.n_steps
    u = float(cfg.input_amplitude)
    # Row k of z is [x[k], 1], so y[k] = z[k] . [C, D u].
    z = np.empty((steps + 1, n + 1))
    z[0, :n] = 0.0 if x0 is None else _initial_state(x0, n)
    z[0, n] = 1.0
    cd = np.empty(n + 1)
    cd[:n], cd[n] = ss.c, ss.d[0, 0] * u
    outputs = np.empty(steps + 1)
    outputs[0] = np.dot(z[0], cd)
    # |v| <= limit holds exactly for the finite samples within the divergence limit.
    limit = cfg.divergence_limit
    # Sample 0 has a few states: Python floats check them faster than two reductions.
    if not (-limit <= outputs[0] <= limit and all(-limit <= v <= limit for v in z[0, :n].tolist())):
        return _truncated(z, outputs, u, cfg.dt, 1)
    h = f = checked = 1
    state_out = False
    # Overflow on the way to divergence is expected; the checks below report it.
    with np.errstate(over="ignore", invalid="ignore"):
        ladder = _propagator(ss.a, ss.b, float(cfg.dt), u, steps).ladder
        # f samples are known; each chunk extends them from the h before by q = Q_h.
        q = ladder[0]
        while f <= steps:
            take = min(h, steps + 1 - f)
            np.dot(z[f - h:f - h + take], q, out=z[f:f + take])
            f += take
            if f - checked >= CHECK_ROWS or f > steps:
                # min and max are NaN when any entry is, and allocate nothing. The
                # rows hold the constant 1 too: it lies within the limit and turns
                # NaN (inf * 0) only after a bad state, so whole rows are checked.
                block = z[checked:f]
                if not (-limit <= block.min(initial=0.0) and block.max(initial=0.0) <= limit):
                    state_out = True
                    break
                checked = f
            # Q_2h is the next rung; a capped ladder has none, and the window slides.
            if f == 2 * h and h.bit_length() < len(ladder):
                q, h = ladder[h.bit_length()], f
        if state_out:
            # Row-major: the first bad entry lies in the first bad row, r.
            r = checked + int(np.argmax(~(np.abs(block) <= limit).ravel())) // (n + 1)
            # The outputs end with r's chunk, as a check per chunk would
            # have it: BLAS may round a row by the length of the product.
            w = min(h, 1 << (r.bit_length() - 1))
            f = min((r // w + 1) * w, f)
        ys = outputs[1:f]
        np.dot(z[1:f], cd, out=ys)
        if state_out or not (-limit <= ys.min() and ys.max() <= limit):
            bad = ~(np.abs(ys) <= limit)
            if state_out:
                bad[r - 1] = True
            return _truncated(z, outputs, u, cfg.dt, int(np.argmax(bad)) + 2)
    return TimeSeries(
        times=_times(f, cfg.dt),
        inputs=_constant(u, f),
        outputs=outputs,
        states=z[:, :n],
    )


def _times(samples: int, dt: float) -> np.ndarray:
    times = np.arange(samples, dtype=float)
    times *= dt
    return times


def _constant(u: float, samples: int) -> np.ndarray:
    # A zero-stride view of one read-only value: np.broadcast_to at a quarter of its call cost.
    return np.ndarray((samples,), buffer=np.float64(u), strides=(0,))


def _truncated(z: np.ndarray, outputs: np.ndarray, u: float, dt: float, samples: int) -> TimeSeries:
    # Copies of the kept samples: views would hold the whole horizon's buffers.
    return TimeSeries(
        times=_times(samples, dt),
        inputs=_constant(u, samples),
        outputs=outputs[:samples].copy(),
        states=z[:samples, :-1].copy(),
        diverged=True,
    )


# An inf in the tail makes the steady state inf or NaN, and y - ss and y / ss
# then hold inf - inf or inf / inf; the figures carry the NaN without a warning.
@np.errstate(over="ignore", invalid="ignore")
def step_metrics(ts: TimeSeries) -> StepMetrics:
    """Steady state, overshoot, settling, and rise figures for a step run."""
    y = ts.outputs
    t = ts.times
    if len(y) < 100:
        raise ValidationError(f"need at least 100 samples for metrics, got {len(y)}")
    # The extremes come from min and max, which allocate nothing; the one
    # full-length temporary is `dev`.
    y_max, y_min = float(y.max()), float(y.min())
    peak = max(y_max, -y_min)
    if peak == 0.0:
        return StepMetrics(0.0, 0.0, 0.0, 0.0, settled=True, degenerate=True)

    tail = max(1, int(round(STEADY_STATE_FRACTION * len(y))))
    # The bits of y[-tail:].mean(), at a third of its call cost.
    ss_value = float(y[-tail:].sum()) / tail
    # A steady state lost in rounding against a finite peak counts as zero:
    # normalizing by it would overflow. An exact zero counts as zero against any peak.
    if abs(ss_value) <= np.finfo(float).eps * peak < math.inf or ss_value == 0.0:
        return StepMetrics(0.0, 0.0, None, None, settled=False)

    # Overshoot is the peak beyond the steady state, in its direction; a NaN
    # peak makes it NaN.
    peak_along = y_max if ss_value > 0.0 else -y_min
    overshoot = 100.0 * (peak_along - abs(ss_value)) / abs(ss_value)
    overshoot = 0.0 if overshoot <= 0.0 else overshoot

    band = SETTLING_BAND * abs(ss_value)
    dev = np.subtract(y, ss_value)
    # Written so that a non-finite sample lies outside the band.
    inside = np.abs(dev, out=dev) <= band
    # The last sample outside the band; none is outside when even it is in.
    last_out = len(y) - 1 - int(inside[::-1].argmin())
    if inside[last_out]:
        settling: float | None = 0.0
        settled = True
    elif last_out == len(y) - 1 or ts.diverged:
        settling, settled = None, False
    else:
        settling, settled = float(t[last_out + 1]), True

    # First samples at 10 % and 90 % of the steady state; reaching 90 %
    # implies reaching 10 %.
    yn = np.divide(y, ss_value, out=dev)
    rise: float | None = None
    i90 = int(np.greater_equal(yn, 0.9, out=inside).argmax())
    if inside[i90]:
        i10 = int(np.greater_equal(yn, 0.1, out=inside).argmax())
        rise = float(t[i90] - t[i10])

    return StepMetrics(ss_value, overshoot, settling, rise, settled=settled)


# A diverged run's samples may be huge or inf; the traces carry them as they come.
@np.errstate(over="ignore", invalid="ignore")
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

    The solve goes through `lti.lu_factor`; a zero pivot (a closed-loop
    pole at the origin) raises NumericalError. A dc gain within rounding of
    zero (relative to |C| |(-(A-BK))^-1 B|) counts as zero: its reciprocal
    would be rounding noise.
    """
    from .lti import lu_factor, lu_solve, ordered_dot

    b = plant.b[:, 0].tolist()
    k = np.asarray(k, dtype=float).reshape(-1).tolist()
    if len(k) != len(b):
        raise ValidationError(f"state-feedback gain must have {len(b)} entries, got {len(k)}")
    # -(A - BK), each entry of BK one product, on Python floats.
    lu, perm, rank = lu_factor(
        [[-(a_ij - b_i * k_j) for a_ij, k_j in zip(row, k)] for row, b_i in zip(plant.a.tolist(), b)]
    )
    if rank < len(lu):
        raise NumericalError("closed loop has a pole at the origin; no prescaler exists")
    x_dc = lu_solve(lu, perm, b)
    c = plant.c[0].tolist()
    dc = ordered_dot(c, x_dc)
    if abs(dc) <= 1e-12 * math.sqrt(ordered_dot(c, c)) * math.sqrt(ordered_dot(x_dc, x_dc)):
        raise NumericalError("closed-loop dc gain is zero; no prescaler exists")
    return 1.0 / dc


def state_feedback_loop(plant: StateSpaceModel, k, reference_gain: float = 1.0) -> StateSpaceModel:
    """Full-state-feedback loop u = reference_gain * r - K x."""
    from .lti import StateSpaceModel

    k = np.atleast_2d(np.asarray(k, dtype=float))
    return StateSpaceModel(
        plant.a - plant.b @ k, float(reference_gain) * plant.b, plant.c, plant.d
    )
