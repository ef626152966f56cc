import hashlib
import math
import random
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regforge import sim
from regforge.errors import NumericalError, ValidationError
from regforge.lti import StateSpaceModel, TransferFunction, dc_gain, ss_to_tf, tf_to_ss
from regforge.observer import design_observer_gain
from regforge.output import column_step_metrics, read_timeseries_csv
from regforge.plant import PRESETS, REFERENCE_PARAMS, plant_tf, rounded_plant_tf
from regforge.scenario import (
    DEFAULT_OUTPUTS,
    ControllerSpec,
    Scenario,
    closed_loop,
    preset_scenario,
    run_scenario,
)
from regforge.sim import (
    CHECK_ROWS,
    POWER_LIMIT,
    SimConfig,
    StepMetrics,
    TimeSeries,
    electrical_trace,
    reference_prescaler,
    _rk4_maps,
    simulate,
    state_feedback_loop,
    step_metrics,
)

from oracles import random_controllable_siso

K_HIGH = np.array([[1.7720018726587652, 2.0]])
K_LOW = np.array([[0.21658284935643368, 0.2649110640673518]])
H_PUB = np.array([[2.0], [-0.5]])
# A run length for the scan tests. It is a power of two: LENGTH - 1 steps
# fill the doubling chunks exactly, LENGTH and LENGTH + 1 start one more.
LENGTH = 512
# The magnitude beyond which `simulate` truncates a run.
LIMIT = SimConfig.divergence_limit
# The paper's LQR weights (giving K_LOW) and observer weights (giving K_HIGH).
LQR_LOW = ControllerSpec(kind="lqr", q_diag=np.array([3.0, 3.0]), r=5.0)


def observer_spec(h) -> ControllerSpec:
    return ControllerSpec(kind="observer", q_diag=np.array([8.0, 8.0]), r=1.0, h=np.asarray(h))


def first_order(tau=2.0):
    return tf_to_ss(TransferFunction([1.0], [tau, 1.0]))


def stepwise_simulate(ss: StateSpaceModel, cfg: SimConfig, x0=None) -> TimeSeries:
    """Reference for `simulate`: one RK4 step map product per sample."""
    n = ss.n_states
    u = float(cfg.input_amplitude)
    m, g = _rk4_maps(ss.a, ss.b, cfg.dt)
    gu = (g * u).ravel()
    d_term = ss.d[0, 0] * u
    c_row = ss.c.ravel()
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n).copy()
    def out_of_bounds(x, y):
        return not (np.all(np.isfinite(x)) and np.isfinite(y)) or np.max(np.abs(x), initial=abs(y)) > LIMIT

    states, outputs = [x], [c_row @ x + d_term]
    # sample 0 is checked too: an x0 or D u already out of bounds ends the run there
    diverged = out_of_bounds(x, outputs[0])
    for _ in range(0 if diverged else cfg.n_steps):
        x = m @ x + gu
        y = c_row @ x + d_term
        states.append(x)
        outputs.append(y)
        if out_of_bounds(x, y):
            diverged = True
            break
    samples = len(outputs)
    return TimeSeries(times=np.arange(samples) * cfg.dt, inputs=np.full(samples, u),
                      outputs=np.array(outputs), states=np.array(states).reshape(samples, n),
                      diverged=diverged)


def assert_matches_stepwise(ss: StateSpaceModel, cfg: SimConfig, x0=None) -> TimeSeries:
    """Same samples and divergence flag; values within 1e-9 of each column's peak."""
    ts = simulate(ss, cfg, x0)
    ref = stepwise_simulate(ss, cfg, x0)
    assert (ts.n_samples, ts.diverged) == (ref.n_samples, ref.diverged)
    npt.assert_array_equal(ts.times, ref.times)
    npt.assert_array_equal(ts.inputs, ref.inputs)
    # the inputs are one read-only value seen at every sample
    assert ts.inputs.strides == (0,) and not ts.inputs.flags.writeable
    for got, want in [(ts.outputs, ref.outputs)] + [(ts.states[:, i], ref.states[:, i])
                                                    for i in range(ss.n_states)]:
        finite = np.isfinite(want)
        npt.assert_array_equal(np.isfinite(got), finite)
        npt.assert_array_equal(got[~finite], want[~finite])
        scale = np.max(np.abs(want[finite]), initial=0.0)
        assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= 1e-9 * scale
    return ts


class TestSimConfig:
    def test_guards(self):
        with pytest.raises(ValidationError):
            SimConfig(dt=0.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.1, duration=0.05)
        with pytest.raises(ValidationError, match="at least one step, got nan"):
            SimConfig(dt=0.1, duration=float("nan"))
        with pytest.raises(ValidationError):
            SimConfig(dt=1e-9, duration=100.0)
        with pytest.raises(ValidationError, match="sample guard"):
            SimConfig(dt=float("inf"), duration=float("inf"))
        with pytest.raises(TypeError, match="input_kind"):  # input_amplitude = 0 is the zero input
            SimConfig(input_kind="zero")

    def test_divergence_limit_is_a_constant(self):
        assert SimConfig().divergence_limit == LIMIT == 1e12
        with pytest.raises(TypeError, match="divergence_limit"):
            SimConfig(divergence_limit=1e6)


class TestSimulate:
    def test_first_order_analytic(self):
        # y(t) = 1 - exp(-t/2); integration error stays below 1e-6 at dt=1e-3
        ts = simulate(first_order(), SimConfig(dt=1e-3, duration=4.0))
        analytic = 1.0 - np.exp(-ts.times / 2.0)
        assert np.max(np.abs(ts.outputs - analytic)) <= 1e-6
        i2 = int(round(2.0 / 1e-3))
        assert ts.outputs[i2] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-6)

    def test_open_loop_reference_plant(self):
        ts = simulate(
            tf_to_ss(plant_tf(REFERENCE_PARAMS)),
            SimConfig(dt=1e-3, duration=20.0, input_amplitude=5.0),
        )
        m = step_metrics(ts)
        assert m.steady_state == pytest.approx(91.43, abs=0.05)

    def test_zero_input_stays_zero(self):
        ts = simulate(first_order(), SimConfig(dt=1e-3, duration=1.0, input_amplitude=0.0))
        npt.assert_array_equal(ts.outputs, np.zeros_like(ts.outputs))
        assert not ts.diverged

    def test_initial_state(self):
        # free decay from x0=1 with unit output map: y = exp(-t/2)
        ss = StateSpaceModel([[-0.5]], [[1.0]], [[1.0]])
        ts = simulate(ss, SimConfig(dt=1e-3, duration=2.0, input_amplitude=0.0), x0=[1.0])
        npt.assert_allclose(ts.outputs, np.exp(-ts.times / 2.0), atol=1e-9)

    @pytest.mark.parametrize("x0", [
        [1.0, 2.0, 3.0], [1.0], "ab", [[1.0], [2.0, 3.0]], [1j, 2.0], [None, 1.0], [True, False],
    ], ids=["long", "short", "string", "ragged", "complex", "none", "bool"])
    def test_rejects_an_x0_that_is_not_n_reals(self, x0):
        ss = StateSpaceModel([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 1.0]])
        with pytest.raises(ValidationError, match="x0 must be 2 real numbers"):
            simulate(ss, SimConfig(dt=1e-2, duration=1.0), x0)

    def test_linearity_in_amplitude(self):
        one = simulate(first_order(), SimConfig(dt=1e-2, duration=5.0, input_amplitude=1.0))
        two = simulate(first_order(), SimConfig(dt=1e-2, duration=5.0, input_amplitude=2.0))
        npt.assert_allclose(two.outputs, 2.0 * one.outputs, atol=1e-9)

    def test_convergence_order(self):
        errs = []
        for dt in (0.02, 0.01):
            ts = simulate(first_order(), SimConfig(dt=dt, duration=4.0))
            errs.append(np.max(np.abs(ts.outputs - (1.0 - np.exp(-ts.times / 2.0)))))
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.5

    def test_divergence_truncates_and_flags(self):
        # x' = 2x + 1e6 u passes the limit near t = 7.25 s
        unstable = StateSpaceModel([[2.0]], [[1e6]], [[1.0]])
        ts = simulate(unstable, SimConfig(dt=1e-3, duration=30.0))
        assert ts.diverged
        assert ts.n_samples < 30001
        assert np.all(np.isfinite(ts.outputs))

    def test_dc_gain_matches_final_value(self):
        rng = np.random.default_rng(30)
        from regforge.lti import ss_to_tf

        for _ in range(20):
            n = int(rng.integers(1, 4))
            a, b = random_controllable_siso(rng, n)
            a = a - (np.max(np.linalg.eigvals(a).real) + 0.4) * np.eye(n)
            c = rng.normal(size=(1, n))
            ss = StateSpaceModel(a, b, c)
            amp = rng.uniform(0.5, 3.0)
            ts = simulate(ss, SimConfig(dt=1e-3, duration=40.0, input_amplitude=amp))
            expected = dc_gain(ss_to_tf(ss)) * amp
            if abs(expected) < 1e-3:
                continue
            m = step_metrics(ts)
            assert m.steady_state == pytest.approx(expected, rel=5e-3)


def scan_model(rng, n: int, unstable: bool) -> StateSpaceModel:
    """Random n-state SISO model, its slowest mode at -0.5 or its fastest at +2 + 0.3 n."""
    if n == 0:
        return StateSpaceModel.static_gain(2e12 if unstable else 1.5)
    a, b = random_controllable_siso(rng, n)
    shift = np.max(np.linalg.eigvals(a).real)
    a = a - (shift - (2.0 + 0.3 * n if unstable else -0.5)) * np.eye(n)
    return StateSpaceModel(a, b, rng.normal(size=(1, n)), [[rng.normal()]])


class TestBlockedScan:
    """`simulate` against the stepwise loop it replaces."""

    # 2^k - 1 steps fill the chunks exactly, 2^k and 2^k + 1 start one
    # more; 4 LENGTH - 1 ends on a chunk of 2 LENGTH rows.
    STEP_COUNTS = (1, 2, 3, 7, 8, 9, LENGTH - 1, LENGTH, LENGTH + 1, 3 * LENGTH + 5, 4 * LENGTH - 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("unstable", [False, True], ids=["stable", "unstable"])
    @pytest.mark.parametrize("n", range(7))
    def test_matches_stepwise(self, n, unstable):
        rng = np.random.default_rng(100 + n)
        ss = scan_model(rng, n, unstable)
        truncated = 0
        for x0 in (None, rng.normal(size=n)):
            for amplitude in (-1.7, 0.0):
                for steps in self.STEP_COUNTS:
                    cfg = SimConfig(dt=1e-2, duration=steps * 1e-2, input_amplitude=amplitude)
                    assert cfg.n_steps == steps
                    truncated += assert_matches_stepwise(ss, cfg, x0).diverged
        if unstable:
            # every longest run diverges, except the one from rest with zero input
            assert truncated >= 5
        else:
            assert truncated == 0

    @pytest.mark.filterwarnings("error")
    def test_published_observer_loop(self):
        loop = closed_loop(preset_scenario("published", "paper-rounded", observer_spec(H_PUB),
                                           SimConfig(dt=1e-3, duration=15.0), 220.0))
        cfg = SimConfig(dt=1e-3, duration=15.0, input_amplitude=220.0)
        ts = assert_matches_stepwise(loop.model, cfg, loop.x0)
        assert ts.diverged and ts.n_samples > 5 * LENGTH

    @pytest.mark.filterwarnings("error")
    def test_norm_bound_switches_the_power_test_on(self):
        # A stable but far from normal step map: ||M||_inf ~ 10.9, so the
        # norm bound on M^2h rules POWER_LIMIT out only up to 2h ~ 96 and
        # the squares from M^128 on are tested; they pass, the run stays
        # stable and doubles to the end.
        ss = StateSpaceModel([[-1.0, 1000.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]])
        cfg = SimConfig(dt=1e-2, duration=4 * LENGTH * 1e-2, input_amplitude=3.0)
        m, _ = _rk4_maps(ss.a, ss.b, cfg.dt)
        beta = np.linalg.norm(m, np.inf)
        assert beta ** 64 < POWER_LIMIT / 2 < beta ** 128 and max(abs(np.linalg.eigvals(m))) < 1.0
        ts = assert_matches_stepwise(ss, cfg, [0.5, -2.0])
        assert not ts.diverged and ts.n_samples == 4 * LENGTH + 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ss,cfg,x0,diverges", [
        # h lambda = 5: the step map grows 65x a sample, its powers pass 1e100 at 55
        (StateSpaceModel([[50.0]], [[1.0]], [[1.0]]), SimConfig(dt=0.1, duration=100.0), None, True),
        # a 1e-300 seed on that mode: the map's 170th power overflows before
        # the state reaches the limit at sample 172, so blocks must stay short
        (StateSpaceModel([[50.0]], [[1.0]], [[1.0]]),
         SimConfig(dt=0.1, duration=100.0, input_amplitude=0.0), [1e-300], True),
        # the mode is never excited, but its powers overflow within one
        # block; inf * 0 must not turn the run into NaN
        (StateSpaceModel([[50.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]], [[0.0, 1.0]]),
         SimConfig(dt=0.1, duration=100.0), [0.0, 1.0], False),
        # tiny seeds on slower modes grow through many full blocks
        (StateSpaceModel([[30.0]], [[1.0]], [[1.0]]),
         SimConfig(dt=1e-3, duration=100.0, input_amplitude=0.0), [1e-300], True),
        (StateSpaceModel([[0.0, 1.0], [-900.0, 20.0]], [[0.0], [1.0]], [[1.0, 0.0]]),
         SimConfig(dt=1e-2, duration=50.0), [1e-300, 0.0], True),
        # an input so large that the sum table overflows behind the first sample
        (first_order(), SimConfig(dt=1e-3, duration=10.0, input_amplitude=1e300), None, True),
    ], ids=["fast-mode", "tiny-seed-fast-mode", "unexcited-fast-mode", "tiny-seed",
            "tiny-seed-oscillating", "huge-input"])
    def test_overflow_cases(self, ss, cfg, x0, diverges):
        ts = assert_matches_stepwise(ss, cfg, x0)
        assert ts.diverged == diverges
        assert diverges or ts.n_samples == cfg.n_steps + 1


def matmul_scan(ss: StateSpaceModel, cfg: SimConfig, x0=None):
    """`simulate`'s scan with every product written as `@` or np.matmul.

    It is the scan as it stood before its products went through np.dot,
    with the power and batch tests written out in full (the norm bound
    only skips power tests that pass). Returns the outputs, the states and
    the diverged flag of the samples `simulate` keeps.
    """
    n, steps, u, dt = ss.n_states, cfg.n_steps, float(cfg.input_amplitude), cfg.dt
    eye = np.eye(n)
    ha = dt * ss.a
    ha2 = ha @ ha
    ha3 = ha2 @ ha
    m = eye + ha + ha2 / 2.0 + ha3 / 6.0 + ha3 @ ha / 24.0
    g = dt * (eye + ha / 2.0 + ha2 / 6.0 + ha3 / 24.0) @ ss.b
    z = np.empty((steps + 1, n + 1))
    z[0, :n] = 0.0 if x0 is None else np.asarray(x0, dtype=float).reshape(n)
    z[0, n] = 1.0
    cd = np.append(ss.c.ravel(), ss.d[0, 0] * u)
    outputs = np.empty(steps + 1)
    outputs[0] = z[0] @ cd
    if not np.all(np.abs(z[0]) <= LIMIT) or not abs(outputs[0]) <= LIMIT:
        return outputs[:1], z[:1, :n], True
    q = np.zeros((n + 1, n + 1))
    q[:n, :n] = m.T
    q[n, :n] = (g * u).ravel()
    q[n, n] = 1.0
    h = f = checked = 1
    state_out = False
    with np.errstate(over="ignore", invalid="ignore"):
        while f <= steps:
            take = min(h, steps + 1 - f)
            np.matmul(z[f - h:f - h + take], q, out=z[f:f + take])
            f += take
            if f - checked >= CHECK_ROWS or f > steps:
                block = z[checked:f]
                if not np.all(np.abs(block) <= LIMIT):
                    state_out = True
                    break
                checked = f
            if f == 2 * h and f <= steps:
                q2 = q @ q
                if np.all(np.abs(q2[:n, :n]) <= POWER_LIMIT):
                    q, h = q2, f
        if state_out:
            r = checked + int(np.argmax(~(np.abs(block) <= LIMIT).ravel())) // (n + 1)
            w = min(h, 1 << (r.bit_length() - 1))
            f = min((r // w + 1) * w, f)
        ys = outputs[1:f]
        np.matmul(z[1:f], cd, out=ys)
        bad = ~(np.abs(ys) <= LIMIT)
    if state_out:
        bad[r - 1] = True
    if bad.any():
        samples = int(np.argmax(bad)) + 2
        return outputs[:samples], z[:samples, :n], True
    return outputs, z[:, :n], False


@pytest.mark.filterwarnings("error")
def test_dot_products_keep_the_matmul_bits():
    # np.dot and `@` make the same BLAS call on C-contiguous float64
    # operands; this holds them to the same bits on the BLAS at hand, where
    # a sha256 pin holds only on the kernels it was taken on. The runs are
    # from rest and from a random x0; at dt = 2e-2 and 5e-2 most unstable
    # models pass the limit within the horizon, between samples 144 and 509.
    rng = np.random.default_rng(2200)
    kinds = Counter()
    for n in range(7):
        for unstable in (False, True):
            ss = scan_model(rng, n, unstable)
            for dt in (1e-2, 2e-2, 5e-2):
                for x0 in (None, rng.normal(size=n)):
                    for steps in (LENGTH - 1, LENGTH, LENGTH + 1):
                        cfg = SimConfig(dt=dt, duration=steps * dt, input_amplitude=-1.7)
                        assert cfg.n_steps == steps
                        ts = simulate(ss, cfg, x0)
                        outputs, states, diverged = matmul_scan(ss, cfg, x0)
                        assert ts.diverged == diverged
                        assert np.array_equal(ts.outputs, outputs)
                        assert np.array_equal(ts.states, states)
                        kinds[("unstable" if unstable else "stable", diverged)] += 1
    assert kinds[("stable", False)] == 126 and kinds[("stable", True)] == 0
    assert kinds[("unstable", False)] >= 40 and kinds[("unstable", True)] >= 70


class TestDivergenceSearch:
    """Where `simulate` truncates a run, against the stepwise loop."""

    @pytest.mark.filterwarnings("error")
    def test_only_the_output_crosses(self):
        # x -> 1 with time constant 100 s; y = 1.5e13 x passes the limit near
        # sample 690, in the chunk of samples LENGTH to 2 LENGTH - 1, while
        # the state stays below 0.15
        ss = StateSpaceModel([[-0.01]], [[0.01]], [[1.5e13]])
        cfg = SimConfig(dt=1e-2, duration=3 * LENGTH * 1e-2)
        ts = assert_matches_stepwise(ss, cfg)
        assert ts.diverged and LENGTH < ts.n_samples - 1 < 2 * LENGTH
        assert np.max(np.abs(ts.states)) < LIMIT < abs(ts.outputs[-1])

    @pytest.mark.filterwarnings("error")
    def test_state_crosses_mid_block_and_returns(self):
        # an undamped oscillator with period 20 s and an unobserved state
        # peaking at 1 near t = 7.7 s: it passes 0.9 between samples 628 and
        # 913, within one chunk, and sample 1024, the first row of the next,
        # is back at 0.7. Scaled by LIMIT / 0.9, it crosses the limit there.
        w = 2.0 * np.pi / 20.0
        ss = StateSpaceModel([[0.0, 1.0], [-w * w, 0.0]], [[0.0], [0.0]], [[0.0, 0.0]])
        x0 = np.array([np.cos(-w * 7.7), -w * np.sin(-w * 7.7)])
        cfg = SimConfig(dt=1e-2, duration=30.0, input_amplitude=0.0)
        free = simulate(ss, cfg, x0)
        assert abs(free.states[2 * LENGTH, 0]) < 0.9
        ts = assert_matches_stepwise(ss, cfg, x0 * (LIMIT / 0.9))
        assert ts.diverged and LENGTH + 1 < ts.n_samples - 1 < 2 * LENGTH

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("crossing", [LENGTH + 1, 2 * LENGTH, LENGTH, 2 * LENGTH - 1,
                                          3, 2 * LENGTH + 1, 3 * LENGTH, 4 * LENGTH - 1, 4 * LENGTH],
                             ids=["first-row", "last-row", "chunk-first-row", "chunk-last-row",
                                  "early", "next-chunk-second-row", "inside-first-check",
                                  "first-check-last-row", "after-first-check"])
    @pytest.mark.parametrize("c", [0.0, 2.0], ids=["state", "output"])
    def test_crossing_on_a_block_edge(self, crossing, c):
        # a slowly growing mode from x0 = 1; scaled by LIMIT / t, it crosses
        # the limit where the state (c = 0) or the output y = 2x crosses t,
        # between samples crossing - 1 and crossing. Samples
        # LENGTH to 2 LENGTH - 1 are one doubling chunk, computed from
        # samples 0 to LENGTH - 1; first-row and last-row fall inside the
        # chunk and on the first row of the next. The states are checked in
        # batches: samples 1 to 4 LENGTH - 1 = 2047 are the first, so an
        # early crossing is found only after chunks computed past it.
        ss = StateSpaceModel([[0.1]], [[0.0]], [[c]])
        cfg = SimConfig(dt=1e-2, duration=30.0, input_amplitude=0.0)
        free = simulate(ss, cfg, [1.0])
        watched = free.outputs if c else free.states[:, 0]
        t = float(np.sqrt(watched[crossing - 1] * watched[crossing]))
        ts = assert_matches_stepwise(ss, cfg, [LIMIT / t])
        assert ts.diverged and ts.n_samples - 1 == crossing

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("crossing", [96, 127], ids=["first-row", "last-row"])
    def test_crossing_on_a_sliding_window_edge(self, crossing):
        # h lambda = 5: the step map grows 65.4x a sample, so its 64th power
        # passes POWER_LIMIT and the window stays at 32 rows: samples 96 to
        # 127 are one window, computed from samples 64 to 95. The seed is
        # scaled so that the state crosses the limit at `crossing`.
        ss = StateSpaceModel([[50.0]], [[1.0]], [[1.0]])
        cfg = SimConfig(dt=0.1, duration=20.0, input_amplitude=0.0)
        free = simulate(ss, cfg, [1e-300])
        t = float(np.sqrt(free.states[crossing - 1, 0] * free.states[crossing, 0]))
        ts = assert_matches_stepwise(ss, cfg, [1e-300 * (LIMIT / t)])
        assert ts.diverged and ts.n_samples - 1 == crossing

    @pytest.mark.filterwarnings("error")
    def test_first_bad_row_leaves_by_a_later_column(self):
        # Four uncoupled growing modes, scaled by LIMIT so that the limit
        # stands for 1: x4 passes 1 near sample 1100, x1 near 1300, both in
        # the first checked batch. The first bad entry in row order is x4's;
        # a search column by column would meet x1's first.
        rates = np.array([0.2, 0.0, -0.1, 0.1])
        x0 = np.exp(-rates * [13.0, 0.0, 0.0, 11.0]) * [1.0, 0.5, 0.5, 1.0]
        ss = StateSpaceModel(np.diag(rates), np.zeros((4, 1)), np.zeros((1, 4)))
        cfg = SimConfig(dt=1e-2, duration=30.0, input_amplitude=0.0)
        free = simulate(ss, cfg, x0)
        first_out = np.argmax(np.abs(free.states) > 1.0, axis=0)
        assert first_out[3] < first_out[0] < 4 * LENGTH
        assert np.max(np.abs(free.states[:, 1:3])) <= 1.0
        ts = assert_matches_stepwise(ss, cfg, x0 * LIMIT)
        assert ts.diverged and ts.n_samples - 1 == first_out[3]
        assert abs(ts.states[-1, 3]) > LIMIT >= np.max(np.abs(ts.states[-1, :3]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gain,samples", [(1.5, 3 * LENGTH + 1), (2e12, 1)], ids=["inside", "beyond"])
    def test_zero_state_model(self, gain, samples):
        cfg = SimConfig(dt=1e-2, duration=3 * LENGTH * 1e-2)
        ts = assert_matches_stepwise(StateSpaceModel.static_gain(gain), cfg)
        assert ts.n_samples == samples and ts.states.shape == (samples, 0)
        assert ts.diverged == (gain > LIMIT)
        if not ts.diverged:
            assert step_metrics(ts).steady_state == gain


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ss,x0", [
        (StateSpaceModel([[-1.0]], [[1.0]], [[1.0]]), [2e12]),
        # the state starts within the limit, the output C x0 beyond it
        (StateSpaceModel([[-1.0]], [[1.0]], [[1e3]]), [2e9]),
        (first_order(), [np.nan]),
        (first_order(), [np.inf]),
    ], ids=["state", "output", "nan", "inf"])
    def test_sample_zero_out_of_bounds(self, ss, x0):
        cfg = SimConfig(dt=1e-2, duration=3 * LENGTH * 1e-2)
        ts = assert_matches_stepwise(ss, cfg, x0)
        assert ts.diverged and ts.n_samples == 1

    def test_truncated_run_holds_only_its_samples(self):
        # The published-H loop diverges near sample 10k of a 40k-step horizon.
        # The series holds copies of the kept samples, not views of the
        # horizon's buffers, and their bits are pinned.
        cfg = SimConfig(dt=1e-3, duration=40.0, input_amplitude=220.0)
        loop = closed_loop(preset_scenario("published", "paper-rounded", observer_spec(H_PUB), cfg, 220.0))
        ts = simulate(loop.model, cfg, loop.x0)
        assert ts.diverged and ts.n_samples == 10_210
        for arr in (ts.states, ts.outputs):
            assert arr.base.nbytes == arr.nbytes
        assert hashlib.sha256(ts.states.tobytes()).hexdigest() == \
            "2654ec266381a107f23bb0a69fa9e8c7806a1a10fbe8a1c5d90b64a8ee9e5cfa"
        assert hashlib.sha256(ts.outputs.tobytes()).hexdigest() == \
            "3896ceab6f4cc11bde831dab1e212bdf5cc357e29529921da69e104bc187b541"


def run_bytes(ts: TimeSeries) -> tuple:
    """Everything a run returns, as bytes."""
    return ts.times.tobytes(), ts.inputs.tobytes(), ts.outputs.tobytes(), ts.states.tobytes(), ts.diverged


@pytest.mark.filterwarnings("error")
class TestPropagatorMemo:
    """A warm `simulate` reads back the ladder a cold one builds, bit for bit."""

    @staticmethod
    def assert_warm_is_cold(runs) -> None:
        """Each (ss, cfg, x0) of `runs`, run in turn on one memo, equals itself run on an empty memo.

        The memo is left as the runs in turn leave it.
        """
        cold = []
        for run in runs:
            sim._PROPAGATORS.clear()
            cold.append(run_bytes(simulate(*run)))
        sim._PROPAGATORS.clear()
        assert [run_bytes(simulate(*run)) for run in runs] == cold

    @pytest.mark.parametrize("unstable", [False, True], ids=["stable", "unstable"])
    def test_random_models(self, unstable):
        rng = np.random.default_rng(2700 + unstable)
        runs = []
        for n in range(7):
            ss = scan_model(rng, n, unstable)
            for steps in (LENGTH, 7, 3 * LENGTH + 5, LENGTH):
                for x0 in (None, rng.normal(size=n)):
                    runs.append((ss, SimConfig(dt=1e-2, duration=steps * 1e-2, input_amplitude=-1.7), x0))
            # A, B, dt and u each changed alone: four more keys.
            runs += [(StateSpaceModel(ss.a, 2.0 * ss.b, ss.c, ss.d), runs[-1][1], None),
                     (StateSpaceModel(ss.a + np.eye(n), ss.b, ss.c, ss.d), runs[-1][1], None),
                     (ss, replace(runs[-1][1], dt=5e-3), None),
                     (ss, replace(runs[-1][1], input_amplitude=2.0), None)]
        self.assert_warm_is_cold(runs)
        # Five keys a model with states. The zero-state model has no A or B to
        # change, so three; unstable, a gain of 2e12, it leaves the bounds at
        # sample 0 and builds none.
        assert len(sim._PROPAGATORS) == (30 if unstable else 33)

    def test_a_longer_horizon_extends_the_ladder(self):
        cfg = SimConfig(dt=1e-2, duration=LENGTH * 1e-2)
        longer = replace(cfg, duration=4 * LENGTH * 1e-2)
        ss = first_order()
        self.assert_warm_is_cold([(ss, cfg, None), (ss, longer, None), (ss, cfg, None)])
        (prop,) = sim._PROPAGATORS.values()
        assert len(prop.ladder) == (4 * LENGTH).bit_length() and not prop.capped
        # A horizon the ladder covers reuses it as it is.
        simulate(ss, cfg)
        assert next(iter(sim._PROPAGATORS.values())) is prop

    def test_a_capped_ladder_slides(self):
        # The fast mode's powers pass POWER_LIMIT near 55, so the ladder stops
        # at Q_32; the mode is never excited and the run holds every sample.
        ss = StateSpaceModel([[50.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]], [[0.0, 1.0]])
        cfg = SimConfig(dt=0.1, duration=100.0)
        longer = replace(cfg, duration=400.0)
        self.assert_warm_is_cold([(ss, cfg, [0.0, 1.0]), (ss, longer, [0.0, 1.0]), (ss, cfg, [0.0, 1.0])])
        (prop,) = sim._PROPAGATORS.values()
        assert prop.capped and len(prop.ladder) == 6
        assert simulate(ss, longer, [0.0, 1.0]).n_samples == longer.n_steps + 1

    def test_truncated_runs(self):
        cfg = SimConfig(dt=1e-3, duration=15.0, input_amplitude=220.0)
        loop = closed_loop(preset_scenario("published", "paper-rounded", observer_spec(H_PUB), cfg, 220.0))
        fast = StateSpaceModel([[50.0]], [[1.0]], [[1.0]])
        fast_cfg = SimConfig(dt=0.1, duration=100.0)
        runs = [(loop.model, cfg, loop.x0), (fast, fast_cfg, None)] * 2
        self.assert_warm_is_cold(runs)
        assert all(simulate(*run).diverged for run in runs)

    def test_signed_zero_inputs_are_two_keys(self):
        ss = first_order()
        plus, minus = (SimConfig(dt=1e-2, duration=5.0, input_amplitude=u) for u in (0.0, -0.0))
        self.assert_warm_is_cold([(ss, plus, None), (ss, minus, None)])
        assert len(sim._PROPAGATORS) == 2
        # Q_1's last row is g u: -0.0 under the negative zero, not the positive zero's 0.0.
        signs = [bool(np.signbit(prop.ladder[0][1, 0])) for prop in sim._PROPAGATORS.values()]
        assert signs == [False, True]

    def test_figure_presets_share_one_propagator(self):
        # Both presets realize the plant as A = [[-2.5, -1], [1, 0]], B = e1
        # and differ in C, which the key leaves out.
        cfg = SimConfig(dt=1e-3, duration=20.0, input_amplitude=5.0)
        scenarios = [preset_scenario(f"figure4-{preset}", preset, ControllerSpec(), cfg) for preset in PRESETS]
        exact, rounded = (scn.plant_model for scn in scenarios)
        npt.assert_array_equal(exact.a, [[-2.5, -1.0], [1.0, 0.0]])
        npt.assert_array_equal(exact.a, rounded.a)
        npt.assert_array_equal(exact.b, rounded.b)
        assert not np.array_equal(exact.c, rounded.c)
        self.assert_warm_is_cold([(scn.plant_model, scn.sim, None) for scn in scenarios])
        assert len(sim._PROPAGATORS) == 1

    def test_the_memo_is_bounded(self):
        sim._PROPAGATORS.clear()
        for k in range(sim._PROPAGATORS_MAX + 5):
            cfg = SimConfig(dt=1e-3 * (k + 1), duration=1e-2 * (k + 1))
            simulate(first_order(), cfg)
            assert len(sim._PROPAGATORS) == min(k + 1, sim._PROPAGATORS_MAX)
        # The newest entry is held: running it again builds nothing.
        held = list(sim._PROPAGATORS.values())
        simulate(first_order(), cfg)
        assert all(a is b for a, b in zip(sim._PROPAGATORS.values(), held, strict=True))

    def test_threads_share_the_memo(self):
        # More keys than the bound, run from more threads than CPUs that switch
        # often, so entries are built, replaced and dropped concurrently.
        runs = [(first_order(1.0 + 0.1 * k), SimConfig(dt=1e-2, duration=1.0))
                for k in range(sim._PROPAGATORS_MAX + 8)]
        cold = []
        for run in runs:
            sim._PROPAGATORS.clear()
            cold.append(run_bytes(simulate(*run)))
        errors = []

        def work(offset):
            try:
                for k in range(len(runs)):
                    j = (k + offset) % len(runs)
                    if run_bytes(simulate(*runs[j])) != cold[j]:
                        errors.append(f"run {j} differs from its cold run")
            except Exception as exc:  # reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(9 * i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(sim._PROPAGATORS) <= sim._PROPAGATORS_MAX


def paper_runs() -> dict:
    """The paper's three step responses: the open-loop plant, the LQR loop and the stable-H observer loop."""
    plant = tf_to_ss(rounded_plant_tf())
    runs = {"open-loop": (tf_to_ss(plant_tf(REFERENCE_PARAMS)), None, 5.0)}
    for name, spec in (("lqr", LQR_LOW),
                       ("observer", observer_spec(design_observer_gain(plant.a, plant.c, [-5.0, -6.0])))):
        loop = closed_loop(preset_scenario(name, "paper-rounded", spec, SimConfig(), 220.0))
        runs[name] = (loop.model, loop.x0, 220.0)
    return runs


class TestAccuracy:
    """`simulate` against the exact sampled response and against the RK4 recurrence in long double."""

    @staticmethod
    def exact_outputs(ss: StateSpaceModel, cfg: SimConfig, x0) -> np.ndarray:
        # zero-order hold: expm of [[A, B], [0, 0]] dt holds the exact step map and input gain
        linalg = pytest.importorskip("scipy.linalg")
        n = ss.n_states
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n], aug[:n, n:] = ss.a, ss.b
        step = linalg.expm(aug * cfg.dt)
        ad, bd = step[:n, :n], step[:n, n] * cfg.input_amplitude
        x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
        c_row, d_term = ss.c.ravel(), ss.d[0, 0] * cfg.input_amplitude
        ys = [c_row @ x + d_term]
        for _ in range(cfg.n_steps):
            x = ad @ x + bd
            ys.append(c_row @ x + d_term)
        return np.array(ys)

    @staticmethod
    def models() -> dict:
        runs = paper_runs()
        rng = np.random.default_rng(7)
        for i in range(6):
            n = int(rng.integers(1, 5))
            a, b = random_controllable_siso(rng, n)
            a = a - (np.max(np.linalg.eigvals(a).real) + 0.4) * np.eye(n)
            runs[f"random-{i}"] = (StateSpaceModel(a, b, rng.normal(size=(1, n))), rng.normal(size=n), 1.0)
        return runs

    @pytest.mark.parametrize("dt", [2e-2, 1e-2, 5e-3])
    def test_matches_exact_zero_order_hold(self, dt):
        # RK4's global error on a stable mode is O((dt |lambda|)^4); these
        # models read at most 0.014 (dt rho)^4 of the peak, rho the spectral
        # radius. At dt = 1e-3 rounding, about 1e-13 of the peak, dominates.
        for name, (ss, x0, amp) in self.models().items():
            cfg = SimConfig(dt=dt, duration=10.0, input_amplitude=amp)
            want = self.exact_outputs(ss, cfg, x0)
            got = simulate(ss, cfg, x0).outputs
            rho = np.max(np.abs(np.linalg.eigvals(ss.a)))
            err = np.max(np.abs(got - want))
            assert err <= 0.05 * (dt * rho) ** 4 * np.max(np.abs(want)), name

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="long double is float64 here")
    @pytest.mark.parametrize("name", ["open-loop", "lqr", "observer"])
    def test_long_run_matches_long_double_recurrence(self, name):
        # The same step map, iterated one step at a time in long double:
        # the scan's rounding over 40k steps stays within 1e-12 of the peak
        # (about 5e-14 measured).
        ss, x0, amp = paper_runs()[name]
        cfg = SimConfig(dt=1e-3, duration=40.0, input_amplitude=amp)
        m, g = _rk4_maps(ss.a, ss.b, cfg.dt)
        m, gu = m.astype(np.longdouble), (g * amp).ravel().astype(np.longdouble)
        c_row, d_term = ss.c.ravel().astype(np.longdouble), np.longdouble(ss.d[0, 0]) * amp
        x = np.zeros(ss.n_states, np.longdouble) if x0 is None else np.asarray(x0, np.longdouble)
        want = np.empty(cfg.n_steps + 1, np.longdouble)
        want[0] = c_row @ x + d_term
        for k in range(1, cfg.n_steps + 1):
            x = m @ x + gu
            want[k] = c_row @ x + d_term
        got = simulate(ss, cfg, x0).outputs
        assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))


def test_long_run_allocates_little_beyond_its_trajectory():
    """A 40k-step run and its metrics peak at under twice the trajectory's bytes."""
    ss = scan_model(np.random.default_rng(4), 4, unstable=False)
    cfg = SimConfig(dt=1e-3, duration=40.0)
    step_metrics(simulate(ss, cfg))
    tracemalloc.start()
    try:
        ts = simulate(ss, cfg)
        step_metrics(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A view holds its whole base: the states view the scan's n + 1 columns.
    trajectory = sum((arr.base if arr.base is not None else arr).nbytes
                     for arr in (ts.times, ts.outputs, ts.states))
    assert ts.n_samples == 40_001 and not ts.diverged
    assert ts.states.base.shape == (40_001, 5)
    assert peak <= 2 * trajectory, f"peak {peak} B is {peak / trajectory:.2f}x the trajectory"


class TestTimeSeries:
    """A series holds views of its arrays; times from outside are checked by the CSV reader."""

    @staticmethod
    def read(tmp_path, times):
        path = tmp_path / "times.csv"
        path.write_text("t,u,y\n" + "".join(f"{float(t)!r},0,0\n" for t in times))
        return read_timeseries_csv(path)[0]

    @pytest.mark.parametrize("times", [
        np.arange(1001) * 1e-3,
        np.array([0.0, 1.0, 2.0 + 1e-7]),
        np.array([5.0]),
    ], ids=["uniform", "within-1e-6", "single-sample"])
    def test_accepts(self, tmp_path, times):
        ts = self.read(tmp_path, times)
        npt.assert_array_equal(ts.times, times)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("times", [
        [0.0, 1.0, 3.0],
        [0.0, 1.0, 2.0 + 1e-5],
        [0.0, 0.0, 0.0],
        [2.0, 1.0, 0.0],
        [0.0, np.nan, 2.0],
        [np.nan, 1.0, 2.0],
        [0.0, 1.0, np.inf],
        [0.0, np.inf],
    ], ids=["non-uniform", "beyond-1e-6", "repeated", "decreasing", "nan-gap", "nan-first-gap",
            "inf-gap", "inf-first-gap"])
    def test_rejects(self, tmp_path, times):
        with pytest.raises(ValidationError, match=r"times\.csv: sample instants must increase with uniform spacing"):
            self.read(tmp_path, times)

    def test_holds_read_only_views(self):
        t, u, y = np.arange(5) * 0.1, np.ones(5), np.arange(5.0)
        x = np.zeros((5, 2))
        ts = TimeSeries(times=t, inputs=u, outputs=y, states=x)
        for caller, held in ((t, ts.times), (u, ts.inputs), (y, ts.outputs), (x, ts.states)):
            assert np.shares_memory(caller, held)
            assert not held.flags.writeable
            assert caller.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ts.outputs[0] = 1.0
        y[0] = 7.0
        assert ts.outputs[0] == 7.0

    def test_keeps_the_length_check(self):
        with pytest.raises(ValidationError, match="equal length"):
            TimeSeries(times=np.arange(3.0), inputs=np.zeros(3), outputs=np.zeros(2), states=np.zeros((3, 0)))

    @pytest.mark.parametrize("field,value", [
        ("states", np.zeros(5)),
        ("states", np.zeros((5, 1, 1))),
        ("times", np.arange(5.0).reshape(5, 1)),
        ("times", np.float64(0.0)),
        ("inputs", np.zeros((5, 1))),
        ("outputs", np.zeros((5, 2))),
    ], ids=["1-D-states", "3-D-states", "column-times", "scalar-times", "column-inputs", "2-D-outputs"])
    def test_checks_the_ranks(self, field, value):
        columns = dict(times=np.arange(5.0), inputs=np.zeros(5), outputs=np.zeros(5), states=np.zeros((5, 2)))
        columns[field] = value
        with pytest.raises(ValidationError, match="1-D times, inputs and outputs and a 2-D states array"):
            TimeSeries(**columns)


class TestStepMetrics:
    def test_needs_enough_samples(self):
        short = TimeSeries(
            times=np.arange(10) * 0.1,
            inputs=np.ones(10),
            outputs=np.ones(10),
            states=np.zeros((10, 0)),
        )
        with pytest.raises(ValidationError):
            step_metrics(short)

    def test_all_zero_series_degenerate(self):
        ts = simulate(first_order(), SimConfig(dt=1e-2, duration=2.0, input_amplitude=0.0))
        m = step_metrics(ts)
        assert m.degenerate
        assert m.steady_state == 0.0 and m.overshoot_pct == 0.0
        assert m.settling_time == 0.0 and m.rise_time == 0.0

    def test_constant_series(self):
        t = np.arange(200) * 0.01
        ts = TimeSeries(times=t, inputs=np.ones(200), outputs=np.full(200, 3.3),
                        states=np.zeros((200, 0)))
        m = step_metrics(ts)
        assert m.overshoot_pct == 0.0
        assert m.settling_time == 0.0
        assert m.rise_time == 0.0

    def test_first_order_settling_near_log50(self):
        # 2 % band of 1 - exp(-t): entry at t = ln 50 ~ 3.912
        ts = simulate(tf_to_ss(TransferFunction([1.0], [1.0, 1.0])),
                      SimConfig(dt=1e-3, duration=10.0))
        m = step_metrics(ts)
        assert m.settling_time == pytest.approx(np.log(50.0), abs=0.05)

    def test_overdamped_response_has_no_overshoot(self):
        ts = simulate(
            tf_to_ss(plant_tf(REFERENCE_PARAMS)),
            SimConfig(dt=1e-3, duration=40.0, input_amplitude=5.0),
        )
        m = step_metrics(ts)
        # real poles -0.5, -2: monotone response; tail-mean steady state
        # leaves only a vanishing residue
        assert m.overshoot_pct <= 0.01

    def test_second_order_overshoot_analytic(self):
        # zeta = 0.5: overshoot exp(-pi zeta / sqrt(1 - zeta^2)) ~ 16.3 %
        ts = simulate(tf_to_ss(TransferFunction([1.0], [1.0, 1.0, 1.0])),
                      SimConfig(dt=1e-3, duration=30.0))
        m = step_metrics(ts)
        expected = 100.0 * np.exp(-np.pi * 0.5 / np.sqrt(0.75))
        assert m.overshoot_pct == pytest.approx(expected, abs=0.05)

    def test_negative_step_overshoot(self):
        # zeta = 0.4: both step directions overshoot by exp(-pi zeta / sqrt(1 - zeta^2))
        model = tf_to_ss(TransferFunction([1.0], [1.0, 0.8, 1.0]))
        up = step_metrics(simulate(model, SimConfig(dt=1e-3, duration=30.0)))
        down = step_metrics(simulate(model, SimConfig(dt=1e-3, duration=30.0, input_amplitude=-1.0)))
        expected = 100.0 * np.exp(-np.pi * 0.4 / np.sqrt(0.84))
        assert up.overshoot_pct == pytest.approx(expected, abs=0.05)
        assert down.overshoot_pct == up.overshoot_pct
        assert down.steady_state == -up.steady_state

    def test_subnormal_steady_state_counts_as_zero(self):
        # tail mean 1e-319 against a peak of 1e3: y / steady state would overflow
        y = np.zeros(100)
        y[10] = 1e3
        y[-1] = 5e-319
        ts = TimeSeries(times=np.arange(100) * 1e-2, inputs=np.ones(100), outputs=y,
                        states=np.zeros((100, 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = step_metrics(ts)
        assert m == StepMetrics(0.0, 0.0, None, None, settled=False)

    @settings(max_examples=200, deadline=None)
    @example(np.concatenate([[1e3], np.zeros(98), [5e-319]]))
    @given(arrays(np.float64, st.integers(100, 300),
                  elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)))
    def test_negation_symmetry(self, y):
        t = np.arange(len(y)) * 1e-2
        empty = np.zeros((len(y), 0))
        m = step_metrics(TimeSeries(times=t, inputs=np.ones(len(y)), outputs=y, states=empty))
        neg = step_metrics(TimeSeries(times=t, inputs=-np.ones(len(y)), outputs=-y, states=empty))
        assert neg.steady_state == -m.steady_state
        assert neg.overshoot_pct == m.overshoot_pct
        assert neg.settling_time == m.settling_time
        assert neg.rise_time == m.rise_time
        assert (neg.settled, neg.degenerate) == (m.settled, m.degenerate)

    def test_unsettled_flagged(self):
        # slow system cut off mid-rise
        ts = simulate(tf_to_ss(TransferFunction([1.0], [50.0, 1.0])),
                      SimConfig(dt=1e-2, duration=10.0))
        m = step_metrics(ts)
        assert not m.settled
        assert m.settling_time is None


def numpy_figures(t, y, diverged=False) -> StepMetrics:
    """`step_metrics` of the series (t, y)."""
    n = len(y)
    ts = TimeSeries(times=np.asarray(t, dtype=float), inputs=np.ones(n),
                    outputs=np.asarray(y, dtype=float), states=np.zeros((n, 0)), diverged=diverged)
    return step_metrics(ts)


def column_figures(t, y) -> StepMetrics:
    return column_step_metrics(list(t), list(y))


FIGURE_PATHS = {"numpy": numpy_figures, "columns": column_figures}


# a numpy warning on a non-finite sample fails the test
@pytest.mark.filterwarnings("error")
class TestNonFiniteSamples:
    """A NaN or inf output sample lies outside every band, on both paths."""

    @pytest.fixture(params=sorted(FIGURE_PATHS))
    def figures(self, request):
        return FIGURE_PATHS[request.param]

    @staticmethod
    def step(n=200):
        # 1 - 0.9^k at dt = 0.01 enters the 2 % band at k = 38
        return [k * 0.01 for k in range(n)], [1.0 - 0.9 ** k for k in range(n)]

    def test_finite_reference(self, figures):
        m = figures(*self.step())
        assert (m.settling_time, m.settled) == (0.38, True)
        assert 0.0 < m.overshoot_pct < 1e-5

    def test_nan_last_output_leaves_the_series_unsettled(self, figures):
        t, y = self.step()
        y[-1] = math.nan
        m = figures(t, y)
        assert math.isnan(m.steady_state) and math.isnan(m.overshoot_pct)
        assert (m.settling_time, m.settled) == (None, False)

    def test_nan_last_output_of_a_diverged_run_leaves_it_unsettled(self):
        # a CSV carries no divergence flag: only the numpy path takes one
        t, y = self.step()
        y[-1] = math.nan
        m = numpy_figures(t, y, diverged=True)
        assert math.isnan(m.steady_state) and math.isnan(m.overshoot_pct)
        assert (m.settling_time, m.settled) == (None, False)

    def test_nan_mid_series_ends_the_settling_after_it(self, figures):
        t, y = self.step()
        y[50] = math.nan
        m = figures(t, y)
        assert m.steady_state == figures(*self.step()).steady_state
        assert math.isnan(m.overshoot_pct)
        assert (m.settling_time, m.settled) == (t[51], True)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_inf_mid_series_keeps_the_finite_steady_state(self, figures, value):
        t, y = self.step()
        y[50] = value
        m = figures(t, y)
        finite = figures(*self.step())
        assert m.steady_state == finite.steady_state
        assert m.overshoot_pct == (math.inf if value > 0 else finite.overshoot_pct)
        assert (m.settling_time, m.settled) == (t[51], True)

    @pytest.mark.parametrize("values", [[math.inf], [-math.inf], [math.inf, -math.inf]])
    def test_inf_in_the_tail_raises_no_warning(self, figures, values):
        t, y = self.step()
        y[-len(values) - 3:-3] = values
        m = figures(t, y)
        # the tail mean is inf, -inf or, with both, NaN
        assert repr(m.steady_state) == repr(sum(values))
        assert math.isnan(m.overshoot_pct) and m.rise_time is None

    def test_zero_steady_state_against_an_inf_peak_counts_as_zero(self, figures):
        t, y = self.step()
        y = [0.0] * len(y)
        y[50] = math.inf
        assert figures(t, y) == StepMetrics(0.0, 0.0, None, None, settled=False)


SPECIAL_SAMPLES = [math.nan, math.inf, -math.inf, -0.0]


def dyadic_series(seed: int) -> list[float]:
    """A step response on the grid k/1024, |k| < 2^20, with a few samples replaced.

    Every tail sum of such a series is exact in any order, so this checks
    the rules apart from the order of summation. Half the replacements fall
    in the tail.
    """
    rng = random.Random(seed)
    n = rng.randint(100, 300)
    final = rng.randint(-(2 ** 19), 2 ** 19)
    rate = rng.choice([0.0, 0.5, 0.9, 0.97, 0.995])
    y = [round(final * (1.0 - rate ** k)) / 1024 for k in range(n)]
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(n) if rng.random() < 0.5 else rng.randrange(n - 15, n)
        y[i] = (rng.choice(SPECIAL_SAMPLES) if rng.random() < 0.6
                else rng.randint(-(2 ** 20) + 1, 2 ** 20 - 1) / 1024)
    return y


def noisy_step(n: int, seed: int) -> tuple[list[float], list[float]]:
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-300, 300)
    y = scale * (1.0 - 0.97 ** np.arange(n) + rng.normal(scale=0.3, size=n))
    return [k * 0.01 for k in range(n)], y.tolist()


@pytest.mark.filterwarnings("error")
class TestColumnStepMetrics:
    """`output.column_step_metrics` against `sim.step_metrics`, its numpy twin."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_same_figures_where_sums_are_exact(self, seed):
        y = dyadic_series(seed)
        t = [k * 0.01 for k in range(len(y))]
        m = column_figures(t, y)
        # repr tells NaN from NaN and -0.0 from 0.0
        assert repr(m) == repr(numpy_figures(t, y))
        # a diverged run, numpy path only: a settling that ends mid-series does not count
        cut = m if m.settling_time in (None, 0.0) else m._replace(settling_time=None, settled=False)
        assert repr(numpy_figures(t, y, diverged=True)) == repr(cut)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(100, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_same_figures_on_general_series(self, n, seed):
        # a noisy first-order step on any scale, whose tail sums round: the
        # column path sums in numpy's order, so the bits still agree
        t, y = noisy_step(n, seed)
        assert repr(column_figures(t, y)) == repr(numpy_figures(t, y))

    @pytest.mark.parametrize("n", [2580, 2600, 20001, 30001])
    def test_same_figures_on_long_tails(self, n):
        # tails of 129 samples or more are summed in halves
        t, y = noisy_step(n, n)
        assert repr(column_figures(t, y)) == repr(numpy_figures(t, y))

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError, match="at least 100 samples"):
            column_step_metrics([0.0] * 99, [1.0] * 99)


class TestElectricalTrace:
    def test_steady_state_segment(self):
        n = 200
        t = np.arange(n) * 1e-3
        v = np.full(n, 1280.0 / 14.0)
        ts = TimeSeries(times=t, inputs=np.full(n, 5.0), outputs=v, states=np.zeros((n, 0)))
        tr = electrical_trace(REFERENCE_PARAMS, ts)
        npt.assert_allclose(tr.i_a, 160.0 / 14.0)
        npt.assert_allclose(tr.e_g, 160.0)
        npt.assert_allclose(tr.p_out, (1280.0 / 14.0) * (160.0 / 14.0))
        npt.assert_allclose(tr.p_in, 160.0 * 160.0 / 14.0)

    def test_zero_voltage_all_zero(self):
        n = 150
        ts = TimeSeries(times=np.arange(n) * 1e-3, inputs=np.zeros(n),
                        outputs=np.zeros(n), states=np.zeros((n, 0)))
        tr = electrical_trace(REFERENCE_PARAMS, ts)
        for arr in (tr.i_a, tr.e_g, tr.p_out, tr.p_in):
            npt.assert_array_equal(arr, np.zeros(n))

    def test_full_run_converges_to_circuit_values(self):
        ts = simulate(
            tf_to_ss(plant_tf(REFERENCE_PARAMS)),
            SimConfig(dt=1e-3, duration=30.0, input_amplitude=5.0),
        )
        tr = electrical_trace(REFERENCE_PARAMS, ts)
        assert tr.i_a[-1] == pytest.approx(160.0 / 14.0, rel=1e-3)
        assert tr.e_g[-1] == pytest.approx(160.0, rel=1e-3)
        assert tr.p_in[-1] == pytest.approx(1828.6, rel=1e-3)
        # resistive losses keep input power above output power
        assert np.all(tr.p_in[1:] >= tr.p_out[1:] - 1e-9)

    def test_rounded_model_output_power(self):
        # 90 V across the 8 ohm load: 90^2/8 = 1012.5 W, not the published
        # 1000 W plot reading
        ts = simulate(
            tf_to_ss(rounded_plant_tf()),
            SimConfig(dt=1e-3, duration=30.0, input_amplitude=5.0),
        )
        tr = electrical_trace(REFERENCE_PARAMS, ts)
        assert tr.p_out[-1] == pytest.approx(1012.5, rel=1e-3)


class TestClosedLoop:
    def test_integrator_unit_feedback(self):
        plant = TransferFunction([1.0], [1.0, 0.0])
        spec = ControllerSpec(kind="ss", model=StateSpaceModel.static_gain(1.0))
        scn = Scenario("integrator", tf_to_ss(plant), plant, None, None, spec,
                       SimConfig(dt=1e-3, duration=10.0), 1.0, DEFAULT_OUTPUTS)
        run = run_scenario(scn)
        assert run.loop.hurwitz
        assert run.metrics.steady_state == pytest.approx(1.0, abs=1e-3)
        assert run.metrics.settling_time == pytest.approx(np.log(50.0), abs=0.05)

    def test_prescaler_value(self):
        plant = tf_to_ss(rounded_plant_tf())
        n_gain = reference_prescaler(plant, K_LOW)
        # canonical form: char(A-BK) constant term is 1 + k2, numerator 18,
        # so the state-feedback loop dc gain is 18/(1 + k2)
        assert n_gain == pytest.approx((1.0 + K_LOW[0, 1]) / 18.0, rel=1e-12)

    def test_prescaler_rejects_a_pole_at_the_origin(self):
        # 1/(s (s + 1)) with K = 0 leaves the integrator pole in A - BK
        plant = tf_to_ss(TransferFunction([1.0], [1.0, 1.0, 0.0]))
        with pytest.raises(NumericalError, match="pole at the origin"):
            reference_prescaler(plant, np.zeros((1, 2)))

    def test_prescaler_rejects_a_gain_of_the_wrong_length(self):
        plant = tf_to_ss(rounded_plant_tf())
        with pytest.raises(ValidationError, match="must have 2 entries, got 3"):
            reference_prescaler(plant, np.ones((1, 3)))

    def test_prescaler_rejects_rounded_zero_dc_gain(self):
        # the plant zero at the origin makes C (-(A-BK))^-1 B vanish; in
        # floating point it rounds to about -7e-18, not 0
        plant = tf_to_ss(TransferFunction([1.0, 0.0], [1.0, 3.0, 2.0]))
        k = np.array([[0.2360679774997898, 0.2360679774997898]])
        with pytest.raises(NumericalError, match="no prescaler exists"):
            reference_prescaler(plant, k)

    def test_state_feedback_tracks_reference(self):
        run = run_scenario(preset_scenario("lqr", "paper-rounded", LQR_LOW,
                                           SimConfig(dt=1e-3, duration=30.0), 220.0))
        assert run.loop.hurwitz
        assert run.metrics.steady_state == pytest.approx(220.0, rel=1e-3)

    def test_state_feedback_loop_dc_is_one_after_prescale(self):
        plant = tf_to_ss(rounded_plant_tf())
        loop = state_feedback_loop(plant, K_LOW, reference_prescaler(plant, K_LOW))
        assert dc_gain(ss_to_tf(loop)) == pytest.approx(1.0, rel=1e-12)

    def test_observer_loop_published_gain_diverges(self):
        run = run_scenario(preset_scenario("published", "paper-rounded", observer_spec(H_PUB),
                                           SimConfig(dt=1e-3, duration=15.0), 220.0))
        assert not run.loop.hurwitz
        assert run.series.diverged
        assert run.metrics is None

    def test_observer_loop_stable_replacement_settles(self):
        plant = tf_to_ss(rounded_plant_tf())
        h = design_observer_gain(plant.a, plant.c, [-5.0, -6.0])
        run = run_scenario(preset_scenario("stable", "paper-rounded", observer_spec(h),
                                           SimConfig(dt=1e-3, duration=15.0), 220.0))
        assert run.loop.hurwitz
        assert not run.series.diverged
        assert run.metrics.settled
        assert run.metrics.steady_state == pytest.approx(220.0, rel=1e-3)

    def test_divergence_of_unity_feedback_compensator_loop(self):
        # the printed compensator wired into a plain unity feedback loop is
        # unstable as well; the run must flag, not crash
        spec = replace(observer_spec(H_PUB), convention="paper-numeric")
        run = run_scenario(preset_scenario("paper-numeric", "paper-rounded", spec,
                                           SimConfig(dt=1e-3, duration=15.0), 220.0))
        assert not run.loop.hurwitz
        assert run.series.diverged
