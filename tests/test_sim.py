import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regforge.errors import NumericalError, ValidationError
from regforge.lti import StateSpaceModel, TransferFunction, dc_gain, ss_to_tf, tf_to_ss
from regforge.observer import design_observer_gain
from regforge.plant import REFERENCE_PARAMS, plant_tf, rounded_plant_tf
from regforge.scenario import DEFAULT_OUTPUTS, ControllerSpec, Scenario, preset_scenario, run_scenario
from regforge.sim import (
    SimConfig,
    TimeSeries,
    electrical_trace,
    reference_prescaler,
    simulate,
    state_feedback_loop,
    step_metrics,
)

from oracles import random_controllable_siso

K_HIGH = np.array([[1.7720018726587652, 2.0]])
K_LOW = np.array([[0.21658284935643368, 0.2649110640673518]])
H_PUB = np.array([[2.0], [-0.5]])
# The paper's LQR weights (giving K_LOW) and observer weights (giving K_HIGH).
LQR_LOW = ControllerSpec(kind="lqr", q_diag=np.array([3.0, 3.0]), r=5.0)


def observer_spec(h) -> ControllerSpec:
    return ControllerSpec(kind="observer", q_diag=np.array([8.0, 8.0]), r=1.0, h=np.asarray(h))


def first_order(tau=2.0):
    return tf_to_ss(TransferFunction([1.0], [tau, 1.0]))


class TestSimConfig:
    def test_guards(self):
        with pytest.raises(ValidationError):
            SimConfig(dt=0.0)
        with pytest.raises(ValidationError):
            SimConfig(dt=0.1, duration=0.05)
        with pytest.raises(ValidationError):
            SimConfig(dt=1e-9, duration=100.0)
        with pytest.raises(ValidationError):
            SimConfig(input_kind="ramp")


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
        ts = simulate(first_order(), SimConfig(dt=1e-3, duration=1.0, input_kind="zero"))
        npt.assert_array_equal(ts.outputs, np.zeros_like(ts.outputs))
        assert not ts.diverged

    def test_initial_state(self):
        # free decay from x0=1 with unit output map: y = exp(-t/2)
        ss = StateSpaceModel([[-0.5]], [[1.0]], [[1.0]])
        ts = simulate(ss, SimConfig(dt=1e-3, duration=2.0, input_kind="zero"), x0=[1.0])
        npt.assert_allclose(ts.outputs, np.exp(-ts.times / 2.0), atol=1e-9)

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
        unstable = StateSpaceModel([[2.0]], [[1.0]], [[1.0]])
        ts = simulate(unstable, SimConfig(dt=1e-3, duration=30.0, divergence_limit=1e6))
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
        ts = simulate(first_order(), SimConfig(dt=1e-2, duration=2.0, input_kind="zero"))
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

    @settings(max_examples=200, deadline=None)
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
        scn = preset_scenario("paper-numeric", "paper-rounded", observer_spec(H_PUB),
                              SimConfig(dt=1e-3, duration=15.0), 220.0)
        run = run_scenario(scn, "paper-numeric")
        assert not run.loop.hurwitz
        assert run.series.diverged
