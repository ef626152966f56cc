from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from regforge.errors import NumericalError, ValidationError
from regforge.lti import char_poly
from regforge.scenario import (
    ESTIMATE_OFFSET,
    ControllerSpec,
    closed_loop,
    load_plant_params,
    load_scenario,
    parse_kv_file,
    preset_scenario,
    run_scenario,
)
from regforge.sim import SimConfig

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# The keys each controller kind requires, with a reference for the closed loops.
CONTROLLER_KEYS = {
    "none": "",
    "lqr": "controller.q_diag = 1 1\ncontroller.r = 1\nreference = 1\n",
    "observer": "controller.q_diag = 1 1\ncontroller.r = 1\ncontroller.h = 2 -0.5\nreference = 1\n",
    "ss": "controller.a = -1\ncontroller.b = 1\ncontroller.c = 1\nreference = 1\n",
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestKvParsing:
    def test_comments_and_blanks(self, tmp_path):
        path = write(tmp_path, "a.cfg", "# header\n\nkey = 1  # trailing\nother = two\n")
        assert parse_kv_file(path) == {"key": "1", "other": "two"}

    def test_missing_equals_rejected(self, tmp_path):
        path = write(tmp_path, "a.cfg", "key value\n")
        with pytest.raises(ValidationError, match="a.cfg:1"):
            parse_kv_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "a.cfg", "k = 1\nk = 2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_kv_file(path)


REFERENCE_TEXT = """
turbine.tau_t = 2
generator.k1 = 4
generator.n = 4
generator.l_f = 3
generator.r_f = 2
generator.l_a = 4
generator.r_a = 4
generator.r_l = 8
"""


class TestPlantParams:
    def test_reference_file(self, tmp_path):
        params = load_plant_params(write(tmp_path, "p.cfg", REFERENCE_TEXT))
        assert params.turbine.tau_t == 2.0
        assert params.generator.r_l == 8.0

    def test_missing_field_named(self, tmp_path):
        text = "\n".join(l for l in REFERENCE_TEXT.splitlines() if "tau_t" not in l)
        with pytest.raises(ValidationError, match="turbine.tau_t"):
            load_plant_params(write(tmp_path, "p.cfg", text))

    def test_nonpositive_value_named(self, tmp_path):
        text = REFERENCE_TEXT.replace("generator.r_l = 8", "generator.r_l = 0")
        with pytest.raises(ValidationError, match="generator.r_l"):
            load_plant_params(write(tmp_path, "p.cfg", text))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="generator.frobnicator"):
            load_plant_params(
                write(tmp_path, "p.cfg", REFERENCE_TEXT + "generator.frobnicator = 1\n")
            )


class TestScenario:
    def test_preset_open_loop(self, tmp_path):
        scn = load_scenario(write(tmp_path, "s.cfg", (
            "name = demo\nplant.preset = exact\ncontroller.type = none\n"
            "sim.amplitude = 5\n"
        )))
        assert scn.name == "demo"
        assert scn.preset == "exact"
        assert scn.controller.kind == "none"
        assert scn.sim.duration == 20.0  # open-loop default
        assert scn.sim.input_amplitude == 5.0

    def test_lqr_scenario(self, tmp_path):
        scn = load_scenario(write(tmp_path, "s.cfg", (
            "plant.preset = paper-rounded\ncontroller.type = lqr\n"
            "controller.q_diag = 3 3\ncontroller.r = 5\nreference = 220\n"
        )))
        assert scn.name == "s"  # falls back to the file stem
        npt.assert_array_equal(scn.controller.q_diag, [3.0, 3.0])
        assert scn.controller.r == 5.0
        assert scn.reference == 220.0
        assert scn.sim.duration == 15.0  # closed-loop default

    def test_observer_scenario(self, tmp_path):
        scn = load_scenario(write(tmp_path, "s.cfg", (
            "plant.preset = paper-rounded\ncontroller.type = observer\n"
            "controller.q_diag = 8 8\ncontroller.r = 1\ncontroller.h = 2, -0.5\n"
            "controller.convention = paper-numeric\nreference = 220\n"
        )))
        npt.assert_array_equal(scn.controller.h, [2.0, -0.5])
        assert scn.controller.convention == "paper-numeric"

    def test_inline_physical_parameters(self, tmp_path):
        lines = "\n".join(
            "plant." + l for l in REFERENCE_TEXT.strip().splitlines()
        )
        scn = load_scenario(write(tmp_path, "s.cfg", lines + "\ncontroller.type = none\n"))
        npt.assert_allclose(scn.plant_tf.den.coeffs, [14.0, 35.0, 14.0])

    def test_explicit_tf(self, tmp_path):
        scn = load_scenario(write(tmp_path, "s.cfg", (
            "plant.tf.num = 18\nplant.tf.den = 1 2.5 1\ncontroller.type = none\n"
        )))
        npt.assert_allclose(scn.plant_model.a, [[-2.5, -1.0], [1.0, 0.0]])
        assert scn.plant_params is None

    def test_explicit_ss_controller(self, tmp_path):
        scn = load_scenario(write(tmp_path, "s.cfg", (
            "plant.preset = paper-rounded\ncontroller.type = ss\n"
            "controller.a = -4.272 -39; 1 9\ncontroller.b = 2; -0.5\n"
            "controller.c = 1.772 2\nreference = 220\n"
        )))
        npt.assert_allclose(scn.controller.model.a, [[-4.272, -39.0], [1.0, 9.0]])
        npt.assert_allclose(scn.controller.model.b, [[2.0], [-0.5]])

    def test_reference_without_controller_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="reference requires"):
            load_scenario(write(tmp_path, "s.cfg", (
                "plant.preset = exact\ncontroller.type = none\nreference = 220\n"
            )))

    def test_conflicting_plant_sources_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="more than once"):
            load_scenario(write(tmp_path, "s.cfg", (
                "plant.preset = exact\nplant.tf.num = 1\nplant.tf.den = 1 1\n"
                "controller.type = none\n"
            )))

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown scenario keys"):
            load_scenario(write(tmp_path, "s.cfg", (
                "plant.preset = exact\ncontroller.type = none\nsim.dy = 1\n"
            )))

    def test_zero_duration_guard(self, tmp_path):
        with pytest.raises(ValidationError, match="duration"):
            load_scenario(write(tmp_path, "s.cfg", (
                "plant.preset = exact\ncontroller.type = none\n"
                "sim.dt = 0.1\nsim.duration = 0.05\n"
            )))

    def test_constant_input_kind_rejected(self, tmp_path):
        # sim.input_kind is gone; sim.amplitude = 0 is the zero input
        with pytest.raises(ValidationError, match="^unknown scenario keys: sim.input_kind$"):
            load_scenario(write(tmp_path, "s.cfg", (
                "plant.preset = exact\ncontroller.type = none\nsim.input_kind = constant\n"
            )))

    @pytest.mark.parametrize("text,message", [
        ("plant.tf.den = 1 1\n", "missing required parameter plant.tf.num"),
        ("plant.tf.num = 1\n", "missing required parameter plant.tf.den"),
        ("plant.ss.b = 1\nplant.ss.c = 1\n", "missing required parameter plant.ss.a"),
        ("plant.ss.a = -1\nplant.ss.b = 1\n", "missing required parameter plant.ss.c"),
        ("plant.ss.a = -1 0; 1\nplant.ss.b = 1\nplant.ss.c = 1\n", "plant.ss.a: rows have unequal lengths"),
        ("plant.ss.a = -1\nplant.ss.b = 1\nplant.ss.c = 1\nplant.ss.d = x\n",
         "plant.ss.d: expected numbers, got 'x'"),
        ("plant.turbine.tau_t = 2\n", "missing required parameter plant.generator.k1"),
        ("plant.preset = exact\ncontroller.type = lqr\ncontroller.r = 1\n",
         "missing required parameter controller.q_diag"),
        ("plant.preset = exact\ncontroller.type = observer\ncontroller.q_diag = 1 1\ncontroller.r = 1\n",
         "missing required parameter controller.h"),
        ("plant.preset = exact\ncontroller.type = ss\ncontroller.a = -1\ncontroller.c = 1\n",
         "missing required parameter controller.b"),
        ("plant.preset = exact\ncontroller.type = ss\ncontroller.a = -1\ncontroller.b = 1\n"
         "controller.c = 1\ncontroller.d = 1; 2 3\n", "controller.d: rows have unequal lengths"),
    ])
    def test_block_error_messages(self, tmp_path, text, message):
        with pytest.raises(ValidationError) as exc:
            load_scenario(write(tmp_path, "s.cfg", text))
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind,line", [
        ("lqr", "controller.h = 2 -0.5"),
        ("lqr", "controller.convention = paper-numeric"),
        ("lqr", "controller.a = -1"),
        ("observer", "controller.d = 0"),
        ("ss", "controller.q_diag = 1 1"),
        ("none", "controller.r = 1"),
    ])
    def test_key_of_another_controller_kind_is_unknown(self, tmp_path, kind, line):
        # only another kind's branch reads the key, so nothing takes it out
        with pytest.raises(ValidationError, match=f"^unknown scenario keys: {line.split()[0]}$"):
            load_scenario(write(tmp_path, "s.cfg", (
                f"plant.preset = exact\ncontroller.type = {kind}\n{CONTROLLER_KEYS[kind]}{line}\n"
            )))

    def test_every_key_left_is_named(self, tmp_path):
        with pytest.raises(ValidationError, match="^unknown scenario keys: plant.tf.gain, sim.dy, zeta$"):
            load_scenario(write(tmp_path, "s.cfg", (
                "zeta = 1\nplant.tf.num = 1\nplant.tf.den = 1 1\nplant.tf.gain = 2\n"
                "controller.type = none\nsim.dt = 0.01\nsim.dy = 1\n"
            )))

    def test_missing_controller_field_named(self, tmp_path):
        with pytest.raises(ValidationError, match="controller.r"):
            load_scenario(write(tmp_path, "s.cfg", (
                "plant.preset = exact\ncontroller.type = lqr\ncontroller.q_diag = 1 1\n"
            )))

    def test_bad_outputs_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="outputs"):
            load_scenario(write(tmp_path, "s.cfg", (
                "plant.preset = exact\ncontroller.type = none\noutputs = csv pdf\n"
            )))

    def test_repo_scenarios_parse(self):
        for name in ("open-loop.cfg", "paper-lqr.cfg", "paper-observer.cfg"):
            scn = load_scenario(SCENARIOS / name)
            assert scn.name


class TestRunScenario:
    def test_open_loop_has_electrical_trace(self):
        run = run_scenario(load_scenario(SCENARIOS / "open-loop.cfg"))
        assert run.loop is None
        assert run.electrical is not None
        assert run.metrics.steady_state == pytest.approx(5 * 256 / 14, rel=1e-3)

    def test_lqr_gain_comes_from_care(self):
        run = run_scenario(load_scenario(SCENARIOS / "paper-lqr.cfg"))
        b = run.scenario.plant_model.b
        care = run.loop.care
        npt.assert_array_equal(care.k, np.linalg.solve([[5.0]], b.T @ care.p))
        assert run.loop.prescaler is not None
        assert run.metrics.steady_state == pytest.approx(220.0, rel=1e-3)

    def test_convention_override(self):
        scn = load_scenario(SCENARIOS / "paper-observer.cfg")
        run = run_scenario(replace(scn, controller=replace(scn.controller, convention="paper-numeric")))
        assert run.loop.observer.convention == "paper-numeric"
        assert not run.loop.observer.audit.error_hurwitz
        assert run.loop.prescaler is None
        assert run_scenario(scn).loop.observer.convention == "standard-luenberger"

    def test_closed_loop_needs_reference(self):
        spec = ControllerSpec(kind="lqr", q_diag=np.array([3.0, 3.0]), r=5.0)
        with pytest.raises(ValidationError, match="reference"):
            run_scenario(preset_scenario("no-ref", "exact", spec, SimConfig(duration=1.0)))

    # x' = -3000 x + 3000 u: dt lambda = -3 lies outside RK4's real stability
    # interval [-2.785, 0], so dt = 1e-3 would grow the mode of a stable plant.
    STIFF_PLANT = "plant.tf.num = 3000\nplant.tf.den = 1 3000\nsim.dt = 0.001\n"

    def test_step_too_large_names_the_largest_stable_dt(self, tmp_path):
        scn = load_scenario(write(tmp_path, "stiff.cfg", self.STIFF_PLANT))
        with pytest.raises(ValidationError, match="step-too-large") as info:
            run_scenario(scn)
        dt_max = float(str(info.value).rsplit(" is ", 1)[1].split()[0])
        assert dt_max == pytest.approx(2.785293563405282 / 3000, rel=1e-3)
        run = run_scenario(replace(scn, sim=SimConfig(dt=0.99 * dt_max, duration=1.0)))
        assert not run.series.diverged

    def test_step_too_large_on_a_closed_loop(self, tmp_path):
        text = self.STIFF_PLANT + "controller.type = lqr\ncontroller.q_diag = 1\ncontroller.r = 1\nreference = 1\n"
        with pytest.raises(ValidationError, match="step-too-large"):
            run_scenario(load_scenario(write(tmp_path, "stiff-lqr.cfg", text)))


class TestClosedLoopBuilder:
    def test_standard_luenberger_is_the_separation_loop(self):
        scn = load_scenario(SCENARIOS / "paper-observer.cfg")
        loop = closed_loop(scn)
        a, b, c = scn.plant_model.a, scn.plant_model.b, scn.plant_model.c
        k, h = loop.care.k, scn.controller.h.reshape(-1, 1)
        product = char_poly(a - b @ k) * char_poly(a - h @ c)
        npt.assert_allclose(char_poly(loop.model.a).coeffs, product.coeffs, atol=1e-9)
        assert not loop.hurwitz
        npt.assert_array_equal(loop.x0, [0.0, 0.0, -ESTIMATE_OFFSET * 220, -ESTIMATE_OFFSET * 220])

    def test_lqr_loop_is_prescaled_state_feedback(self):
        scn = load_scenario(SCENARIOS / "paper-lqr.cfg")
        loop = closed_loop(scn)
        assert loop.observer is None and loop.prescaler_error is None
        npt.assert_array_equal(loop.model.b, loop.prescaler * scn.plant_model.b)
        npt.assert_array_equal(loop.x0, [0.0, 0.0])

    def test_missing_prescaler_is_recorded_then_raised_by_run(self, tmp_path):
        scn = load_scenario(write(tmp_path, "s.cfg", (
            "plant.tf.num = 1 0\nplant.tf.den = 1 3 2\ncontroller.type = lqr\n"
            "controller.q_diag = 1 1\ncontroller.r = 1\nreference = 1\n"
        )))
        loop = closed_loop(scn)
        assert loop.hurwitz
        assert loop.prescaler is None
        assert "no prescaler exists" in loop.prescaler_error
        with pytest.raises(NumericalError, match="no prescaler exists"):
            run_scenario(scn)

    def test_open_loop_has_no_closed_loop(self):
        with pytest.raises(ValidationError, match="no controller"):
            closed_loop(load_scenario(SCENARIOS / "open-loop.cfg"))
