import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from regforge.cli import main
from regforge.lti import char_poly, tf_to_ss
from regforge.plant import rounded_plant_tf
from regforge.riccati import CostWeights, solve_care
from test_output import MALFORMED_CSVS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SRC = Path(__file__).resolve().parent.parent / "src"

# s/(s^2 + 3 s + 2): the plant zero at the origin leaves the state-feedback
# loop with zero dc gain, which rounds to about -7e-18 rather than 0.
ZERO_DC_SCENARIO = (
    "plant.tf.num = 1 0\nplant.tf.den = 1 3 2\n"
    "controller.type = lqr\ncontroller.q_diag = 1 1\ncontroller.r = 1\nreference = 1\n"
)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestPlantCommand:
    def test_default_parameters(self, capsys):
        code, out = run(capsys, "plant")
        assert code == 0
        assert "256" in out and "18.2857" in out
        assert "A = [-2.5, -1; 1, 0]" in out
        assert "stability[plant]: stable" in out

    def test_params_file(self, capsys):
        code, out = run(capsys, "plant", "--params", str(SCENARIOS / "reference-params.cfg"))
        assert code == 0
        assert "efficiency         : 57.1429 %" in out

    def test_efficiency_discrepancy_warning(self, capsys):
        _, out = run(capsys, "plant")
        warning = [l for l in out.splitlines() if l.startswith("WARNING")]
        assert warning, "expected a published-values discrepancy warning"
        text = warning[0]
        assert "57.1429" in text and "76.92" in text
        assert "1828.57" in text and "1300" in text

    def test_missing_parameter_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "p.cfg"
        bad.write_text("generator.k1 = 4\n")
        code = main(["plant", "--params", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "turbine.tau_t" in err

    def test_nonpositive_parameter_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "p.cfg"
        bad.write_text(
            (SCENARIOS / "reference-params.cfg").read_text().replace(
                "generator.r_l = 8", "generator.r_l = 0"
            )
        )
        code = main(["plant", "--params", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "generator.r_l" in err


class TestSynthesizeCommand:
    def test_lqr_gains(self, capsys):
        code, out = run(capsys, "synthesize", "--scenario", str(SCENARIOS / "paper-lqr.cfg"))
        assert code == 0
        assert "K = [0.216583, 0.264911]" in out
        assert "CARE residual" in out

    def test_observer_report(self, capsys):
        code, out = run(capsys, "synthesize", "--scenario", str(SCENARIOS / "paper-observer.cfg"))
        assert code == 0
        assert "K = [1.772, 2]" in out
        assert "A = [-4.272, -39; 1, 9]" in out
        assert "stability[A-HC]: NOT Hurwitz" in out
        assert "closed-loop eigenvalues (reported not asserted)" in out
        assert "unity feedback" not in out
        assert any("not Hurwitz" in l for l in out.splitlines() if l.startswith("WARNING"))

    def test_observer_eigenvalues_are_the_separation_spectrum(self, capsys):
        # the standard-luenberger loop that simulate runs has the spectrum
        # eig(A - BK) and eig(A - HC)
        code, out = run(capsys, "synthesize", "--scenario", str(SCENARIOS / "paper-observer.cfg"))
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("closed-loop eigenvalues"))
        printed = [complex(z.replace(" ", "")) for z in line.split("[", 1)[1].rstrip("]").split(",")]
        plant = tf_to_ss(rounded_plant_tf())
        k = solve_care(plant.a, plant.b, CostWeights.diagonal([8.0, 8.0], 1.0)).k
        h = np.array([[2.0], [-0.5]])
        product = char_poly(plant.a - plant.b @ k) * char_poly(plant.a - h @ plant.c)
        npt.assert_allclose(np.sort_complex(printed), np.sort_complex(np.roots(product.coeffs)),
                            atol=1e-3)
        assert "stability[closed loop]: NOT Hurwitz" in out

    def test_paper_numeric_convention_matrices(self, capsys, tmp_path):
        path = tmp_path / "paper-numeric.cfg"
        path.write_text((SCENARIOS / "paper-observer.cfg").read_text().replace(
            "controller.convention = standard-luenberger", "controller.convention = paper-numeric"))
        code, out = run(capsys, "synthesize", "--scenario", str(path))
        assert code == 0
        assert "B = [2; -0.5]" in out
        assert "C = [1.772, 2]" in out

    def test_zero_q_on_unstable_plant(self, capsys, tmp_path):
        scn = tmp_path / "zero-q.cfg"
        scn.write_text(
            "plant.tf.num = 1\nplant.tf.den = 1 1 -2\n"
            "controller.type = lqr\ncontroller.q_diag = 0 0\ncontroller.r = 1\n"
        )
        code, out = run(capsys, "synthesize", "--scenario", str(scn))
        assert code == 0
        assert "K = [2, 4]" in out
        assert "stability[A-BK]: stable (Hurwitz)" in out

    def test_zero_dc_gain_plant_still_synthesizes(self, capsys, tmp_path):
        scn = tmp_path / "zero-dc.cfg"
        scn.write_text(ZERO_DC_SCENARIO)
        code, out = run(capsys, "synthesize", "--scenario", str(scn))
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 6
        assert lines[3] == "K = [0.236068, 0.236068]"
        assert lines[4].startswith("CARE residual")
        assert lines[5] == "stability[A-BK]: stable (Hurwitz)"

    def test_overflowing_characteristic_polynomial_exits_2(self, capsys, tmp_path, recwarn):
        # A is finite and valid; det(sI - A) = s^2 + 2e160 s + 1e320 is not
        # representable. That is a numerical failure, not bad input, and
        # it is reported without a numpy warning.
        scn = tmp_path / "overflow.cfg"
        scn.write_text("plant.ss.a = -1e160 1; 0 -1e160\nplant.ss.b = 0; 1\nplant.ss.c = 1 0\n"
                       "controller.type = none\n")
        code = main(["synthesize", "--scenario", str(scn)])
        assert code == 2
        assert "characteristic polynomial coefficients overflow" in capsys.readouterr().err
        assert [str(w.message) for w in recwarn] == []

    def test_non_finite_weight_rejected(self, capsys, tmp_path):
        scn = tmp_path / "nan-q.cfg"
        scn.write_text(ZERO_DC_SCENARIO.replace("q_diag = 1 1", "q_diag = nan 3"))
        code = main(["synthesize", "--scenario", str(scn)])
        assert code == 1
        assert "cost weights must be finite" in capsys.readouterr().err

    def test_weight_with_infinite_reciprocal_rejected(self, capsys, tmp_path):
        scn = tmp_path / "tiny-r.cfg"
        scn.write_text(ZERO_DC_SCENARIO.replace("controller.r = 1", "controller.r = 1e-320"))
        code = main(["synthesize", "--scenario", str(scn)])
        assert code == 1
        assert "controller.r: R must have a finite reciprocal" in capsys.readouterr().err

    def test_open_loop_scenario_rejected(self, capsys):
        code = main(["synthesize", "--scenario", str(SCENARIOS / "open-loop.cfg")])
        assert code == 1


class TestSimulateCommand:
    def test_open_loop_run(self, capsys, tmp_path):
        code, out = run(
            capsys, "simulate", "--scenario", str(SCENARIOS / "open-loop.cfg"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "open-loop.csv").exists()
        assert "steady state       : 91.42" in out

    def test_closed_loop_lqr_run(self, capsys, tmp_path):
        code, out = run(
            capsys, "simulate", "--scenario", str(SCENARIOS / "paper-lqr.cfg"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "reference prescaler" in out
        assert "steady state       : 219.9" in out

    def test_diverging_observer_run_exits_2(self, capsys, tmp_path):
        code, out = run(
            capsys, "simulate", "--scenario", str(SCENARIOS / "paper-observer.cfg"),
            "--out", str(tmp_path),
        )
        assert code == 2
        assert any("diverged" in l for l in out.splitlines() if l.startswith("WARNING"))

    def test_stable_plant_with_too_large_a_step_exits_1(self, capsys, tmp_path):
        scn = tmp_path / "stiff.cfg"
        scn.write_text("plant.tf.num = 3000\nplant.tf.den = 1 3000\nsim.dt = 0.001\n")
        out_dir = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scn), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: step-too-large:")
        assert "the largest stable sim.dt is 0.0009284 s" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_zero_dc_gain_has_no_prescaler(self, capsys, tmp_path):
        scn = tmp_path / "zero-dc.cfg"
        scn.write_text(ZERO_DC_SCENARIO)
        out_dir = tmp_path / "out"
        code = main(["simulate", "--scenario", str(scn), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "no prescaler exists" in captured.err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_svg_format(self, capsys, tmp_path):
        code, _ = run(
            capsys, "simulate", "--scenario", str(SCENARIOS / "open-loop.cfg"),
            "--out", str(tmp_path), "--format", "both",
        )
        assert code == 0
        svg = (tmp_path / "open-loop.svg").read_text()
        assert svg.startswith("<svg ")

    def test_format_flag_overrides_scenario_outputs(self, capsys, tmp_path):
        code, out = run(
            capsys, "simulate", "--scenario", str(SCENARIOS / "open-loop.cfg"),
            "--out", str(tmp_path), "--format", "svg",
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["open-loop.svg"]
        assert [l for l in out.splitlines() if l.startswith("wrote ")] == [
            f"wrote {tmp_path / 'open-loop.svg'}"
        ]

    def test_scenario_outputs_decide_without_flag(self, capsys, tmp_path):
        scn = tmp_path / "svg-only.cfg"
        scn.write_text(
            (SCENARIOS / "open-loop.cfg").read_text().replace("outputs = csv report", "outputs = svg")
        )
        out_dir = tmp_path / "out"
        code, _ = run(capsys, "simulate", "--scenario", str(scn), "--out", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["open-loop.svg"]

    def test_missing_scenario_file_exit_3(self, capsys, tmp_path):
        code = main(["simulate", "--scenario", str(tmp_path / "nope.cfg")])
        assert code == 3

    def test_non_utf8_scenario_exit_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes((SCENARIOS / "paper-lqr.cfg").read_bytes() + b"# caf\xe9\n")
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")

    def test_nan_duration_exit_1(self, capsys, tmp_path):
        path = tmp_path / "nan-duration.cfg"
        path.write_text("plant.preset = exact\ncontroller.type = none\nsim.duration = nan\n")
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: duration must be at least one step, got nan\n"

    def test_infinite_step_and_duration_exit_1(self, capsys, tmp_path):
        # inf / inf is NaN, which the sample guard must not let through.
        path = tmp_path / "inf-step.cfg"
        path.write_text(
            "plant.preset = exact\ncontroller.type = none\nsim.dt = inf\nsim.duration = inf\n"
        )
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: duration/dt exceeds the 1e7 sample guard\n"

    def test_missing_inline_parameter_named_as_the_file_spells_it(self, capsys, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("plant.turbine.tau_t = 2\n")
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: missing required parameter plant.generator.k1\n"

    def test_huge_open_loop_input_exits_2_without_numpy_warnings(self, tmp_path):
        # 1e200 g/s overflows the output long before 20 s; the electrical
        # trace of the truncated run multiplies samples near 1e300.
        path = tmp_path / "huge-input.cfg"
        path.write_text((SCENARIOS / "open-loop.cfg").read_text().replace(
            "sim.amplitude = 5", "sim.amplitude = 1e200"))
        proc = subprocess.run(
            [sys.executable, "-m", "regforge", "simulate", "--scenario", str(path), "--out", str(tmp_path)],
            capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2
        assert "diverged" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("line,message", [
        ("sim.amplitude = 5", "sim.amplitude requires controller.type = none"),
        # input_kind is gone: sim.amplitude = 0 is the zero input of an open loop
        ("sim.input_kind = zero", "unknown scenario keys: sim.input_kind"),
        ("sim.input_kind = constant", "unknown scenario keys: sim.input_kind"),
        ("sim.input_kind = step", "unknown scenario keys: sim.input_kind"),
    ])
    def test_closed_loop_rejects_open_loop_sim_keys(self, capsys, tmp_path, line, message):
        path = tmp_path / "closed.cfg"
        path.write_text((SCENARIOS / "paper-lqr.cfg").read_text() + line + "\n")
        code = main(["simulate", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("name", ["../escaped", ".", "..", "sub/dir", "nul\0byte"])
    def test_name_that_leaves_out_dir_exit_1(self, capsys, tmp_path, name):
        scenario = tmp_path / "in" / "named.cfg"
        scenario.parent.mkdir()
        scenario.write_text((SCENARIOS / "open-loop.cfg").read_text().replace(
            "name = open-loop", f"name = {name}"))
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: name: {name!r}")
        assert sorted(tmp_path.rglob("*")) == [scenario.parent, scenario]


class TestMetricsCommand:
    def test_round_trip_metrics(self, capsys, tmp_path):
        run(capsys, "simulate", "--scenario", str(SCENARIOS / "paper-lqr.cfg"),
            "--out", str(tmp_path))
        code, out = run(capsys, "metrics", str(tmp_path / "paper-lqr.csv"))
        assert code == 0
        assert "settling time" in out
        assert "steady state       : 219.9" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSVS))
    def test_malformed_csv_exit_1(self, capsys, tmp_path, case):
        content, message = MALFORMED_CSVS[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert main(["metrics", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


class TestReproduceCommand:
    def test_figure4_both_presets(self, capsys, tmp_path):
        code, out = run(capsys, "reproduce", "--figure", "4", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "figure4-exact.csv").exists()
        assert (tmp_path / "figure4-paper-rounded.csv").exists()
        assert "91.42" in out and "89.99" in out

    def test_figure4_deterministic(self, capsys, tmp_path):
        run(capsys, "reproduce", "--figure", "4", "--out", str(tmp_path / "a"))
        run(capsys, "reproduce", "--figure", "4", "--out", str(tmp_path / "b"))
        for name in ("figure4-exact.csv", "figure4-paper-rounded.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_figure5_power_columns(self, capsys, tmp_path):
        code, out = run(capsys, "reproduce", "--figure", "5", "--preset", "exact",
                        "--out", str(tmp_path))
        assert code == 0
        header = (tmp_path / "figure5-exact.csv").read_text().splitlines()[0]
        assert header == "t,u,y,x1,x2,i_a,e_g,p_out,p_in"
        assert "output power at steady state: 1044." in out

    def test_figure7_warning_states_published_values(self, capsys, tmp_path):
        _, out = run(capsys, "reproduce", "--figure", "7", "--preset", "exact",
                     "--out", str(tmp_path))
        warning = [l for l in out.splitlines() if l.startswith("WARNING")][0]
        assert "76.92" in warning and "57.1429" in warning and "1300" in warning

    def test_figure8_all_legs(self, capsys, tmp_path):
        code, out = run(capsys, "reproduce", "--figure", "8", "--preset", "paper-rounded",
                        "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "figure8-lqr-paper-rounded.csv").exists()
        assert (tmp_path / "figure8-observer-published-paper-rounded.csv").exists()
        assert (tmp_path / "figure8-observer-stable-paper-rounded.csv").exists()
        assert "K = [0.216583, 0.264911]" in out
        assert "K = [1.772, 2]" in out
        assert any(
            "not reproducible" in l for l in out.splitlines() if l.startswith("WARNING")
        )

    def test_figure8_lqr_only(self, capsys, tmp_path):
        code, out = run(capsys, "reproduce", "--figure", "8", "--controller", "lqr",
                        "--preset", "paper-rounded", "--out", str(tmp_path))
        assert code == 0
        assert not (tmp_path / "figure8-observer-published-paper-rounded.csv").exists()
        assert "settling time      : 7.09" in out

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REGFORGE_OUT", str(tmp_path / "envout"))
        code, _ = run(capsys, "reproduce", "--figure", "4", "--preset", "exact")
        assert code == 0
        assert (tmp_path / "envout" / "figure4-exact.csv").exists()

    @pytest.mark.parametrize("name", ["figure4-exact.csv", "figure4-exact.svg"])
    def test_directory_at_artifact_path_exit_3(self, capsys, tmp_path, name):
        (tmp_path / name).mkdir()
        code = main(["reproduce", "--figure", "4", "--preset", "exact", "--format", "both",
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert (tmp_path / name).is_dir()

    def test_bad_figure_rejected(self, capsys):
        code = main(["reproduce", "--figure", "9"])
        assert code == 1

    def test_unknown_preset_rejected(self, capsys, tmp_path):
        code = main(["reproduce", "--figure", "4", "--preset", "glossy", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: argument --preset: invalid choice: 'glossy' (choose from 'exact', 'paper-rounded')\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("figure", ["4", "5", "6", "7"])
    def test_controller_without_figure8_exit_1(self, capsys, tmp_path, figure):
        # --controller picks figure 8's legs; on an open-loop figure it would do nothing
        code = main(["reproduce", "--figure", figure, "--controller", "lqr", "--out", str(tmp_path)])
        assert code == 1
        assert "--controller" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# The scenario's controller.convention is the only way to choose the wiring.
@pytest.mark.parametrize("command", [
    ["reproduce", "--figure", "8", "--preset", "paper-rounded"],
    ["synthesize", "--scenario", str(SCENARIOS / "paper-observer.cfg")],
    ["simulate", "--scenario", str(SCENARIOS / "paper-observer.cfg")],
], ids=lambda command: command[0])
def test_convention_option_removed(capsys, tmp_path, command):
    code = main([*command, "--convention", "paper-numeric", "--out", str(tmp_path)])
    assert code == 1
    assert "--convention" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_zero_state_lqr_plant_fails_alike(capsys, tmp_path, monkeypatch):
    # A static plant has no state to weight: both commands reject the
    # weights with the same message, not on the plant's stability line.
    monkeypatch.setenv("REGFORGE_OUT", str(tmp_path))
    scn = tmp_path / "static.cfg"
    scn.write_text("plant.tf.num = 5\nplant.tf.den = 1\ncontroller.type = lqr\n"
                   "controller.q_diag = 1\ncontroller.r = 1\nreference = 1\n")
    errors = []
    for command in ("synthesize", "simulate"):
        assert main([command, "--scenario", str(scn)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: Q must be 0x0, got (1, 1)\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = {"PYTHONPATH": str(SRC), "REGFORGE_OUT": str(tmp_path)}
        proc = subprocess.run(
            [sys.executable, "-m", "regforge", "plant"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "steady state at 5 g/s" in proc.stdout


def _regforge_modules(tmp_path, *argv) -> set:
    """The regforge modules a fresh ``python -m regforge`` process imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "regforge", *argv],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:") and line.count("|") == 2}
    return {name for name in names if name.split(".")[0] == "regforge"}


class TestImportOnUse:
    """Each command loads only the modules it runs: a module-level import fails here."""

    def test_metrics_loads_only_the_csv_and_metrics_path(self, capsys, tmp_path):
        assert main(["simulate", "--scenario", str(SCENARIOS / "open-loop.cfg"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        loaded = _regforge_modules(tmp_path, "metrics", str(tmp_path / "open-loop.csv"))
        assert loaded == {"regforge", "regforge.cli", "regforge.errors", "regforge.output",
                          "regforge.report", "regforge.sim"}

    def test_plant_loads_no_scenario_synthesis_or_artifact_code(self, tmp_path):
        loaded = _regforge_modules(tmp_path, "plant")
        assert {"regforge.cli", "regforge.lti", "regforge.plant"} <= loaded
        assert loaded.isdisjoint({"regforge.observer", "regforge.riccati", "regforge.scenario",
                                  "regforge.output"})
