import numpy as np
import numpy.testing as npt
import pytest

from regforge.cli import main
from regforge.errors import ValidationError
from regforge.lti import dc_gain, tf_series
from regforge.plant import (
    GeneratorParams,
    PlantParams,
    REFERENCE_PARAMS,
    TurbineParams,
    generator_tf,
    plant_tf,
    preset_tf,
    rounded_plant_tf,
    steady_state_report,
    turbine_tf,
)


def random_params(rng) -> PlantParams:
    return PlantParams(
        turbine=TurbineParams(tau_t=rng.uniform(0.2, 5.0)),
        generator=GeneratorParams(
            k1=rng.uniform(0.5, 6.0),
            n=rng.uniform(0.5, 6.0),
            l_f=rng.uniform(0.5, 6.0),
            r_f=rng.uniform(0.5, 6.0),
            l_a=rng.uniform(0.5, 6.0),
            r_a=rng.uniform(0.5, 6.0),
            r_l=rng.uniform(0.5, 10.0),
        ),
    )


class TestParams:
    def test_reference_values(self):
        g = REFERENCE_PARAMS.generator
        assert REFERENCE_PARAMS.turbine.tau_t == 2.0
        assert (g.k1, g.n, g.l_f, g.r_f, g.l_a, g.r_a, g.r_l) == (4, 4, 3, 2, 4, 4, 8)
        assert g.total_inductance == 7.0
        assert g.total_resistance == 14.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError, match="turbine.tau_t"):
            TurbineParams(tau_t=0.0)
        with pytest.raises(ValidationError, match="generator.r_l"):
            GeneratorParams(k1=4, n=4, l_f=3, r_f=2, l_a=4, r_a=4, r_l=0.0)


class TestTurbineTf:
    def test_reference(self):
        g = turbine_tf(REFERENCE_PARAMS.turbine)
        npt.assert_allclose(g.num.coeffs, [2.0])
        npt.assert_allclose(g.den.coeffs, [2.0, 1.0])

    def test_unit_time_constant(self):
        g = turbine_tf(TurbineParams(tau_t=1.0))
        npt.assert_allclose(g.num.coeffs, [1.0])
        npt.assert_allclose(g.den.coeffs, [1.0, 1.0])

    def test_dc_gain_equals_time_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tau = rng.uniform(0.1, 10.0)
            assert dc_gain(turbine_tf(TurbineParams(tau_t=tau))) == pytest.approx(tau)


class TestGeneratorTf:
    def test_reference(self):
        g = generator_tf(REFERENCE_PARAMS.generator)
        npt.assert_allclose(g.num.coeffs, [128.0])
        npt.assert_allclose(g.den.coeffs, [7.0, 14.0])

    def test_all_unity(self):
        g = generator_tf(GeneratorParams(k1=1, n=1, l_f=0.5, r_f=0.4, l_a=0.5, r_a=0.3, r_l=0.3))
        npt.assert_allclose(g.num.coeffs, [0.3])
        npt.assert_allclose(g.den.coeffs, [1.0, 1.0])

    def test_dc_gain(self):
        g = REFERENCE_PARAMS.generator
        assert dc_gain(generator_tf(g)) == pytest.approx(128.0 / 14.0)


class TestPlantTf:
    def test_reference_combined(self):
        g = plant_tf(REFERENCE_PARAMS)
        npt.assert_allclose(g.num.coeffs, [256.0])
        npt.assert_allclose(g.den.coeffs, [14.0, 35.0, 14.0])
        monic = g.normalized()
        npt.assert_allclose(monic.den.coeffs, [1.0, 2.5, 1.0])
        assert dc_gain(g) == pytest.approx(256.0 / 14.0)

    def test_equals_series_of_blocks(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            p = random_params(rng)
            direct = plant_tf(p)
            series = tf_series(turbine_tf(p.turbine), generator_tf(p.generator))
            npt.assert_array_equal(direct.num.coeffs, series.num.coeffs)
            npt.assert_array_equal(direct.den.coeffs, series.den.coeffs)

    def test_presets(self):
        npt.assert_allclose(preset_tf("exact").den.coeffs, [14.0, 35.0, 14.0])
        npt.assert_allclose(preset_tf("paper-rounded").num.coeffs, [18.0])
        with pytest.raises(ValidationError):
            preset_tf("glossy")

    def test_rounded_gain_is_published_value(self):
        assert dc_gain(rounded_plant_tf()) == 18.0


class TestSteadyStateReport:
    def test_reference_at_five(self):
        rep = steady_state_report(REFERENCE_PARAMS, 5.0)
        assert rep.v_out == pytest.approx(91.4286, abs=1e-3)
        assert rep.i_a == pytest.approx(11.4286, abs=1e-3)
        assert rep.e_g == pytest.approx(160.0)
        assert rep.p_out == pytest.approx(1044.9, abs=0.05)
        assert rep.p_in == pytest.approx(1828.6, abs=0.05)
        assert rep.efficiency == pytest.approx(57.1429, abs=1e-3)

    def test_zero_inflow_keeps_limit_efficiency(self):
        rep = steady_state_report(REFERENCE_PARAMS, 0.0)
        assert rep.v_out == rep.i_a == rep.e_g == rep.p_out == rep.p_in == 0.0
        assert rep.efficiency == pytest.approx(100.0 * 8.0 / 14.0)

    def test_negative_inflow_rejected(self):
        with pytest.raises(ValidationError):
            steady_state_report(REFERENCE_PARAMS, -1.0)

    @pytest.mark.parametrize("f_in", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_inflow_rejected(self, f_in):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            steady_state_report(REFERENCE_PARAMS, f_in)

    @pytest.mark.parametrize("inflow", ["nan", "inf", "-1"])
    def test_cli_rejects_inflow(self, capsys, inflow):
        assert main(["plant", "--inflow", inflow]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "steam inflow must be finite and nonnegative" in captured.err

    def test_homogeneity(self):
        one = steady_state_report(REFERENCE_PARAMS, 3.0)
        two = steady_state_report(REFERENCE_PARAMS, 6.0)
        assert two.v_out == pytest.approx(2 * one.v_out)
        assert two.i_a == pytest.approx(2 * one.i_a)
        assert two.e_g == pytest.approx(2 * one.e_g)
        assert two.p_out == pytest.approx(4 * one.p_out)
        assert two.p_in == pytest.approx(4 * one.p_in)
        assert two.efficiency == pytest.approx(one.efficiency)

    def test_report_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            p = random_params(rng)
            f_in = rng.uniform(0.0, 10.0)
            rep = steady_state_report(p, f_in)
            g = p.generator
            assert rep.i_a == pytest.approx(rep.v_out / g.r_l)
            assert rep.e_g == pytest.approx(rep.i_a * g.total_resistance)
            assert rep.p_out == pytest.approx(rep.v_out * rep.i_a)
            assert rep.p_in == pytest.approx(rep.e_g * rep.i_a)
            assert rep.efficiency == pytest.approx(100.0 * g.r_l / g.total_resistance)
            assert rep.p_in >= rep.p_out

    def test_voltage_matches_dc_gain_route(self):
        # Two independent derivations must agree: circuit chain vs dc gain
        # of the cascaded transfer function.
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = random_params(rng)
            f_in = rng.uniform(0.1, 10.0)
            rep = steady_state_report(p, f_in)
            via_tf = dc_gain(plant_tf(p)) * f_in
            assert rep.v_out == pytest.approx(via_tf, rel=1e-9)

    def test_efficiency_independent_of_inflow(self):
        rng = np.random.default_rng(4)
        p = random_params(rng)
        effs = {steady_state_report(p, f).efficiency for f in (0.0, 1.0, 5.0, 50.0)}
        assert len(effs) == 1
