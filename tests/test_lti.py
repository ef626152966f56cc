import numpy as np
import numpy.testing as npt
import pytest

from regforge.errors import NumericalError, ValidationError
from regforge.lti import (
    Polynomial,
    StateSpaceModel,
    TransferFunction,
    char_poly,
    dc_gain,
    eigenvalues,
    feedback_interconnect,
    is_hurwitz,
    ss_to_tf,
    tf_series,
    tf_to_ss,
)

from oracles import assert_root_sets_close, random_stable_poles

PLANT_A = np.array([[-2.5, -1.0], [1.0, 0.0]])
PLANT_B = np.array([[1.0], [0.0]])
PLANT_C = np.array([[0.0, 18.0]])


def reference_plant():
    return TransferFunction([18.0], [1.0, 2.5, 1.0])


class TestPolynomial:
    def test_trims_leading_zeros(self):
        p = Polynomial([0.0, 0.0, 1.0, 2.0])
        npt.assert_array_equal(p.coeffs, [1.0, 2.0])
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = Polynomial([0.0, 0.0])
        assert p.is_zero
        assert p.degree == 0

    def test_multiplication(self):
        prod = Polynomial([2.0, 1.0]) * Polynomial([7.0, 14.0])
        npt.assert_allclose(prod.coeffs, [14.0, 35.0, 14.0])

    def test_roots_match_numpy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            coeffs = rng.uniform(-3, 3, size=rng.integers(2, 6))
            coeffs[0] = rng.uniform(0.5, 2.0)
            assert_root_sets_close(Polynomial(coeffs).roots(), np.roots(coeffs), atol=1e-7)

    def test_from_roots_round_trip(self):
        p = Polynomial.from_roots([-0.5, -2.0])
        npt.assert_allclose(p.coeffs, [1.0, 2.5, 1.0])

    def test_from_roots_rejects_unpaired_complex(self):
        with pytest.raises(ValidationError):
            Polynomial.from_roots([1.0 + 1.0j, -2.0])

    def test_evaluate(self):
        p = Polynomial([1.0, 2.5, 1.0])
        assert p(0.0) == 1.0
        assert p(-0.5) == pytest.approx(0.0)


class TestTransferFunction:
    def test_rejects_zero_denominator(self):
        with pytest.raises(ValidationError):
            TransferFunction([1.0], [0.0])

    def test_normalized_monic(self):
        g = TransferFunction([256.0], [14.0, 35.0, 14.0]).normalized()
        npt.assert_allclose(g.den.coeffs, [1.0, 2.5, 1.0])
        npt.assert_allclose(g.num.coeffs, [256.0 / 14.0])

    def test_properness_flags(self):
        assert reference_plant().is_strictly_proper
        assert TransferFunction([1.0, 0.0], [1.0, 1.0]).is_proper
        assert not TransferFunction([1.0, 0.0, 0.0], [1.0, 1.0]).is_proper


class TestTfToSs:
    def test_reference_plant_realization(self):
        ss = tf_to_ss(reference_plant())
        npt.assert_allclose(ss.a, PLANT_A)
        npt.assert_allclose(ss.b, PLANT_B)
        npt.assert_allclose(ss.c, PLANT_C)
        npt.assert_allclose(ss.d, [[0.0]])

    def test_first_order_canonical(self):
        ss = tf_to_ss(TransferFunction([1.0], [1.0, 1.0]))
        npt.assert_allclose(ss.a, [[-1.0]])
        npt.assert_allclose(ss.b, [[1.0]])
        npt.assert_allclose(ss.c, [[1.0]])

    def test_monic_normalization_first(self):
        # 256/(14 s^2 + 35 s + 14): same A, B after dividing out 14.
        ss = tf_to_ss(TransferFunction([256.0], [14.0, 35.0, 14.0]))
        npt.assert_allclose(ss.a, PLANT_A)
        npt.assert_allclose(ss.b, PLANT_B)
        npt.assert_allclose(ss.c, [[0.0, 256.0 / 14.0]])

    def test_rejects_improper(self):
        with pytest.raises(ValidationError):
            tf_to_ss(TransferFunction([1.0, 0.0, 0.0], [1.0, 1.0]))

    def test_static_gain_collapses_to_feedthrough(self):
        ss = tf_to_ss(TransferFunction([3.0], [2.0]))
        assert ss.n_states == 0
        npt.assert_allclose(ss.d, [[1.5]])


class TestSsToTf:
    def test_reference_plant(self):
        g = ss_to_tf(StateSpaceModel(PLANT_A, PLANT_B, PLANT_C))
        npt.assert_allclose(g.num.coeffs, [18.0], atol=1e-12)
        npt.assert_allclose(g.den.coeffs, [1.0, 2.5, 1.0], atol=1e-12)

    def test_first_order(self):
        g = ss_to_tf(StateSpaceModel([[-1.0]], [[1.0]], [[1.0]]))
        npt.assert_allclose(g.num.coeffs, [1.0])
        npt.assert_allclose(g.den.coeffs, [1.0, 1.0])

    def test_feedthrough_adds_den_to_num(self):
        g = ss_to_tf(StateSpaceModel(PLANT_A, PLANT_B, PLANT_C, [[1.0]]))
        npt.assert_allclose(g.num.coeffs, [1.0, 2.5, 19.0], atol=1e-12)
        npt.assert_allclose(g.den.coeffs, [1.0, 2.5, 1.0], atol=1e-12)

    def test_rejects_mimo(self):
        ss = StateSpaceModel(np.eye(2) * -1.0, np.eye(2), np.eye(2))
        with pytest.raises(ValidationError):
            ss_to_tf(ss)

    def test_round_trip_random_strictly_proper(self):
        # Well-conditioned random TFs of degree <= 4, coefficient-wise
        # agreement within 1e-9 relative after the round trip.
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            den = Polynomial.from_roots(random_stable_poles(rng, n))
            num_deg = int(rng.integers(0, n))
            if num_deg == 0:
                num = Polynomial([rng.uniform(0.5, 3.0)])
            else:
                num = Polynomial.from_roots(
                    random_stable_poles(rng, num_deg), leading=rng.uniform(0.5, 3.0)
                )
            g = TransferFunction(num, den)
            back = ss_to_tf(tf_to_ss(g)).normalized()
            ref = g.normalized()
            num_ref = np.pad(ref.num.coeffs, (len(back.num.coeffs) - len(ref.num.coeffs), 0))
            scale = max(1.0, np.max(np.abs(ref.den.coeffs)), np.max(np.abs(num_ref)))
            assert np.max(np.abs(back.den.coeffs - ref.den.coeffs)) < 1e-9 * scale
            assert np.max(np.abs(back.num.coeffs - num_ref)) < 1e-9 * scale


class TestSeries:
    def test_turbine_generator_cascade(self):
        combined = tf_series(
            TransferFunction([2.0], [2.0, 1.0]), TransferFunction([128.0], [7.0, 14.0])
        )
        npt.assert_allclose(combined.num.coeffs, [256.0])
        npt.assert_allclose(combined.den.coeffs, [14.0, 35.0, 14.0])

    def test_identity_element(self):
        g = reference_plant()
        same = tf_series(g, TransferFunction([1.0], [1.0]))
        npt.assert_array_equal(same.num.coeffs, g.num.coeffs)
        npt.assert_array_equal(same.den.coeffs, g.den.coeffs)

    def test_distinct_pole_product(self):
        g = tf_series(TransferFunction([1.0], [1.0, 1.0]), TransferFunction([1.0], [1.0, 2.0]))
        npt.assert_allclose(g.den.coeffs, [1.0, 3.0, 2.0])

    def test_no_cancellation(self):
        # (s+1)/(s+2) in series with (s+2)/(s+1) keeps all four roots.
        g = tf_series(
            TransferFunction([1.0, 1.0], [1.0, 2.0]), TransferFunction([1.0, 2.0], [1.0, 1.0])
        )
        assert g.num.degree == 2 and g.den.degree == 2


class TestCharPoly:
    def test_reference_plant(self):
        npt.assert_allclose(char_poly(PLANT_A).coeffs, [1.0, 2.5, 1.0])

    def test_zero_matrix(self):
        npt.assert_allclose(char_poly(np.zeros((2, 2))).coeffs, [1.0, 0.0, 0.0])

    def test_compensator_matrix(self):
        # trace 4.728, determinant +0.552
        p = char_poly(np.array([[-4.272, -39.0], [1.0, 9.0]]))
        npt.assert_allclose(p.coeffs, [1.0, -4.728, 0.552], atol=1e-12)

    def test_matches_numpy_poly_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            npt.assert_allclose(char_poly(a).coeffs, np.poly(a), atol=1e-10)

    def test_eigenvalue_residual_small(self):
        # char_poly evaluated at independently found roots stays <= 1e-8.
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            p = char_poly(a)
            for root in np.roots(p.coeffs):
                assert abs(p(root)) <= 1e-8


class TestEigenvalues:
    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            assert_root_sets_close(eigenvalues(a), np.linalg.eigvals(a), atol=1e-6)


class TestIsHurwitz:
    def test_reference_plant_stable(self):
        assert is_hurwitz(Polynomial([1.0, 2.5, 1.0]))

    def test_unstable_error_dynamics(self):
        assert not is_hurwitz(Polynomial([1.0, -6.5, 14.5]))

    def test_root_at_origin(self):
        assert not is_hurwitz(Polynomial([1.0, 0.0]))

    def test_constant_rejected(self):
        with pytest.raises(ValidationError):
            is_hurwitz(Polynomial([5.0]))

    def test_sign_normalization(self):
        assert is_hurwitz(Polynomial([-1.0, -2.5, -1.0]))

    def test_agrees_with_root_oracle(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 1000:
            deg = int(rng.integers(2, 5))
            coeffs = rng.uniform(-2.0, 2.0, size=deg + 1)
            if abs(coeffs[0]) < 0.1:
                continue
            roots = np.roots(coeffs)
            if np.max(roots.real) > -1e-7 and np.max(roots.real) < 1e-7:
                continue  # too close to the axis to compare verdicts fairly
            assert is_hurwitz(Polynomial(coeffs)) == bool(np.all(roots.real < 0.0))
            checked += 1


class TestFeedback:
    def test_integrator_unit_gain(self):
        loop = feedback_interconnect(
            tf_to_ss(TransferFunction([1.0], [1.0, 0.0])), StateSpaceModel.static_gain(1.0)
        )
        g = ss_to_tf(loop)
        npt.assert_allclose(g.num.coeffs, [1.0])
        npt.assert_allclose(g.den.coeffs, [1.0, 1.0])

    def test_static_gain_characteristic_polynomial(self):
        # Closed-loop denominator must equal den + K num for the plant.
        for k in (0.1, 0.5, 2.0):
            loop = feedback_interconnect(
                tf_to_ss(reference_plant()), StateSpaceModel.static_gain(k)
            )
            npt.assert_allclose(
                char_poly(loop.a).coeffs, [1.0, 2.5, 1.0 + 18.0 * k], atol=1e-12
            )

    def test_dynamic_controller_stacks_states(self):
        ctrl = tf_to_ss(TransferFunction([1.0], [1.0, 1.0]))
        loop = feedback_interconnect(tf_to_ss(reference_plant()), ctrl)
        assert loop.n_states == 3
        assert loop.is_siso

    def test_singular_algebraic_loop_rejected(self):
        plant = StateSpaceModel.static_gain(1.0)
        controller = StateSpaceModel.static_gain(-1.0)
        with pytest.raises(ValidationError):
            feedback_interconnect(plant, controller)

    def test_feedthrough_loop_resolved_exactly(self):
        # Static plant gain 2 with static controller gain 3:
        # y = 2*3*(r - y) -> y/r = 6/7.
        loop = feedback_interconnect(
            StateSpaceModel.static_gain(2.0), StateSpaceModel.static_gain(3.0)
        )
        npt.assert_allclose(loop.d, [[6.0 / 7.0]])


class TestDcGain:
    def test_reference_plant(self):
        assert dc_gain(reference_plant()) == pytest.approx(18.0)

    def test_exact_gain(self):
        g = TransferFunction([256.0], [14.0, 35.0, 14.0])
        assert dc_gain(g) == pytest.approx(256.0 / 14.0)

    def test_integrator_rejected(self):
        with pytest.raises(NumericalError):
            dc_gain(TransferFunction([1.0], [1.0, 0.0]))


class TestImmutability:
    def test_polynomial_coeffs_read_only(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 9.0

    def test_state_space_read_only(self):
        ss = StateSpaceModel(PLANT_A, PLANT_B, PLANT_C)
        with pytest.raises(ValueError):
            ss.a[0, 0] = 0.0

    def test_constructor_copies_input(self):
        a = PLANT_A.copy()
        ss = StateSpaceModel(a, PLANT_B, PLANT_C)
        a[0, 0] = 99.0
        assert ss.a[0, 0] == -2.5
