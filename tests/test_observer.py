import numpy as np
import numpy.testing as npt
import pytest

from regforge.errors import ValidationError
from regforge.lti import Polynomial, StateSpaceModel, char_poly, is_hurwitz
from regforge.observer import (
    CONVENTIONS,
    build_observer_controller,
    design_observer_gain,
    luenberger_loop,
    place_poles,
)

from oracles import (
    assert_root_sets_close,
    random_controllable_siso,
    random_output_feedback_design,
    random_stable_poles,
)

PLANT_A = np.array([[-2.5, -1.0], [1.0, 0.0]])
PLANT_B = np.array([[1.0], [0.0]])
PLANT_C = np.array([[0.0, 18.0]])
K_PUB = np.array([[1.772, 2.0]])
H_PUB = np.array([[2.0], [-0.5]])


def plant():
    return StateSpaceModel(PLANT_A, PLANT_B, PLANT_C)


def error_audit(h):
    """The A - HC audit of a compensator around the reference plant."""
    return build_observer_controller(plant(), K_PUB, h, "standard-luenberger").audit


class TestBuildController:
    def test_state_matrix_reproduces_published_realization(self):
        ctrl = build_observer_controller(plant(), K_PUB, H_PUB, "paper-numeric")
        npt.assert_allclose(ctrl.model.a, [[-4.272, -39.0], [1.0, 9.0]], atol=1e-12)

    def test_paper_numeric_wiring(self):
        ctrl = build_observer_controller(plant(), K_PUB, H_PUB, "paper-numeric")
        npt.assert_array_equal(ctrl.model.b, H_PUB)
        npt.assert_array_equal(ctrl.model.c, K_PUB)
        npt.assert_array_equal(ctrl.model.d, [[0.0]])

    def test_eq17_literal_wiring(self):
        ctrl = build_observer_controller(plant(), K_PUB, H_PUB, "eq17-literal")
        npt.assert_array_equal(ctrl.model.b, PLANT_B)
        npt.assert_array_equal(ctrl.model.c, -K_PUB)
        npt.assert_array_equal(ctrl.model.d, [[1.0]])

    def test_standard_luenberger_wiring(self):
        ctrl = build_observer_controller(plant(), K_PUB, H_PUB, "standard-luenberger")
        npt.assert_array_equal(ctrl.model.b, H_PUB)
        npt.assert_array_equal(ctrl.model.c, -K_PUB)
        npt.assert_array_equal(ctrl.model.d, [[0.0]])

    def test_all_conventions_share_state_matrix(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            a, b = random_controllable_siso(rng, 2)
            c = rng.normal(size=(1, 2))
            k = rng.normal(size=(1, 2))
            h = rng.normal(size=(2, 1))
            p = StateSpaceModel(a, b, c)
            expected = a - b @ k - h @ c
            for convention in CONVENTIONS:
                ctrl = build_observer_controller(p, k, h, convention)
                npt.assert_array_equal(ctrl.model.a, expected)

    def test_zero_gains_reduce_to_plant_copy(self):
        ctrl = build_observer_controller(plant(), np.zeros((1, 2)), np.zeros((2, 1)), "paper-numeric")
        npt.assert_array_equal(ctrl.model.a, PLANT_A)

    def test_audit_attached_and_not_fatal(self):
        ctrl = build_observer_controller(plant(), K_PUB, H_PUB, "paper-numeric")
        assert ctrl.audit.state_feedback_hurwitz
        assert not ctrl.audit.error_hurwitz
        npt.assert_allclose(ctrl.audit.error_poly.coeffs, [1.0, -6.5, 14.5], atol=1e-12)

    def test_feedthrough_plant_rejected(self):
        p = StateSpaceModel(PLANT_A, PLANT_B, PLANT_C, [[1.0]])
        with pytest.raises(ValidationError):
            build_observer_controller(p, K_PUB, H_PUB, "paper-numeric")

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValidationError):
            build_observer_controller(plant(), K_PUB, H_PUB, "freestyle")

    def test_convention_is_required(self):
        with pytest.raises(TypeError, match="convention"):
            build_observer_controller(plant(), K_PUB, H_PUB)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            build_observer_controller(plant(), np.ones((1, 3)), H_PUB, "paper-numeric")
        with pytest.raises(ValidationError):
            build_observer_controller(plant(), K_PUB, np.ones((3, 1)), "paper-numeric")


class TestErrorDynamics:
    def test_published_gain_unstable(self):
        # With K = 0 the compensator's state matrix A - BK - HC is A - HC itself.
        ctrl = build_observer_controller(plant(), np.zeros((1, 2)), H_PUB, "standard-luenberger")
        npt.assert_allclose(ctrl.model.a, [[-2.5, -37.0], [1.0, 9.0]], atol=1e-12)
        npt.assert_allclose(ctrl.audit.error_poly.coeffs, [1.0, -6.5, 14.5], atol=1e-12)
        assert not ctrl.audit.error_hurwitz

    def test_zero_gain_inherits_plant_verdict(self):
        assert error_audit(np.zeros((2, 1))).error_hurwitz  # the open-loop plant is stable

    def test_nonnegative_trace_never_hurwitz(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            h = rng.normal(size=(2, 1))
            a_err = PLANT_A - h @ PLANT_C
            if np.trace(a_err) >= 0.0:
                assert not error_audit(h).error_hurwitz

    def test_flat_gain_vector(self):
        flat = build_observer_controller(plant(), np.zeros(2), [2.0, -0.5], "standard-luenberger")
        npt.assert_allclose(flat.model.a, [[-2.5, -37.0], [1.0, 9.0]])
        npt.assert_array_equal(flat.model.b, H_PUB)


class TestPlacePoles:
    def test_published_gain_from_target_polynomial(self):
        desired = np.roots([1.0, 4.272, 3.0])
        k = place_poles(PLANT_A, PLANT_B, desired)
        npt.assert_allclose(k, [[1.772, 2.0]], atol=1e-9)

    def test_open_loop_poles_give_zero_gain(self):
        k = place_poles(PLANT_A, PLANT_B, [-0.5, -2.0])
        assert np.linalg.norm(k) <= 1e-9

    def test_round_trip_random_systems(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a, b = random_controllable_siso(rng, n)
            desired = random_stable_poles(rng, n)
            k = place_poles(a, b, desired)
            assert_root_sets_close(np.roots(char_poly(a - b @ k).coeffs), desired, atol=1e-6)

    def test_achieved_char_poly_coefficients(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            a, b = random_controllable_siso(rng, n)
            desired = random_stable_poles(rng, n)
            k = place_poles(a, b, desired)
            target = Polynomial.from_roots(desired)
            achieved = char_poly(a - b @ k)
            assert np.max(np.abs(achieved.coeffs - target.coeffs)) < 1e-8 * max(
                1.0, np.max(np.abs(target.coeffs))
            )

    def test_rank_matches_matrix_rank(self):
        # A = T Ah T^-1 and b = T bh for a unimodular integer T, with (Ah, bh)
        # in Kalman form: an uncontrollable block of size n - r. Every entry
        # of A, b and the controllability matrix is an exact integer, so the
        # rank deficiency is exact and only the elimination rounds.
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            ah = rng.integers(-2, 3, size=(n, n)).astype(float)
            ah[r:, :r] = 0.0
            bh = np.zeros((n, 1))
            bh[:r, 0] = rng.integers(-2, 3, size=r)
            t = np.eye(n)
            for _ in range(2 * n):
                i, j = rng.choice(n, 2, replace=False)
                t[i] += rng.integers(-2, 3) * t[j]
            t = t[rng.permutation(n)]
            a, b = t @ ah @ np.round(np.linalg.inv(t)), t @ bh
            ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
            rank = int(np.linalg.matrix_rank(ctrb))
            assert rank < n
            with pytest.raises(ValidationError, match=f"rank {rank} < {n}"):
                place_poles(a, b, -np.arange(1.0, n + 1.0))

    def test_uncontrollable_rejected_with_rank(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[1.0], [0.0]])
        with pytest.raises(ValidationError, match="rank 1"):
            place_poles(a, b, [-1.0, -2.0])

    def test_wrong_pole_count_rejected(self):
        with pytest.raises(ValidationError):
            place_poles(PLANT_A, PLANT_B, [-1.0])

    def test_conjugation_enforced(self):
        with pytest.raises(ValidationError):
            place_poles(PLANT_A, PLANT_B, [-1.0 + 1.0j, -2.0])


class TestDualObserverDesign:
    def test_stable_replacement_gain(self):
        h = design_observer_gain(PLANT_A, PLANT_C, [-5.0, -6.0])
        npt.assert_allclose(
            char_poly(PLANT_A - h @ PLANT_C).coeffs, [1.0, 11.0, 30.0], atol=1e-9
        )
        assert error_audit(h).error_hurwitz

    def test_random_dual_designs(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            a, bt = random_controllable_siso(rng, n)
            a = a.T  # make (A, C) observable by construction
            c = bt.T
            desired = random_stable_poles(rng, n)
            h = design_observer_gain(a, c, desired)
            assert_root_sets_close(np.roots(char_poly(a - h @ c).coeffs), desired, atol=1e-6)


class TestSeparationPrinciple:
    def test_loop_factorization_on_published_design(self):
        # Holds even though the published H is destabilizing: the loop
        # characteristic polynomial still factors, certifying instability.
        loop = luenberger_loop(plant(), K_PUB, H_PUB)
        product = char_poly(PLANT_A - PLANT_B @ K_PUB) * char_poly(PLANT_A - H_PUB @ PLANT_C)
        npt.assert_allclose(char_poly(loop.a).coeffs, product.coeffs, atol=1e-8)
        assert not is_hurwitz(char_poly(loop.a))

    def test_random_stable_designs(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            a, b, c, k, h = random_output_feedback_design(
                rng, n, place_poles, design_observer_gain
            )
            loop = luenberger_loop(StateSpaceModel(a, b, c), k, h)
            product = char_poly(a - b @ k) * char_poly(a - h @ c)
            assert np.max(np.abs(char_poly(loop.a).coeffs - product.coeffs)) <= 1e-8
