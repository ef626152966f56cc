import numpy as np
import numpy.testing as npt
import pytest

from regforge.errors import ValidationError
from regforge.lti import char_poly, is_hurwitz
from regforge.riccati import (
    CostWeights,
    care_residual,
    lqr_gain,
    solve_care,
    solve_lyapunov,
)

from oracles import care_2x2_bruteforce, random_controllable_siso, scalar_care

PLANT_A = np.array([[-2.5, -1.0], [1.0, 0.0]])
PLANT_B = np.array([[1.0], [0.0]])

# Closed forms from the scalar quadratics the 2x2 CARE reduces to for the
# reference plant: p22 roots of p^2+2p-8 (Q=8I,R=1) and of p^2+10p-15
# scaled by R=5; p11 from the (1,1) entry with p12 known.
K_HIGH = np.array([(-5.0 + np.sqrt(73.0)) / 2.0, 2.0])
K_LOW = np.array([(-25.0 + np.sqrt(737.9822128134704)) / 10.0, (-5.0 + 2.0 * np.sqrt(10.0)) / 5.0])


class TestCostWeights:
    def test_diagonal_builder(self):
        w = CostWeights.diagonal([8.0, 8.0], 1.0)
        npt.assert_allclose(w.q, 8.0 * np.eye(2))
        npt.assert_allclose(w.r, [[1.0]])

    def test_symmetrizes_input(self):
        w = CostWeights([[1.0, 0.2], [0.0, 1.0]], [[1.0]])
        npt.assert_allclose(w.q, [[1.0, 0.1], [0.1, 1.0]])

    def test_indefinite_r_rejected(self):
        with pytest.raises(ValidationError):
            CostWeights(np.eye(2), [[-1.0]])
        with pytest.raises(ValidationError):
            CostWeights(np.eye(2), [[0.0]])

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValidationError):
            CostWeights([[1.0, 0.0], [0.0, -0.5]], [[1.0]])

    def test_zero_q_allowed(self):
        CostWeights(np.zeros((2, 2)), [[1.0]])


class TestLyapunov:
    def test_known_scalar(self):
        # a = -1: -2p + q = 0 -> p = q/2
        p = solve_lyapunov(np.array([[-1.0]]), np.array([[4.0]]))
        npt.assert_allclose(p, [[2.0]])

    def test_random_residuals(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
            s = rng.normal(size=(n, n))
            q = s @ s.T
            p = solve_lyapunov(a, q)
            npt.assert_allclose(a.T @ p + p @ a + q, np.zeros((n, n)), atol=1e-9)


class TestSolveCare:
    def test_scalar_analytic(self):
        sol = solve_care(np.array([[-1.0]]), np.array([[1.0]]), CostWeights([[1.0]], [[1.0]]))
        assert sol.p[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
        assert sol.residual_norm <= 1e-8

    def test_stable_plant_zero_q(self):
        sol = solve_care(PLANT_A, PLANT_B, CostWeights(np.zeros((2, 2)), [[1.0]]))
        npt.assert_allclose(sol.p, np.zeros((2, 2)), atol=1e-12)

    def test_reference_design_p_first_row(self):
        sol = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([8.0, 8.0], 1.0))
        npt.assert_allclose(sol.p[0], K_HIGH, atol=1e-9)

    def test_brute_force_oracle_agreement(self):
        oracle_p = care_2x2_bruteforce(PLANT_A, PLANT_B, 8.0 * np.eye(2), 1.0)
        sol = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([8.0, 8.0], 1.0))
        npt.assert_allclose(sol.p, oracle_p, atol=1e-6)

    def test_symmetrized_q_gives_identical_p(self):
        q = np.array([[3.0, 0.4], [0.0, 3.0]])
        direct = solve_care(PLANT_A, PLANT_B, CostWeights(q, [[5.0]]))
        symmetric = solve_care(PLANT_A, PLANT_B, CostWeights(0.5 * (q + q.T), [[5.0]]))
        npt.assert_array_equal(direct.p, symmetric.p)

    def test_unstable_plant(self):
        a = np.array([[1.0, 2.0], [0.0, 0.5]])
        b = np.array([[0.0], [1.0]])
        sol = solve_care(a, b, CostWeights(np.eye(2), [[1.0]]))
        k = np.linalg.solve(np.atleast_2d(1.0), b.T @ sol.p)
        assert is_hurwitz(char_poly(a - b @ k))
        assert sol.residual_norm <= 1e-8

    @pytest.mark.parametrize("a, b", [
        (np.array([[1.0, 0.0], [0.0, -2.0]]), np.array([[1.0], [1.0]])),
        (np.array([[0.5]]), np.array([[1.0]])),
    ])
    def test_zero_q_unstable_plant_matches_scipy(self, a, b):
        # With Q = 0 the residual at P = 0 is already zero; the stabilizing
        # solution must still move the unstable pole.
        linalg = pytest.importorskip("scipy.linalg")
        q = np.zeros_like(a)
        sol = solve_care(a, b, CostWeights(q, [[1.0]]))
        npt.assert_allclose(sol.p, linalg.solve_continuous_are(a, b, q, np.eye(1)), atol=1e-10)
        assert is_hurwitz(char_poly(a - b @ sol.k))

    @pytest.mark.parametrize("q_diag, r", [([8.0, 8.0], 1.0), ([3.0, 3.0], 5.0)])
    def test_gain_is_r_inverse_bt_p(self, q_diag, r):
        weights = CostWeights.diagonal(q_diag, r)
        sol = solve_care(PLANT_A, PLANT_B, weights)
        npt.assert_array_equal(sol.k, np.linalg.solve(weights.r, PLANT_B.T @ sol.p))

    def test_scalar_oracle_500_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.2, 3.0) * (1 if rng.random() < 0.5 else -1)
            q = rng.uniform(0.0, 5.0)
            r = rng.uniform(0.2, 5.0)
            sol = solve_care(np.array([[a]]), np.array([[b]]), CostWeights([[q]], [[r]]))
            assert sol.p[0, 0] == pytest.approx(scalar_care(a, b, q, r), abs=1e-10)

    def test_2x2_oracle_100_random(self):
        # cond cap keeps |P| moderate so the absolute 1e-6 agreement bar
        # stays far above the float64 evaluation floor.
        rng = np.random.default_rng(12)
        for trial in range(100):
            a, b = random_controllable_siso(rng, 2, cond_limit=100.0)
            m = rng.normal(size=(2, 2))
            q = m @ m.T + 0.5 * np.eye(2)
            r = float(rng.uniform(0.5, 2.0))
            sol = solve_care(a, b, CostWeights(q, [[r]]))
            oracle_p = care_2x2_bruteforce(a, b, q, r, seed=trial)
            npt.assert_allclose(sol.p, oracle_p, atol=1e-6)


class TestLqrGain:
    def test_reference_high_weight(self):
        k = lqr_gain(PLANT_A, PLANT_B, CostWeights.diagonal([8.0, 8.0], 1.0))
        npt.assert_allclose(k[0], K_HIGH, atol=1e-9)
        npt.assert_allclose(k[0], [1.7720, 2.0], atol=1e-3)

    def test_reference_low_weight(self):
        k = lqr_gain(PLANT_A, PLANT_B, CostWeights.diagonal([3.0, 3.0], 5.0))
        npt.assert_allclose(k[0], K_LOW, atol=1e-9)
        npt.assert_allclose(k[0], [0.2166, 0.2649], atol=1e-3)

    def test_zero_q_on_stable_plant(self):
        k = lqr_gain(PLANT_A, PLANT_B, CostWeights(np.zeros((2, 2)), [[1.0]]))
        npt.assert_allclose(k, np.zeros((1, 2)), atol=1e-12)

    def test_zero_q_on_unstable_plant(self):
        a = np.array([[1.0, 0.0], [0.0, -2.0]])
        b = np.array([[1.0], [1.0]])
        k = lqr_gain(a, b, CostWeights(np.zeros((2, 2)), [[1.0]]))
        npt.assert_allclose(k, [[2.0, 0.0]], atol=1e-10)

    def test_property_suite_random_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a, b = random_controllable_siso(rng, n)
            m = rng.normal(size=(n, n))
            q = m @ m.T + 0.1 * np.eye(n)
            r = float(rng.uniform(0.3, 3.0))
            sol = solve_care(a, b, CostWeights(q, [[r]]))
            res = care_residual(a, b, sol.p, q, np.atleast_2d(r))
            assert np.linalg.norm(res) <= 1e-8
            assert np.max(np.abs(sol.p - sol.p.T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(sol.p)) >= -1e-9
            k = (b.T @ sol.p) / r
            assert np.max(np.linalg.eigvals(a - b @ k).real) < 0.0
            assert is_hurwitz(char_poly(a - b @ k))

    def test_multi_input_stable_plant(self):
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = lqr_gain(a, b, CostWeights(np.eye(2), np.eye(2)))
        assert k.shape == (2, 2)
        assert np.max(np.linalg.eigvals(a - b @ k).real) < 0.0
