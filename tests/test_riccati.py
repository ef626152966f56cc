import dataclasses
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regforge import riccati
from regforge.cli import main
from regforge.errors import CareConvergenceError, NumericalError, ValidationError
from regforge.lti import char_poly, is_hurwitz, tf_to_ss
from regforge.plant import (
    PRESETS,
    REFERENCE_PARAMS,
    GeneratorParams,
    PlantParams,
    TurbineParams,
    plant_tf,
    preset_tf,
)
from regforge.riccati import (
    PSD_TOLERANCE,
    CostWeights,
    _semidefinite,
    care_residual,
    solve_care,
    solve_lyapunov,
)

from oracles import care_2x2_bruteforce, random_controllable_siso, random_q_diag, scalar_care

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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
        npt.assert_array_equal(w.q, 8.0 * np.eye(2))
        npt.assert_array_equal(w.r, [[1.0]])
        assert not (w.q.flags.writeable or w.r.flags.writeable)

    @pytest.mark.parametrize("q_diag, r", [(np.eye(2), 1.0), ([1.0, 1.0], [[1.0]])], ids=["full-q", "matrix-r"])
    def test_full_q_or_matrix_r_rejected(self, q_diag, r):
        with pytest.raises(ValidationError, match="1-D diagonal of Q and a scalar R"):
            CostWeights(q_diag, r)

    def test_compared_and_hashed_by_identity(self):
        # array fields: a field-wise == raised on an ambiguous truth value, and hash() on an unhashable array
        w = CostWeights([1.0, 2.0], 1.0)
        assert w == w and w != CostWeights([1.0, 2.0], 1.0)
        assert hash(w) == hash(w) and {w: 1}[w] == 1

    def test_indefinite_r_rejected(self):
        with pytest.raises(ValidationError):
            CostWeights([1.0, 1.0], -1.0)
        with pytest.raises(ValidationError):
            CostWeights([1.0, 1.0], 0.0)

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValidationError):
            CostWeights([1.0, -0.5], 1.0)

    @pytest.mark.parametrize("r", [1e-320, 5e-324, 5e-309])
    def test_r_with_overflowing_reciprocal_rejected(self, r):
        # solve_care multiplies by 1/r, which is inf for these.
        with pytest.raises(ValidationError, match="R must have a finite reciprocal"):
            CostWeights([1.0, 1.0], r)

    def test_smallest_normal_r_accepted(self):
        tiny = np.finfo(float).tiny
        assert CostWeights([1.0, 1.0], tiny).r[0, 0] == tiny

    def test_zero_q_allowed(self):
        CostWeights([0.0, 0.0], 1.0)

    @pytest.mark.parametrize(
        "q, r",
        [
            ([np.nan, 1.0], 1.0),
            ([np.inf, 1.0], 1.0),
            ([1.0, 1.0], np.nan),
        ],
        ids=["q0-r0", "q1-r1", "q2-r2"],
    )
    def test_non_finite_rejected(self, q, r):
        with pytest.raises(ValidationError, match="cost weights must be finite"):
            CostWeights(q, r)


def _rotated(spectrum, seed: int) -> np.ndarray:
    """U diag(spectrum) U' for a random orthogonal U."""
    n = len(spectrum)
    u, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    m = u @ np.diag(spectrum) @ u.T
    return 0.5 * (m + m.T)


@st.composite
def symmetric_matrices(draw):
    """Pairs (kind, M): symmetric n x n matrices, n = 1..6, of five kinds."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "repeated", "diagonal", "tiny-off", "scaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        diag = draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n))
        return kind, np.diag(diag)
    if kind == "repeated":
        values = rng.normal(size=draw(st.integers(1, n)))
        return kind, _rotated(rng.choice(values, size=n), seed=int(rng.integers(2**32)))
    if kind == "tiny-off":
        m = np.diag(rng.normal(size=n))
        exponents = rng.uniform(-300.0, -20.0, size=(n, n))
        off = np.triu(rng.choice([-1.0, 1.0], size=(n, n)) * 10.0**exponents, 1)
        return kind, m + off + off.T
    x = rng.normal(size=(n, n))
    if kind == "scaled":
        x = x * 10.0 ** draw(st.integers(-150, 150))
    return kind, x + x.T


@pytest.mark.filterwarnings("error")
class TestSymmetricEigenvalues:
    """`_semidefinite` against the smallest eigenvalue of the symmetric spectrum."""

    @settings(max_examples=300, deadline=None)
    @example(("diagonal", np.eye(4)))
    @example(("tiny-off", np.array([[1.0, 0.5, 1e-300], [0.5, 2.0, 1e-160], [1e-300, 1e-160, 3.0]])))
    @example(("scaled", np.array([[1e150, -3e149], [-3e149, 1e150]])))
    @given(symmetric_matrices())
    def test_matches_eigvalsh(self, case):
        kind, m = case
        lowest = np.diag(m).min() if kind == "diagonal" else np.linalg.eigvalsh(m).min()
        # Both the elimination and eigvalsh are backward stable: each answers
        # for a matrix within a few n * eps * max|m_ij| of M, so a smallest
        # eigenvalue that close to -PSD_TOLERANCE may fall either way.
        n = len(m)
        band = 8.0 * n * n * np.finfo(float).eps * np.max(np.abs(m))
        if abs(lowest + PSD_TOLERANCE) <= band:
            return
        assert _semidefinite(m.tolist()) is bool(lowest >= -PSD_TOLERANCE)

    def test_non_finite_input_rejected(self):
        nan, inf = math.nan, math.inf
        for m in ([[1.0, nan], [nan, 1.0]], [[nan, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, nan]],
                  [[1.0, 0.0], [0.0, inf]], [[nan, 0.0], [0.0, inf]]):
            assert _semidefinite(m) is False

    # The test is strict: M + PSD_TOLERANCE * I must be positive definite. The
    # shift lifts a zero pivot of a singular M, and a pivot of exactly zero fails.
    @pytest.mark.parametrize("m, semidefinite", [
        ([], True),
        ([[0.0] * 3] * 3, True),
        ([[1.0, 1.0], [1.0, 1.0]], True),
        ([[2.0, 0.0], [0.0, -0.5 * PSD_TOLERANCE]], True),
        ([[2.0, 0.0], [0.0, -PSD_TOLERANCE]], False),
        ([[-PSD_TOLERANCE]], False),
    ], ids=["0x0", "zero-3x3", "ones-2x2", "half-tolerance", "at-tolerance", "1x1-at-tolerance"])
    def test_boundary(self, m, semidefinite):
        assert _semidefinite(m) is semidefinite

    # PSD_TOLERANCE is 1e-9: an eigenvalue of -5e-10 is accepted, -2e-9 is not.
    # A diagonal goes through CostWeights; a rotated matrix, whose check now
    # guards only the Riccati solution P, goes through `_semidefinite`.
    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize(
        "spectrum",
        [[1.0, 1.0, 1.0, 1.0, -5e-10], [100.0, 100.0, 100.0, -5e-10]],
        ids=["I4+(-5e-10)", "100I3+(-5e-10)"],
    )
    def test_near_singular_q_accepted(self, spectrum, rotate):
        if rotate:
            assert _semidefinite(_rotated(spectrum, seed=len(spectrum)).tolist())
        else:
            CostWeights(spectrum, 1.0)

    @pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize(
        "spectrum",
        [[1.0, 1.0, 1.0, 1.0, -2e-9], [9.0, 9.0, -2e-9]],
        ids=["I4+(-2e-9)", "diag(9,9,-2e-9)"],
    )
    def test_indefinite_q_rejected(self, spectrum, rotate):
        if rotate:
            assert not _semidefinite(_rotated(spectrum, seed=len(spectrum)).tolist())
        else:
            with pytest.raises(ValidationError, match="Q must be positive semidefinite"):
                CostWeights(spectrum, 1.0)


class TestLyapunov:
    def test_known_scalar(self):
        # a = -1: -2p + q = 0 -> p = q/2
        assert solve_lyapunov([[-1.0]], [[4.0]]) == [[2.0]]

    def test_random_residuals(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
            s = rng.normal(size=(n, n))
            q = s @ s.T
            p = np.array(solve_lyapunov(a.tolist(), q.tolist()))
            npt.assert_allclose(a.T @ p + p @ a + q, np.zeros((n, n)), atol=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_scipy(self, n):
        # scipy solves A X + X A^H = Q, so A' P + P A + Q = 0 is (A', -Q).
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(200 + n)
        for _ in range(20):
            a = rng.normal(size=(n, n))
            a -= (max(np.linalg.eigvals(a).real) + rng.uniform(0.1, 2.0)) * np.eye(n)
            s = rng.normal(size=(n, n))
            q = s @ s.T
            p = np.array(solve_lyapunov(a.tolist(), q.tolist()))
            want = linalg.solve_continuous_lyapunov(a.T, -q)
            npt.assert_allclose(p, want, rtol=0.0, atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_solution_is_bitwise_symmetric(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            a = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
            k = rng.normal(size=(1, n))
            # K'K is symmetric only up to rounding of its two triangles
            p = np.array(solve_lyapunov(a.tolist(), (np.eye(n) + k.T @ (3.0 * k)).tolist()))
            npt.assert_array_equal(p, p.T)

    @pytest.mark.parametrize("a, q", [([[-1.0, 0.0]], [[1.0]]), ([[-1.0]], [[1.0, 0.0], [0.0, 1.0]]),
                                      ([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]])],
                             ids=["wide-a", "large-q", "narrow-q"])
    def test_mismatched_rows_rejected(self, a, q):
        with pytest.raises(ValidationError, match="square A and Q of equal size"):
            solve_lyapunov(a, q)

    def test_singular_operator_raises(self):
        # eigenvalues 1 and -1 sum to zero, so A'P + PA is singular
        with pytest.raises(NumericalError, match="Lyapunov system is singular"):
            solve_lyapunov([[1.0, 0.0], [0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]])


class TestSolveCare:
    def test_indefinite_solution_rejected(self, monkeypatch, capsys, tmp_path):
        # The paper-lqr P has eigenvalues 0.648 and 5.116: with the tolerance
        # at -1.0 the check asks for P - I > 0, which it fails.
        monkeypatch.setattr(riccati, "PSD_TOLERANCE", -1.0)
        monkeypatch.setenv("REGFORGE_OUT", str(tmp_path))
        plant = tf_to_ss(preset_tf("paper-rounded"))
        with pytest.raises(NumericalError, match="^Riccati solution is not positive semidefinite$"):
            solve_care(plant.a, plant.b, CostWeights([3.0, 3.0], 5.0))
        assert main(["synthesize", "--scenario", str(SCENARIOS / "paper-lqr.cfg")]) == 2
        assert capsys.readouterr().err == "numerical failure: Riccati solution is not positive semidefinite\n"

    def test_scalar_analytic(self):
        sol = solve_care(np.array([[-1.0]]), np.array([[1.0]]), CostWeights([1.0], 1.0))
        assert sol.p[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
        assert sol.residual_norm <= 1e-8

    def test_stable_plant_zero_q(self):
        sol = solve_care(PLANT_A, PLANT_B, CostWeights([0.0, 0.0], 1.0))
        npt.assert_allclose(sol.p, np.zeros((2, 2)), atol=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="q = 0 leaves the mode at the origin unseen, so no stabilizing solution exists; "
        "Newton-Kleinman halves K toward 0 and the absolute residual test accepts K = 9.5e-7 "
        "after 20 iterations",
    )
    def test_unseen_mode_at_origin_has_no_stabilizing_solution(self):
        with pytest.raises(NumericalError):
            solve_care([[0.0]], [[1.0]], CostWeights([0.0], 1.0))

    def test_reference_design_p_first_row(self):
        sol = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([8.0, 8.0], 1.0))
        npt.assert_allclose(sol.p[0], K_HIGH, atol=1e-9)

    def test_brute_force_oracle_agreement(self):
        oracle_p = care_2x2_bruteforce(PLANT_A, PLANT_B, 8.0 * np.eye(2), 1.0)
        sol = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([8.0, 8.0], 1.0))
        npt.assert_allclose(sol.p, oracle_p, atol=1e-6)

    def test_unstable_plant(self):
        a = np.array([[1.0, 2.0], [0.0, 0.5]])
        b = np.array([[0.0], [1.0]])
        sol = solve_care(a, b, CostWeights([1.0, 1.0], 1.0))
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
        sol = solve_care(a, b, CostWeights(np.zeros(len(a)), 1.0))
        npt.assert_allclose(sol.p, linalg.solve_continuous_are(a, b, q, np.eye(1)), atol=1e-10)
        assert is_hurwitz(char_poly(a - b @ sol.k))

    def test_residual_norm_is_the_public_residual(self):
        # The iteration computes its residual from the gain it holds; the
        # norm it reports must still be care_residual's, bit for bit.
        designs = [(model.a, model.b, CostWeights.diagonal(q_diag, r))
                   for model in (tf_to_ss(preset_tf(name)) for name in PRESETS)
                   for q_diag, r in (([3.0, 3.0], 5.0), ([8.0, 8.0], 1.0))]
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 4, 2, 3):
            a, b = random_controllable_siso(rng, n)
            designs.append((a, b, CostWeights(random_q_diag(rng, n), rng.uniform(0.3, 3.0))))
        for a, b, weights in designs:
            sol = solve_care(a, b, weights)
            norm = float(np.linalg.norm(care_residual(a.tolist(), b.ravel().tolist(), sol.p.tolist(),
                                                      weights.q.tolist(), float(weights.r[0, 0]))))
            assert sol.residual_norm == norm

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
            sol = solve_care(np.array([[a]]), np.array([[b]]), CostWeights([q], r))
            assert sol.p[0, 0] == pytest.approx(scalar_care(a, b, q, r), abs=1e-10)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q_diag, r", [([1e300, 1.0], 1.0)], ids=["huge-q"])
    def test_non_finite_residual_is_not_converged(self, q_diag, r):
        # The first residual overflows. Iterating on gives NaN residuals,
        # which compare False with any threshold: none may count as converged.
        # The overflow is reported by the error alone, with no numpy warning.
        with pytest.raises(CareConvergenceError, match="in 1 steps"):
            solve_care(PLANT_A, PLANT_B, CostWeights(q_diag, r))

    def test_multi_column_b_rejected(self):
        with pytest.raises(ValidationError, match="B must be 2x1"):
            solve_care(PLANT_A, np.eye(2), CostWeights([1.0, 1.0], 1.0))

    def test_2x2_oracle_100_random(self):
        # cond cap keeps |P| moderate so the absolute 1e-6 agreement bar
        # stays far above the float64 evaluation floor.
        rng = np.random.default_rng(12)
        for trial in range(100):
            a, b = random_controllable_siso(rng, 2, cond_limit=100.0)
            q_diag = random_q_diag(rng, 2)
            r = float(rng.uniform(0.5, 2.0))
            sol = solve_care(a, b, CostWeights(q_diag, r))
            oracle_p = care_2x2_bruteforce(a, b, np.diag(q_diag), r, seed=trial)
            npt.assert_allclose(sol.p, oracle_p, atol=1e-6)


def numpy_newton_kleinman(a, b, weights):
    """solve_care's iteration written on numpy arrays, with `@` products.

    Returns (P, K, iterations, residual norm), for a pair that converges.
    """
    q, r = weights.q, weights.r
    r_inv = 1.0 / r
    k = np.array([riccati._initial_stabilizing_gain(a, b)])
    residual = float("inf")
    for iterations in range(1, riccati.MAX_ITERATIONS + 1):
        p_next = np.array(solve_lyapunov((a - b @ k).tolist(), (q + k.T @ r @ k).tolist()))
        k_next = (b.T @ p_next) * r_inv
        square = 0.0
        for x in (a.T @ p_next + p_next @ a - p_next @ b @ k_next + q).ravel().tolist():
            square += x * x
        new_residual = math.sqrt(square)
        if not new_residual < residual and residual <= riccati.RESIDUAL_SUCCESS:
            break
        p, k, residual = p_next, k_next, new_residual
        if residual <= riccati.RESIDUAL_TARGET or not math.isfinite(residual):
            break
    return p, k, iterations, residual


def test_designs_keep_the_matmul_bits():
    # The iteration sums its products in index order on Python floats. On
    # the plants the program designs for (both presets with the paper's
    # weights, and plants within x0.5..x2 of the reference) that gives the
    # bits of the `@` products on the BLAS at hand, where a sha256 pin holds
    # only on the kernels it was taken on.
    designs = [(preset_tf(name), q_diag, r) for name in PRESETS
               for q_diag, r in (((3.0, 3.0), 5.0), ((8.0, 8.0), 1.0))]
    rng = np.random.default_rng(2400)
    ref = REFERENCE_PARAMS
    fields = dataclasses.fields(ref.generator)
    for i in range(200):
        scale = 2.0 ** rng.uniform(-1.0, 1.0, size=1 + len(fields))
        params = PlantParams(
            turbine=TurbineParams(tau_t=ref.turbine.tau_t * scale[0]),
            generator=GeneratorParams(**{f.name: getattr(ref.generator, f.name) * x
                                         for f, x in zip(fields, scale[1:])}),
        )
        q = 10.0 ** rng.uniform(0.0, 1.0)
        q_diag = (q, q) if i % 2 == 0 else (q, q * 10.0 ** rng.uniform(0.2, 0.8))
        designs.append((plant_tf(params), q_diag, 10.0 ** rng.uniform(-0.3, 1.0)))
    for tf, q_diag, r in designs:
        model = tf_to_ss(tf)
        weights = CostWeights.diagonal(q_diag, r)
        sol = solve_care(model.a, model.b, weights)
        p, k, iterations, residual = numpy_newton_kleinman(model.a, model.b, weights)
        assert sol.p.tobytes() == p.tobytes()
        assert sol.k.tobytes() == k.tobytes()
        assert (sol.iterations, sol.residual_norm.hex()) == (iterations, residual.hex())


class TestLqrGain:
    def test_reference_high_weight(self):
        k = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([8.0, 8.0], 1.0)).k
        npt.assert_allclose(k[0], K_HIGH, atol=1e-9)
        npt.assert_allclose(k[0], [1.7720, 2.0], atol=1e-3)

    def test_reference_low_weight(self):
        k = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([3.0, 3.0], 5.0)).k
        npt.assert_allclose(k[0], K_LOW, atol=1e-9)
        npt.assert_allclose(k[0], [0.2166, 0.2649], atol=1e-3)

    def test_zero_q_on_stable_plant(self):
        k = solve_care(PLANT_A, PLANT_B, CostWeights([0.0, 0.0], 1.0)).k
        npt.assert_allclose(k, np.zeros((1, 2)), atol=1e-12)

    def test_zero_q_on_unstable_plant(self):
        a = np.array([[1.0, 0.0], [0.0, -2.0]])
        b = np.array([[1.0], [1.0]])
        k = solve_care(a, b, CostWeights([0.0, 0.0], 1.0)).k
        npt.assert_allclose(k, [[2.0, 0.0]], atol=1e-10)

    def test_property_suite_random_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a, b = random_controllable_siso(rng, n)
            q_diag = random_q_diag(rng, n)
            r = float(rng.uniform(0.3, 3.0))
            sol = solve_care(a, b, CostWeights(q_diag, r))
            res = care_residual(a.tolist(), b.ravel().tolist(), sol.p.tolist(), np.diag(q_diag).tolist(), r)
            assert np.linalg.norm(res) <= 1e-8
            npt.assert_array_equal(sol.p, sol.p.T)
            assert np.min(np.linalg.eigvalsh(sol.p)) >= -1e-9
            k = (b.T @ sol.p) / r
            assert np.max(np.linalg.eigvals(a - b @ k).real) < 0.0
            assert is_hurwitz(char_poly(a - b @ k))
