import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regforge.errors import NumericalError, ValidationError
from regforge.observer import build_observer_controller, design_observer_gain, luenberger_loop, place_poles
from regforge.riccati import CostWeights, solve_care
from regforge.sim import reference_prescaler, state_feedback_loop
from regforge.lti import (
    Polynomial,
    START_ANGLE,
    _durand_kerner,
    StateSpaceModel,
    TransferFunction,
    char_poly,
    dc_gain,
    eigenvalues,
    feedback_interconnect,
    is_hurwitz,
    lu_factor,
    lu_solve,
    ordered_dot,
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


def vectorized_durand_kerner(coeffs, max_iter=200, tol=1e-12) -> np.ndarray:
    """Reference for `_durand_kerner`: the same iteration on numpy arrays.

    Same start points (Aberth's circle about the root centroid, with the
    same fallback), simultaneous Weierstrass update and Horner order; it
    stops on the absolute rule max |dz| < tol and reports nothing.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if c.size <= 1:
        return np.array([], dtype=complex)
    monic = (c / c[0]).astype(complex)
    n = monic.size - 1
    if n == 1:
        return np.array([-monic[1]])
    centre = -monic[1].real / n
    radius = np.abs(np.polyval(monic.real, centre)) ** (1.0 / n)
    if 0.0 < radius < np.inf:
        z = centre + radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n + START_ANGLE))
    else:
        radius = 1.0 + np.max(np.abs(monic[1:]))
        z = radius * (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(max_iter):
        pz = np.polyval(monic, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        delta = pz / np.prod(diff, axis=1)
        z = z - delta
        if np.max(np.abs(delta)) < tol:
            break
    return z


def separated_roots(n, pairs, scale, seed):
    """n roots, `pairs` of them conjugate pairs, all at least 0.5 * 10**scale apart, or None."""
    rng = np.random.default_rng(seed)
    pairs = min(pairs, n // 2)
    re, im = rng.uniform(-4.0, 4.0, size=n - pairs), rng.uniform(0.5, 4.0, size=pairs)
    want = np.concatenate([re[pairs:], re[:pairs] + 1j * im, re[:pairs] - 1j * im])
    gaps = np.abs(want[:, None] - want[None, :]) + np.eye(n)
    return want * 10.0**scale if np.min(gaps) > 0.5 else None


def array_routh_hurwitz(p: Polynomial) -> bool:
    """Reference for `is_hurwitz`: the whole Routh table as one numpy array."""
    c = np.array(p.coeffs)
    if c[0] < 0:
        c = -c
    n = len(c) - 1
    width = (n // 2) + 1
    rows = np.zeros((n + 1, width + 1))
    rows[0, : len(c[0::2])] = c[0::2]
    rows[1, : len(c[1::2])] = c[1::2]
    with np.errstate(all="ignore"):
        for k in range(2, n + 1):
            pivot = rows[k - 1, 0]
            if pivot == 0.0:
                return False
            ratio = rows[k - 2, 0] / pivot
            rows[k, :width] = rows[k - 2, 1 : width + 1] - ratio * rows[k - 1, 1 : width + 1]
    return bool(np.all(rows[:, 0] > 0.0))


def scaled_floats(max_exp: int):
    """m * 10**e with |m| <= 10 and |e| <= max_exp."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-max_exp, max_exp))


# A coefficient for the Routh property: small integers reach exact zero
# pivots, scaled floats the range 1e-150 .. 1e150.
routh_coefficient = st.one_of(st.integers(-3, 3).map(float), scaled_floats(150))


class TestPolynomial:
    def test_trims_leading_zeros(self):
        p = Polynomial([0.0, 0.0, 1.0, 2.0])
        npt.assert_array_equal(p.coeffs, [1.0, 2.0])
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = Polynomial([0.0, 0.0])
        assert p.is_zero
        assert p.degree == 0
        assert Polynomial([-0.0]).coeffs == (0.0,)

    @pytest.mark.parametrize("coeffs", [[], [[1.0, 2.0]], np.ones((2, 1)), 3.0, [1.0 + 1.0j]],
                             ids=["empty", "nested", "column", "scalar", "complex"])
    def test_rejects_what_is_not_a_sequence_of_reals(self, coeffs):
        with pytest.raises(ValidationError, match="non-empty 1-D sequence"):
            Polynomial(coeffs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            Polynomial([1.0, bad])

    def test_multiplication(self):
        prod = Polynomial([2.0, 1.0]) * Polynomial([7.0, 14.0])
        npt.assert_allclose(prod.coeffs, [14.0, 35.0, 14.0])

    def test_product_is_summed_in_index_order(self):
        # Each coefficient is a sum in index order on Python floats, so its
        # bits do not depend on the CPU. np.convolve's BLAS dot gives
        # 0.12000000000000001 and 1.8599999999999999 here on AVX-512 kernels.
        prod = Polynomial([0.1, 0.1, 0.1]) * Polynomial([0.1, 0.1, 1.1])
        assert prod.coeffs[3] == 0.12000000000000002
        prod = Polynomial([0.9, 1.7, -0.4]) * Polynomial([1.2, -0.2, 1.7])
        assert prod.coeffs == (1.08, 1.86, 0.71, 2.9699999999999998, -0.68)

    def test_roots_match_numpy_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            coeffs = rng.uniform(-3, 3, size=rng.integers(2, 6))
            coeffs[0] = rng.uniform(0.5, 2.0)
            assert_root_sets_close(Polynomial(coeffs).roots(), np.roots(coeffs), atol=1e-7)

    def test_roots_keep_array_type(self):
        roots = Polynomial([1.0, 3.0, 2.0]).roots()
        assert isinstance(roots, np.ndarray) and roots.dtype == complex
        assert eigenvalues(PLANT_A).dtype == complex

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


class TestDurandKerner:
    @pytest.mark.parametrize("roots", [[-1e5, -2e5], [1e5, 2e5], [-1e6, -2e6]])
    def test_large_roots_converge_on_relative_steps(self, roots):
        # |z| >= 1e5: one ulp of z exceeds an absolute 1e-12 step, so that
        # rule can only end at the iteration cap on these polynomials.
        coeffs = [1.0, -(roots[0] + roots[1]), roots[0] * roots[1]]
        found, iterations, converged = _durand_kerner(coeffs)
        assert converged and iterations < 50
        assert_root_sets_close(found, roots, atol=0.0, rtol=1e-15)

    def test_triple_root_reports_the_cap(self):
        roots, iterations, converged = _durand_kerner([1.0, -6.0, 12.0, -8.0])
        assert (iterations, converged) == (200, False)
        assert np.max(np.abs(roots - 2.0)) < 1e-4

    def test_linear_and_constant(self):
        roots, iterations, converged = _durand_kerner([2.0, -3.0])
        npt.assert_array_equal(roots, [1.5])
        assert (iterations, converged) == (0, True)
        assert _durand_kerner([4.0])[0].size == 0

    def test_leading_zeros_are_stripped(self):
        for coeffs in ([1.0, -3.0, 2.0], [2.0, -3.0], [4.0]):
            stripped = _durand_kerner(coeffs)
            padded = _durand_kerner([0.0, -0.0, *coeffs])
            npt.assert_array_equal(padded[0], stripped[0])
            assert padded[1:] == stripped[1:]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs", [[1e-300, 1.0, 1e300]], ids=["monic-overflow"])
    def test_overflow_is_a_numerical_error(self, coeffs):
        with pytest.raises(NumericalError):
            Polynomial(coeffs).roots()

    @pytest.mark.filterwarnings("error")
    def test_huge_representable_roots_are_found(self):
        # s^4 + 1e300: Aberth's circle has radius |p(0)|**(1/4) = 1e75, the
        # roots' own; on the circle of radius 1 + 1e300 Horner overflows.
        roots, iterations, converged = _durand_kerner([1.0, 0.0, 0.0, 0.0, 1e300])
        want = 1e75 * np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))
        assert converged
        assert_root_sets_close(roots, want, atol=0.0, rtol=1e-12)

    def test_spread_real_roots_converge(self):
        # On the fallback circle, of radius 1 + max|a_k| = 7.9e19 here, these
        # stop at the 200-sweep cap with roots off by a relative 9.9.
        a = np.diag([-1000.0, -1500.0, -2000.0, -2500.0, -3000.0, -3500.0])
        _, iterations, converged = _durand_kerner(char_poly(a).coeffs)
        assert converged and iterations <= 20
        assert_root_sets_close(eigenvalues(a), np.diag(a), atol=0.0, rtol=1e-12)

    def test_separated_roots_converge_for_every_seed(self):
        # Every (n, pairs, scale) cell of the property below, about 18 seeds
        # each; from the fallback start 35 of these 2,490 cases stop at the cap.
        cases = 0
        for seed in range(3000):
            n, pairs, scale = 1 + seed % 6, seed // 6 % 4, seed // 24 % 7 - 3
            want = separated_roots(n, pairs, scale, seed)
            if want is None:
                continue
            cases += 1
            p = Polynomial.from_roots(want)
            roots, iterations, converged = _durand_kerner(p.coeffs)
            assert converged, (n, pairs, scale, seed, iterations)
            assert_root_sets_close(roots, np.roots(p.coeffs), atol=1e-12, rtol=1e-12)
        assert cases > 2000

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), scaled_floats(300)), min_size=2, max_size=7))
    def test_extreme_magnitudes_give_finite_roots_or_numerical_error(self, coeffs):
        p = Polynomial(coeffs)
        try:
            roots = p.roots()
        except NumericalError:
            return
        assert roots.size == p.degree and np.all(np.isfinite(roots))

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 3), st.integers(-3, 3), st.integers(0, 2**32 - 1))
    @example(n=6, pairs=1, scale=3, seed=125)  # from the fallback start both stop at the same wrong roots
    def test_matches_vectorized_reference_on_separated_roots(self, n, pairs, scale, seed):
        want = separated_roots(n, pairs, scale, seed)
        assume(want is not None)
        p = Polynomial.from_roots(want)
        roots = p.roots()
        assert_root_sets_close(roots, vectorized_durand_kerner(p.coeffs), atol=1e-12, rtol=1e-12)
        assert_root_sets_close(roots, np.roots(p.coeffs), atol=1e-12, rtol=1e-12)


class TestTransferFunction:
    def test_rejects_zero_denominator(self):
        with pytest.raises(ValidationError):
            TransferFunction([1.0], [0.0])

    def test_normalized_monic(self):
        g = TransferFunction([256.0], [14.0, 35.0, 14.0]).normalized()
        npt.assert_allclose(g.den.coeffs, [1.0, 2.5, 1.0])
        npt.assert_allclose(g.num.coeffs, [256.0 / 14.0])

    def test_properness_flags(self):
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
        # Models are SISO by construction, so ss_to_tf never sees a MIMO one.
        with pytest.raises(ValidationError, match=r"^B must be 2x1, got \(2, 2\)$"):
            StateSpaceModel(np.eye(2) * -1.0, np.eye(2), [1.0, 0.0])
        with pytest.raises(ValidationError, match=r"^C must be 1x2, got \(2, 2\)$"):
            StateSpaceModel(np.eye(2) * -1.0, [1.0, 0.0], np.eye(2))
        with pytest.raises(ValidationError, match=r"^D must be 1x1, got \(1, 2\)$"):
            StateSpaceModel(np.eye(2) * -1.0, [1.0, 0.0], [1.0, 0.0], [[0.0, 0.0]])

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
                num = Polynomial.from_roots(random_stable_poles(rng, num_deg)).scaled(rng.uniform(0.5, 3.0))
            g = TransferFunction(num, den)
            back = ss_to_tf(tf_to_ss(g)).normalized()
            ref = g.normalized()
            num_ref = np.pad(ref.num.coeffs, (len(back.num.coeffs) - len(ref.num.coeffs), 0))
            scale = max(1.0, np.max(np.abs(ref.den.coeffs)), np.max(np.abs(num_ref)))
            assert np.max(np.abs(np.subtract(back.den.coeffs, ref.den.coeffs))) < 1e-9 * scale
            assert np.max(np.abs(back.num.coeffs - num_ref)) < 1e-9 * scale

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, n, num_deg, seed):
        # Gaussian coefficients, biproper included. Faddeev-LeVerrier's error
        # in the coefficient of s^(n-j) grows like r^j with r the largest
        # monic denominator coefficient, so each position is weighted by it.
        rng = np.random.default_rng(seed)
        g = TransferFunction(rng.normal(size=min(num_deg, n) + 1), rng.normal(size=n + 1))
        ref = g.normalized()
        back = ss_to_tf(tf_to_ss(g))
        assert back.den.coeffs[0] == 1.0
        num_ref, num_back = (np.pad(c, (n + 1 - len(c), 0))
                             for c in (ref.num.coeffs, back.num.coeffs))
        weight = max(1.0, np.max(np.abs(ref.den.coeffs))) ** np.arange(n + 1)
        num_scale = max(1.0, np.max(np.abs(num_ref)))
        assert np.all(np.abs(np.subtract(back.den.coeffs, ref.den.coeffs)) <= 1e-13 * weight)
        assert np.all(np.abs(num_back - num_ref) <= 1e-13 * weight * num_scale)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("root, hurwitz", [(-1e62, True), (-1e75, True), (1e62, False)])
    def test_large_coefficients_do_not_overflow_the_table(self, root, hurwitz):
        # (s - root)^4 has coefficients up to root^4; the table divides
        # before it multiplies, so no entry overflows on the way.
        assert is_hurwitz(Polynomial.from_roots([root] * 4)) is hurwitz

    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(routh_coefficient, min_size=2, max_size=7))
    @example([1.0, 1.0, 1.0, 1.0])  # zero pivot in the s^1 row
    @example([-1.0, -2.5, -1.0])
    @example([-2.0, 1.0, -3.0, -1.0])
    @example([1e150, 1e-150, 1e150, 1e-150, 1e150])
    def test_matches_array_routh_table(self, coeffs):
        p = Polynomial(coeffs)
        assume(p.degree >= 1)
        assert is_hurwitz(p) == array_routh_hurwitz(p)

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

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.floats(-3.0, 3.0),
    )
    def test_char_poly_verdict_agrees_with_eigvals(self, n, seed, shift):
        a = np.random.default_rng(seed).normal(size=(n, n)) - shift * np.eye(n)
        real = np.linalg.eigvals(a).real
        assume(np.min(np.abs(real)) > 1e-9)
        assert is_hurwitz(char_poly(a)) == bool(np.all(real < 0.0))

    @pytest.mark.xfail(
        strict=True,
        reason="Faddeev-LeVerrier returns +1.7e-17 for the constant coefficient, "
        "whose exact value is -2e-16, so the Routh table misses the eigenvalue at +3.5e-9",
    )
    def test_char_poly_verdict_with_two_eigenvalues_near_origin(self):
        a = np.array([
            [0.0, 1e-8, 4.0, 0.0],
            [0.0, 0.0, -2.0, 0.0],
            [0.5, 2.0, -1.0, 1e-8],
            [-1.0, 0.0, 0.0, 0.0],
        ])
        assert np.max(np.linalg.eigvals(a).real) > 3e-9
        assert not is_hurwitz(char_poly(a))


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
        with pytest.raises(TypeError):
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


# Every design and loop entry point checks the SISO contract through lti's
# helpers: one message per fault, whichever entry point meets it.
WIDE, SQUARE = np.ones((2, 3)), np.eye(2)
GAIN_K, GAIN_H, POLES, LUENBERGER = [[1.0, 2.0]], [[1.0], [2.0]], [-1.0, -2.0], "standard-luenberger"
STRICT = StateSpaceModel(PLANT_A, PLANT_B, PLANT_C)
WITH_D = StateSpaceModel(PLANT_A, PLANT_B, PLANT_C, [[1.0]])
WEIGHTS = CostWeights([1.0, 1.0], 1.0)
A_FAULT = r"^A must be square, got \(2, 3\)$"
B_FAULT, H_FAULT = r"^B must be 2x1, got \(2, 2\)$", r"^observer gain must be 2x1, got \(2, 2\)$"
C_FAULT, K_FAULT = r"^C must be 1x2, got \(2, 2\)$", r"^state-feedback gain must be 1x2, got \(2, 2\)$"
FEEDTHROUGH = "^plants with direct feedthrough are unsupported$"

CONTRACT_CASES = {
    "model-a": (lambda: StateSpaceModel(WIDE, PLANT_B, PLANT_C), A_FAULT),
    "model-b": (lambda: StateSpaceModel(PLANT_A, SQUARE, PLANT_C), B_FAULT),
    "model-c": (lambda: StateSpaceModel(PLANT_A, PLANT_B, SQUARE), C_FAULT),
    "model-d": (lambda: StateSpaceModel(PLANT_A, PLANT_B, PLANT_C, [[0.0, 0.0]]),
                r"^D must be 1x1, got \(1, 2\)$"),
    "char_poly-a": (lambda: char_poly(WIDE), A_FAULT),
    "solve_care-a": (lambda: solve_care(WIDE, PLANT_B, WEIGHTS), A_FAULT),
    "solve_care-b": (lambda: solve_care(PLANT_A, SQUARE, WEIGHTS), B_FAULT),
    "place_poles-a": (lambda: place_poles(WIDE, PLANT_B, POLES), A_FAULT),
    "place_poles-b": (lambda: place_poles(PLANT_A, SQUARE, POLES), B_FAULT),
    "design_observer_gain-a": (lambda: design_observer_gain(WIDE, PLANT_C, POLES), A_FAULT),
    "design_observer_gain-c": (lambda: design_observer_gain(PLANT_A, SQUARE, POLES), C_FAULT),
    "build_observer_controller-k": (
        lambda: build_observer_controller(STRICT, SQUARE, GAIN_H, LUENBERGER), K_FAULT),
    "build_observer_controller-h": (
        lambda: build_observer_controller(STRICT, GAIN_K, SQUARE, LUENBERGER), H_FAULT),
    "build_observer_controller-d": (
        lambda: build_observer_controller(WITH_D, GAIN_K, GAIN_H, LUENBERGER), FEEDTHROUGH),
    "luenberger_loop-k": (lambda: luenberger_loop(STRICT, SQUARE, GAIN_H), K_FAULT),
    "luenberger_loop-h": (lambda: luenberger_loop(STRICT, GAIN_K, SQUARE), H_FAULT),
    "luenberger_loop-d": (lambda: luenberger_loop(WITH_D, GAIN_K, GAIN_H), FEEDTHROUGH),
    "state_feedback_loop-k": (lambda: state_feedback_loop(STRICT, SQUARE), K_FAULT),
    "state_feedback_loop-d": (lambda: state_feedback_loop(WITH_D, GAIN_K), FEEDTHROUGH),
    "reference_prescaler-k": (lambda: reference_prescaler(STRICT, SQUARE), K_FAULT),
    "reference_prescaler-d": (lambda: reference_prescaler(WITH_D, GAIN_K), FEEDTHROUGH),
}


class TestSisoContract:
    @pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
    def test_entry_point_rejects_with_the_shared_message(self, case):
        call, message = CONTRACT_CASES[case]
        with pytest.raises(ValidationError, match=message):
            call()

    def test_char_poly_of_an_empty_matrix_is_one(self):
        # the size test comes before the square test: a 2 x 0 A is empty, not wide
        assert char_poly(np.zeros((2, 0))).coeffs == (1.0,)
        assert char_poly(np.zeros((0, 0))).coeffs == (1.0,)

    def test_a_scalar_is_one_by_one(self):
        ss = StateSpaceModel(-1.0, 2.0, 3.0, 0.0)
        assert (ss.a.shape, ss.b.shape, ss.c.shape, ss.d.shape) == ((1, 1),) * 4
        assert state_feedback_loop(ss, 0.5).a[0, 0] == -2.0


# Polynomial and eigen-solvers outside the paper's methods: numpy's and
# scipy's stay test oracles, so no speed-up can swap them into the library.
FOREIGN_SOLVERS = re.compile(r"\b(np|numpy)\.roots\b|\b(np|numpy)\.poly\(|\blinalg\.eig|\bscipy\b")


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "src" / "regforge").glob("*.py")),
                         ids=lambda p: p.name)
def test_library_uses_only_its_own_solvers(path):
    hits = [f"{path.name}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if FOREIGN_SOLVERS.search(line)]
    assert not hits, "\n".join(hits)


class TestLu:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 21])
    def test_solve_matches_lapack(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(20):
            a = rng.normal(size=(n, n))
            x = rng.normal(size=n)
            b = a @ x
            lu, perm, rank = lu_factor(a.tolist())
            assert rank == n
            got = np.array(lu_solve(lu, perm, b.tolist()))
            want = np.linalg.solve(a, b)
            bound = 1e-13 * np.linalg.cond(a) * np.abs(want).max()
            assert np.abs(got - want).max() <= bound

    def test_factors_reproduce_the_permuted_matrix(self):
        rng = np.random.default_rng(36)
        a = rng.normal(size=(5, 5))
        lu, perm, rank = lu_factor(a.tolist())
        lu = np.array(lu)
        lower = np.tril(lu, -1) + np.eye(5)
        upper = np.triu(lu)
        npt.assert_allclose(lower @ upper, a[perm], rtol=0.0, atol=1e-14 * np.abs(a).max())
        # partial pivoting: no multiplier exceeds 1 in magnitude
        assert np.abs(np.tril(lu, -1)).max() <= 1.0

    @pytest.mark.parametrize("rows, rank", [
        ([[0.0, 0.0], [0.0, 0.0]], 0),
        ([[1.0, 2.0], [2.0, 4.0]], 1),
        ([[0.0, 1.0], [0.0, 3.0]], 1),
        ([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 5.0]], 2),
        ([[np.nan, 1.0], [1.0, 0.0]], 1),
    ], ids=["zero", "dependent-rows", "zero-column", "zero-row", "nan-pivot"])
    def test_rank_counts_pivots(self, rows, rank):
        assert lu_factor(rows)[2] == rank

    def test_tolerance_drops_small_pivots(self):
        rows = [[1.0, 1.0], [1.0, 1.0 + 1e-10]]
        assert lu_factor([r[:] for r in rows])[2] == 2
        assert lu_factor([r[:] for r in rows], tol=1e-9)[2] == 1

    def test_ordered_dot_adds_in_index_order(self):
        # Left to right from 0.0: 1 - 1e17 rounds to -1e17, so the 1 is lost
        # unless the large terms cancel first.
        assert ordered_dot([1.0, -1e17, 1e17], [1.0, 1.0, 1.0]) == 0.0
        assert ordered_dot([-1e17, 1e17, 1.0], [1.0, 1.0, 1.0]) == 1.0
        assert ordered_dot([], []) == 0.0
