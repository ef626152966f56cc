"""Continuous algebraic Riccati equation and LQR gain synthesis.

solve_care finds the stabilizing solution of

    A'P + PA - P B R^-1 B' P + Q = 0

by Newton-Kleinman iteration: starting from any stabilizing gain K0, each
step solves the Lyapunov equation (A-BK)'P + P(A-BK) + Q + K'RK = 0 for P
through its Kronecker-vectorized linear system (fine for the n <= 6
matrices this toolkit sees, and quadratically convergent). K0 is zero when
A is already Hurwitz, otherwise it comes from pole placement at
-1, -2, ..., -n.

Tolerances: iteration aims for a residual of 1e-12 so that scalar cases
agree with the analytic root to 1e-10; success requires the Frobenius
residual norm <= 1e-8, P symmetric (enforced by averaging each step) and
positive semidefinite, and A - BK Hurwitz for the returned gain
K = R^-1 B' P.

Semidefiniteness of Q, R and P is judged from their spectra, computed by
cyclic Jacobi rotations (`_symmetric_eigenvalues`): exact on diagonal
weights and quadratically convergent on repeated eigenvalues, where a
polynomial root finder stalls. Hurwitz checks go through char_poly and the
Routh table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CareConvergenceError, NumericalError, ValidationError
from .lti import char_poly, is_hurwitz
from .observer import place_poles

__all__ = [
    "CostWeights",
    "RiccatiSolution",
    "solve_lyapunov",
    "care_residual",
    "solve_care",
]

RESIDUAL_SUCCESS = 1e-8
RESIDUAL_TARGET = 1e-12
MAX_ITERATIONS = 50
PSD_TOLERANCE = 1e-9
JACOBI_TOLERANCE = 1e-15
JACOBI_MAX_SWEEPS = 30


def _symmetric_eigenvalues(m: np.ndarray) -> np.ndarray:
    # Cyclic Jacobi (Golub and Van Loan, Matrix Computations, 8.5): sweep the
    # pairs (p, q) in row order and zero each a_pq with one rotation, until
    # the off-diagonal Frobenius norm is within JACOBI_TOLERANCE of ||M||.
    # The matrix is first scaled by a power of two to max|a| in [0.5, 1), so
    # no square can overflow; a diagonal input takes no sweep and is
    # returned exactly.
    n = m.shape[0]
    peak = float(np.abs(m).max(initial=0.0))
    if not math.isfinite(peak):
        raise NumericalError("symmetric eigenvalue input is not finite")
    exponent = math.frexp(peak)[1]
    a = np.ldexp(m, -exponent).tolist()
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    limit = JACOBI_TOLERANCE**2 * sum(x * x for row in a for x in row)
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        if 2.0 * sum(a[p][q] * a[p][q] for p, q in pairs) <= limit:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise NumericalError(f"Jacobi rotations did not converge in {sweep} sweeps")
        for p, q in pairs:
            apq = a[p][q]
            if apq == 0.0:
                continue
            # t = sign(theta) / (|theta| + hypot(1, theta)) for
            # theta = d / (2 a_pq), multiplied through by 2 |a_pq| so that
            # theta, which overflows for a nearly zeroed pair, is never formed.
            d = a[q][q] - a[p][p]
            t = math.copysign(2.0, d) * apq / (abs(d) + math.hypot(d, 2.0 * apq))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            a[p][p] -= t * apq
            a[q][q] += t * apq
            a[p][q] = a[q][p] = 0.0
            for r in range(n):
                if r != p and r != q:
                    g, h = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = c * g - s * h
                    a[r][q] = a[q][r] = s * g + c * h
    if sweep == 0:
        return m.diagonal().copy()
    return np.ldexp([a[i][i] for i in range(n)], exponent)


@dataclass(frozen=True)
class CostWeights:
    """State weight Q (symmetric PSD) and input weight R (symmetric PD).

    Inputs are symmetrized as (M + M')/2 before validation, so a weight
    with stray asymmetry yields exactly the same synthesis as its
    symmetric part.
    """

    q: np.ndarray
    r: np.ndarray

    def __init__(self, q, r):
        q = np.atleast_2d(np.asarray(q, dtype=float))
        r = np.atleast_2d(np.asarray(r, dtype=float))
        if q.shape[0] != q.shape[1] or r.shape[0] != r.shape[1]:
            raise ValidationError("cost weights must be square matrices")
        if not (np.isfinite(q).all() and np.isfinite(r).all()):
            raise ValidationError("cost weights must be finite")
        q = 0.5 * (q + q.T)
        r = 0.5 * (r + r.T)
        if q.size and _symmetric_eigenvalues(q).min() < -PSD_TOLERANCE:
            raise ValidationError("Q must be positive semidefinite")
        if r.size == 0 or _symmetric_eigenvalues(r).min() <= 0.0:
            raise ValidationError("R must be positive definite")
        q.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @classmethod
    def diagonal(cls, q_diag, r) -> "CostWeights":
        """Weights from a state-weight diagonal and a scalar (or matrix) R."""
        return cls(np.diag(np.atleast_1d(np.asarray(q_diag, dtype=float))), r)


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Stabilizing CARE solution, its LQR gain K = R^-1 B' P, and diagnostics."""

    p: np.ndarray
    k: np.ndarray
    residual_norm: float
    iterations: int

    def __post_init__(self):
        for name in ("p", "k"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A'P + PA + Q = 0 via the Kronecker-vectorized linear system."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise ValidationError("Lyapunov equation needs square A and Q of equal size")
    # kron(A', I) + kron(I, A') as one broadcast product, indexed [i, k, j, l].
    at = a.T
    eye = np.eye(n)
    lhs = at[:, None, :, None] * eye[None, :, None, :] + eye[:, None, :, None] * at[None, :, None, :]
    lhs = lhs.reshape(n * n, n * n)
    try:
        vec_p = np.linalg.solve(lhs, -q.reshape(n * n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Lyapunov system is singular: {exc}") from exc
    return vec_p.reshape(n, n)


def care_residual(a, b, p, q, r) -> np.ndarray:
    """Residual matrix A'P + PA - P B R^-1 B' P + Q."""
    return _residual(a, b, p, q, np.linalg.solve(r, b.T @ p))


def _residual(a, b, p, q, rinv_btp) -> np.ndarray:
    # care_residual with R^-1 B' P given, as solve_care holds it in its gain.
    return a.T @ p + p @ a - p @ b @ rinv_btp + q


def _initial_stabilizing_gain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = b.shape
    if n == 0 or is_hurwitz(char_poly(a)):
        return np.zeros((m, n))
    targets = [-(i + 1.0) for i in range(n)]
    if m == 1:
        return place_poles(a, b, targets)
    # Multi-input with unstable A: stabilize through any single column
    # that is controllable on its own.
    for j in range(m):
        col = b[:, j : j + 1]
        try:
            k_row = place_poles(a, col, targets)
        except ValidationError:
            continue
        k0 = np.zeros((m, n))
        k0[j, :] = k_row[0, :]
        return k0
    raise CareConvergenceError(
        "could not construct an initial stabilizing gain for the multi-input pair",
        residual=float("inf"),
    )


def solve_care(a, b, weights: CostWeights) -> RiccatiSolution:
    """Stabilizing solution of the CARE by Newton-Kleinman iteration.

    Raises CareConvergenceError when the residual stays above 1e-8 after
    the iteration cap, and NumericalError if the converged P fails the
    symmetric-PSD check or A - BK fails the Hurwitz check.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValidationError("A must be square and B must have matching rows")
    q, r = weights.q, weights.r
    m = b.shape[1]
    if q.shape != (n, n):
        raise ValidationError(f"Q must be {n}x{n}, got {q.shape}")
    if r.shape != (m, m):
        raise ValidationError(f"R must be {m}x{m}, got {r.shape}")

    # P = 0 is not a Newton-Kleinman iterate, so the first iterate is always
    # taken, and k always holds R^-1 B' P for the p beside it.
    k = _initial_stabilizing_gain(a, b)
    p = np.zeros((n, n))
    residual = float("inf")
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        a_cl = a - b @ k
        rhs = q + k.T @ r @ k
        p_next = solve_lyapunov(a_cl, rhs)
        p_next = 0.5 * (p_next + p_next.T)
        k_next = np.linalg.solve(r, b.T @ p_next)
        new_residual = float(np.linalg.norm(_residual(a, b, p_next, q, k_next)))
        if new_residual >= residual and residual <= RESIDUAL_SUCCESS:
            # Rounding floor reached; keep the better iterate.
            break
        p, k, residual = p_next, k_next, new_residual
        if residual <= RESIDUAL_TARGET:
            break
    if residual > RESIDUAL_SUCCESS:
        raise CareConvergenceError(
            f"Riccati iteration did not converge in {iterations} steps", residual=residual
        )

    if n > 0:
        if np.abs(p - p.T).max() > 1e-10:
            raise NumericalError("Riccati solution lost symmetry")
        if _symmetric_eigenvalues(p).min() < -PSD_TOLERANCE:
            raise NumericalError("Riccati solution is not positive semidefinite")
        if not is_hurwitz(char_poly(a - b @ k)):
            raise NumericalError("closed loop A - BK is not Hurwitz after synthesis")
    return RiccatiSolution(p=p, k=k, residual_norm=residual, iterations=iterations)
