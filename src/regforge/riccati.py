"""Continuous algebraic Riccati equation and LQR gain synthesis.

solve_care finds the stabilizing solution of

    A'P + PA - P B R^-1 B' P + Q = 0

for a single-input pair (B is n x 1), with a diagonal state weight
Q = diag(q) and a scalar input weight R = r, by Newton-Kleinman
iteration (Kleinman 1968): starting from a stabilizing gain K0, each
step solves the Lyapunov equation (A-BK)'P + P(A-BK) + Q + K'RK = 0 for
P, and the iteration converges quadratically. `solve_lyapunov` writes that
equation as a linear system on the n(n+1)/2 unknowns p_ij, i <= j, of the
symmetric P (3 for a second-order plant) and solves it with the partial-
pivoting LU of `lti`, so P is exactly symmetric and its bits do not depend
on the BLAS kernel. Elimination costs grow as (n(n+1)/2)^3: cheaper than
LAPACK's call overhead at n = 2, dearer from n = 4 on. K0 is zero when A
is already Hurwitz, otherwise it comes from pole placement at -1, -2, ...,
-n.

Tolerances: iteration aims for a residual of 1e-12 so that scalar cases
agree with the analytic root to 1e-10; success requires the Frobenius
residual norm <= 1e-8 (summed in index order; a non-finite residual stops
the iteration and fails), P symmetric and positive semidefinite, and
A - BK Hurwitz for the returned gain K = B'P / r, formed as B'P times 1/r.

The weights are checked by sign: q >= -PSD_TOLERANCE entrywise and r > 0,
with 1/r finite.
Semidefiniteness of P is judged from its spectrum, computed by cyclic
Jacobi rotations (`_symmetric_eigenvalues`): quadratically convergent on
repeated eigenvalues, where a polynomial root finder stalls. Hurwitz
checks go through char_poly and the Routh table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CareConvergenceError, NumericalError, ValidationError
from .lti import char_poly, is_hurwitz, lu_factor, lu_solve, ordered_dot
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
    """State weight Q = diag(q_diag) (q_diag >= 0) and input weight R = [[r]] (r > 0).

    Both are stored as read-only matrices. Entries of q_diag down to
    -PSD_TOLERANCE are accepted as rounding of zero; an r whose reciprocal
    overflows (a subnormal r) is rejected.
    """

    q: np.ndarray
    r: np.ndarray

    def __init__(self, q_diag, r):
        q_diag = np.array(q_diag, dtype=float, ndmin=1)
        if q_diag.ndim != 1 or np.ndim(r) != 0:
            raise ValidationError("cost weights are a 1-D diagonal of Q and a scalar R")
        r = float(r)
        if not (np.isfinite(q_diag).all() and math.isfinite(r)):
            raise ValidationError("cost weights must be finite")
        if q_diag.min(initial=0.0) < -PSD_TOLERANCE:
            raise ValidationError("Q must be positive semidefinite")
        if not r > 0.0:
            raise ValidationError("R must be positive definite")
        # solve_care multiplies by 1/r; a subnormal r makes it overflow.
        if not math.isfinite(1.0 / r):
            raise ValidationError(f"R must have a finite reciprocal, got {r!r}")
        q = np.diag(q_diag)
        r = np.array([[r]])
        q.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @classmethod
    def diagonal(cls, q_diag, r) -> "CostWeights":
        """Weights from a state-weight diagonal and a scalar R."""
        return cls(q_diag, r)


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Stabilizing CARE solution, its LQR gain K = B'P / r, and diagnostics."""

    p: np.ndarray
    k: np.ndarray
    residual_norm: float
    iterations: int

    def __post_init__(self):
        for name in ("p", "k"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@functools.lru_cache(maxsize=8)
def _lyapunov_index(n: int) -> tuple[tuple, tuple]:
    # The unknowns of A'P + PA + Q = 0 for a symmetric P are p_ij, i <= j,
    # numbered row by row. Equation (i, j), i <= j, reads
    #   sum_k a_ki p_kj + sum_k a_kj p_ik = -q_ij,
    # so its row of the system gets a_ki at unknown (k, j) and a_kj at
    # unknown (i, k), each folded into i <= j. Returns the (row, column,
    # flat index of A) terms, in the order they are added, and the unknown
    # at each entry of P.
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    unknown = {pair: u for u, pair in enumerate(pairs)}
    at = [[unknown[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    terms = []
    for row, (i, j) in enumerate(pairs):
        for k in range(n):
            terms.append((row, at[k][j], k * n + i))
            terms.append((row, at[i][k], k * n + j))
    return tuple(terms), tuple(tuple(r) for r in at)


def solve_lyapunov(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A'P + PA + Q = 0 for symmetric P on its n(n+1)/2 unknowns p_ij, i <= j.

    Q's symmetric part (Q + Q')/2 is used. The system is solved by
    `lti.lu_factor` and `lti.lu_solve`, so P is exactly symmetric; a
    singular system (A and -A sharing an eigenvalue) raises NumericalError.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise ValidationError("Lyapunov equation needs square A and Q of equal size")
    terms, at = _lyapunov_index(n)
    m = n * (n + 1) // 2
    af = a.ravel().tolist()
    qf = q.ravel().tolist()
    lhs = [[0.0] * m for _ in range(m)]
    for row, col, src in terms:
        lhs[row][col] += af[src]
    rhs = [-0.5 * (qf[i * n + j] + qf[j * n + i]) for i in range(n) for j in range(i, n)]
    lu, perm, rank = lu_factor(lhs)
    if rank < m:
        raise NumericalError("Lyapunov system is singular: A and -A share an eigenvalue")
    x = lu_solve(lu, perm, rhs)
    return np.array([[x[u] for u in row] for row in at]).reshape(n, n)


def care_residual(a, b, p, q, r) -> np.ndarray:
    """Residual matrix A'P + PA - P B R^-1 B' P + Q for a scalar or 1 x 1 R."""
    return _residual(a, b, p, q, (b.T @ p) * (1.0 / r))


def _residual(a, b, p, q, rinv_btp) -> np.ndarray:
    # care_residual with R^-1 B' P given, as solve_care holds it in its gain.
    return a.T @ p + p @ a - p @ b @ rinv_btp + q


def _initial_stabilizing_gain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 0 or is_hurwitz(char_poly(a)):
        return np.zeros((1, n))
    return place_poles(a, b, [-(i + 1.0) for i in range(n)])


def solve_care(a, b, weights: CostWeights) -> RiccatiSolution:
    """Stabilizing solution of the CARE by Newton-Kleinman iteration.

    Raises CareConvergenceError when the residual stays above 1e-8 after
    the iteration cap or goes non-finite, and NumericalError if the
    converged P fails the symmetric-PSD check or A - BK fails the Hurwitz
    check.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, 1):
        raise ValidationError(f"A must be square and B must be {n}x1, got {a.shape} and {b.shape}")
    q, r = weights.q, weights.r
    if q.shape != (n, n):
        raise ValidationError(f"Q must be {n}x{n}, got {q.shape}")
    # Multiply by 1/r rather than divide by r: the product rounds as a 1 x 1
    # LAPACK solve does, which the pinned golden designs were computed with.
    r_inv = 1.0 / r

    # P = 0 is not a Newton-Kleinman iterate, so the first iterate is always
    # taken, and k always holds R^-1 B' P for the p beside it.
    k = _initial_stabilizing_gain(a, b)
    p = np.zeros((n, n))
    residual = float("inf")
    iterations = 0
    # Huge weights overflow on the way; the non-finite residual reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, MAX_ITERATIONS + 1):
            a_cl = a - b @ k
            rhs = q + k.T @ r @ k
            p_next = solve_lyapunov(a_cl, rhs)
            k_next = (b.T @ p_next) * r_inv
            res = _residual(a, b, p_next, q, k_next).ravel().tolist()
            new_residual = math.sqrt(ordered_dot(res, res))
            if not new_residual < residual and residual <= RESIDUAL_SUCCESS:
                # Rounding floor reached; keep the better iterate.
                break
            p, k, residual = p_next, k_next, new_residual
            # A non-finite residual (overflow, then NaN) never recovers.
            if residual <= RESIDUAL_TARGET or not math.isfinite(residual):
                break
    if not residual <= RESIDUAL_SUCCESS:
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
