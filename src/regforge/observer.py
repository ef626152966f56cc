"""Observer-based output-feedback compensators and pole placement.

The compensator combines state feedback u = -K x_hat with a Luenberger
observer of gain H; its state matrix is always A - BK - HC. The published
realization of this compensator is internally inconsistent: the closed
form says (B in, -K out, unit feedthrough) while the printed numeric
matrices say (H in, +K out, no feedthrough). Rather than silently pick a
reading, three wiring conventions are constructible and tagged, and every
caller names one (a scenario through ``controller.convention``, default
``standard-luenberger``):

* ``eq17-literal``       B_c = B,  C_c = -K,  D_c = 1
* ``paper-numeric``      B_c = H,  C_c = +K,  D_c = 0
* ``standard-luenberger`` B_c = H,  C_c = -K,  D_c = 0  (textbook wiring,
  u = r - K x_hat with the plant output injected into the observer)

A stability audit (A - BK and A - HC verdicts, `ObserverAudit`) is
attached to every construction and is never fatal: the published H makes
A - HC unstable, and that controller must still be constructible so the
failure can be reported. The audit is the one place these verdicts are
computed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lti import Polynomial, StateSpaceModel, char_poly, is_hurwitz, lu_factor, lu_solve, ordered_dot

__all__ = [
    "CONVENTIONS",
    "ObserverAudit",
    "ObserverBasedController",
    "build_observer_controller",
    "place_poles",
    "design_observer_gain",
    "luenberger_loop",
]

CONVENTIONS = ("eq17-literal", "paper-numeric", "standard-luenberger")


@dataclass(frozen=True)
class ObserverAudit:
    """Stability verdicts attached to a constructed compensator."""

    state_feedback_hurwitz: bool
    error_poly: Polynomial
    error_hurwitz: bool


@dataclass(frozen=True)
class ObserverBasedController:
    model: StateSpaceModel
    convention: str
    audit: ObserverAudit


def _as_gain_row(k, n: int) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim == 1:
        k = k.reshape(1, -1)
    if k.shape != (1, n):
        raise ValidationError(f"state-feedback gain must be 1x{n}, got {k.shape}")
    return k


def _as_gain_col(h, n: int) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim == 1:
        h = h.reshape(-1, 1)
    if h.shape != (n, 1):
        raise ValidationError(f"observer gain must be {n}x1, got {h.shape}")
    return h


def build_observer_controller(plant: StateSpaceModel, k, h, convention: str) -> ObserverBasedController:
    """Assemble the compensator for a strictly proper SISO plant.

    A_c = A - BK - HC for every convention; B_c, C_c, D_c follow the
    convention table in the module docstring. The attached audit carries
    the Hurwitz verdicts of A - BK and A - HC.
    """
    if plant.d[0, 0] != 0.0:
        raise ValidationError("plants with direct feedthrough are unsupported")
    if convention not in CONVENTIONS:
        raise ValidationError(f"unknown convention {convention!r}; choose one of {CONVENTIONS}")
    n = plant.n_states
    k = _as_gain_row(k, n)
    h = _as_gain_col(h, n)
    a, b, c = plant.a, plant.b, plant.c
    bk, hc = b @ k, h @ c
    a_c = a - bk - hc
    if convention == "eq17-literal":
        model = StateSpaceModel(a_c, b, -k, [[1.0]])
    elif convention == "paper-numeric":
        model = StateSpaceModel(a_c, h, k, [[0.0]])
    else:
        model = StateSpaceModel(a_c, h, -k, [[0.0]])
    err_poly = char_poly(a - hc)
    audit = ObserverAudit(
        state_feedback_hurwitz=is_hurwitz(char_poly(a - bk)),
        error_poly=err_poly,
        error_hurwitz=is_hurwitz(err_poly),
    )
    return ObserverBasedController(model=model, convention=convention, audit=audit)


def place_poles(a, b, desired) -> np.ndarray:
    """State-feedback gain placing the poles of A - BK, by Ackermann's formula.

    The desired set must have size n and be closed under conjugation. The
    pair (A, B) must be controllable: the controllability matrix C is
    factored once by `lti.lu_factor`, its rank is the count of pivots above
    n * eps * max|C|, and an uncontrollable pair is rejected with that
    rank. The same factors solve C'y = e_n, and K = y' phi(A), with phi the
    desired characteristic polynomial.

    Returns K as a 1 x n row matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n, 1):
        raise ValidationError("place_poles needs square A and a single-column B")
    desired = np.atleast_1d(np.asarray(desired, dtype=complex))
    if desired.size != n:
        raise ValidationError(f"need exactly {n} desired poles, got {desired.size}")
    target = Polynomial.from_roots(desired)

    # Row i of the controllability matrix's transpose is (A^i b)', each a
    # product of A with the row before it, in Python floats.
    rows_a = a.tolist()
    v = b[:, 0].tolist()
    ctrb_t = [v]
    for _ in range(n - 1):
        v = [ordered_dot(row, v) for row in rows_a]
        ctrb_t.append(v)
    # One factorization gives the rank (pivots above n * eps * max|entry|)
    # and, when the rank is n, K = y' phi(A) with C' y = e_n.
    tol = n * sys.float_info.epsilon * max((abs(x) for row in ctrb_t for x in row), default=0.0)
    lu, perm, rank = lu_factor(ctrb_t, tol)
    if rank < n:
        raise ValidationError(f"(A, B) is uncontrollable: controllability matrix rank {rank} < {n}")
    y = lu_solve(lu, perm, [0.0] * (n - 1) + [1.0])

    # y' phi(A) by Horner on the row vector: w <- w A + c_i y'.
    cols_a = list(zip(*rows_a))
    coeffs = target.coeffs
    w = [coeffs[0] * yi for yi in y]
    for coef in coeffs[1:]:
        w = [ordered_dot(w, col) + coef * yi for col, yi in zip(cols_a, y)]
    return np.array([w])


def design_observer_gain(a, c, desired) -> np.ndarray:
    """Observer gain H placing the poles of A - HC, by duality.

    Runs place_poles on (A^T, C^T) and transposes, so a stable estimator
    can be designed when a hand-picked H fails the audit.

    Returns H as an n x 1 column matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.asarray(c, dtype=float)
    if c.ndim == 1:
        c = c.reshape(1, -1)
    return place_poles(a.T, c.T, desired).T


def luenberger_loop(
    plant: StateSpaceModel, k, h, reference_gain: float = 1.0
) -> StateSpaceModel:
    """Closed loop of plant plus standard-luenberger compensator.

    Wiring: the observer is the exact plant copy driven by the actual
    plant input and by output injection, and the control law is
    u = reference_gain * r - K x_hat. In estimation-error coordinates the
    loop is block triangular, so its characteristic polynomial is
    char(A - BK) * char(A - HC) -- the separation principle.

    State is [x_plant; x_hat], input r, output the plant output.
    """
    if plant.d[0, 0] != 0.0:
        raise ValidationError("plants with direct feedthrough are unsupported")
    n = plant.n_states
    k = _as_gain_row(k, n)
    h = _as_gain_col(h, n)
    a, b, c = plant.a, plant.b, plant.c
    bn = float(reference_gain) * b
    bk, hc = b @ k, h @ c
    a_cl = np.empty((2 * n, 2 * n))
    a_cl[:n, :n] = a
    a_cl[:n, n:] = -b @ k  # (-b) @ k: its zeros are +0.0, where -(b @ k) gives -0.0
    a_cl[n:, :n] = hc
    a_cl[n:, n:] = a - bk - hc
    b_cl = np.vstack([bn, bn])
    c_cl = np.hstack([c, np.zeros((1, n))])
    return StateSpaceModel(a_cl, b_cl, c_cl, [[0.0]])
