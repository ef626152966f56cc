"""Independent numpy checks of regforge results.

Nothing here calls regforge's own solvers: spectra come from
``numpy.linalg.eigvals``, linear solves from ``numpy.linalg``, and exact
responses from an eigendecomposition of A. Each function returns an error
string, or None when the result passes.
"""

from __future__ import annotations

import numpy as np

CARE_RESIDUAL_MAX = 1e-8
SETTLING_BAND = 0.02
PAPER_K = {(3.0, 3.0, 5.0): (0.2166, 0.2649), (8.0, 8.0, 1.0): (1.7720, 2.0)}
PAPER_K_TOL = 1e-3


def numpy_hurwitz(a) -> bool:
    return bool(np.all(np.linalg.eigvals(np.asarray(a, dtype=float)).real < 0.0))


def care_residual(a, b, q, r, p) -> str | None:
    """Frobenius norm of A'P + PA - P B R^-1 B' P + Q, with R^-1 from numpy."""
    res = a.T @ p + p @ a - p @ b @ np.linalg.inv(r) @ b.T @ p + q
    norm = float(np.linalg.norm(res))
    return None if norm <= CARE_RESIDUAL_MAX else f"CARE residual {norm:.3e} > {CARE_RESIDUAL_MAX:g}"


def hurwitz_agrees(label: str, a, verdict: bool) -> str | None:
    expected = numpy_hurwitz(a)
    return None if expected == verdict else f"is_hurwitz({label})={verdict} but eigvals say {expected}"


def spectrum_agrees(label: str, a, eig, rtol: float = 1e-6) -> str | None:
    """Each numpy eigenvalue has a distinct counterpart in ``eig``."""
    left = list(np.asarray(eig, dtype=complex))
    for lam in np.linalg.eigvals(np.asarray(a, dtype=float)):
        if not left:
            return f"eigenvalues({label}) has too few values"
        j = int(np.argmin([abs(z - lam) for z in left]))
        if abs(left[j] - lam) > rtol * max(1.0, abs(lam)):
            return f"eigenvalues({label}) misses {lam:.6g} (nearest {left[j]:.6g})"
        left.pop(j)
    return f"eigenvalues({label}) has extra values {left}" if left else None


def paper_gain(q_diag, r, k) -> str | None:
    key = (float(q_diag[0]), float(q_diag[1]), float(r))
    want = np.array(PAPER_K[key])
    got = np.asarray(k, dtype=float).ravel()
    if got.shape == want.shape and np.all(np.abs(got - want) <= PAPER_K_TOL):
        return None
    return f"K={got.tolist()} differs from the paper's {want.tolist()} by more than {PAPER_K_TOL:g}"


def dc_output(a, b, c, d, u: float) -> float:
    """Steady output -C A^-1 B u + D u of a Hurwitz model under constant input u."""
    a, b, c = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (a, b, c))
    return float((-(c @ np.linalg.solve(a, b)) + np.asarray(d, dtype=float)).item() * u)


def within_band(label: str, value: float, target: float) -> str | None:
    if abs(value - target) <= SETTLING_BAND * abs(target):
        return None
    return f"{label} {value:.6g} is outside the 2 % band around {target:.6g}"


def exact_state(a, b, x0, u: float, t: float) -> np.ndarray:
    """x(t) = e^{At} x0 + A^-1 (e^{At} - I) B u, via A = V diag(lambda) V^-1.

    Valid for diagonalizable, nonsingular A, which holds for every model the
    benchmark simulates (distinct eigenvalues, none at the origin).
    """
    lam, v = np.linalg.eig(np.asarray(a, dtype=float))
    e = (v * np.exp(lam * t)) @ np.linalg.inv(v)
    n = len(lam)
    forced = np.linalg.solve(a, (e - np.eye(n)) @ np.asarray(b, dtype=float).reshape(n) * u)
    return (e @ np.asarray(x0, dtype=float) + forced).real


def divergence_flag(states, outputs, limit: float, diverged: bool) -> str | None:
    """The flag is set exactly when the last sample, and only it, is out of bounds."""
    bad = ~np.isfinite(outputs) | (np.abs(outputs) > limit)
    bad |= ~np.all(np.isfinite(states), axis=1) | (np.max(np.abs(states), axis=1, initial=0.0) > limit)
    first_bad = int(np.argmax(bad)) if bad.any() else -1
    if diverged and first_bad != len(outputs) - 1:
        return f"diverged flag set but first out-of-bounds sample is {first_bad} of {len(outputs)}"
    if not diverged and first_bad >= 0:
        return f"diverged flag clear but sample {first_bad} is out of bounds"
    return None
