"""Polynomial and dense small-matrix foundation for the toolkit.

Transfer functions, state-space models, conversions between the two,
series/feedback interconnections, and stability tests. Everything here is
an immutable value; every operation is a pure function, so concurrent use
needs no synchronization.

Numerics are deliberately elementary: characteristic polynomials come from
the Faddeev-LeVerrier recursion, eigenvalues from Durand-Kerner root
finding on that polynomial, and stability verdicts from a Routh-Hurwitz
table. All systems in this toolkit are small (n <= 6), where these methods
are exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "Polynomial",
    "TransferFunction",
    "StateSpaceModel",
    "tf_to_ss",
    "ss_to_tf",
    "tf_series",
    "feedback_interconnect",
    "char_poly",
    "is_hurwitz",
    "dc_gain",
    "eigenvalues",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Real polynomial in the Laplace variable s, coefficients highest degree first.

    Leading zeros are trimmed on construction; the zero polynomial is
    stored as the single coefficient [0.0].
    """

    coeffs: np.ndarray

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("polynomial coefficients must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValidationError("polynomial coefficients must be finite")
        nz = np.nonzero(c)[0]
        c = c[nz[0]:] if nz.size else np.zeros(1)
        object.__setattr__(self, "coeffs", _readonly(c))

    @classmethod
    def from_roots(cls, roots, leading: float = 1.0) -> "Polynomial":
        """Monic polynomial (times ``leading``) with the given roots.

        Complex roots must come in conjugate pairs so the product is real;
        residual imaginary parts are checked, not silently dropped.
        """
        roots = np.atleast_1d(np.asarray(roots, dtype=complex))
        c = np.array([1.0 + 0.0j])
        for r in roots:
            c = np.convolve(c, np.array([1.0, -r]))
        if roots.size and np.max(np.abs(c.imag)) > 1e-9 * max(1.0, np.max(np.abs(c.real))):
            raise ValidationError("root set is not closed under conjugation")
        return cls(leading * c.real)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0.0

    def __call__(self, s):
        return np.polyval(self.coeffs, s)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(self.coeffs * factor)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValidationError("cannot normalize the zero polynomial")
        return Polynomial(self.coeffs / self.coeffs[0])

    def roots(self) -> np.ndarray:
        """All complex roots, via Durand-Kerner iteration."""
        return _durand_kerner(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    def __str__(self) -> str:
        n = self.degree
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0 and n > 0:
                continue
            p = n - i
            mag = f"{abs(c):g}"
            if p == 0:
                t = mag
            else:
                sv = "s" if p == 1 else f"s^{p}"
                t = sv if abs(c) == 1 else f"{mag} {sv}"
            sign = "-" if c < 0 else "+"
            terms.append((sign, t))
        if not terms:
            return "0"
        head = ("-" if terms[0][0] == "-" else "") + terms[0][1]
        return head + "".join(f" {s} {t}" for s, t in terms[1:])


def _durand_kerner(coeffs: np.ndarray, max_iter: int = 200, tol: float = 1e-12) -> np.ndarray:
    """Simultaneous root iteration for small real polynomials.

    200 iterations at 1e-12 step tolerance is far more than the n <= 6
    polynomials seen here require; repeated roots plateau near sqrt(eps),
    which downstream checks tolerate.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if c.size <= 1:
        return np.array([], dtype=complex)
    monic = (c / c[0]).astype(complex)
    n = monic.size - 1
    if n == 1:
        return np.array([-monic[1]])
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


@dataclass(frozen=True)
class TransferFunction:
    """Rational function num(s)/den(s) with real coefficients.

    The denominator may not be identically zero. Properness is not forced
    at construction (so intermediate algebra stays closed) but conversions
    that require it check for it.
    """

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ValidationError("transfer function denominator is identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_proper(self) -> bool:
        return self.num.degree <= self.den.degree

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.is_zero or self.num.degree < self.den.degree

    def normalized(self) -> "TransferFunction":
        """Equivalent form with a monic denominator."""
        lead = self.den.coeffs[0]
        return TransferFunction(self.num.scaled(1.0 / lead), self.den.monic())

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Dense real matrices (A, B, C, D) for x' = Ax + Bu, y = Cx + Du.

    Zero-state models (n = 0) are allowed and represent static gains, so
    pure-gain controllers flow through interconnections unchanged. A 1-D
    B is taken as a column and a 1-D C as a row (the SISO reading).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray = field(default=None)

    def __init__(self, a, b, c, d=None):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        if b.ndim == 1:
            b = b.reshape(-1, 1)
        if c.ndim == 1:
            c = c.reshape(1, -1)
        a = _readonly(np.atleast_2d(a)) if a.size else _readonly(np.zeros((0, 0)))
        b = _readonly(b) if b.size else _readonly(np.zeros((0, _cols_hint(d))))
        c = _readonly(c) if c.size else _readonly(np.zeros((_rows_hint(d), 0)))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValidationError(f"A must be square, got {a.shape}")
        if b.shape[0] != n:
            raise ValidationError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise ValidationError(f"C must have {n} columns, got {c.shape}")
        m, p = b.shape[1], c.shape[0]
        d = np.zeros((p, m)) if d is None else np.atleast_2d(d)
        if d.shape != (p, m):
            raise ValidationError(f"D must be {p}x{m}, got {d.shape}")
        for name, mat in (("A", a), ("B", b), ("C", c), ("D", d)):
            if not np.all(np.isfinite(mat)):
                raise ValidationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", _readonly(d))

    @classmethod
    def static_gain(cls, k: float) -> "StateSpaceModel":
        """Zero-state model realizing y = k u."""
        return cls(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[float(k)]])

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    @property
    def is_siso(self) -> bool:
        return self.n_inputs == 1 and self.n_outputs == 1


def _cols_hint(d) -> int:
    # Input count for a zero-state model comes from D when available.
    if d is not None and np.size(d):
        return np.atleast_2d(np.asarray(d)).shape[1]
    return 1


def _rows_hint(d) -> int:
    if d is not None and np.size(d):
        return np.atleast_2d(np.asarray(d)).shape[0]
    return 1


def tf_to_ss(tf: TransferFunction) -> StateSpaceModel:
    """Controllable-canonical realization of a proper SISO transfer function.

    The denominator is normalized monic first. The A matrix carries the
    negated denominator coefficients in its top row with ones on the
    subdiagonal, B is the first unit vector, and C holds the (remainder)
    numerator coefficients, so a constant-numerator plant of gain g and
    monic quadratic denominator realizes as C = [0, g].

    Raises ValidationError for an improper function (deg num > deg den).
    """
    if not tf.is_proper:
        raise ValidationError("improper transfer function (deg num > deg den) is unsupported")
    tf = tf.normalized()
    den = tf.den.coeffs
    n = len(den) - 1
    num = np.pad(tf.num.coeffs, (n + 1 - len(tf.num.coeffs), 0))
    d0 = num[0]
    rem = num[1:] - d0 * den[1:]
    if n == 0:
        return StateSpaceModel.static_gain(d0)
    a = np.zeros((n, n))
    a[0, :] = -den[1:]
    a[1:, :-1] += np.eye(n - 1)
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    c = rem.reshape(1, n)
    return StateSpaceModel(a, b, c, [[d0]])


def _faddeev_leverrier(a: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Characteristic polynomial coefficients and adjugate expansion of (sI - A).

    Returns (coeffs, blocks) with coeffs = [1, c1, ..., cn] such that
    det(sI - A) = s^n + c1 s^(n-1) + ... + cn, and blocks[k] the matrix
    coefficient of s^(n-1-k) in adj(sI - A).
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    blocks = []
    m = np.eye(n)
    for k in range(1, n + 1):
        blocks.append(m)
        am = a @ m
        coeffs[k] = -np.trace(am) / k
        m = am + coeffs[k] * np.eye(n)
    return coeffs, blocks


def char_poly(a: np.ndarray) -> Polynomial:
    """Monic characteristic polynomial det(sI - A) via Faddeev-LeVerrier."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return Polynomial([1.0])
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"char_poly needs a square matrix, got {a.shape}")
    coeffs, _ = _faddeev_leverrier(a)
    return Polynomial(coeffs)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as the roots of char_poly(A) (adequate for n <= 6)."""
    return char_poly(a).roots()


def ss_to_tf(ss: StateSpaceModel) -> TransferFunction:
    """SISO transfer function C adj(sI-A) B / det(sI-A) + D.

    Computed through the same Faddeev-LeVerrier recursion as char_poly; a
    zero-state model collapses to the constant D.
    """
    if not ss.is_siso:
        raise ValidationError("ss_to_tf supports SISO models only")
    n = ss.n_states
    d = ss.d[0, 0]
    if n == 0:
        return TransferFunction([d], [1.0])
    den, blocks = _faddeev_leverrier(ss.a)
    num = np.array([(ss.c @ blk @ ss.b).item() for blk in blocks])
    num = np.pad(num, (1, 0)) + d * den
    return TransferFunction(num, den)


def tf_series(g1: TransferFunction, g2: TransferFunction) -> TransferFunction:
    """Cascade g1 followed by g2: numerators and denominators multiply.

    No pole-zero cancellation is attempted; silent cancellation would hide
    modeling errors.
    """
    return TransferFunction(g1.num * g2.num, g1.den * g2.den)


def feedback_interconnect(plant: StateSpaceModel, controller: StateSpaceModel) -> StateSpaceModel:
    """Unity-negative-feedback loop with the controller in the forward path.

    The controller is driven by (r - y), its output drives the plant; the
    result has stacked state [x_plant; x_controller], input r, and output
    y. A controller feedthrough creates an algebraic loop that is resolved
    exactly through the scalar 1 + Dp*Dc; a singular loop is rejected.
    """
    if not (plant.is_siso and controller.is_siso):
        raise ValidationError("feedback_interconnect supports SISO blocks only")
    dp = float(plant.d[0, 0])
    dc = float(controller.d[0, 0])
    gap = 1.0 + dp * dc
    if abs(gap) < 1e-12:
        raise ValidationError("singular algebraic loop: 1 + Dp*Dc = 0")
    np_, nc = plant.n_states, controller.n_states
    ap, bp, cp = plant.a, plant.b, plant.c
    ac, bc, cc = controller.a, controller.b, controller.c

    a = np.zeros((np_ + nc, np_ + nc))
    a[:np_, :np_] = ap - (dc / gap) * (bp @ cp)
    a[:np_, np_:] = (1.0 / gap) * (bp @ cc)
    a[np_:, :np_] = -(1.0 / gap) * (bc @ cp)
    a[np_:, np_:] = ac - (dp / gap) * (bc @ cc)

    b = np.zeros((np_ + nc, 1))
    b[:np_] = (dc / gap) * bp
    b[np_:] = (1.0 / gap) * bc

    c = np.zeros((1, np_ + nc))
    c[0, :np_] = cp / gap
    c[0, np_:] = (dp / gap) * cc

    d = [[dp * dc / gap]]
    return StateSpaceModel(a, b, c, d)


def is_hurwitz(p: Polynomial) -> bool:
    """Routh-Hurwitz verdict: True iff every root has Re < 0.

    The sign of the leading coefficient is normalized away first. A zero
    first-column pivot is reported as not Hurwitz outright (marginal or
    unstable); no epsilon substitution is attempted.
    """
    if p.degree < 1:
        raise ValidationError("stability of a constant polynomial is undefined")
    c = p.coeffs.copy()
    if c[0] < 0:
        c = -c
    n = len(c) - 1
    width = (n // 2) + 1
    rows = np.zeros((n + 1, width + 1))
    rows[0, : len(c[0::2])] = c[0::2]
    rows[1, : len(c[1::2])] = c[1::2]
    for k in range(2, n + 1):
        pivot = rows[k - 1, 0]
        if pivot == 0.0:
            return False
        rows[k, :width] = (
            pivot * rows[k - 2, 1 : width + 1] - rows[k - 2, 0] * rows[k - 1, 1 : width + 1]
        ) / pivot
    first_col = rows[: n + 1, 0]
    return bool(np.all(first_col > 0.0))


def dc_gain(tf: TransferFunction) -> float:
    """Steady-state gain num(0)/den(0); a pole at the origin is an error."""
    den0 = float(tf.den(0.0))
    if den0 == 0.0:
        raise NumericalError("dc gain undefined: pole at the origin")
    return float(tf.num(0.0)) / den0
