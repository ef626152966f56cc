"""Polynomial and dense small-matrix foundation for the toolkit.

Transfer functions, state-space models, conversions between the two,
series/feedback interconnections, and stability tests. Everything here is
an immutable value; every operation is a pure function, so concurrent use
needs no synchronization.

Numerics are deliberately elementary: characteristic polynomials come from
the Faddeev-LeVerrier recursion, general (non-symmetric) spectra from
Durand-Kerner root finding on that polynomial, and stability verdicts from
a Routh-Hurwitz table. Durand-Kerner starts on Aberth's circle, centred at
the roots' centroid with a radius on the roots' own scale; only when that
radius is 0 or not finite does it start on the circle of radius
1 + max|a_k|. The semidefiniteness check on the Riccati solution needs
no spectrum: `riccati` decides it from the pivots of one elimination. All
systems in this toolkit are small (n <= 6), where these methods are exact
up to rounding.

Every model is single-input, single-output, and every design and loop
entry point (`StateSpaceModel`, `char_poly`, `riccati.solve_care`, the
`observer` builders, `sim.state_feedback_loop` and
`sim.reference_prescaler`) checks its matrices through the private helpers
here, so each rule is written once: A is square (`_square`); B and an
observer gain H are n x 1 (`_column`, a scalar or 1-D input is the
column); C, a state-feedback gain K and D are 1 x n, 1 x n and 1 x 1
(`_row`, a scalar or 1-D input is the row). A shape fault raises
ValidationError in one form, "B must be 2x1, got (2, 2)". The LQR,
observer and prescaler chain assumes a strictly proper plant, y = Cx:
`_strictly_proper` rejects D != 0 with "plants with direct feedthrough are
unsupported". `tf_to_ss`, `ss_to_tf` and `feedback_interconnect` carry
any D.

Python floats are the one number representation inside; numpy arrays stay
at the edges (the matrices of `StateSpaceModel` and `char_poly`, the roots
`eigenvalues` returns). `Polynomial.coeffs` is a tuple of floats, and the
polynomial algebra and the kernels loop over Python floats and complex
numbers: Faddeev-LeVerrier (`_faddeev_leverrier`, behind `char_poly` and
`ss_to_tf`), `Polynomial.from_roots`, `_durand_kerner` and `is_hurwitz`.
On matrices of at most 6 x 6 and vectors of at most seven entries numpy's
per-call overhead outweighs most of the arithmetic; the Faddeev-LeVerrier
loops grow as n^4, and at n = 6 they are slower than numpy's products
(README, "Cost by plant order").

Every linear solve of the design path (the symmetric Lyapunov solve of
`riccati`, Ackermann's formula and the controllability rank of
`observer.place_poles`, and `sim.reference_prescaler`) goes through one
Gaussian elimination with partial pivoting, `lu_factor` and `lu_solve`,
also on Python floats. Every product of the design path, here and in
`riccati`, `observer.place_poles` and `sim.reference_prescaler`, is summed
in index order from 0.0, written inline or through `ordered_dot`. This
arithmetic runs in a fixed order, so its bits do not depend on which BLAS
or LAPACK kernel numpy picks for the CPU. Partial pivoting is backward
stable in practice (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 9).
"""

from __future__ import annotations

import math
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
    "lu_factor",
    "lu_solve",
    "ordered_dot",
]

# Angle offset (radians) of the first Durand-Kerner start point on Aberth's
# circle: with it no start point is real, so the iterates of a real
# polynomial can leave the real axis for its complex roots.
START_ANGLE = 0.4
# The Durand-Kerner iteration stops when every step is below
# DK_TOL * max(1, |z_i|), or after DK_MAX_ITER sweeps.
DK_MAX_ITER = 200
DK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Real polynomial in the Laplace variable s, coefficients highest degree first.

    The coefficients are a tuple of floats, checked finite and trimmed of
    leading zeros on construction; the zero polynomial is (0.0,).
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        try:
            # An array's rank is read first: numpy < 2 converts a 1-element row with float().
            c = [float(x) for x in coeffs] if getattr(coeffs, "ndim", 1) == 1 else []
        except TypeError:  # not iterable, or an entry that is not a number
            c = []
        if not c:
            raise ValidationError("polynomial coefficients must be a non-empty 1-D sequence")
        if not all(map(math.isfinite, c)):
            raise ValidationError("polynomial coefficients must be finite")
        lead = next((i for i, x in enumerate(c) if x != 0.0), None)
        object.__setattr__(self, "coeffs", (0.0,) if lead is None else tuple(c[lead:]))

    @classmethod
    def from_roots(cls, roots) -> "Polynomial":
        """Monic polynomial with the given roots.

        Complex roots must come in conjugate pairs so the product is real;
        residual imaginary parts are checked, not silently dropped.
        """
        roots = [complex(r) for r in roots]
        # Multiply out (s - r) one root at a time on Python complex numbers.
        c = [1.0 + 0.0j]
        for r in roots:
            c = [c[0]] + [c_i + c_prev * -r for c_i, c_prev in zip(c[1:], c)] + [c[-1] * -r]
        if roots and max(abs(x.imag) for x in c) > 1e-9 * max(1.0, max(abs(x.real) for x in c)):
            raise ValidationError("root set is not closed under conjugation")
        return cls([x.real for x in c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0.0

    def __call__(self, s):
        """p(s) by Horner's rule from 0.0; s may be a number or an array."""
        y = 0.0
        for c in self.coeffs:
            y = y * s + c
        return y

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Product by convolution, each coefficient summed in index order from 0.0."""
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return Polynomial(out)

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial([c * factor for c in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValidationError("cannot normalize the zero polynomial")
        lead = self.coeffs[0]
        return Polynomial([c / lead for c in self.coeffs])

    def roots(self) -> np.ndarray:
        """All complex roots, via Durand-Kerner iteration."""
        return _durand_kerner(self.coeffs)[0]

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


def _durand_kerner(coeffs) -> tuple[np.ndarray, int, bool]:
    """Simultaneous (Weierstrass) root iteration for small real polynomials.

    Returns (roots, iterations, converged). Every root moves at once from
    the previous iterates, z_i -= p(z_i) / prod_{j != i}(z_i - z_j), with
    p monic and evaluated by Horner. The start points lie on Aberth's
    circle (1973): centre c = -a_1/n, the centroid of the roots, radius
    r = |p(c)|**(1/n), the geometric mean of the roots' distances from c,
    at angles 2*pi*k/n + START_ANGLE, so none lies on the real axis. A
    circle on the roots' own scale needs far fewer sweeps than one of
    radius 1 + max|a_k|, a bound that grows like |root|**n. When r is 0
    (p(c) = 0, as for (s - c)**n), NaN or inf, the start falls back to
    (1 + max|a_k|) * (0.4 + 0.9j)**k.

    The iteration stops when every step satisfies
    |dz_i| < DK_TOL * max(1, |z_i|), so large roots are held to the same
    relative accuracy as small ones, or after DK_MAX_ITER sweeps with
    converged False: repeated roots converge only linearly and plateau
    near eps**(1/m) of their multiplicity m.

    Scalar Python arithmetic throughout (see the module docstring). A NaN
    step never counts as converged. Coefficients that overflow when made
    monic, a zero Weierstrass denominator (coincident iterates) or a
    non-finite result raise NumericalError.
    """
    # A Polynomial has no leading zeros; a coefficient list passed directly may.
    c = [float(x) for x in coeffs]
    while c and c[0] == 0.0:
        del c[0]
    if len(c) <= 1:
        return np.array([], dtype=complex), 0, True
    lead = c[0]
    monic = [x / lead for x in c[1:]]
    if not all(math.isfinite(x) for x in monic):
        raise NumericalError("polynomial coefficients overflow when made monic")
    n = len(monic)
    if n == 1:
        return np.array([-monic[0]], dtype=complex), 0, True
    centre = -monic[0] / n
    pc = 1.0
    for a in monic:
        pc = pc * centre + a
    radius = abs(pc) ** (1.0 / n)
    if 0.0 < radius < math.inf:
        z = [centre + radius * complex(math.cos(t), math.sin(t))
             for t in (2.0 * math.pi * k / n + START_ANGLE for k in range(n))]
    else:
        radius = 1.0 + max(abs(x) for x in monic)
        z = [radius * (0.4 + 0.9j) ** k for k in range(1, n + 1)]
    others = [[j for j in range(n) if j != i] for i in range(n)]
    converged = False
    try:
        for it in range(1, DK_MAX_ITER + 1):
            step = []
            for i, zi in enumerate(z):
                pz = 1.0 + 0.0j
                for a in monic:
                    pz = pz * zi + a
                den = 1.0 + 0.0j
                for j in others[i]:
                    den *= zi - z[j]
                step.append(pz / den)
            z = [zi - d for zi, d in zip(z, step)]
            for zi, d in zip(z, step):
                if not abs(d) < DK_TOL * max(1.0, abs(zi)):
                    break
            else:
                converged = True
                break
    except (ZeroDivisionError, OverflowError) as exc:
        raise NumericalError(f"Durand-Kerner iteration broke down: {exc}") from None
    if not all(math.isfinite(zi.real) and math.isfinite(zi.imag) for zi in z):
        raise NumericalError("Durand-Kerner iteration produced non-finite roots")
    return np.array(z), it, converged


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

    def normalized(self) -> "TransferFunction":
        """Equivalent form with a monic denominator; dividing by a tiny leading coefficient may overflow."""
        lead = self.den.coeffs[0]
        try:
            return TransferFunction(self.num.scaled(1.0 / lead), self.den.monic())
        except ValidationError:  # a finite polynomial divided by lead came out non-finite
            msg = f"normalizing by the leading denominator coefficient {lead!r} overflows"
            raise ValidationError(msg) from None

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Dense real matrices (A, B, C, D) for x' = Ax + Bu, y = Cx + Du.

    The shapes follow the module's SISO contract, checked on construction
    by the same helpers as every other entry point; every entry must also
    be finite, and D defaults to zero. Zero-state models (n = 0) are
    allowed and represent static gains, so pure-gain controllers flow
    through interconnections unchanged (see `static_gain`).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray = field(default=None)

    def __init__(self, a, b, c, d=None):
        # One copy of each matrix, owned by the model: later writes to the
        # arguments do not reach it.
        a = _square(a)
        n = a.shape[0]
        b, c = _column(b, n, "B"), _row(c, n, "C")
        d = _row(0.0 if d is None else d, 1, "D")
        for name, mat in (("A", a), ("B", b), ("C", c), ("D", d)):
            if not all(map(math.isfinite, mat.ravel().tolist())):
                raise ValidationError(f"{name} contains non-finite entries")
            mat.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def static_gain(cls, k: float) -> "StateSpaceModel":
        """Zero-state model realizing y = k u."""
        return cls(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[float(k)]])

    @property
    def n_states(self) -> int:
        return self.a.shape[0]


def _square(a) -> np.ndarray:
    """A copy of `a` as a square float array, at least 2-D (A)."""
    a = np.array(a, dtype=float, ndmin=2)
    if a.shape != (len(a), len(a)):
        raise ValidationError(f"A must be square, got {a.shape}")
    return a


def _row(x, n: int, name: str) -> np.ndarray:
    """A copy of `x` as a 1 x n float array; a scalar or 1-D `x` is the row (C, K)."""
    x = np.array(x, dtype=float, ndmin=1)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape != (1, n):
        raise ValidationError(f"{name} must be 1x{n}, got {x.shape}")
    return x


def _column(x, n: int, name: str) -> np.ndarray:
    """A copy of `x` as an n x 1 float array; a scalar or 1-D `x` is the column (B, H)."""
    x = np.array(x, dtype=float, ndmin=1)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.shape != (n, 1):
        raise ValidationError(f"{name} must be {n}x1, got {x.shape}")
    return x


def _strictly_proper(plant: StateSpaceModel) -> None:
    """Reject a plant with D != 0: the design and loop builders assume y = Cx."""
    if plant.d[0, 0] != 0.0:
        raise ValidationError("plants with direct feedthrough are unsupported")


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
    num = (0.0,) * (n + 1 - len(tf.num.coeffs)) + tf.num.coeffs
    d0 = num[0]
    if n == 0:
        return StateSpaceModel.static_gain(d0)
    a = [[-x for x in den[1:]]] + [[float(j == i - 1) for j in range(n)] for i in range(1, n)]
    b = [[1.0]] + [[0.0]] * (n - 1)
    c = [[x - d0 * y for x, y in zip(num[1:], den[1:])]]
    return StateSpaceModel(a, b, c, [[d0]])


def _faddeev_leverrier(a: list[list[float]]) -> tuple[list[float], list[list[list[float]]]]:
    """Characteristic polynomial coefficients and adjugate expansion of (sI - A).

    Takes A (n >= 1) as a list of rows of floats. Returns (coeffs, blocks)
    with coeffs = [1, c1, ..., cn] such that det(sI - A) = s^n + c1 s^(n-1)
    + ... + cn, and blocks[k] the matrix coefficient M_(k+1) of s^(n-1-k) in
    adj(sI - A), as lists of rows. The recursion is M_1 = I,
    c_k = -tr(A M_k) / k and M_(k+1) = A M_k + c_k I. A M_1 is A itself,
    and of A M_n only the trace is formed. Every product is summed in index
    order on Python floats (see the module docstring). A coefficient that
    overflows raises NumericalError, with no warning printed.
    """
    n = len(a)
    span = range(n)
    m = [[float(i == j) for j in span] for i in span]
    coeffs = [1.0]
    blocks = [m]
    am = a
    for k in range(1, n):
        trace = 0.0
        for i in span:
            trace += am[i][i]
        c = -trace / k
        coeffs.append(c)
        m = [list(row) for row in am]
        for i in span:
            m[i][i] += c
        blocks.append(m)
        if k < n - 1:
            cols = list(zip(*m))
            am = []
            for row in a:
                am_row = []
                for col in cols:
                    s = 0.0
                    for j in span:
                        s += row[j] * col[j]
                    am_row.append(s)
                am.append(am_row)
    # tr(A M_n) = sum_i (row i of A) . (column i of M_n).
    trace = 0.0
    for row, col in zip(a, zip(*m)):
        s = 0.0
        for j in span:
            s += row[j] * col[j]
        trace += s
    coeffs.append(-trace / n)
    if not all(map(math.isfinite, coeffs)):
        raise NumericalError("characteristic polynomial coefficients overflow")
    return coeffs, blocks


def char_poly(a: np.ndarray) -> Polynomial:
    """Monic characteristic polynomial det(sI - A) via Faddeev-LeVerrier."""
    if np.size(a) == 0:
        return Polynomial([1.0])
    coeffs, _ = _faddeev_leverrier(_square(a).tolist())
    return Polynomial(coeffs)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as the roots of char_poly(A) (adequate for n <= 6)."""
    return char_poly(a).roots()


def ss_to_tf(ss: StateSpaceModel) -> TransferFunction:
    """SISO transfer function C adj(sI-A) B / det(sI-A) + D.

    Computed through the same Faddeev-LeVerrier recursion as char_poly; a
    zero-state model collapses to the constant D. A numerator or
    denominator coefficient that overflows raises NumericalError.
    """
    n = ss.n_states
    d = float(ss.d[0, 0])
    if n == 0:
        return TransferFunction([d], [1.0])
    den, blocks = _faddeev_leverrier(ss.a.tolist())
    c, b = ss.c[0].tolist(), ss.b[:, 0].tolist()
    num = [d * den[0]]
    for blk, den_k in zip(blocks, den[1:]):
        # (C M) B, each product summed in index order.
        cb = 0.0
        for col, b_j in zip(zip(*blk), b):
            cm_j = 0.0
            for x, y in zip(c, col):
                cm_j += x * y
            cb += cm_j * b_j
        num.append(cb + d * den_k)
    if not all(map(math.isfinite, num)):
        raise NumericalError("transfer function numerator coefficients overflow")
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
    unstable); no epsilon substitution is attempted. The table is built
    row by row in Python floats.
    """
    if p.degree < 1:
        raise ValidationError("stability of a constant polynomial is undefined")
    c = [-x for x in p.coeffs] if p.coeffs[0] < 0 else list(p.coeffs)
    width = (len(c) - 1) // 2 + 1
    above = c[0::2] + [0.0] * (width + 1 - len(c[0::2]))
    row = c[1::2] + [0.0] * (width + 1 - len(c[1::2]))
    # The first column is Hurwitz iff every entry is > 0, so the table
    # stops at the first pivot that is not (zero, negative or NaN).
    for _ in range(2, len(c)):
        pivot = row[0]
        if not pivot > 0.0:
            return False
        # The ratio first: pivot * above[j] could overflow where the result does not.
        ratio = above[0] / pivot
        above, row = row, [above[j] - ratio * row[j] for j in range(1, width + 1)] + [0.0]
    return row[0] > 0.0


def dc_gain(tf: TransferFunction) -> float:
    """Steady-state gain num(0)/den(0); a pole at the origin is an error."""
    den0 = tf.den(0.0)
    if den0 == 0.0:
        raise NumericalError("dc gain undefined: pole at the origin")
    return tf.num(0.0) / den0


def lu_factor(a: list[list[float]], tol: float = 0.0) -> tuple[list[list[float]], list[int], int]:
    """Gaussian elimination with partial pivoting on a square list of rows of floats.

    The rows of `a` are overwritten. Column k takes as its pivot the entry
    of largest magnitude in the rows not yet pivoted; when that magnitude
    is not above `tol` (zero, or NaN) the column gets no pivot and the next
    column is tried on the same row, so the count of pivots is the rank of
    the row-echelon form. Returns (lu, perm, rank). When rank is n, row i
    of lu is row perm[i] of A factored as L U: the unit lower triangle L
    below the diagonal, U on and above it. `lu_solve` takes that output.
    """
    n = len(a)
    perm = list(range(n))
    rank = 0
    for k in range(n):
        p, big = rank, abs(a[rank][k])
        for i in range(rank + 1, n):
            v = abs(a[i][k])
            if v > big:
                p, big = i, v
        if not big > tol:
            continue
        if p != rank:
            a[p], a[rank] = a[rank], a[p]
            perm[p], perm[rank] = perm[rank], perm[p]
        row = a[rank]
        pivot = row[k]
        for i in range(rank + 1, n):
            other = a[i]
            f = other[k] / pivot
            other[k] = f
            if f != 0.0:
                for j in range(k + 1, n):
                    other[j] -= f * row[j]
        rank += 1
    return a, perm, rank


def lu_solve(lu: list[list[float]], perm: list[int], b) -> list[float]:
    """Solve A x = b from the full-rank output of `lu_factor`; b is a sequence of n floats."""
    n = len(lu)
    x = [b[i] for i in perm]
    for i in range(1, n):
        row = lu[i]
        s = x[i]
        for j in range(i):
            s -= row[j] * x[j]
        x[i] = s
    for i in range(n - 1, -1, -1):
        row = lu[i]
        s = x[i]
        for j in range(i + 1, n):
            s -= row[j] * x[j]
        x[i] = s / row[i]
    return x


def ordered_dot(u, v) -> float:
    """Sum of u_i * v_i over two float sequences, added in index order from 0.0.

    An explicit loop, not `sum`, whose float summation differs between
    Python versions. `math.sqrt(ordered_dot(x, x))` is the Euclidean norm;
    a square that overflows makes it inf.
    """
    total = 0.0
    for x, y in zip(u, v):
        total += x * y
    return total
