"""Independent desk oracles used to pin expected values.

Nothing here shares code with the library under test: roots come from
numpy's companion-matrix solver, eigenvalues from numpy's QR solver, and
the 2x2 Riccati oracle solves the raw polynomial system in the three
unknowns of symmetric P by multi-start damped Newton.
"""

import numpy as np


def scalar_care(a: float, b: float, q: float, r: float) -> float:
    """Positive root of the scalar quadratic -b^2/r p^2 + 2 a p + q = 0."""
    return (a * r + np.sqrt(a * a * r * r + q * r * b * b)) / (b * b)


def assert_root_sets_close(actual, desired, atol=1e-6, rtol=0.0):
    """Greedy nearest-neighbour matching of two complex root multisets.

    Each desired root z needs its own actual root within atol + rtol * |z|.
    """
    actual = list(np.atleast_1d(np.asarray(actual, dtype=complex)))
    desired = list(np.atleast_1d(np.asarray(desired, dtype=complex)))
    assert len(actual) == len(desired)
    for want in desired:
        gaps = [abs(got - want) for got in actual]
        best = int(np.argmin(gaps))
        assert gaps[best] <= atol + rtol * abs(want), \
            f"no root near {want} (closest off by {gaps[best]:.3e})"
        actual.pop(best)


def care_residual_matrix(a, b, p, q, r):
    r = np.atleast_2d(r)
    return a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T @ p) + q


def care_2x2_bruteforce(a, b, q, r, seed=0, starts=200):
    """Stabilizing PSD solution of a 2x2 single-input CARE by substitution.

    Parametrizes P = [[p1, p2], [p2, p3]], writes the three independent
    entries of the residual as a polynomial system, and solves it with
    damped Newton. Starting points enumerate every candidate root (the six
    invariant-subspace combinations of the associated 4x4 block matrix,
    computed with numpy's eigensolver) plus scaled-identity and random
    seeds, so the search is global. Among converged roots, the one that is
    PSD with A - B R^-1 B'P stable (again via numpy's eigensolver) is
    returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(2, 1)
    q = np.asarray(q, dtype=float)
    r2 = np.atleast_2d(np.asarray(r, dtype=float))
    s = b @ np.linalg.solve(r2, b.T)
    basis = (
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
    )

    def to_p(v):
        return np.array([[v[0], v[1]], [v[1], v[2]]])

    def residual3(v):
        m = care_residual_matrix(a, b, to_p(v), q, r2)
        return np.array([m[0, 0], m[0, 1], m[1, 1]])

    def jacobian(v):
        p = to_p(v)
        cols = []
        for e in basis:
            dm = a.T @ e + e @ a - e @ s @ p - p @ s @ e
            cols.append([dm[0, 0], dm[0, 1], dm[1, 1]])
        return np.array(cols).T

    rng = np.random.default_rng(seed)
    # Candidate roots from the invariant subspaces of the associated
    # block matrix: every 2-subset of its eigenvectors yields one root of
    # the polynomial system (possibly complex; the real part is close
    # enough for Newton to finish the job).
    from itertools import combinations

    hamiltonian = np.block([[a, -s], [-q, -a.T]])
    _, vecs = np.linalg.eig(hamiltonian)
    candidate_starts = []
    for idx in combinations(range(4), 2):
        x = vecs[:, list(idx)]
        x1, x2 = x[:2, :], x[2:, :]
        if abs(np.linalg.det(x1)) < 1e-10:
            continue
        p_cand = x2 @ np.linalg.inv(x1)
        p_cand = 0.5 * (p_cand + p_cand.T)
        if np.max(np.abs(p_cand.imag)) > 1e6:
            continue
        candidate_starts.append(
            np.array([p_cand[0, 0].real, p_cand[0, 1].real, p_cand[1, 1].real])
        )
    diag_starts = candidate_starts + [np.array([c, 0.0, c]) for c in (0.0, 0.5, 2.0, 10.0, 50.0)]
    for trial in range(starts):
        if trial < len(diag_starts):
            v = diag_starts[trial]
        else:
            v = rng.normal(size=3) * 10.0 ** rng.uniform(-1.0, 3.0)
        scale = 1.0 + float(np.linalg.norm(q))
        for _ in range(100):
            f = residual3(v)
            norm = np.linalg.norm(f)
            scale = max(scale, float(np.linalg.norm(to_p(v) @ s @ to_p(v))))
            if norm < 1e-13 * scale:
                break
            try:
                step = np.linalg.solve(jacobian(v), f)
            except np.linalg.LinAlgError:
                break
            t = 1.0
            while t > 1e-6 and np.linalg.norm(residual3(v - t * step)) > norm:
                t *= 0.5
            if t <= 1e-6:
                break
            v = v - t * step
        if np.linalg.norm(residual3(v)) > max(1e-9, 1e-12 * scale):
            continue
        p = to_p(v)
        if np.min(np.linalg.eigvalsh(p)) < -1e-8:
            continue
        k = np.linalg.solve(r2, b.T @ p)
        if np.max(np.linalg.eigvals(a - b @ k).real) < 0.0:
            return p
    raise AssertionError("brute-force CARE oracle found no stabilizing PSD root")


def random_controllable_siso(rng, n, scale=1.0, cond_limit=300.0, growth_limit=0.3):
    """Random (A, B): controllable, well conditioned, at most mildly unstable.

    The conditioning cap and the cap on max Re(eig A) keep the stabilizing
    Riccati solution at a moderate scale, so absolute residual tolerances
    around 1e-8 remain meaningful: strongly unstable or near-uncontrollable
    pairs push ||P|| so high that the attainable float64 residual floor
    (about eps * ||P||^2) crosses any fixed threshold.
    """
    while True:
        a = rng.normal(scale=scale, size=(n, n))
        shift = max(0.0, float(np.max(np.linalg.eigvals(a).real)) - growth_limit)
        a = a - shift * np.eye(n)
        b = rng.normal(scale=scale, size=(n, 1))
        ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
        if np.linalg.matrix_rank(ctrb) == n and np.linalg.cond(ctrb) < cond_limit:
            return a, b


def random_q_diag(rng, n):
    """Nonnegative LQR state-weight diagonal: entries log-spread over
    [1e-2, 1e1], each one zero with probability 1/4."""
    q = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
    q[rng.random(n) < 0.25] = 0.0
    return q


def random_observable_row(rng, a, cond_limit=100.0):
    """Random output row C with a well-conditioned observability matrix."""
    n = a.shape[0]
    while True:
        c = rng.normal(size=(1, n))
        obsv = np.vstack([c @ np.linalg.matrix_power(a, i) for i in range(n)])
        if np.linalg.matrix_rank(obsv) == n and np.linalg.cond(obsv) < cond_limit:
            return c


def random_output_feedback_design(rng, n, place_poles, design_observer_gain, gain_cap=10.0):
    """Random plant plus stable (K, H) design with sane gain magnitudes.

    Gains are capped because the coefficient comparison downstream is an
    absolute one: enormous placed gains inflate the loop matrix until
    characteristic-polynomial arithmetic cannot certify 1e-8 in float64.
    """
    while True:
        a, b = random_controllable_siso(rng, n, cond_limit=100.0)
        c = random_observable_row(rng, a)
        k = place_poles(a, b, random_stable_poles(rng, n))
        h = design_observer_gain(a, c, random_stable_poles(rng, n))
        if np.max(np.abs(k)) <= gain_cap and np.max(np.abs(h)) <= gain_cap:
            return a, b, c, k, h


def random_stable_poles(rng, n, low=-3.0, high=-0.5):
    """n distinct stable poles: real, or real plus one conjugate pair."""
    while True:
        if n >= 2 and rng.random() < 0.5:
            re = rng.uniform(low, high)
            im = rng.uniform(0.3, 2.0)
            rest = rng.uniform(low, high, size=n - 2)
            poles = np.concatenate([[complex(re, im), complex(re, -im)], rest])
        else:
            poles = rng.uniform(low, high, size=n).astype(complex)
        if np.min(np.abs(np.subtract.outer(poles, poles) + np.eye(n))) > 0.05:
            return poles
