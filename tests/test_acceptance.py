"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL line
for every criterion. Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from regforge.cli import main
from regforge.lti import StateSpaceModel, char_poly, dc_gain, ss_to_tf, tf_to_ss
from regforge.observer import (
    build_observer_controller,
    design_observer_gain,
    luenberger_loop,
    place_poles,
)
from regforge.plant import REFERENCE_PARAMS, preset_tf, steady_state_report
from regforge.riccati import CostWeights, care_residual, solve_care
from regforge.scenario import ControllerSpec, preset_scenario, run_scenario
from regforge.sim import SimConfig, simulate, step_metrics

from oracles import (
    care_2x2_bruteforce,
    random_controllable_siso,
    random_output_feedback_design,
    random_q_diag,
    scalar_care,
)

PLANT_A = np.array([[-2.5, -1.0], [1.0, 0.0]])
PLANT_B = np.array([[1.0], [0.0]])
PLANT_C = np.array([[0.0, 18.0]])
K_PUBLISHED_HIGH = np.array([1.7720, 2.0])
K_PUBLISHED_LOW = np.array([0.2166, 0.2649])
H_PUBLISHED = np.array([[2.0], [-0.5]])


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_lqr_gain_high_weight():
    # Independent brute-force oracle first; only then trust the solver.
    p_oracle = care_2x2_bruteforce(PLANT_A, PLANT_B, 8.0 * np.eye(2), 1.0)
    k_oracle = (PLANT_B.T @ p_oracle).ravel()
    oracle_ok = np.max(np.abs(k_oracle - K_PUBLISHED_HIGH)) <= 1e-3

    start = time.perf_counter()
    k = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([8.0, 8.0], 1.0)).k.ravel()
    elapsed = time.perf_counter() - start
    gain_ok = np.max(np.abs(k - K_PUBLISHED_HIGH)) <= 1e-3
    verdict(
        1,
        oracle_ok and gain_ok and elapsed < 1.0,
        f"K={np.round(k, 5).tolist()} vs published [1.7720, 2] (tol 1e-3), "
        f"oracle agrees={oracle_ok}, runtime {elapsed * 1e3:.1f} ms",
    )


def test_criterion_02_lqr_gain_low_weight():
    k = solve_care(PLANT_A, PLANT_B, CostWeights.diagonal([3.0, 3.0], 5.0)).k.ravel()
    ok = np.max(np.abs(k - K_PUBLISHED_LOW)) <= 1e-3
    verdict(2, ok, f"K={np.round(k, 5).tolist()} vs published [0.2166, 0.2649] (tol 1e-3)")


def test_criterion_03_compensator_matrices():
    plant = StateSpaceModel(PLANT_A, PLANT_B, PLANT_C)
    ctrl = build_observer_controller(
        plant, np.array([[1.7720, 2.0]]), H_PUBLISHED, "paper-numeric"
    )
    a_ok = np.max(np.abs(ctrl.model.a - np.array([[-4.272, -39.0], [1.0, 9.0]]))) <= 5e-3
    b_ok = np.array_equal(ctrl.model.b, H_PUBLISHED)
    c_ok = np.array_equal(ctrl.model.c, np.array([[1.772, 2.0]]))
    verdict(
        3,
        a_ok and b_ok and c_ok,
        f"A_c={np.round(ctrl.model.a, 4).tolist()} (tol 5e-3), "
        f"B_c=H exactly: {b_ok}, C_c=[1.772, 2] exactly: {c_ok}",
    )


def test_criterion_04_pole_placement_oracle():
    desired = np.roots([1.0, 4.272, 3.0])
    k = place_poles(PLANT_A, PLANT_B, desired).ravel()
    ok = np.max(np.abs(k - np.array([1.772, 2.0]))) <= 1e-3
    verdict(4, ok, f"place_poles K={np.round(k, 5).tolist()} vs [1.772, 2] (tol 1e-3)")


def test_criterion_05_open_loop_steady_state():
    results = {}
    times = {}
    for preset, target in (("paper-rounded", 90.0), ("exact", 91.43)):
        model = tf_to_ss(preset_tf(preset))
        start = time.perf_counter()
        series = simulate(model, SimConfig(dt=1e-3, duration=20.0, input_amplitude=5.0))
        times[preset] = time.perf_counter() - start
        results[preset] = (float(series.outputs[-1]), target)
    ok = all(
        abs(value - target) <= 0.005 * target for value, target in results.values()
    ) and all(t < 1.0 for t in times.values())
    detail = ", ".join(
        f"{preset}: {value:.3f} V vs {target} V"
        for preset, (value, target) in results.items()
    )
    verdict(5, ok, detail + f"; wall {max(times.values()) * 1e3:.0f} ms (tol 0.5 %, < 1 s)")


def test_criterion_06_efficiency_audit(capsys):
    report = steady_state_report(REFERENCE_PARAMS, 5.0)
    eff_ok = abs(report.efficiency - 57.14) <= 0.015

    code = main(["plant"])
    out = capsys.readouterr().out
    warnings = [l for l in out.splitlines() if l.startswith("WARNING")]
    warn_ok = (
        code == 0
        and len(warnings) == 1
        and "57.1429" in warnings[0]
        and "76.92" in warnings[0]
        and "1300" in warnings[0]
        and "1828.57" in warnings[0]
    )
    verdict(
        6,
        eff_ok and warn_ok,
        f"efficiency {report.efficiency:.4f} % (circuit) vs published 76.92 %; "
        f"discrepancy warning emitted with both numbers: {warn_ok}",
    )


def test_criterion_07_observer_audit_and_separation(capsys, tmp_path):
    plant = StateSpaceModel(PLANT_A, PLANT_B, PLANT_C)

    # (a) published H fails the stability audit with the stated polynomial
    audit = build_observer_controller(plant, K_PUBLISHED_HIGH, H_PUBLISHED, "standard-luenberger").audit
    poly = audit.error_poly
    audit_ok = (not audit.error_hurwitz) and np.max(np.abs(poly.coeffs - [1.0, -6.5, 14.5])) <= 1e-9

    # (b) the irreproducibility of the published 7 s settling is declared
    main(["reproduce", "--figure", "8", "--preset", "paper-rounded",
          "--controller", "observer", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    declared_ok = any(
        "not reproducible" in line for line in out.splitlines() if line.startswith("WARNING")
    )

    # (c) separation principle on 100 random stable designs
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        a, b, c, k, h = random_output_feedback_design(rng, n, place_poles, design_observer_gain)
        loop = luenberger_loop(StateSpaceModel(a, b, c), k, h)
        product = char_poly(a - b @ k) * char_poly(a - h @ c)
        worst = max(worst, float(np.max(np.abs(char_poly(loop.a).coeffs - product.coeffs))))
    separation_ok = worst <= 1e-8

    # (d) stable replacement H from dual placement settles at 220 V
    h_stable = design_observer_gain(PLANT_A, PLANT_C, [-5.0, -6.0])
    spec = ControllerSpec(kind="observer", q_diag=np.array([8.0, 8.0]), r=1.0, h=h_stable)
    result = run_scenario(preset_scenario(
        "stable-h", "paper-rounded", spec, SimConfig(dt=1e-3, duration=15.0), 220.0
    ))
    settle_ok = (
        result.metrics is not None
        and result.metrics.settled
        and result.metrics.settling_time is not None
        and abs(result.metrics.steady_state - 220.0) <= 0.005 * 220.0
    )

    verdict(
        7,
        audit_ok and declared_ok and separation_ok and settle_ok,
        f"A-HC poly {poly} not Hurwitz: {not audit.error_hurwitz}; irreproducibility declared: "
        f"{declared_ok}; separation worst coeff error {worst:.2e} (tol 1e-8); stable-H "
        f"loop settled at {result.metrics.steady_state:.2f} V in "
        f"{result.metrics.settling_time:.2f} s (+/-2 % band)",
    )


def test_criterion_08_care_property_suite():
    rng = np.random.default_rng(88)
    worst_residual = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        a, b = random_controllable_siso(rng, n)
        q_diag = random_q_diag(rng, n)
        r = float(rng.uniform(0.3, 3.0))
        sol = solve_care(a, b, CostWeights(q_diag, r))
        res = float(np.linalg.norm(care_residual(a, b, sol.p, np.diag(q_diag), np.atleast_2d(r))))
        worst_residual = max(worst_residual, res)
        assert res <= 1e-8
        assert np.max(np.abs(sol.p - sol.p.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(sol.p)) >= -1e-9
        k = (b.T @ sol.p) / r
        assert np.max(np.linalg.eigvals(a - b @ k).real) < 0.0

    worst_scalar = 0.0
    rng = np.random.default_rng(89)
    for _ in range(500):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(0.2, 3.0) * (1 if rng.random() < 0.5 else -1)
        q = rng.uniform(0.0, 5.0)
        r = rng.uniform(0.2, 5.0)
        sol = solve_care(np.array([[a]]), np.array([[b]]), CostWeights([q], r))
        worst_scalar = max(worst_scalar, abs(sol.p[0, 0] - scalar_care(a, b, q, r)))
    ok = worst_scalar <= 1e-10
    verdict(
        8,
        ok,
        f"500 random systems n<=4 all satisfied residual/PSD/Hurwitz (worst residual "
        f"{worst_residual:.2e}); scalar oracle worst gap {worst_scalar:.2e} (tol 1e-10)",
    )


def test_criterion_09_simulation_accuracy():
    # analytic first-order error at dt = 1e-3
    ss = StateSpaceModel([[-0.5]], [[0.5]], [[1.0]])
    series = simulate(ss, SimConfig(dt=1e-3, duration=4.0))
    err = float(np.max(np.abs(series.outputs - (1.0 - np.exp(-series.times / 2.0)))))
    first_order_ok = err <= 1e-6

    # empirical convergence order
    errs = []
    for dt in (0.02, 0.01):
        run = simulate(ss, SimConfig(dt=dt, duration=4.0))
        errs.append(float(np.max(np.abs(run.outputs - (1.0 - np.exp(-run.times / 2.0))))))
    order = float(np.log2(errs[0] / errs[1]))
    order_ok = order >= 3.5

    # dc gain vs simulated final value on random stable systems
    rng = np.random.default_rng(99)
    worst_gap = 0.0
    checked = 0
    while checked < 20:
        n = int(rng.integers(1, 4))
        a, b = random_controllable_siso(rng, n)
        a = a - (float(np.max(np.linalg.eigvals(a).real)) + 0.4) * np.eye(n)
        c = rng.normal(size=(1, n))
        model = StateSpaceModel(a, b, c)
        expected = dc_gain(ss_to_tf(model))
        if abs(expected) < 1e-2:
            continue
        run = simulate(model, SimConfig(dt=1e-3, duration=40.0))
        metrics = step_metrics(run)
        worst_gap = max(worst_gap, abs(metrics.steady_state - expected) / abs(expected))
        checked += 1
    dc_ok = worst_gap <= 0.005

    verdict(
        9,
        first_order_ok and order_ok and dc_ok,
        f"first-order max error {err:.2e} (tol 1e-6); RK4 order {order:.2f} (>= 3.5); "
        f"dc-gain vs final value worst gap {100 * worst_gap:.3f} % (tol 0.5 %)",
    )


def test_criterion_10_reproduce_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["reproduce", "--figure", "4", "--out", str(out_a)]) == 0
    assert main(["reproduce", "--figure", "4", "--out", str(out_b)]) == 0
    names = ("figure4-exact.csv", "figure4-paper-rounded.csv")
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    sizes = ", ".join(f"{n} ({(out_a / n).stat().st_size} bytes)" for n in names)
    verdict(10, identical, f"two runs byte-identical: {sizes}")
