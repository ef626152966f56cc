"""In-process workloads: inputs from a seed, one op, and its checks.

Each workload is built from ``(seed, workdir)``; that construction is the
set-up the benchmark times. ``op(i)`` names the i-th op of a fixed
schedule, ``run`` performs it against regforge and ``check`` compares the
result with numpy oracles, returning a list of error strings.

regforge is reached through module attributes (``lti.tf_to_ss``), never
through names bound at import, so the span wrappers of a traced run see
every call.
"""

from __future__ import annotations

import resource
from collections import Counter
from dataclasses import dataclass

import numpy as np
from regforge import lti, observer, plant, riccati, sim

import oracles

# tau_t, k1, n, l_f, r_f, l_a, r_a, r_l of the reference machine.
REFERENCE = np.array([2.0, 4.0, 4.0, 3.0, 2.0, 4.0, 4.0, 8.0])
PAPER_WEIGHTS = (((3.0, 3.0), 5.0), ((8.0, 8.0), 1.0))
STABLE_OBSERVER_POLES = (-5.0, -6.0)
PUBLISHED_H = ((2.0,), (-0.5,))
POOL = 256


def draw_params(rng) -> np.ndarray:
    """Physical parameters log-uniform within x0.5..x2 of the reference set."""
    return REFERENCE * 2.0 ** rng.uniform(-1.0, 1.0, size=REFERENCE.size)


def plant_params(values) -> plant.PlantParams:
    tau_t, k1, n, l_f, r_f, l_a, r_a, r_l = (float(v) for v in values)
    return plant.PlantParams(
        turbine=plant.TurbineParams(tau_t=tau_t),
        generator=plant.GeneratorParams(k1=k1, n=n, l_f=l_f, r_f=r_f, l_a=l_a, r_a=r_a, r_l=r_l),
    )


class Workload:
    """Counters every workload reports beside its metrics."""

    name = ""

    def __init__(self):
        self.op_counts: Counter[str] = Counter()
        self.n_states: Counter[int] = Counter()
        self.n_steps_total = 0
        self.bytes_written = 0
        self.bytes_read = 0

    def finish_traced(self, result, tracer, op: int, wall_s: float) -> None:
        """Hook for workloads whose traced spans live outside this process."""

    def trace_extra(self, n_ops: int) -> dict[str, float]:
        return {"cli.startup_ms": 0.0, "cli.import_ms": 0.0}

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process, in MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def describe(self) -> dict:
        return {
            "op_counts": dict(sorted(self.op_counts.items())),
            "n_steps_total": self.n_steps_total,
            "n_states_mix": {str(k): v for k, v in sorted(self.n_states.items())},
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
        }


@dataclass(frozen=True)
class Design:
    label: str
    preset: str | None
    params: tuple | None
    q_diag: tuple
    r: float
    poles: tuple
    paper: bool


@dataclass(frozen=True)
class DesignResult:
    model: lti.StateSpaceModel
    solution: riccati.RiccatiSolution
    k: np.ndarray
    h: np.ndarray
    loop: lti.StateSpaceModel
    feedback_hurwitz: bool
    loop_hurwitz: bool
    loop_eigenvalues: np.ndarray


class DesignSweep(Workload):
    """One op is one observer-based controller design; no simulation.

    The schedule repeats every 8 ops: the two presets with each paper
    weight (4 ops, all repeated diagonals) and 4 seeded plants, half with a
    repeated diagonal diag(q, q) and half with distinct entries. Repeated
    diagonals drive Durand-Kerner to its iteration cap in the weight check,
    so 6 of 8 ops are slow ones; that keeps the median and p90 inside one
    population instead of on the boundary between two.
    """

    name = "design-sweep"
    SCHEDULE = ("paper:exact:0", "repeated", "distinct", "paper:paper-rounded:1",
                "paper:exact:1", "repeated", "distinct", "paper:paper-rounded:0")

    def __init__(self, seed: int, workdir):
        super().__init__()
        rng = np.random.default_rng([seed, 1])
        self.pools = {"repeated": [], "distinct": []}
        for kind in ("repeated", "distinct"):
            for _ in range(POOL):
                params = tuple(draw_params(rng))
                q = 10.0 ** rng.uniform(0.0, 1.0)
                if kind == "repeated":
                    q_diag = (q, q)
                else:
                    q_diag = tuple(rng.permutation([q, q * 10.0 ** rng.uniform(0.2, 0.8)]))
                r = 10.0 ** rng.uniform(-0.3, 1.0)
                fast = -rng.uniform(2.0, 8.0)
                poles = (fast, fast - rng.uniform(1.0, 3.0))
                self.pools[kind].append(Design(kind, None, params, q_diag, r, poles, paper=False))

    def op(self, i: int) -> Design:
        slot = self.SCHEDULE[i % len(self.SCHEDULE)]
        if slot.startswith("paper:"):
            _, preset, w = slot.split(":")
            q_diag, r = PAPER_WEIGHTS[int(w)]
            return Design(f"{preset}-paper{w}", preset, None, q_diag, r, STABLE_OBSERVER_POLES, paper=True)
        return self.pools[slot][(i // len(self.SCHEDULE)) % POOL]

    def run(self, d: Design, tracer=None) -> DesignResult:
        tf = plant.preset_tf(d.preset) if d.preset else plant.plant_tf(plant_params(d.params))
        model = lti.tf_to_ss(tf)
        weights = riccati.CostWeights.diagonal(d.q_diag, d.r)
        solution = riccati.solve_care(model.a, model.b, weights)
        k = np.linalg.solve(weights.r, model.b.T @ solution.p)
        h = observer.design_observer_gain(model.a, model.c, d.poles)
        n_gain = sim.reference_prescaler(model, k)
        loop = observer.luenberger_loop(model, k, h, n_gain)
        return DesignResult(
            model=model, solution=solution, k=k, h=h, loop=loop,
            feedback_hurwitz=lti.is_hurwitz(lti.char_poly(model.a - model.b @ k)),
            loop_hurwitz=lti.is_hurwitz(lti.char_poly(loop.a)),
            loop_eigenvalues=lti.eigenvalues(loop.a),
        )

    def check(self, d: Design, res: DesignResult) -> list[str]:
        self.op_counts[d.label] += 1
        self.n_states[res.model.n_states] += 1
        self.n_states[res.loop.n_states] += 1
        a, b, c = res.model.a, res.model.b, res.model.c
        errors = [
            oracles.care_residual(a, b, np.diag(d.q_diag), np.array([[d.r]]), res.solution.p),
            oracles.hurwitz_agrees("A-BK", a - b @ res.k, res.feedback_hurwitz),
            oracles.hurwitz_agrees("loop", res.loop.a, res.loop_hurwitz),
            oracles.spectrum_agrees("loop", res.loop.a, res.loop_eigenvalues),
            oracles.spectrum_agrees("A-HC", a - res.h @ c, d.poles),
        ]
        if not (res.feedback_hurwitz and res.loop_hurwitz):
            errors.append("LQR or observer design left an unstable loop")
        dc = oracles.dc_output(res.loop.a, res.loop.b, res.loop.c, res.loop.d, 1.0)
        if abs(dc - 1.0) > 1e-8:
            errors.append(f"prescaled loop dc gain {dc!r} is not 1")
        if d.paper:
            errors.append(oracles.paper_gain(d.q_diag, d.r, res.k))
        return [e for e in errors if e]


@dataclass(frozen=True)
class Model:
    label: str
    ss: lti.StateSpaceModel
    u: float
    x0: np.ndarray
    diverges: bool


@dataclass(frozen=True)
class Horizon:
    label: str
    model: Model
    steps: int
    long: bool


class SimHorizons(Workload):
    """One op is one ``simulate`` plus ``step_metrics`` on a prebuilt model.

    The schedule repeats every 20 ops: each of the four models runs 4 short
    horizons (800-1200 steps) and 1 long one (36k-44k steps; the
    published-H loop is truncated near 10k steps when its error mode
    diverges). Long ops are spread evenly, one in five, so the median is a
    short op (per-call cost) and p90 a long one (per-step cost).
    """

    name = "sim-horizons"
    DT = 1e-3
    REFERENCE_V = 220.0
    INFLOW = 5.0
    ESTIMATION_ERROR = 1e-6

    def __init__(self, seed: int, workdir):
        super().__init__()
        rng = np.random.default_rng([seed, 2])
        exact = lti.tf_to_ss(plant.preset_tf("exact"))
        rounded = lti.tf_to_ss(plant.preset_tf("paper-rounded"))
        k_lqr = self._gain(rounded, *PAPER_WEIGHTS[0])
        k_obs = self._gain(rounded, *PAPER_WEIGHTS[1])
        h_stable = observer.design_observer_gain(rounded.a, rounded.c, STABLE_OBSERVER_POLES)
        n_lqr = sim.reference_prescaler(rounded, k_lqr)
        n_obs = sim.reference_prescaler(rounded, k_obs)
        x0_obs = np.zeros(4)
        x0_obs[2:] = -self.ESTIMATION_ERROR * self.REFERENCE_V
        self.models = (
            Model("open-loop", exact, self.INFLOW, np.zeros(2), False),
            Model("lqr", sim.state_feedback_loop(rounded, k_lqr, n_lqr), self.REFERENCE_V, np.zeros(2), False),
            Model("observer-stable", observer.luenberger_loop(rounded, k_obs, h_stable, n_obs),
                  self.REFERENCE_V, x0_obs, False),
            Model("observer-published", observer.luenberger_loop(rounded, k_obs, np.array(PUBLISHED_H), n_obs),
                  self.REFERENCE_V, x0_obs, True),
        )
        self.short_steps = rng.integers(800, 1201, size=POOL)
        self.long_steps = rng.integers(36_000, 44_001, size=POOL)

    @staticmethod
    def _gain(model, q_diag, r):
        weights = riccati.CostWeights.diagonal(q_diag, r)
        return np.linalg.solve(weights.r, model.b.T @ riccati.solve_care(model.a, model.b, weights).p)

    def op(self, i: int) -> Horizon:
        slot, cycle = i % 20, i // 20
        if slot % 5 == 0:
            model = self.models[slot // 5]
            return Horizon(f"{model.label}-long", model, int(self.long_steps[cycle % POOL]), True)
        model = self.models[slot % 4]
        return Horizon(f"{model.label}-short", model, int(self.short_steps[i % POOL]), False)

    def run(self, h: Horizon, tracer=None):
        cfg = sim.SimConfig(dt=self.DT, duration=h.steps * self.DT, input_amplitude=h.model.u)
        series = sim.simulate(h.model.ss, cfg, x0=h.model.x0)
        return cfg, series, sim.step_metrics(series)

    def check(self, h: Horizon, result) -> list[str]:
        cfg, series, metrics = result
        ss = h.model.ss
        self.op_counts[h.label] += 1
        self.n_states[ss.n_states] += 1
        self.n_steps_total += series.n_samples - 1
        errors = [oracles.divergence_flag(series.states, series.outputs, cfg.divergence_limit, series.diverged)]
        if series.diverged != (h.model.diverges and h.long):
            errors.append(f"diverged={series.diverged}, expected {h.model.diverges and h.long}")
        if series.diverged:
            if metrics.settled:
                errors.append("diverged run reported as settled")
            return [e for e in errors if e]
        if series.n_samples != h.steps + 1:
            errors.append(f"{series.n_samples} samples for {h.steps} steps")
        t_end = series.times[-1]
        y_exact = float((ss.c @ oracles.exact_state(ss.a, ss.b, h.model.x0, h.model.u, t_end)).item()
                        + ss.d[0, 0] * h.model.u)
        if abs(series.outputs[-1] - y_exact) > 1e-7 * (1.0 + abs(y_exact)):
            errors.append(f"final output {series.outputs[-1]!r} differs from exact {y_exact!r}")
        if h.long:
            dc = oracles.dc_output(ss.a, ss.b, ss.c, ss.d, h.model.u)
            errors.append(oracles.within_band("steady state", metrics.steady_state, dc))
        return [e for e in errors if e]
