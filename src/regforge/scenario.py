"""Flat key-value scenario and parameter files.

The on-disk format is deliberately primitive so that any tooling can read
and write it without a parser dependency: one ``key = value`` pair per
line, dotted section keys, ``#`` comments. Vectors are whitespace- or
comma-separated numbers; matrices separate rows with ``;``.

Parameter file keys (for ``plant --params``)::

    turbine.tau_t = 2
    generator.k1 = 4
    generator.n = 4
    generator.l_f = 3
    generator.r_f = 2
    generator.l_a = 4
    generator.r_a = 4
    generator.r_l = 8

Scenario file keys::

    name = paper-lqr
    plant.preset = exact            # or paper-rounded
    # ... or inline plant.turbine.* / plant.generator.* physical keys,
    # or plant.tf.num / plant.tf.den, or plant.ss.a/b/c/d
    controller.type = lqr           # none | lqr | observer | ss
    controller.q_diag = 3 3
    controller.r = 5
    controller.h = 2 -0.5           # observer only
    controller.convention = standard-luenberger
    reference = 220                 # closed loop only
    sim.dt = 0.001
    sim.duration = 15
    sim.amplitude = 5               # input level, 0 for none; open loop only
    outputs = csv report            # any of csv svg report

``name`` is the file stem of the artifacts, so it may not hold ``/`` or
NUL or be ``.`` or ``..``. ``outputs`` names the artifacts ``simulate``
writes when ``--format`` is not given; ``--format``, when given, decides
instead. ``report`` is accepted but changes nothing: the text report is
always printed. The file is the whole run description: no command-line
option overrides a key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import NumericalError, ValidationError
from .lti import (
    StateSpaceModel,
    TransferFunction,
    char_poly,
    eigenvalues,
    feedback_interconnect,
    is_hurwitz,
    ss_to_tf,
    tf_to_ss,
)
from .observer import CONVENTIONS, ObserverBasedController, build_observer_controller, luenberger_loop
from .plant import (
    GeneratorParams,
    PlantParams,
    PRESETS,
    REFERENCE_PARAMS,
    TurbineParams,
    plant_tf as physical_plant_tf,
    preset_tf,
)
from .riccati import CostWeights, RiccatiSolution, solve_care
from .sim import ElectricalTrace, SimConfig, TimeSeries, electrical_trace
from .sim import reference_prescaler, simulate, state_feedback_loop, step_metrics
from .steps import StepMetrics

__all__ = [
    "parse_kv_file",
    "load_plant_params",
    "ControllerSpec",
    "Scenario",
    "load_scenario",
    "preset_scenario",
    "ClosedLoop",
    "closed_loop",
    "ScenarioRun",
    "run_scenario",
]

# Initial estimation error of an observer-based loop, relative to the
# reference. A perfectly synchronized estimate keeps an unstable error mode
# invisible forever in exact arithmetic (which is how an unstable observer
# design can still produce a clean simulated trace); the offset makes the
# audit verdict observable while leaving stable designs untouched.
ESTIMATE_OFFSET = 1e-6

OUTPUT_KINDS = ("csv", "svg", "report")
DEFAULT_OUTPUTS = ("csv", "report")

PARAM_KEYS = (
    "turbine.tau_t",
    "generator.k1",
    "generator.n",
    "generator.l_f",
    "generator.r_f",
    "generator.l_a",
    "generator.r_a",
    "generator.r_l",
)


def parse_kv_file(path) -> dict[str, str]:
    """Read a flat key-value file into an ordered mapping of strings."""
    path = Path(path)
    mapping: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValidationError(f"{path}:{lineno}: empty key or value")
        if key in mapping:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ValidationError(f"{key}: expected a number, got {value!r}") from exc


def _parse_vector(key: str, value: str) -> np.ndarray:
    items = value.replace(",", " ").split()
    if not items:
        raise ValidationError(f"{key}: expected at least one number")
    try:
        return np.array([float(v) for v in items])
    except ValueError as exc:
        raise ValidationError(f"{key}: expected numbers, got {value!r}") from exc


def _parse_matrix(key: str, value: str) -> np.ndarray:
    parsed = [_parse_vector(key, r) for r in value.split(";")]
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ValidationError(f"{key}: rows have unequal lengths")
    return np.vstack(parsed)


def _required(mapping, key: str) -> str:
    """Take a required key out of `mapping`; if it is missing, the error names it."""
    if key not in mapping:
        raise ValidationError(f"missing required parameter {key}")
    return mapping.pop(key)


def _optional_float(mapping, key: str, default: float | None) -> float | None:
    """Take an optional number out of `mapping`, or `default` when it is absent."""
    return _parse_float(key, mapping.pop(key)) if key in mapping else default


def _parse_ss(mapping, prefix: str) -> StateSpaceModel:
    """The model of the required a, b, c and optional d keys under `prefix`."""
    a, b, c = (_parse_matrix(prefix + m, _required(mapping, prefix + m)) for m in "abc")
    d = _parse_matrix(prefix + "d", mapping.pop(prefix + "d")) if prefix + "d" in mapping else None
    try:
        return StateSpaceModel(a, b, c, d)
    except ValidationError as exc:
        # The model's messages open with the matrix they reject ("B must be nx1 ...").
        raise ValidationError(f"{prefix}{str(exc)[0].lower()}: {exc}") from None


def _parse_plant_params(mapping: dict[str, str], prefix: str = "") -> PlantParams:
    """Take PlantParams out of the dotted keys under `prefix`, naming any missing one."""
    values = {key: _parse_float(prefix + key, _required(mapping, prefix + key)) for key in PARAM_KEYS}
    turbine = TurbineParams(tau_t=values["turbine.tau_t"])
    generator = GeneratorParams(
        k1=values["generator.k1"],
        n=values["generator.n"],
        l_f=values["generator.l_f"],
        r_f=values["generator.r_f"],
        l_a=values["generator.l_a"],
        r_a=values["generator.r_a"],
        r_l=values["generator.r_l"],
    )
    return PlantParams(turbine=turbine, generator=generator)


def load_plant_params(path) -> PlantParams:
    mapping = parse_kv_file(path)
    unknown = set(mapping) - set(PARAM_KEYS)
    if unknown:
        raise ValidationError(f"unknown parameter keys: {', '.join(sorted(unknown))}")
    return _parse_plant_params(mapping)


@dataclass(frozen=True, eq=False)
class ControllerSpec:
    """Controller block of a scenario; fields depend on kind."""

    kind: str = "none"
    q_diag: np.ndarray | None = None
    r: float | None = None
    h: np.ndarray | None = None
    convention: str = "standard-luenberger"
    model: StateSpaceModel | None = None


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully resolved run description."""

    name: str
    plant_model: StateSpaceModel
    plant_tf: TransferFunction
    plant_params: PlantParams | None
    preset: str | None
    controller: ControllerSpec
    sim: SimConfig
    reference: float | None
    outputs: tuple[str, ...]


def _preset_plant(name: str):
    tf = preset_tf(name)
    # Both presets describe the same physical machine, so the
    # electrical report always uses the reference parameters.
    return tf_to_ss(tf), tf, REFERENCE_PARAMS, name


def _resolve_plant(mapping):
    """(plant_model, plant_tf, plant_params, preset), the plant fields of a Scenario."""
    sources = []
    if "plant.preset" in mapping:
        sources.append("preset")
    if any(k.startswith("plant.turbine.") or k.startswith("plant.generator.") for k in mapping):
        sources.append("params")
    if "plant.tf.num" in mapping or "plant.tf.den" in mapping:
        sources.append("tf")
    if any(k.startswith("plant.ss.") for k in mapping):
        sources.append("ss")
    if len(sources) > 1:
        raise ValidationError(f"plant specified more than once: {', '.join(sources)}")

    if "preset" in sources:
        name = mapping.pop("plant.preset")
        if name not in PRESETS:
            raise ValidationError(f"plant.preset: unknown preset {name!r}; choose one of {PRESETS}")
        return _preset_plant(name)
    if "params" in sources:
        params = _parse_plant_params(mapping, prefix="plant.")
        tf = physical_plant_tf(params)
        return tf_to_ss(tf), tf, params, None
    if "tf" in sources:
        num, den = (_required(mapping, key) for key in ("plant.tf.num", "plant.tf.den"))
        tf = TransferFunction(_parse_vector("plant.tf.num", num), _parse_vector("plant.tf.den", den))
        return tf_to_ss(tf), tf, None, None
    if "ss" in sources:
        model = _parse_ss(mapping, "plant.ss.")
        return model, ss_to_tf(model), None, None
    raise ValidationError("scenario does not specify a plant (plant.preset, plant.*, plant.tf.*, or plant.ss.*)")


def _resolve_controller(mapping) -> ControllerSpec:
    kind = mapping.pop("controller.type", "none")
    if kind == "none":
        return ControllerSpec(kind="none")
    if kind in ("lqr", "observer"):
        q_text, r_text = (_required(mapping, key) for key in ("controller.q_diag", "controller.r"))
        q_diag = _parse_vector("controller.q_diag", q_text)
        r = _parse_float("controller.r", r_text)
        # Each weight is checked on its own (r = 1 beside q_diag, no q beside r),
        # so a bad one exits 1 naming its key before any synthesis.
        for key, weights in (("controller.q_diag", (q_diag, 1.0)), ("controller.r", ((), r))):
            try:
                CostWeights(*weights)
            except ValidationError as exc:
                raise ValidationError(f"{key}: {exc}") from None
        if kind == "lqr":
            return ControllerSpec(kind="lqr", q_diag=q_diag, r=r)
        h = _parse_vector("controller.h", _required(mapping, "controller.h"))
        convention = mapping.pop("controller.convention", ControllerSpec.convention)
        if convention not in CONVENTIONS:
            raise ValidationError(
                f"controller.convention: unknown convention {convention!r}; choose one of {CONVENTIONS}"
            )
        return ControllerSpec(kind="observer", q_diag=q_diag, r=r, h=h, convention=convention)
    if kind == "ss":
        return ControllerSpec(kind="ss", model=_parse_ss(mapping, "controller."))
    raise ValidationError(f"controller.type: unknown kind {kind!r}; choose none, lqr, observer, or ss")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file into a resolved Scenario.

    Each key is taken out of the parsed mapping where it is read, so the
    keys left at the end are the unknown ones.
    """
    mapping = parse_kv_file(path)

    name = mapping.pop("name", Path(path).stem)
    # The name is the artifacts' file stem: it must not leave --out.
    if "/" in name or "\0" in name or name in (".", ".."):
        raise ValidationError(f"name: {name!r} is not a file stem; it may not hold '/' or NUL "
                              "or be '.' or '..'")

    plant = _resolve_plant(mapping)
    controller = _resolve_controller(mapping)

    reference = _optional_float(mapping, "reference", None)
    if reference is not None and controller.kind == "none":
        raise ValidationError("reference requires a controller block")

    default_duration = 15.0 if controller.kind != "none" else 20.0
    amplitude_given = "sim.amplitude" in mapping
    sim = SimConfig(
        dt=_optional_float(mapping, "sim.dt", 1e-3),
        duration=_optional_float(mapping, "sim.duration", default_duration),
        input_amplitude=_optional_float(mapping, "sim.amplitude", 1.0),
    )
    # A closed loop always steps to `reference`: the key would do nothing.
    if controller.kind != "none" and amplitude_given:
        raise ValidationError("sim.amplitude requires controller.type = none; a closed loop steps to reference")

    outputs = (
        tuple(mapping.pop("outputs").replace(",", " ").split()) if "outputs" in mapping else DEFAULT_OUTPUTS
    )
    for out in outputs:
        if out not in OUTPUT_KINDS:
            raise ValidationError(f"outputs: unknown artifact {out!r}; choose from {OUTPUT_KINDS}")

    if mapping:
        raise ValidationError(f"unknown scenario keys: {', '.join(sorted(mapping))}")

    return Scenario(name, *plant, controller, sim, reference, outputs)


def preset_scenario(name: str, preset: str, controller: ControllerSpec, sim: SimConfig,
                    reference: float | None = None) -> Scenario:
    """In-code scenario on a plant preset, with the default outputs."""
    return Scenario(name, *_preset_plant(preset), controller, sim, reference, DEFAULT_OUTPUTS)


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """A scenario's controller closed around its plant.

    `model` maps the reference r to the plant output; `x0` is its initial
    state. `care` is set for lqr and observer controllers, `observer` (the
    compensator, its wiring convention and the A - BK / A - HC audit) for
    observer controllers. `prescaler` is the reference gain N of the lqr
    and standard-luenberger loops; when none exists, `model` takes N = 1
    and `prescaler_error` says why.
    """

    model: StateSpaceModel
    hurwitz: bool
    x0: np.ndarray
    care: RiccatiSolution | None = None
    observer: ObserverBasedController | None = None
    prescaler: float | None = None
    prescaler_error: str | None = None


def closed_loop(scn: Scenario) -> ClosedLoop:
    """Close the scenario's controller around its plant.

    The observer wiring is the controller's `convention`. lqr closes
    u = N r - K x; standard-luenberger closes the observer loop with
    u = N r - K x_hat, its estimate offset from the plant state by
    ESTIMATE_OFFSET of the reference; the other conventions and ss
    controllers close unity feedback around the compensator.
    """
    plant = scn.plant_model
    spec = scn.controller
    if spec.kind == "none":
        raise ValidationError("scenario has no controller to close the loop with")
    care = observer = prescaler = prescaler_error = None
    compensator = spec.model  # set for ss controllers only
    if spec.kind != "ss":
        care = solve_care(plant.a, plant.b, CostWeights.diagonal(spec.q_diag, spec.r))
        if spec.kind == "observer":
            observer = build_observer_controller(plant, care.k, spec.h, spec.convention)
        if observer is not None and observer.convention != "standard-luenberger":
            compensator = observer.model
    if compensator is not None:
        loop = feedback_interconnect(plant, compensator)
        x0 = np.zeros(loop.n_states)
    else:
        n = plant.n_states
        try:
            prescaler = reference_prescaler(plant, care.k)
        except NumericalError as exc:
            prescaler_error = str(exc)
        gain = 1.0 if prescaler is None else prescaler
        if observer is None:
            loop, x0 = state_feedback_loop(plant, care.k, gain), np.zeros(n)
        else:
            loop = luenberger_loop(plant, care.k, spec.h, gain)
            offset = ESTIMATE_OFFSET * abs(scn.reference or 0.0)
            x0 = np.concatenate([np.zeros(n), np.full(n, -offset)])
    return ClosedLoop(loop, is_hurwitz(char_poly(loop.a)), x0, care, observer,
                      prescaler, prescaler_error)


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """Everything one scenario run computed.

    `metrics` is None for a diverged run. `electrical` is set for open-loop
    runs of a plant with physical parameters, `loop` for closed-loop runs.
    """

    scenario: Scenario
    series: TimeSeries
    metrics: StepMetrics | None
    electrical: ElectricalTrace | None = None
    loop: ClosedLoop | None = None


def _rk4_stable(dt: float, eigs: np.ndarray) -> bool:
    """Whether |R(dt lambda)| <= 1 for every eigenvalue, R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    z = dt * eigs
    return bool(np.all(np.abs(1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))) <= 1.0))


def _check_step(a: np.ndarray, hurwitz: bool, dt: float) -> None:
    """Reject a dt at which RK4 grows a mode of a stable system.

    An unstable system is left to run: `simulate` truncates and flags it.
    The largest stable dt is found by bisection on `_rk4_stable`.
    """
    if not hurwitz:
        return
    eigs = eigenvalues(a)
    if _rk4_stable(dt, eigs):
        return
    lo, hi = 0.0, dt
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _rk4_stable(mid, eigs):
            lo = mid
        else:
            hi = mid
    raise ValidationError(
        f"step-too-large: the system is stable but sim.dt = {dt:g} s takes one of its modes "
        f"outside RK4's stability region; the largest stable sim.dt is {lo:.4g} s"
    )


def run_scenario(scn: Scenario) -> ScenarioRun:
    """Synthesize, simulate and measure one scenario; closed loops step to its reference.

    A stable system whose RK4 step would grow one of its modes exits with a
    `step-too-large` ValidationError before the run (`_check_step`).
    """
    if scn.controller.kind == "none":
        plant = scn.plant_model
        if plant.n_states:
            _check_step(plant.a, is_hurwitz(char_poly(plant.a)), scn.sim.dt)
        series = simulate(plant, scn.sim)
        electrical = electrical_trace(scn.plant_params, series) if scn.plant_params else None
        metrics = None if series.diverged else step_metrics(series)
        return ScenarioRun(scn, series, metrics, electrical=electrical)
    if scn.reference is None:
        raise ValidationError("closed-loop scenario needs a reference")
    loop = closed_loop(scn)
    if loop.prescaler_error is not None:
        raise NumericalError(loop.prescaler_error)
    _check_step(loop.model.a, loop.hurwitz, scn.sim.dt)
    cfg = replace(scn.sim, input_amplitude=scn.reference)
    series = simulate(loop.model, cfg, loop.x0)
    metrics = None if series.diverged else step_metrics(series)
    return ScenarioRun(scn, series, metrics, loop=loop)
