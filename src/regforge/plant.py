"""Steam-turbine and DC-generator models built from physical parameters.

The turbine is a first-order lag with time constant tau_t (all steam-side
detail is lumped into that one number). The generator is a series-wound DC
machine driving a resistive load through a gear: the induced EMF is
proportional to shaft speed, e_g = k1 * n * omega, and the armature loop
obeys e_g = (L_f + L_a) di_a/dt + (R_f + R_a + R_L) i_a, v_out = R_L i_a.

The exact combined transfer function has dc gain n*R_L*k1*tau_t / R_total
(256/14 for the reference parameter set); the published study rounds that
gain to 18. Both forms are kept as named presets so published traces can
be matched either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .lti import TransferFunction, tf_series

__all__ = [
    "TurbineParams",
    "GeneratorParams",
    "PlantParams",
    "ElectricalReport",
    "REFERENCE_PARAMS",
    "PRESETS",
    "turbine_tf",
    "generator_tf",
    "plant_tf",
    "rounded_plant_tf",
    "preset_tf",
    "steady_state_report",
    "PUBLISHED_OPEN_LOOP",
]


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not value > 0.0:
        raise ValidationError(f"{name} must be strictly positive, got {value!r}")
    return value


@dataclass(frozen=True)
class TurbineParams:
    """First-order steam vessel lag, tau_t in seconds."""

    tau_t: float

    def __post_init__(self):
        object.__setattr__(self, "tau_t", _require_positive("turbine.tau_t", self.tau_t))


@dataclass(frozen=True)
class GeneratorParams:
    """Series-wound DC generator and load constants.

    k1: speed-proportional EMF constant [V s/rad]; n: gear ratio;
    l_f/r_f: field winding inductance/resistance; l_a/r_a: armature
    winding inductance/resistance; r_l: load resistance.
    """

    k1: float
    n: float
    l_f: float
    r_f: float
    l_a: float
    r_a: float
    r_l: float

    def __post_init__(self):
        for name in ("k1", "n", "l_f", "r_f", "l_a", "r_a", "r_l"):
            object.__setattr__(self, name, _require_positive(f"generator.{name}", getattr(self, name)))

    @property
    def total_inductance(self) -> float:
        return self.l_f + self.l_a

    @property
    def total_resistance(self) -> float:
        return self.r_f + self.r_a + self.r_l


@dataclass(frozen=True)
class PlantParams:
    turbine: TurbineParams
    generator: GeneratorParams


#: Reference parameter set of the published study (tau_t=2 s, k1=4 Vs/rad,
#: n=4, L_f=3 H, R_f=2 ohm, L_a=4 H, R_a=4 ohm, R_L=8 ohm).
REFERENCE_PARAMS = PlantParams(
    turbine=TurbineParams(tau_t=2.0),
    generator=GeneratorParams(k1=4.0, n=4.0, l_f=3.0, r_f=2.0, l_a=4.0, r_a=4.0, r_l=8.0),
)

#: Published open-loop readings for the reference plant at 5 g/s, kept only
#: so reports can state the discrepancy against recomputed values.
PUBLISHED_OPEN_LOOP = {
    "v_out": 90.0,
    "p_out": 1000.0,
    "p_in": 1300.0,
    "efficiency": 76.92,
}


@dataclass(frozen=True)
class ElectricalReport:
    """Steady-state electrical operating point of the generator loop.

    Satisfies i_a = v_out/R_L, e_g = i_a * R_total, p_out = v_out*i_a,
    p_in = e_g*i_a, and efficiency = 100 * R_L / R_total identically.
    """

    v_out: float
    i_a: float
    e_g: float
    p_out: float
    p_in: float
    efficiency: float


def turbine_tf(p: TurbineParams) -> TransferFunction:
    """Turbine speed per steam inflow: tau_t / (tau_t s + 1)."""
    return TransferFunction([p.tau_t], [p.tau_t, 1.0])


def generator_tf(p: GeneratorParams) -> TransferFunction:
    """Terminal voltage per shaft speed: n R_L k1 / ((L_f+L_a) s + R_total)."""
    return TransferFunction([p.n * p.r_l * p.k1], [p.total_inductance, p.total_resistance])


def plant_tf(p: PlantParams) -> TransferFunction:
    """Cascade of turbine and generator: voltage per steam inflow."""
    return tf_series(turbine_tf(p.turbine), generator_tf(p.generator))


def rounded_plant_tf() -> TransferFunction:
    """Reference plant with the published rounded gain: 18/(s^2 + 2.5s + 1).

    The exact gain is 256/14 ~ 18.2857; the published model rounds it to
    18, which is exactly the gap between the 90 V trace in the published
    figures and the 91.43 V the circuit equations give.
    """
    return TransferFunction([18.0], [1.0, 2.5, 1.0])


PRESETS = ("exact", "paper-rounded")


def preset_tf(name: str, params: PlantParams = REFERENCE_PARAMS) -> TransferFunction:
    """Named plant model: 'exact' (from params) or 'paper-rounded'."""
    if name == "exact":
        return plant_tf(params)
    if name == "paper-rounded":
        return rounded_plant_tf()
    raise ValidationError(f"unknown preset {name!r}; choose one of {PRESETS}")


def steady_state_report(p: PlantParams, f_in: float) -> ElectricalReport:
    """Electrical operating point for a constant steam inflow f_in [g/s].

    Chains the dc gains: shaft speed tau_t*f_in, EMF k1*n*speed, then the
    resistive divider. Efficiency is R_L/R_total regardless of f_in and is
    reported as that limit even at zero inflow.
    """
    f_in = float(f_in)
    # Written so that NaN fails it too.
    if not 0.0 <= f_in < math.inf:
        raise ValidationError(f"steam inflow must be finite and nonnegative, got {f_in!r}")
    g = p.generator
    omega = p.turbine.tau_t * f_in
    e_g = g.k1 * g.n * omega
    i_a = e_g / g.total_resistance
    v_out = g.r_l * i_a
    return ElectricalReport(
        v_out=v_out,
        i_a=i_a,
        e_g=e_g,
        p_out=v_out * i_a,
        p_in=e_g * i_a,
        efficiency=100.0 * g.r_l / g.total_resistance,
    )
