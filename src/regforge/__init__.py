"""Linear control toolkit for a steam-turbine DC-generator plant.

Models the plant from physical parameters, synthesizes LQR and
observer-based controllers, simulates open- and closed-loop responses,
and reproduces (or flags as irreproducible) the published figures.
"""

from .errors import CareConvergenceError, NumericalError, ValidationError
from .lti import (
    Polynomial,
    StateSpaceModel,
    TransferFunction,
    char_poly,
    dc_gain,
    eigenvalues,
    feedback_interconnect,
    is_hurwitz,
    ss_to_tf,
    tf_series,
    tf_to_ss,
)
from .observer import (
    CONVENTIONS,
    ObserverBasedController,
    ObserverGain,
    build_observer_controller,
    design_observer_gain,
    luenberger_loop,
    observer_error_dynamics,
    place_poles,
)
from .plant import (
    ElectricalReport,
    GeneratorParams,
    PlantParams,
    REFERENCE_PARAMS,
    TurbineParams,
    generator_tf,
    plant_tf,
    preset_tf,
    rounded_plant_tf,
    steady_state_report,
    turbine_tf,
)
from .riccati import CostWeights, RiccatiSolution, care_residual, lqr_gain, solve_care, solve_lyapunov
from .sim import (
    ElectricalTrace,
    SimConfig,
    StepMetrics,
    TimeSeries,
    electrical_trace,
    reference_prescaler,
    simulate,
    state_feedback_loop,
    step_metrics,
)

__version__ = "0.1.0"
