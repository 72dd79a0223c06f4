"""Sequential unsharp observers on three-qubit states.

One wing of a shared GHZ, W or user-supplied state is measured by a
chain of observers whose measurements trade information gain against
disturbance.  Each observer's statistics, joined with the two
untouched wings, are scored against genuine tripartite steering
inequalities; searches find how weak a measurement can be while still
violating, and how long the chain can get.
"""

from .qop import BlochDirection
from .states import GHZ, W, StateFormatError, StateKind, StateSpec, build_state
from .measurement import SettingTriple, bloch_shrink_factor, joint_probability
from .inequalities import InequalityKind, SteeringDirection
from .cascade import (
    CascadeResult,
    Scenario,
    ScenarioSpec,
    no_signalling_audit,
    run_cascade,
    run_cascade_oracle,
    xyz_spec,
)
from .search import (
    Optimizer,
    SearchConfig,
    SearchError,
    ThresholdTable,
    build_table,
    direction_coefficients,
    optimize_angles,
    threshold_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "BlochDirection",
    "CascadeResult",
    "GHZ",
    "InequalityKind",
    "Optimizer",
    "Scenario",
    "ScenarioSpec",
    "SearchConfig",
    "SearchError",
    "SettingTriple",
    "StateFormatError",
    "StateKind",
    "StateSpec",
    "SteeringDirection",
    "ThresholdTable",
    "W",
    "bloch_shrink_factor",
    "build_state",
    "build_table",
    "direction_coefficients",
    "joint_probability",
    "no_signalling_audit",
    "optimize_angles",
    "run_cascade",
    "run_cascade_oracle",
    "threshold_lambda",
    "xyz_spec",
]
