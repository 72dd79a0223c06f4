"""Sequential unsharp observers on three-qubit states.

One wing of a shared GHZ, W or user-supplied state is measured by a
chain of observers whose measurements trade information gain against
disturbance.  Each observer's statistics, joined with the two
untouched wings, are scored against genuine tripartite steering
inequalities; searches find how weak a measurement can be while still
violating, and how long the chain can get.
"""

from .qop import (
    BlochDirection,
    X_DIR,
    Y_DIR,
    Z_DIR,
    direction_observable,
    effect_sqrt,
    tensor3,
)
from .states import (
    GHZ,
    W,
    StateFormatError,
    StateKind,
    StateSpec,
    build_state,
    custom_spec,
    ghz_state,
    load_state_file,
    w_state,
)
from .measurement import (
    SettingTriple,
    averaged_channel,
    bloch_shrink_factor,
    effect,
    joint_probability,
    selective_updates,
)
from .inequalities import (
    InequalityKind,
    SteeringDirection,
    Term,
    evaluate,
    required_terms,
)
from .cascade import (
    CascadeResult,
    Scenario,
    ScenarioSpec,
    no_signalling_audit,
    run_cascade,
    run_cascade_oracle,
    states_along,
    value_from_state,
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
    "Term",
    "ThresholdTable",
    "W",
    "X_DIR",
    "Y_DIR",
    "Z_DIR",
    "averaged_channel",
    "bloch_shrink_factor",
    "build_state",
    "build_table",
    "custom_spec",
    "direction_coefficients",
    "direction_observable",
    "effect",
    "effect_sqrt",
    "evaluate",
    "ghz_state",
    "joint_probability",
    "load_state_file",
    "no_signalling_audit",
    "optimize_angles",
    "required_terms",
    "run_cascade",
    "run_cascade_oracle",
    "selective_updates",
    "states_along",
    "tensor3",
    "threshold_lambda",
    "value_from_state",
    "w_state",
    "xyz_spec",
]
