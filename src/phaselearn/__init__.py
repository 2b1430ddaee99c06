"""Desk-scale laboratory for learning local observables across dissipative phases.

Simulate parameterised local Lindbladian dynamics, collect randomized-basis
measurement snapshots, and predict local expectation values anywhere in the
parameter box with the nearest-patch estimator, alongside numerical checks of
the structural assumptions (localisation, local rapid mixing, compatibility,
stability) the sample-complexity prescriptions rest on.
"""

from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    EmptyCellError,
    NumericalError,
    PhaselearnError,
    PlanInfeasibleError,
)
from .lattice import (
    Lattice,
    LocalObservable,
    Region,
    ball,
    embed,
    enlarge,
    observable_from_string,
)
from .lindblad import (
    AncillaSpec,
    DensityMatrix,
    LindbladTerm,
    ParamLindbladian,
    Superoperator,
    assemble,
    evolve,
    heisenberg_evolve,
    localize,
    partial_trace,
    steady_state,
    steady_states,
)
from .models import (
    CATALOG,
    build_dissipative_tfim,
    build_pinning_family,
    generate_state,
    instantiate,
    sample_parameters,
)
from .shadows import (
    TrainingSet,
    measure_snapshot,
    median_of_means,
    required_shadow_count,
    snapshot_local_matrix,
)
from .learner import (
    CellFold,
    LearnerPlan,
    PlanConstants,
    Prediction,
    coverage_report,
    plan,
    predict,
    restricted_distance,
)
from .diagnostics import (
    DecayFit,
    compatibility_scan,
    lieb_robinson_scan,
    ltqo_scan,
    mixing_scan,
    stability_scan,
)

__version__ = "0.1.0"
