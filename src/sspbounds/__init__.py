"""Stochastic shortest path solvers with certified suboptimality bounds.

Solve finite shortest-path MDPs by value or policy iteration and turn the
Bellman residual into per-state and global bounds on how far the current
value function (and its greedy policy) can be from optimal.
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundsContext,
    BoundsReport,
    HorizonCertificate,
    compute_bounds_report,
    immediate_termination_states,
    resolve_method,
    steps_bound_all_proper,
    steps_bound_from_horizon,
    steps_bound_positive_costs,
    termination_horizon,
)
from .core import (
    DeterministicPolicy,
    SspProblem,
    StochasticPolicy,
    from_discounted,
    load_problem,
    policy_cost_vector,
    policy_transition_matrix,
    save_problem,
    validate,
)
from .dp import (
    Backup,
    IterationRecord,
    IterationTrace,
    action_values,
    bellman_backup,
    bellman_residual,
    evaluate_policy,
    greedy_policy,
    is_uniformly_improvable,
    policy_backup,
    policy_iteration,
    require_uniformly_improvable,
    value_iteration,
)
from .errors import (
    HorizonCapExceeded,
    ImproperPolicy,
    MaxItersExceeded,
    NonfiniteCost,
    NonpositiveCost,
    NotAllPoliciesProper,
    NotUniformlyImprovable,
    NoTerminalTransition,
    ProbabilityOutOfRange,
    ProblemFormatError,
    RowSumViolation,
    SingularSystem,
    SolverPreconditionError,
    SspError,
    TerminalCostNonzero,
    TerminalNotAbsorbing,
    ValidationError,
)
from .properness import (
    AllPoliciesProperReport,
    ProperCheckReport,
    all_policies_proper,
    is_proper,
    uniform_random_policy,
)

# loaded on first use by __getattr__, so that only the commands that need it import it
_GRIDWORLD = ("GridSpec", "build_gridworld", "run_table1", "run_table2")

# the submodules are bound here by the imports above but are not exported
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_GRIDWORLD)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _GRIDWORLD:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import gridworld

    value = globals()[name] = getattr(gridworld, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_GRIDWORLD})
