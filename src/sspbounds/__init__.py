"""Stochastic shortest path solvers with certified suboptimality bounds.

Solve finite shortest-path MDPs by value or policy iteration and turn the
Bellman residual into per-state and global bounds on how far the current
value function (and its greedy policy) can be from optimal.
"""

from .bounds import (
    BoundsContext,
    BoundsReport,
    HorizonCertificate,
    MonteCarloSteps,
    compute_bounds_report,
    immediate_termination_states,
    monte_carlo_steps,
    resolve_method,
    sandwich_bounds,
    steps_bound_all_proper,
    steps_bound_from_horizon,
    steps_bound_positive_costs,
    termination_horizon,
)
from .core import (
    DeterministicPolicy,
    SspProblem,
    StochasticPolicy,
    expected_cost,
    from_discounted,
    load_problem,
    negate_costs,
    policy_cost_vector,
    policy_transition_matrix,
    save_problem,
    stay_or_go_instance,
    validate,
)
from .dp import (
    IterationRecord,
    IterationTrace,
    ResidualStats,
    action_values,
    bellman_backup,
    bellman_residual,
    evaluate_policy,
    greedy_policy,
    is_uniformly_improvable,
    policy_backup,
    policy_iteration,
    require_uniformly_improvable,
    residual_stats,
    stochastic_policy_backup,
    value_iteration,
)
from .errors import (
    HorizonCapExceeded,
    ImproperPolicy,
    InfiniteStepsBound,
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
from .gridworld import GridSpec, build_gridworld, run_table1, run_table2
from .properness import (
    AllPoliciesProperReport,
    ProperCheckReport,
    all_policies_proper,
    is_proper,
    uniform_random_policy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
