"""Dynamic programming engine: backups, value iteration, policy iteration.

Everything operates on cost-minimization instances. Value functions are
plain float arrays with the terminal entry pinned to exactly 0; the helpers
here check that invariant at entry and preserve it on the way out.

All summations use a fixed order, so repeated runs are bitwise
reproducible and ``policy_backup(greedy_policy(J), J)`` equals
``bellman_backup(J)`` exactly, not just within rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DeterministicPolicy,
    Policy,
    SspProblem,
    check_policy,
    check_values,
    policy_cost_vector,
    policy_transition_matrix,
)
from .errors import (
    ImproperPolicy,
    MaxItersExceeded,
    NotUniformlyImprovable,
    SingularSystem,
)
from .properness import is_proper

# A value function solved from the linear system carries roughly 1e-10
# error, so uniform improvability is tested with a 1e-9 slack that absorbs
# it without masking real violations.
IMPROVABLE_TOL = 1e-9

# Exact policy evaluation refines its solution until the fixed-point
# residual is at most this.
EVAL_RESIDUAL_TOL = 1e-10

# Policy iteration also stops when two successive value functions agree to
# this tolerance, guarding against cycling among equal-value policies.
POLICY_VALUE_TOL = 1e-12


class ResidualStats(NamedTuple):
    """Extremes of the one-step change TJ - J and their max magnitude."""

    residual: float
    min_change: float
    max_change: float


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration: the value function and how it was reached.

    ``residual``, the change extremes and ``improvable`` describe the
    *previous* iterate, as seen by the backup that produced this row; they
    are None on row 0. ``improvable`` is that backup's uniform-improvability
    verdict, the same test :func:`is_uniformly_improvable` makes.
    """

    iteration: int
    values: np.ndarray
    residual: float | None
    min_change: float | None
    max_change: float | None
    elapsed: float
    improvable: bool | None = None


@dataclass
class IterationTrace:
    records: list[IterationRecord]

    def __len__(self) -> int:
        return len(self.records)


def csv_cell(x: float | None) -> str:
    """A CSV cell: blank for None, else 6 significant digits."""
    return "" if x is None else f"{x:.6g}"


def trace_csv(rows) -> str:
    """Render (iter, J_under, m, residual, error) rows as a five-column CSV."""
    lines = ["iter,J_under,m,residual,error"]
    for iteration, *cells in rows:
        lines.append(",".join([str(iteration)] + [csv_cell(x) for x in cells]))
    return "\n".join(lines) + "\n"


def action_values(problem: SspProblem, values: np.ndarray) -> np.ndarray:
    """Backed-up cost of every (state, action) pair against ``values``."""
    values = check_values(problem, values)
    view, num_rows = problem.transitions, problem.num_states * problem.num_actions
    q = np.bincount(view.row, view.prob * (view.cost + values[view.to]), minlength=num_rows)
    return q.reshape(problem.num_states, problem.num_actions)


def bellman_backup(problem: SspProblem, values: np.ndarray) -> np.ndarray:
    """One application of the optimal backup: minimize action values per state."""
    return action_values(problem, values).min(axis=1)


def policy_backup(problem: SspProblem, policy: Policy, values: np.ndarray) -> np.ndarray:
    """One application of the fixed-policy backup.

    A deterministic policy picks its action's value, a stochastic one
    averages the action values over its weights.
    """
    check_policy(problem, policy)
    q = action_values(problem, values)
    if isinstance(policy, DeterministicPolicy):
        return q[np.arange(problem.num_states), policy.actions]
    return np.einsum("su,su->s", policy.weights, q)


def greedy_policy(problem: SspProblem, values: np.ndarray) -> DeterministicPolicy:
    """Pick the action minimizing the one-step backup in every state.

    Ties break toward the lowest action index, so the result is identical
    across runs and platforms.
    """
    q = action_values(problem, values)
    return DeterministicPolicy(actions=np.argmin(q, axis=1))


def residual_stats(backed_up: np.ndarray, values: np.ndarray) -> ResidualStats:
    """Residual and change extremes of ``values`` given its backup ``backed_up``."""
    diff = backed_up - values
    min_change = float(diff.min())
    max_change = float(diff.max())
    # abs turns the -0.0 of max(-0.0, 0.0) into +0.0 when TJ == J
    return ResidualStats(abs(max(-min_change, max_change)), min_change, max_change)


def bellman_residual(problem: SspProblem, values: np.ndarray) -> ResidualStats:
    """Max-norm Bellman residual of ``values`` plus the signed change extremes."""
    return residual_stats(bellman_backup(problem, values), values)


def _improvable_states(backed_up: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Where one backup does not raise the value: TJ(i) <= J(i) + 1e-9."""
    return backed_up <= values + IMPROVABLE_TOL


def is_uniformly_improvable(problem: SspProblem, values: np.ndarray) -> bool:
    """True when one backup does not increase the value at any state."""
    return bool(_improvable_states(bellman_backup(problem, values), values).all())


def require_uniformly_improvable(problem: SspProblem, values: np.ndarray) -> np.ndarray:
    """Return the backup TJ of a uniformly improvable J.

    Raises :class:`NotUniformlyImprovable`, naming the offending states,
    when :func:`is_uniformly_improvable` would be false.
    """
    backed_up = bellman_backup(problem, values)
    improvable = _improvable_states(backed_up, values)
    if not improvable.all():
        raise NotUniformlyImprovable(int(i) for i in np.nonzero(~improvable)[0])
    return backed_up


def value_iteration(
    problem: SspProblem,
    initial_values: np.ndarray,
    epsilon: float,
    max_iters: int = 10_000,
) -> tuple[np.ndarray, IterationTrace]:
    """Apply the optimal backup until the Bellman residual drops below epsilon.

    The returned value function J satisfies ||TJ - J|| < epsilon; in
    particular, when the initial values are already that accurate they come
    back unchanged after zero iterations. Each trace record stores the
    residual of the backup that produced it. Raises
    :class:`MaxItersExceeded`, carrying the partial trace, when the budget
    runs out; the last iterate is still a valid input for bound
    computations.
    """
    if not epsilon > 0:  # NaN too
        raise ValueError("epsilon must be positive")
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    values = check_values(problem, initial_values).copy()
    start = time.perf_counter()
    records = [
        IterationRecord(0, values.copy(), None, None, None, 0.0)
    ]
    for k in range(1, max_iters + 1):
        candidate = bellman_backup(problem, values)
        stats = residual_stats(candidate, values)
        if stats.residual < epsilon:
            return values, IterationTrace(records)
        improvable = bool(_improvable_states(candidate, values).all())
        values = candidate
        records.append(
            IterationRecord(
                k, values.copy(), *stats, time.perf_counter() - start, improvable
            )
        )
    trace = IterationTrace(records)
    if bellman_residual(problem, values).residual < epsilon:
        return values, trace
    raise MaxItersExceeded(
        f"value iteration did not reach residual {epsilon:g} in {max_iters} iterations",
        values,
        trace,
    )


def evaluate_policy(problem: SspProblem, policy: Policy) -> np.ndarray:
    """Exact cost-to-go of a proper policy.

    Solves the linear system (I - P) J = g restricted to nonterminal
    states, where P and g are the policy's transition kernel and one-step
    costs, then refines until the fixed-point residual is at most 1e-10.

    Raises :class:`ImproperPolicy` when the terminal state is unreachable
    from some state, and :class:`SingularSystem` if the solve fails
    numerically (which a proper policy should never cause).
    """
    report = is_proper(problem, policy)
    if not report.proper:
        raise ImproperPolicy(report.unreachable_states)

    kernel = policy_transition_matrix(problem, policy)
    one_step = policy_cost_vector(problem, policy)
    nt = problem.nonterminal
    system = np.eye(len(nt)) - kernel[np.ix_(nt, nt)]
    rhs = one_step[nt]

    values = np.zeros(problem.num_states)
    try:
        solution = np.linalg.solve(system, rhs)
        values[nt] = solution
        for _ in range(5):
            residual = np.abs(policy_backup(problem, policy, values) - values).max()
            if residual <= EVAL_RESIDUAL_TOL:
                return values
            correction = np.linalg.solve(system, rhs - system @ values[nt])
            values[nt] += correction
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"policy evaluation failed: {exc}") from exc
    residual = np.abs(policy_backup(problem, policy, values) - values).max()
    if residual > EVAL_RESIDUAL_TOL:
        raise SingularSystem(
            f"policy evaluation residual {residual:.3e} exceeds {EVAL_RESIDUAL_TOL:g}"
        )
    return values


def policy_iteration(
    problem: SspProblem,
    initial_policy: Policy,
    max_iters: int = 1_000,
) -> tuple[DeterministicPolicy, np.ndarray, IterationTrace]:
    """Alternate exact evaluation and greedy improvement from a proper policy.

    Stops when the improved policy repeats or two successive value
    functions agree within 1e-12 in max norm. Starting from a proper
    policy, every iterate is proper and its value is elementwise no worse
    than its predecessor's. Trace row 0 holds the initial policy's
    evaluation; row k holds the k-th improved policy's evaluation together
    with the Bellman residual of row k-1's values.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    start = time.perf_counter()
    values = evaluate_policy(problem, initial_policy)
    records = [IterationRecord(0, values, None, None, None, time.perf_counter() - start)]
    previous: DeterministicPolicy | None = (
        initial_policy if isinstance(initial_policy, DeterministicPolicy) else None
    )
    for k in range(1, max_iters + 1):
        q = action_values(problem, values)
        improved = DeterministicPolicy(actions=np.argmin(q, axis=1))
        backed_up = q.min(axis=1)
        stats = residual_stats(backed_up, values)
        improvable = bool(_improvable_states(backed_up, values).all())
        elapsed = time.perf_counter() - start
        if previous is not None and np.array_equal(improved.actions, previous.actions):
            records.append(IterationRecord(k, values, *stats, elapsed, improvable))
            return previous, values, IterationTrace(records)
        new_values = evaluate_policy(problem, improved)
        records.append(
            IterationRecord(
                k, new_values, *stats, time.perf_counter() - start, improvable
            )
        )
        if np.abs(new_values - values).max() < POLICY_VALUE_TOL:
            return improved, new_values, IterationTrace(records)
        previous, values = improved, new_values
    raise MaxItersExceeded(
        f"policy iteration did not converge in {max_iters} improvements",
        values,
        IterationTrace(records),
    )
