"""Finite stochastic shortest path instances, policies, and conversions.

All solver code works in cost-minimization form. Reward-maximization inputs
are negated at the file boundary (see ``load_problem``) and negated back for
reporting, so there is a single sign convention everywhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    NonfiniteCost,
    ProbabilityOutOfRange,
    ProblemFormatError,
    RowSumViolation,
    TerminalCostNonzero,
    TerminalNotAbsorbing,
)

# Row sums and probability weights are accepted within this absolute
# tolerance: instances come from short decimal literals, so 1e-12 admits
# double rounding while still rejecting modeling errors.
PROB_TOL = 1e-12


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SspProblem:
    """Shortest path MDP with one absorbing, zero-cost terminal state.

    ``prob[i, u, j]`` is the probability of landing in state j after taking
    action u in state i, and ``cost[i, u, j]`` the cost charged for that
    transition. Instances are immutable after construction and safe to share
    across threads. Construction checks shapes only; call :func:`validate`
    to check the model invariants.
    """

    num_states: int
    num_actions: int
    terminal: int
    prob: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        shape = (self.num_states, self.num_actions, self.num_states)
        prob = np.asarray(self.prob, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        if self.num_states < 1 or self.num_actions < 1:
            raise ValueError("need at least one state and one action")
        if prob.shape != shape or cost.shape != shape:
            raise ValueError(
                f"prob/cost must have shape {shape}, got {prob.shape} and {cost.shape}"
            )
        if not 0 <= self.terminal < self.num_states:
            raise ValueError(f"terminal index {self.terminal} out of range")
        object.__setattr__(self, "prob", _frozen(prob))
        object.__setattr__(self, "cost", _frozen(cost))

    @property
    def nonterminal(self) -> np.ndarray:
        """Indices of all nonterminal states, in increasing order."""
        return np.array(
            [i for i in range(self.num_states) if i != self.terminal], dtype=int
        )

    @cached_property
    def transitions(self) -> Transitions:
        """The positive-probability transitions, built once per instance."""
        return _nonzero_transitions(self)


@dataclass(frozen=True)
class Transitions:
    """Read-only view of an instance's positive-probability transitions.

    Entries are sorted by (state, action) row and then by target, the
    order of ``np.nonzero`` and of CSR storage: entry e moves row
    ``row[e]`` = state * num_actions + action to state ``to[e]`` with
    probability ``prob[e]`` at cost ``cost[e]``.
    """

    num_states: int
    row: np.ndarray
    to: np.ndarray
    prob: np.ndarray
    cost: np.ndarray

    @cached_property
    def into(self) -> tuple[np.ndarray, np.ndarray]:
        """Reverse index ``(into_ptr, into_rows)``, built on first use.

        The rows with an entry into state j are
        ``into_rows[into_ptr[j] : into_ptr[j + 1]]``.
        """
        into_ptr = np.zeros(self.num_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.to, minlength=self.num_states), out=into_ptr[1:])
        into_rows = self.row[np.argsort(self.to, kind="stable")]
        return _frozen(into_ptr, np.int64), _frozen(into_rows, np.int64)


def _nonzero_transitions(problem: SspProblem) -> Transitions:
    # flat index (state * num_actions + action) * num_states + target
    flat = np.flatnonzero(problem.prob > 0.0)
    row, to = np.divmod(flat, problem.num_states)
    return Transitions(
        num_states=problem.num_states,
        row=_frozen(row, np.int64),
        to=_frozen(to, np.int64),
        prob=_frozen(problem.prob.ravel()[flat]),
        cost=_frozen(problem.cost.ravel()[flat]),
    )


@dataclass(frozen=True)
class DeterministicPolicy:
    """One action index per state."""

    actions: np.ndarray

    def __post_init__(self):
        actions = np.asarray(self.actions)
        if actions.ndim != 1 or not np.issubdtype(actions.dtype, np.integer):
            raise ValueError("actions must be a 1-d integer array")
        if (actions < 0).any():
            raise ValueError("action indices must be nonnegative")
        object.__setattr__(self, "actions", _frozen(actions, dtype=int))


@dataclass(frozen=True)
class StochasticPolicy:
    """A probability distribution over actions for every state."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must have shape (num_states, num_actions)")
        if (weights < 0).any():
            raise ValueError("action weights must be nonnegative")
        row_sums = weights.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > PROB_TOL:
            raise ValueError("action weights of every state must sum to 1")
        object.__setattr__(self, "weights", _frozen(weights))


Policy = DeterministicPolicy | StochasticPolicy


def check_policy(problem: SspProblem, policy: Policy) -> None:
    """Raise ValueError unless the policy matches the problem dimensions."""
    if isinstance(policy, DeterministicPolicy):
        if policy.actions.shape != (problem.num_states,):
            raise ValueError("policy has wrong number of states")
        if (policy.actions >= problem.num_actions).any():
            raise ValueError("policy uses an action index out of range")
    elif isinstance(policy, StochasticPolicy):
        if policy.weights.shape != (problem.num_states, problem.num_actions):
            raise ValueError("policy weights have wrong shape")
    else:
        raise TypeError(f"not a policy: {policy!r}")


def check_values(problem: SspProblem, values: np.ndarray) -> np.ndarray:
    """Check a cost-to-go vector: right length, finite, zero at the terminal."""
    values = np.asarray(values, dtype=float)
    if values.shape != (problem.num_states,):
        raise ValueError(
            f"value function must have shape ({problem.num_states},), got {values.shape}"
        )
    if not np.isfinite(values).all():
        raise ValueError("value function entries must be finite")
    if values[problem.terminal] != 0.0:
        raise ValueError("value at the terminal state must be exactly 0")
    return values


def validate(problem: SspProblem) -> None:
    """Check the model invariants, raising a ValidationError on the first hit.

    Invariants: probabilities lie in [0, 1] and every (state, action) row
    sums to 1 within 1e-12; the terminal state is absorbing and zero-cost;
    all costs are finite.
    """
    prob, cost, t = problem.prob, problem.cost, problem.terminal

    # written as a negated range test so that NaN fails it too
    bad = np.argwhere(~((prob >= 0.0) & (prob <= 1.0 + PROB_TOL)))
    if bad.size:
        i, u, j = map(int, bad[0])
        raise ProbabilityOutOfRange(i, u, j, float(prob[i, u, j]))

    row_sums = prob.sum(axis=2)
    bad = np.argwhere(np.abs(row_sums - 1.0) > PROB_TOL)
    if bad.size:
        i, u = map(int, bad[0])
        raise RowSumViolation(i, u, float(row_sums[i, u]))

    for u in range(problem.num_actions):
        if abs(prob[t, u, t] - 1.0) > PROB_TOL:
            raise TerminalNotAbsorbing(t, u, float(prob[t, u, t]))
        if cost[t, u, t] != 0.0:
            raise TerminalCostNonzero(t, u, float(cost[t, u, t]))

    bad = np.argwhere(~np.isfinite(cost))
    if bad.size:
        i, u, j = map(int, bad[0])
        raise NonfiniteCost(i, u, j, float(cost[i, u, j]))


def expected_cost(problem: SspProblem, state: int, action: int) -> float:
    """One-step expected cost of taking ``action`` in ``state``."""
    if not 0 <= state < problem.num_states:
        raise IndexError(f"state {state} out of range")
    if not 0 <= action < problem.num_actions:
        raise IndexError(f"action {action} out of range")
    return float(problem.prob[state, action] @ problem.cost[state, action])


def from_discounted(transitions, costs, beta: float) -> SspProblem:
    """Reduce a discounted MDP to an equivalent shortest path problem.

    A new terminal state is appended. Every (state, action) pair moves to it
    with probability 1 - beta at zero cost, and the original transition
    probabilities are scaled by beta. All policies of the result are proper,
    and the expected number of steps until termination is 1 / (1 - beta)
    from every state.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"discount factor must lie in (0, 1), got {beta!r}")
    transitions = np.asarray(transitions, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if transitions.ndim != 3 or transitions.shape[0] != transitions.shape[2]:
        raise ValueError("transitions must have shape (S, A, S)")
    if costs.shape != transitions.shape:
        raise ValueError("costs must have the same shape as transitions")
    n, num_actions = transitions.shape[0], transitions.shape[1]
    row_sums = transitions.sum(axis=2)
    bad = np.argwhere(np.abs(row_sums - 1.0) > 1e-9)
    if bad.size:
        i, u = map(int, bad[0])
        raise RowSumViolation(i, u, float(row_sums[i, u]))

    prob = np.zeros((n + 1, num_actions, n + 1))
    cost = np.zeros_like(prob)
    prob[:n, :, :n] = beta * transitions
    prob[:n, :, n] = 1.0 - beta
    cost[:n, :, :n] = costs
    prob[n, :, n] = 1.0
    return SspProblem(
        num_states=n + 1, num_actions=num_actions, terminal=n, prob=prob, cost=cost
    )


def negate_costs(problem: SspProblem) -> SspProblem:
    """Flip the sign of every transition cost.

    Bridges reward-maximization inputs into the cost-minimization core.
    Applying it twice returns a bit-identical instance.
    """
    return SspProblem(
        num_states=problem.num_states,
        num_actions=problem.num_actions,
        terminal=problem.terminal,
        prob=problem.prob,
        cost=np.negative(problem.cost),
    )


def policy_transition_matrix(problem: SspProblem, policy: Policy) -> np.ndarray:
    """State-to-state transition kernel of the chain induced by a policy."""
    check_policy(problem, policy)
    if isinstance(policy, DeterministicPolicy):
        return problem.prob[np.arange(problem.num_states), policy.actions]
    return np.einsum("su,suj->sj", policy.weights, problem.prob)


def policy_cost_vector(problem: SspProblem, policy: Policy) -> np.ndarray:
    """Expected one-step cost per state under a policy."""
    check_policy(problem, policy)
    if isinstance(policy, DeterministicPolicy):
        idx = np.arange(problem.num_states)
        rows_p = problem.prob[idx, policy.actions]
        rows_g = problem.cost[idx, policy.actions]
        return np.einsum("sj,sj->s", rows_p, rows_g)
    return np.einsum("su,suj,suj->s", policy.weights, problem.prob, problem.cost)


def stay_or_go_instance() -> SspProblem:
    """Minimal two-state instance with one proper and one improper policy.

    State 0 is the only decision state, state 1 the terminal. Action 0
    ("go") moves to the terminal for a cost of 2; action 1 ("stay")
    self-loops for a cost of 1. Staying forever never terminates, so the
    Bellman operator is not a contraction here, yet the optimal cost-to-go
    of state 0 is 2.
    """
    prob = np.zeros((2, 2, 2))
    cost = np.zeros((2, 2, 2))
    prob[0, 0, 1] = 1.0
    cost[0, 0, 1] = 2.0
    prob[0, 1, 0] = 1.0
    cost[0, 1, 0] = 1.0
    prob[1, :, 1] = 1.0
    return SspProblem(num_states=2, num_actions=2, terminal=1, prob=prob, cost=cost)


# --- JSON instance files ---------------------------------------------------
#
# Schema: {"num_states": int, "num_actions": int, "terminal": int,
#          "convention": "cost" | "reward",
#          "transitions": [{"from": int, "action": int, "to": int,
#                           "prob": float, "cost": float}, ...]}
# Omitted (from, action, to) triples have probability 0. A "reward" file
# stores rewards in the "cost" field; the loader negates them.


def problem_to_json_dict(problem: SspProblem, convention: str = "cost") -> dict:
    """Render an instance as a JSON-ready dict in the given convention."""
    if convention not in ("cost", "reward"):
        raise ValueError(f"convention must be 'cost' or 'reward', got {convention!r}")
    view = problem.transitions
    sign = 1.0 if convention == "cost" else -1.0
    records = []
    # Blocks keep the per-column lists short: lists over the whole view
    # raised the peak memory of saving a 160k-entry instance by 7 MB.
    block = 1 << 14
    for start in range(0, view.row.size, block):
        part = slice(start, start + block)
        states, actions = np.divmod(view.row[part], problem.num_actions)
        # adding 0.0 normalizes -0.0 from sign flips
        costs = sign * view.cost[part] + 0.0
        records += [
            {"from": i, "action": u, "to": j, "prob": p, "cost": g}
            for i, u, j, p, g in zip(
                states.tolist(), actions.tolist(), view.to[part].tolist(),
                view.prob[part].tolist(), costs.tolist(),
            )
        ]
    return {
        "num_states": problem.num_states,
        "num_actions": problem.num_actions,
        "terminal": problem.terminal,
        "convention": convention,
        "transitions": records,
    }


def problem_from_json_dict(data: dict) -> tuple[SspProblem, str]:
    """Build a cost-form instance from a parsed JSON dict.

    Returns the instance together with the file's convention. The instance
    is validated; reward-convention costs are negated on the way in.
    """
    if not isinstance(data, dict):
        raise ProblemFormatError("top-level JSON value must be an object")
    for field in ("num_states", "num_actions", "terminal", "convention", "transitions"):
        if field not in data:
            raise ProblemFormatError(f"missing required field {field!r}")
    try:
        num_states = int(data["num_states"])
        num_actions = int(data["num_actions"])
        terminal = int(data["terminal"])
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"malformed size field: {exc}") from exc
    convention = data["convention"]
    if convention not in ("cost", "reward"):
        raise ProblemFormatError(
            f"convention must be 'cost' or 'reward', got {convention!r}"
        )
    if num_states < 1 or num_actions < 1:
        raise ProblemFormatError("num_states and num_actions must be positive")
    if not 0 <= terminal < num_states:
        raise ProblemFormatError(f"terminal index {terminal} out of range")

    if not isinstance(data["transitions"], list):
        raise ProblemFormatError("transitions must be a list of records")

    prob = np.zeros((num_states, num_actions, num_states))
    cost = np.zeros_like(prob)
    seen = set()
    for rec in data["transitions"]:
        try:
            i, u, j = int(rec["from"]), int(rec["action"]), int(rec["to"])
            p, g = float(rec["prob"]), float(rec["cost"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise ProblemFormatError(f"malformed transition record {rec!r}") from exc
        if not (0 <= i < num_states and 0 <= j < num_states and 0 <= u < num_actions):
            raise ProblemFormatError(f"transition record {rec!r} is out of range")
        if (i, u, j) in seen:
            raise ProblemFormatError(
                f"duplicate transition record for (from={i}, action={u}, to={j})"
            )
        seen.add((i, u, j))
        prob[i, u, j] = p
        cost[i, u, j] = g

    problem = SspProblem(
        num_states=num_states,
        num_actions=num_actions,
        terminal=terminal,
        prob=prob,
        cost=cost,
    )
    if convention == "reward":
        problem = negate_costs(problem)
    validate(problem)
    return problem, convention


def save_problem(problem: SspProblem, path, convention: str = "cost") -> None:
    """Write an instance file; ``problem`` is always given in cost form."""
    text = json.dumps(problem_to_json_dict(problem, convention), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_problem(path) -> tuple[SspProblem, str]:
    """Read and validate an instance file.

    Returns the cost-form instance and the convention recorded in the file.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return problem_from_json_dict(data)
