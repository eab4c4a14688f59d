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
class Transitions:
    """The stored transition kernel of an instance: its nonzero transitions.

    Entries are sorted by (state, action) row and then by target, the
    order of CSR storage: entry e moves row ``row[e]`` = state *
    num_actions + action to state ``to[e]`` with probability ``prob[e]``
    at cost ``cost[e]``. Omitted transitions have probability 0. A valid
    instance stores exactly its positive-probability transitions; an
    invalid one also keeps every entry :func:`validate` objects to.
    """

    num_states: int
    row: np.ndarray
    to: np.ndarray
    prob: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        for name in ("row", "to", "prob", "cost"):
            dtype = np.int64 if name in ("row", "to") else float
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    @classmethod
    def from_dense(cls, num_states: int, num_actions: int, prob, cost) -> Transitions:
        """Read the entries worth storing (see :func:`_stored`) off dense (S, A, S) arrays."""
        shape = (num_states, num_actions, num_states)
        prob = np.asarray(prob, dtype=float)
        cost = np.asarray(cost, dtype=float)
        if prob.shape != shape or cost.shape != shape:
            raise ValueError(
                f"prob/cost must have shape {shape}, got {prob.shape} and {cost.shape}"
            )
        # flat index (state * num_actions + action) * num_states + target
        flat = np.flatnonzero(_stored(prob, cost))
        row, to = np.divmod(flat, num_states)
        return cls(num_states, row, to, prob.ravel()[flat], cost.ravel()[flat])

    @classmethod
    def from_entries(cls, num_states: int, row, to, prob, cost) -> Transitions:
        """The entries worth storing (see :func:`_stored`), sorted into CSR order."""
        row, to, prob, cost = map(np.asarray, (row, to, prob, cost))
        keep = np.flatnonzero(_stored(prob, cost))
        order = keep[np.lexsort((to[keep], row[keep]))]
        return cls(num_states, row[order], to[order], prob[order], cost[order])

    @cached_property
    def into(self) -> tuple[np.ndarray, np.ndarray]:
        """Reverse index ``(into_ptr, into_entries)``, built on first use.

        The entries into state j are ``into_entries[into_ptr[j] : into_ptr[j + 1]]``,
        in entry order.
        """
        into_ptr = np.zeros(self.num_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.to, minlength=self.num_states), out=into_ptr[1:])
        into_entries = np.argsort(self.to, kind="stable")
        return _frozen(into_ptr, np.int64), _frozen(into_entries, np.int64)

    def entering(self, states: np.ndarray) -> np.ndarray:
        """Indices of the entries into ``states``, grouped by target state in that order."""
        into_ptr, into_entries = self.into
        starts = into_ptr[states]
        lengths = into_ptr[states + 1] - starts
        # one arange over the concatenated ranges, shifted to each range's start
        shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        return into_entries[shift + np.arange(shift.size)]


def _stored(prob: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Entries the kernel keeps: nonzero probabilities (NaN too) and non-finite costs."""
    return (prob != 0.0) | ~np.isfinite(cost)


@dataclass(frozen=True, init=False)
class SspProblem:
    """Shortest path MDP with one absorbing, zero-cost terminal state.

    Its kernel is ``transitions`` (see :class:`Transitions`), given to the
    constructor as such or as dense arrays, read once and not kept:
    ``prob[i, u, j]`` is the probability of landing in state j after taking
    action u in state i, and ``cost[i, u, j]`` the cost charged for it.
    Instances are immutable and safe to share across threads. Construction
    checks shapes only; call :func:`validate` to check the model invariants.
    """

    num_states: int
    num_actions: int
    terminal: int
    transitions: Transitions

    def __init__(
        self,
        num_states: int,
        num_actions: int,
        terminal: int,
        prob=None,
        cost=None,
        *,
        transitions: Transitions | None = None,
    ):
        if num_states < 1 or num_actions < 1:
            raise ValueError("need at least one state and one action")
        if transitions is None:
            transitions = Transitions.from_dense(num_states, num_actions, prob, cost)
        elif prob is not None or cost is not None:
            raise ValueError("give either prob/cost or transitions, not both")
        elif transitions.num_states != num_states:
            raise ValueError("transitions are over a different number of states")
        if not 0 <= terminal < num_states:
            raise ValueError(f"terminal index {terminal} out of range")
        object.__setattr__(self, "num_states", num_states)
        object.__setattr__(self, "num_actions", num_actions)
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "transitions", transitions)

    @property
    def nonterminal(self) -> np.ndarray:
        """Indices of all nonterminal states, in increasing order."""
        return np.delete(np.arange(self.num_states), self.terminal)


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
    view, t, num_actions = problem.transitions, problem.terminal, problem.num_actions

    def entry(e) -> tuple[int, int, int]:
        return (*divmod(int(view.row[e]), num_actions), int(view.to[e]))

    # written as a negated range test so that NaN fails it too
    bad = np.flatnonzero(~((view.prob >= 0.0) & (view.prob <= 1.0 + PROB_TOL)))
    if bad.size:
        raise ProbabilityOutOfRange(*entry(bad[0]), float(view.prob[bad[0]]))

    row_sums = np.bincount(view.row, view.prob, minlength=problem.num_states * num_actions)
    bad = np.flatnonzero(np.abs(row_sums - 1.0) > PROB_TOL)
    if bad.size:
        raise RowSumViolation(*divmod(int(bad[0]), num_actions), float(row_sums[bad[0]]))

    # the terminal's self-loop per action; an omitted one has probability and cost 0
    self_loops = (view.row // num_actions == t) & (view.to == t)
    actions = view.row[self_loops] % num_actions
    loop_prob, loop_cost = np.zeros(num_actions), np.zeros(num_actions)
    loop_prob[actions], loop_cost[actions] = view.prob[self_loops], view.cost[self_loops]
    for u in range(num_actions):
        if abs(loop_prob[u] - 1.0) > PROB_TOL:
            raise TerminalNotAbsorbing(t, u, float(loop_prob[u]))
        if loop_cost[u] != 0.0:
            raise TerminalCostNonzero(t, u, float(loop_cost[u]))

    bad = np.flatnonzero(~np.isfinite(view.cost))
    if bad.size:
        raise NonfiniteCost(*entry(bad[0]), float(view.cost[bad[0]]))


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

    # the input's entries, index (state * num_actions + action) * n + target; then
    # every pair exits with 1 - beta, and the new terminal (rows n*A..) loops
    row, to = np.divmod(np.arange(transitions.size), n)
    exits = np.arange((n + 1) * num_actions)
    exit_prob = np.where(exits < n * num_actions, 1.0 - beta, 1.0)
    view = Transitions.from_entries(
        n + 1,
        np.concatenate((row, exits)),
        np.concatenate((to, np.full(exits.size, n))),
        np.concatenate(((beta * transitions).ravel(), exit_prob)),
        np.concatenate((costs.ravel(), np.zeros(exits.size))),
    )
    return SspProblem(n + 1, num_actions, terminal=n, transitions=view)


def policy_entry_probs(problem: SspProblem, policy: Policy) -> np.ndarray:
    """Each stored entry's probability times the policy's weight of its action."""
    check_policy(problem, policy)
    if isinstance(policy, DeterministicPolicy):
        weights = np.zeros((problem.num_states, problem.num_actions))
        weights[np.arange(problem.num_states), policy.actions] = 1.0
    else:
        weights = policy.weights
    view = problem.transitions
    return weights.ravel()[view.row] * view.prob


def policy_transition_matrix(problem: SspProblem, policy: Policy) -> np.ndarray:
    """State-to-state transition kernel of the chain induced by a policy."""
    n, view = problem.num_states, problem.transitions
    cells = view.row // problem.num_actions * n + view.to
    weights = policy_entry_probs(problem, policy)
    return np.bincount(cells, weights, minlength=n * n).reshape(n, n)


def policy_cost_vector(problem: SspProblem, policy: Policy) -> np.ndarray:
    """Expected one-step cost per state under a policy."""
    view = problem.transitions
    states = view.row // problem.num_actions
    weighted_costs = policy_entry_probs(problem, policy) * view.cost
    return np.bincount(states, weighted_costs, minlength=problem.num_states)


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
        num_states = _index(data["num_states"])
        num_actions = _index(data["num_actions"])
        terminal = _index(data["terminal"])
    except ValueError as exc:
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

    row, to, prob, cost = _read_records(data["transitions"], num_states, num_actions)
    if convention == "reward":
        cost = 0.0 - cost  # not -cost, which turns zero rewards into -0.0 costs
    view = Transitions.from_entries(num_states, row, to, prob, cost)
    problem = SspProblem(num_states, num_actions, terminal, transitions=view)
    validate(problem)
    return problem, convention


def _read_records(records: list, num_states: int, num_actions: int) -> tuple[np.ndarray, ...]:
    """The (row, to, prob, cost) columns of the transition records, in file order.

    Raises :class:`ProblemFormatError` at the first malformed, out-of-range
    or duplicate record, as a record-by-record read would.
    """
    fields, error = [], None  # five per record, flattened
    for rec in records:
        try:
            fields.extend(_parse_record(rec, num_states, num_actions))
        except ProblemFormatError as exc:
            error = exc  # raised after any duplicate among the records before it
            break
    # exact: record indices are range-checked, far below 2**53
    columns = np.fromiter(fields, dtype=float, count=len(fields)).reshape(-1, 5).T
    del fields  # the columns hold everything; free the list before sorting
    frm, act, to = columns[:3].astype(np.int64)
    row = frm * num_actions + act
    # stable, so a run of equal (row, to) keys lists its records in file order
    order = np.lexsort((to, row))
    repeats = (np.diff(row[order]) == 0) & (np.diff(to[order]) == 0)
    if repeats.any():
        first = order[1:][repeats].min()
        i, u = divmod(int(row[first]), num_actions)
        raise ProblemFormatError(
            f"duplicate transition record for (from={i}, action={u}, to={int(to[first])})"
        )
    if error is not None:
        raise error
    return row, to, columns[3], columns[4]


def _parse_record(rec, num_states: int, num_actions: int) -> tuple:
    """One transition record as (from, action, to, prob, cost), type- and range-checked."""
    try:
        i, u, j, p, g = rec["from"], rec["action"], rec["to"], rec["prob"], rec["cost"]
        # records as the writer emits them (int indices, float prob and cost) need no conversion
        if not (type(i) is type(u) is type(j) is int):
            i, u, j = _index(i), _index(u), _index(j)
        if not (type(p) is type(g) is float):
            p, g = _number(p), _number(g)
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"malformed transition record {rec!r}") from exc
    if not (0 <= i < num_states and 0 <= j < num_states and 0 <= u < num_actions):
        raise ProblemFormatError(f"transition record {rec!r} is out of range")
    return i, u, j, p, g


def _index(x) -> int:
    """A JSON integer (or an integral float) as an int; ValueError for anything else."""
    if type(x) is int or (type(x) is float and x.is_integer()):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def _number(x) -> float:
    """A JSON number as a float; ValueError for booleans, strings and the rest."""
    if type(x) is int or type(x) is float:
        return float(x)  # OverflowError for an int beyond the float range
    raise ValueError(f"{x!r} is not a number")


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
