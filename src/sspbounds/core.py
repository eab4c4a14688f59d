"""Finite stochastic shortest path instances, policies, and conversions.

All solver code works in cost-minimization form. Reward-maximization inputs
are negated at the file boundary (see ``load_problem``) and negated back for
reporting, so there is a single sign convention everywhere else.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
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


class _Immutable:
    """Base of the instance types: each sets its fields once, through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Transitions(_Immutable):
    """The stored transition kernel of an instance: its nonzero transitions.

    Entries are sorted by (state, action) row and then by target, the
    order of CSR storage: entry e moves row ``row[e]`` = state *
    num_actions + action to state ``to[e]`` with probability ``prob[e]``
    at cost ``cost[e]``. Omitted transitions have probability 0. A valid
    instance stores exactly its positive-probability transitions; an
    invalid one also keeps every entry :func:`validate` objects to.
    """

    def __init__(self, num_states: int, row, to, prob, cost):
        object.__setattr__(self, "num_states", num_states)
        for name, column in zip(("row", "to", "prob", "cost"), (row, to, prob, cost)):
            dtype = np.int64 if name in ("row", "to") else float
            object.__setattr__(self, name, _frozen(column, dtype))

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

    @classmethod
    def _adopt(cls, num_states: int, row, to, prob, cost) -> Transitions:
        """A kernel made of the given columns themselves, not of copies.

        The columns must be int64 (``row``, ``to``) and float arrays in CSR
        order, every entry one to store, that nothing else holds for writing.
        """
        view = object.__new__(cls)
        object.__setattr__(view, "num_states", num_states)
        for name, column in zip(("row", "to", "prob", "cost"), (row, to, prob, cost)):
            column.setflags(write=False)
            object.__setattr__(view, name, column)
        return view

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
        return csr_rows(*self.into, states)


def csr_rows(ptr: np.ndarray, columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entries ``columns[ptr[r] : ptr[r + 1]]`` of each of ``rows``, concatenated in order."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    # one arange over the concatenated ranges, shifted to each range's start
    shift = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return columns[shift + np.arange(shift.size)]


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values, as ``np.unique`` gives them.

    ``np.unique`` imports ``numpy.ma`` on its first call in numpy 2, which
    costs about 15 ms, a tenth of a policy iteration run on a 30x30 grid.
    """
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _stored(prob: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Entries the kernel keeps: nonzero probabilities (NaN too) and non-finite costs."""
    return (prob != 0.0) | ~np.isfinite(cost)


class SspProblem(_Immutable):
    """Shortest path MDP with one absorbing, zero-cost terminal state.

    Its kernel is ``transitions`` (see :class:`Transitions`), given to the
    constructor as such or as dense arrays, read once and not kept:
    ``prob[i, u, j]`` is the probability of landing in state j after taking
    action u in state i, and ``cost[i, u, j]`` the cost charged for it.
    Instances are immutable and safe to share across threads. Construction
    checks shapes only; call :func:`validate` to check the model invariants.
    """

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


def _kept(problem: SspProblem, key: str, compute):
    """``compute(problem)``, computed on the first call and kept with the instance at ``key``."""
    # kept the way functools.cached_property keeps a value on an instance
    kept = vars(problem)
    if key not in kept:
        kept[key] = compute(problem)
    return kept[key]


class DeterministicPolicy(_Immutable):
    """One action index per state."""

    def __init__(self, actions):
        actions = np.asarray(actions)
        if actions.ndim != 1 or not np.issubdtype(actions.dtype, np.integer):
            raise ValueError("actions must be a 1-d integer array")
        if (actions < 0).any():
            raise ValueError("action indices must be nonnegative")
        object.__setattr__(self, "actions", _frozen(actions, dtype=int))


class StochasticPolicy(_Immutable):
    """A probability distribution over actions for every state."""

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
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
    bad = np.argwhere(np.abs(row_sums - 1.0) > PROB_TOL)
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


def problem_from_json_dict(data: dict) -> tuple[SspProblem, str]:
    """Build a cost-form instance from a parsed JSON dict.

    Returns the instance together with the file's convention. The instance
    is validated; reward-convention costs are negated on the way in.
    """
    header = _header(data)
    columns = _read_records(data["transitions"], *header[:2])
    return _instance(*header, *columns)


def _header(data) -> tuple[int, int, int, str]:
    """``(num_states, num_actions, terminal, convention)`` of a parsed file, checked."""
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
    return num_states, num_actions, terminal, convention


def _instance(
    num_states: int, num_actions: int, terminal: int, convention: str, row, to, prob, cost,
    ordered: bool = False,
) -> tuple[SspProblem, str]:
    """The validated cost-form instance of a file's header and record columns.

    The columns are this call's to change or keep. ``ordered`` ones are in
    strictly increasing (row, to) order; when every entry is one to store,
    they become the kernel as they are, with no copy.
    """
    if convention == "reward":
        np.subtract(0.0, cost, out=cost)  # not -cost, which turns zero rewards into -0.0 costs
    if ordered and _stored(prob, cost).all():
        view = Transitions._adopt(num_states, row, to, prob, cost)
    else:
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


# One transition record as ``json.dumps(..., indent=2)`` lays it out in the file.
_RECORD = (
    '    {{\n      "from": {},\n      "action": {},\n      "to": {},\n'
    '      "prob": {},\n      "cost": {}\n    }}'
)
# The text of a record before its first field and after its last, and the
# writer's list slots of one record: the text that closes the record before
# and opens this one, then each field after the text before it.
_RECORD_OPEN, *_BETWEEN, _RECORD_CLOSE = _RECORD.format(*["\0"] * 5).split("\0")
_RECORD_SLOTS = [
    text
    for before in (_RECORD_CLOSE + ",\n" + _RECORD_OPEN, *_BETWEEN)
    for text in (before, None)
]
# Records the writer renders per block of text.
_WRITE_BLOCK = 1 << 11
# What the file holds around its records, when it has any.
_RECORDS_START = b',\n  "transitions": [\n'
_RECORDS_END = b"\n  ]\n}\n"


def _header_text(num_states: int, num_actions: int, terminal: int, convention: str) -> str:
    """The file's text before its ``transitions`` field, as ``json.dumps`` lays it out."""
    header = {
        "num_states": num_states,
        "num_actions": num_actions,
        "terminal": terminal,
        "convention": convention,
    }
    return json.dumps(header, indent=2)[:-2]  # without the closing "\n}"


def _json_chunks(problem: SspProblem, convention: str) -> Iterator[str]:
    """The instance file in the given convention, as consecutive pieces of text.

    Joined, they equal ``json.dumps`` with ``indent=2`` of the schema's dict,
    plus a final newline. The first piece is the header; producing it raises
    ValueError for an unknown convention.
    """
    if convention not in ("cost", "reward"):
        raise ValueError(f"convention must be 'cost' or 'reward', got {convention!r}")
    header_text = _header_text(
        problem.num_states, problem.num_actions, problem.terminal, convention
    )
    view = problem.transitions
    if not view.row.size:
        yield header_text + ',\n  "transitions": []\n}\n'
        return
    yield header_text + _RECORDS_START.decode()
    sign = 1.0 if convention == "cost" else -1.0
    # Blocks bound the text and the strings held at once, whatever the
    # number of entries. Each block's text is one join over a list laid out
    # as _RECORD_SLOTS repeated, whose field slots are filled a column at a
    # time.
    for start in range(0, view.row.size, _WRITE_BLOCK):
        part = slice(start, start + _WRITE_BLOCK)
        states, actions = np.divmod(view.row[part], problem.num_actions)
        # adding 0.0 normalizes -0.0 from sign flips
        costs = sign * view.cost[part] + 0.0
        text = _RECORD_SLOTS * states.size
        text[1::10] = _int_texts(states)
        text[3::10] = _int_texts(actions)
        text[5::10] = _int_texts(view.to[part])
        for slot, values in ((7, view.prob[part]), (9, costs)):
            # a float prints as repr, as in json, which spells the non-finite
            # ones of an unvalidated instance NaN, Infinity and -Infinity
            spell = repr if np.isfinite(values).all() else json.dumps
            text[slot::10] = map(spell, values.tolist())
        if not start:
            text[0] = _RECORD_OPEN  # no record before the first to close
        yield "".join(text)
    yield _RECORD_CLOSE + _RECORDS_END.decode()


def _int_texts(column: np.ndarray) -> list[str]:
    """``str`` of each integer, made once per value when the range is no longer than the column."""
    low, high = int(column.min()), int(column.max())
    if high - low >= column.size:
        return list(map(str, column.tolist()))
    texts = list(map(str, range(low, high + 1)))
    return list(map(texts.__getitem__, (column - low).tolist()))


def save_problem(problem: SspProblem, path, convention: str = "cost") -> None:
    """Write an instance file; ``problem`` is always given in cost form.

    The records are written a block at a time, so the memory this takes
    does not grow with the number of stored transitions.
    """
    chunks = _json_chunks(problem, convention)
    header = next(chunks)  # an unknown convention raises here, before the file is opened
    with open(path, "w", encoding="utf-8") as out:
        out.write(header)
        out.writelines(chunks)


def load_problem(path) -> tuple[SspProblem, str]:
    """Read and validate an instance file.

    Returns the cost-form instance and the convention recorded in the file.
    A file laid out as :func:`save_problem` writes it is read a block at a
    time (see :func:`_read_written`); any other file is parsed whole, record
    by record, and every error is reported by that read.
    """
    with open(path, "rb") as file:
        written = _read_written(file)
    if written is None:
        return problem_from_json_dict(read_json(path, "instance file"))
    return _instance(*written, ordered=True)


def read_json(path, name: str):
    """The JSON value of a UTF-8 file; ProblemFormatError, naming the file, if it has none."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProblemFormatError(f"{name} is not valid JSON: {exc}") from exc


# The block reader takes the records about this many bytes at a time. Its
# peak is about five blocks; from 512 kB to 4 MB per block the time of a
# 22 MB file does not move.
_BLOCK_BYTES = 1 << 20
# A record and the separator after it, with its five fields left empty.
_SKELETON = (_RECORD.format(*[""] * 5) + ",\n").encode()
_RECORD_END = b"\n    },\n"
_NUMBER_CHARS = b"0123456789.+-eE"
_IS_NUMBER_CHAR = np.zeros(256, dtype=bool)
_IS_NUMBER_CHAR[list(_NUMBER_CHARS)] = True
# The skeleton's characters but its commas and whitespace. None is a number
# character; the whitespace stays so that no number can run into another.
_KEY_CHARS = b'fromactinpbs"{}:'


def _read_written(file) -> tuple | None:
    """The header and record columns of a file exactly as :func:`save_problem` writes it.

    Returns ``(num_states, num_actions, terminal, convention, row, to,
    prob, cost)``, the records in file order, or None as soon as the file
    departs from the writer's layout or holds a record the record-by-record
    read could object to: a header other than the writer's, an index that
    is not integral or out of range, or records not in strictly increasing
    (row, to) order, which rules out duplicates. Non-finite numbers pass;
    :func:`validate` then names the same entry as that read would. The
    file is read in blocks, cut after a complete record, so the memory this
    takes beyond the columns does not grow with the number of records.
    """
    text = file.read(_BLOCK_BYTES)
    header_text, found, text = text.partition(_RECORDS_START)
    if not found:
        return None
    try:
        header = _header(json.loads(header_text + b', "transitions": []}'))
    except (ValueError, RecursionError, ProblemFormatError):  # ValueError: JSON, UTF-8
        return None
    num_states, num_actions = header[:2]
    # the bound keeps every row index exact in floats
    if num_states * num_actions > 2**53 or _header_text(*header).encode() != header_text:
        return None
    # each column's blocks, kept apart so that each can be freed once joined
    columns, last, at_end = ([], [], [], []), (-1.0, -1.0), False
    while not at_end:
        carried = len(text)  # what follows the last complete record so far
        text += file.read(_BLOCK_BYTES)
        at_end = len(text) == carried
        if not at_end:
            cut = text.rfind(_RECORD_END) + len(_RECORD_END)
            if cut < len(_RECORD_END):
                return None  # no record in a block: not the writer's layout
            block, text = text[:cut], text[cut:]
        elif text.endswith(_RECORDS_END):
            block = text[: -len(_RECORDS_END)] + b",\n"
        else:
            return None
        parts = _block_columns(block, num_states, num_actions, last)
        if parts is None:
            return None
        for column, part in zip(columns, parts):
            column.append(part)
        last = (parts[0][-1], parts[1][-1])
    # one column at a time, so that at most one joined column is held twice
    joined = []
    for column in columns:
        joined.append(np.concatenate(column))
        column.clear()
    return (*header, *joined)


def _records_in(block: bytes) -> int:
    """The number of records in a block of the writer's layout with no field empty, else 0."""
    # Without its number characters the block is the skeleton ``count`` times.
    skeleton = block.translate(None, _NUMBER_CHARS)
    count = len(skeleton) // len(_SKELETON)
    if skeleton != _SKELETON * count:
        return 0
    # Its colons are then the fields' five; each field holds a number when
    # the colon's space comes straight after it and a number character
    # straight after that. The space must not move: a number put against
    # the colon would join a number character put into the key before it.
    text = np.frombuffer(block, dtype=np.uint8)
    after = np.flatnonzero(text == ord(":")) + 1
    if not ((text[after] == ord(" ")).all() and _IS_NUMBER_CHAR[text[after + 1]].all()):
        return 0
    return count


def _block_columns(block: bytes, num_states: int, num_actions: int, last) -> tuple | None:
    """``(row, to, prob, cost)`` of a block of records each followed by ``",\\n"``.

    None unless the block is the writer's layout with a JSON number in
    every field, the indices are integral and in range, and the (row, to)
    keys increase strictly from ``last`` on.
    """
    count = _records_in(block)
    if not count:
        return None
    # Each field's number is one run of number characters. A number
    # character anywhere else stays apart from it, and json then fails.
    try:
        numbers = json.loads(b"[" + block.translate(None, _KEY_CHARS)[:-2] + b"]")
        values = np.fromiter(numbers, float, len(numbers)).reshape(count, 5).T
    except (ValueError, OverflowError):
        return None
    frm, act, to, prob, cost = values
    indices = values[:3]
    if not (
        (indices == np.floor(indices)).all()
        and (indices >= 0.0).all()
        and (frm < num_states).all()
        and (act < num_actions).all()
        and (to < num_states).all()
    ):
        return None
    row = frm * num_actions + act
    row_step = np.diff(row, prepend=last[0])
    to_step = np.diff(to, prepend=last[1])
    if not ((row_step > 0.0) | ((row_step == 0.0) & (to_step > 0.0))).all():
        return None
    # copies, so that the block's other columns are freed
    return row.astype(np.int64), to.astype(np.int64), prob.copy(), cost.copy()
