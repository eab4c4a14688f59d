"""Dynamic programming engine: backups, value iteration, policy iteration.

Everything operates on cost-minimization instances. Value functions are
plain float arrays with the terminal entry pinned to exactly 0; the helpers
here check that invariant at entry and preserve it on the way out.

All summations use a fixed order, so repeated runs are bitwise
reproducible and ``policy_backup(greedy_policy(J), J)`` equals
``bellman_backup(J)`` exactly, not just within rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DeterministicPolicy,
    Policy,
    SspProblem,
    _kept,
    check_policy,
    check_values,
    csr_rows,
    distinct,
    policy_cost_vector,
    policy_entry_probs,
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
# residual is at most the larger of this and EVAL_RESIDUAL_ULPS units in the
# last place of max |J| + max |cost|, the largest term a backup sums:
# rounding alone leaves a residual of a few of those ulps, so a target fixed
# in absolute terms fails once costs are large. The two agree up to
# max |J| + max |cost| = 16384.
EVAL_RESIDUAL_TOL = 1e-10
EVAL_RESIDUAL_ULPS = 32

# Policy evaluation factors its system densely (LAPACK) below this many
# nonterminal states, and by one of two sparse methods from there on. This
# was the break-even of policy iteration against splu on open gridworlds;
# block elimination already ties with the dense solve at about 360 states,
# but the cutoff stays, so that results below it keep their exact bits.
SPARSE_SOLVE_STATES = 700

# The first sparse method, block elimination over breadth-first levels in
# numpy, is taken while its work, the sum over levels of w**3 + LEVEL_WORK
# for a level of w states, is at most BLOCK_SOLVE_WORK; scipy's splu, whose
# import alone takes about 0.3 s, otherwise. A level's fixed cost in numpy
# calls (about 32 us measured) is that of a block 30 wide, hence
# LEVEL_WORK. The budget is the break-even of policy iteration against
# splu, its import included, on open side-s gridworlds (2s - 1 levels of
# widths 1, 2, ..., s, ..., 2, 1), where the two tie at about sides 75 to
# 80: side 75 (work 19.8 million) and below take blocks, 76 and above splu.
# The level search gives up past MAX_LEVELS levels.
BLOCK_SOLVE_WORK = 20_000_000
LEVEL_WORK = 30**3
MAX_LEVELS = BLOCK_SOLVE_WORK // LEVEL_WORK

# Policy iteration also stops when two successive value functions agree to
# this tolerance, guarding against cycling among equal-value policies.
POLICY_VALUE_TOL = 1e-12


class Backup(NamedTuple):
    """One optimal backup of a value function J: TJ, its greedy policy and TJ - J.

    ``actions`` minimize the action values in every state, the lowest index
    on ties, and ``backed_up`` is TJ, the action values read at them.
    ``residual`` is ||TJ - J|| in max norm, ``min_change`` and
    ``max_change`` the extremes of TJ - J, and ``raised`` the states where
    TJ <= J + 1e-9 fails, none exactly when J is uniformly improvable.
    """

    backed_up: np.ndarray
    actions: np.ndarray
    residual: float
    min_change: float
    max_change: float
    raised: np.ndarray

    @property
    def improvable(self) -> bool:
        """Whether J is uniformly improvable: no backed-up value rose."""
        return not self.raised.size

    def require_improvable(self) -> Backup:
        """This backup of a uniformly improvable J.

        Raises :class:`NotUniformlyImprovable`, naming ``raised``, otherwise.
        """
        if self.raised.size:
            raise NotUniformlyImprovable(int(i) for i in self.raised)
        return self


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration, in scalars: no row keeps its J, the solvers return the last.

    ``residual`` and ``improvable`` describe the *previous* iterate, as seen
    by the backup that produced this row; they are None on row 0.
    ``improvable`` is that backup's uniform-improvability verdict, the same
    test :func:`is_uniformly_improvable` makes.
    """

    iteration: int
    residual: float | None
    improvable: bool | None


def _record(iteration: int, _values, before: Backup | None, _backup) -> IterationRecord:
    """The public solvers' row: the verdict of the backup ``before`` that produced it."""
    residual, improvable = (None, None) if before is None else (before.residual, before.improvable)
    return IterationRecord(iteration, residual, improvable)


@dataclass
class IterationTrace:
    """A solver's rows, as its row function made them, and ``last``, the last row's backup."""

    records: list
    last: Backup

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
    # an action value beyond the float range is +inf, which no minimum picks over a finite one
    with np.errstate(over="ignore"):
        q = np.bincount(view.row, view.prob * (view.cost + values[view.to]), minlength=num_rows)
    return q.reshape(problem.num_states, problem.num_actions)


def _backup(problem: SspProblem, values: np.ndarray) -> Backup:
    """The optimal backup of ``values``, from one call of :func:`action_values`."""
    values = check_values(problem, values)
    q = action_values(problem, values)
    actions = np.argmin(q, axis=1)
    # bit for bit q.min(axis=1), and faster on numpy 2
    backed_up = q[np.arange(problem.num_states), actions]
    change = backed_up - values
    min_change, max_change = float(change.min()), float(change.max())
    raised = np.flatnonzero(~(backed_up <= values + IMPROVABLE_TOL))
    # abs turns the -0.0 of max(-0.0, 0.0) into +0.0 when TJ == J
    residual = abs(max(-min_change, max_change))
    return Backup(backed_up, actions, residual, min_change, max_change, raised)


def bellman_backup(problem: SspProblem, values: np.ndarray) -> np.ndarray:
    """One application of the optimal backup: minimize action values per state."""
    return _backup(problem, values).backed_up


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
    return DeterministicPolicy(actions=_backup(problem, values).actions)


def bellman_residual(problem: SspProblem, values: np.ndarray) -> Backup:
    """The backup of ``values``, read for its max-norm residual and change extremes."""
    return _backup(problem, values)


def is_uniformly_improvable(problem: SspProblem, values: np.ndarray) -> bool:
    """True when one backup does not increase the value at any state."""
    return _backup(problem, values).improvable


def require_uniformly_improvable(problem: SspProblem, values: np.ndarray) -> Backup:
    """Return the backup of a uniformly improvable J.

    Raises :class:`NotUniformlyImprovable`, naming the offending states,
    when :func:`is_uniformly_improvable` would be false.
    """
    return _backup(problem, values).require_improvable()


def _iterate(problem, values, backup, step, done, max_iters: int, failure: str, row):
    """The solvers' loop: trace rows from row 0's ``values`` and their ``backup``.

    Row k is ``row(k, values, before, backup)``, ``before`` the backup that made it
    (None on row 0); row k + 1's values are ``step(values, backup)``, backed up unless
    they are row k's own array. The rows end once ``done(backup)`` holds for the last
    row; one past ``max_iters`` raises :class:`MaxItersExceeded` with ``failure``.
    """
    records = [row(0, values, None, backup)]
    while not done(backup):
        if len(records) > max_iters:
            raise MaxItersExceeded(failure, values, IterationTrace(records, backup))
        new, before = step(values, backup), backup
        if new is not values:
            values, backup = new, _backup(problem, new)
        records.append(row(len(records), values, before, backup))
    return values, IterationTrace(records, backup)


def value_iteration(
    problem: SspProblem, initial_values: np.ndarray, epsilon: float, max_iters: int = 10_000
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
    return _value_iteration(problem, values, _backup(problem, values), epsilon, max_iters, _record)


def _value_iteration(problem, values, backup, epsilon: float, max_iters: int, row):
    """:func:`value_iteration` from checked ``values`` and their ``backup``, rows by ``row``."""
    failure = f"value iteration did not reach residual {epsilon:g} in {max_iters} iterations"
    step, done = (lambda _, backup: backup.backed_up), (lambda backup: backup.residual < epsilon)
    return _iterate(problem, values, backup, step, done, max_iters, failure, row)


class _Levels(NamedTuple):
    """Breadth-first levels of the nonterminal states, by position among them.

    Position p lies in level ``level[p]`` at index ``slot[p]`` within it;
    level k holds ``sizes[k]`` positions.
    """

    level: np.ndarray
    slot: np.ndarray
    sizes: np.ndarray

    @property
    def work(self) -> int:
        """The block elimination's work, a level of w positions counting w**3 + LEVEL_WORK."""
        return int((self.sizes**3).sum()) + self.sizes.size * LEVEL_WORK


def _levels(problem: SspProblem) -> _Levels | None:
    """The instance's level structure, computed on the first call and kept with it."""
    return _kept(problem, "_levels", _breadth_first_levels)


def _breadth_first_levels(problem: SspProblem) -> _Levels | None:
    """Level sets of the nonterminal states (Cuthill & McKee), or None past ``MAX_LEVELS``.

    The graph joins two nonterminal states when an entry of any action
    leads from one to the other, either way. Each connected component, in
    the order of its lowest state, is searched breadth first from a
    pseudo-peripheral state (George & Liu), and its levels follow those of
    the components before it. Every entry then joins states of one level or
    of adjacent levels, so each policy's I - P is block tridiagonal in this
    order.
    """
    view, t, m = problem.transitions, problem.terminal, problem.num_states - 1
    states = view.row // problem.num_actions
    keep = (states != t) & (view.to != t) & (states != view.to)
    i, j = states[keep], view.to[keep]
    i, j = i - (i > t), j - (j > t)
    source, adjacent = np.divmod(distinct(np.concatenate((i * m + j, j * m + i))), m)
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=m), out=ptr[1:])
    degree = np.diff(ptr)
    # the search that last reached each position; -1 until one has
    mark = np.full(m, -1, dtype=np.int64)

    def search(root: int, label: int) -> list[np.ndarray] | None:
        found, frontier = [], np.array([root])
        mark[root] = label
        while frontier.size:
            found.append(frontier)
            if len(levels) + len(found) > MAX_LEVELS:
                return None
            reached = csr_rows(ptr, adjacent, frontier)
            frontier = distinct(reached[mark[reached] != label])
            mark[frontier] = label
        return found

    levels: list[np.ndarray] = []
    label = 0
    for root in range(m):
        if mark[root] >= 0:
            continue  # reached from an earlier component's root
        component = search(root, label)
        # again from a least-connected state of the last level, until no deeper
        while component is not None:
            last = component[-1]
            label += 1
            deeper = search(int(last[np.argmin(degree[last])]), label)
            if deeper is not None and len(deeper) <= len(component):
                break
            component = deeper
        if component is None:
            return None
        levels += component
        label += 1
    sizes = np.array([len(positions) for positions in levels], dtype=np.int64)
    order = np.concatenate(levels)
    level, slot = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
    level[order] = np.repeat(np.arange(sizes.size), sizes)
    slot[order] = np.arange(m) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return _Levels(level, slot, sizes)


def _block_solver(levels: _Levels, i: np.ndarray, j: np.ndarray, weights: np.ndarray):
    """Solve of I - P, P holding ``weights`` at (``i``, ``j``), by block elimination over levels.

    Level k of w_k positions has its diagonal block D_k (w_k x w_k) and its
    blocks L_k (w_k x w_(k-1)) and U_k (w_k x w_(k+1)) toward levels k - 1
    and k + 1, each at its own size and all in one flat array. The factors
    are the inverse Schur complements S_k^-1,
    S_k = D_k - L_k S_(k-1)^-1 U_(k-1), and the multipliers
    L_k S_(k-1)^-1. For a proper policy I - P is a nonsingular M-matrix,
    and so is every Schur complement, so no pivoting between levels is
    needed; LAPACK raises ``LinAlgError`` on an exactly singular one.
    """
    level, slot, sizes = levels
    before = np.concatenate(([0], sizes[:-1]))
    after = np.concatenate((sizes[1:], [0]))
    # level k's blocks lie at base[k]: D_k, then L_k, then U_k, row by row
    lengths = sizes * (sizes + before + after)
    base = np.cumsum(lengths) - lengths
    band_start = np.stack((base + sizes * sizes, base, base + sizes * (sizes + before)), axis=1)
    a, b = level[i], level[j]
    cells = band_start[a, b - a + 1] + slot[i] * sizes[b] + slot[j]
    blocks = 0.0 - np.bincount(cells, weights, minlength=int(lengths.sum()))
    blocks[base[level] + slot * (sizes[level] + 1)] += 1.0
    widths = sizes.tolist()
    inverse, multiplier, upper = [], [None], []
    end = 0
    for k, (w, w_before, w_after) in enumerate(zip(widths, [0] + widths, widths[1:] + [0])):
        start, end = end, end + w * w
        schur = blocks[start:end].reshape(w, w)
        start, end = end, end + w * w_before
        lower = blocks[start:end].reshape(w, w_before)
        start, end = end, end + w * w_after
        upper.append(blocks[start:end].reshape(w, w_after))
        if k:
            multiplier.append(lower @ inverse[k - 1])
            schur = schur - multiplier[k] @ upper[k - 1]
        inverse.append(np.linalg.inv(schur))
    # position p's place in the solution ordered by levels, and each level's
    # piece of it; an empty piece follows the last level, as U_k does
    first = np.cumsum(sizes) - sizes
    place = first[level] + slot
    x = np.empty(len(place))
    pieces = [x[f : f + w] for f, w in zip(first.tolist() + [len(place)], widths + [0])]

    def solve(rhs: np.ndarray) -> np.ndarray:
        # forward and back substitution over the levels, in place
        x[place] = rhs
        for k in range(1, len(widths)):
            pieces[k] -= multiplier[k] @ pieces[k - 1]
        for k in range(len(widths) - 1, -1, -1):
            pieces[k][:] = inverse[k] @ (pieces[k] - upper[k] @ pieces[k + 1])
        return x[place]

    return solve


def _policy_system(problem: SspProblem, policy: Policy):
    """The product with I - P over the nonterminal states, and a solver for it.

    Returns ``(apply, solve)``: ``apply(x)`` is ``(I - P) @ x`` and
    ``solve(b)`` solves ``(I - P) x = b`` with factors computed here once.
    With m nonterminal states the factorization is:

    - below ``SPARSE_SOLVE_STATES``, dense: the array bitwise
      ``np.eye(m) - P``, solved by LAPACK, and ``apply`` its product;
    - from there on, block elimination over the instance's breadth-first
      levels (:func:`_block_solver`), while their work, the sum over the
      levels of w**3 + ``LEVEL_WORK`` for a level of w states, is at most
      ``BLOCK_SOLVE_WORK``;
    - else ``splu`` on a sparse matrix, which raises ``RuntimeError`` when
      the system is singular. Only this path imports scipy.

    Off the dense path, ``apply`` sums over the policy's entries.
    """
    view, t = problem.transitions, problem.terminal
    m = problem.num_states - 1
    weights = policy_entry_probs(problem, policy)
    states = view.row // problem.num_actions
    keep = (weights != 0.0) & (states != t) & (view.to != t)
    # positions among the nonterminal states
    i, j = states[keep], view.to[keep]
    i, j, weights = i - (i > t), j - (j > t), weights[keep]
    if m < SPARSE_SOLVE_STATES:
        # 0.0 - sum, then +1 on the diagonal: the rounding of np.eye(m) - P
        system = 0.0 - np.bincount(i * m + j, weights, minlength=m * m).reshape(m, m)
        system.flat[:: m + 1] += 1.0
        return (lambda x: system @ x), (lambda rhs: np.linalg.solve(system, rhs))

    def apply(x: np.ndarray) -> np.ndarray:
        return x - np.bincount(i, weights * x[j], minlength=m)

    # a level of w states counts w * (w**2 + LEVEL_WORK / w), and the factor
    # w**2 + LEVEL_WORK / w is at least 3 * (LEVEL_WORK / 2)**(2/3) for any w,
    # so m states in any levels count at least this; larger instances skip
    # the level search
    if m * 3 * (LEVEL_WORK / 2) ** (2 / 3) <= BLOCK_SOLVE_WORK:
        levels = _levels(problem)
        if levels is not None and levels.work <= BLOCK_SOLVE_WORK:
            return apply, _block_solver(levels, i, j, weights)
    # a load-time import would cost about 0.33 s on runs that never get here
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    diagonal = np.arange(m)
    system = csc_matrix(
        (
            np.concatenate((-weights, np.ones(m))),
            (np.concatenate((i, diagonal)), np.concatenate((j, diagonal))),
        ),
        shape=(m, m),
    )
    return apply, splu(system).solve


def _fixed_point_gap(
    problem: SspProblem, policy: Policy, values: np.ndarray, max_cost: float
) -> tuple[float, float]:
    """The fixed-point residual of solved ``values`` and the one exact evaluation refines it to."""
    if not np.isfinite(values).all():
        raise SingularSystem("policy evaluation gave non-finite values")
    residual = np.abs(policy_backup(problem, policy, values) - values).max()
    scale = np.abs(values).max() + max_cost
    return residual, max(EVAL_RESIDUAL_TOL, EVAL_RESIDUAL_ULPS * float(np.spacing(scale)))


def _solved_values(problem: SspProblem, policy: Policy) -> np.ndarray:
    """The solution of the policy's system, refined to the residual target.

    Raises :class:`SingularSystem` when the factorization fails, the
    values are not finite, or five refinement rounds leave the residual
    above its target.
    """
    nt = problem.nonterminal
    rhs = policy_cost_vector(problem, policy)[nt]
    max_cost = np.abs(problem.transitions.cost).max(initial=0.0)
    values = np.zeros(problem.num_states)
    # the system of an improper policy is singular, or nearly so, and its
    # solve may overflow: the finiteness test rejects what that gives
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            apply, solve = _policy_system(problem, policy)
            values[nt] = solve(rhs)
            for _ in range(5):
                residual, target = _fixed_point_gap(problem, policy, values, max_cost)
                if residual <= target:
                    return values
                values[nt] += solve(rhs - apply(values[nt]))
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise SingularSystem(f"policy evaluation failed: {exc}") from exc
        residual, target = _fixed_point_gap(problem, policy, values, max_cost)
    if residual > target:
        raise SingularSystem(f"policy evaluation residual {residual:.3e} exceeds {target:g}")
    return values


def _certified_proper(problem: SspProblem, policy: Policy, values: np.ndarray) -> bool:
    """Whether ``values``, or ``-values``, proves the policy proper by descent.

    The test holds for a potential when every nonterminal state has an
    entry the policy uses that enters the terminal or moves to a state of
    strictly lower potential. Any real vector that passes is a ranking
    function: a strictly decreasing path cannot revisit a state, so it
    reaches the terminal from every state with positive probability,
    whatever the rounding of the vector. NaN fails every comparison and
    +-inf keeps the order strict. With positive costs a policy's values
    descend toward the terminal; the all-proper companion's, at -1 per
    step, rise toward it. Each direction is tested over all states: mixing
    them state by state would pass a two-state cycle.
    """
    view, t = problem.transitions, problem.terminal
    states = view.row // problem.num_actions
    used = policy_entry_probs(problem, policy) > 0.0
    exits = used & (view.to == t)
    for potential in (values, -values):
        descends = exits | (used & (potential[view.to] < potential[states]))
        certified = np.zeros(problem.num_states, dtype=bool)
        certified[states[descends]] = True
        certified[t] = True
        if certified.all():
            return True
    return False


def evaluate_policy(problem: SspProblem, policy: Policy) -> np.ndarray:
    """Exact cost-to-go of a proper policy.

    Solves the linear system (I - P) J = g restricted to the m nonterminal
    states, where P and g are the policy's transition kernel and one-step
    costs, then refines until the fixed-point residual is at most the
    larger of 1e-10 and ``EVAL_RESIDUAL_ULPS`` units in the last place of
    max |J| + max |cost|, which is 1e-10 while that sum is below 16384.
    The system is built from the stored entries in O(nnz) and factored
    once, densely below ``SPARSE_SOLVE_STATES`` states and by block
    elimination or ``splu`` from there on (see :func:`_policy_system`);
    every refinement round reuses the factors.

    The solved values then prove the policy proper when they descend
    toward the terminal, or rise toward it, along the entries the policy
    uses (see :func:`_certified_proper`). Only when neither holds, or the
    solve fails, is properness decided by :func:`is_proper`. Raises
    :class:`ImproperPolicy` when the terminal state is unreachable from
    some state, and otherwise :class:`SingularSystem` if the solve failed
    numerically (which a proper policy should never cause).
    """
    try:
        values = _solved_values(problem, policy)
    except SingularSystem as exc:
        failure = exc
    else:
        if _certified_proper(problem, policy, values):
            return values
        failure = None
    report = is_proper(problem, policy)
    if not report.proper:
        raise ImproperPolicy(report.unreachable_states)
    if failure is not None:
        raise failure
    return values


def policy_iteration(
    problem: SspProblem, initial_policy: Policy, max_iters: int = 1_000
) -> tuple[DeterministicPolicy, np.ndarray, IterationTrace]:
    """Alternate exact evaluation and greedy improvement from a proper policy.

    Stops when the improved policy repeats or two successive value
    functions agree within 1e-12 in max norm. Starting from a proper
    policy, every iterate is proper and its value is elementwise no worse
    than its predecessor's. Trace row 0 stands for the initial policy's
    evaluation; row k for the k-th improved policy's evaluation, and holds
    the Bellman residual of row k-1's values.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    values = evaluate_policy(problem, initial_policy)
    backup = _backup(problem, values)
    return _policy_iteration(problem, initial_policy, values, backup, max_iters, _record)


def _policy_iteration(problem, policy: Policy, values, backup, max_iters: int, row):
    """:func:`policy_iteration` from ``policy``, its evaluation and its backup; rows by ``row``."""
    # the policy of the last row, once deterministic, and whether that row ends the run
    current = policy if isinstance(policy, DeterministicPolicy) else None
    last = False

    def improve(values: np.ndarray, backup: Backup) -> np.ndarray:
        nonlocal current, last
        last = current is not None and np.array_equal(backup.actions, current.actions)
        if last:
            return values
        current = DeterministicPolicy(actions=backup.actions)
        new_values = evaluate_policy(problem, current)
        last = np.abs(new_values - values).max() < POLICY_VALUE_TOL
        return new_values

    failure = f"policy iteration did not converge in {max_iters} improvements"
    values, trace = _iterate(
        problem, values, backup, improve, lambda _: last, max_iters, failure, row
    )
    return current, values, trace
