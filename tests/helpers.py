"""Random instance generators, fixtures and brute-force oracles shared by the tests."""

from __future__ import annotations

import contextlib
import itertools
import math
from array import array
from collections import deque
from typing import NamedTuple

import numpy as np

from sspbounds import (
    AllPoliciesProperReport,
    DeterministicPolicy,
    GridSpec,
    ProperCheckReport,
    SspProblem,
    build_gridworld,
    evaluate_policy,
    policy_transition_matrix,
)
import sspbounds.dp
from sspbounds.bounds import DEFAULT_HORIZON_CAP
from sspbounds.core import Policy, Transitions
from sspbounds.errors import HorizonCapExceeded, ImproperPolicy
from sspbounds.gridworld import DIRECTIONS, PERPENDICULAR


class DenseKernel(NamedTuple):
    """An instance's kernel as (S, A, S) arrays, zero where no entry is stored."""

    prob: np.ndarray
    cost: np.ndarray


def dense(problem: SspProblem) -> DenseKernel:
    """Rebuild ``prob[i, u, j]`` and ``cost[i, u, j]`` from the stored transitions."""
    view = problem.transitions
    shape = (problem.num_states, problem.num_actions, problem.num_states)
    prob, cost = np.zeros(shape), np.zeros(shape)
    states, actions = np.divmod(view.row, problem.num_actions)
    prob[states, actions, view.to] = view.prob
    cost[states, actions, view.to] = view.cost
    return DenseKernel(prob, cost)


@contextlib.contextmanager
def row_values():
    """The J of each trace row the public solvers make inside the block, in row order.

    ``value_iteration`` and ``policy_iteration`` hand the solver loop the row
    function ``dp._record``, whose rows keep no J; this wraps it to keep each
    row's J as well. Successive runs in one block append to the same list.
    """
    kept = []
    record = sspbounds.dp._record

    def keeping(iteration, values, before, backup):
        kept.append(values)
        return record(iteration, values, before, backup)

    sspbounds.dp._record = keeping
    try:
        yield kept
    finally:
        sspbounds.dp._record = record


def backups_outside_evaluations(monkeypatch, *modules) -> list:
    """The arguments of each ``dp.action_values`` call from now on that no policy evaluation makes.

    ``modules`` hold further ``evaluate_policy`` bindings the code under
    test calls, besides ``sspbounds.dp``'s own.
    """
    backups, evaluating = [], []
    action_values, evaluate = sspbounds.dp.action_values, sspbounds.dp.evaluate_policy

    def counted(*args):
        if not evaluating:
            backups.append(args)
        return action_values(*args)

    def evaluate_counted_apart(*args):
        evaluating.append(args)
        try:
            return evaluate(*args)
        finally:
            evaluating.pop()

    monkeypatch.setattr(sspbounds.dp, "action_values", counted)
    for module in (sspbounds.dp, *modules):
        monkeypatch.setattr(module, "evaluate_policy", evaluate_counted_apart)
    return backups


def problem_to_json_dict(problem: SspProblem, convention: str = "cost") -> dict:
    """An instance as the dict of the JSON schema, one Python dict per transition record.

    ``json.dumps(problem_to_json_dict(p, c), indent=2) + "\\n"`` is the text
    ``save_problem(p, path, c)`` must write, byte for byte; the loader tests
    also edit these dicts and hand them to ``problem_from_json_dict``.
    """
    view = problem.transitions
    sign = {"cost": 1.0, "reward": -1.0}[convention]
    states, actions = np.divmod(view.row, problem.num_actions)
    # adding 0.0 normalizes -0.0 from sign flips
    costs = sign * view.cost + 0.0
    records = [
        {"from": i, "action": u, "to": j, "prob": p, "cost": g}
        for i, u, j, p, g in zip(
            states.tolist(), actions.tolist(), view.to.tolist(), view.prob.tolist(), costs.tolist()
        )
    ]
    return {
        "num_states": problem.num_states,
        "num_actions": problem.num_actions,
        "terminal": problem.terminal,
        "convention": convention,
        "transitions": records,
    }


def reference_action_values(problem: SspProblem, values) -> np.ndarray:
    """Backed-up cost of every (state, action) pair by one dense einsum."""
    prob, cost = dense(problem)
    return np.einsum("suj,suj->su", prob, cost + np.asarray(values)[None, None, :])


def reference_is_proper(problem: SspProblem, policy) -> ProperCheckReport:
    """Properness by breadth-first search over the dense policy kernel."""
    prob, _ = dense(problem)
    if isinstance(policy, DeterministicPolicy):
        kernel = prob[np.arange(problem.num_states), policy.actions]
    else:
        kernel = np.einsum("su,suj->sj", policy.weights, prob)
    t, n = problem.terminal, problem.num_states
    dist = np.full(n, -1, dtype=int)
    dist[t] = 0
    queue = deque([t])
    while queue:
        j = queue.popleft()
        for i in np.nonzero(kernel[:, j] > 0.0)[0]:
            if dist[i] < 0:
                dist[i] = dist[j] + 1
                queue.append(int(i))
    unreachable = tuple(int(i) for i in range(n) if dist[i] < 0)
    if unreachable:
        return ProperCheckReport(False, unreachable, None, None)
    path_prob = np.zeros(n)
    path_prob[t] = 1.0
    for i in sorted(range(n), key=lambda s: dist[s]):
        if i != t:
            succ = np.nonzero((kernel[i] > 0.0) & (dist == dist[i] - 1))[0]
            path_prob[i] = max(kernel[i, j] * path_prob[j] for j in succ)
    return ProperCheckReport(True, (), max(1, int(dist.max())), float(path_prob.min()))


def stay_or_go_instance() -> SspProblem:
    """Minimal two-state instance with one proper and one improper policy.

    State 0 is the only decision state, state 1 the terminal. Action 0
    ("go") moves to the terminal for a cost of 2; action 1 ("stay")
    self-loops for a cost of 1. Staying forever never terminates, so the
    Bellman operator is not a contraction here, yet the optimal cost-to-go
    of state 0 is 2.
    """
    # rows (state, action): (0, go), (0, stay), then the terminal's two self-loops
    view = Transitions(2, row=[0, 1, 2, 3], to=[1, 0, 1, 1], prob=[1.0] * 4, cost=[2, 1, 0, 0])
    return SspProblem(num_states=2, num_actions=2, terminal=1, transitions=view)


def delay_or_exit_instance():
    """Two decision states; costs mixed in sign, improper policies exist.

    State 0 moves to state 1 for -0.25; state 1 either exits for 1.0 or
    loops back to 0 for 1.0. Cycling costs 0.75 per lap, so delaying
    forever diverges. Values of the exit-now policy: J = (0.75, 1.0, 0).
    """
    prob = np.zeros((3, 2, 3))
    cost = np.zeros_like(prob)
    prob[0, :, 1] = 1.0
    cost[0, :, 1] = -0.25
    prob[1, 0, 2] = 1.0
    cost[1, 0, 2] = 1.0
    prob[1, 1, 0] = 1.0
    cost[1, 1, 0] = 1.0
    prob[2, :, 2] = 1.0
    return SspProblem(num_states=3, num_actions=2, terminal=2, prob=prob, cost=cost)


def lazy_chain_instance(length=110, advance=2.0**-10):
    """One-action chain that advances with probability ``advance`` per step.

    Each step costs 1, so J(i) = (i + 1) / advance exactly (TJ = J).
    Returns the instance and that J.
    """
    states = np.arange(length)
    view = Transitions.from_entries(
        length + 1,
        np.concatenate((states, states, [length])),
        np.concatenate((states, np.where(states > 0, states - 1, length), [length])),
        np.concatenate((np.full(length, 1.0 - advance), np.full(length, advance), [1.0])),
        np.concatenate((np.ones(2 * length), [0.0])),
    )
    problem = SspProblem(length + 1, 1, length, transitions=view)
    return problem, np.append(np.arange(1, length + 1) / advance, 0.0)


def free_delay_instance():
    """A zero-cost self-loop lets policies stall forever at no cost."""
    prob = np.zeros((2, 2, 2))
    cost = np.zeros_like(prob)
    prob[0, 0, 0] = 1.0
    prob[0, 1, 1] = 1.0
    prob[1, :, 1] = 1.0
    return SspProblem(num_states=2, num_actions=2, terminal=1, prob=prob, cost=cost)


def cheap_delay_instance():
    """State 0 loops at cost -1 or exits at cost 10: delaying never gets costlier.

    Every policy that loops forever is improper with cost -inf, so the
    horizon search gives up; J = (10, 0) is uniformly improvable.
    """
    prob = np.zeros((2, 2, 2))
    cost = np.zeros_like(prob)
    prob[0, 0, 0] = 1.0
    cost[0, 0, 0] = -1.0
    prob[0, 1, 1] = 1.0
    cost[0, 1, 1] = 10.0
    prob[1, :, 1] = 1.0
    return SspProblem(num_states=2, num_actions=2, terminal=1, prob=prob, cost=cost)


def crawl_instance(delay_cost=1e-9):
    """State 0 exits at cost 1 or loops on itself at ``delay_cost``.

    With J = (2, 0) the horizon search's stage value of state 0 rises by
    ``delay_cost`` a stage, so it passes J - a = 1 only after about
    1 / ``delay_cost`` stages: past the default cap at 1e-9.
    """
    prob = np.zeros((2, 2, 2))
    cost = np.zeros_like(prob)
    prob[0, 0, 1], cost[0, 0, 1] = 1.0, 1.0
    prob[0, 1, 0], cost[0, 1, 0] = 1.0, delay_cost
    prob[1, :, 1] = 1.0
    return SspProblem(num_states=2, num_actions=2, terminal=1, prob=prob, cost=cost)


def random_crawl_ssp(rng, delay_cost, max_states=5):
    """Every state exits at cost 1, or moves among the others at random costs up to ``delay_cost``.

    The moves' probabilities are random, so the horizon search's stage
    values rise by different, rounded amounts per stage, about
    ``delay_cost`` at most.
    """
    m = int(rng.integers(1, max_states))
    prob = np.zeros((m + 1, 2, m + 1))
    cost = np.zeros_like(prob)
    prob[:m, 0, m], cost[:m, 0, m] = 1.0, 1.0
    prob[:m, 1, :m] = rng.dirichlet(np.ones(m), size=m)
    cost[:m, 1, :m] = delay_cost * rng.uniform(0.5, 1.0, size=(m, m))
    prob[m, :, m] = 1.0
    return SspProblem(num_states=m + 1, num_actions=2, terminal=m, prob=prob, cost=cost)


# costs: U(-1, 1), U(0, 1e8) or one of the fixed values
FUZZ_COSTS = ("uniform", "large", 0.0, 1e300, -1e300, 1e-300, 5e-324)


def fuzz_cost(rng) -> float:
    """A cost of the CLI fuzz, drawn from ``FUZZ_COSTS``."""
    pick = FUZZ_COSTS[rng.integers(len(FUZZ_COSTS))]
    if pick == "uniform":
        return float(rng.uniform(-1.0, 1.0))
    if pick == "large":
        return float(rng.uniform(0.0, 1e8))
    return pick


def fuzz_instance(rng) -> dict:
    """An instance file's JSON object for the CLI fuzz: at most 5 states, weights down to 1e-300.

    Every nonterminal row has random targets, weights and ``fuzz_cost``
    costs, in a random convention, so the file may fail validation.
    """
    num_states, num_actions = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    terminal = int(rng.integers(num_states))
    records = []
    for i in range(num_states):
        for u in range(num_actions):
            if i == terminal:
                records.append({"from": i, "action": u, "to": i, "prob": 1.0, "cost": 0.0})
                continue
            targets = np.sort(rng.choice(num_states, int(rng.integers(1, num_states + 1)), False))
            weights = rng.dirichlet(np.ones(targets.size))
            if targets.size > 1 and rng.random() < 0.5:
                weights[0] = 10.0 ** -float(rng.integers(1, 301))
                weights[1:] *= (1.0 - weights[0]) / weights[1:].sum()
            for j, p in zip(targets.tolist(), weights.tolist()):
                cost = fuzz_cost(rng)
                records.append({"from": i, "action": u, "to": j, "prob": p, "cost": cost})
    convention = ["cost", "reward"][int(rng.integers(2))]
    return {
        "num_states": num_states, "num_actions": num_actions, "terminal": terminal,
        "convention": convention, "transitions": records,
    }


def no_exit_instance():
    """A state that can only loop on itself at cost 1: no move enters the terminal."""
    prob = np.zeros((2, 1, 2))
    prob[0, 0, 0] = 1.0
    prob[1, 0, 1] = 1.0
    cost = np.zeros_like(prob)
    cost[0, 0, 0] = 1.0
    return SspProblem(num_states=2, num_actions=1, terminal=1, prob=prob, cost=cost)


class MonteCarloSteps(NamedTuple):
    """Sample mean steps-to-termination with a 95% half-width.

    Rollouts that hit the cap are counted in ``capped`` and excluded from
    the mean; ``mean`` and ``ci95`` are NaN when nothing completed.
    """

    mean: float
    ci95: float
    completed: int
    capped: int


def monte_carlo_steps(
    problem: SspProblem,
    policy: Policy,
    start: int,
    trials: int,
    seed: int,
    cap: int = 10_000,
) -> MonteCarloSteps:
    """Estimate expected steps-to-termination by simulating rollouts.

    The sampling oracle the steps bounds are checked against. Simulates all
    trials as one batch against the policy's dense S x S chain, so it is
    only usable on small instances; the result is deterministic for a
    fixed seed. Rollouts still running after ``cap`` steps are reported in
    ``capped`` and excluded from the mean.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not 0 <= start < problem.num_states:
        raise IndexError(f"start state {start} out of range")
    t = problem.terminal
    if start == t:
        return MonteCarloSteps(0.0, 0.0, trials, 0)

    cumulative = policy_transition_matrix(problem, policy).cumsum(axis=1)
    rng = np.random.default_rng(seed)
    steps_taken = np.zeros(trials, dtype=int)
    finished = np.zeros(trials, dtype=bool)
    active = np.arange(trials)
    state = np.full(trials, start, dtype=int)

    for step in range(1, cap + 1):
        draws = rng.random(active.size)
        rows = cumulative[state]
        nxt = (rows <= draws[:, None]).sum(axis=1)
        np.minimum(nxt, problem.num_states - 1, out=nxt)
        arrived = nxt == t
        steps_taken[active[arrived]] = step
        finished[active[arrived]] = True
        active = active[~arrived]
        state = nxt[~arrived]
        if active.size == 0:
            break

    completed = int(finished.sum())
    capped = trials - completed
    if completed == 0:
        return MonteCarloSteps(math.nan, math.nan, 0, capped)
    samples = steps_taken[finished].astype(float)
    mean = float(samples.mean())
    ci95 = (
        0.0
        if completed < 2
        else float(1.96 * samples.std(ddof=1) / math.sqrt(completed))
    )
    return MonteCarloSteps(mean, ci95, completed, capped)


def _random_distribution(rng, targets, total=1.0):
    raw = rng.uniform(0.2, 1.0, size=len(targets))
    return total * raw / raw.sum()


def random_proper_mixed_ssp(rng, max_states=8, max_actions=4) -> SspProblem:
    """Random instance guaranteed to contain a proper policy, mixed cost signs.

    Action 0 always carries at least 0.1 probability straight to the
    terminal, so "always take action 0" is proper. Other actions may stay
    entirely among nonterminal states, so improper policies usually exist.
    Nonterminal-to-nonterminal costs are positive while terminal-entry
    costs carry either sign: every policy stuck away from the terminal
    accumulates unbounded cost, as the solvers assume.
    """
    num_nonterminal = int(rng.integers(1, max_states))
    num_actions = int(rng.integers(1, max_actions + 1))
    n = num_nonterminal + 1
    terminal = num_nonterminal
    prob = np.zeros((n, num_actions, n))
    cost = np.zeros_like(prob)
    nonterminal = list(range(num_nonterminal))

    for i in nonterminal:
        for u in range(num_actions):
            if u == 0:
                exit_mass = float(rng.uniform(0.1, 0.9))
                prob[i, u, terminal] = exit_mass
                others = rng.choice(
                    nonterminal, size=min(len(nonterminal), 2), replace=False
                )
                weights = _random_distribution(rng, others, total=1.0 - exit_mass)
                for j, w in zip(others, weights):
                    prob[i, u, j] += w
            else:
                include_terminal = rng.random() < 0.35
                pool = nonterminal + ([terminal] if include_terminal else [])
                size = min(len(pool), int(rng.integers(1, 4)))
                targets = rng.choice(pool, size=size, replace=False)
                weights = _random_distribution(rng, targets)
                for j, w in zip(targets, weights):
                    prob[i, u, j] += w
            for j in range(n):
                if prob[i, u, j] > 0:
                    if j == terminal:
                        cost[i, u, j] = rng.uniform(-1.0, 1.0)
                    else:
                        cost[i, u, j] = rng.uniform(0.05, 1.0)
    prob[terminal, :, terminal] = 1.0
    return SspProblem(
        num_states=n, num_actions=num_actions, terminal=terminal, prob=prob, cost=cost
    )


def random_all_proper_ssp(rng, max_states=6, max_actions=3) -> SspProblem:
    """Random instance where every (state, action) pair can terminate directly.

    Each pair puts at least 0.1 probability on the terminal, so all
    policies are proper; costs are unrestricted in sign.
    """
    num_nonterminal = int(rng.integers(1, max_states))
    num_actions = int(rng.integers(1, max_actions + 1))
    n = num_nonterminal + 1
    terminal = num_nonterminal
    prob = np.zeros((n, num_actions, n))
    cost = np.zeros_like(prob)
    nonterminal = list(range(num_nonterminal))

    for i in nonterminal:
        for u in range(num_actions):
            exit_mass = float(rng.uniform(0.1, 0.6))
            prob[i, u, terminal] = exit_mass
            size = min(len(nonterminal), int(rng.integers(1, 4)))
            targets = rng.choice(nonterminal, size=size, replace=False)
            weights = _random_distribution(rng, targets, total=1.0 - exit_mass)
            for j, w in zip(targets, weights):
                prob[i, u, j] += w
            for j in range(n):
                if prob[i, u, j] > 0:
                    cost[i, u, j] = rng.uniform(-1.0, 1.0)
    prob[terminal, :, terminal] = 1.0
    return SspProblem(
        num_states=n, num_actions=num_actions, terminal=terminal, prob=prob, cost=cost
    )


def random_discounted(rng, num_states=5, num_actions=2):
    """Random discounted MDP as (transitions, costs) tensors."""
    transitions = rng.uniform(0.05, 1.0, size=(num_states, num_actions, num_states))
    transitions /= transitions.sum(axis=2, keepdims=True)
    costs = rng.uniform(-1.0, 1.0, size=transitions.shape)
    return transitions, costs


def proper_policy_values(problem: SspProblem) -> list[tuple[DeterministicPolicy, np.ndarray]]:
    """Every proper deterministic policy with its values, by enumeration.

    Improper policies are skipped (their cost is unbounded). Only usable
    on small instances.
    """
    nonterminal = [i for i in range(problem.num_states) if i != problem.terminal]
    found = []
    for combo in itertools.product(range(problem.num_actions), repeat=len(nonterminal)):
        actions = np.zeros(problem.num_states, dtype=int)
        for i, a in zip(nonterminal, combo):
            actions[i] = a
        policy = DeterministicPolicy(actions=actions)
        try:
            found.append((policy, evaluate_policy(problem, policy)))
        except ImproperPolicy:
            continue
    return found


def brute_force_optimal(problem: SspProblem) -> np.ndarray:
    """Optimal values: the elementwise minimum over every proper deterministic policy."""
    values = [v for _, v in proper_policy_values(problem)]
    return np.min(values, axis=0, initial=np.inf)


def random_values(rng, problem: SspProblem, low=-2.0, high=2.0) -> np.ndarray:
    """Random value function with the terminal entry pinned to 0."""
    values = rng.uniform(low, high, size=problem.num_states)
    values[problem.terminal] = 0.0
    return values


def reference_horizon(problem: SspProblem, values, criterion="text", max_stages=None):
    """The termination-horizon recursion on the dense tensors, stage by stage.

    Returns m, the inevitable set of every stage and every stage's
    avoidance values (NaN on the inevitable set); raises
    :class:`HorizonCapExceeded` where the search must. Each stage does two
    dense S x A x S contractions, so it is only usable on small instances.
    Assumes a uniformly improvable ``values``.
    """
    if max_stages is None:
        max_stages = DEFAULT_HORIZON_CAP
    t = problem.terminal
    prob, cost = dense(problem)
    entries = prob[:, :, t] > 0.0
    entries[t, :] = False
    min_terminal_cost = float(cost[:, :, t][entries].min())
    offset = min_terminal_cost if criterion == "text" else 0.0

    inevitable = np.zeros(problem.num_states, dtype=bool)
    inevitable[t] = True
    stage_values = np.zeros(problem.num_states)

    def report_values():
        out = stage_values.copy()
        out[inevitable] = np.nan
        return out

    inevitable_by_stage = [frozenset({t})]
    values_by_stage = [report_values()]
    k = 0
    while True:
        outside = ~inevitable
        if not outside.any():
            return k, inevitable_by_stage, values_by_stage
        if (stage_values[outside] + offset > values[outside]).all():
            return k + 1, inevitable_by_stage, values_by_stage
        if k >= max_stages:
            raise HorizonCapExceeded(k)
        k += 1
        mass_into = np.einsum("suj,j->su", prob, inevitable.astype(float))
        usable = mass_into == 0.0
        can_avoid = usable.any(axis=1)
        joining = outside & ~can_avoid
        staying = outside & can_avoid
        backed = np.einsum("suj,suj->su", prob, cost + stage_values[None, None, :])
        backed = np.where(usable, backed, np.inf)
        new_values = stage_values.copy()
        new_values[staying] = backed[staying].min(axis=1)
        if not joining.any() and (new_values <= stage_values).all():
            raise HorizonCapExceeded(k)
        inevitable = inevitable | joining
        stage_values = new_values
        inevitable_by_stage.append(frozenset(int(i) for i in np.nonzero(inevitable)[0]))
        values_by_stage.append(report_values())


def stagewise_horizon(problem: SspProblem, values, offset: float, max_stages=None):
    """The horizon search over the nonzero entries with a full backup at every stage.

    Returns m, each state's joining stage and the last stage values, as
    ``bounds._search_horizon`` does. Every stage backs up every
    (state, action) row and masks the risky ones with infinity; the
    library rebuilds its arrays of usable entries only when states join,
    and must give the same bits.
    """
    if max_stages is None:
        max_stages = DEFAULT_HORIZON_CAP
    num_states, num_actions = problem.num_states, problem.num_actions
    view = problem.transitions
    joined_at = np.full(num_states, -1, dtype=np.int64)
    joined_at[problem.terminal] = 0
    frontier = np.array([problem.terminal])
    risky = np.zeros((num_states, num_actions), dtype=bool)
    risky_rows = risky.reshape(-1)
    stage_values = np.zeros(num_states)

    k = 0
    while True:
        outside = joined_at < 0
        if not outside.any():
            return k, joined_at, stage_values
        if (stage_values[outside] + offset > values[outside]).all():
            return k + 1, joined_at, stage_values
        if k >= max_stages:
            raise HorizonCapExceeded(k)
        k += 1
        if frontier.size:
            risky_rows[view.row[view.entering(frontier)]] = True
        can_avoid = ~risky.all(axis=1)
        joining = outside & ~can_avoid
        staying = outside & can_avoid
        backed = np.bincount(
            view.row,
            view.prob * (view.cost + stage_values[view.to]),
            minlength=num_states * num_actions,
        ).reshape(num_states, num_actions)
        backed[risky] = np.inf
        new_values = np.where(staying, backed.min(axis=1), stage_values)
        if not joining.any() and (new_values <= stage_values).all():
            raise HorizonCapExceeded(k)
        frontier = np.nonzero(joining)[0]
        joined_at[frontier] = k
        stage_values = new_values


def reference_all_policies_proper(problem: SspProblem) -> AllPoliciesProperReport:
    """The all-policies-proper decision on the dense tensors.

    Shrinks the candidate set C with one S x A x S contraction per round:
    an action stays usable while no probability mass escapes C.
    """
    prob, _ = dense(problem)
    in_c = np.ones(problem.num_states, dtype=bool)
    in_c[problem.terminal] = False
    while True:
        escape = np.einsum("suj,j->su", prob, (~in_c).astype(float))
        safe_action = escape == 0.0
        keep = in_c & safe_action.any(axis=1)
        if (keep == in_c).all():
            break
        in_c = keep
    witness_states = tuple(int(i) for i in np.nonzero(in_c)[0])
    return AllPoliciesProperReport(
        all_proper=not witness_states,
        witness_states=witness_states,
        witness_actions={i: int(np.argmax(safe_action[i])) for i in witness_states},
    )


def reference_join_stages(problem: SspProblem) -> tuple[np.ndarray, np.ndarray]:
    """``(joined_at, risky_at)`` of ``properness.join_stages`` on the dense tensors.

    One S x A x S contraction per stage: a row turns risky at the first
    stage at which it puts mass on the set of the stage before, and a state
    joins at the stage by which all of its rows are risky.
    """
    prob, _ = dense(problem)
    joined_at = np.full(problem.num_states, -1, dtype=np.int64)
    joined_at[problem.terminal] = 0
    risky_at = np.full((problem.num_states, problem.num_actions), -1, dtype=np.int64)
    stage = 0
    while True:
        stage += 1
        mass_into = np.einsum("suj,j->su", prob, (joined_at >= 0).astype(float))
        risky_at[(mass_into > 0.0) & (risky_at < 0)] = stage
        joining = (joined_at < 0) & (risky_at > 0).all(axis=1)
        if not joining.any():
            return joined_at, risky_at.reshape(-1)
        joined_at[joining] = stage


def reference_kernel_facts(problem: SspProblem) -> dict:
    """The steps bounds' structural facts by their dense-mask definitions.

    Keys: ``method`` (what ``auto`` resolves to), ``overridden``,
    ``nonpositive`` (offending (state, action, target) triples),
    ``min_terminal_cost`` and ``p_terminal`` (None without a transition
    into the terminal), ``min_step_cost`` and ``p_nonterminal``.
    """
    (prob, cost), t = dense(problem), problem.terminal
    steps = prob > 0.0
    steps[t, :, :] = False
    steps[:, :, t] = False
    into_terminal = prob[:, :, t] > 0.0
    into_terminal[t, :] = False

    if (cost[steps] > 0.0).all():
        method = "positive-cost"
    elif reference_all_policies_proper(problem).all_proper:
        method = "all-proper"
    else:
        method = "general"

    mass_to_nonterminal = prob.sum(axis=2) - prob[:, :, t]
    overridden = (mass_to_nonterminal == 0.0).all(axis=1)
    overridden[t] = False

    has_exit = into_terminal.any()
    return {
        "method": method,
        "overridden": overridden,
        "nonpositive": [tuple(map(int, o)) for o in np.argwhere(steps & (cost <= 0.0))],
        "min_terminal_cost": float(cost[:, :, t][into_terminal].min()) if has_exit else None,
        "p_terminal": float(prob[:, :, t][into_terminal].min()) if has_exit else None,
        "min_step_cost": float(cost[steps].min()) if steps.any() else math.inf,
        "p_nonterminal": float(prob[steps].min()) if steps.any() else 1.0,
    }


def reference_build_gridworld(spec: GridSpec | None = None) -> SspProblem:
    """The gridworld built one (cell, action, outcome) at a time in Python.

    ``build_gridworld`` must give the same kernel, bit for bit; this loop
    was the library's builder before it computed every cell at once.
    """
    spec = spec or GridSpec()
    cells = [
        (r, c)
        for r in range(spec.height)
        for c in range(spec.width)
        if (r, c) not in spec.walls
    ]
    index = {cell: i for i, cell in enumerate(cells)}
    num_states = len(cells) + 1
    terminal = len(cells)
    num_actions = len(DIRECTIONS)

    # the entries, in typed arrays of 8 bytes per field
    rows, tos, probs, costs = array("q"), array("q"), array("d"), array("d")

    def add(state: int, action: int, targets, g: float) -> None:
        """Append one (state, action) row: ``targets`` are (to, probability) pairs."""
        # a bump and a slip can land on the same cell: one entry, whose
        # probability adds up in move, slip, slip order
        merged: dict[int, float] = {}
        for j, p in targets:
            merged[j] = merged.get(j, 0.0) + p
        for j, p in merged.items():
            rows.append(state * num_actions + action)
            tos.append(j)
            probs.append(p)
            costs.append(g)

    def destination(cell: tuple[int, int], action: int) -> tuple[int, int]:
        row, col = cell
        dr, dc = DIRECTIONS[action]
        target = (row + dr, col + dc)
        inside = 0 <= target[0] < spec.height and 0 <= target[1] < spec.width
        if not inside or target in spec.walls:
            return cell
        return target

    for cell, i in index.items():
        if cell in spec.exits:
            for action in range(num_actions):
                add(i, action, [(terminal, 1.0)], -spec.exits[cell])
            continue
        for action in range(num_actions):
            targets = [(destination(cell, action), spec.move_prob)]
            for slip in PERPENDICULAR[action]:
                redirected = spec.slip_redirects.get((cell, action, slip))
                landing = redirected if redirected else destination(cell, slip)
                targets.append((landing, spec.slip_prob))
            add(i, action, [(index[c], w) for c, w in targets], -spec.step_reward)
    for action in range(num_actions):
        add(terminal, action, [(terminal, 1.0)], 0.0)
    view = Transitions.from_entries(num_states, rows, tos, probs, costs)
    return SspProblem(num_states, num_actions, terminal, transitions=view)


def open_grid_spec(
    width: int, height: int | None = None, walls=(), slip_redirects=None
) -> GridSpec:
    """A grid with the +1 exit top right and the -1 exit bottom left, by default open."""
    height = height or width
    return GridSpec(
        width=width, height=height, walls=tuple(walls), slip_redirects=slip_redirects or {},
        exits={(0, width - 1): 1.0, (height - 1, 0): -1.0},
    )


def open_grid(width: int, height: int | None = None, walls=(), slip_redirects=None) -> SspProblem:
    """The instance of :func:`open_grid_spec`."""
    return build_gridworld(open_grid_spec(width, height, walls, slip_redirects))


def walled_grid_spec(rng, width: int, height: int) -> GridSpec:
    """A grid with random walls and random slip redirects.

    A third of the cells at an odd row and odd column are walls, so the
    even rows and columns keep every cell connected to the exits. A tenth
    of the cells get one slip redirected to a cell at most two rows and
    two columns away.
    """
    inner = [(r, c) for r in range(1, height - 1, 2) for c in range(1, width - 1, 2)]
    walls = {inner[k] for k in rng.choice(len(inner), size=len(inner) // 3, replace=False)}
    cells = [(r, c) for r in range(height) for c in range(width) if (r, c) not in walls]
    redirects = {}
    for k in rng.choice(len(cells), size=len(cells) // 10, replace=False):
        r, c = cells[k]
        action = int(rng.integers(4))
        slip = (2, 3) if action < 2 else (0, 1)
        landing = (
            min(max(r + int(rng.integers(-2, 3)), 0), height - 1),
            min(max(c + int(rng.integers(-2, 3)), 0), width - 1),
        )
        if landing not in walls:
            redirects[((r, c), action, slip[int(rng.integers(2))])] = landing
    return open_grid_spec(width, height, walls, redirects)


def walled_grid(rng, width: int, height: int) -> SspProblem:
    """The instance of :func:`walled_grid_spec`."""
    return build_gridworld(walled_grid_spec(rng, width, height))


def joined_on_terminal(first: SspProblem, second: SspProblem) -> SspProblem:
    """Two instances with the same actions side by side, sharing one terminal.

    The nonterminal states of ``first`` come first, then those of
    ``second``; no state of one reaches a state of the other.
    """
    terminal = first.num_states + second.num_states - 2
    columns = []
    for problem, offset in ((first, 0), (second, first.num_states - 1)):
        label = np.full(problem.num_states, terminal)
        label[problem.nonterminal] = offset + np.arange(problem.num_states - 1)
        view = problem.transitions
        states, actions = np.divmod(view.row, problem.num_actions)
        keep = states != problem.terminal
        columns.append((
            label[states[keep]] * problem.num_actions + actions[keep],
            label[view.to[keep]], view.prob[keep], view.cost[keep],
        ))
    loops = terminal * first.num_actions + np.arange(first.num_actions)
    ones = np.ones(loops.size)
    columns.append((loops, np.full(loops.size, terminal), ones, 0.0 * ones))
    view = Transitions.from_entries(terminal + 1, *map(np.concatenate, zip(*columns)))
    return SspProblem(terminal + 1, first.num_actions, terminal, transitions=view)


def wide_random_ssp(rng, num_nonterminal: int, num_actions: int = 4) -> SspProblem:
    """Random all-proper instance whose breadth-first levels are wide.

    Every (state, action) pair exits with probability 0.05 and otherwise
    moves to 3 random nonterminal states; costs are uniform in [-1, 1].
    """
    pairs = num_nonterminal * num_actions
    targets = np.array([rng.choice(num_nonterminal, size=3, replace=False) for _ in range(pairs)])
    weights = rng.uniform(0.2, 1.0, size=(pairs, 3))
    weights *= 0.95 / weights.sum(axis=1, keepdims=True)
    terminal = num_nonterminal
    rows = np.arange(pairs + num_actions)
    view = Transitions.from_entries(
        num_nonterminal + 1,
        np.concatenate((np.repeat(rows[:pairs], 3), rows)),
        np.concatenate((targets.ravel(), np.full(rows.size, terminal))),
        np.concatenate((weights.ravel(), np.full(pairs, 0.05), np.ones(num_actions))),
        np.concatenate((rng.uniform(-1.0, 1.0, size=4 * pairs), np.zeros(num_actions))),
    )
    return SspProblem(num_nonterminal + 1, num_actions, terminal, transitions=view)


def with_costs_scaled(problem: SspProblem, scale: float) -> SspProblem:
    """The instance with every cost multiplied by ``scale``."""
    view = problem.transitions
    scaled = Transitions(problem.num_states, view.row, view.to, view.prob, view.cost * scale)
    return SspProblem(
        problem.num_states, problem.num_actions, problem.terminal, transitions=scaled
    )


def kernel_oracle_cases():
    """(name, problem) pairs the view-based structural facts are checked on."""
    cases = [
        ("grid", build_gridworld()),
        ("stay-or-go", stay_or_go_instance()),
        ("free-delay", free_delay_instance()),
        ("lazy-chain", lazy_chain_instance()[0]),
        ("delay-or-exit", delay_or_exit_instance()),
        ("no-exit", no_exit_instance()),
    ]
    rng = np.random.default_rng(101)
    for k in range(20):
        cases.append((f"mixed-{k}", random_proper_mixed_ssp(rng)))
        cases.append((f"all-proper-{k}", random_all_proper_ssp(rng)))
    return cases
