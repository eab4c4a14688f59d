"""Random instance generators and brute-force oracles shared by the tests."""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from sspbounds import (
    AllPoliciesProperReport,
    DeterministicPolicy,
    ProperCheckReport,
    SspProblem,
    evaluate_policy,
)
from sspbounds.bounds import DEFAULT_HORIZON_CAP
from sspbounds.errors import HorizonCapExceeded, ImproperPolicy


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


def brute_force_optimal(problem: SspProblem) -> np.ndarray:
    """Optimal values by evaluating every deterministic policy.

    Improper policies are skipped (their cost is unbounded). Only usable
    on small instances.
    """
    nonterminal = [i for i in range(problem.num_states) if i != problem.terminal]
    best = np.full(problem.num_states, np.inf)
    for combo in itertools.product(range(problem.num_actions), repeat=len(nonterminal)):
        actions = np.zeros(problem.num_states, dtype=int)
        for i, a in zip(nonterminal, combo):
            actions[i] = a
        try:
            values = evaluate_policy(problem, DeterministicPolicy(actions=actions))
        except ImproperPolicy:
            continue
        best = np.minimum(best, values)
    return best


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
        if not joining.any() and np.array_equal(new_values, stage_values):
            raise HorizonCapExceeded(k)
        inevitable = inevitable | joining
        stage_values = new_values
        inevitable_by_stage.append(frozenset(int(i) for i in np.nonzero(inevitable)[0]))
        values_by_stage.append(report_values())


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


def reference_kernel_facts(problem: SspProblem) -> dict:
    """The steps bounds' structural facts by their dense-mask definitions.

    Keys: ``method`` (what ``auto`` resolves to), ``overridden``,
    ``nonpositive`` (offending (state, action, target) triples),
    ``min_terminal_cost`` and ``p_terminal`` (None without a transition
    into the terminal), ``min_step_cost``, ``min_expected_step_cost`` and
    ``p_nonterminal``.
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

    masked_prob = np.where(steps, prob, 0.0)
    mass = masked_prob.sum(axis=2)
    expected = np.einsum("suj,suj->su", masked_prob, cost)
    with_mass = mass > 0.0
    has_exit = into_terminal.any()
    return {
        "method": method,
        "overridden": overridden,
        "nonpositive": [tuple(map(int, o)) for o in np.argwhere(steps & (cost <= 0.0))],
        "min_terminal_cost": float(cost[:, :, t][into_terminal].min()) if has_exit else None,
        "p_terminal": float(prob[:, :, t][into_terminal].min()) if has_exit else None,
        "min_step_cost": float(cost[steps].min()) if steps.any() else math.inf,
        "min_expected_step_cost": (
            float((expected[with_mass] / mass[with_mass]).min())
            if with_mass.any()
            else math.inf
        ),
        "p_nonterminal": float(prob[steps].min()) if steps.any() else 1.0,
    }
