"""Properness analysis: does a policy (or every policy) reach the terminal?

A policy is proper when the terminal state is reachable with positive
probability from every state within some finite number of stages; following
such a policy, the process terminates with probability 1. Properness is a
structural property of the positive-probability transition graph, so all
checks here use exact ``p > 0`` tests, never an epsilon.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import (
    Policy,
    SspProblem,
    StochasticPolicy,
    check_policy,
    policy_transition_matrix,
)


@dataclass(frozen=True)
class ProperCheckReport:
    """Result of a properness check for one policy.

    ``m_stages`` is the smallest horizon with positive termination
    probability from every state, and ``rho_m`` a positive lower bound on
    that probability: the product of transition probabilities along one
    shortest positive-probability path, minimized over start states. Both
    are present only when the policy is proper.
    """

    proper: bool
    unreachable_states: tuple[int, ...]
    m_stages: int | None
    rho_m: float | None

    def to_json_dict(self) -> dict:
        return {
            "proper": self.proper,
            "unreachable_states": list(self.unreachable_states),
            "m_stages": self.m_stages,
            "rho_m": self.rho_m,
            "rho_m_kind": "shortest-path-product-lower-bound",
        }


@dataclass(frozen=True)
class AllPoliciesProperReport:
    """Verdict of the all-policies-proper decision, with a witness when false.

    ``witness_states`` is the largest set C of nonterminal states in which
    every member has at least one action whose positive-probability
    successors all stay inside C; ``witness_actions`` picks one such action
    per state. Following those actions from anywhere in C avoids the
    terminal state forever, so C is nonempty exactly when an improper
    policy exists.
    """

    all_proper: bool
    witness_states: tuple[int, ...]
    witness_actions: dict[int, int]

    def to_json_dict(self) -> dict:
        return {
            "all_policies_proper": self.all_proper,
            "witness_states": list(self.witness_states),
            "witness_actions": {str(k): v for k, v in self.witness_actions.items()},
        }


def uniform_random_policy(problem: SspProblem) -> StochasticPolicy:
    """The policy putting weight 1/A on every action in every state.

    It is proper for any valid instance: whatever proper policy exists, the
    uniform policy mimics its action choices for m consecutive stages with
    probability at least (1/A)^m.
    """
    weights = np.full((problem.num_states, problem.num_actions), 1.0 / problem.num_actions)
    return StochasticPolicy(weights=weights)


def is_proper(problem: SspProblem, policy: Policy) -> ProperCheckReport:
    """Decide properness of a policy by reachability on its induced chain."""
    check_policy(problem, policy)
    kernel = policy_transition_matrix(problem, policy)
    t = problem.terminal
    n = problem.num_states

    # Breadth-first search from the terminal over reversed positive edges
    # gives the shortest positive-probability path length per state.
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
        return ProperCheckReport(
            proper=False, unreachable_states=unreachable, m_stages=None, rho_m=None
        )

    m_stages = max(1, int(dist.max()))
    # Best single-path probability per state, following only shortest paths.
    path_prob = np.zeros(n)
    path_prob[t] = 1.0
    for i in sorted(range(n), key=lambda s: dist[s]):
        if i == t:
            continue
        succ = np.nonzero((kernel[i] > 0.0) & (dist == dist[i] - 1))[0]
        path_prob[i] = max(kernel[i, j] * path_prob[j] for j in succ)
    rho_m = float(path_prob.min())
    return ProperCheckReport(
        proper=True, unreachable_states=(), m_stages=m_stages, rho_m=rho_m
    )


def all_policies_proper(problem: SspProblem) -> AllPoliciesProperReport:
    """Decide whether every policy of the instance is proper.

    Iteratively shrinks the candidate set C: a state survives while it has
    some action whose positive-probability successors all lie in C. The
    fixed point is the largest terminal-avoiding set; it is empty if and
    only if all policies are proper.
    """
    n, t = problem.num_states, problem.terminal
    view = problem.transitions
    in_c = np.ones(n, dtype=bool)
    in_c[t] = False
    while True:
        # entries leaving C per (state, action); an action is "safe" when none does
        leaving = np.bincount(view.row, ~in_c[view.to], minlength=n * problem.num_actions)
        safe_action = leaving.reshape(n, problem.num_actions) == 0.0
        keep = in_c & safe_action.any(axis=1)
        if (keep == in_c).all():
            break
        in_c = keep

    witness_states = tuple(int(i) for i in np.nonzero(in_c)[0])
    witness_actions = {
        i: int(np.argmax(safe_action[i])) for i in witness_states
    }
    return AllPoliciesProperReport(
        all_proper=not witness_states,
        witness_states=witness_states,
        witness_actions=witness_actions,
    )
