"""Properness analysis: does a policy (or every policy) reach the terminal?

A policy is proper when the terminal state is reachable with positive
probability from every state within some finite number of stages; following
such a policy, the process terminates with probability 1. Properness is a
structural property of the positive-probability transition graph, so all
checks here use exact ``p > 0`` tests, never an epsilon.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    Policy,
    SspProblem,
    StochasticPolicy,
    _kept,
    distinct,
    policy_entry_probs,
)


class ProperCheckReport(NamedTuple):
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


class AllPoliciesProperReport(NamedTuple):
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
    """Decide properness of a policy by reachability on its induced chain.

    Searches backwards from the terminal, one level of shortest
    positive-probability path length at a time, over the entries the
    policy uses; each entry is looked at once, so a check costs O(nnz).
    """
    view = problem.transitions
    weights = policy_entry_probs(problem, policy)
    n, t = problem.num_states, problem.terminal
    sources = view.row // problem.num_actions
    dist = np.full(n, -1, dtype=np.int64)
    dist[t] = 0
    # best single-path probability per state, following only shortest paths
    path_prob = np.zeros(n)
    path_prob[t] = 1.0
    frontier, level = np.array([t]), 0
    while frontier.size:
        level += 1
        entries = view.entering(frontier)
        entries = entries[(weights[entries] > 0.0) & (dist[sources[entries]] < 0)]
        # the chain's probability of each new (source, target) edge, summed over actions
        edges, which = np.unique(sources[entries] * n + view.to[entries], return_inverse=True)
        edge_prob = np.bincount(which, weights[entries], minlength=edges.size)
        reached, targets = np.divmod(edges, n)
        np.maximum.at(path_prob, reached, edge_prob * path_prob[targets])
        dist[reached] = level
        frontier = distinct(reached)

    unreachable = tuple(np.flatnonzero(dist < 0).tolist())
    if unreachable:
        return ProperCheckReport(False, unreachable, m_stages=None, rho_m=None)
    return ProperCheckReport(True, (), max(1, int(dist.max())), float(path_prob.min()))


def join_stages(problem: SspProblem) -> tuple[np.ndarray, np.ndarray]:
    """The stages ``(joined_at, risky_at)`` of the sets no policy can keep avoiding.

    Stage 0's set is the terminal; stage k adds every state all of whose
    (state, action) rows have an entry into the stage-(k-1) set.
    ``joined_at[i]`` is that k for state i, ``risky_at[r]`` the first
    stage at which row r has such an entry, and both are -1 where that
    never happens. Each stored entry is looked at once, when its target
    joins, so the search costs O(nnz); it runs on the first call, and the
    read-only arrays are kept with the instance.
    """
    return _kept(problem, "_join_stages", _join_stages)


def _join_stages(problem: SspProblem) -> tuple[np.ndarray, np.ndarray]:
    """The search of :func:`join_stages`, which keeps its result."""
    n, num_actions = problem.num_states, problem.num_actions
    view = problem.transitions
    joined_at = np.full(n, -1, dtype=np.int64)
    joined_at[problem.terminal] = 0
    risky_at = np.full(n * num_actions, -1, dtype=np.int64)
    safe_rows = np.full(n, num_actions, dtype=np.int64)
    frontier, stage = np.array([problem.terminal]), 0
    while frontier.size:
        stage += 1
        rows = distinct(view.row[view.entering(frontier)])
        rows = rows[risky_at[rows] < 0]
        risky_at[rows] = stage
        states = rows // num_actions
        np.subtract.at(safe_rows, states, 1)
        frontier = distinct(states[(safe_rows[states] == 0) & (joined_at[states] < 0)])
        joined_at[frontier] = stage
    joined_at.setflags(write=False)
    risky_at.setflags(write=False)
    return joined_at, risky_at


def all_policies_proper(problem: SspProblem) -> AllPoliciesProperReport:
    """Decide whether every policy of the instance is proper.

    The states that never join the :func:`join_stages` sets form the
    largest terminal-avoiding set: each keeps an action that never risks
    entering a joined state. It is empty if and only if all policies are
    proper.
    """
    joined_at, risky_at = join_stages(problem)
    safe_action = risky_at.reshape(problem.num_states, problem.num_actions) < 0
    witness_states = tuple(int(i) for i in np.nonzero(joined_at < 0)[0])
    witness_actions = {i: int(np.argmax(safe_action[i])) for i in witness_states}
    return AllPoliciesProperReport(not witness_states, witness_states, witness_actions)
