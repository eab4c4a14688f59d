"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from helpers import (
    monte_carlo_steps,
    random_all_proper_ssp,
    random_proper_mixed_ssp,
    random_values,
    stay_or_go_instance,
)
from sspbounds import (
    BoundsContext,
    bellman_backup,
    bellman_residual,
    build_gridworld,
    compute_bounds_report,
    evaluate_policy,
    from_discounted,
    greedy_policy,
    immediate_termination_states,
    is_proper,
    is_uniformly_improvable,
    policy_backup,
    steps_bound_from_horizon,
    steps_bound_positive_costs,
    termination_horizon,
    uniform_random_policy,
    value_iteration,
)
from sspbounds.gridworld import (
    EXPECTED_TABLE1_PI,
    EXPECTED_TABLE1_VI,
    compare_table1,
    compare_table2,
    run_table1,
    run_table2,
)


def report(number, description, elapsed=None):
    timing = "" if elapsed is None else f" [{elapsed:.2f}s]"
    print(f"\nACCEPTANCE {number} PASS: {description}{timing}")


def test_criterion_1_table2_reproduction():
    start = time.perf_counter()
    problem = build_gridworld()
    rows = run_table2(problem)
    mismatches = compare_table2(rows)
    elapsed = time.perf_counter() - start
    assert mismatches == [], mismatches
    assert len(rows) == 5
    assert elapsed < 1.0
    report(1, "Table 2: 5 rows x 11 states within +-0.01 (J) and +-0.1 (N)", elapsed)


def test_criterion_2_table1_reproduction():
    start = time.perf_counter()
    problem = build_gridworld()
    vi_rows = run_table1(problem, "vi")
    pi_rows = run_table1(problem, "pi")
    mismatches = compare_table1(vi_rows, EXPECTED_TABLE1_VI, "vi")
    mismatches += compare_table1(pi_rows, EXPECTED_TABLE1_PI, "pi")
    elapsed = time.perf_counter() - start
    assert mismatches == [], mismatches
    assert len(vi_rows) == 13
    # policy iteration converges after exactly 4 improvement steps
    assert len(pi_rows) == 5
    assert pi_rows[4].residual == pytest.approx(0.0, abs=1e-9)
    assert elapsed < 1.0
    report(2, "Table 1: VI rows 0-12 and PI rows 0-4 within stated tolerances", elapsed)


def test_criterion_3_discounted_special_case():
    rng = np.random.default_rng(20250808)
    transitions = rng.uniform(0.05, 1.0, size=(5, 2, 5))
    transitions /= transitions.sum(axis=2, keepdims=True)
    costs = rng.uniform(-1.0, 1.0, size=transitions.shape)
    problem = from_discounted(transitions, costs, beta=0.9)

    values = evaluate_policy(problem, uniform_random_policy(problem))
    bounds_report = compute_bounds_report(problem, values, "all-proper")
    envelope = bellman_residual(problem, values).residual / (1.0 - 0.9)
    assert abs(bounds_report.global_bound - envelope) <= 1e-10

    rollout = monte_carlo_steps(
        problem, uniform_random_policy(problem), start=0, trials=100_000, seed=99, cap=2_000
    )
    assert rollout.capped == 0
    standard_error = rollout.ci95 / 1.96
    assert abs(rollout.mean - 10.0) <= 3 * standard_error
    report(
        3,
        f"discounted reduction: bound == residual/(1-beta) and mean steps "
        f"{rollout.mean:.3f} within 3 SE of 10",
    )


def test_criterion_4_greedy_policies_proper():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(1_000):
        problem = random_proper_mixed_ssp(rng, max_states=8, max_actions=4)
        values = evaluate_policy(problem, uniform_random_policy(problem))
        assert is_uniformly_improvable(problem, values)
        greedy = greedy_policy(problem, values)
        assert is_proper(problem, greedy).proper
        greedy_values = evaluate_policy(problem, greedy)
        assert (greedy_values <= values + 1e-9).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, "1000 random instances: improvable start, proper greedy, no regression", elapsed)


def test_criterion_5_sandwich_and_per_state_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for _ in range(500):
        problem = random_all_proper_ssp(rng, max_states=6, max_actions=3)
        optimal, _ = value_iteration(
            problem, np.zeros(problem.num_states), epsilon=1e-12, max_iters=100_000
        )
        context = BoundsContext.for_problem(problem, "all-proper")
        values = evaluate_policy(problem, uniform_random_policy(problem))
        for _ in range(5):
            values = bellman_backup(problem, values)
            bounds = context.report(values)
            # the envelope J + c- N <= J* <= J_greedy <= J + c+ N, from the report
            lower = values + bounds.min_change * bounds.steps_bound
            upper = values + bounds.max_change * bounds.steps_bound
            greedy_values = evaluate_policy(problem, greedy_policy(problem, values))
            assert (lower <= optimal + 1e-8).all()
            assert (optimal <= greedy_values + 1e-8).all()
            assert (greedy_values <= upper + 1e-8).all()
            assert (np.abs(optimal - values) <= bounds.per_state_bound + 1e-8).all()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "500 all-proper instances: sandwich and per-state bounds hold to 1e-8", elapsed)


def test_criterion_6_steps_bound_dominates_rollouts():
    start = time.perf_counter()
    problem = build_gridworld()
    initial = evaluate_policy(problem, uniform_random_policy(problem))
    optimal, _ = value_iteration(problem, initial, epsilon=1e-12, max_iters=100_000)
    policy = greedy_policy(problem, optimal)
    steps = steps_bound_positive_costs(problem, optimal)
    overridden = immediate_termination_states(problem)
    for state in problem.nonterminal:
        if overridden[state]:
            continue
        rollout = monte_carlo_steps(
            problem, policy, int(state), trials=10_000, seed=6_000 + int(state), cap=5_000
        )
        assert rollout.capped == 0
        assert rollout.mean + 3 * rollout.ci95 <= steps[state]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, "gridworld optimal policy: sampled steps + 3 ci below N(i) everywhere", elapsed)


def test_criterion_7_horizon_certificates():
    two_state = stay_or_go_instance()
    certificate = termination_horizon(two_state, np.array([2.0, 0.0]))
    assert certificate.m == 2
    loose = steps_bound_from_horizon(two_state, certificate)
    assert loose[0] == 2.0

    problem = build_gridworld()
    initial = evaluate_policy(problem, uniform_random_policy(problem))
    optimal, _ = value_iteration(problem, initial, epsilon=1e-12, max_iters=100_000)
    grid_certificate = termination_horizon(problem, optimal)
    assert np.isfinite(grid_certificate.m)
    policy = greedy_policy(problem, optimal)
    for state in problem.nonterminal:
        rollout = monte_carlo_steps(
            problem, policy, int(state), trials=2_000, seed=7_000 + int(state),
            cap=grid_certificate.m,
        )
        assert rollout.completed > 0
    report(
        7,
        f"two-state certificate m=2 with loose N=2; gridworld m={grid_certificate.m} "
        "reached by rollouts from every state",
    )


def test_criterion_8_structural_checks():
    rng = np.random.default_rng(8)
    instances = [random_proper_mixed_ssp(rng) for _ in range(250)]

    for index in range(1_000):
        problem = instances[index % len(instances)]
        lower = random_values(rng, problem)
        upper = lower + np.abs(rng.normal(size=lower.shape))
        upper[problem.terminal] = 0.0
        assert (
            bellman_backup(problem, lower) <= bellman_backup(problem, upper) + 1e-12
        ).all()
        improvable = evaluate_policy(problem, uniform_random_policy(problem))
        improvable = improvable + float(rng.uniform(0.0, 1.0))
        improvable[problem.terminal] = 0.0
        # a uniform upward shift of a policy value stays improvable; one
        # backup must keep it so
        assert is_uniformly_improvable(problem, improvable)
        assert is_uniformly_improvable(problem, bellman_backup(problem, improvable))

    for index in range(200):
        problem = instances[index]
        values = random_values(rng, problem)
        greedy = greedy_policy(problem, values)
        assert np.array_equal(
            policy_backup(problem, greedy, values), bellman_backup(problem, values)
        )

    for index in range(100):
        problem = instances[index]
        policy = uniform_random_policy(problem)
        values = evaluate_policy(problem, policy)
        residual = np.abs(policy_backup(problem, policy, values) - values).max()
        assert residual <= 1e-10
    report(8, "monotonicity, closure, exact greedy consistency, 1e-10 fixed points")
