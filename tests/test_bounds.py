import json
import logging
import math

import numpy as np
import pytest

from helpers import (
    dense,
    brute_force_optimal,
    monte_carlo_steps,
    proper_policy_values,
    random_all_proper_ssp,
    random_discounted,
    random_proper_mixed_ssp,
    random_values,
    reference_action_values,
    reference_all_policies_proper,
    reference_horizon,
    reference_is_proper,
    reference_kernel_facts,
    stay_or_go_instance,
)
from sspbounds import (
    BoundsContext,
    DeterministicPolicy,
    SspProblem,
    action_values,
    all_policies_proper,
    bellman_backup,
    bellman_residual,
    build_gridworld,
    compute_bounds_report,
    evaluate_policy,
    from_discounted,
    greedy_policy,
    immediate_termination_states,
    is_proper,
    resolve_method,
    steps_bound_all_proper,
    steps_bound_from_horizon,
    steps_bound_positive_costs,
    termination_horizon,
    uniform_random_policy,
    validate,
    value_iteration,
)
from sspbounds.bounds import _kernel_facts
from sspbounds.errors import (
    HorizonCapExceeded,
    NonpositiveCost,
    NotAllPoliciesProper,
    NoTerminalTransition,
    NotUniformlyImprovable,
)


def chain_instance(length=3, step_cost=1.0):
    """Deterministic chain c0 -> c1 -> ... -> terminal, one action."""
    n = length + 1
    prob = np.zeros((n, 1, n))
    cost = np.zeros_like(prob)
    for i in range(length):
        prob[i, 0, i + 1] = 1.0
        cost[i, 0, i + 1] = step_cost
    prob[length, 0, length] = 1.0
    return SspProblem(num_states=n, num_actions=1, terminal=length, prob=prob, cost=cost)


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
    n = length + 1
    prob = np.zeros((n, 1, n))
    for i in range(length):
        prob[i, 0, i] = 1.0 - advance
        prob[i, 0, i - 1 if i else length] = advance
    prob[length, 0, length] = 1.0
    cost = np.where(prob > 0.0, 1.0, 0.0)
    cost[length] = 0.0
    problem = SspProblem(num_states=n, num_actions=1, terminal=length, prob=prob, cost=cost)
    return problem, np.append(np.arange(1, length + 1) / advance, 0.0)


def free_delay_instance():
    """A zero-cost self-loop lets policies stall forever at no cost."""
    prob = np.zeros((2, 2, 2))
    cost = np.zeros_like(prob)
    prob[0, 0, 0] = 1.0
    prob[0, 1, 1] = 1.0
    prob[1, :, 1] = 1.0
    return SspProblem(num_states=2, num_actions=2, terminal=1, prob=prob, cost=cost)


def no_exit_instance():
    """A state that can only loop on itself at cost 1: no move enters the terminal."""
    prob = np.zeros((2, 1, 2))
    prob[0, 0, 0] = 1.0
    prob[1, 0, 1] = 1.0
    cost = np.zeros_like(prob)
    cost[0, 0, 0] = 1.0
    return SspProblem(num_states=2, num_actions=1, terminal=1, prob=prob, cost=cost)


class TestOverrides:
    def test_tiny_step_prevents_the_override(self):
        # The row (1e-17 back to state 0, 1.0 to the terminal) sums to 1.0 in
        # floating point, so the instance validates; state 0 can still step
        # back to itself, so it does not terminate in one step.
        prob = np.zeros((2, 1, 2))
        prob[0, 0, 0] = 1e-17
        prob[0, 0, 1] = 1.0
        prob[1, 0, 1] = 1.0
        cost = np.where(prob > 0.0, 1.0, 0.0)
        cost[1] = 0.0
        problem = SspProblem(num_states=2, num_actions=1, terminal=1, prob=prob, cost=cost)
        validate(problem)
        assert not immediate_termination_states(problem).any()
        assert compute_bounds_report(problem, np.array([1.0, 0.0])).overrides == ()

    def test_gridworld_exit_cells(self, grid):
        mask = immediate_termination_states(grid)
        assert set(np.nonzero(mask)[0]) == {3, 6}

    def test_rollouts_from_override_states_take_one_step(self, grid):
        policy = uniform_random_policy(grid)
        for state in (3, 6):
            result = monte_carlo_steps(grid, policy, state, trials=500, seed=9, cap=10)
            assert result.mean == 1.0
            assert result.ci95 == 0.0


def report_envelope(values, report):
    """The report's two-sided envelope J + c- N <= J* <= J_greedy <= J + c+ N."""
    steps = report.steps_bound
    return values + report.min_change * steps, values + report.max_change * steps


class TestSandwichBounds:
    def test_collapses_at_fixed_point(self, stay_go):
        optimal = np.array([2.0, 0.0])
        report = compute_bounds_report(stay_go, optimal)
        assert report.min_change == report.max_change == 0.0
        lower, upper = report_envelope(optimal, report)
        assert np.array_equal(lower, optimal)
        assert np.array_equal(upper, optimal)

    def test_discounted_envelope_special_case(self):
        rng = np.random.default_rng(14)
        transitions = rng.uniform(0.05, 1.0, size=(5, 2, 5))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, rng.normal(size=transitions.shape), 0.9)
        values = evaluate_policy(problem, uniform_random_policy(problem))
        report = compute_bounds_report(problem, values, "all-proper")
        envelope = bellman_residual(problem, values).residual / (1.0 - 0.9)
        assert abs(report.global_bound - envelope) <= 1e-10

    def test_sandwich_on_random_all_proper_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            problem = random_all_proper_ssp(rng, max_states=5)
            optimal = brute_force_optimal(problem)
            values = evaluate_policy(problem, uniform_random_policy(problem))
            for _ in range(3):
                values = bellman_backup(problem, values)
            greedy_values = evaluate_policy(problem, greedy_policy(problem, values))
            lower, upper = report_envelope(values, compute_bounds_report(problem, values, "all-proper"))
            assert (lower <= optimal + 1e-8).all()
            assert (optimal <= greedy_values + 1e-8).all()
            assert (greedy_values <= upper + 1e-8).all()


class TestPerStateAndGlobal:
    def test_zero_residual_gives_zero_bounds(self, stay_go):
        report = compute_bounds_report(stay_go, np.array([2.0, 0.0]))
        assert np.array_equal(report.per_state_bound, [0, 0])
        assert report.global_bound == 0.0

    def test_requires_uniform_improvability(self, stay_go):
        with pytest.raises(NotUniformlyImprovable):
            compute_bounds_report(stay_go, np.zeros(2))
        context = BoundsContext.for_problem(stay_go)
        with pytest.raises(NotUniformlyImprovable):
            context.report(np.zeros(2))

    def test_near_goal_states_get_tighter_bounds(self, grid, grid_optimal_values):
        report = compute_bounds_report(grid, grid_optimal_values, "positive-cost")
        assert report.steps_bound[10] == pytest.approx(16.3, abs=0.1)
        assert report.steps_bound[2] == pytest.approx(3.1, abs=0.1)
        assert report.per_state_bound[2] <= report.per_state_bound[10]

    def test_soundness_against_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            problem = random_all_proper_ssp(rng, max_states=5)
            optimal = brute_force_optimal(problem)
            context = BoundsContext.for_problem(problem, "all-proper")
            values = evaluate_policy(problem, uniform_random_policy(problem))
            for _ in range(4):
                bounds = context.report(values).per_state_bound
                assert (np.abs(optimal - values) <= bounds + 1e-8).all()
                values = bellman_backup(problem, values)

    def test_global_is_max_over_non_overridden(self, grid, grid_uniform_values):
        report = compute_bounds_report(grid, grid_uniform_values, "positive-cost")
        steps = steps_bound_positive_costs(grid, grid_uniform_values)
        stats = bellman_residual(grid, grid_uniform_values)
        mask = np.ones(grid.num_states, dtype=bool)
        mask[grid.terminal] = False
        mask &= ~immediate_termination_states(grid)
        assert report.global_bound == stats.residual * steps[mask].max()


class TestStepsBoundPositiveCosts:
    def test_gridworld_published_values(self, grid, grid_optimal_values):
        steps = steps_bound_positive_costs(grid, grid_optimal_values)
        assert steps[10] == pytest.approx(16.3, abs=0.1)
        assert steps[6] == pytest.approx(51.0, abs=0.1)
        assert steps[3] == pytest.approx(1.0, abs=1e-9)

    def test_state_matching_cheapest_exit_needs_one_step(self):
        prob = np.zeros((2, 1, 2))
        cost = np.zeros_like(prob)
        prob[0, 0, 1] = 1.0
        cost[0, 0, 1] = 0.7
        prob[1, 0, 1] = 1.0
        problem = SspProblem(num_states=2, num_actions=1, terminal=1, prob=prob, cost=cost)
        steps = steps_bound_positive_costs(problem, np.array([0.7, 0.0]))
        assert steps[0] == 1.0

    def test_nonpositive_cost_rejected_with_offenders(self, grid):
        cost = dense(grid).cost.copy()
        cost[0, 0, 1] = 0.0
        bad = SspProblem(
            num_states=grid.num_states,
            num_actions=grid.num_actions,
            terminal=grid.terminal,
            prob=dense(grid).prob,
            cost=cost,
        )
        values = evaluate_policy(bad, uniform_random_policy(bad))
        with pytest.raises(NonpositiveCost) as info:
            steps_bound_positive_costs(bad, values)
        assert (0, 0, 1) in info.value.triples

    def test_requires_uniform_improvability(self, stay_go):
        with pytest.raises(NotUniformlyImprovable):
            steps_bound_positive_costs(stay_go, np.zeros(2))

    def test_clamp_logs_and_floors_to_one(self, caplog):
        prob = np.zeros((2, 2, 2))
        cost = np.zeros_like(prob)
        prob[0, 0, 1] = 1.0
        cost[0, 0, 1] = 1.0
        prob[0, 1, 0] = 1.0
        cost[0, 1, 0] = 0.5
        prob[1, :, 1] = 1.0
        problem = SspProblem(num_states=2, num_actions=2, terminal=1, prob=prob, cost=cost)
        # within the improvability tolerance but a hair below the exit cost
        values = np.array([1.0 - 1e-10, 0.0])
        with caplog.at_level(logging.WARNING, logger="sspbounds.bounds"):
            steps = steps_bound_positive_costs(problem, values)
        assert steps[0] == 1.0
        assert any("clamping" in rec.message for rec in caplog.records)

class TestStepsBoundAllProper:
    def test_discounted_reduction_gives_horizon(self):
        rng = np.random.default_rng(51)
        transitions = rng.uniform(0.05, 1.0, size=(4, 2, 4))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, rng.normal(size=transitions.shape), 0.9)
        steps = steps_bound_all_proper(problem)
        assert steps[problem.nonterminal] == pytest.approx(np.full(4, 10.0), abs=1e-8)

    def test_single_transition_chain(self):
        problem = chain_instance(length=1)
        steps = steps_bound_all_proper(problem)
        assert steps[0] == pytest.approx(1.0, abs=1e-10)

    def test_gridworld_rejected_with_witness(self, grid):
        with pytest.raises(NotAllPoliciesProper) as info:
            steps_bound_all_proper(grid)
        assert 9 in info.value.witness_states

    def test_dominates_sampled_steps_under_any_policy(self):
        rng = np.random.default_rng(53)
        problem = random_all_proper_ssp(rng, max_states=5)
        steps = steps_bound_all_proper(problem)
        for trial in range(3):
            actions = rng.integers(0, problem.num_actions, size=problem.num_states)
            policy = DeterministicPolicy(actions=actions)
            for start in problem.nonterminal:
                result = monte_carlo_steps(
                    problem, policy, int(start), trials=4_000, seed=100 + trial, cap=5_000
                )
                assert result.mean - 3 * result.ci95 <= steps[start] + 1e-9


class TestTerminationHorizon:
    def test_stay_go_certificate(self, stay_go):
        certificate = termination_horizon(stay_go, np.array([2.0, 0.0]))
        assert certificate.m == 2
        assert certificate.min_terminal_cost == 2.0
        assert certificate.inevitable_at(0) == frozenset({1})
        assert certificate.last_stage == 1
        assert certificate.values[0] == 1.0
        final = certificate.values
        outside = [
            i for i in range(2)
            if i not in certificate.inevitable_at(certificate.last_stage)
        ]
        for i in outside:
            assert final[i] + certificate.min_terminal_cost > 2.0

    def test_stage_sets_grow(self, grid, grid_optimal_values):
        certificate = termination_horizon(grid, grid_optimal_values)
        stages = [
            certificate.inevitable_at(k) for k in range(certificate.last_stage + 1)
        ]
        assert stages[0] == frozenset({grid.terminal})
        for earlier, later in zip(stages, stages[1:]):
            assert earlier <= later
        assert certificate.m < 1_000

    def test_everything_inevitable_after_one_stage(self):
        prob = np.zeros((3, 2, 3))
        cost = np.zeros_like(prob)
        for i in range(2):
            for u in range(2):
                prob[i, u, 2] = 0.5
                prob[i, u, 1 - i] = 0.5
                cost[i, u, 2] = 1.0
                cost[i, u, 1 - i] = 1.0
        prob[2, :, 2] = 1.0
        problem = SspProblem(num_states=3, num_actions=2, terminal=2, prob=prob, cost=cost)
        values = evaluate_policy(problem, uniform_random_policy(problem))
        certificate = termination_horizon(problem, values)
        assert certificate.m == 1
        assert certificate.inevitable_at(certificate.last_stage) == frozenset({0, 1, 2})

    def test_free_delay_hits_the_cap(self):
        problem = free_delay_instance()
        with pytest.raises(HorizonCapExceeded):
            termination_horizon(problem, np.zeros(2), max_stages=50)

    def test_free_delay_stops_at_the_fixed_point(self):
        problem = free_delay_instance()
        with pytest.raises(HorizonCapExceeded) as info:
            termination_horizon(problem, np.zeros(2))
        assert info.value.stage == 1

    def test_requires_uniform_improvability(self, stay_go):
        with pytest.raises(NotUniformlyImprovable):
            termination_horizon(stay_go, np.zeros(2))

    def test_pseudocode_criterion_is_looser(self, stay_go):
        values = np.array([2.0, 0.0])
        text_m = termination_horizon(stay_go, values, criterion="text").m
        pseudo_m = termination_horizon(stay_go, values, criterion="pseudocode").m
        assert text_m == 2
        assert pseudo_m == 4
        assert pseudo_m >= text_m

    def test_mixed_sign_costs(self):
        problem = delay_or_exit_instance()
        values = np.array([0.75, 1.0, 0.0])
        certificate = termination_horizon(problem, values)
        assert certificate.m == 3
        assert certificate.min_terminal_cost == 1.0

    def test_certificate_serializes(self, stay_go):
        certificate = termination_horizon(stay_go, np.array([2.0, 0.0]))
        payload = json.loads(json.dumps(certificate.to_json_dict()))
        assert sorted(payload) == ["joined_at", "m", "min_terminal_cost", "values"]
        assert payload["m"] == 2
        assert payload["joined_at"] == [None, 0]
        assert payload["values"] == [1.0, None]


def horizon_oracle_cases():
    """(name, problem, values) triples the horizon search is checked on."""
    grid = build_gridworld()
    uniform = evaluate_policy(grid, uniform_random_policy(grid))
    optimal, _ = value_iteration(grid, uniform, epsilon=1e-12, max_iters=100_000)
    cases = [
        ("grid-optimal", grid, optimal),
        ("grid-uniform", grid, uniform),
        ("stay-or-go", stay_or_go_instance(), np.array([2.0, 0.0])),
        ("delay-or-exit", delay_or_exit_instance(), np.array([0.75, 1.0, 0.0])),
        ("lazy-chain", *lazy_chain_instance()),
    ]
    rng = np.random.default_rng(97)
    for k in range(20):
        problem = random_proper_mixed_ssp(rng)
        values = evaluate_policy(problem, uniform_random_policy(problem))
        cases.append((f"random-{k}", problem, values))
    return cases


class TestHorizonOracle:
    """The nonzero-transition search matches the dense stage-by-stage recursion."""

    @pytest.mark.parametrize("criterion", ["text", "pseudocode"])
    def test_matches_dense_recursion(self, criterion):
        for name, problem, values in horizon_oracle_cases():
            certificate = termination_horizon(problem, values, criterion=criterion)
            m, stage_sets, stage_values = reference_horizon(problem, values, criterion)
            assert certificate.m == m, name
            assert certificate.last_stage == len(stage_sets) - 1, name
            for k, expected in enumerate(stage_sets):
                assert certificate.inevitable_at(k) == expected, (name, k)
            np.testing.assert_allclose(
                certificate.values, stage_values[-1], rtol=1e-12, atol=0.0, err_msg=name
            )

    @pytest.mark.parametrize("max_stages", [None, 0])
    def test_same_cap_stage_on_free_delay(self, max_stages):
        problem = free_delay_instance()
        with pytest.raises(HorizonCapExceeded) as ours:
            termination_horizon(problem, np.zeros(2), max_stages=max_stages)
        with pytest.raises(HorizonCapExceeded) as reference:
            reference_horizon(problem, np.zeros(2), max_stages=max_stages)
        assert ours.value.stage == reference.value.stage

    def test_stage_outside_the_search_rejected(self, stay_go):
        certificate = termination_horizon(stay_go, np.array([2.0, 0.0]))
        with pytest.raises(IndexError):
            certificate.inevitable_at(certificate.last_stage + 1)


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


class TestKernelFactsOracle:
    """Facts read off the nonzero-transition view match their dense definitions."""

    def test_method_and_ingredients(self):
        for name, problem in kernel_oracle_cases():
            expected = reference_kernel_facts(problem)
            facts = _kernel_facts(problem)
            assert resolve_method(problem) == expected["method"], name
            overridden = immediate_termination_states(problem)
            assert np.array_equal(overridden, expected["overridden"]), name
            counted = ~expected["overridden"]
            counted[problem.terminal] = False
            assert np.array_equal(facts.counted, counted), name
            for key in ("min_terminal_cost", "p_terminal", "min_step_cost", "p_nonterminal"):
                assert getattr(facts, key) == expected[key], (name, key)

    def test_same_errors(self):
        for name, problem in kernel_oracle_cases():
            expected = reference_kernel_facts(problem)
            no_exit = expected["min_terminal_cost"] is None
            if expected["nonpositive"]:
                with pytest.raises(NonpositiveCost) as info:
                    BoundsContext.for_problem(problem, "positive-cost")
                assert list(info.value.triples) == expected["nonpositive"], name
            elif no_exit:
                with pytest.raises(NoTerminalTransition):
                    BoundsContext.for_problem(problem, "positive-cost")
            else:
                BoundsContext.for_problem(problem, "positive-cost")
            if no_exit:
                with pytest.raises(NoTerminalTransition):
                    BoundsContext.for_problem(problem, "general")
            else:
                BoundsContext.for_problem(problem, "general")

    def test_all_policies_proper_verdict_and_witness(self):
        for name, problem in kernel_oracle_cases():
            assert all_policies_proper(problem) == reference_all_policies_proper(problem), name


class TestKernelOracle:
    """Backups and properness checks on the stored kernel match the dense formulas."""

    def test_action_values(self):
        rng = np.random.default_rng(202)
        for name, problem in kernel_oracle_cases():
            for values in (np.zeros(problem.num_states), random_values(rng, problem, -50, 50)):
                q = action_values(problem, values)
                expected = reference_action_values(problem, values)
                scale = np.abs(expected).max()
                assert np.allclose(q, expected, rtol=1e-12, atol=1e-12 * scale), name

    def test_is_proper(self):
        rng = np.random.default_rng(203)
        for name, problem in kernel_oracle_cases():
            shape = (5, problem.num_states)
            deterministic = [
                DeterministicPolicy(actions=actions)
                for actions in rng.integers(problem.num_actions, size=shape)
            ]
            for policy in deterministic + [uniform_random_policy(problem)]:
                report = is_proper(problem, policy)
                expected = reference_is_proper(problem, policy)
                assert report.proper == expected.proper, name
                assert report.unreachable_states == expected.unreachable_states, name
                assert report.m_stages == expected.m_stages, name
                if isinstance(policy, DeterministicPolicy) or not expected.proper:
                    assert report.rho_m == expected.rho_m, name
                else:
                    rho = pytest.approx(expected.rho_m, rel=1e-15, abs=0.0)
                    assert report.rho_m == rho, name


class TestLooseBoundFromHorizon:
    def test_stay_go_value(self, stay_go):
        certificate = termination_horizon(stay_go, np.array([2.0, 0.0]))
        steps = steps_bound_from_horizon(stay_go, certificate)
        assert steps[0] == 2.0

    def test_deterministic_chain(self):
        problem = chain_instance(length=3)
        values = np.array([3.0, 2.0, 1.0, 0.0])
        certificate = termination_horizon(problem, values)
        assert certificate.m == 3
        steps = steps_bound_from_horizon(problem, certificate)
        assert np.array_equal(steps[:3], [3.0, 3.0, 3.0])

    def test_dominates_positive_cost_bound_on_gridworld(self, grid, grid_optimal_values):
        certificate = termination_horizon(grid, grid_optimal_values)
        loose = steps_bound_from_horizon(grid, certificate)
        tight = steps_bound_positive_costs(grid, grid_optimal_values)
        nt = grid.nonterminal
        assert (loose[nt] >= tight[nt]).all()

    def test_underflow_gives_vacuous_bound_and_zero_residual_kills_it(self):
        # Lazy chain: each step advances with probability 2^-10, so
        # rho_m = 2^(-10 m) underflows; J(i) = 1024 (i + 1) is exact, so TJ = J.
        length = 110
        problem, values = lazy_chain_instance(length, 2.0**-10)
        certificate = termination_horizon(problem, values)
        assert certificate.m == length
        steps = steps_bound_from_horizon(problem, certificate)
        assert np.isinf(steps[:length]).all()
        report = compute_bounds_report(problem, values, method="general")
        assert report.residual == 0.0
        assert math.copysign(1.0, report.residual) == 1.0
        assert (report.per_state_bound == 0.0).all()
        assert not np.signbit(report.per_state_bound).any()
        assert report.global_bound == 0.0
        assert report.to_json_dict()["steps_bound"][0] == "inf"

    def test_no_terminal_transition_rejected(self):
        prob = np.zeros((2, 1, 2))
        prob[0, 0, 0] = 1.0
        prob[1, 0, 1] = 1.0
        problem = SspProblem(
            num_states=2, num_actions=1, terminal=1, prob=prob, cost=np.zeros_like(prob)
        )
        with pytest.raises(NoTerminalTransition):
            termination_horizon(problem, np.zeros(2))


class TestMonteCarloSteps:
    def test_one_step_termination(self):
        problem = chain_instance(length=1)
        policy = DeterministicPolicy(actions=np.array([0, 0]))
        result = monte_carlo_steps(problem, policy, 0, trials=1_000, seed=1, cap=10)
        assert result == (1.0, 0.0, 1_000, 0)

    def test_deterministic_for_fixed_seed(self, grid, grid_optimal_policy):
        first = monte_carlo_steps(grid, grid_optimal_policy, 7, trials=2_000, seed=42)
        second = monte_carlo_steps(grid, grid_optimal_policy, 7, trials=2_000, seed=42)
        assert first == second
        third = monte_carlo_steps(grid, grid_optimal_policy, 7, trials=2_000, seed=43)
        assert third != first

    def test_capped_rollouts_reported(self, stay_go):
        stay = DeterministicPolicy(actions=np.array([1, 0]))
        result = monte_carlo_steps(stay_go, stay, 0, trials=50, seed=7, cap=20)
        assert result.capped == 50
        assert math.isnan(result.mean)

    def test_start_at_terminal(self, stay_go):
        policy = DeterministicPolicy(actions=np.array([0, 0]))
        result = monte_carlo_steps(stay_go, policy, 1, trials=10, seed=0)
        assert result.mean == 0.0 and result.completed == 10

    def test_argument_validation(self, stay_go):
        policy = DeterministicPolicy(actions=np.array([0, 0]))
        with pytest.raises(ValueError):
            monte_carlo_steps(stay_go, policy, 0, trials=0, seed=1)
        with pytest.raises(IndexError):
            monte_carlo_steps(stay_go, policy, 5, trials=10, seed=1)


def soundness_sweep_instances():
    """(method, problem) pairs of seeded random instances, one per family and round.

    The method is the one ``auto`` picks for the family: positive step
    costs for the mixed-sign family, all-proper for the other two.
    """
    rng = np.random.default_rng(2012)
    for _ in range(40):
        yield "positive-cost", random_proper_mixed_ssp(rng, max_states=5, max_actions=3)
        yield "all-proper", random_all_proper_ssp(rng, max_states=5, max_actions=3)
        discounted = random_discounted(
            rng, num_states=int(rng.integers(1, 5)), num_actions=int(rng.integers(1, 4))
        )
        yield "all-proper", from_discounted(*discounted, beta=float(rng.uniform(0.5, 0.95)))


class TestSoundnessSweep:
    """Every method's bounds hold against brute force on seeded random instances."""

    def test_all_methods_against_brute_force(self):
        reports = policies_checked = 0
        for method, problem in soundness_sweep_instances():
            proper = proper_policy_values(problem)
            optimal = np.min([v for _, v in proper], axis=0)
            contexts = [
                BoundsContext.for_problem(problem, method),
                BoundsContext.for_problem(problem, "general"),
            ]
            values = evaluate_policy(problem, uniform_random_policy(problem))
            for _ in range(3):
                for context in contexts:
                    bounds = context.report(values).per_state_bound
                    assert (np.abs(values - optimal) <= bounds + 1e-8).all(), method
                    reports += 1
                # every policy no costlier than J terminates within the certificate's m
                m = termination_horizon(problem, values).m
                for policy, policy_values in proper:
                    if (policy_values <= values + 1e-9).all():
                        assert is_proper(problem, policy).m_stages <= m
                        policies_checked += 1
                values = bellman_backup(problem, values)
        assert reports == 720
        assert policies_checked > 1000


class TestMonotoneTightening:
    def test_gridworld_steps_bound_shrinks_along_value_iteration(
        self, grid, grid_uniform_values
    ):
        _, trace = value_iteration(grid, grid_uniform_values, epsilon=1e-9)
        mask = np.ones(grid.num_states, dtype=bool)
        mask[grid.terminal] = False
        mask &= ~immediate_termination_states(grid)
        previous = math.inf
        for record in trace.records:
            current = steps_bound_positive_costs(grid, record.values)[mask].max()
            assert current <= previous + 1e-12
            previous = current


class TestHorizonSoundness:
    def test_greedy_rollouts_terminate_within_m(self, grid, grid_optimal_values, grid_optimal_policy):
        certificate = termination_horizon(grid, grid_optimal_values)
        for start in grid.nonterminal:
            result = monte_carlo_steps(
                grid, grid_optimal_policy, int(start), trials=2_000, seed=500 + start,
                cap=certificate.m,
            )
            assert result.completed > 0


class TestBoundsReport:
    def test_gridworld_positive_cost_report(self, grid, grid_optimal_values):
        report = compute_bounds_report(grid, grid_optimal_values)
        assert report.method == "positive-cost"
        assert report.overrides == (3, 6)
        assert report.steps_bound[3] == 1.0
        assert report.steps_bound[6] == 1.0
        assert report.global_bound == pytest.approx(0.0, abs=1e-9)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["method"] == "positive-cost"

    def test_report_invariants_mid_run(self, grid, grid_uniform_values):
        report = compute_bounds_report(grid, grid_uniform_values)
        stats = bellman_residual(grid, grid_uniform_values)
        assert report.residual == stats.residual
        assert np.array_equal(
            report.per_state_bound, report.residual * report.steps_bound
        )
        mask = np.ones(grid.num_states, dtype=bool)
        mask[grid.terminal] = False
        mask &= ~immediate_termination_states(grid)
        assert report.global_bound == report.residual * report.steps_bound[mask].max()

    def test_resolves_all_proper_for_mixed_sign_discounted(self):
        rng = np.random.default_rng(71)
        transitions = rng.uniform(0.05, 1.0, size=(4, 2, 4))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, rng.normal(size=transitions.shape), 0.9)
        assert resolve_method(problem) == "all-proper"
        values = evaluate_policy(problem, uniform_random_policy(problem))
        report = compute_bounds_report(problem, values)
        assert report.method == "all-proper"
        assert report.steps_bound[problem.nonterminal] == pytest.approx(
            np.full(4, 10.0), abs=1e-8
        )

    def test_resolves_general_for_mixed_costs_with_improper_policies(self):
        problem = delay_or_exit_instance()
        assert resolve_method(problem) == "general"
        values = np.array([0.75, 1.0, 0.0])
        report = compute_bounds_report(problem, values)
        assert report.method == "general"
        assert report.steps_bound[0] == 3.0
        assert report.steps_bound[1] == 3.0

    def test_explicit_method_validation(self, grid):
        with pytest.raises(ValueError):
            resolve_method(grid, "banana")
