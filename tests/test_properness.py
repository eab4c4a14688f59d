import json

import numpy as np

from helpers import dense, monte_carlo_steps, random_proper_mixed_ssp
from sspbounds import (
    DeterministicPolicy,
    all_policies_proper,
    evaluate_policy,
    from_discounted,
    greedy_policy,
    is_proper,
    is_uniformly_improvable,
    uniform_random_policy,
)


class TestUniformRandomPolicy:
    def test_two_action_weights(self, stay_go):
        policy = uniform_random_policy(stay_go)
        assert np.array_equal(policy.weights, np.full((2, 2), 0.5))

    def test_gridworld_weights(self, grid):
        policy = uniform_random_policy(grid)
        assert np.array_equal(policy.weights, np.full((12, 4), 0.25))

    def test_proper_on_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            problem = random_proper_mixed_ssp(rng)
            assert is_proper(problem, uniform_random_policy(problem)).proper


class TestIsProper:
    def test_stay_policy_improper(self, stay_go):
        report = is_proper(stay_go, DeterministicPolicy(actions=np.array([1, 0])))
        assert not report.proper
        assert report.unreachable_states == (0,)
        assert report.m_stages is None and report.rho_m is None

    def test_go_policy_proper(self, stay_go):
        report = is_proper(stay_go, DeterministicPolicy(actions=np.array([0, 0])))
        assert report.proper
        assert report.m_stages == 1
        assert report.rho_m == 1.0

    def test_gridworld_uniform_random_proper(self, grid):
        report = is_proper(grid, uniform_random_policy(grid))
        assert report.proper
        assert report.unreachable_states == ()
        assert report.rho_m > 0

    def test_report_serializes(self, stay_go):
        report = is_proper(stay_go, DeterministicPolicy(actions=np.array([0, 0])))
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["proper"] is True
        assert payload["m_stages"] == 1

    def test_monte_carlo_agrees_with_proper_verdicts(self, grid, stay_go):
        go = DeterministicPolicy(actions=np.array([0, 0]))
        report = is_proper(stay_go, go)
        rollout = monte_carlo_steps(
            stay_go, go, start=0, trials=10_000, seed=2, cap=100 * report.m_stages
        )
        assert rollout.capped == 0
        assert rollout.mean == 1.0 and rollout.ci95 == 0.0

        uniform = uniform_random_policy(grid)
        report = is_proper(grid, uniform)
        rollout = monte_carlo_steps(
            grid, uniform, start=7, trials=10_000, seed=3, cap=100 * report.m_stages
        )
        assert rollout.capped <= 1

    def test_monte_carlo_agrees_with_improper_verdicts(self, stay_go):
        stay = DeterministicPolicy(actions=np.array([1, 0]))
        assert not is_proper(stay_go, stay).proper
        rollout = monte_carlo_steps(stay_go, stay, start=0, trials=100, seed=4, cap=500)
        assert rollout.capped == 100


class TestAllPoliciesProper:
    def test_stay_go_has_improper_policy(self, stay_go):
        report = all_policies_proper(stay_go)
        assert not report.all_proper
        assert report.witness_states == (0,)
        assert report.witness_actions == {0: 1}

    def test_discounted_reduction_all_proper(self):
        rng = np.random.default_rng(6)
        transitions = rng.uniform(0.1, 1.0, size=(4, 3, 4))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, rng.normal(size=transitions.shape), 0.9)
        report = all_policies_proper(problem)
        assert report.all_proper
        assert report.witness_states == ()

    def test_gridworld_has_improper_policies(self, grid):
        report = all_policies_proper(grid)
        assert not report.all_proper
        # exit cells always reach the terminal, so they cannot witness
        assert 3 not in report.witness_states
        assert 6 not in report.witness_states
        assert set(report.witness_states) == {0, 1, 2, 4, 5, 7, 8, 9, 10}
        # the witness actions really do avoid the terminal forever
        for state, action in report.witness_actions.items():
            mass_inside = dense(grid).prob[state, action, list(report.witness_states)].sum()
            assert mass_inside == 1.0


class TestGreedyFromImprovableValues:
    def test_greedy_policies_are_proper_and_no_worse(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            problem = random_proper_mixed_ssp(rng)
            values = evaluate_policy(problem, uniform_random_policy(problem))
            assert is_uniformly_improvable(problem, values)
            greedy = greedy_policy(problem, values)
            assert is_proper(problem, greedy).proper
            greedy_values = evaluate_policy(problem, greedy)
            assert (greedy_values <= values + 1e-9).all()
