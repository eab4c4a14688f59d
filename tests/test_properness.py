import json
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    delay_or_exit_instance,
    dense,
    lazy_chain_instance,
    monte_carlo_steps,
    random_proper_mixed_ssp,
)
from sspbounds import (
    DeterministicPolicy,
    all_policies_proper,
    evaluate_policy,
    from_discounted,
    greedy_policy,
    is_proper,
    is_uniformly_improvable,
    save_problem,
    uniform_random_policy,
)
from sspbounds.bounds import BoundsContext
from sspbounds.cli import main
from sspbounds.core import Transitions


@pytest.fixture
def entered(monkeypatch):
    """Sizes of the batches of entries that ``Transitions.entering`` hands out."""
    sizes = []
    original = Transitions.entering

    def counted(view, states):
        entries = original(view, states)
        sizes.append(entries.size)
        return entries

    monkeypatch.setattr(Transitions, "entering", counted)
    return sizes


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


class TestDeepChain:
    """The join stages take each stored entry once, however many stages deep."""

    def test_lazy_chain_kernel(self):
        # the chain as the dense arrays that built it before
        length, advance = 110, 2.0**-10
        n = length + 1
        prob = np.zeros((n, 1, n))
        for i in range(length):
            prob[i, 0, i] = 1.0 - advance
            prob[i, 0, i - 1 if i else length] = advance
        prob[length, 0, length] = 1.0
        cost = np.where(prob > 0.0, 1.0, 0.0)
        cost[length] = 0.0
        expected = Transitions.from_dense(n, 1, prob, cost)
        problem, _ = lazy_chain_instance()
        assert (problem.num_states, problem.num_actions, problem.terminal) == (n, 1, length)
        for name in ("row", "to", "prob", "cost"):
            assert np.array_equal(getattr(problem.transitions, name), getattr(expected, name))

    def test_one_pass_over_the_entries(self, entered, tmp_path, capsys):
        problem, _ = lazy_chain_instance(10_000)
        assert all_policies_proper(problem).all_proper
        assert sum(entered) == problem.transitions.row.size
        path = tmp_path / "chain.json"
        save_problem(problem, path)
        assert main(["check", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_policies_proper"]["all_policies_proper"]


class TestOneJoinPass:
    """The join stages are searched once per instance, however many readers they have."""

    def test_check_with_values(self, entered, capsys):
        data = Path(__file__).parent / "data"
        argv = ["check", "--input", str(data / "gridworld.json")]
        assert main(argv) == 0
        capsys.readouterr()
        alone = sum(entered)
        entered.clear()
        assert main([*argv, "--values", str(data / "gridworld_uniform_values.json")]) == 0
        assert "horizon_certificate" in json.loads(capsys.readouterr().out)
        # the horizon search reads the stages that all_policies_proper searched
        assert sum(entered) == alone

    def test_general_context(self, entered):
        all_policies_proper(delay_or_exit_instance())
        once = sum(entered)
        entered.clear()
        context = BoundsContext.for_problem(delay_or_exit_instance())
        assert context.method == "general"
        assert context.steps(np.array([0.75, 1.0, 0.0]))[0] < np.inf
        assert sum(entered) == once > 0


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
