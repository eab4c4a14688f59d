
import numpy as np
import pytest

from helpers import random_all_proper_ssp, random_discounted, random_proper_mixed_ssp
from sspbounds import (
    DeterministicPolicy,
    SspProblem,
    StochasticPolicy,
    expected_cost,
    from_discounted,
    load_problem,
    monte_carlo_steps,
    negate_costs,
    policy_cost_vector,
    policy_transition_matrix,
    save_problem,
    uniform_random_policy,
    validate,
)
from sspbounds.core import problem_from_json_dict, problem_to_json_dict
from sspbounds.errors import (
    NonfiniteCost,
    ProbabilityOutOfRange,
    ProblemFormatError,
    RowSumViolation,
    TerminalCostNonzero,
    TerminalNotAbsorbing,
)


def terminal_only_instance():
    prob = np.ones((1, 1, 1))
    cost = np.zeros((1, 1, 1))
    return SspProblem(num_states=1, num_actions=1, terminal=0, prob=prob, cost=cost)


def rebuild(problem, prob=None, cost=None):
    return SspProblem(
        num_states=problem.num_states,
        num_actions=problem.num_actions,
        terminal=problem.terminal,
        prob=problem.prob if prob is None else prob,
        cost=problem.cost if cost is None else cost,
    )


class TestValidate:
    def test_gridworld_passes(self, grid):
        validate(grid)

    def test_minimal_terminal_only_instance(self):
        validate(terminal_only_instance())

    def test_perturbed_probability_row(self, grid):
        prob = grid.prob.copy()
        where = np.argwhere(prob == 0.8)[0]
        prob[tuple(where)] = 0.79
        with pytest.raises(RowSumViolation) as info:
            validate(rebuild(grid, prob=prob))
        assert info.value.state == where[0]
        assert abs(info.value.row_sum - 0.99) < 1e-9

    def test_terminal_not_absorbing(self, stay_go):
        prob = stay_go.prob.copy()
        prob[1, 0] = [0.5, 0.5]
        with pytest.raises(TerminalNotAbsorbing):
            validate(rebuild(stay_go, prob=prob))

    def test_terminal_cost_nonzero(self, stay_go):
        cost = stay_go.cost.copy()
        cost[1, 1, 1] = 0.25
        with pytest.raises(TerminalCostNonzero):
            validate(rebuild(stay_go, cost=cost))

    def test_nonfinite_cost(self, stay_go):
        cost = stay_go.cost.copy()
        cost[0, 0, 1] = np.inf
        with pytest.raises(NonfiniteCost):
            validate(rebuild(stay_go, cost=cost))

    def test_probability_out_of_range(self, stay_go):
        prob = stay_go.prob.copy()
        prob[0, 0] = [-0.5, 1.5]
        with pytest.raises(ProbabilityOutOfRange):
            validate(rebuild(stay_go, prob=prob))

    def test_accepts_exactly_the_invariant_satisfying_instances(self):
        # Random instances, randomly mutated; validate must agree with a
        # direct statement of the three invariants.
        rng = np.random.default_rng(1234)
        for _ in range(200):
            problem = random_all_proper_ssp(rng)
            prob = problem.prob.copy()
            cost = problem.cost.copy()
            mutation = rng.integers(0, 5)
            if mutation == 1:
                i = int(rng.integers(0, problem.num_states))
                u = int(rng.integers(0, problem.num_actions))
                j = int(rng.integers(0, problem.num_states))
                prob[i, u, j] += rng.uniform(0.01, 0.5)
            elif mutation == 2:
                prob[problem.terminal, 0, problem.terminal] = 0.9
            elif mutation == 3:
                cost[problem.terminal, 0, problem.terminal] = 1.0
            elif mutation == 4:
                cost[0, 0, 0] = np.nan
            mutated = rebuild(problem, prob=prob, cost=cost)

            row_ok = np.abs(prob.sum(axis=2) - 1.0).max() <= 1e-12
            range_ok = (prob >= 0).all() and (prob <= 1 + 1e-12).all()
            t = problem.terminal
            absorbing_ok = np.abs(prob[t, :, t] - 1.0).max() <= 1e-12
            zero_cost_ok = (cost[t, :, t] == 0.0).all()
            finite_ok = np.isfinite(cost).all()
            should_pass = row_ok and range_ok and absorbing_ok and zero_cost_ok and finite_ok

            if should_pass:
                validate(mutated)
            else:
                with pytest.raises(Exception):
                    validate(mutated)


class TestExpectedCost:
    def test_terminal_state_is_free(self, grid):
        for u in range(grid.num_actions):
            assert expected_cost(grid, grid.terminal, u) == 0.0

    def test_stay_action_costs_one(self, stay_go):
        assert expected_cost(stay_go, 0, 1) == 1.0
        assert expected_cost(stay_go, 0, 0) == 2.0

    def test_gridworld_movement_costs(self, grid):
        for action in range(grid.num_actions):
            assert expected_cost(grid, 0, action) == pytest.approx(0.04, abs=1e-12)

    def test_out_of_range(self, stay_go):
        with pytest.raises(IndexError):
            expected_cost(stay_go, 5, 0)
        with pytest.raises(IndexError):
            expected_cost(stay_go, 0, 7)

    def test_terminal_free_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            problem = random_proper_mixed_ssp(rng)
            for u in range(problem.num_actions):
                assert expected_cost(problem, problem.terminal, u) == 0.0


class TestFromDiscounted:
    def test_one_state_reduction(self):
        problem = from_discounted([[[1.0]]], [[[0.5]]], beta=0.9)
        assert problem.num_states == 2
        assert problem.terminal == 1
        assert problem.prob[0, 0, 1] == pytest.approx(0.1, abs=1e-12)
        assert problem.prob[0, 0, 0] == pytest.approx(0.9, abs=1e-12)
        assert problem.cost[0, 0, 1] == 0.0
        validate(problem)

    def test_half_discount_halves_probabilities(self):
        rng = np.random.default_rng(3)
        transitions = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        transitions /= transitions.sum(axis=2, keepdims=True)
        costs = rng.normal(size=transitions.shape)
        problem = from_discounted(transitions, costs, beta=0.5)
        assert np.allclose(problem.prob[:2, :, :2], 0.5 * transitions, atol=1e-15)
        assert np.abs(problem.prob.sum(axis=2) - 1.0).max() <= 1e-12

    def test_output_always_validates(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = int(rng.integers(1, 4))
            transitions = rng.uniform(0.05, 1.0, size=(n, a, n))
            transitions /= transitions.sum(axis=2, keepdims=True)
            costs = rng.normal(size=transitions.shape)
            beta = float(rng.uniform(0.05, 0.95))
            problem = from_discounted(transitions, costs, beta)
            validate(problem)
            assert np.abs(problem.prob.sum(axis=2) - 1.0).max() <= 1e-12

    def test_expected_steps_match_discount_horizon(self):
        rng = np.random.default_rng(21)
        transitions = rng.uniform(0.1, 1.0, size=(3, 2, 3))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, np.zeros_like(transitions), beta=0.9)
        result = monte_carlo_steps(
            problem, uniform_random_policy(problem), start=0, trials=20_000, seed=5, cap=2_000
        )
        assert result.capped == 0
        assert abs(result.mean - 10.0) <= 3 * result.ci95

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            from_discounted([[[1.0]]], [[[0.0]]], beta=0.0)
        with pytest.raises(ValueError):
            from_discounted([[[1.0]]], [[[0.0]]], beta=1.0)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(RowSumViolation):
            from_discounted([[[0.7]]], [[[0.0]]], beta=0.9)


class TestNegateCosts:
    def test_terminal_self_loop_stays_zero(self, stay_go):
        negated = negate_costs(stay_go)
        assert negated.cost[1, 0, 1] == 0.0
        validate(negated)

    def test_gridworld_sign_flip(self, grid):
        negated = negate_costs(grid)
        assert negated.cost[0, 2, 1] == pytest.approx(-0.04)
        assert negated.cost[3, 0, grid.terminal] == 1.0

    def test_double_negation_is_bit_identical(self, grid):
        twice = negate_costs(negate_costs(grid))
        assert twice.cost.tobytes() == grid.cost.tobytes()
        assert twice.prob.tobytes() == grid.prob.tobytes()


class TestPolicies:
    def test_deterministic_policy_validation(self):
        with pytest.raises(ValueError):
            DeterministicPolicy(actions=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            DeterministicPolicy(actions=np.array([-1, 0]))

    def test_stochastic_policy_validation(self):
        with pytest.raises(ValueError):
            StochasticPolicy(weights=np.array([[0.7, 0.2]]))
        with pytest.raises(ValueError):
            StochasticPolicy(weights=np.array([[1.2, -0.2]]))

    def test_policy_kernels_on_stay_go(self, stay_go):
        go = DeterministicPolicy(actions=np.array([0, 0]))
        assert np.array_equal(policy_transition_matrix(stay_go, go), [[0, 1], [0, 1]])
        assert np.array_equal(policy_cost_vector(stay_go, go), [2.0, 0.0])

        mixed = uniform_random_policy(stay_go)
        assert np.allclose(
            policy_transition_matrix(stay_go, mixed), [[0.5, 0.5], [0, 1]]
        )
        assert np.allclose(policy_cost_vector(stay_go, mixed), [1.5, 0.0])


class TestJsonFiles:
    def test_round_trip_cost_convention(self, grid, tmp_path):
        path = tmp_path / "grid.json"
        save_problem(grid, path, convention="cost")
        loaded, convention = load_problem(path)
        assert convention == "cost"
        assert np.array_equal(loaded.prob, grid.prob)
        assert np.array_equal(loaded.cost, grid.cost)

    def test_round_trip_reward_convention(self, grid, tmp_path):
        path = tmp_path / "grid_reward.json"
        save_problem(grid, path, convention="reward")
        text = path.read_text()
        assert '"convention": "reward"' in text
        loaded, convention = load_problem(path)
        assert convention == "reward"
        # loader negates reward-form costs back into cost form
        assert np.array_equal(loaded.cost, grid.cost)

    def test_round_trip_across_writer_blocks(self):
        rng = np.random.default_rng(8)
        problem = from_discounted(*random_discounted(rng, num_states=40, num_actions=11), 0.9)
        data = problem_to_json_dict(problem, convention="reward")
        triples = [(r["from"], r["action"], r["to"]) for r in data["transitions"]]
        assert len(triples) == 40 * 11 * 41 + 11  # more than one block of 16384
        assert triples == sorted(triples)
        loaded, _ = problem_from_json_dict(data)
        assert np.array_equal(loaded.prob, problem.prob)
        assert np.array_equal(loaded.cost, problem.cost)

    def test_duplicate_record_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"].append(dict(data["transitions"][0]))
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_missing_field_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        del data["terminal"]
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_unknown_convention_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["convention"] = "utility"
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_out_of_range_record_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"][0]["to"] = 9
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_nan_probability_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"][1]["prob"] = float("nan")  # the stay self-loop
        with pytest.raises(ProbabilityOutOfRange) as info:
            problem_from_json_dict(data)
        assert (info.value.state, info.value.action, info.value.target) == (0, 1, 0)

    def test_huge_integer_probability_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"][1]["prob"] = 10**400
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    @pytest.mark.parametrize("transitions", [5, None, "records"])
    def test_non_list_transitions_rejected(self, stay_go, transitions):
        data = problem_to_json_dict(stay_go)
        data["transitions"] = transitions
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_invalid_instance_rejected_by_loader(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"] = [
            r for r in data["transitions"] if not (r["from"] == 1)
        ]
        with pytest.raises(Exception):
            problem_from_json_dict(data)

    def test_omitted_triples_have_probability_zero(self):
        data = {
            "num_states": 2,
            "num_actions": 1,
            "terminal": 1,
            "convention": "cost",
            "transitions": [
                {"from": 0, "action": 0, "to": 1, "prob": 1.0, "cost": 2.0},
                {"from": 1, "action": 0, "to": 1, "prob": 1.0, "cost": 0.0},
            ],
        }
        problem, _ = problem_from_json_dict(data)
        assert problem.prob[0, 0, 0] == 0.0
        assert problem.prob[0, 0, 1] == 1.0
