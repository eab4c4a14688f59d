import math

import numpy as np
import pytest

from helpers import (
    dense,
    monte_carlo_steps,
    random_all_proper_ssp,
    random_discounted,
    random_proper_mixed_ssp,
)
from sspbounds import (
    DeterministicPolicy,
    SspProblem,
    StochasticPolicy,
    action_values,
    from_discounted,
    load_problem,
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
    kernel = dense(problem)
    return SspProblem(
        num_states=problem.num_states,
        num_actions=problem.num_actions,
        terminal=problem.terminal,
        prob=kernel.prob if prob is None else prob,
        cost=kernel.cost if cost is None else cost,
    )


class TestValidate:
    def test_gridworld_passes(self, grid):
        validate(grid)

    def test_minimal_terminal_only_instance(self):
        validate(terminal_only_instance())

    def test_perturbed_probability_row(self, grid):
        prob = dense(grid).prob.copy()
        where = np.argwhere(prob == 0.8)[0]
        prob[tuple(where)] = 0.79
        with pytest.raises(RowSumViolation) as info:
            validate(rebuild(grid, prob=prob))
        assert info.value.state == where[0]
        assert abs(info.value.row_sum - 0.99) < 1e-9

    def test_terminal_not_absorbing(self, stay_go):
        # the second row stores no self-loop entry at all
        for row, loop in (([0.5, 0.5], 0.5), ([1.0, 0.0], 0.0)):
            prob = dense(stay_go).prob.copy()
            prob[1, 0] = row
            with pytest.raises(TerminalNotAbsorbing) as info:
                validate(rebuild(stay_go, prob=prob))
            assert (info.value.action, info.value.self_loop_prob) == (0, loop)

    def test_terminal_cost_nonzero(self, stay_go):
        cost = dense(stay_go).cost.copy()
        cost[1, 1, 1] = 0.25
        with pytest.raises(TerminalCostNonzero):
            validate(rebuild(stay_go, cost=cost))

    def test_nonfinite_cost(self, stay_go):
        cost = dense(stay_go).cost.copy()
        cost[0, 0, 1] = np.inf
        with pytest.raises(NonfiniteCost):
            validate(rebuild(stay_go, cost=cost))

    def test_probability_out_of_range(self, stay_go):
        prob = dense(stay_go).prob.copy()
        prob[0, 0] = [-0.5, 1.5]
        with pytest.raises(ProbabilityOutOfRange):
            validate(rebuild(stay_go, prob=prob))

    def test_names_the_first_offending_entry(self, stay_go):
        # a negative probability and a non-finite cost on a zero-probability
        # entry are stored, so validate finds them where the dense scan did
        prob = dense(stay_go).prob.copy()
        prob[0, 1] = [-0.5, 1.5]
        with pytest.raises(ProbabilityOutOfRange) as info:
            validate(rebuild(stay_go, prob=prob))
        assert (info.value.state, info.value.action, info.value.target) == (0, 1, 0)
        cost = dense(stay_go).cost.copy()
        cost[0, 0, 0] = np.nan  # prob[0, 0, 0] is 0
        with pytest.raises(NonfiniteCost) as info:
            validate(rebuild(stay_go, cost=cost))
        assert (info.value.state, info.value.action, info.value.target) == (0, 0, 0)
        # a finite cost without probability changes nothing
        cost[0, 0, 0] = 5.0
        assert rebuild(stay_go, cost=cost).transitions.row.size == 4

    def test_accepts_exactly_the_invariant_satisfying_instances(self):
        # Random instances, randomly mutated; validate must agree with a
        # direct statement of the three invariants.
        rng = np.random.default_rng(1234)
        for _ in range(200):
            problem = random_all_proper_ssp(rng)
            prob = dense(problem).prob.copy()
            cost = dense(problem).cost.copy()
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


def expected_costs(problem):
    """One-step expected cost of every (state, action): the backup of J = 0."""
    return action_values(problem, np.zeros(problem.num_states))


class TestExpectedCost:
    def test_terminal_state_is_free(self, grid):
        assert (expected_costs(grid)[grid.terminal] == 0.0).all()

    def test_stay_action_costs_one(self, stay_go):
        assert expected_costs(stay_go)[0, 1] == 1.0
        assert expected_costs(stay_go)[0, 0] == 2.0

    def test_gridworld_movement_costs(self, grid):
        assert expected_costs(grid)[0] == pytest.approx(np.full(4, 0.04), abs=1e-12)

    def test_terminal_free_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            problem = random_proper_mixed_ssp(rng)
            assert (expected_costs(problem)[problem.terminal] == 0.0).all()


class TestFromDiscounted:
    def test_one_state_reduction(self):
        problem = from_discounted([[[1.0]]], [[[0.5]]], beta=0.9)
        assert problem.num_states == 2
        assert problem.terminal == 1
        assert dense(problem).prob[0, 0, 1] == pytest.approx(0.1, abs=1e-12)
        assert dense(problem).prob[0, 0, 0] == pytest.approx(0.9, abs=1e-12)
        assert dense(problem).cost[0, 0, 1] == 0.0
        validate(problem)

    def test_half_discount_halves_probabilities(self):
        rng = np.random.default_rng(3)
        transitions = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        transitions /= transitions.sum(axis=2, keepdims=True)
        costs = rng.normal(size=transitions.shape)
        problem = from_discounted(transitions, costs, beta=0.5)
        assert np.allclose(dense(problem).prob[:2, :, :2], 0.5 * transitions, atol=1e-15)
        assert np.abs(dense(problem).prob.sum(axis=2) - 1.0).max() <= 1e-12

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
            assert np.abs(dense(problem).prob.sum(axis=2) - 1.0).max() <= 1e-12

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


def reward_records(problem) -> dict:
    """The reward-form file's cost fields, keyed by (from, action, to)."""
    records = problem_to_json_dict(problem, convention="reward")["transitions"]
    return {(r["from"], r["action"], r["to"]): r["cost"] for r in records}


class TestNegateCosts:
    """Reward-form files: the writer negates the costs and the loader negates them back."""

    def test_terminal_self_loop_stays_zero(self, stay_go):
        loops = [g for (i, _, _), g in reward_records(stay_go).items() if i == stay_go.terminal]
        assert loops == [0.0, 0.0]
        assert all(math.copysign(1.0, g) == 1.0 for g in loops)
        loaded, _ = problem_from_json_dict(problem_to_json_dict(stay_go, convention="reward"))
        assert dense(loaded).cost[1, 0, 1] == 0.0  # and it validated

    def test_gridworld_sign_flip(self, grid):
        rewards = reward_records(grid)
        assert rewards[(0, 2, 1)] == pytest.approx(-0.04)
        assert rewards[(3, 0, grid.terminal)] == 1.0

    def test_double_negation_is_bit_identical(self, grid):
        loaded, convention = problem_from_json_dict(problem_to_json_dict(grid, convention="reward"))
        assert convention == "reward"
        assert dense(loaded).cost.tobytes() == dense(grid).cost.tobytes()
        assert dense(loaded).prob.tobytes() == dense(grid).prob.tobytes()


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
        assert np.array_equal(dense(loaded).prob, dense(grid).prob)
        assert np.array_equal(dense(loaded).cost, dense(grid).cost)

    def test_round_trip_reward_convention(self, grid, tmp_path):
        path = tmp_path / "grid_reward.json"
        save_problem(grid, path, convention="reward")
        text = path.read_text()
        assert '"convention": "reward"' in text
        loaded, convention = load_problem(path)
        assert convention == "reward"
        # loader negates reward-form costs back into cost form
        assert np.array_equal(dense(loaded).cost, dense(grid).cost)

    def test_round_trip_across_writer_blocks(self):
        rng = np.random.default_rng(8)
        problem = from_discounted(*random_discounted(rng, num_states=40, num_actions=11), 0.9)
        data = problem_to_json_dict(problem, convention="reward")
        triples = [(r["from"], r["action"], r["to"]) for r in data["transitions"]]
        assert len(triples) == 40 * 11 * 41 + 11  # more than one block of 16384
        assert triples == sorted(triples)
        loaded, _ = problem_from_json_dict(data)
        assert np.array_equal(dense(loaded).prob, dense(problem).prob)
        assert np.array_equal(dense(loaded).cost, dense(problem).cost)

    def test_duplicate_record_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"].append(dict(data["transitions"][0]))
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    @pytest.mark.parametrize("convention", ["cost", "reward"])
    def test_record_order_does_not_matter(self, grid, convention):
        rng = np.random.default_rng(4)
        problems = [grid, random_proper_mixed_ssp(rng), from_discounted(*random_discounted(rng), 0.8)]
        for problem in problems:
            data = problem_to_json_dict(problem, convention)
            in_order, _ = problem_from_json_dict(data)
            rng.shuffle(data["transitions"])
            shuffled, _ = problem_from_json_dict(data)
            for field in ("row", "to", "prob", "cost"):
                expected = getattr(problem.transitions, field)
                assert np.array_equal(getattr(in_order.transitions, field), expected)
                assert np.array_equal(getattr(shuffled.transitions, field), expected)

    def test_record_error_messages(self, stay_go):
        records = problem_to_json_dict(stay_go)["transitions"]
        go, stay = records[0], records[1]
        far = dict(go, to=9)
        broken = dict(go, prob="often")
        flag = dict(go, cost=True)
        cases = [
            # a record of the wrong types counts like any malformed record
            ([go, flag, dict(stay), dict(go)], f"malformed transition record {flag!r}"),
            ([go, stay, dict(stay), flag], "duplicate transition record for (from=0, action=1, to=0)"),
            ([go, stay, dict(go)], "duplicate transition record for (from=0, action=0, to=1)"),
            # the first offending record in file order is reported
            ([go, stay, dict(stay), dict(go)], "duplicate transition record for (from=0, action=1, to=0)"),
            ([go, dict(go), far], "duplicate transition record for (from=0, action=0, to=1)"),
            ([go, far, dict(go)], f"transition record {far!r} is out of range"),
            ([go, dict(go), broken], "duplicate transition record for (from=0, action=0, to=1)"),
            ([go, broken, dict(go)], f"malformed transition record {broken!r}"),
        ]
        for transitions, message in cases:
            data = problem_to_json_dict(stay_go)
            data["transitions"] = transitions
            with pytest.raises(ProblemFormatError) as info:
                problem_from_json_dict(data)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "field, value",
        [("from", 0.7), ("to", True), ("action", "0"), ("from", None), ("prob", "1.0"),
         ("cost", True), ("prob", None), ("cost", [1.0])],
    )
    def test_record_field_types_rejected(self, stay_go, field, value):
        data = problem_to_json_dict(stay_go)
        data["transitions"][0][field] = value
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(data)
        assert str(info.value).startswith("malformed transition record")

    @pytest.mark.parametrize(
        "field, value", [("num_states", 2.9), ("num_actions", True), ("terminal", "1")]
    )
    def test_size_field_types_rejected(self, stay_go, field, value):
        data = problem_to_json_dict(stay_go)
        data[field] = value
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(data)
        assert str(info.value).startswith("malformed size field")

    def test_integral_floats_and_integer_numbers_accepted(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["num_states"], data["terminal"] = 2.0, 1.0
        data["transitions"][0].update({"from": 0.0, "to": 1.0, "prob": 1, "cost": 2})
        problem, _ = problem_from_json_dict(data)
        for field in ("row", "to", "prob", "cost"):
            assert np.array_equal(
                getattr(problem.transitions, field), getattr(stay_go.transitions, field)
            )

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
        assert dense(problem).prob[0, 0, 0] == 0.0
        assert dense(problem).prob[0, 0, 1] == 1.0
