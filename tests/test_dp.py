import numpy as np
import pytest

from helpers import (
    brute_force_optimal,
    dense,
    random_all_proper_ssp,
    random_proper_mixed_ssp,
    random_values,
)
from sspbounds import (
    DeterministicPolicy,
    StochasticPolicy,
    action_values,
    bellman_backup,
    bellman_residual,
    evaluate_policy,
    from_discounted,
    greedy_policy,
    is_uniformly_improvable,
    policy_backup,
    policy_iteration,
    uniform_random_policy,
    value_iteration,
)
from sspbounds.dp import trace_csv
from sspbounds.errors import ImproperPolicy, MaxItersExceeded
from sspbounds.gridworld import EXPECTED_TABLE2


def go_policy():
    return DeterministicPolicy(actions=np.array([0, 0]))


def stay_policy():
    return DeterministicPolicy(actions=np.array([1, 0]))


class TestBackups:
    def test_stay_go_backup(self, stay_go):
        backed = bellman_backup(stay_go, np.array([0.5, 0.0]))
        assert backed[0] == 1.5
        assert backed[1] == 0.0

    def test_fixed_point(self, stay_go):
        optimal = np.array([2.0, 0.0])
        assert np.array_equal(bellman_backup(stay_go, optimal), optimal)

    def test_terminal_only(self):
        from test_core import terminal_only_instance

        problem = terminal_only_instance()
        assert np.array_equal(bellman_backup(problem, np.zeros(1)), np.zeros(1))

    def test_rejects_unpinned_terminal(self, stay_go):
        with pytest.raises(ValueError):
            bellman_backup(stay_go, np.array([0.0, 1.0]))

    def test_policy_backup_stay(self, stay_go):
        backed = policy_backup(stay_go, stay_policy(), np.zeros(2))
        assert backed[0] == 1.0
        assert backed[1] == 0.0

    def test_stochastic_uniform_backup(self, stay_go):
        backed = policy_backup(stay_go, uniform_random_policy(stay_go), np.zeros(2))
        assert backed[0] == 1.5
        assert backed[1] == 0.0

    def test_point_mass_equals_deterministic(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            problem = random_proper_mixed_ssp(rng)
            actions = rng.integers(0, problem.num_actions, size=problem.num_states)
            weights = np.zeros((problem.num_states, problem.num_actions))
            weights[np.arange(problem.num_states), actions] = 1.0
            values = random_values(rng, problem)
            det = policy_backup(problem, DeterministicPolicy(actions=actions), values)
            sto = policy_backup(problem, StochasticPolicy(weights=weights), values)
            assert np.allclose(det, sto, atol=1e-13)

    def test_greedy_backup_consistency_is_exact(self, grid):
        rng = np.random.default_rng(23)
        for _ in range(25):
            problem = random_proper_mixed_ssp(rng)
            values = random_values(rng, problem)
            greedy = greedy_policy(problem, values)
            assert np.array_equal(
                policy_backup(problem, greedy, values),
                bellman_backup(problem, values),
            )
        values = random_values(rng, grid)
        greedy = greedy_policy(grid, values)
        assert np.array_equal(
            policy_backup(grid, greedy, values), bellman_backup(grid, values)
        )


class TestGreedyPolicy:
    def test_prefers_cheaper_action(self, stay_go):
        assert greedy_policy(stay_go, np.array([0.5, 0.0])).actions[0] == 1

    def test_tie_breaks_to_lowest_index(self, stay_go):
        # At J = 1 the two action backups are both exactly 2.
        q = action_values(stay_go, np.array([1.0, 0.0]))
        assert q[0, 0] == q[0, 1] == 2.0
        assert greedy_policy(stay_go, np.array([1.0, 0.0])).actions[0] == 0

    def test_gridworld_optimal_actions(self, grid, grid_optimal_values, grid_optimal_policy):
        # independent argmin per state against the converged values
        prob, cost = dense(grid)
        q = np.zeros((grid.num_states, grid.num_actions))
        for i in range(grid.num_states):
            for u in range(grid.num_actions):
                q[i, u] = sum(
                    prob[i, u, j] * (cost[i, u, j] + grid_optimal_values[j])
                    for j in range(grid.num_states)
                )
        brute = q.argmin(axis=1)
        assert np.array_equal(grid_optimal_policy.actions, brute)
        assert grid_optimal_policy.actions[7] == 0  # bottom-left corner moves up


class TestBellmanResidual:
    def test_zero_at_fixed_point(self, stay_go):
        stats = bellman_residual(stay_go, np.array([2.0, 0.0]))
        assert stats.residual == 0.0
        assert stats.min_change == stats.max_change == 0.0

    def test_gridworld_uniform_random_residual(self, grid, grid_uniform_values):
        stats = bellman_residual(grid, grid_uniform_values)
        assert stats.residual == pytest.approx(0.9567, abs=1e-3)

    def test_gridworld_second_policy_iterate_residual(self, grid):
        # published row 2 carries the residual of row 1's value function
        _, _, trace = policy_iteration(grid, uniform_random_policy(grid))
        stats = bellman_residual(grid, trace.records[1].values)
        assert stats.residual == pytest.approx(1.0070, abs=1e-3)
        assert trace.records[2].residual == stats.residual

    def test_residual_matches_extremes(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            problem = random_proper_mixed_ssp(rng)
            values = random_values(rng, problem)
            stats = bellman_residual(problem, values)
            assert stats.residual == max(-stats.min_change, stats.max_change)
            assert stats.min_change <= stats.max_change


class TestValueIteration:
    def test_stay_go_converges_monotonically(self, stay_go):
        values, trace = value_iteration(stay_go, np.zeros(2), epsilon=1e-9)
        assert values[0] == 2.0
        iterates = [r.values[0] for r in trace.records]
        assert iterates == [0.0, 1.0, 2.0]
        assert [r.residual for r in trace.records] == [None, 1.0, 1.0]

    def test_loose_epsilon_returns_input_unchanged(self, stay_go):
        start = np.zeros(2)
        values, trace = value_iteration(stay_go, start, epsilon=10.0)
        assert np.array_equal(values, start)
        assert len(trace) == 1

    def test_gridworld_residual_sequence(self, grid, grid_uniform_values):
        published = [
            0.9567, 0.8470, 0.7379, 0.6585, 0.6204, 0.4094,
            0.2568, 0.1389, 0.0726, 0.0613, 0.0411, 0.0259,
        ]
        _, trace = value_iteration(grid, grid_uniform_values, epsilon=1e-9)
        got = [r.residual for r in trace.records[1:13]]
        assert got == pytest.approx(published, abs=1e-3)

    def test_max_iters_exceeded_carries_partial_trace(self):
        rng = np.random.default_rng(5)
        transitions = rng.uniform(0.1, 1.0, size=(3, 2, 3))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, rng.normal(size=transitions.shape), 0.9)
        with pytest.raises(MaxItersExceeded) as info:
            value_iteration(problem, np.zeros(4), epsilon=1e-30, max_iters=5)
        assert len(info.value.trace) == 6
        assert info.value.values.shape == (4,)

    def test_invalid_epsilon(self, stay_go):
        for epsilon in (0.0, float("nan")):
            with pytest.raises(ValueError):
                value_iteration(stay_go, np.zeros(2), epsilon=epsilon)


class TestEvaluatePolicy:
    def test_go_policy_value(self, stay_go):
        values = evaluate_policy(stay_go, go_policy())
        assert values == pytest.approx([2.0, 0.0], abs=1e-12)

    def test_stay_policy_is_improper(self, stay_go):
        with pytest.raises(ImproperPolicy) as info:
            evaluate_policy(stay_go, stay_policy())
        assert info.value.unreachable_states == (0,)

    def test_gridworld_uniform_random_matches_published_row(self, grid, grid_uniform_values):
        rewards = -grid_uniform_values[grid.nonterminal]
        assert rewards == pytest.approx(EXPECTED_TABLE2[0].values, abs=0.01)

    def test_fixed_point_residual_below_tolerance(self, grid, grid_uniform_values):
        backed = policy_backup(grid, uniform_random_policy(grid), grid_uniform_values)
        assert np.abs(backed - grid_uniform_values).max() <= 1e-10

    def test_fixed_point_residual_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            problem = random_all_proper_ssp(rng)
            policy = uniform_random_policy(problem)
            values = evaluate_policy(problem, policy)
            backed = policy_backup(problem, policy, values)
            assert np.abs(backed - values).max() <= 1e-10


class TestPolicyIteration:
    def test_gridworld_converges_in_four_improvements(self, grid):
        policy, values, trace = policy_iteration(grid, uniform_random_policy(grid))
        assert len(trace) == 5
        assert np.array_equal(trace.records[3].values, trace.records[4].values)
        assert trace.records[4].residual == pytest.approx(0.0, abs=1e-10)

    def test_iterates_never_get_worse(self, grid):
        _, _, trace = policy_iteration(grid, uniform_random_policy(grid))
        for earlier, later in zip(trace.records, trace.records[1:]):
            assert (later.values <= earlier.values + 1e-10).all()

    def test_start_from_optimal_policy_stops_immediately(self, grid, grid_optimal_policy):
        policy, values, trace = policy_iteration(grid, grid_optimal_policy)
        assert len(trace) == 2
        assert np.array_equal(policy.actions, grid_optimal_policy.actions)

    def test_improper_start_rejected(self, stay_go):
        with pytest.raises(ImproperPolicy):
            policy_iteration(stay_go, stay_policy())


class TestUniformImprovability:
    def test_policy_values_are_improvable(self, grid, grid_uniform_values, stay_go):
        assert is_uniformly_improvable(grid, grid_uniform_values)
        assert is_uniformly_improvable(stay_go, np.array([2.0, 0.0]))

    def test_zero_is_not_improvable_on_stay_go(self, stay_go):
        assert not is_uniformly_improvable(stay_go, np.zeros(2))

    def test_monotonicity(self):
        rng = np.random.default_rng(57)
        for _ in range(300):
            problem = random_proper_mixed_ssp(rng)
            lower = random_values(rng, problem)
            upper = lower + np.abs(rng.normal(size=lower.shape))
            upper[problem.terminal] = 0.0
            backed_lower = bellman_backup(problem, lower)
            backed_upper = bellman_backup(problem, upper)
            assert (backed_lower <= backed_upper + 1e-12).all()

    def test_closure_under_backup(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            problem = random_proper_mixed_ssp(rng)
            values = evaluate_policy(problem, uniform_random_policy(problem))
            assert is_uniformly_improvable(problem, values)
            for _ in range(3):
                values = bellman_backup(problem, values)
                assert is_uniformly_improvable(problem, values)

    def test_trace_verdicts_match_the_test_on_the_previous_row(
        self, grid, grid_uniform_values, stay_go
    ):
        runs = [
            (grid, value_iteration(grid, grid_uniform_values, epsilon=1e-9)[1]),
            (grid, policy_iteration(grid, uniform_random_policy(grid))[2]),
            (stay_go, value_iteration(stay_go, np.zeros(2), epsilon=1e-9)[1]),
        ]
        rng = np.random.default_rng(67)
        for _ in range(20):
            problem = random_proper_mixed_ssp(rng)
            try:
                _, trace = value_iteration(
                    problem, random_values(rng, problem), epsilon=1e-6, max_iters=200
                )
            except MaxItersExceeded as exc:
                trace = exc.trace
            runs.append((problem, trace))
            _, _, trace = policy_iteration(problem, uniform_random_policy(problem))
            runs.append((problem, trace))
        verdicts = set()
        for problem, trace in runs:
            assert trace.records[0].improvable is None
            for earlier, later in zip(trace.records, trace.records[1:]):
                expected = is_uniformly_improvable(problem, earlier.values)
                assert later.improvable is expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_value_iteration_decreases_from_improvable_start(
        self, grid, grid_uniform_values
    ):
        _, trace = value_iteration(grid, grid_uniform_values, epsilon=1e-9)
        for earlier, later in zip(trace.records, trace.records[1:]):
            assert (later.values <= earlier.values + 1e-12).all()


class TestOracleEquivalence:
    def test_vi_pi_and_brute_force_agree(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            problem = random_all_proper_ssp(rng)
            vi_values, _ = value_iteration(
                problem, np.zeros(problem.num_states), epsilon=1e-12, max_iters=100_000
            )
            _, pi_values, _ = policy_iteration(problem, uniform_random_policy(problem))
            brute = brute_force_optimal(problem)
            assert np.abs(vi_values - pi_values).max() <= 1e-8
            assert np.abs(vi_values - brute).max() <= 1e-8


def trace_rows(trace, j_under, m=None):
    """(iter, J_under, m, residual, error) rows of a trace, error left blank."""
    m = m or [None] * len(trace)
    return [
        (rec.iteration, j, mk, rec.residual, None)
        for rec, j, mk in zip(trace.records, j_under, m)
    ]


class TestTraceCsv:
    def test_columns_and_blanks(self, stay_go):
        _, trace = value_iteration(stay_go, np.zeros(2), epsilon=1e-9)
        text = trace_csv(trace_rows(trace, [0.0, 1.0, 2.0], [None, 1.5, 2.5]))
        lines = text.strip().split("\n")
        assert lines[0] == "iter,J_under,m,residual,error"
        assert lines[1] == "0,0,,,"
        assert lines[2] == "1,1,1.5,1,"
        assert len(lines) == 4

    def test_six_significant_digits(self, stay_go):
        _, trace = value_iteration(stay_go, np.zeros(2), epsilon=1e-9)
        text = trace_csv(trace_rows(trace, [0.123456789, 0.0, 0.0]))
        assert "0.123457" in text
