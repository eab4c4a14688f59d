import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from helpers import (
    brute_force_optimal,
    delay_or_exit_instance,
    dense,
    free_delay_instance,
    joined_on_terminal,
    kernel_oracle_cases,
    open_grid,
    random_all_proper_ssp,
    random_proper_mixed_ssp,
    random_values,
    reference_is_proper,
    row_values,
    walled_grid,
    wide_random_ssp,
    with_costs_scaled,
)
from sspbounds import (
    DeterministicPolicy,
    ProperCheckReport,
    SspProblem,
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
from sspbounds import dp
from sspbounds.core import Transitions, policy_cost_vector, policy_transition_matrix
from sspbounds.dp import trace_csv
from sspbounds.errors import ImproperPolicy, MaxItersExceeded, SingularSystem
from sspbounds.gridworld import (
    EXPECTED_TABLE1_PI,
    EXPECTED_TABLE1_VI,
    EXPECTED_TABLE2,
    compare_table1,
    compare_table2,
    run_table1,
    run_table2,
)

# dp constants that force each factorization of the policy system: dense
# (LAPACK), block elimination over the levels, and sparse (splu)
SOLVE_PATHS = {
    "dense": {"SPARSE_SOLVE_STATES": sys.maxsize},
    "block": {"SPARSE_SOLVE_STATES": 0, "BLOCK_SOLVE_WORK": sys.maxsize},
    "sparse": {"SPARSE_SOLVE_STATES": 0, "BLOCK_SOLVE_WORK": -1},
}


def force_path(monkeypatch, path):
    for name, value in SOLVE_PATHS[path].items():
        monkeypatch.setattr(dp, name, value)


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
        with row_values() as iterates:
            _, _, trace = policy_iteration(grid, uniform_random_policy(grid))
        stats = bellman_residual(grid, iterates[1])
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
        with row_values() as kept:
            values, trace = value_iteration(stay_go, np.zeros(2), epsilon=1e-9)
        assert values[0] == 2.0
        assert len(kept) == len(trace)
        iterates = [v[0] for v in kept]
        assert iterates == [0.0, 1.0, 2.0]
        assert [r.residual for r in trace.records] == [None, 1.0, 1.0]

    def test_keeps_no_row_values(self):
        # 222 rows of 10,001 values each held 17 MiB when every row kept its J
        problem = open_grid(100)
        start = evaluate_policy(problem, uniform_random_policy(problem))
        tracemalloc.start()
        try:
            values, trace = value_iteration(problem, start, epsilon=1e-6)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert problem.num_states == 10_001
        assert len(trace) > 200
        assert held <= 2**20

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


def random_policy(rng, problem: SspProblem, stochastic: bool):
    """A random policy that mostly avoids action 0, the sure exit of ``random_proper_mixed_ssp``.

    A deterministic one takes action 0 only where it is the only action; a
    stochastic one leaves out about half the actions of a state.
    """
    n, a = problem.num_states, problem.num_actions
    if not stochastic:
        return DeterministicPolicy(actions=rng.integers(min(1, a - 1), a, size=n))
    weights = rng.uniform(0.1, 1.0, size=(n, a)) * (rng.random((n, a)) < 0.5)
    weights[np.arange(n), rng.integers(a, size=n)] = 1.0
    return StochasticPolicy(weights=weights / weights.sum(axis=1, keepdims=True))


def random_potential(rng, size: int) -> np.ndarray:
    """Random reals, or integers with ties, a fifth of them NaN or +-inf."""
    if rng.random() < 0.5:
        potential = rng.uniform(-2.0, 2.0, size)
    else:
        potential = rng.integers(-1, 2, size).astype(float)
    special = rng.random(size) < 0.2
    potential[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    return potential


@pytest.fixture
def is_proper_calls(monkeypatch):
    """Records the policy of every properness search ``evaluate_policy`` makes."""
    calls = []
    search = dp.is_proper

    def counted(problem, policy):
        calls.append(policy)
        return search(problem, policy)

    monkeypatch.setattr(dp, "is_proper", counted)
    return calls


class TestDescentCertificate:
    """Evaluation proves a policy proper from its solved values, else searches."""

    def test_accepts_only_proper_policies(self):
        rng = np.random.default_rng(73)
        problems = [free_delay_instance(), delay_or_exit_instance()]
        for _ in range(60):
            problems += [random_proper_mixed_ssp(rng), random_all_proper_ssp(rng)]
        accepted, improper = 0, 0
        for problem in problems:
            for k in range(20):
                policy = random_policy(rng, problem, stochastic=k % 2 == 1)
                potential = random_potential(rng, problem.num_states)
                proper = reference_is_proper(problem, policy).proper
                if dp._certified_proper(problem, policy, potential):
                    assert proper
                    accepted += 1
                improper += not proper
        assert accepted >= 500 and improper >= 200

    def test_directions_are_not_mixed(self):
        # the cycle 0 -> 1 -> 0 descends from 1 and rises from 0
        problem = delay_or_exit_instance()
        cycle = DeterministicPolicy(actions=np.array([0, 1, 0]))
        assert not dp._certified_proper(problem, cycle, np.array([0.0, 1.0, 0.0]))
        # exiting from 1, the values (0.75, 1) rise toward the terminal
        exit_now = DeterministicPolicy(actions=np.array([0, 0, 0]))
        assert dp._certified_proper(problem, exit_now, np.array([0.75, 1.0, 0.0]))

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_improper_policies_on_every_path(self, path, monkeypatch):
        # their systems are singular or nearly so; any warning fails the test
        force_path(monkeypatch, path)
        rng = np.random.default_rng(79)
        cases = [
            (free_delay_instance(), DeterministicPolicy(actions=np.array([0, 0]))),
            (delay_or_exit_instance(), DeterministicPolicy(actions=np.array([0, 1, 0]))),
        ]
        for k in range(200):
            problem = random_proper_mixed_ssp(rng)
            cases.append((problem, random_policy(rng, problem, stochastic=k % 2 == 1)))
        improper = 0
        for problem, policy in cases:
            report = reference_is_proper(problem, policy)
            if report.proper:
                continue
            improper += 1
            with pytest.raises(ImproperPolicy) as info:
                evaluate_policy(problem, policy)
            assert info.value.unreachable_states == report.unreachable_states
        assert improper >= 50

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_non_finite_solve(self, bad, stay_go, monkeypatch):
        # 1e308 is finite, but its refinement overflows
        exact_system = dp._policy_system

        def broken_system(problem, policy):
            apply, _ = exact_system(problem, policy)
            return apply, lambda rhs: np.full_like(rhs, bad)

        monkeypatch.setattr(dp, "_policy_system", broken_system)
        with pytest.raises(ImproperPolicy) as info:
            evaluate_policy(stay_go, stay_policy())
        assert info.value.unreachable_states == (0,)
        with pytest.raises(SingularSystem, match="non-finite"):
            evaluate_policy(stay_go, go_policy())

    def test_policy_iteration_searches_no_properness(self, grid, is_proper_calls, splu_calls):
        # the 12-state gridworld is solved densely; the open side-27 grid's
        # 729 nonterminal states take block elimination
        for problem in (grid, open_grid(27)):
            policy_iteration(problem, uniform_random_policy(problem))
        assert is_proper_calls == []
        assert splu_calls == []

    def test_search_when_the_values_neither_descend_nor_rise(self, is_proper_calls):
        # the chain 0 -> 1 -> 2 -> terminal at costs -1, 1, 1 has values (1, 2, 1)
        view = Transitions(4, row=[0, 1, 2, 3], to=[1, 2, 3, 3], prob=[1.0] * 4, cost=[-1, 1, 1, 0])
        problem = SspProblem(num_states=4, num_actions=1, terminal=3, transitions=view)
        policy = DeterministicPolicy(actions=np.zeros(4, dtype=int))
        values = evaluate_policy(problem, policy)
        assert len(is_proper_calls) == 1
        assert values.tolist() == [1.0, 2.0, 1.0, 0.0]
        assert values.tobytes() == dp._solved_values(problem, policy).tobytes()


@pytest.fixture
def splu_calls(monkeypatch):
    """Records the size of every system ``splu`` factors."""
    calls = []
    factor = scipy.sparse.linalg.splu

    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return factor(matrix, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    return calls


class TestSolvePaths:
    """The dense (LAPACK), block and sparse (splu) policy solves agree."""

    def test_policy_iteration_agrees(self, monkeypatch, splu_calls):
        # no policy of the no-exit loop is proper, and policy iteration on
        # free-delay improves to its improper free stall
        cases = [c for c in kernel_oracle_cases() if c[0] not in ("no-exit", "free-delay")]
        for name, problem in cases:
            policy = uniform_random_policy(problem)
            results, iterates = {}, {}
            for path in SOLVE_PATHS:
                force_path(monkeypatch, path)
                splu_calls.clear()
                with row_values() as iterates[path]:
                    results[path] = policy_iteration(problem, policy)
                # one factorization per evaluation: every trace row's, or all
                # but the last when that row repeats the previous policy
                rows = len(results[path][2])
                expected = (rows - 1, rows) if path == "sparse" else (0,)
                assert len(splu_calls) in expected, name
            d_policy, _, d_trace = results.pop("dense")
            d_iterates = iterates.pop("dense")
            for (s_policy, _, s_trace), s_iterates in zip(results.values(), iterates.values()):
                assert np.array_equal(d_policy.actions, s_policy.actions), name
                assert len(d_trace) == len(s_trace), name
                assert len(d_iterates) == len(s_iterates) == len(d_trace), name
                for d_values, s_values in zip(d_iterates, s_iterates):
                    scale = np.abs(d_values).max()
                    assert np.allclose(s_values, d_values, rtol=1e-12, atol=1e-12 * scale), name

    def test_tables_on_the_sparse_path(self, grid, monkeypatch, splu_calls):
        force_path(monkeypatch, "sparse")
        assert compare_table1(run_table1(grid, "vi"), EXPECTED_TABLE1_VI, "vi") == []
        assert compare_table1(run_table1(grid, "pi"), EXPECTED_TABLE1_PI, "pi") == []
        assert compare_table2(run_table2(grid)) == []
        assert splu_calls and set(splu_calls) == {grid.num_states - 1}

    def test_cutoff_counts_nonterminal_states(self, grid, monkeypatch, splu_calls):
        policy = uniform_random_policy(grid)
        monkeypatch.setattr(dp, "BLOCK_SOLVE_WORK", -1)
        monkeypatch.setattr(dp, "SPARSE_SOLVE_STATES", grid.num_states)
        evaluate_policy(grid, policy)
        assert splu_calls == []
        monkeypatch.setattr(dp, "SPARSE_SOLVE_STATES", grid.num_states - 1)
        evaluate_policy(grid, policy)
        assert splu_calls == [grid.num_states - 1]

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_refinement_reuses_one_factorization(
        self, grid, grid_uniform_values, path, monkeypatch, splu_calls
    ):
        # every solve is off by a relative 1e-6, so only the refinement rounds
        # reach the 1e-10 residual
        force_path(monkeypatch, path)
        exact_system = dp._policy_system
        systems, solves = [], []

        def inexact_system(problem, policy):
            system, solve = exact_system(problem, policy)
            systems.append(system)

            def inexact_solve(rhs):
                solves.append(rhs)
                return solve(rhs) * (1.0 + 1e-6)

            return system, inexact_solve

        monkeypatch.setattr(dp, "_policy_system", inexact_system)
        values = evaluate_policy(grid, uniform_random_policy(grid))
        assert len(systems) == 1 and len(solves) > 1
        assert len(splu_calls) == (1 if path == "sparse" else 0)
        assert np.abs(values - grid_uniform_values).max() <= 1e-9

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_terminal_in_the_middle(self, grid, grid_uniform_values, path, monkeypatch):
        # relabel state s as label[s], which moves the terminal from last to index 5
        force_path(monkeypatch, path)
        label = np.roll(np.arange(grid.num_states), grid.num_states // 2)
        view = grid.transitions
        states, actions = np.divmod(view.row, grid.num_actions)
        relabeled = SspProblem(
            grid.num_states, grid.num_actions, int(label[grid.terminal]),
            transitions=Transitions.from_entries(
                grid.num_states, label[states] * grid.num_actions + actions,
                label[view.to], view.prob, view.cost,
            ),
        )
        values = evaluate_policy(relabeled, uniform_random_policy(relabeled))
        scale = np.abs(grid_uniform_values).max()
        assert np.allclose(
            values[label], grid_uniform_values, rtol=1e-12, atol=1e-12 * scale
        )

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_singular_system(self, path, monkeypatch):
        # the solve of a policy with a closed free loop fails before any
        # properness check; the patched fallback then calls the policy proper,
        # so the failure is reported as it would be for a proper policy
        force_path(monkeypatch, path)
        monkeypatch.setattr(
            dp, "is_proper", lambda problem, policy: ProperCheckReport(True, (), 1, 1.0)
        )
        cause = RuntimeError if path == "sparse" else np.linalg.LinAlgError
        stall = (free_delay_instance(), [0, 0])  # 0 -> 0 at no cost
        cycle = (delay_or_exit_instance(), [0, 1, 0])  # 0 -> 1 -> 0
        for problem, actions in (stall, cycle):
            policy = DeterministicPolicy(actions=np.array(actions))
            with pytest.raises(SingularSystem, match="policy evaluation failed") as info:
                evaluate_policy(problem, policy)
            assert isinstance(info.value.__cause__, cause)

    def test_tables_on_the_block_path(self, grid, monkeypatch, splu_calls):
        force_path(monkeypatch, "block")
        assert compare_table1(run_table1(grid, "vi"), EXPECTED_TABLE1_VI, "vi") == []
        assert compare_table1(run_table1(grid, "pi"), EXPECTED_TABLE1_PI, "pi") == []
        assert compare_table2(run_table2(grid)) == []
        assert splu_calls == []

    def test_block_budget_counts_level_work(self, monkeypatch, splu_calls):
        # each level counts its own size cubed: the anti-diagonals 1, 2, ..., 8, ..., 2, 1
        problem = open_grid(8)
        policy = uniform_random_policy(problem)
        monkeypatch.setattr(dp, "SPARSE_SOLVE_STATES", 0)
        levels = dp._levels(problem)
        assert levels.sizes.tolist() == list(range(1, 9)) + list(range(7, 0, -1))
        assert levels.work == 2 * sum(w**3 for w in range(1, 8)) + 8**3 + 15 * dp.LEVEL_WORK
        monkeypatch.setattr(dp, "BLOCK_SOLVE_WORK", levels.work)
        evaluate_policy(problem, policy)
        assert splu_calls == []
        monkeypatch.setattr(dp, "BLOCK_SOLVE_WORK", levels.work - 1)
        evaluate_policy(problem, policy)
        assert splu_calls == [problem.num_states - 1]

    def test_levels_of_different_sizes(self, monkeypatch, splu_calls):
        # each level's blocks at its own size, against one dense solve of (I - P) J = g
        force_path(monkeypatch, "block")
        rng = np.random.default_rng(23)
        walled = walled_grid(rng, 12, 9)
        weights = rng.dirichlet(np.ones(walled.num_actions), walled.num_states)
        cases = [
            ("strip", open_grid(40, 1), uniform_random_policy, [1] * 40),
            ("walled", walled, uniform_random_policy, None),
            ("stochastic", walled, lambda problem: StochasticPolicy(weights), None),
            # a 5x5 and a 9x4 grid: levels up to 5 wide, then up to 4
            (
                "two-components",
                joined_on_terminal(open_grid(5), open_grid(9, 4)),
                uniform_random_policy,
                [1, 2, 3, 4, 5, 4, 3, 2, 1] + [1, 2, 3] + [4] * 6 + [3, 2, 1],
            ),
        ]
        for name, problem, make_policy, sizes in cases:
            levels = dp._levels(problem)
            if sizes is None:
                assert levels.sizes.min() < levels.sizes.max(), name
            else:
                assert levels.sizes.tolist() == sizes, name
            policy = make_policy(problem)
            nt = problem.nonterminal
            system = np.eye(nt.size) - policy_transition_matrix(problem, policy)[np.ix_(nt, nt)]
            expected = np.linalg.solve(system, policy_cost_vector(problem, policy)[nt])
            values = evaluate_policy(problem, policy)
            assert np.abs(values[nt] - expected).max() <= 1e-12 * np.abs(expected).max(), name
        assert splu_calls == []

    def test_levels_start_from_a_peripheral_state(self):
        # relabeled so that the lowest state is the grid's centre: a search
        # from there has 9 levels up to 14 wide, one from a corner 15 of 8
        grid = open_grid(8)
        cells = np.arange(grid.num_states - 1)
        centre = 4 * 8 + 4
        label = np.append((cells - centre) % cells.size, cells.size)
        view = grid.transitions
        states, actions = np.divmod(view.row, grid.num_actions)
        relabeled = SspProblem(
            grid.num_states, grid.num_actions, grid.terminal,
            transitions=Transitions.from_entries(
                grid.num_states, label[states] * grid.num_actions + actions,
                label[view.to], view.prob, view.cost,
            ),
        )
        levels = dp._breadth_first_levels(relabeled)
        assert levels.sizes.tolist() == list(range(1, 9)) + list(range(7, 0, -1))

    def test_instances_too_large_for_blocks_skip_the_level_search(
        self, monkeypatch, splu_calls
    ):
        # with m states, any levels do at least m * 3 * (LEVEL_WORK / 2)**(2/3) work
        problem = open_grid(8)
        bound = (problem.num_states - 1) * 3 * (dp.LEVEL_WORK / 2) ** (2 / 3)
        assert dp._breadth_first_levels(problem).work >= bound
        monkeypatch.setattr(dp, "SPARSE_SOLVE_STATES", 0)
        monkeypatch.setattr(dp, "BLOCK_SOLVE_WORK", int(bound) - 1)
        evaluate_policy(problem, uniform_random_policy(problem))
        assert splu_calls == [problem.num_states - 1]
        assert "_levels" not in vars(problem)

    def test_deep_instances_stop_the_level_search(self, monkeypatch, splu_calls):
        problem = open_grid(8)  # 15 levels
        force_path(monkeypatch, "block")
        monkeypatch.setattr(dp, "MAX_LEVELS", 14)
        assert dp._breadth_first_levels(problem) is None
        evaluate_policy(problem, uniform_random_policy(problem))
        assert splu_calls == [problem.num_states - 1]
        monkeypatch.setattr(dp, "MAX_LEVELS", 15)
        assert dp._breadth_first_levels(problem).sizes.size == 15

    def test_default_rule_on_open_grids(self, splu_calls):
        # at the budget, side 75 and below take blocks, side 76 and above splu
        for side, factored in ((30, []), (75, []), (76, [76 * 76])):
            problem = open_grid(side)
            evaluate_policy(problem, uniform_random_policy(problem))
            assert splu_calls == factored, side
            splu_calls.clear()

    @pytest.mark.parametrize("path", SOLVE_PATHS)
    def test_values_scale_with_the_costs(self, path, monkeypatch):
        # the residual target follows max |J| + max |cost|; with 1e-10 alone
        # the 4x4 grid failed at 1e6 and the 30x30 grid at 1e4 and 1e6
        force_path(monkeypatch, path)
        # on the random instance costs of up to 0.92 cancel to values of 0.0033,
        # so the rounding of a backup follows the costs, not J
        cancelling = random_all_proper_ssp(np.random.default_rng(57))
        for problem in (open_grid(4), open_grid(30), cancelling):
            policy = uniform_random_policy(problem)
            unit = evaluate_policy(problem, policy)
            for k in range(-8, 9):
                scale = 10.0**k
                values = evaluate_policy(with_costs_scaled(problem, scale), policy)
                error = np.abs(values - scale * unit).max()
                assert error <= 1e-13 * scale * np.abs(unit).max(), (problem.num_states, k)


def sweep_instances():
    """(name, problem) pairs of the solve-path sweep, seeded; each has m >= 700."""
    rng = np.random.default_rng(2024)
    return [
        ("walled-grid", walled_grid(rng, 30, 26)),
        ("joined-grids", joined_on_terminal(open_grid(20), walled_grid(rng, 20, 20))),
        ("wide-random", wide_random_ssp(rng, 750)),
    ]


class TestSolvePathSweep:
    """Every factorization gives the same values on larger, less regular instances."""

    @pytest.fixture(scope="class")
    def instances(self):
        return sweep_instances()

    def test_default_rule_picks_blocks_for_narrow_levels_only(self, instances, splu_calls):
        for name, problem in instances:
            assert problem.num_states - 1 >= dp.SPARSE_SOLVE_STATES, name
            splu_calls.clear()
            evaluate_policy(problem, uniform_random_policy(problem))
            expected = [problem.num_states - 1] if name == "wide-random" else []
            assert splu_calls == expected, name

    def test_levels_make_the_system_block_tridiagonal(self, instances):
        for name, problem in instances:
            level, slot, sizes = dp._breadth_first_levels(problem)
            m = problem.num_states - 1
            # every position gets its own slot in its level, and every slot is taken
            assert sizes.sum() == m and (sizes > 0).all(), name
            assert np.unique(level * m + slot).size == m, name
            assert (slot < sizes[level]).all() and level.max() == sizes.size - 1, name
            view, t = problem.transitions, problem.terminal
            states = view.row // problem.num_actions
            inner = (states != t) & (view.to != t)
            i, j = states[inner], view.to[inner]
            gap = level[i - (i > t)] - level[j - (j > t)]
            assert np.abs(gap).max() <= 1, name
        joined = dict(instances)["joined-grids"]
        level = dp._breadth_first_levels(joined).level
        # the two grids are two components, one after the other
        assert level[:400].max() < level[400:].min()

    def test_paths_agree(self, instances, monkeypatch):
        rng = np.random.default_rng(7)
        for name, problem in instances:
            policies = [uniform_random_policy(problem)] + [
                StochasticPolicy(rng.dirichlet(np.ones(problem.num_actions), problem.num_states))
                for _ in range(2)
            ]
            results = {}
            for path in SOLVE_PATHS:
                force_path(monkeypatch, path)
                values = [evaluate_policy(problem, policy) for policy in policies]
                results[path] = values, policy_iteration(problem, policies[0])[1]
            dense_values, dense_optimum = results.pop("dense")
            for path, (values, optimum) in results.items():
                for expected, got in zip(dense_values + [dense_optimum], values + [optimum]):
                    scale = np.abs(expected).max()
                    assert np.abs(got - expected).max() <= 1e-12 * scale, (name, path)


class TestPolicyIteration:
    def test_gridworld_converges_in_four_improvements(self, grid):
        with row_values() as iterates:
            policy, values, trace = policy_iteration(grid, uniform_random_policy(grid))
        assert len(trace) == 5
        assert np.array_equal(iterates[3], iterates[4])
        assert trace.records[4].residual == pytest.approx(0.0, abs=1e-10)

    def test_iterates_never_get_worse(self, grid):
        with row_values() as iterates:
            _, _, trace = policy_iteration(grid, uniform_random_policy(grid))
        assert len(iterates) == len(trace)
        for earlier, later in zip(iterates, iterates[1:]):
            assert (later <= earlier + 1e-10).all()

    def test_start_from_optimal_policy_stops_immediately(self, grid, grid_optimal_policy):
        policy, values, trace = policy_iteration(grid, grid_optimal_policy)
        assert len(trace) == 2
        assert np.array_equal(policy.actions, grid_optimal_policy.actions)

    def test_improper_start_rejected(self, stay_go):
        with pytest.raises(ImproperPolicy):
            policy_iteration(stay_go, stay_policy())

    def test_max_iters_counts_improvements(self, grid):
        # the gridworld's fourth improvement repeats the third policy
        with row_values() as iterates, pytest.raises(MaxItersExceeded) as info:
            policy_iteration(grid, uniform_random_policy(grid), max_iters=3)
        assert len(info.value.trace) == 4 == len(iterates)
        assert info.value.values is iterates[-1]
        _, _, trace = policy_iteration(grid, uniform_random_policy(grid), max_iters=4)
        assert len(trace) == 5


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
        runs = []

        def run(solver, problem, *args, **kwargs):
            # the trace is the last item a solver returns
            with row_values() as iterates:
                try:
                    trace = solver(problem, *args, **kwargs)[-1]
                except MaxItersExceeded as exc:
                    # only the runs from random values are capped
                    assert kwargs.get("max_iters") == 200
                    trace = exc.trace
            runs.append((problem, trace, iterates))

        run(value_iteration, grid, grid_uniform_values, epsilon=1e-9)
        run(policy_iteration, grid, uniform_random_policy(grid))
        run(value_iteration, stay_go, np.zeros(2), epsilon=1e-9)
        rng = np.random.default_rng(67)
        for _ in range(20):
            problem = random_proper_mixed_ssp(rng)
            run(value_iteration, problem, random_values(rng, problem), epsilon=1e-6, max_iters=200)
            run(policy_iteration, problem, uniform_random_policy(problem))
        verdicts = set()
        for problem, trace, iterates in runs:
            assert len(iterates) == len(trace)
            assert trace.records[0].improvable is None
            for earlier, later in zip(iterates, trace.records[1:]):
                expected = is_uniformly_improvable(problem, earlier)
                assert later.improvable is expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_value_iteration_decreases_from_improvable_start(
        self, grid, grid_uniform_values
    ):
        with row_values() as iterates:
            _, trace = value_iteration(grid, grid_uniform_values, epsilon=1e-9)
        assert len(iterates) == len(trace)
        for earlier, later in zip(iterates, iterates[1:]):
            assert (later <= earlier + 1e-12).all()


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
