import json
from pathlib import Path

import numpy as np
import pytest

from sspbounds import (
    GridSpec,
    build_gridworld,
    evaluate_policy,
    is_uniformly_improvable,
    load_problem,
    uniform_random_policy,
    validate,
    value_iteration,
)
from sspbounds.core import problem_to_json_dict
from sspbounds.gridworld import (
    EXPECTED_TABLE1_PI,
    EXPECTED_TABLE1_VI,
    EXPECTED_TABLE2,
    compare_table1,
    compare_table2,
    run_table1,
    run_table2,
    table2_csv,
)
from sspbounds.dp import trace_csv

GOLDEN = Path(__file__).parent / "data" / "gridworld.json"


class TestBuilder:
    def test_validates(self, grid):
        validate(grid)
        assert grid.num_states == 12
        assert grid.terminal == 11
        assert len(grid.nonterminal) == 11

    def test_exit_cells_jump_to_terminal(self, grid):
        for state, reward in ((3, 1.0), (6, -1.0)):
            for action in range(grid.num_actions):
                assert grid.prob[state, action, grid.terminal] == 1.0
                assert grid.cost[state, action, grid.terminal] == -reward

    def test_row_sums(self, grid):
        assert np.abs(grid.prob.sum(axis=2) - 1.0).max() <= 1e-12

    def test_movement_noise_shape(self, grid):
        # top-left corner moving east: 0.8 east, 0.1 slip north (bump), 0.1 slip south
        assert grid.prob[0, 2, 1] == 0.8
        assert grid.prob[0, 2, 0] == pytest.approx(0.1)
        assert grid.prob[0, 2, 4] == pytest.approx(0.1)

    def test_build_is_deterministic(self):
        first = build_gridworld()
        second = build_gridworld()
        assert first.prob.tobytes() == second.prob.tobytes()
        assert first.cost.tobytes() == second.cost.tobytes()

    def test_golden_file_byte_identical(self, grid):
        rendered = json.dumps(problem_to_json_dict(grid, "reward"), indent=2) + "\n"
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_golden_file_loads_back(self, grid):
        loaded, convention = load_problem(GOLDEN)
        assert convention == "reward"
        assert np.array_equal(loaded.prob, grid.prob)
        assert np.array_equal(loaded.cost, grid.cost)

    def test_plain_dynamics_share_the_optimal_solution(self, grid, grid_uniform_values):
        plain = build_gridworld(GridSpec(slip_redirects={}))
        validate(plain)
        tuned, _ = value_iteration(grid, grid_uniform_values, epsilon=1e-12, max_iters=100_000)
        start = evaluate_policy(plain, uniform_random_policy(plain))
        base, _ = value_iteration(plain, start, epsilon=1e-12, max_iters=100_000)
        assert np.abs(tuned - base).max() <= 1e-9


class TestPublishedValues:
    def test_uniform_random_policy_row(self, grid, grid_uniform_values):
        rewards = -grid_uniform_values[grid.nonterminal]
        assert rewards == pytest.approx(EXPECTED_TABLE2[0].values, abs=0.01)

    def test_converged_values(self, grid_optimal_values, grid):
        rewards = -grid_optimal_values[grid.nonterminal]
        assert rewards == pytest.approx(EXPECTED_TABLE2[4].values, abs=0.01)

    def test_uniform_random_values_are_improvable(self, grid, grid_uniform_values):
        assert is_uniformly_improvable(grid, grid_uniform_values)


class TestTable1:
    def test_value_iteration_rows(self, grid):
        rows = run_table1(grid, "vi")
        assert len(rows) == 13
        assert compare_table1(rows, EXPECTED_TABLE1_VI, "vi") == []

    def test_policy_iteration_rows(self, grid):
        rows = run_table1(grid, "pi")
        assert len(rows) == 5
        assert compare_table1(rows, EXPECTED_TABLE1_PI, "pi") == []

    def test_m_matches_caption_formula(self, grid):
        for row in run_table1(grid, "pi"):
            assert row.m == pytest.approx((1.0 - row.j_under) / 0.04 + 1.0, abs=1e-9)

    def test_unknown_algorithm(self, grid):
        with pytest.raises(ValueError):
            run_table1(grid, "lp")

    def test_comparison_reports_offenders(self, grid):
        rows = run_table1(grid, "pi")
        broken = rows[:2] + [rows[2].__class__(2, 9.9, rows[2].m, rows[2].residual, rows[2].error)] + rows[3:]
        problems = compare_table1(broken, EXPECTED_TABLE1_PI, "pi")
        assert len(problems) == 1
        assert "row 2 J_under" in problems[0]

    def test_csv_layout(self, grid):
        text = trace_csv(run_table1(grid, "pi"))
        lines = text.strip().split("\n")
        assert lines[0] == "iter,J_under,m,residual,error"
        assert len(lines) == 6
        assert lines[1].startswith("0,-1.60")
        assert lines[1].endswith(",,")  # no residual or error on row 0


class TestTable2:
    def test_all_rows_match(self, grid):
        rows = run_table2(grid)
        assert len(rows) == 5
        assert compare_table2(rows) == []

    def test_exit_state_steps_reported_raw(self, grid):
        rows = run_table2(grid)
        for row in rows:
            assert row.steps[6] == pytest.approx(51.0, abs=0.1)
            assert row.steps[3] == pytest.approx(1.0, abs=1e-9)

    def test_rows_three_and_four_identical(self, grid):
        rows = run_table2(grid)
        assert rows[3].values == rows[4].values
        assert rows[3].steps == rows[4].steps

    def test_csv_layout(self, grid):
        rows = run_table2(grid)
        lines = table2_csv(rows).strip().split("\n")
        assert lines[0].startswith("iter,J0,N0,J1,N1")
        assert len(lines) == 6
        assert len(lines[1].split(",")) == 1 + 22
