import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg  # noqa: F401  loaded before any memory is traced

from helpers import (
    backups_outside_evaluations,
    dense,
    open_grid_spec,
    problem_to_json_dict,
    reference_build_gridworld,
    walled_grid_spec,
)
from sspbounds import (
    GridSpec,
    build_gridworld,
    evaluate_policy,
    is_uniformly_improvable,
    load_problem,
    policy_iteration,
    save_problem,
    uniform_random_policy,
    validate,
    value_iteration,
)
from sspbounds.cli import main
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
import sspbounds.gridworld

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
                assert dense(grid).prob[state, action, grid.terminal] == 1.0
                assert dense(grid).cost[state, action, grid.terminal] == -reward

    def test_row_sums(self, grid):
        assert np.abs(dense(grid).prob.sum(axis=2) - 1.0).max() <= 1e-12

    def test_movement_noise_shape(self, grid):
        # top-left corner moving east: 0.8 east, 0.1 slip north (bump), 0.1 slip south
        assert dense(grid).prob[0, 2, 1] == 0.8
        assert dense(grid).prob[0, 2, 0] == pytest.approx(0.1)
        assert dense(grid).prob[0, 2, 4] == pytest.approx(0.1)

    def test_build_is_deterministic(self):
        first = build_gridworld()
        second = build_gridworld()
        assert dense(first).prob.tobytes() == dense(second).prob.tobytes()
        assert dense(first).cost.tobytes() == dense(second).cost.tobytes()

    def test_bump_and_slip_onto_one_cell_are_one_entry(self, grid):
        view = grid.transitions
        keys = view.row * grid.num_states + view.to
        assert np.unique(keys).size == keys.size
        # top-left corner moving up: the move and the west slip both bump
        assert dense(grid).prob[0, 0, 0] == 0.8 + 0.1

    def test_build_and_policy_iteration_memory(self):
        side = 40
        spec = GridSpec(
            width=side, height=side, walls=(),
            exits={(0, side - 1): 1.0, (side - 1, 0): -1.0}, slip_redirects={},
        )
        tracemalloc.start()
        try:
            problem = build_gridworld(spec)
            policy_iteration(problem, uniform_random_policy(problem))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below one S x S float64 array (20.5 MB); the dense (S, A, S) build took 185 MB
        assert problem.num_states == 1601
        assert peak < problem.num_states**2 * 8

    def test_golden_file_byte_identical(self, grid, tmp_path, capsys):
        golden = GOLDEN.read_text(encoding="utf-8")
        assert json.dumps(problem_to_json_dict(grid, "reward"), indent=2) + "\n" == golden
        saved = tmp_path / "saved.json"
        save_problem(grid, saved, "reward")
        assert saved.read_text(encoding="utf-8") == golden
        # convert to cost form into a file, then back to reward form on stdout
        cost_form = tmp_path / "cost.json"
        assert main(["convert", "--input", str(GOLDEN), "--output", str(cost_form)]) == 0
        capsys.readouterr()
        assert main(["convert", "--input", str(cost_form)]) == 0
        assert capsys.readouterr().out == golden

    def test_golden_file_loads_back(self, grid):
        loaded, convention = load_problem(GOLDEN)
        assert convention == "reward"
        assert np.array_equal(dense(loaded).prob, dense(grid).prob)
        assert np.array_equal(dense(loaded).cost, dense(grid).cost)

    def test_plain_dynamics_share_the_optimal_solution(self, grid, grid_uniform_values):
        plain = build_gridworld(GridSpec(slip_redirects={}))
        validate(plain)
        tuned, _ = value_iteration(grid, grid_uniform_values, epsilon=1e-12, max_iters=100_000)
        start = evaluate_policy(plain, uniform_random_policy(plain))
        base, _ = value_iteration(plain, start, epsilon=1e-12, max_iters=100_000)
        assert np.abs(tuned - base).max() <= 1e-9


def dihedral_specs(side: int) -> list[GridSpec]:
    """An open side x side grid with exits (0, 3) and (5, 0), in the square's eight symmetries."""
    n = side - 1
    images = [
        lambda r, c: (r, c), lambda r, c: (c, n - r), lambda r, c: (n - r, n - c),
        lambda r, c: (n - c, r), lambda r, c: (r, n - c), lambda r, c: (c, r),
        lambda r, c: (n - r, c), lambda r, c: (n - c, n - r),
    ]
    return [
        GridSpec(
            width=side, height=side, walls=(), slip_redirects={},
            exits={image(0, 3): 1.0, image(5, 0): -1.0},
        )
        for image in images
    ]


def oracle_specs() -> list[tuple[str, GridSpec]]:
    """(name, spec) pairs the builder is compared with the loop builder on."""
    cases = [("default", GridSpec()), ("no-redirects", GridSpec(slip_redirects={}))]
    # the move and both slips can land on one cell
    for width, height in ((1, 7), (7, 1), (2, 2), (1, 1)):
        cases.append((f"{width}x{height}", open_grid_spec(width, height)))
        cases.append((f"{width}x{height}-no-exits", GridSpec(
            width=width, height=height, walls=(), exits={}, slip_redirects={},
        )))
    for side in (6, 30):
        cases += [(f"dihedral-{side}-{k}", spec) for k, spec in enumerate(dihedral_specs(side))]
    for seed, (width, height) in enumerate(((12, 9), (30, 26), (7, 7), (9, 14))):
        rng = np.random.default_rng(seed)
        cases.append((f"walled-{seed}", walled_grid_spec(rng, width, height)))
    cases.append(("exits-on-walls-and-off-grid", GridSpec(
        walls=((1, 1), (-1, 2), (3, 0), (0, 9)),
        exits={(0, 3): 1.0, (1, 3): -1.0, (1, 1): 5.0, (-1, 0): 2.0, (3, 4): 3.0},
    )))
    # redirects of a wall, of a cell off the grid and of an exit are ignored
    cases.append(("redirects-of-cells-without-slips", GridSpec(slip_redirects={
        ((1, 1), 0, 2): (0, 0), ((5, 5), 1, 3): (0, 0), ((0, 3), 2, 0): (9, 9),
        ((2, 2), 2, 1): (2, 1),
    })))
    # slips of probability 0, free moves (cost -0.0), and moves of infinite
    # cost, which keep their entries of probability 0
    cases.append(("no-slips", GridSpec(move_prob=1.0, slip_prob=0.0, step_reward=0.0)))
    cases.append(("infinite-cost", GridSpec(slip_prob=0.0, step_reward=-math.inf)))
    cases.append(("integer-dynamics", GridSpec(move_prob=1, slip_prob=0, step_reward=-1)))
    return cases


class TestBuilderOracle:
    @pytest.mark.parametrize("name,spec", oracle_specs(), ids=[name for name, _ in oracle_specs()])
    def test_kernel_is_the_loop_builders_bit_for_bit(self, name, spec):
        got, want = build_gridworld(spec), reference_build_gridworld(spec)
        assert (got.num_states, got.num_actions, got.terminal) == (
            want.num_states, want.num_actions, want.terminal
        )
        for field in ("row", "to", "prob", "cost"):
            column, expected = getattr(got.transitions, field), getattr(want.transitions, field)
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes(), field

    @pytest.mark.parametrize("landing", [(1, 1), (3, 2), (2, 4), (-1, 0)])
    def test_redirect_onto_a_wall_or_off_the_grid(self, landing):
        spec = GridSpec(slip_redirects={((2, 2), 2, 1): landing})
        with pytest.raises(ValueError, match=r"\(\(2, 2\), 2, 1\)"):
            build_gridworld(spec)

    @pytest.mark.parametrize("action,slip", [(2, 3), (2, 2), (0, 1), (4, 0)])
    def test_redirect_of_a_slip_not_perpendicular(self, action, slip):
        spec = GridSpec(slip_redirects={((2, 2), action, slip): (2, 1)})
        with pytest.raises(ValueError, match=rf"\(\(2, 2\), {action}, {slip}\).*perpendicular"):
            build_gridworld(spec)


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

    def test_rows_made_in_the_solver_loop(self, grid, monkeypatch):
        # the start's checked backup and the loop's three; the fourth
        # improvement repeats the third policy and shares its backup
        backups = backups_outside_evaluations(monkeypatch, sspbounds.gridworld)
        assert compare_table2(run_table2(grid)) == []
        assert len(backups) == 4

    def test_csv_layout(self, grid):
        rows = run_table2(grid)
        lines = table2_csv(rows).strip().split("\n")
        assert lines[0].startswith("iter,J0,N0,J1,N1")
        assert len(lines) == 6
        assert len(lines[1].split(",")) == 1 + 22
