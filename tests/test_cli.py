import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    backups_outside_evaluations,
    cheap_delay_instance,
    crawl_instance,
    dense,
    fuzz_cost,
    fuzz_instance,
    open_grid,
    random_all_proper_ssp,
    random_discounted,
    random_proper_mixed_ssp,
    row_values,
    stay_or_go_instance,
    wide_random_ssp,
)
from sspbounds import (
    GridSpec,
    SspProblem,
    build_gridworld,
    evaluate_policy,
    from_discounted,
    immediate_termination_states,
    is_uniformly_improvable,
    load_problem,
    policy_iteration,
    save_problem,
    steps_bound_all_proper,
    steps_bound_from_horizon,
    steps_bound_positive_costs,
    termination_horizon,
    uniform_random_policy,
    value_iteration,
)
from sspbounds.cli import main
from sspbounds.errors import (
    HorizonCapExceeded,
    MaxItersExceeded,
    ProblemFormatError,
    SingularSystem,
    SspError,
)
import sspbounds.bounds
import sspbounds.cli
import sspbounds.core
import sspbounds.dp
import sspbounds.gridworld as gw


@pytest.fixture()
def grid_reward_file(grid, tmp_path):
    path = tmp_path / "grid.json"
    save_problem(grid, path, convention="reward")
    return str(path)


@pytest.fixture()
def stay_go_file(stay_go, tmp_path):
    path = tmp_path / "stay_go.json"
    save_problem(stay_go, path, convention="cost")
    return str(path)


def cli_loads(module: str, argv: list[str]) -> bool:
    """Whether the command ``argv`` in a fresh interpreter imports ``module``; it must exit 0."""
    script = (
        "import sys; from sspbounds.cli import main; "
        f"print(main(sys.argv[1:]), {module!r} in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sspbounds.core.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert result.stdout.split()[:1] == ["0"], result.stderr
    return result.stdout.split()[1] == "True"


def solve_loads(module: str, instance: str, algorithm: str, tmp_path) -> bool:
    """Whether ``solve`` of ``instance`` imports ``module``."""
    argv = ["solve", "--input", instance, "--algorithm", algorithm,
            "--output", str(tmp_path / "trace.csv")]
    return cli_loads(module, argv)


def values_file(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(json.dumps({"values": list(values)}), encoding="utf-8")
    return str(path)


class TestSolve:
    def test_policy_iteration_emits_table_shaped_csv(self, grid_reward_file, capsys):
        code = main(["solve", "--input", grid_reward_file, "--algorithm", "pi"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "iter,J_under,m,residual,error"
        assert len(lines) == 6  # header + iterations 0..4
        row3 = lines[4].split(",")
        assert float(row3[1]) == pytest.approx(0.388, abs=0.01)
        assert float(row3[2]) == pytest.approx(16.3, abs=0.1)

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_small_solve_leaves_scipy_unloaded(self, grid_reward_file, algorithm, tmp_path):
        # only the splu policy solve imports scipy, which would add about 0.33 s
        # to every run if it were imported with the package
        assert solve_loads("scipy", grid_reward_file, algorithm, tmp_path) is False

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_mid_size_solve_leaves_scipy_unloaded(self, algorithm, tmp_path):
        # 900 nonterminal states in 59 levels at most 30 wide: block elimination
        path = tmp_path / "grid30.json"
        save_problem(open_grid(30), path, convention="reward")
        assert solve_loads("scipy", str(path), algorithm, tmp_path) is False

    @pytest.mark.parametrize("command", ["vi", "pi", "check"])
    def test_searches_leave_numpy_ma_unloaded(self, command, tmp_path):
        # np.unique imports numpy.ma on its first call, about 15 ms of a run;
        # solve searches the levels of the 900 states, check is_proper's
        path = str(tmp_path / "grid30.json")
        save_problem(open_grid(30), path, convention="reward")
        if command == "check":
            loaded = cli_loads("numpy.ma", ["check", "--input", path, "--output", str(tmp_path / "c")])
        else:
            loaded = solve_loads("numpy.ma", path, command, tmp_path)
        assert loaded is False

    def test_wide_levels_load_scipy(self, tmp_path):
        path = tmp_path / "wide.json"
        save_problem(wide_random_ssp(np.random.default_rng(2024), 750), path)
        assert solve_loads("scipy", str(path), "pi", tmp_path) is True

    def test_zero_init_fails_when_not_improvable(self, stay_go_file, capsys):
        code = main(["solve", "--input", stay_go_file, "--init", "zero"])
        captured = capsys.readouterr()
        assert code == 3
        payload = json.loads(captured.err.strip())
        assert payload["error"] == "NotUniformlyImprovable"

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        code = main(["solve", "--input", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err.strip())["error"] == "ProblemFormatError"

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "nowhere.json")])
        capsys.readouterr()
        assert code == 2

    def test_json_output_is_deterministic(self, grid_reward_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        argv = ["solve", "--input", grid_reward_file, "--format", "json"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["config"]["bounds_method"] == "positive-cost"
        assert payload["bounds"]["overrides"] == [3, 6]
        assert len(payload["values"]) == 12
        # reward-convention file: values reported in reward form
        assert payload["values"][3] == pytest.approx(1.0, abs=1e-9)
        assert len(payload["trace"]) == 5

    def test_value_iteration_with_file_init(self, grid_reward_file, grid, tmp_path, capsys):
        from sspbounds import evaluate_policy, uniform_random_policy

        start = evaluate_policy(grid, uniform_random_policy(grid))
        init = values_file(tmp_path, "init.json", (-start).tolist())  # reward form
        code = main(
            ["solve", "--input", grid_reward_file, "--algorithm", "vi", "--init", init]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert float(lines[1].split(",")[1]) == pytest.approx(-1.603, abs=0.01)

    # "general" starts from the uniform policy too, with the horizon bound on every row
    @pytest.mark.parametrize("start", ["uniform", "file", "general"])
    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_csv_is_the_golden_file(self, tmp_path, algorithm, start):
        golden = Path(__file__).parent / "data" / "gridworld.json"
        argv = ["solve", "--input", str(golden), "--algorithm", algorithm, "--format", "csv"]
        if start == "general":
            argv += ["--bounds", "general"]
        if start == "file":
            problem, _ = load_problem(golden)
            uniform = evaluate_policy(problem, uniform_random_policy(problem))
            argv += ["--init", values_file(tmp_path, "uniform.json", (-uniform).tolist())]
        out = tmp_path / "solve.csv"
        assert main([*argv, "--output", str(out)]) == 0
        expected = Path(__file__).parent / "data" / f"solve_{algorithm}_{start}.csv"
        assert out.read_bytes() == expected.read_bytes()

    def test_horizon_cap_exit_code(self, tmp_path, capsys, monkeypatch, stay_go):
        import numpy as np

        from sspbounds import SspProblem

        prob = np.zeros((2, 2, 2))
        prob[0, 0, 0] = 1.0  # free self-loop
        prob[0, 1, 1] = 1.0  # free exit
        prob[1, :, 1] = 1.0
        problem = SspProblem(
            num_states=2, num_actions=2, terminal=1, prob=prob, cost=np.zeros_like(prob)
        )
        path = tmp_path / "free_delay.json"
        save_problem(problem, path, convention="cost")
        monkeypatch.setattr(sspbounds.bounds, "DEFAULT_HORIZON_CAP", 100)
        code = main(
            [
                "solve",
                "--input",
                str(path),
                "--algorithm",
                "vi",
                "--init",
                "zero",
                "--bounds",
                "general",
            ]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.err.strip())["error"] == "HorizonCapExceeded"

    def test_nonpositive_epsilon_exits_two(self, grid_reward_file, capsys):
        code = main(["solve", "--input", grid_reward_file, "--epsilon", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "epsilon" in json.loads(captured.err.strip())["message"]

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_nonfinite_epsilon_exits_two(self, grid_reward_file, capsys, epsilon):
        code = main(["solve", "--input", grid_reward_file, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "epsilon" in json.loads(captured.err.strip())["message"]

    @pytest.mark.parametrize("max_iters", ["0", "-1"])
    def test_max_iters_below_one_exits_two(self, grid_reward_file, capsys, max_iters):
        code = main(["solve", "--input", grid_reward_file, "--max-iters", max_iters])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "ValueError", "message": "max_iters must be at least 1"
        }

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_json_values_have_no_negative_zero(self, algorithm, capsys):
        # the golden file is in reward form and its terminal's value is 0
        golden = str(Path(__file__).parent / "data" / "gridworld.json")
        assert main(["solve", "--input", golden, "--algorithm", algorithm, "--format", "json"]) == 0
        tokens = []
        json.loads(capsys.readouterr().out, parse_float=lambda s: tokens.append(s) or float(s))
        assert "-0.0" not in tokens

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_overflowing_closed_form_is_inf(self, tmp_path, capsys, algorithm):
        # state 0 exits at cost 1 or steps to state 1 at cost 1e-300; state 1
        # exits at cost 1e300, so (J(i) - a) / b overflows on row 0
        prob = np.zeros((3, 2, 3))
        prob[:, :, 2] = 1.0
        prob[0, 1] = [0.0, 1.0, 0.0]
        cost = np.zeros_like(prob)
        cost[0, 0, 2], cost[0, 1, 1], cost[1, :, 2] = 1.0, 1e-300, 1e300
        path = tmp_path / "overflow.json"
        save_problem(SspProblem(3, 2, 2, prob=prob, cost=cost), path)
        code = main(
            ["solve", "--input", str(path), "--algorithm", algorithm, "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["trace"][0]["m"] == "inf"

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--algorithm", "vi"], ["solve", "--algorithm", "pi"], ["check"]],
        ids=["solve-vi", "solve-pi", "check"],
    )
    def test_overflowing_backup_is_silent(self, tmp_path, capsys, argv):
        # state 0 exits at cost 1e308, or stays or exits with probability 1/2
        # at cost 1e308 each, which backs up J(0) = 1e308 past the float range
        view = sspbounds.core.Transitions.from_entries(
            2, np.array([0, 1, 1, 2, 3]), np.array([1, 0, 1, 1, 1]),
            np.array([1.0, 0.5, 0.5, 1.0, 1.0]), np.array([1e308, 1e308, 1e308, 0.0, 0.0]),
        )
        path = tmp_path / "overflow.json"
        save_problem(SspProblem(2, 2, 1, transitions=view), path)
        values = values_file(tmp_path, "values.json", [1e308, 0.0])
        init = ["--values" if argv == ["check"] else "--init", values]
        assert main([*argv, "--input", str(path), *init]) == 0
        assert capsys.readouterr().err == ""


class TestOneBackupPerIterate:
    """A solve backs up each trace row's values once, its start check included."""

    # `last_row` counts the last row's backup: value iteration's stops it, and
    # policy iteration's last row repeats the row before it and shares its backup
    @pytest.mark.parametrize("algorithm, last_row", [("vi", 1), ("pi", 0)])
    @pytest.mark.parametrize("start", ["uniform-random", "file"])
    def test_backups_per_trace_row(
        self, grid, tmp_path, capsys, monkeypatch, algorithm, last_row, start
    ):
        golden = str(Path(__file__).parent / "data" / "gridworld.json")
        argv = ["solve", "--input", golden, "--algorithm", algorithm, "--format", "json"]
        if start == "file":
            uniform = evaluate_policy(grid, uniform_random_policy(grid))
            argv += ["--init", values_file(tmp_path, "uniform.json", (-uniform).tolist())]
        backups = backups_outside_evaluations(monkeypatch, sspbounds.cli)
        assert main(argv) == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        # the start check backs up row 0, except that policy iteration from a
        # values file starts from the evaluation of their greedy policy
        start_check = int(algorithm == "pi" and start == "file")
        assert len(backups) == len(trace) - 1 + last_row + start_check


class TestRowsCertifiedAsMade:
    """A solve certifies each trace row as the solver makes it, and keeps no row's values."""

    def test_no_row_keeps_its_values(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "grid.json"
        save_problem(open_grid(6), path)
        made = []
        row = sspbounds.bounds.BoundsContext.row

        def watched(context, iteration, values, *args, **kwargs):
            made.append(weakref.ref(values))
            # the command holds its start J, row 0, and the start's backup,
            # whose TJ is row 1; every later row is gone once the next is made
            assert all(ref() is None for ref in made[2:-1])
            return row(context, iteration, values, *args, **kwargs)

        monkeypatch.setattr(sspbounds.bounds.BoundsContext, "row", watched)
        assert main(["solve", "--input", str(path), "--algorithm", "vi", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["trace"]) == len(made) > 4


class TestValuesFile:
    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize(
        "values",
        [["a", 0], [10**400, 0], [1.0], [2.0, 1.0], [None, 0], {"a": 1}, "2,0", ["2.5", 0],
         [True, 0]],
    )
    def test_malformed_values_exit_two(self, stay_go_file, tmp_path, capsys, command, values):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"values": values}), encoding="utf-8")
        flag = "--values" if command == "check" else "--init"
        code = main([command, "--input", stay_go_file, flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.err.strip())["error"] == "ProblemFormatError"


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "content", [b'{"values": [0, \xff]}', b"[" * 100_000], ids=["not UTF-8", "deep"]
    )
    @pytest.mark.parametrize("command, flag", [("check", "--input"), ("check", "--values"),
                                               ("solve", "--init")])
    def test_exit_two(self, stay_go_file, tmp_path, capsys, command, flag, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        files = [flag, str(bad)] if flag == "--input" else ["--input", stay_go_file, flag, str(bad)]
        code = main([command, *files])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ProblemFormatError"

    def test_instance_file_with_a_byte_not_utf8(self, stay_go_file):
        path = Path(stay_go_file)
        path.write_bytes(path.read_bytes().replace(b'"prob"', b'"pr\xffb"', 1))
        with pytest.raises(ProblemFormatError, match="instance file is not valid"):
            load_problem(path)


class TestSolverFailures:
    """A solver that fails exits 3 with the one-line error, not a traceback."""

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_singular_system(self, grid_reward_file, capsys, monkeypatch, algorithm):
        def singular(*args):
            raise SingularSystem("policy evaluation residual 1e-3 exceeds 1e-10")

        monkeypatch.setattr(sspbounds.cli, "_value_iteration", singular)
        monkeypatch.setattr(sspbounds.cli, "_policy_iteration", singular)
        code = main(["solve", "--input", grid_reward_file, "--algorithm", algorithm])
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "SingularSystem",
            "message": "policy evaluation residual 1e-3 exceeds 1e-10",
        }

    def test_companion_solve_out_of_iterations(self, tmp_path, capsys, monkeypatch):
        problem = from_discounted(*random_discounted(np.random.default_rng(2)), 0.9)
        path = tmp_path / "disc.json"
        save_problem(problem, path)

        def exhausted(*args):
            raise MaxItersExceeded("policy iteration did not converge", None, None)

        monkeypatch.setattr(sspbounds.bounds, "policy_iteration", exhausted)
        code = main(["solve", "--input", str(path), "--bounds", "all-proper"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "MaxItersExceeded"


def free_delay_file(tmp_path):
    prob = np.zeros((2, 2, 2))
    prob[0, 0, 0] = 1.0  # free self-loop
    prob[0, 1, 1] = 1.0  # free exit
    prob[1, :, 1] = 1.0
    problem = SspProblem(
        num_states=2, num_actions=2, terminal=1, prob=prob, cost=np.zeros_like(prob)
    )
    path = tmp_path / "free_delay.json"
    save_problem(problem, path, convention="cost")
    return str(path)


def old_trace_columns(problem, trace, iterates, method):
    """The m and error columns by their definition, recomputed row by row.

    Each row runs the method's steps-bound procedure on its own J, from
    ``iterates`` (see ``helpers.row_values``), and takes the max over
    nonterminal, non-overridden states; the columns are blank where the
    row's J is not uniformly improvable.
    """
    assert len(iterates) == len(trace)
    mask = ~immediate_termination_states(problem)
    mask[problem.terminal] = False
    m_col, error_col = [], []
    for record, values in zip(trace.records, iterates):
        m = None
        if is_uniformly_improvable(problem, values):
            if method == "positive-cost":
                steps = steps_bound_positive_costs(problem, values)
            elif method == "all-proper":
                steps = steps_bound_all_proper(problem)
            else:
                try:
                    certificate = termination_horizon(problem, values)
                    steps = steps_bound_from_horizon(problem, certificate)
                except HorizonCapExceeded:
                    steps = None
            if steps is not None:
                m = float(steps[mask].max()) if mask.any() else 1.0
        m_col.append(m)
        error_col.append(None if m is None or record.residual is None else m * record.residual)
    return m_col, error_col


def solve_json(path, argv, tmp_path):
    out = tmp_path / "run.json"
    assert main(["solve", "--input", str(path), "--format", "json", "--output", str(out)] + argv) == 0
    return json.loads(out.read_text())


class TestTraceBounds:
    """Per-row m and error from the shared bounds context match their definition."""

    def check(self, problem, trace, iterates, payload, method):
        assert payload["config"]["bounds_method"] == method
        m_col, error_col = old_trace_columns(problem, trace, iterates, method)
        assert [row["m"] for row in payload["trace"]] == m_col
        assert [row["error"] for row in payload["trace"]] == error_col

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_gridworld_positive_cost(self, grid, grid_reward_file, tmp_path, algorithm):
        payload = solve_json(grid_reward_file, ["--algorithm", algorithm], tmp_path)
        with row_values() as iterates:
            if algorithm == "vi":
                start = evaluate_policy(grid, uniform_random_policy(grid))
                _, trace = value_iteration(grid, start, epsilon=1e-6)
            else:
                _, _, trace = policy_iteration(grid, uniform_random_policy(grid))
        self.check(grid, trace, iterates, payload, "positive-cost")

    def test_random_instances(self, tmp_path):
        rng = np.random.default_rng(5)
        for k in range(6):
            make = random_all_proper_ssp if k % 2 else random_proper_mixed_ssp
            problem = make(rng)
            path = tmp_path / f"random{k}.json"
            save_problem(problem, path)
            start = evaluate_policy(problem, uniform_random_policy(problem))
            with row_values() as iterates:
                _, trace = value_iteration(problem, start, epsilon=1e-6)
            payload = solve_json(path, ["--algorithm", "vi"], tmp_path)
            self.check(
                problem, trace, iterates, payload, "all-proper" if k % 2 else "positive-cost"
            )

    def test_zero_start_general(self, tmp_path):
        # stay-or-go with a reward for leaving, so the zero start is improvable
        prob, cost = dense(stay_or_go_instance())
        cost[0, 0, 1] = -1.0
        problem = SspProblem(num_states=2, num_actions=2, terminal=1, prob=prob, cost=cost)
        path = tmp_path / "leave.json"
        save_problem(problem, path)
        payload = solve_json(
            path, ["--algorithm", "vi", "--init", "zero", "--bounds", "general"], tmp_path
        )
        with row_values() as iterates:
            _, trace = value_iteration(problem, np.zeros(2), epsilon=1e-6)
        self.check(problem, trace, iterates, payload, "general")
        assert [row["m"] for row in payload["trace"]] == [3.0, 2.0]

    def test_one_companion_solve_per_run(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(71)
        transitions = rng.uniform(0.05, 1.0, size=(4, 2, 4))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, rng.normal(size=transitions.shape), 0.9)
        path = tmp_path / "disc.json"
        save_problem(problem, path)
        calls = []
        original = sspbounds.bounds.steps_bound_all_proper

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sspbounds.bounds, "steps_bound_all_proper", counted)
        payload = solve_json(path, ["--algorithm", "vi"], tmp_path)
        assert payload["bounds"]["method"] == "all-proper"
        assert len(payload["trace"]) > 2
        assert len(calls) == 1

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_one_properness_pass_per_run(self, tmp_path, monkeypatch, algorithm):
        problem = random_all_proper_ssp(np.random.default_rng(3))
        path = tmp_path / "proper.json"
        save_problem(problem, path)
        calls = []
        original = sspbounds.bounds.all_policies_proper

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sspbounds.bounds, "all_policies_proper", counted)
        payload = solve_json(path, ["--algorithm", algorithm], tmp_path)
        assert payload["bounds"]["method"] == "all-proper"
        assert len(calls) == 1

    def test_one_transition_view_per_general_run(self, tmp_path, monkeypatch):
        problem = build_gridworld()
        path = tmp_path / "grid.json"
        save_problem(problem, path)
        views = []

        def counting(original):
            def counted(cls, *args):
                views.append(original(cls, *args))
                return views[-1]

            return classmethod(counted)

        # the loader adopts the block reader's columns; from_entries builds the rest
        for name in ("from_entries", "_adopt"):
            original = getattr(sspbounds.core.Transitions, name).__func__
            monkeypatch.setattr(sspbounds.core.Transitions, name, counting(original))
        payload = solve_json(
            path, ["--algorithm", "vi", "--bounds", "general"], tmp_path
        )
        assert len(payload["trace"]) > 2
        assert payload["bounds"]["method"] == "general"
        assert len(views) == 1  # the loader's; nothing rebuilds the kernel
        assert "into" in vars(views[0])  # the search's reverse index, cached on the view

    def test_vacuous_horizon_bound_is_inf(self, tmp_path):
        spec = GridSpec(
            width=14, height=14, walls=(), exits={(0, 3): 1.0, (5, 0): -1.0},
            slip_redirects={},
        )
        problem = build_gridworld(spec)
        path = tmp_path / "open14.json"
        save_problem(problem, path)
        start = evaluate_policy(problem, uniform_random_policy(problem))
        assert termination_horizon(problem, start).m == 597  # rho_m = 0.1^596 underflows
        out = tmp_path / "run.json"
        code = main(
            ["solve", "--input", str(path), "--bounds", "general", "--format", "json",
             "--output", str(out)]
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["trace"][0]["m"] == "inf"
        assert payload["trace"][0]["error"] is None
        assert all(isinstance(row["m"], float) for row in payload["trace"][1:])

    def test_free_delay_stops_at_fixed_point(self, tmp_path, capsys):
        path = free_delay_file(tmp_path)
        start = time.perf_counter()
        code = main(
            ["solve", "--input", path, "--algorithm", "vi", "--init", "zero",
             "--bounds", "general"]
        )
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.err.strip())["error"] == "HorizonCapExceeded"
        assert elapsed < 1.0


class TestBench:
    def test_table2_passes(self, capsys):
        code = main(["bench", "table2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS: 5 rows x 11 states compared" in captured.out

    def test_table1_pi_passes(self, capsys):
        code = main(["bench", "table1", "--algorithm", "pi"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS: 5 rows compared" in captured.out

    def test_table1_vi_passes(self, capsys):
        code = main(["bench", "table1", "--algorithm", "vi"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS: 13 rows compared" in captured.out

    def test_failure_lists_offenders_and_exits_one(self, capsys, monkeypatch):
        broken = list(gw.EXPECTED_TABLE2)
        broken[1] = gw.Table2Row(1, tuple([9.9] + list(broken[1].values[1:])), broken[1].steps)
        monkeypatch.setattr(gw, "EXPECTED_TABLE2", tuple(broken))
        code = main(["bench", "table2"])
        captured = capsys.readouterr()
        assert code == 1
        assert "J(0)" in captured.err
        assert "FAIL" in captured.err

    def test_table_written_to_output_file(self, tmp_path, capsys):
        out = tmp_path / "table2.csv"
        code = main(["bench", "table2", "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_text().startswith("iter,J0,N0")

    @pytest.mark.parametrize(
        "args,golden",
        [
            (["table1"], "bench_table1_pi.csv"),
            (["table1", "--algorithm", "vi"], "bench_table1_vi.csv"),
            (["table2"], "bench_table2.csv"),
        ],
    )
    def test_tables_are_the_golden_files(self, args, golden, tmp_path, capsys):
        out = tmp_path / golden
        code = main(["bench", *args, "--output", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_bytes() == (Path(__file__).parent / "data" / golden).read_bytes()


class TestCheck:
    def test_stay_go_witness(self, stay_go_file, capsys):
        code = main(["check", "--input", stay_go_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["all_policies_proper"]["all_policies_proper"] is False
        assert payload["all_policies_proper"]["witness_states"] == [0]
        assert payload["uniform_random_policy"]["proper"] is True

    def test_discounted_reduction_all_proper(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        transitions = rng.uniform(0.1, 1.0, size=(3, 2, 3))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, rng.normal(size=transitions.shape), 0.9)
        path = tmp_path / "disc.json"
        save_problem(problem, path, convention="cost")
        code = main(["check", "--input", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["all_policies_proper"]["all_policies_proper"] is True

    def test_values_add_certificate(self, grid_reward_file, grid_optimal_values, tmp_path, capsys):
        init = values_file(tmp_path, "opt.json", (-grid_optimal_values).tolist())
        code = main(["check", "--input", grid_reward_file, "--values", init])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["uniformly_improvable"] is True
        certificate = payload["horizon_certificate"]
        assert certificate["m"] > 0
        # one entry per state, whatever m
        assert len(certificate["joined_at"]) == len(certificate["values"]) == 12

    def test_values_output_is_the_golden_file(self, tmp_path):
        data = Path(__file__).parent / "data"
        out = tmp_path / "check.json"
        argv = ["check", "--input", str(data / "gridworld.json"),
                "--values", str(data / "gridworld_uniform_values.json"), "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (data / "check_gridworld_uniform.json").read_bytes()

    def test_reward_file_certificate_is_in_cost_form(self, grid, tmp_path, capsys):
        golden = str(Path(__file__).parent / "data" / "gridworld.json")
        uniform = evaluate_policy(grid, uniform_random_policy(grid))
        init = values_file(tmp_path, "uniform.json", (-uniform).tolist())  # reward form
        assert main(["check", "--input", golden, "--values", init]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["convention"] == "reward"
        certificate = payload["horizon_certificate"]
        # the +1 exit's reward, negated: the cheapest transition into the terminal costs -1
        assert certificate["min_terminal_cost"] == -1.0
        # avoidance costs: each stage outside the inevitable set pays the 0.04 step cost
        avoidance = [v for v in certificate["values"] if v is not None]
        assert avoidance and all(v > 0.0 for v in avoidance)

    def test_one_backup_gives_verdict_and_certificate(
        self, grid_reward_file, grid, tmp_path, capsys, monkeypatch
    ):
        calls = []
        original = sspbounds.dp.action_values

        def counted(*args):
            calls.append(args)
            return original(*args)

        # every backup goes through action_values
        monkeypatch.setattr(sspbounds.dp, "action_values", counted)
        uniform = evaluate_policy(grid, uniform_random_policy(grid))
        for values, improvable in ((uniform, True), (np.zeros(grid.num_states), False)):
            calls.clear()
            path = values_file(tmp_path, "j.json", (-values).tolist())
            assert main(["check", "--input", grid_reward_file, "--values", path]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["uniformly_improvable"] is improvable
            assert ("horizon_certificate" in payload) is improvable
            assert len(calls) == 1

    def test_cheap_delay_gives_up_at_once(self, tmp_path, capsys):
        path = tmp_path / "cheap_delay.json"
        save_problem(cheap_delay_instance(), path, convention="cost")
        init = values_file(tmp_path, "j.json", [10.0, 0.0])
        start = time.perf_counter()
        code = main(["check", "--input", str(path), "--values", init])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 4
        error = json.loads(captured.err.strip())
        assert error["error"] == "HorizonCapExceeded"
        assert "within 1 stages" in error["message"]
        assert elapsed < 1.0

    def test_slow_rise_gives_up_at_once(self, tmp_path, capsys):
        # state 0's stage value rises by 1e-9 a stage, so J - a = 1 lies past the cap
        path = tmp_path / "crawl.json"
        save_problem(crawl_instance(), path, convention="cost")
        init = values_file(tmp_path, "j.json", [2.0, 0.0])
        start = time.perf_counter()
        code = main(["check", "--input", str(path), "--values", init])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.err) == {
            "error": "HorizonCapExceeded",
            "message": "termination horizon not found within 1000000 stages; "
            "instance likely admits a nonpositive-cost nonterminal cycle",
        }
        assert elapsed < 1.0

    def test_memory_scales_with_the_records(self, tmp_path, capsys):
        # 2000 states, 2 actions, 3 targets per row: about 12k records
        rng = np.random.default_rng(12)
        num_states, terminal = 2000, 1999
        records = [
            {"from": terminal, "action": u, "to": terminal, "prob": 1.0, "cost": 0.0}
            for u in range(2)
        ]
        for i in range(terminal):
            for u in range(2):
                targets = rng.choice(terminal, size=2, replace=False).tolist()
                weights = (0.9 * rng.dirichlet(np.ones(2))).tolist()
                for j, p in zip(targets + [terminal], weights + [1.0 - sum(weights)]):
                    records.append({"from": i, "action": u, "to": j, "prob": p, "cost": 1.0})
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "num_states": num_states, "num_actions": 2, "terminal": terminal,
            "convention": "cost", "transitions": records,
        }), encoding="utf-8")
        del records
        output = tmp_path / "check.json"
        tracemalloc.start()
        try:
            code = main(["check", "--input", str(path), "--output", str(output)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(output.read_text())["uniform_random_policy"]["proper"] is True
        # a dense (S, A, S) kernel alone would take 64 MB
        assert peak < 16e6

    def test_check_rejects_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"num_states": 1}), encoding="utf-8")
        code = main(["check", "--input", str(path)])
        capsys.readouterr()
        assert code == 2


class TestConvert:
    def test_round_trip(self, grid_reward_file, tmp_path, capsys):
        cost_file = tmp_path / "cost.json"
        back = tmp_path / "reward_again.json"
        assert main(["convert", "--input", grid_reward_file, "--output", str(cost_file)]) == 0
        assert json.loads(cost_file.read_text())["convention"] == "cost"
        assert main(["convert", "--input", str(cost_file), "--output", str(back)]) == 0
        import pathlib

        assert back.read_bytes() == pathlib.Path(grid_reward_file).read_bytes()
        capsys.readouterr()

    def test_converted_instances_agree(self, grid_reward_file, grid, tmp_path, capsys):
        cost_file = tmp_path / "cost.json"
        main(["convert", "--input", grid_reward_file, "--output", str(cost_file)])
        capsys.readouterr()
        loaded, convention = load_problem(cost_file)
        assert convention == "cost"
        assert np.array_equal(dense(loaded).cost, dense(grid).cost)

    def test_convert_to_stdout(self, stay_go_file, capsys):
        assert main(["convert", "--input", stay_go_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["convention"] == "reward"
        go = [r for r in payload["transitions"] if r["from"] == 0 and r["action"] == 0]
        assert go[0]["cost"] == -2.0


class TestFuzz:
    """Seeded random small instances through the CLI: documented exit codes only."""

    def test_exit_codes_and_stderr(self, tmp_path, capsys):
        rng = np.random.default_rng(0)

        def pick(*options):
            return options[int(rng.integers(len(options)))]

        codes = []
        start = time.perf_counter()
        for k in range(75):
            data = fuzz_instance(rng)
            path = tmp_path / f"fuzz{k}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            num_states = data["num_states"]
            values = [fuzz_cost(rng) * float(rng.integers(1, 10)) for _ in range(num_states)]
            try:
                # the uniform policy's values are often uniformly improvable
                problem, convention = load_problem(path)
                uniform = evaluate_policy(problem, uniform_random_policy(problem))
                if rng.random() < 0.5 and np.isfinite(uniform).all():
                    values = (uniform if convention == "cost" else -uniform).tolist()
            except SspError:
                pass  # an invalid instance or an improper uniform policy
            values[data["terminal"]] = 0.0
            init = values_file(tmp_path, f"values{k}.json", values)
            solve = [
                "solve", "--input", str(path), "--algorithm", pick("vi", "pi"),
                "--bounds", pick("auto", "positive-cost", "all-proper", "general"),
                "--format", pick("csv", "json"), "--max-iters", pick("5", "50"),
            ]
            calls = [
                solve + ["--init", pick("uniform-random", "zero")],
                ["check", "--input", str(path)],
                ["check", "--input", str(path), "--values", init],
                solve + ["--init", init],
            ]
            for argv in calls:
                called = time.perf_counter()
                code = main(argv)
                elapsed = time.perf_counter() - called
                captured = capsys.readouterr()
                assert elapsed < 2.0, argv
                assert code in (0, 2, 3, 4), argv
                if code == 0:
                    assert captured.err == "", argv
                else:
                    [line] = captured.err.splitlines()
                    assert sorted(json.loads(line)) == ["error", "message"], argv
                codes.append(code)
        assert {0, 3} <= set(codes)
        # a search that cannot stop within its cap gives up at once, where it crawled for seconds
        assert time.perf_counter() - start < 10.0
