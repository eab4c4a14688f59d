import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import dense, random_all_proper_ssp, random_proper_mixed_ssp, stay_or_go_instance
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
from sspbounds.errors import HorizonCapExceeded
import sspbounds.bounds
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


def old_trace_columns(problem, trace, method):
    """The m and error columns by their definition, recomputed row by row.

    Each row runs the method's steps-bound procedure on its own J and takes
    the max over nonterminal, non-overridden states; the columns are blank
    where the row's J is not uniformly improvable.
    """
    mask = ~immediate_termination_states(problem)
    mask[problem.terminal] = False
    m_col, error_col = [], []
    for record in trace.records:
        m = None
        if is_uniformly_improvable(problem, record.values):
            if method == "positive-cost":
                steps = steps_bound_positive_costs(problem, record.values)
            elif method == "all-proper":
                steps = steps_bound_all_proper(problem)
            else:
                try:
                    certificate = termination_horizon(problem, record.values)
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

    def check(self, problem, trace, payload, method):
        assert payload["config"]["bounds_method"] == method
        m_col, error_col = old_trace_columns(problem, trace, method)
        assert [row["m"] for row in payload["trace"]] == m_col
        assert [row["error"] for row in payload["trace"]] == error_col

    @pytest.mark.parametrize("algorithm", ["vi", "pi"])
    def test_gridworld_positive_cost(self, grid, grid_reward_file, tmp_path, algorithm):
        payload = solve_json(grid_reward_file, ["--algorithm", algorithm], tmp_path)
        if algorithm == "vi":
            start = evaluate_policy(grid, uniform_random_policy(grid))
            _, trace = value_iteration(grid, start, epsilon=1e-6)
        else:
            _, _, trace = policy_iteration(grid, uniform_random_policy(grid))
        self.check(grid, trace, payload, "positive-cost")

    def test_random_instances(self, tmp_path):
        rng = np.random.default_rng(5)
        for k in range(6):
            make = random_all_proper_ssp if k % 2 else random_proper_mixed_ssp
            problem = make(rng)
            path = tmp_path / f"random{k}.json"
            save_problem(problem, path)
            start = evaluate_policy(problem, uniform_random_policy(problem))
            _, trace = value_iteration(problem, start, epsilon=1e-6)
            payload = solve_json(path, ["--algorithm", "vi"], tmp_path)
            self.check(problem, trace, payload, "all-proper" if k % 2 else "positive-cost")

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
        _, trace = value_iteration(problem, np.zeros(2), epsilon=1e-6)
        self.check(problem, trace, payload, "general")
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
        original = sspbounds.core.Transitions.from_entries.__func__

        def counted(cls, *args):
            views.append(original(cls, *args))
            return views[-1]

        monkeypatch.setattr(sspbounds.core.Transitions, "from_entries", classmethod(counted))
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
        original = sspbounds.dp.bellman_backup

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(sspbounds.dp, "bellman_backup", counted)
        uniform = evaluate_policy(grid, uniform_random_policy(grid))
        for values, improvable in ((uniform, True), (np.zeros(grid.num_states), False)):
            calls.clear()
            path = values_file(tmp_path, "j.json", (-values).tolist())
            assert main(["check", "--input", grid_reward_file, "--values", path]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["uniformly_improvable"] is improvable
            assert ("horizon_certificate" in payload) is improvable
            assert len(calls) == 1

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
