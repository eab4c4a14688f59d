"""Command-line front end: solve instances, check properness, reproduce tables.

Exit codes: 0 success, 1 benchmark comparison failure, 2 input validation
failure, 3 solver precondition failure (improper policy, value function not
uniformly improvable, or a steps-bound method invoked outside its
precondition), 4 horizon cap exceeded. Every failure writes a single-line
JSON object to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import gridworld as gw
from .core import (
    SspProblem,
    check_values,
    load_problem,
    problem_to_json_dict,
    save_problem,
)
from .dp import (
    evaluate_policy,
    greedy_policy,
    policy_iteration,
    require_uniformly_improvable,
    trace_csv,
    value_iteration,
)
from .errors import (
    HorizonCapExceeded,
    MaxItersExceeded,
    NotUniformlyImprovable,
    ProblemFormatError,
    SolverPreconditionError,
    ValidationError,
)
from .properness import all_policies_proper, is_proper, uniform_random_policy

EXIT_OK = 0
EXIT_BENCH_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_HORIZON_CAP = 4


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one CLI invocation."""

    command: str
    input: str | None = None
    algorithm: str = "pi"
    init: str = "uniform-random"
    epsilon: float = 1e-6
    max_iters: int = 10_000
    bounds_method: str = "auto"
    output_format: str = "csv"
    output: str | None = None
    table: str | None = None
    values: str | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:  # NaN too
            raise ValueError("epsilon must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _error_line(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload) + "\n")


def _load_values_file(path: str, problem: SspProblem, convention: str) -> np.ndarray:
    """Read a value-function file written in the problem file's convention."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"value file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "values" not in data:
        raise ProblemFormatError("value file must be an object with a 'values' field")
    entries = data["values"]
    # JSON numbers only: numpy would also read booleans and numeric strings
    if not isinstance(entries, list) or any(type(v) not in (int, float) for v in entries):
        raise ProblemFormatError("value file 'values' must be a list of numbers")
    try:
        values = check_values(problem, entries)
    except (ValueError, OverflowError) as exc:
        raise ProblemFormatError(f"malformed value file: {exc}") from exc
    return np.negative(values) if convention == "reward" else values


def _initial_values(config: RunConfig, problem: SspProblem, convention: str) -> np.ndarray:
    if config.init == "uniform-random":
        return evaluate_policy(problem, uniform_random_policy(problem))
    if config.init == "zero":
        return np.zeros(problem.num_states)
    return _load_values_file(config.init, problem, convention)


def cmd_solve(config: RunConfig) -> int:
    problem, convention = load_problem(config.input)
    sign = -1.0 if convention == "reward" else 1.0
    initial = _initial_values(config, problem, convention)
    # every bound this command reports relies on a uniformly improvable start
    require_uniformly_improvable(problem, initial)

    # A truncated run is not an error: the final iterate still carries
    # valid bounds, so report what we have and note the truncation.
    truncated = False
    try:
        if config.algorithm == "vi":
            values, trace = value_iteration(
                problem, initial, config.epsilon, config.max_iters
            )
        else:
            if config.init == "uniform-random":
                start_policy = uniform_random_policy(problem)
            else:
                start_policy = greedy_policy(problem, initial)
            _, values, trace = policy_iteration(problem, start_policy, config.max_iters)
    except MaxItersExceeded as exc:
        values, trace = exc.values, exc.trace
        truncated = True

    # the report covers the trace's last iterate, which is `values`
    context = bounds_mod.BoundsContext.for_problem(problem, config.bounds_method)
    report, rows = context.certify(trace, sign)

    if config.output_format == "csv":
        _emit(
            trace_csv(
                (rec.iteration, row.j_under, row.m, rec.residual, row.error)
                for rec, row in zip(trace.records, rows)
            ),
            config.output,
        )
    else:
        payload = {
            "config": {
                "algorithm": config.algorithm,
                "init": config.init,
                "epsilon": config.epsilon,
                "max_iters": config.max_iters,
                "bounds_method": context.method,
                "convention": convention,
                "truncated": truncated,
            },
            "trace": [
                {
                    "iter": rec.iteration,
                    "J_under": row.j_under,
                    "m": bounds_mod.json_number(row.m),
                    "residual": rec.residual,
                    "error": bounds_mod.json_number(row.error),
                }
                for rec, row in zip(trace.records, rows)
            ],
            "values": [sign * v for v in values.tolist()],
            "bounds": report.to_json_dict(),
        }
        _emit(json.dumps(payload, indent=2) + "\n", config.output)
    return EXIT_OK


def cmd_bench(config: RunConfig) -> int:
    problem = gw.build_gridworld()
    if config.table == "table2":
        rows = gw.run_table2(problem)
        mismatches = gw.compare_table2(rows)
        _emit(gw.table2_csv(rows), config.output)
        compared = f"{len(rows)} rows x {len(rows[0].values)} states"
    else:
        rows = gw.run_table1(problem, config.algorithm)
        expected = (
            gw.EXPECTED_TABLE1_VI if config.algorithm == "vi" else gw.EXPECTED_TABLE1_PI
        )
        mismatches = gw.compare_table1(rows, expected, config.algorithm)
        _emit(trace_csv(rows), config.output)
        compared = f"{len(rows)} rows"
    if mismatches:
        for line in mismatches:
            sys.stderr.write(line + "\n")
        sys.stderr.write(f"FAIL: {len(mismatches)} cells outside tolerance\n")
        return EXIT_BENCH_MISMATCH
    sys.stdout.write(f"PASS: {compared} compared\n")
    return EXIT_OK


def cmd_check(config: RunConfig) -> int:
    problem, convention = load_problem(config.input)
    report = all_policies_proper(problem)
    uniform = is_proper(problem, uniform_random_policy(problem))
    payload: dict = {
        "convention": convention,
        "all_policies_proper": report.to_json_dict(),
        "uniform_random_policy": uniform.to_json_dict(),
    }
    if config.values:
        values = _load_values_file(config.values, problem, convention)
        # the search's own precondition backup gives the improvability verdict
        try:
            certificate = bounds_mod.termination_horizon(problem, values)
        except NotUniformlyImprovable:
            payload["uniformly_improvable"] = False
        else:
            payload["uniformly_improvable"] = True
            payload["horizon_certificate"] = certificate.to_json_dict()
    _emit(json.dumps(payload, indent=2) + "\n", config.output)
    return EXIT_OK


def cmd_convert(config: RunConfig) -> int:
    problem, convention = load_problem(config.input)
    flipped = "reward" if convention == "cost" else "cost"
    if config.output:
        save_problem(problem, config.output, convention=flipped)
    else:
        text = json.dumps(problem_to_json_dict(problem, flipped), indent=2)
        sys.stdout.write(text + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sspbounds",
        description="Shortest path MDP solvers with certified suboptimality bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver and report bounds")
    solve.add_argument("--input", required=True, help="problem JSON file")
    solve.add_argument("--algorithm", choices=("vi", "pi"), default="pi")
    solve.add_argument(
        "--init",
        default="uniform-random",
        help="'uniform-random', 'zero', or a value-function JSON file",
    )
    solve.add_argument("--epsilon", type=float, default=1e-6)
    solve.add_argument("--max-iters", type=int, default=10_000)
    solve.add_argument(
        "--bounds",
        dest="bounds_method",
        choices=("auto", "positive-cost", "all-proper", "general"),
        default="auto",
    )
    solve.add_argument(
        "--format", dest="output_format", choices=("csv", "json"), default="csv"
    )
    solve.add_argument("--output", default=None)

    bench = sub.add_parser("bench", help="reproduce the gridworld tables")
    bench.add_argument("table", choices=("table1", "table2"))
    bench.add_argument("--algorithm", choices=("vi", "pi"), default="pi")
    bench.add_argument("--output", default=None)

    check = sub.add_parser("check", help="properness and improvability analysis")
    check.add_argument("--input", required=True)
    check.add_argument("--values", default=None, help="value-function JSON file")
    check.add_argument("--output", default=None)

    convert = sub.add_parser("convert", help="flip a file between reward and cost form")
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each subcommand's options are named after RunConfig's fields
        config = RunConfig(**vars(args))
    except ValueError as exc:
        _error_line(exc)
        return EXIT_VALIDATION
    handlers = {
        "solve": cmd_solve,
        "bench": cmd_bench,
        "check": cmd_check,
        "convert": cmd_convert,
    }
    try:
        return handlers[config.command](config)
    except ValidationError as exc:
        _error_line(exc)
        return EXIT_VALIDATION
    except SolverPreconditionError as exc:
        _error_line(exc)
        return EXIT_PRECONDITION
    except HorizonCapExceeded as exc:
        _error_line(exc)
        return EXIT_HORIZON_CAP
    except OSError as exc:
        _error_line(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
