"""Command-line front end: solve instances, check properness, reproduce tables.

Exit codes: 0 success, 1 benchmark comparison failure, 2 input validation
failure, 3 solver failure (improper policy, value function not uniformly
improvable, a steps-bound method invoked outside its precondition, a policy
evaluation that fails numerically, or the all-proper bound's companion solve
running out of iterations), 4 horizon cap exceeded. Every failure writes a
single-line JSON object to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .core import (
    DeterministicPolicy,
    SspProblem,
    _json_chunks,
    check_values,
    load_problem,
    read_json,
    save_problem,
)
from .dp import (
    _policy_iteration,
    _value_iteration,
    bellman_residual,
    evaluate_policy,
    require_uniformly_improvable,
    trace_csv,
)
from .errors import (
    HorizonCapExceeded,
    MaxItersExceeded,
    NotUniformlyImprovable,
    ProblemFormatError,
    SingularSystem,
    SolverPreconditionError,
    ValidationError,
)
from .properness import all_policies_proper, is_proper, uniform_random_policy

EXIT_OK = 0
EXIT_BENCH_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_HORIZON_CAP = 4


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
    data = read_json(path, "value file")
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


def _initial_values(init: str, problem: SspProblem, convention: str) -> np.ndarray:
    if init == "uniform-random":
        return evaluate_policy(problem, uniform_random_policy(problem))
    if init == "zero":
        return np.zeros(problem.num_states)
    return _load_values_file(init, problem, convention)


def cmd_solve(args: argparse.Namespace) -> int:
    problem, convention = load_problem(args.input)
    sign = -1.0 if convention == "reward" else 1.0
    initial = _initial_values(args.init, problem, convention)
    # every bound this command reports relies on a uniformly improvable start
    start = require_uniformly_improvable(problem, initial)

    context = bounds_mod.BoundsContext.for_problem(problem, args.bounds_method)
    # each row is certified as the solver makes it, so no row keeps its J
    row = functools.partial(context.row, sign=sign)

    # A truncated run is not an error: the final iterate still carries
    # valid bounds, so report what we have and note the truncation.
    truncated = False
    try:
        if args.algorithm == "vi":
            values, trace = _value_iteration(
                problem, initial, start, args.epsilon, args.max_iters, row
            )
        elif args.init == "uniform-random":
            # `initial` is this policy's evaluation, and `start` its backup
            _, values, trace = _policy_iteration(
                problem, uniform_random_policy(problem), initial, start, args.max_iters, row
            )
        else:
            # row 0 evaluates the start's greedy policy, as policy_iteration does
            policy = DeterministicPolicy(actions=start.actions)
            values = evaluate_policy(problem, policy)
            _, values, trace = _policy_iteration(
                problem, policy, values, bellman_residual(problem, values), args.max_iters, row
            )
    except MaxItersExceeded as exc:
        values, trace = exc.values, exc.trace
        truncated = True

    # the report covers the trace's last iterate, which is `values`
    report = context._report(values, trace.last.require_improvable())

    if args.output_format == "csv":
        _emit(trace_csv(trace.records), args.output)
    else:
        payload = {
            "config": {
                "algorithm": args.algorithm,
                "init": args.init,
                "epsilon": args.epsilon,
                "max_iters": args.max_iters,
                "bounds_method": context.method,
                "convention": convention,
                "truncated": truncated,
            },
            "trace": [
                {
                    "iter": row.iteration,
                    "J_under": row.j_under,
                    "m": bounds_mod.json_number(row.m),
                    "residual": row.residual,
                    "error": bounds_mod.json_number(row.error),
                }
                for row in trace.records
            ],
            # 0.0 - v, not -v, which turns the terminal's zero into -0.0
            "values": (0.0 - values if convention == "reward" else values).tolist(),
            "bounds": report.to_json_dict(),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import gridworld as gw  # only this command loads it

    problem = gw.build_gridworld()
    if args.table == "table2":
        rows = gw.run_table2(problem)
        mismatches = gw.compare_table2(rows)
        _emit(gw.table2_csv(rows), args.output)
        compared = f"{len(rows)} rows x {len(rows[0].values)} states"
    else:
        rows = gw.run_table1(problem, args.algorithm)
        expected = (
            gw.EXPECTED_TABLE1_VI if args.algorithm == "vi" else gw.EXPECTED_TABLE1_PI
        )
        mismatches = gw.compare_table1(rows, expected, args.algorithm)
        _emit(trace_csv(rows), args.output)
        compared = f"{len(rows)} rows"
    if mismatches:
        for line in mismatches:
            sys.stderr.write(line + "\n")
        sys.stderr.write(f"FAIL: {len(mismatches)} cells outside tolerance\n")
        return EXIT_BENCH_MISMATCH
    sys.stdout.write(f"PASS: {compared} compared\n")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    problem, convention = load_problem(args.input)
    report = all_policies_proper(problem)
    uniform = is_proper(problem, uniform_random_policy(problem))
    payload: dict = {
        "convention": convention,
        "all_policies_proper": report.to_json_dict(),
        "uniform_random_policy": uniform.to_json_dict(),
    }
    if args.values:
        values = _load_values_file(args.values, problem, convention)
        # the search's own precondition backup gives the improvability verdict
        try:
            certificate = bounds_mod.termination_horizon(problem, values)
        except NotUniformlyImprovable:
            payload["uniformly_improvable"] = False
        else:
            payload["uniformly_improvable"] = True
            payload["horizon_certificate"] = certificate.to_json_dict()
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    problem, convention = load_problem(args.input)
    flipped = "reward" if convention == "cost" else "cost"
    if args.output:
        save_problem(problem, args.output, convention=flipped)
    else:
        sys.stdout.writelines(_json_chunks(problem, flipped))
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
    solve.set_defaults(handler=cmd_solve)

    bench = sub.add_parser("bench", help="reproduce the gridworld tables")
    bench.add_argument("table", choices=("table1", "table2"))
    bench.add_argument("--algorithm", choices=("vi", "pi"), default="pi")
    bench.add_argument("--output", default=None)
    bench.set_defaults(handler=cmd_bench)

    check = sub.add_parser("check", help="properness and improvability analysis")
    check.add_argument("--input", required=True)
    check.add_argument("--values", default=None, help="value-function JSON file")
    check.add_argument("--output", default=None)
    check.set_defaults(handler=cmd_check)

    convert = sub.add_parser("convert", help="flip a file between reward and cost form")
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", default=None)
    convert.set_defaults(handler=cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the ranges of solve's two numbers, which their argparse types do not check
    message = None
    if args.command == "solve":
        if not 0 < args.epsilon < math.inf:  # NaN too
            message = "epsilon must be positive and finite"
        elif args.max_iters < 1:
            message = "max_iters must be at least 1"
    if message:
        _error_line(ValueError(message))
        return EXIT_VALIDATION
    try:
        return args.handler(args)
    except ValidationError as exc:
        _error_line(exc)
        return EXIT_VALIDATION
    except (SolverPreconditionError, SingularSystem, MaxItersExceeded) as exc:
        # cmd_solve keeps its own solve's MaxItersExceeded as a truncated run;
        # one that reaches here is the all-proper companion solve's
        _error_line(exc)
        return EXIT_SOLVER
    except HorizonCapExceeded as exc:
        _error_line(exc)
        return EXIT_HORIZON_CAP
    except OSError as exc:
        _error_line(exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
