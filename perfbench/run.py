#!/usr/bin/env python3
"""Benchmark of the ``sspbounds`` command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid-pi --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` times fresh ``sspbounds`` child processes, one at a time, for
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
runs the same command in process with the library's public functions
wrapped (see ``tracer.py``) and reports the per-layer metrics. Both check
every output against an independent reference (``reference.py``), print
each metric with its unit, write a results file under ``.perfbench/`` and
end with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
The workloads and the reasons for them are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# One BLAS/OpenMP thread everywhere, so that timings do not depend on how
# many of the host's cores happen to be free.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # BLAS reads its thread count when numpy loads, so pin it before the imports below.
    os.environ.update(dict.fromkeys(THREAD_VARS, THREADS))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracer import Tracer, inclusive, layer_self_times, self_times  # noqa: E402
from workloads import WORKLOADS, cli_args, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# The set-up is timed up to SETUP_REPEATS times per run, each between two
# runs of the in-process set-up reference task below, and the median ratio
# reported; after MIN_SETUP_REPEATS it stops once SETUP_SECONDS have passed,
# so that slow set-ups do not crowd out the measured runs.
SETUP_REPEATS = 5
MIN_SETUP_REPEATS = 3
SETUP_SECONDS = 6.0
# Fresh interpreters timed per side when measuring the cost of the CLI import.
IMPORT_REPEATS = 5
# Counts must repeat exactly, so a traced run makes at least two passes.
MIN_TRACED_PASSES = 2
CLI_ENTRY = "import sys; from sspbounds.cli import main; sys.exit(main())"
# A fixed computation that does not touch the program: a fresh interpreter
# that loads numpy, solves dense systems, sweeps arrays, round-trips JSON and
# runs a Python loop, the mix the workloads spend their time on. It runs
# between samples, and each sample is divided by the mean of the reference
# times just before and just after it. On a shared host the speed of the
# same run drifts by 25-50 % over minutes; the ratio cancels most of that
# drift, which the raw times cannot.
REFERENCE_TASK = """
import json
import numpy as np
rng = np.random.default_rng(0)
a = rng.random((300, 300)) + 300 * np.eye(300)
for _ in range(40):
    np.linalg.solve(a, a[0])
b = rng.random((4, 600, 600))
for _ in range(8):
    np.einsum("uij,uij->ui", b, b + 1.0)
rows = [{"from": i, "to": i + 1, "prob": 0.5, "cost": i * 0.25} for i in range(40000)]
json.loads(json.dumps(rows))
seen = set()
for i in range(300000):
    seen.add((i, i % 7))
"""

# The set-up runs in the benchmark's own process and spends its time in
# Python loops over numpy scalars, building dicts, indented JSON encoding
# and one file write (``save_problem``). Its raw time drifted by 25-75 %
# between sets of runs on a shared host, the same as the child processes'
# times, so it is normalized the same way: each set-up is divided by the
# mean time of this task, which does that kind of work on a fixed array,
# just before and just after it. ``setup_s`` is the median ratio times
# SETUP_REFERENCE_S, the task's median time on the host the benchmark was
# written on (2 vCPUs, Python 3.11, numpy 2.4), so it reads as seconds on
# that host; the raw median is printed as ``setup_raw_s``.
SETUP_REFERENCE_S = 0.33
SETUP_REFERENCE_SHAPE = (140, 4, 140)


def setup_reference(path: Path) -> float:
    """Wall time of a fixed task doing the set-up's kind of work."""
    probs = np.random.default_rng(0).random(SETUP_REFERENCE_SHAPE)
    probs[probs < 0.5] = 0.0
    start = time.perf_counter()
    records = []
    for i in range(probs.shape[0]):
        for u in range(probs.shape[1]):
            for j in range(probs.shape[2]):
                p = probs[i, u, j]
                if p > 0.0:
                    records.append({"from": i, "action": u, "to": j, "prob": float(p),
                                    "cost": float(1.0 - p) + 0.0})
    path.write_text(json.dumps({"transitions": records}, indent=2) + "\n", encoding="utf-8")
    elapsed = time.perf_counter() - start
    path.unlink()
    return elapsed


def measure_setup(lib, workload, seed: int, workdir: Path, tiny: bool):
    """Generate the inputs several times, each between two reference tasks.

    Returns the last inputs, the set-up times and the reference times
    (one more than set-ups: before the first, then after each).
    """
    reference_file = workdir / "setup_reference.json"
    start = time.perf_counter()
    setups, references = [], [setup_reference(reference_file)]
    while len(setups) < MIN_SETUP_REPEATS or (
            len(setups) < SETUP_REPEATS and time.perf_counter() - start < SETUP_SECONDS):
        inputs = generate(lib, workload, seed, workdir, tiny)
        setups.append(inputs.setup_s)
        references.append(setup_reference(reference_file))
    return inputs, setups, references


# Per-layer values that must repeat exactly between traced passes.
EXACT = ("properness.is_proper_calls", "dp.backup_calls", "dp.evaluate_calls", "dp.iterations",
         "bounds.steps_all_proper_calls", "bounds.horizon_stages", "cli.output_bytes")


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(dict.fromkeys(THREAD_VARS, THREADS))
    return env


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "omp_threads": THREADS,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


@dataclass(frozen=True)
class Sample:
    wall_s: float
    reference_s: float  # mean of the reference runs around this sample
    rss_mb: float
    failure: str | None


def timed_python(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def run_child(argv: list[str], env: dict, output: Path, stderr_path: Path,
              ref) -> tuple[float, float, str | None]:
    """Wall time (spawn to exit), peak RSS and check result of one ``sspbounds`` command."""
    output.unlink(missing_ok=True)
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_ENTRY, *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    failure = reference.check_output(ref, proc.returncode, output)
    return wall, usage.ru_maxrss * 1024 / 1e6, failure


def measure_end_to_end(workload, inputs, ref, workdir: Path, seconds: float) -> list[Sample]:
    """Run the workload's command back to back while another run fits in ``seconds``."""
    env = child_env()
    output = workdir / "output.json"
    argv = cli_args(workload, inputs, output)
    # Compile the package's bytecode and load numpy from disk once, untimed,
    # as an installed package in use would have them.
    timed_python("import sspbounds.cli", env)
    timed_python(REFERENCE_TASK, env)
    samples: list[Sample] = []
    start = time.perf_counter()
    before = timed_python(REFERENCE_TASK, env)
    while not samples or (time.perf_counter() - start
                          + samples[-1].wall_s + before <= seconds):
        wall, rss, failure = run_child(argv, env, output, workdir / "stderr.txt", ref)
        after = timed_python(REFERENCE_TASK, env)
        samples.append(Sample(wall, (before + after) / 2, rss, failure))
        before = after
    return samples


def import_time(env: dict) -> float:
    """Fresh-interpreter cost of ``import sspbounds.cli`` over a bare start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(timed_python("pass", env))
        full.append(timed_python("import sspbounds.cli", env))
    return statistics.median(full) - statistics.median(bare)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays (and scipy sparse parts) among an object's fields."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif all(hasattr(value, a) for a in ("data", "indices", "indptr")):
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def traced_pass(lib, workload, inputs, ref, output: Path, missing: set,
                traced_first: bool) -> tuple[dict, list, str | None]:
    """Untraced and traced in-process ``cli.main``, in the given order, then single-call probes."""
    import sspbounds.cli as cli

    argv = cli_args(workload, inputs, output)

    def call_main() -> tuple[str | None, float]:
        output.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed run, not a benchmark error
            return traceback.format_exc(limit=1).strip().splitlines()[-1], 0.0
        elapsed = time.perf_counter() - start
        return reference.check_output(ref, code, output), elapsed

    tracer = Tracer()
    if traced_first:
        with tracer:
            traced_failure, traced_s = call_main()
    failure, untraced_s = call_main()
    if not traced_first:
        with tracer:
            traced_failure, traced_s = call_main()
    missing.update(tracer.missing)
    failure = failure or traced_failure
    spans = tracer.spans
    incl, own, layers = inclusive(spans), self_times(spans), layer_self_times(spans)
    data = json.loads(output.read_text(encoding="utf-8")) if failure is None else {}

    problem, _ = lib.load_problem(inputs.instance)
    if workload.command == "check":
        final = np.asarray(json.loads(inputs.values.read_text(encoding="utf-8"))["values"])
    else:
        final = np.asarray(data.get("values", np.zeros(problem.num_states)), dtype=float)

    def probe(name: str, *args):
        fn = getattr(lib, name, None)
        if fn is None:
            missing.add(name)
        if fn is None or failure is not None or any(a is None for a in args):
            return None, 0.0
        return _timed(fn, *args)

    start_values, evaluate_s = probe("evaluate_policy", problem, lib.uniform_random_policy(problem))
    _, backup_s = probe("bellman_backup", problem, start_values)
    _, all_proper_s = probe("all_policies_proper", problem)
    _, report_s = probe("compute_bounds_report", problem, final)

    metrics = {
        "core.load_s": incl.get("core.load_problem", 0.0),
        "core.validate_s": incl.get("core.validate", 0.0),
        "core.self_s": layers["core"],
        "core.kernel_computed_mb": array_bytes(problem) / 1e6,
        "properness.is_proper_s": incl.get("properness.is_proper", 0.0),
        "properness.is_proper_calls": tracer.counts["properness.is_proper"],
        "properness.all_policies_proper_s": all_proper_s,
        "properness.self_s": layers["properness"],
        "dp.backup_s": backup_s,
        "dp.backup_calls": tracer.counts["dp.action_values"],
        "dp.evaluate_s": evaluate_s,
        "dp.evaluate_calls": tracer.counts["dp.evaluate_policy"],
        "dp.iterations": len(data.get("trace", [])),
        "dp.self_s": layers["dp"],
        "bounds.report_s": report_s,
        "bounds.steps_all_proper_calls": tracer.counts["bounds.steps_bound_all_proper"],
        "bounds.horizon_stages": data.get("horizon_certificate", {}).get("m", 0),
        "bounds.self_s": layers["bounds"],
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.output_bytes": output.stat().st_size if output.exists() else 0,
        "cli.main_s": untraced_s,
        "trace.overhead": traced_s / untraced_s if untraced_s else 0.0,
    }
    functions = {
        name: {"calls": tracer.counts[name], "inclusive_s": incl.get(name, 0.0),
               "self_s": own.get(name, 0.0)}
        for name in sorted(tracer.counts)
    }
    return {"metrics": metrics, "functions": functions}, spans, failure


def run_traced(lib, workload, inputs, ref, kernel, workdir: Path, seconds: float):
    """Traced passes while another fits in ``seconds``, at least two.

    Times are medians over passes; counts must be equal in every pass.
    """
    output = workdir / "output.json"
    missing: set[str] = set()
    passes, failures, first_spans = [], [], None
    start, pass_s = time.perf_counter(), 0.0
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        result, spans, failure = traced_pass(lib, workload, inputs, ref, output, missing,
                                             traced_first=len(passes) % 2 == 1)
        pass_s = time.perf_counter() - pass_start
        if not passes:
            first_spans = spans
        passes.append(result)
        failures.append(failure)
    for p in passes[1:]:
        for name in EXACT:
            if p["metrics"][name] != passes[0]["metrics"][name]:
                failures.append(f"{name} differs between traced passes")
    metrics = {
        name: passes[0]["metrics"][name] if name in EXACT
        else statistics.median(p["metrics"][name] for p in passes)
        for name in passes[0]["metrics"]
    }
    metrics["core.nnz"] = kernel.nnz
    metrics["setup.build_s"] = inputs.build_s
    metrics["core.save_s"] = inputs.save_s
    metrics["cli.import_s"] = import_time(child_env())
    details = {
        "passes": len(passes),
        "functions": passes[0]["functions"],
        "missing": sorted(missing),
        "spans": [[s.ident, s.parent, s.name, s.start, s.end] for s in first_spans],
    }
    # Each pass runs cli.main twice: once untraced, once traced.
    return metrics, 2 * len(passes), failures, details


def report_line(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<34} {text:>14} {unit:<6} {note}".rstrip())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny instances, for the benchmark's own smoke tests")
    return parser.parse_args(argv)


def run_workload(lib, workload, args, env: dict) -> dict:
    """Set up, measure and check one workload; print its block and return its result."""
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / "work" / label
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tiny = args.size == "tiny"
        if args.trace:
            inputs = generate(lib, workload, args.seed, workdir, tiny)
        else:
            inputs, setup_raw, setup_refs = measure_setup(lib, workload, args.seed,
                                                          workdir, tiny)
            setup_ratios = [t / ((a + b) / 2)
                            for t, a, b in zip(setup_raw, setup_refs, setup_refs[1:])]
        ref, kernel = reference.compute(workload, inputs.instance, inputs.values)
        print(f"perfbench {label} ({args.size}, {args.seconds:g} s)")
        print("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
        if args.trace:
            values, attempted, failures, details = run_traced(
                lib, workload, inputs, ref, kernel, workdir, args.seconds)
            failed = min(attempted, sum(f is not None for f in failures))
            units = metric_units("per_layer")
            for name, unit in units.items():
                report_line(name, values[name], unit)
            print(f"  traced passes {details['passes']}; missing names: "
                  f"{', '.join(details['missing']) or 'none'}")
            print(f"  {'function':<40} {'calls':>7} {'inclusive_s':>12} {'self_s':>10}")
            for name, f in details["functions"].items():
                print(f"  {name:<40} {f['calls']:>7} {f['inclusive_s']:>12.6f} "
                      f"{f['self_s']:>10.6f}")
        else:
            samples = measure_end_to_end(workload, inputs, ref, workdir, args.seconds)
            failures = [s.failure for s in samples]
            attempted, failed = len(samples), sum(f is not None for f in failures)
            walls = [s.wall_s for s in samples]
            quartiles = (statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3)
            values = {
                "run_ratio": sum(walls) / sum(s.reference_s for s in samples),
                "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
                "setup_s": statistics.median(setup_ratios) * SETUP_REFERENCE_S,
                "ok_ratio": (attempted - failed) / attempted,
            }
            report_line("run_s", statistics.median(walls), "s", f"median of {attempted} runs, "
                        f"quartiles {quartiles[0]:.4g}-{quartiles[2]:.4g} s, "
                        f"max {max(walls):.4g} s")
            report_line("reference_s", statistics.median(s.reference_s for s in samples), "s",
                        f"median over samples of the reference runs before and after")
            report_line("run_ratio", values["run_ratio"], "ratio",
                        "total of the runs over the total of the reference tasks around them")
            report_line("peak_rss_mb", values["peak_rss_mb"], "MB", f"median of {attempted} runs")
            report_line("setup_s", values["setup_s"], "s",
                        f"median of {len(setup_ratios)} set-ups over the set-up reference task, "
                        f"times {SETUP_REFERENCE_S:g} s")
            report_line("setup_raw_s", statistics.median(setup_raw), "s",
                        f"median of {len(setup_raw)} set-ups, unnormalized")
            report_line("ok_ratio", values["ok_ratio"], "ratio",
                        f"{attempted - failed} of {attempted} correct")
            report_line("fail_ratio", failed / attempted, "ratio",
                        f"{failed} of {attempted} failed")
            details = {"samples": [vars(s) for s in samples],
                       "setup_raw_s": setup_raw, "setup_reference_s": setup_refs}
            units = metric_units("end_to_end")
        for reason in sorted({f for f in failures if f is not None}):
            print(f"  FAILED: {reason}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        results = WORK / "results" / f"{label}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                       "size": args.size, "env": env, "metrics": metrics,
                                       **details}) + "\n", encoding="utf-8")
        print(f"  results: {results.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sspbounds" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no sspbounds sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import sspbounds as lib

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        sys.stderr.write(f"perfbench: unknown workload {unknown[0]!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all\n")
        return 2
    env = environment()
    # Each vCPU of a shared host speeds up and slows down on its own, for
    # seconds at a time. Pinning the benchmark and every child it starts to
    # one CPU makes the reference tasks see the speed the timed runs see.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    results = {n: run_workload(lib, WORKLOADS[n], args, env) for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
