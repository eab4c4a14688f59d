"""Seeded instance generators and the workload table of the benchmark.

Every generator builds its instance with the library's public API
(``GridSpec`` / ``build_gridworld``, ``SspProblem``, ``from_discounted``)
and writes it with ``save_problem``; the CLI under test only ever sees the
generated files. The seed decides the instance, never its size.

The two gridworlds use one fixed exit layout and let the seed pick one of
its eight images under the grid's rotations and reflections. A uniformly
random exit placement changes the work by up to 2x between seeds (policy
iteration needs 12 to 24 improvements at side 30, the horizon search 481
to 918 stages at side 18), which would swamp any change the benchmark is
meant to detect; the eight images are isomorphic, so they cost the same.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (row, col) of the +1 and -1 exits before the seeded symmetry is applied.
EXIT_LAYOUT = ((0, 3), (5, 0))
# Exit probability of every (state, action) pair of the sparse instance.
EXIT_PROB = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "grid", "sparse" or "dense"
    command: str  # "solve" or "check"
    algorithm: str | None  # solver for "solve" workloads
    expected_method: str | None  # bounds.method a correct solve reports
    full: int  # grid side, or nonterminal state count
    tiny: int  # the same, for the smoke tests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-pi", "grid", "solve", "pi", "positive-cost", full=30, tiny=6),
        Workload("sparse-vi", "sparse", "solve", "vi", "all-proper", full=100, tiny=20),
        Workload("grid-horizon", "grid", "check", None, None, full=18, tiny=6),
        Workload("dense-pi", "dense", "solve", "pi", "positive-cost", full=200, tiny=20),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Files handed to the CLI, plus how long each set-up step took."""

    instance: Path
    values: Path | None
    build_s: float
    save_s: float
    values_s: float

    @property
    def setup_s(self) -> float:
        return self.build_s + self.save_s + self.values_s


def _dihedral(cell: tuple[int, int], side: int, k: int) -> tuple[int, int]:
    r, c = cell
    n = side - 1
    return [
        (r, c), (c, n - r), (n - r, n - c), (n - c, r),
        (r, n - c), (c, r), (n - r, c), (n - c, n - r),
    ][k]


def build_grid(lib, side: int, seed: int):
    """Open side x side gridworld; the seed picks the image of the exit layout."""
    k = int(np.random.default_rng(seed).integers(8))
    plus, minus = (_dihedral(cell, side, k) for cell in EXIT_LAYOUT)
    spec = lib.GridSpec(
        width=side, height=side, walls=(), exits={plus: 1.0, minus: -1.0},
        slip_redirects={},
    )
    return lib.build_gridworld(spec)


def build_sparse(lib, num_nonterminal: int, seed: int, num_actions: int = 4):
    """Random all-proper instance with mixed cost signs.

    Every (state, action) pair exits with probability 5 % and otherwise
    moves to 3 distinct nonterminal states; every transition costs a
    uniform draw from [-1, 1]. With one exit probability every policy takes
    20 expected steps, so the companion solve behind the all-proper bound
    does the same work on every seed; exit probabilities drawn from 2-10 %
    made it take 5 to 7 improvements, an 18 % spread in work between seeds.
    """
    rng = np.random.default_rng(seed)
    n = num_nonterminal + 1
    terminal = num_nonterminal
    prob = np.zeros((n, num_actions, n))
    cost = np.zeros_like(prob)
    for i in range(num_nonterminal):
        for u in range(num_actions):
            targets = rng.choice(num_nonterminal, size=3, replace=False)
            weights = rng.uniform(0.2, 1.0, size=3)
            prob[i, u, targets] = (1.0 - EXIT_PROB) * weights / weights.sum()
            prob[i, u, terminal] = EXIT_PROB
            cost[i, u, targets] = rng.uniform(-1.0, 1.0, size=3)
            cost[i, u, terminal] = rng.uniform(-1.0, 1.0)
    prob[terminal, :, terminal] = 1.0
    return lib.SspProblem(
        num_states=n, num_actions=num_actions, terminal=terminal, prob=prob, cost=cost
    )


def build_dense(lib, num_states: int, seed: int, num_actions: int = 4, beta: float = 0.95):
    """Shortest-path reduction of a random dense discounted MDP, positive costs."""
    rng = np.random.default_rng(seed)
    transitions = rng.uniform(0.05, 1.0, size=(num_states, num_actions, num_states))
    transitions /= transitions.sum(axis=2, keepdims=True)
    costs = rng.uniform(0.1, 1.0, size=transitions.shape)
    return lib.from_discounted(transitions, costs, beta)


def generate(lib, workload: Workload, seed: int, workdir: Path, tiny: bool = False) -> Inputs:
    """Build, save and (for ``check``) evaluate the workload's inputs, timing each step."""
    size = workload.tiny if tiny else workload.full
    builder = {"grid": build_grid, "sparse": build_sparse, "dense": build_dense}
    t0 = time.perf_counter()
    problem = builder[workload.kind](lib, size, seed)
    t1 = time.perf_counter()
    instance = workdir / "instance.json"
    lib.save_problem(problem, instance)
    t2 = time.perf_counter()
    values = None
    if workload.command == "check":
        # The uniform random policy's value is uniformly improvable and
        # large, so the horizon search behind `check --values` runs long.
        j = lib.evaluate_policy(problem, lib.uniform_random_policy(problem))
        values = workdir / "values.json"
        values.write_text(json.dumps({"values": j.tolist()}), encoding="utf-8")
    t3 = time.perf_counter()
    return Inputs(instance, values, t1 - t0, t2 - t1, t3 - t2)


def cli_args(workload: Workload, inputs: Inputs, output: Path) -> list[str]:
    """Arguments of the ``sspbounds`` command the workload times."""
    if workload.command == "check":
        return ["check", "--input", str(inputs.instance), "--values", str(inputs.values),
                "--output", str(output)]
    return ["solve", "--input", str(inputs.instance), "--algorithm", workload.algorithm,
            "--format", "json", "--output", str(output)]
