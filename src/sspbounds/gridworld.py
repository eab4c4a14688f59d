"""The classic 4x3 slippery gridworld benchmark and its reference tables.

The agent moves on a 4-wide, 3-tall grid with one wall cell, a +1 exit, and
a -1 exit. Moves go in the intended compass direction with probability 0.8
and slip to each perpendicular direction with probability 0.1; bumping into
the wall or the edge leaves the agent in place. Every move from an ordinary
cell pays a reward of -0.04. Any action in an exit cell jumps to an
(invisible) terminal state and pays that exit's reward, with no step
charge. Cells are numbered row by row from the top left:

    0  1  2  3(+1)
    4  .  5  6(-1)
    7  8  9  10

plus terminal state 11. The builder produces the cost-form instance
(rewards negated); the table reproductions convert back to reward form.

``EXPECTED_TABLE1_VI``, ``EXPECTED_TABLE1_PI`` and ``EXPECTED_TABLE2`` hold
the published per-iteration statistics this benchmark is expected to
reproduce: the floor value J_under over non-overridden states, the steps
bound m, the Bellman residual, the error bound m * residual, and per-state
values and steps bounds under policy iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import BoundsContext, steps_bound_positive_costs
from .core import SspProblem
from .dp import csv_cell, evaluate_policy, policy_iteration, value_iteration
from .properness import uniform_random_policy

# Comparison tolerances for the reproduction checks.
TOL_VALUE = 0.01
TOL_STEPS = 0.1
TOL_RESIDUAL = 0.001
TOL_ERROR = 0.1


@dataclass(frozen=True)
class GridSpec:
    """Geometry and dynamics of the gridworld; defaults give the classic 4x3 world.

    ``slip_redirects`` maps (cell, action, slip direction) to the cell that
    slip lands on, overriding the stay-on-bump rule. The single default
    entry, the east action's blocked south slip at cell (2, 2) landing one
    cell west, is required to reproduce the published benchmark tables; it
    changes nothing on any optimal route. Pass an empty dict for the plain
    textbook dynamics.
    """

    width: int = 4
    height: int = 3
    walls: tuple[tuple[int, int], ...] = ((1, 1),)
    # (row, col) -> exit reward; any action there jumps to the terminal
    exits: dict[tuple[int, int], float] = field(
        default_factory=lambda: {(0, 3): 1.0, (1, 3): -1.0}
    )
    step_reward: float = -0.04
    move_prob: float = 0.8
    slip_prob: float = 0.1
    slip_redirects: dict[tuple[tuple[int, int], int, int], tuple[int, int]] = field(
        default_factory=lambda: {((2, 2), 2, 1): (2, 1)}
    )


# Action order: up, down, east, west. Slips go to the two perpendicular
# directions of the intended one.
DIRECTIONS = {
    0: (-1, 0),  # up
    1: (1, 0),  # down
    2: (0, 1),  # east
    3: (0, -1),  # west
}
PERPENDICULAR = {0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)}

ACTION_NAMES = ("up", "down", "east", "west")


def build_gridworld(spec: GridSpec | None = None) -> SspProblem:
    """Construct the gridworld as a cost-form shortest path instance."""
    spec = spec or GridSpec()
    cells = [
        (r, c)
        for r in range(spec.height)
        for c in range(spec.width)
        if (r, c) not in spec.walls
    ]
    index = {cell: i for i, cell in enumerate(cells)}
    num_states = len(cells) + 1
    terminal = len(cells)
    num_actions = len(DIRECTIONS)

    prob = np.zeros((num_states, num_actions, num_states))
    cost = np.zeros_like(prob)

    def destination(cell: tuple[int, int], action: int) -> tuple[int, int]:
        row, col = cell
        dr, dc = DIRECTIONS[action]
        target = (row + dr, col + dc)
        inside = 0 <= target[0] < spec.height and 0 <= target[1] < spec.width
        if not inside or target in spec.walls:
            return cell
        return target

    for cell, i in index.items():
        if cell in spec.exits:
            prob[i, :, terminal] = 1.0
            cost[i, :, terminal] = -spec.exits[cell]
            continue
        for action in range(num_actions):
            targets = [(destination(cell, action), spec.move_prob)]
            for slip in PERPENDICULAR[action]:
                redirected = spec.slip_redirects.get((cell, action, slip))
                landing = redirected if redirected else destination(cell, slip)
                targets.append((landing, spec.slip_prob))
            for landing, weight in targets:
                j = index[landing]
                prob[i, action, j] += weight
                cost[i, action, j] = -spec.step_reward
    prob[terminal, :, terminal] = 1.0
    return SspProblem(
        num_states=num_states,
        num_actions=num_actions,
        terminal=terminal,
        prob=prob,
        cost=cost,
    )


class Table1Row(NamedTuple):
    """One iteration of Table 1: floor value, steps bound, residual, error bound.

    Its fields are the five columns of :func:`sspbounds.dp.trace_csv`.
    """

    iteration: int
    j_under: float
    m: float
    residual: float | None
    error: float | None


@dataclass(frozen=True)
class Table2Row:
    """One policy-iteration sweep of Table 2: reward-form J(i) and raw N(i)."""

    iteration: int
    values: tuple[float, ...]
    steps: tuple[float, ...]


EXPECTED_TABLE1_VI: tuple[Table1Row, ...] = tuple(
    Table1Row(*row)
    for row in [
        (0, -1.603, 66.1, None, None),
        (1, -1.570, 65.3, 0.9567, 62.428),
        (2, -1.430, 61.7, 0.8470, 52.302),
        (3, -1.206, 56.1, 0.7379, 41.433),
        (4, -0.876, 47.9, 0.6585, 31.551),
        (5, -0.256, 32.4, 0.6204, 20.102),
        (6, 0.153, 22.2, 0.4094, 9.075),
        (7, 0.263, 19.4, 0.2568, 4.991),
        (8, 0.310, 18.2, 0.1389, 2.534),
        (9, 0.333, 17.7, 0.0726, 1.282),
        (10, 0.345, 17.4, 0.0613, 1.066),
        (11, 0.351, 17.2, 0.0411, 0.708),
        (12, 0.358, 17.1, 0.0259, 0.442),
    ]
)

EXPECTED_TABLE1_PI: tuple[Table1Row, ...] = tuple(
    Table1Row(*row)
    for row in [
        (0, -1.603, 66.1, None, None),
        (1, -0.885, 48.1, 0.9567, 46.030),
        (2, 0.369, 16.8, 1.0070, 16.880),
        (3, 0.388, 16.3, 0.0186, 0.304),
        (4, 0.388, 16.3, 0.0000, 0.000),
    ]
)

_TABLE2_DATA = [
    # iteration, (J(0..10)), (N(0..10))
    (
        0,
        (-1.28, -0.88, -0.32, 1.00, -1.52, -0.92, -1.00, -1.60, -1.52, -1.28, -1.22),
        (58.0, 48.0, 34.0, 1.0, 64.1, 49.0, 51.0, 66.1, 64.1, 58.1, 56.5),
    ),
    (
        1,
        (0.81, 0.87, 0.92, 1.00, 0.76, 0.66, -1.00, 0.68, 0.39, 0.44, -0.88),
        (5.7, 4.3, 3.1, 1.0, 7.0, 9.5, 51.0, 9.1, 16.3, 15.0, 48.1),
    ),
    (
        2,
        (0.81, 0.87, 0.92, 1.00, 0.76, 0.66, -1.00, 0.71, 0.66, 0.59, 0.37),
        (5.7, 4.3, 3.1, 1.0, 7.0, 9.5, 51.0, 8.4, 9.6, 11.2, 16.8),
    ),
    (
        3,
        (0.81, 0.87, 0.92, 1.00, 0.76, 0.66, -1.00, 0.71, 0.66, 0.61, 0.39),
        (5.7, 4.3, 3.1, 1.0, 7.0, 9.5, 51.0, 8.4, 9.6, 10.7, 16.3),
    ),
    (
        4,
        (0.81, 0.87, 0.92, 1.00, 0.76, 0.66, -1.00, 0.71, 0.66, 0.61, 0.39),
        (5.7, 4.3, 3.1, 1.0, 7.0, 9.5, 51.0, 8.4, 9.6, 10.7, 16.3),
    ),
]

EXPECTED_TABLE2: tuple[Table2Row, ...] = tuple(
    Table2Row(iteration, values, steps) for iteration, values, steps in _TABLE2_DATA
)


def run_table1(problem: SspProblem, algorithm: str) -> list[Table1Row]:
    """Reproduce Table 1: per-iteration error-bound statistics in reward form.

    Both algorithms start from the uniform random policy's value function.
    Value iteration reports iterations 0 through 12, policy iteration every
    iteration until convergence. Each row's residual belongs to the
    previous iterate, i.e. to the backup that produced the row.
    """
    initial = uniform_random_policy(problem)
    start_values = evaluate_policy(problem, initial)
    if algorithm == "vi":
        _, trace = value_iteration(problem, start_values, epsilon=1e-9, max_iters=10_000)
        records = trace.records[:13]
    elif algorithm == "pi":
        _, _, trace = policy_iteration(problem, initial)
        records = trace.records
    else:
        raise ValueError(f"algorithm must be 'vi' or 'pi', got {algorithm!r}")
    _, rows = BoundsContext.for_problem(problem, "positive-cost").certify(trace, sign=-1.0)
    return [
        Table1Row(record.iteration, row.j_under, row.m, record.residual, row.error)
        for record, row in zip(records, rows)
    ]


def run_table2(problem: SspProblem) -> list[Table2Row]:
    """Reproduce Table 2: per-state values and steps bounds along policy iteration.

    Steps bounds are reported raw from the closed-form procedure; the
    exit-state override (which would set N to 1 there) applies only to
    Table 1's m column.
    """
    _, _, trace = policy_iteration(problem, uniform_random_policy(problem))
    nt = problem.nonterminal
    rows = []
    for record in trace.records:
        steps = steps_bound_positive_costs(problem, record.values)
        rows.append(
            Table2Row(
                record.iteration,
                tuple(float(-record.values[i]) for i in nt),
                tuple(float(steps[i]) for i in nt),
            )
        )
    return rows


def _close(got: float | None, want: float | None, tol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def compare_table1(
    rows: list[Table1Row], expected: tuple[Table1Row, ...], label: str
) -> list[str]:
    """List every cell that misses its published value; empty means pass."""
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{label}: got {len(rows)} rows, expected {len(expected)}")
    for got, want in zip(rows, expected):
        checks = [
            ("J_under", got.j_under, want.j_under, TOL_VALUE),
            ("m", got.m, want.m, TOL_STEPS),
            ("residual", got.residual, want.residual, TOL_RESIDUAL),
            ("error", got.error, want.error, TOL_ERROR),
        ]
        for name, g, w, tol in checks:
            if not _close(g, w, tol):
                problems.append(
                    f"{label} row {want.iteration} {name}: got {g}, want {w} (tol {tol})"
                )
    return problems


def compare_table2(rows: list[Table2Row], label: str = "table2") -> list[str]:
    problems = []
    if len(rows) != len(EXPECTED_TABLE2):
        problems.append(
            f"{label}: got {len(rows)} rows, expected {len(EXPECTED_TABLE2)}"
        )
    for got, want in zip(rows, EXPECTED_TABLE2):
        for state, (g, w) in enumerate(zip(got.values, want.values)):
            if not _close(g, w, TOL_VALUE):
                problems.append(
                    f"{label} row {want.iteration} J({state}): got {g:.4f}, "
                    f"want {w} (tol {TOL_VALUE})"
                )
        for state, (g, w) in enumerate(zip(got.steps, want.steps)):
            if not _close(g, w, TOL_STEPS):
                problems.append(
                    f"{label} row {want.iteration} N({state}): got {g:.4f}, "
                    f"want {w} (tol {TOL_STEPS})"
                )
    return problems


def table2_csv(rows: list[Table2Row]) -> str:
    n_states = len(rows[0].values) if rows else 0
    header = ["iter"]
    for i in range(n_states):
        header += [f"J{i}", f"N{i}"]
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row.iteration)]
        for value, steps in zip(row.values, row.steps):
            cells += [csv_cell(value), csv_cell(steps)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
