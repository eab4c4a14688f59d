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

import functools
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .bounds import BoundsContext, TraceRow, _kernel_facts, _positive_cost_steps
from .core import SspProblem, Transitions, _stored
from .dp import csv_cell, evaluate_policy
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


def build_gridworld(spec: GridSpec | None = None) -> SspProblem:
    """Construct the gridworld as a cost-form shortest path instance.

    Raises ValueError for a slip redirect whose slip is not perpendicular
    to its action, or that lands on a wall or off the grid.
    """
    spec = spec or GridSpec()
    height, width = spec.height, spec.width
    walls = np.array(spec.walls, dtype=np.int64).reshape(-1, 2)
    inside = (walls >= 0).all(axis=1) & (walls[:, 0] < height) & (walls[:, 1] < width)
    is_open = np.ones((height, width), dtype=bool)
    is_open[walls[inside, 0], walls[inside, 1]] = False
    terminal = int(is_open.sum())
    # state[r + 1, c + 1]: the number of open cell (r, c), row by row; -1 on
    # the walls and on a border of walls around the grid
    state = np.full((height + 2, width + 2), -1, dtype=np.int64)
    state[1:-1, 1:-1][is_open] = np.arange(terminal)
    num_states, num_actions = terminal + 1, len(DIRECTIONS)

    def state_of(cell: tuple[int, int]) -> int:
        r, c = cell
        return int(state[r + 1, c + 1]) if 0 <= r < height and 0 <= c < width else -1

    # landing[a]: the state a move in direction a from each open cell lands
    # in; a bump into a wall or the edge stays in place
    here = np.arange(terminal)
    landing = np.empty((num_actions, terminal), dtype=np.int64)
    for a, (dr, dc) in DIRECTIONS.items():
        ahead = state[1 + dr : height + 1 + dr, 1 + dc : width + 1 + dc][is_open]
        landing[a] = np.where(ahead >= 0, ahead, here)
    # to[i, a]: the move and the two slips of action a in state i; the
    # terminal row is there for the layout, its entries are set below
    to = np.empty((num_states, num_actions, 3), dtype=np.int64)
    for a, slips in PERPENDICULAR.items():
        to[:terminal, a, 0] = landing[a]
        to[:terminal, a, 1:] = landing[list(slips)].T
    exit_cost = {}
    for cell, reward in spec.exits.items():
        i = state_of(cell)
        if i >= 0:
            exit_cost[i] = -reward
    for (cell, action, slip), cell_to in spec.slip_redirects.items():
        if slip not in PERPENDICULAR.get(action, ()):
            raise ValueError(
                f"slip redirect {(cell, action, slip)}: slip {slip} is not "
                f"perpendicular to action {action}"
            )
        i = state_of(cell)
        if i < 0 or i in exit_cost:
            continue
        j = state_of(cell_to)
        if j < 0:
            raise ValueError(
                f"slip redirect {(cell, action, slip)} lands on {cell_to}, "
                "a wall or a cell off the grid"
            )
        to[i, action, 1 + PERPENDICULAR[action].index(slip)] = j

    # Outcomes landing on one cell are one entry, whose probability adds up
    # in move, slip, slip order from 0.0; the outcomes merged into an
    # earlier one get target num_states.
    p_move, p_slip = 0.0 + spec.move_prob, 0.0 + spec.slip_prob
    p_move_slip = p_move + spec.slip_prob
    same01 = to[..., 0] == to[..., 1]
    same02 = to[..., 0] == to[..., 2]
    same12 = to[..., 1] == to[..., 2]
    prob = np.empty(to.shape)
    prob[..., 0] = np.where(
        same01 & same02,
        p_move_slip + spec.slip_prob,
        np.where(same01 | same02, p_move_slip, p_move),
    )
    prob[..., 1] = np.where(same12, p_slip + spec.slip_prob, p_slip)
    prob[..., 2] = p_slip
    to[..., 1][same01] = num_states
    to[..., 2][same02 | same12] = num_states
    # exit and terminal rows: one entry into the terminal
    single = np.array([*exit_cost, terminal], dtype=np.int64)
    to[single, :, 0] = terminal
    to[single, :, 1:] = num_states
    prob[single, :, 0] = 1.0
    cost = np.full(num_states, -spec.step_reward, dtype=float)
    cost[single] = [*exit_cost.values(), 0.0]
    # each row's outcomes sorted by target, by three compare-exchanges
    for x, y in ((0, 1), (1, 2), (0, 1)):
        swap = to[..., y] < to[..., x]
        for column in (to, prob):
            first = column[..., x][swap]
            column[..., x][swap] = column[..., y][swap]
            column[..., y][swap] = first
    entries = np.flatnonzero((to < num_states) & _stored(prob, cost[:, None, None]))
    row = entries // 3
    view = Transitions._adopt(
        num_states, row, to.ravel()[entries], prob.ravel()[entries], cost[row // num_actions]
    )
    return SspProblem(num_states, num_actions, terminal, transitions=view)


@dataclass(frozen=True)
class Table2Row:
    """One policy-iteration sweep of Table 2: reward-form J(i) and raw N(i)."""

    iteration: int
    values: tuple[float, ...]
    steps: tuple[float, ...]


EXPECTED_TABLE1_VI: tuple[TraceRow, ...] = tuple(
    TraceRow(*row)
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

EXPECTED_TABLE1_PI: tuple[TraceRow, ...] = tuple(
    TraceRow(*row)
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


def _table_rows(problem: SspProblem, algorithm: str, row) -> list:
    """The rows ``row`` makes along a run from the uniform random policy's checked values."""
    initial = uniform_random_policy(problem)
    start_values = evaluate_policy(problem, initial)
    start = dp.require_uniformly_improvable(problem, start_values)
    if algorithm == "vi":
        try:
            _, trace = dp._value_iteration(problem, start_values, start, 1e-9, 12, row)
        except dp.MaxItersExceeded as exc:
            trace = exc.trace
        return trace.records
    if algorithm == "pi":
        _, _, trace = dp._policy_iteration(problem, initial, start_values, start, 1_000, row)
        return trace.records
    raise ValueError(f"algorithm must be 'vi' or 'pi', got {algorithm!r}")


def run_table1(problem: SspProblem, algorithm: str) -> list[TraceRow]:
    """Reproduce Table 1: per-iteration error-bound statistics in reward form.

    Both algorithms start from the uniform random policy's value function.
    Value iteration reports iterations 0 through 12 of a run to residual
    1e-9, policy iteration every iteration until convergence. Each row's residual belongs to the
    previous iterate, i.e. to the backup that produced the row.
    """
    row = functools.partial(BoundsContext.for_problem(problem, "positive-cost").row, sign=-1.0)
    return _table_rows(problem, algorithm, row)


def run_table2(problem: SspProblem) -> list[Table2Row]:
    """Reproduce Table 2: per-state values and steps bounds along policy iteration.

    Rows are made in policy iteration's loop, as Table 1's are. Steps bounds
    are reported raw from the closed form; the exit-state override (which
    would set N to 1 there) applies only to Table 1's m column.
    """
    a, b = _kernel_facts(problem).positive_cost()
    nt = problem.nonterminal

    def row(iteration: int, values: np.ndarray, _, backup: dp.Backup) -> Table2Row:
        backup.require_improvable()
        steps = _positive_cost_steps(problem, values, a, b)
        return Table2Row(iteration, tuple((-values[nt]).tolist()), tuple(steps[nt].tolist()))

    return _table_rows(problem, "pi", row)


def _close(got: float | None, want: float | None, tol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def compare_table1(
    rows: list[TraceRow], expected: tuple[TraceRow, ...], label: str
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


def compare_table2(rows: list[Table2Row]) -> list[str]:
    problems = []
    if len(rows) != len(EXPECTED_TABLE2):
        problems.append(
            f"table2: got {len(rows)} rows, expected {len(EXPECTED_TABLE2)}"
        )
    for got, want in zip(rows, EXPECTED_TABLE2):
        for state, (g, w) in enumerate(zip(got.values, want.values)):
            if not _close(g, w, TOL_VALUE):
                problems.append(
                    f"table2 row {want.iteration} J({state}): got {g:.4f}, "
                    f"want {w} (tol {TOL_VALUE})"
                )
        for state, (g, w) in enumerate(zip(got.steps, want.steps)):
            if not _close(g, w, TOL_STEPS):
                problems.append(
                    f"table2 row {want.iteration} N({state}): got {g:.4f}, "
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
