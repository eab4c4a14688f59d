"""Independent numpy reference and the output checks built on it.

The reference reads the instance file (the JSON format, which stays fixed
while the library's in-memory representation may change) into a list of
nonzero transitions and computes what a correct run must report: the
optimal values J* by value iteration to a 1e-12 residual, or the stage
count m of the termination-horizon search. The checks read only output
fields that stay stable: the exit code, ``bounds.method``, ``values``,
``bounds.per_state_bound``, ``bounds.global_bound``,
``uniformly_improvable`` and ``horizon_certificate.m``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REF_RESIDUAL = 1e-12
REF_MAX_ITERS = 1_000_000
# Slack on top of the reported bound: the reference J* itself carries up to
# REF_RESIDUAL times the expected steps to termination of error.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Kernel:
    """Nonzero transitions of an instance, cost convention, flattened by (state, action)."""

    num_states: int
    num_actions: int
    terminal: int
    row: np.ndarray  # state * num_actions + action
    to: np.ndarray
    prob: np.ndarray
    cost: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.prob.size)

    def expected(self, values: np.ndarray) -> np.ndarray:
        """(S, A) array of sum_j p * (cost + values[j]) over each pair's transitions."""
        weights = self.prob * (self.cost + values[self.to])
        q = np.bincount(self.row, weights, minlength=self.num_states * self.num_actions)
        return q.reshape(self.num_states, self.num_actions)


def load_kernel(path: Path) -> Kernel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    records = [r for r in data["transitions"] if r["prob"] > 0.0]
    num_actions = int(data["num_actions"])
    frm = np.array([r["from"] for r in records], dtype=np.int64)
    act = np.array([r["action"] for r in records], dtype=np.int64)
    cost = np.array([r["cost"] for r in records], dtype=float)
    if data["convention"] == "reward":
        cost = -cost
    return Kernel(
        num_states=int(data["num_states"]),
        num_actions=num_actions,
        terminal=int(data["terminal"]),
        row=frm * num_actions + act,
        to=np.array([r["to"] for r in records], dtype=np.int64),
        prob=np.array([r["prob"] for r in records], dtype=float),
        cost=cost,
    )


def optimal_values(kernel: Kernel) -> np.ndarray:
    """J* by value iteration from zero until the residual is at most 1e-12."""
    values = np.zeros(kernel.num_states)
    for _ in range(REF_MAX_ITERS):
        new = kernel.expected(values).min(axis=1)
        new[kernel.terminal] = 0.0
        residual = np.abs(new - values).max()
        values = new
        if residual <= REF_RESIDUAL:
            return values
    raise RuntimeError("reference value iteration did not converge")


def horizon_stages(kernel: Kernel, values: np.ndarray) -> int:
    """Stage count m of the termination-horizon search, cheapest-exit criterion.

    Stage k marks as inevitable every state all of whose actions can enter
    the stage-(k-1) inevitable set, and backs up the cheapest cost of
    avoiding termination through the remaining actions. The search stops
    when every state is inevitable (m = k) or when avoiding for k stages
    plus the cheapest terminal transition costs more than ``values``
    everywhere outside the set (m = k + 1).
    """
    t = kernel.terminal
    exits = (kernel.to == t) & (kernel.row // kernel.num_actions != t)
    min_exit_cost = float(kernel.cost[exits].min())
    size = kernel.num_states * kernel.num_actions
    inevitable = np.zeros(kernel.num_states, dtype=bool)
    inevitable[t] = True
    stage = np.zeros(kernel.num_states)
    for k in range(REF_MAX_ITERS):
        outside = ~inevitable
        if not outside.any():
            return k
        if (stage[outside] + min_exit_cost > values[outside]).all():
            return k + 1
        risky = np.bincount(kernel.row, inevitable[kernel.to], minlength=size) > 0
        risky = risky.reshape(kernel.num_states, kernel.num_actions)
        backed = np.where(risky, np.inf, kernel.expected(stage)).min(axis=1)
        staying = outside & ~risky.all(axis=1)
        inevitable = inevitable | (outside & risky.all(axis=1))
        stage = np.where(staying, backed, stage)
    raise RuntimeError("reference horizon search hit its stage cap")


@dataclass(frozen=True)
class Reference:
    """What a correct run of one workload must report."""

    command: str
    expected_method: str | None
    optimal: np.ndarray | None = None
    m: int | None = None


def compute(workload, instance: Path, values: Path | None) -> tuple[Reference, Kernel]:
    kernel = load_kernel(instance)
    if workload.command == "check":
        j = np.asarray(json.loads(Path(values).read_text(encoding="utf-8"))["values"])
        ref = Reference("check", None, m=horizon_stages(kernel, j))
    else:
        ref = Reference("solve", workload.expected_method, optimal=optimal_values(kernel))
    return ref, kernel


def _decode(x) -> float:
    return math.inf if x == "inf" else float(x)


def check_output(ref: Reference, returncode: int, output: Path) -> str | None:
    """Return None when the run's output is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        data = json.loads(Path(output).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return f"unreadable output: {exc}"
    if ref.command == "check":
        if data.get("uniformly_improvable") is not True:
            return "values not reported uniformly improvable"
        m = data.get("horizon_certificate", {}).get("m")
        if m != ref.m:
            return f"horizon m {m}, reference {ref.m}"
        return None
    bounds = data.get("bounds", {})
    if bounds.get("method") != ref.expected_method:
        return f"bounds method {bounds.get('method')!r}, expected {ref.expected_method!r}"
    values = np.asarray(data.get("values", []), dtype=float)
    if values.shape != ref.optimal.shape:
        return f"{values.size} values for {ref.optimal.size} states"
    per_state = np.array([_decode(x) for x in bounds.get("per_state_bound", [])])
    if per_state.shape != values.shape:
        return "per_state_bound has the wrong length"
    error = np.abs(values - ref.optimal)
    bad = np.nonzero(~(error <= per_state + BOUND_SLACK))[0]
    if bad.size:
        i = int(bad[0])
        return f"state {i}: |J - J*| = {error[i]:.3e} exceeds its bound {per_state[i]:.3e}"
    if not error.max() <= _decode(bounds.get("global_bound")) + BOUND_SLACK:
        return f"max |J - J*| = {error.max():.3e} exceeds global_bound"
    return None
