"""Certified suboptimality bounds from the Bellman residual.

Every bound here has the form  |J*(i) - J(i)| <= ||TJ - J|| * N(i),  where
N(i) upper-bounds the expected number of transitions until termination.
Three procedures produce N(i):

* ``steps_bound_positive_costs``: closed form (J(i) - a) / b + 1 when every
  nonterminal transition cost is positive, a being the cheapest transition
  into the terminal and b the cheapest other transition.
* ``steps_bound_all_proper``: exact solve of the companion instance that
  pays -1 per step, valid when all policies are proper.
* ``termination_horizon`` + ``steps_bound_from_horizon``: a stage count m
  by which any policy no costlier than J must terminate with positive
  probability, turned into the (very loose) bound m / rho_m.

``BoundsContext`` resolves the procedure for an instance and computes the
ingredients of N that do not depend on J once; it then gives the steps
bound, the per-row trace columns and the full report of any iterate.

Every N covers all policies no costlier than J, the greedy policy of a
uniformly improvable J among them. With c- <= 0 <= c+ the extremes of
TJ - J (it is 0 at the terminal), the report's fields give the envelope

    J + c- * N  <=  J*  <=  J_greedy  <=  J + c+ * N.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import SspProblem, check_values
from .dp import (  # bellman_backup stays bound here for code that patches it
    IterationTrace,
    bellman_backup,  # noqa: F401
    policy_iteration,
    require_uniformly_improvable,
    residual_stats,
)
from .errors import (
    HorizonCapExceeded,
    NonpositiveCost,
    NoTerminalTransition,
    NotAllPoliciesProper,
)
from .properness import (
    AllPoliciesProperReport,
    all_policies_proper,
    uniform_random_policy,
)

logger = logging.getLogger(__name__)

# Safety cap for the horizon search. Hitting it means some policy can delay
# termination forever at nonpositive cost, i.e. the instance admits an
# improper policy whose cost never diverges.
DEFAULT_HORIZON_CAP = 10**6

# Below this log rho_m the product p_n^(m-1) p_t is no normal float, and the
# horizon bound m / rho_m is reported as infinite (vacuous).
_LOG_SMALLEST_NORMAL = math.log(sys.float_info.min)


def json_number(x: float | None) -> float | str | None:
    """A float for JSON output; infinities become the string "inf"."""
    return "inf" if x is not None and math.isinf(x) else x


@dataclass(frozen=True)
class HorizonCertificate:
    """Output of the termination-horizon search, in O(S) space.

    ``joined_at[i]`` is the stage at which state i joined the inevitable
    set, the states from which termination within that many stages has
    positive probability under every policy (0 for the terminal, -1 for
    states that never join); :meth:`inevitable_at` gives any stage's set.
    ``values`` holds the cheapest cost of avoiding termination for
    ``last_stage`` stages (NaN on the inevitable set). Any policy whose
    cost-to-go is elementwise at most the reference values terminates
    within ``m`` stages with positive probability from every state.
    """

    m: int
    joined_at: np.ndarray
    values: np.ndarray
    min_terminal_cost: float

    def __post_init__(self):
        for name in ("joined_at", "values"):
            array = np.array(getattr(self, name))
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def last_stage(self) -> int:
        """The final stage of the search: m once every state joined, else m - 1."""
        return self.m if (self.joined_at >= 0).all() else self.m - 1

    def inevitable_at(self, k: int) -> frozenset[int]:
        """The stage-k inevitable set, for 0 <= k <= ``last_stage``."""
        if not 0 <= k <= self.last_stage:
            raise IndexError(f"stage {k} outside 0..{self.last_stage}")
        joined = (self.joined_at >= 0) & (self.joined_at <= k)
        return frozenset(int(i) for i in np.nonzero(joined)[0])

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "min_terminal_cost": self.min_terminal_cost,
            "joined_at": [None if k < 0 else k for k in self.joined_at.tolist()],
            "values": [None if math.isnan(v) else v for v in self.values.tolist()],
        }


@dataclass(frozen=True)
class BoundsReport:
    """Everything needed to certify a value function's suboptimality.

    ``steps_bound`` has the override rule already applied: states that can
    only jump straight to the terminal get N(i) = 1 regardless of the
    producing method and are excluded from the max behind ``global_bound``.
    """

    residual: float
    min_change: float
    max_change: float
    steps_bound: np.ndarray
    per_state_bound: np.ndarray
    global_bound: float
    overrides: tuple[int, ...]
    method: str

    def to_json_dict(self) -> dict:
        return {
            "residual": self.residual,
            "min_change": self.min_change,
            "max_change": self.max_change,
            "steps_bound": [json_number(v) for v in self.steps_bound.tolist()],
            "per_state_bound": [json_number(v) for v in self.per_state_bound.tolist()],
            "global_bound": json_number(self.global_bound),
            "overrides": list(self.overrides),
            "method": self.method,
        }


class TraceRow(NamedTuple):
    """Bound columns of one solver trace row.

    ``j_under`` is the floor of J over the counted states (nonterminal, not
    overridden), ``m`` the max of the steps bound over them and ``error``
    m times the row's residual. ``m`` and ``error`` are None when the row's
    J is not uniformly improvable (or its horizon search hits the cap), and
    ``error`` also on row 0, which has no residual.
    """

    j_under: float
    m: float | None
    error: float | None


class KernelFacts(NamedTuple):
    """What the steps bounds need to know about an instance's transition graph.

    A *move* is a transition out of a nonterminal state, and a *step* a
    move into a nonterminal state. ``overridden`` marks the nonterminal
    states without a step (N = 1 there) and ``counted`` the other
    nonterminal states, those behind max N. ``nonpositive_steps`` lists
    the (state, action, target) triples of steps whose cost is not
    positive, in row-major order. ``min_terminal_cost`` (a) and
    ``p_terminal`` (p_t) are the cheapest cost and the smallest
    probability of a move into the terminal, None when there is none.
    ``min_step_cost`` (b) and ``p_nonterminal`` (p_n) are the same for
    steps, inf and 1 when there is no step.
    """

    overridden: np.ndarray
    counted: np.ndarray
    nonpositive_steps: np.ndarray
    min_terminal_cost: float | None
    p_terminal: float | None
    min_step_cost: float
    p_nonterminal: float

    def terminal_move(self) -> tuple[float, float]:
        """(a, p_t); raises :class:`NoTerminalTransition` when no move enters the terminal."""
        if self.min_terminal_cost is None:
            raise NoTerminalTransition()
        return self.min_terminal_cost, self.p_terminal

    def positive_cost(self) -> tuple[float, float]:
        """(a, b) of the closed form."""
        if self.nonpositive_steps.size:
            raise NonpositiveCost(tuple(map(int, triple)) for triple in self.nonpositive_steps)
        return self.terminal_move()[0], self.min_step_cost


def _kernel_facts(problem: SspProblem) -> KernelFacts:
    """Read the structural facts of the steps bounds off the nonzero-transition view."""
    view = problem.transitions
    t = problem.terminal
    states, actions = np.divmod(view.row, problem.num_actions)
    moves = states != t
    into_terminal = moves & (view.to == t)
    steps = moves & (view.to != t)

    overridden = np.ones(problem.num_states, dtype=bool)
    overridden[states[steps]] = False
    overridden[t] = False
    counted = ~overridden
    counted[t] = False

    nonpositive = steps & ~(view.cost > 0.0)
    nonpositive_steps = np.column_stack(
        (states[nonpositive], actions[nonpositive], view.to[nonpositive])
    )
    min_terminal_cost = p_terminal = None
    if into_terminal.any():
        min_terminal_cost = float(view.cost[into_terminal].min())
        p_terminal = float(view.prob[into_terminal].min())
    min_step_cost = math.inf
    p_nonterminal = 1.0
    if steps.any():
        min_step_cost = float(view.cost[steps].min())
        p_nonterminal = float(view.prob[steps].min())
    return KernelFacts(
        overridden=overridden,
        counted=counted,
        nonpositive_steps=nonpositive_steps,
        min_terminal_cost=min_terminal_cost,
        p_terminal=p_terminal,
        min_step_cost=min_step_cost,
        p_nonterminal=p_nonterminal,
    )


def immediate_termination_states(problem: SspProblem) -> np.ndarray:
    """Boolean mask of nonterminal states whose every action jumps to the terminal.

    Such a state terminates in exactly one step under any policy, so its
    steps bound can be overridden to 1.
    """
    return _kernel_facts(problem).overridden


def _certified(residual: float, steps) -> np.ndarray:
    """residual * steps, where a zero residual certifies J exactly even at N = inf."""
    steps = np.asarray(steps, dtype=float)
    if residual == 0.0:
        steps = np.where(np.isinf(steps), 0.0, steps)
    return residual * steps


def steps_bound_positive_costs(problem: SspProblem, values: np.ndarray) -> np.ndarray:
    """Closed-form steps bound N(i) = (J(i) - a) / b + 1 for positive step costs.

    Valid for any policy whose cost-to-go is elementwise at most the
    uniformly improvable J: a policy that lingered longer would already
    cost more than J. Here a is the cheapest transition into the terminal
    (its sign is unrestricted) and b the cheapest nonterminal transition,
    all of which must be strictly positive.

    Entries that come out below 1 are clamped to 1 (a nonterminal state
    needs at least one transition) and the clamp is logged.
    """
    values = check_values(problem, values)
    require_uniformly_improvable(problem, values)
    a, b = _kernel_facts(problem).positive_cost()
    return _positive_cost_steps(problem, values, a, b)


def _positive_cost_steps(
    problem: SspProblem, values: np.ndarray, min_terminal_cost: float, min_step_cost: float
) -> np.ndarray:
    """(J(i) - a) / b + 1, clamped to at least 1 at every nonterminal state."""
    steps = np.zeros(problem.num_states)
    nt = problem.nonterminal
    steps[nt] = (values[nt] - min_terminal_cost) / min_step_cost + 1.0
    low = nt[steps[nt] < 1.0]
    if low.size:
        logger.warning(
            "clamping steps bound to 1 at states %s (value below cheapest "
            "terminal transition cost %.6g)",
            low.tolist(),
            min_terminal_cost,
        )
        steps[low] = 1.0
    return steps


def steps_bound_all_proper(
    problem: SspProblem, report: AllPoliciesProperReport | None = None
) -> np.ndarray:
    """Steps bound valid for *every* policy, via the companion instance.

    The companion keeps the transition structure but pays 0 for entering
    the terminal and -1 for everything else, so minimizing its total cost
    maximizes the expected step count. Solvable, and the bound finite,
    exactly when all policies are proper. ``report`` is the instance's
    :func:`all_policies_proper` report when the caller already has it.
    """
    if report is None:
        report = all_policies_proper(problem)
    if not report.all_proper:
        raise NotAllPoliciesProper(report.witness_states, report.witness_actions)
    view = problem.transitions
    steps_cost = np.where(view.to != problem.terminal, -1.0, 0.0)
    companion = replace(problem, transitions=replace(view, cost=steps_cost))
    _, worst_values, _ = policy_iteration(companion, uniform_random_policy(companion))
    steps = np.zeros(problem.num_states)
    nt = problem.nonterminal
    steps[nt] = 1.0 - worst_values[nt]
    return steps


def termination_horizon(
    problem: SspProblem,
    values: np.ndarray,
    criterion: str = "text",
    max_stages: int | None = None,
) -> HorizonCertificate:
    """Find a stage count m by which low-cost policies must be able to terminate.

    Runs a finite-horizon recursion on the cheapest cost of *avoiding*
    termination. Stage k marks as inevitable the states whose every action
    risks entering the stage-(k-1) inevitable set, and backs up the
    avoidance cost elsewhere using only the risk-free actions. Once
    avoiding for k stages plus the cheapest terminal transition already
    exceeds the reference values everywhere, no policy at least as good as
    ``values`` can keep delaying, and m = k + 1 (or m = k when every state
    became inevitable first). Each stage costs O(nnz) in the nonzero
    transitions.

    ``criterion`` selects the stopping comparison: ``"text"`` adds the
    cheapest terminal-transition cost before comparing (the default),
    ``"pseudocode"`` compares the bare stage values and yields a larger m.

    Raises :class:`HorizonCapExceeded` after ``max_stages`` stages, or as
    soon as a stage changes nothing, which indicates a zero-cost way to
    delay termination forever.
    """
    values = check_values(problem, values)
    require_uniformly_improvable(problem, values)
    if criterion not in ("text", "pseudocode"):
        raise ValueError(f"criterion must be 'text' or 'pseudocode', got {criterion!r}")
    min_terminal_cost, _ = _kernel_facts(problem).terminal_move()
    offset = min_terminal_cost if criterion == "text" else 0.0
    m, joined_at, stage_values = _search_horizon(problem, values, offset, max_stages)
    return HorizonCertificate(
        m=m,
        joined_at=joined_at,
        values=np.where(joined_at >= 0, np.nan, stage_values),
        min_terminal_cost=min_terminal_cost,
    )


def _search_horizon(
    problem: SspProblem, values: np.ndarray, offset: float, max_stages: int | None = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """The horizon recursion: m, each state's joining stage and the last stage values.

    ``offset`` is added to the stage values before the stop comparison.
    The returned values are stale on the inevitable set.
    """
    if max_stages is None:
        max_stages = DEFAULT_HORIZON_CAP
    num_states, num_actions = problem.num_states, problem.num_actions
    view = problem.transitions
    joined_at = np.full(num_states, -1, dtype=np.int64)
    joined_at[problem.terminal] = 0
    frontier = np.array([problem.terminal])
    risky = np.zeros((num_states, num_actions), dtype=bool)
    risky_rows = risky.reshape(-1)
    stage_values = np.zeros(num_states)

    k = 0
    while True:
        outside = joined_at < 0
        if not outside.any():
            return k, joined_at, stage_values
        if (stage_values[outside] + offset > values[outside]).all():
            return k + 1, joined_at, stage_values
        if k >= max_stages:
            raise HorizonCapExceeded(k)
        k += 1
        # Actions are usable at stage k only if they carry no mass into the
        # stage-(k-1) inevitable set; only the rows entering the states that
        # joined last can newly lose that. Most stages have no such state.
        if frontier.size:
            risky_rows[view.row[view.entering(frontier)]] = True
        can_avoid = ~risky.all(axis=1)
        joining = outside & ~can_avoid
        staying = outside & can_avoid
        # stale values on the inevitable set only reach risky rows
        backed = np.bincount(
            view.row,
            view.prob * (view.cost + stage_values[view.to]),
            minlength=num_states * num_actions,
        ).reshape(num_states, num_actions)
        backed[risky] = np.inf
        new_values = np.where(staying, backed.min(axis=1), stage_values)
        if not joining.any() and np.array_equal(new_values, stage_values):
            # Every later stage would repeat this one, so the stop test that
            # just failed would fail forever.
            raise HorizonCapExceeded(k)
        frontier = np.nonzero(joining)[0]
        joined_at[frontier] = k
        stage_values = new_values


def steps_bound_from_horizon(
    problem: SspProblem, certificate: HorizonCertificate
) -> np.ndarray:
    """Loose uniform steps bound m / rho_m from a horizon certificate.

    rho_m = p_n^(m-1) * p_t lower-bounds the probability of terminating
    within m stages, where p_t is the smallest nonzero probability of a
    transition into the terminal and p_n the smallest nonzero probability
    of any other transition. The resulting bound is sound but usually far
    looser than the cost-based bounds. When rho_m is too small to be a
    normal float the bound is infinite, i.e. vacuous.
    """
    facts = _kernel_facts(problem)
    _, p_terminal = facts.terminal_move()
    steps = np.zeros(problem.num_states)
    steps[problem.nonterminal] = _horizon_steps(
        certificate.m, p_terminal, facts.p_nonterminal
    )
    return steps


def _horizon_steps(m: int, p_terminal: float, p_nonterminal: float) -> float:
    """m / rho_m with rho_m = p_n^(m-1) p_t, or inf when rho_m underflows."""
    log_rho = (m - 1) * math.log(p_nonterminal) + math.log(p_terminal)
    if log_rho < _LOG_SMALLEST_NORMAL:
        return math.inf
    return m / (p_nonterminal ** (m - 1) * p_terminal)


def resolve_method(problem: SspProblem, method: str = "auto") -> str:
    """Pick the steps-bound procedure for an instance.

    ``auto`` resolves to positive-cost when every nonterminal transition
    cost is positive, else all-proper when no improper policy exists, else
    the general horizon-based procedure.
    """
    return _resolve(problem, method, _kernel_facts(problem))[0]


def _resolve(
    problem: SspProblem, method: str, facts: KernelFacts
) -> tuple[str, AllPoliciesProperReport | None]:
    """The resolved method, plus the properness report if resolving needed one."""
    if method != "auto":
        if method not in ("positive-cost", "all-proper", "general"):
            raise ValueError(f"unknown bounds method {method!r}")
        return method, None
    if not facts.nonpositive_steps.size:
        return "positive-cost", None
    report = all_policies_proper(problem)
    return ("all-proper" if report.all_proper else "general"), report


@dataclass(frozen=True)
class BoundsContext:
    """The steps-bound procedure of one instance and its J-independent ingredients.

    Build it once per run with :meth:`for_problem`. ``method`` is the
    resolved procedure and ``facts`` the instance's :class:`KernelFacts`,
    whose ingredients of that procedure are known to exist: the override
    mask, the counted states, and a and b for positive-cost or a, p_t and
    p_n for general. ``all_proper_steps`` holds the companion solve of
    all-proper. Per iterate, positive-cost and all-proper then cost O(S);
    general runs the horizon search, O(nnz) per stage, for each J, on the
    instance's nonzero-transition view.
    """

    problem: SspProblem
    method: str
    facts: KernelFacts
    all_proper_steps: np.ndarray | None = None

    @classmethod
    def for_problem(cls, problem: SspProblem, method: str = "auto") -> BoundsContext:
        """Resolve the method; raises when its ingredients do not exist."""
        facts = _kernel_facts(problem)
        resolved, proper_report = _resolve(problem, method, facts)
        all_proper_steps = None
        # called for their errors only: the context reads the fields
        if resolved == "positive-cost":
            facts.positive_cost()
        elif resolved == "all-proper":
            all_proper_steps = steps_bound_all_proper(problem, proper_report)
        else:
            facts.terminal_move()
        return cls(problem, resolved, facts, all_proper_steps)

    def steps(self, values: np.ndarray) -> np.ndarray:
        """Per-state steps bound of a uniformly improvable J, overrides applied.

        The caller vouches for improvability. Raises
        :class:`HorizonCapExceeded` when the general method's search does.
        """
        facts = self.facts
        if self.method == "positive-cost":
            steps = _positive_cost_steps(
                self.problem, values, facts.min_terminal_cost, facts.min_step_cost
            )
        elif self.method == "all-proper":
            steps = self.all_proper_steps.copy()
        else:
            m, _, _ = _search_horizon(self.problem, values, facts.min_terminal_cost)
            steps = np.zeros(self.problem.num_states)
            steps[self.problem.nonterminal] = _horizon_steps(
                m, facts.p_terminal, facts.p_nonterminal
            )
        steps[facts.overridden] = 1.0
        return steps

    def row(
        self,
        values: np.ndarray,
        residual: float | None,
        improvable: bool,
        sign: float = 1.0,
    ) -> TraceRow:
        """Trace columns of one iterate, given its uniform-improvability verdict.

        ``sign`` is -1 to report the floor of a reward-form file.
        """
        counted = self.facts.counted
        j_under = float((sign * values[counted]).min()) if counted.any() else 0.0
        if not improvable:
            return TraceRow(j_under, None, None)
        try:
            steps = self.steps(values)
        except HorizonCapExceeded:
            return TraceRow(j_under, None, None)
        m = float(steps[counted].max()) if counted.any() else 1.0
        error = None if residual is None else float(_certified(residual, m))
        return TraceRow(j_under, m, error)

    def report(self, values: np.ndarray) -> BoundsReport:
        """Full bounds report of a uniformly improvable J, from one backup."""
        values = check_values(self.problem, values)
        stats = residual_stats(require_uniformly_improvable(self.problem, values), values)
        steps = self.steps(values)
        counted = self.facts.counted
        factor = float(steps[counted].max()) if counted.any() else 1.0
        return BoundsReport(
            residual=stats.residual,
            min_change=stats.min_change,
            max_change=stats.max_change,
            steps_bound=steps,
            per_state_bound=_certified(stats.residual, steps),
            global_bound=float(_certified(stats.residual, factor)),
            overrides=tuple(int(i) for i in np.nonzero(self.facts.overridden)[0]),
            method=self.method if counted.any() else "override",
        )

    def certify(
        self, trace: IterationTrace, sign: float = 1.0
    ) -> tuple[BoundsReport, list[TraceRow]]:
        """Report of a solver run's last iterate, plus the bound columns of every row.

        Row k's improvability verdict comes from the solver's backup stored
        in record k + 1; the last row's from the report, which accepts only
        an improvable J.
        """
        records = trace.records
        report = self.report(records[-1].values)
        verdicts = [record.improvable for record in records[1:]] + [True]
        rows = [
            self.row(record.values, record.residual, improvable, sign)
            for record, improvable in zip(records, verdicts)
        ]
        return report, rows


def compute_bounds_report(
    problem: SspProblem, values: np.ndarray, method: str = "auto"
) -> BoundsReport:
    """Assemble the full bounds report for a uniformly improvable value function."""
    return BoundsContext.for_problem(problem, method).report(values)
