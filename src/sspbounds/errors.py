"""Exception hierarchy shared by all sspbounds modules."""

from __future__ import annotations


class SspError(Exception):
    """Base class for all sspbounds errors."""


class ValidationError(SspError):
    """An instance, file, or input is structurally invalid."""


class RowSumViolation(ValidationError):
    def __init__(self, state: int, action: int, row_sum: float):
        self.state = state
        self.action = action
        self.row_sum = row_sum
        super().__init__(
            f"transition probabilities out of state {state} under action "
            f"{action} sum to {row_sum!r}, expected 1 within 1e-12"
        )


class ProbabilityOutOfRange(ValidationError):
    def __init__(self, state: int, action: int, target: int, prob: float):
        self.state = state
        self.action = action
        self.target = target
        self.prob = prob
        super().__init__(
            f"transition probability p[{state},{action},{target}] = {prob!r} "
            f"is outside [0, 1]"
        )


class TerminalNotAbsorbing(ValidationError):
    def __init__(self, terminal: int, action: int, self_loop_prob: float):
        self.terminal = terminal
        self.action = action
        self.self_loop_prob = self_loop_prob
        super().__init__(
            f"terminal state {terminal} must self-loop with probability 1 "
            f"under every action; action {action} gives {self_loop_prob!r}"
        )


class TerminalCostNonzero(ValidationError):
    def __init__(self, terminal: int, action: int, cost: float):
        self.terminal = terminal
        self.action = action
        self.cost = cost
        super().__init__(
            f"terminal self-loop must be free; action {action} charges {cost!r}"
        )


class NonfiniteCost(ValidationError):
    def __init__(self, state: int, action: int, target: int, cost: float):
        self.state = state
        self.action = action
        self.target = target
        self.cost = cost
        super().__init__(f"cost g[{state},{action},{target}] = {cost!r} is not finite")


class ProblemFormatError(ValidationError):
    """A problem or value-function file does not match the JSON schema."""


class NoTerminalTransition(ValidationError):
    """No state-action pair reaches the terminal state with positive probability."""

    def __init__(self) -> None:
        super().__init__(
            "no transition enters the terminal state with positive probability"
        )


class SolverPreconditionError(SspError):
    """A solver or bound was invoked outside its precondition."""


class ImproperPolicy(SolverPreconditionError):
    def __init__(self, unreachable_states):
        self.unreachable_states = tuple(sorted(unreachable_states))
        super().__init__(
            "policy is improper: terminal state unreachable from states "
            f"{list(self.unreachable_states)}"
        )


class NotUniformlyImprovable(SolverPreconditionError):
    def __init__(self, states):
        self.states = tuple(sorted(states))
        super().__init__(
            "value function is not uniformly improvable: one Bellman backup "
            f"increases it at states {list(self.states)}"
        )


class NotAllPoliciesProper(SolverPreconditionError):
    def __init__(self, witness_states, witness_actions):
        self.witness_states = tuple(sorted(witness_states))
        self.witness_actions = dict(witness_actions)
        super().__init__(
            "an improper policy exists: states "
            f"{list(self.witness_states)} can avoid the terminal state forever"
        )


class NonpositiveCost(SolverPreconditionError):
    def __init__(self, triples):
        self.triples = tuple(triples)
        shown = ", ".join(f"({i},{u},{j})" for i, u, j in self.triples[:5])
        more = "" if len(self.triples) <= 5 else f" and {len(self.triples) - 5} more"
        super().__init__(
            f"positive-cost steps bound requires every nonterminal transition "
            f"cost to be positive; offending (state, action, target): {shown}{more}"
        )


class SingularSystem(SspError):
    """Policy evaluation failed numerically; should not happen for proper policies."""


class MaxItersExceeded(SspError):
    """Iteration budget exhausted; carries the partial result.

    The last value function and the trace collected so far remain valid
    inputs for the bound computations.
    """

    def __init__(self, message, values, trace):
        self.values = values
        self.trace = trace
        super().__init__(message)


class HorizonCapExceeded(SspError):
    """Horizon search exceeded its stage cap.

    Signals a modeling violation: some policy can delay termination forever
    at nonpositive cost, so the stage values never rise above the reference
    values.
    """

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(
            f"termination horizon not found within {stage} stages; instance "
            "likely admits a nonpositive-cost nonterminal cycle"
        )
