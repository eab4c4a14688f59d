import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (
    dense,
    monte_carlo_steps,
    open_grid,
    problem_to_json_dict,
    random_all_proper_ssp,
    random_discounted,
    random_proper_mixed_ssp,
    wide_random_ssp,
)
from sspbounds import (
    DeterministicPolicy,
    SspProblem,
    StochasticPolicy,
    action_values,
    from_discounted,
    load_problem,
    policy_cost_vector,
    policy_transition_matrix,
    save_problem,
    termination_horizon,
    uniform_random_policy,
    validate,
)
import sspbounds.core
from sspbounds.core import Transitions, distinct, problem_from_json_dict
from sspbounds.errors import (
    NonfiniteCost,
    ProbabilityOutOfRange,
    ProblemFormatError,
    RowSumViolation,
    TerminalCostNonzero,
    TerminalNotAbsorbing,
    ValidationError,
)


def terminal_only_instance():
    prob = np.ones((1, 1, 1))
    cost = np.zeros((1, 1, 1))
    return SspProblem(num_states=1, num_actions=1, terminal=0, prob=prob, cost=cost)


def rebuild(problem, prob=None, cost=None):
    kernel = dense(problem)
    return SspProblem(
        num_states=problem.num_states,
        num_actions=problem.num_actions,
        terminal=problem.terminal,
        prob=kernel.prob if prob is None else prob,
        cost=kernel.cost if cost is None else cost,
    )


class TestValidate:
    def test_gridworld_passes(self, grid):
        validate(grid)

    def test_minimal_terminal_only_instance(self):
        validate(terminal_only_instance())

    def test_perturbed_probability_row(self, grid):
        prob = dense(grid).prob.copy()
        where = np.argwhere(prob == 0.8)[0]
        prob[tuple(where)] = 0.79
        with pytest.raises(RowSumViolation) as info:
            validate(rebuild(grid, prob=prob))
        assert info.value.state == where[0]
        assert abs(info.value.row_sum - 0.99) < 1e-9

    def test_terminal_not_absorbing(self, stay_go):
        # the second row stores no self-loop entry at all
        for row, loop in (([0.5, 0.5], 0.5), ([1.0, 0.0], 0.0)):
            prob = dense(stay_go).prob.copy()
            prob[1, 0] = row
            with pytest.raises(TerminalNotAbsorbing) as info:
                validate(rebuild(stay_go, prob=prob))
            assert (info.value.action, info.value.self_loop_prob) == (0, loop)

    def test_terminal_cost_nonzero(self, stay_go):
        cost = dense(stay_go).cost.copy()
        cost[1, 1, 1] = 0.25
        with pytest.raises(TerminalCostNonzero):
            validate(rebuild(stay_go, cost=cost))

    def test_nonfinite_cost(self, stay_go):
        cost = dense(stay_go).cost.copy()
        cost[0, 0, 1] = np.inf
        with pytest.raises(NonfiniteCost):
            validate(rebuild(stay_go, cost=cost))

    def test_probability_out_of_range(self, stay_go):
        prob = dense(stay_go).prob.copy()
        prob[0, 0] = [-0.5, 1.5]
        with pytest.raises(ProbabilityOutOfRange):
            validate(rebuild(stay_go, prob=prob))

    def test_names_the_first_offending_entry(self, stay_go):
        # a negative probability and a non-finite cost on a zero-probability
        # entry are stored, so validate finds them where the dense scan did
        prob = dense(stay_go).prob.copy()
        prob[0, 1] = [-0.5, 1.5]
        with pytest.raises(ProbabilityOutOfRange) as info:
            validate(rebuild(stay_go, prob=prob))
        assert (info.value.state, info.value.action, info.value.target) == (0, 1, 0)
        cost = dense(stay_go).cost.copy()
        cost[0, 0, 0] = np.nan  # prob[0, 0, 0] is 0
        with pytest.raises(NonfiniteCost) as info:
            validate(rebuild(stay_go, cost=cost))
        assert (info.value.state, info.value.action, info.value.target) == (0, 0, 0)
        # a finite cost without probability changes nothing
        cost[0, 0, 0] = 5.0
        assert rebuild(stay_go, cost=cost).transitions.row.size == 4

    def test_accepts_exactly_the_invariant_satisfying_instances(self):
        # Random instances, randomly mutated; validate must agree with a
        # direct statement of the three invariants.
        rng = np.random.default_rng(1234)
        for _ in range(200):
            problem = random_all_proper_ssp(rng)
            prob = dense(problem).prob.copy()
            cost = dense(problem).cost.copy()
            mutation = rng.integers(0, 5)
            if mutation == 1:
                i = int(rng.integers(0, problem.num_states))
                u = int(rng.integers(0, problem.num_actions))
                j = int(rng.integers(0, problem.num_states))
                prob[i, u, j] += rng.uniform(0.01, 0.5)
            elif mutation == 2:
                prob[problem.terminal, 0, problem.terminal] = 0.9
            elif mutation == 3:
                cost[problem.terminal, 0, problem.terminal] = 1.0
            elif mutation == 4:
                cost[0, 0, 0] = np.nan
            mutated = rebuild(problem, prob=prob, cost=cost)

            row_ok = np.abs(prob.sum(axis=2) - 1.0).max() <= 1e-12
            range_ok = (prob >= 0).all() and (prob <= 1 + 1e-12).all()
            t = problem.terminal
            absorbing_ok = np.abs(prob[t, :, t] - 1.0).max() <= 1e-12
            zero_cost_ok = (cost[t, :, t] == 0.0).all()
            finite_ok = np.isfinite(cost).all()
            should_pass = row_ok and range_ok and absorbing_ok and zero_cost_ok and finite_ok

            if should_pass:
                validate(mutated)
            else:
                with pytest.raises(Exception):
                    validate(mutated)


def expected_costs(problem):
    """One-step expected cost of every (state, action): the backup of J = 0."""
    return action_values(problem, np.zeros(problem.num_states))


class TestExpectedCost:
    def test_terminal_state_is_free(self, grid):
        assert (expected_costs(grid)[grid.terminal] == 0.0).all()

    def test_stay_action_costs_one(self, stay_go):
        assert expected_costs(stay_go)[0, 1] == 1.0
        assert expected_costs(stay_go)[0, 0] == 2.0

    def test_gridworld_movement_costs(self, grid):
        assert expected_costs(grid)[0] == pytest.approx(np.full(4, 0.04), abs=1e-12)

    def test_terminal_free_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            problem = random_proper_mixed_ssp(rng)
            assert (expected_costs(problem)[problem.terminal] == 0.0).all()


class TestFromDiscounted:
    def test_one_state_reduction(self):
        problem = from_discounted([[[1.0]]], [[[0.5]]], beta=0.9)
        assert problem.num_states == 2
        assert problem.terminal == 1
        assert dense(problem).prob[0, 0, 1] == pytest.approx(0.1, abs=1e-12)
        assert dense(problem).prob[0, 0, 0] == pytest.approx(0.9, abs=1e-12)
        assert dense(problem).cost[0, 0, 1] == 0.0
        validate(problem)

    def test_half_discount_halves_probabilities(self):
        rng = np.random.default_rng(3)
        transitions = rng.uniform(0.1, 1.0, size=(2, 2, 2))
        transitions /= transitions.sum(axis=2, keepdims=True)
        costs = rng.normal(size=transitions.shape)
        problem = from_discounted(transitions, costs, beta=0.5)
        assert np.allclose(dense(problem).prob[:2, :, :2], 0.5 * transitions, atol=1e-15)
        assert np.abs(dense(problem).prob.sum(axis=2) - 1.0).max() <= 1e-12

    def test_output_always_validates(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = int(rng.integers(1, 4))
            transitions = rng.uniform(0.05, 1.0, size=(n, a, n))
            transitions /= transitions.sum(axis=2, keepdims=True)
            costs = rng.normal(size=transitions.shape)
            beta = float(rng.uniform(0.05, 0.95))
            problem = from_discounted(transitions, costs, beta)
            validate(problem)
            assert np.abs(dense(problem).prob.sum(axis=2) - 1.0).max() <= 1e-12

    def test_expected_steps_match_discount_horizon(self):
        rng = np.random.default_rng(21)
        transitions = rng.uniform(0.1, 1.0, size=(3, 2, 3))
        transitions /= transitions.sum(axis=2, keepdims=True)
        problem = from_discounted(transitions, np.zeros_like(transitions), beta=0.9)
        result = monte_carlo_steps(
            problem, uniform_random_policy(problem), start=0, trials=20_000, seed=5, cap=2_000
        )
        assert result.capped == 0
        assert abs(result.mean - 10.0) <= 3 * result.ci95

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            from_discounted([[[1.0]]], [[[0.0]]], beta=0.0)
        with pytest.raises(ValueError):
            from_discounted([[[1.0]]], [[[0.0]]], beta=1.0)

    def test_rows_must_be_stochastic(self):
        with pytest.raises(RowSumViolation):
            from_discounted([[[0.7]]], [[[0.0]]], beta=0.9)

    def test_rows_checked_with_the_validation_tolerance(self):
        # a row within 1e-9 but not 1e-12 of 1 would build an instance that fails validation
        transitions = np.array([[[0.5, 0.5]], [[0.5, 0.5 + 1e-10]]])
        with pytest.raises(RowSumViolation):
            from_discounted(transitions, np.zeros_like(transitions), beta=0.9)

    def test_rows_normalized_by_division_build_and_validate(self):
        transitions, costs = random_discounted(np.random.default_rng(4), 300, num_actions=3)
        validate(from_discounted(transitions, costs, beta=0.99))


def written(problem, convention, path) -> str:
    """Save ``problem`` to ``path`` and return the text, checked against the oracle."""
    save_problem(problem, path, convention)
    text = path.read_text(encoding="utf-8")
    expected = json.dumps(problem_to_json_dict(problem, convention), indent=2) + "\n"
    if text != expected:
        # pointed, not pytest's diff, which takes minutes on megabyte texts
        at = len(os.path.commonprefix([text, expected]))
        pytest.fail(f"written {text[at - 80 : at + 40]!r}, expected {expected[at - 80 : at + 40]!r}")
    return text


def reward_records(problem, path) -> dict:
    """The reward-form file's cost fields, keyed by (from, action, to)."""
    records = json.loads(written(problem, "reward", path))["transitions"]
    return {(r["from"], r["action"], r["to"]): r["cost"] for r in records}


def unvalidated_instance() -> SspProblem:
    """A NaN probability and infinite costs, which only validation rejects."""
    view = Transitions.from_entries(
        3, row=[0, 0, 1, 2], to=[1, 2, 2, 2],
        prob=[math.nan, 0.5, 1.0, 1.0], cost=[math.inf, -math.inf, 1.0, 0.0],
    )
    return SspProblem(3, 1, terminal=2, transitions=view)


def entryless_instance() -> SspProblem:
    """An instance with no stored transitions at all."""
    view = Transitions.from_entries(2, row=[], to=[], prob=[], cost=[])
    return SspProblem(2, 1, terminal=1, transitions=view)


class TestNegateCosts:
    """Reward-form files: the writer negates the costs and the loader negates them back."""

    def test_terminal_self_loop_stays_zero(self, stay_go, tmp_path):
        path = tmp_path / "stay_go.json"
        records = reward_records(stay_go, path)
        loops = [g for (i, _, _), g in records.items() if i == stay_go.terminal]
        assert loops == [0.0, 0.0]
        assert all(math.copysign(1.0, g) == 1.0 for g in loops)
        assert '"cost": -0.0' not in path.read_text(encoding="utf-8")
        loaded, _ = load_problem(path)
        assert dense(loaded).cost[1, 0, 1] == 0.0  # and it validated

    def test_gridworld_sign_flip(self, grid, tmp_path):
        rewards = reward_records(grid, tmp_path / "grid.json")
        assert rewards[(0, 2, 1)] == pytest.approx(-0.04)
        assert rewards[(3, 0, grid.terminal)] == 1.0

    def test_double_negation_is_bit_identical(self, grid, tmp_path):
        path = tmp_path / "grid.json"
        written(grid, "reward", path)
        loaded, convention = load_problem(path)
        assert convention == "reward"
        assert dense(loaded).cost.tobytes() == dense(grid).cost.tobytes()
        assert dense(loaded).prob.tobytes() == dense(grid).prob.tobytes()


def test_distinct_is_unique():
    rng = np.random.default_rng(5)
    cases = [np.array([], dtype=np.int64), np.array([3, 3, 3]), np.arange(5)[::-1]]
    cases += [rng.integers(0, n, size=n) for n in (1, 2, 10, 1000)]
    for values in cases:
        result = distinct(values)
        assert result.dtype == values.dtype
        assert result.tolist() == np.unique(values).tolist()


class TestPolicies:
    def test_deterministic_policy_validation(self):
        with pytest.raises(ValueError):
            DeterministicPolicy(actions=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            DeterministicPolicy(actions=np.array([-1, 0]))

    def test_stochastic_policy_validation(self):
        with pytest.raises(ValueError):
            StochasticPolicy(weights=np.array([[0.7, 0.2]]))
        with pytest.raises(ValueError):
            StochasticPolicy(weights=np.array([[1.2, -0.2]]))

    def test_policy_kernels_on_stay_go(self, stay_go):
        go = DeterministicPolicy(actions=np.array([0, 0]))
        assert np.array_equal(policy_transition_matrix(stay_go, go), [[0, 1], [0, 1]])
        assert np.array_equal(policy_cost_vector(stay_go, go), [2.0, 0.0])

        mixed = uniform_random_policy(stay_go)
        assert np.allclose(
            policy_transition_matrix(stay_go, mixed), [[0.5, 0.5], [0, 1]]
        )
        assert np.allclose(policy_cost_vector(stay_go, mixed), [1.5, 0.0])


class TestImmutable:
    """Instances, policies and certificates can be shared: nothing rewrites their fields."""

    def test_fields_cannot_be_assigned_or_deleted(self, stay_go):
        fields = [
            (stay_go, ("num_states", "num_actions", "terminal", "transitions")),
            (stay_go.transitions, ("num_states", "row", "to", "prob", "cost")),
            (DeterministicPolicy(actions=np.array([0, 0])), ("actions",)),
            (uniform_random_policy(stay_go), ("weights",)),
        ]
        for instance, names in fields:
            for name in (*names, "extra"):
                with pytest.raises(AttributeError):
                    setattr(instance, name, None)
            for name in names:
                with pytest.raises(AttributeError):
                    delattr(instance, name)
                assert getattr(instance, name) is not None

    def test_arrays_are_read_only(self, stay_go):
        view = stay_go.transitions
        certificate = termination_horizon(stay_go, np.array([2.0, 0.0]))
        arrays = [
            view.row,
            view.to,
            view.prob,
            view.cost,
            DeterministicPolicy(actions=np.array([0, 0])).actions,
            uniform_random_policy(stay_go).weights,
            certificate.joined_at,
            certificate.values,
        ]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1


def more_than_one_block_instance() -> SspProblem:
    rng = np.random.default_rng(8)
    return from_discounted(*random_discounted(rng, num_states=40, num_actions=11), 0.9)


def whole_blocks_instance(blocks: int) -> SspProblem:
    """A chain whose records fill exactly ``blocks`` of the writer's blocks.

    Each of its nonterminal states moves on or exits, with probability
    1/2 each; the last one exits for sure.
    """
    n = blocks * sspbounds.core._WRITE_BLOCK // 2  # nonterminal states; n is the terminal
    states = np.arange(n - 1)
    costs = np.random.default_rng(5).uniform(0.1, 1.0, size=2 * n - 1)
    view = Transitions.from_entries(
        n + 1,
        np.concatenate((states, states, [n - 1, n])),
        np.concatenate((states + 1, np.full(n - 1, n), [n, n])),
        np.concatenate((np.full(2 * n - 2, 0.5), [1.0, 1.0])),
        np.concatenate((costs, [0.0])),
    )
    return SspProblem(n + 1, 1, n, transitions=view)


def read_outcome(read, path):
    """What a reader makes of a file: the instance, or the error's type and message."""
    try:
        problem, convention = read(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    view = problem.transitions
    fields = (getattr(view, name).tobytes() for name in ("row", "to", "prob", "cost"))
    return (convention, problem.num_states, problem.num_actions, problem.terminal, *fields)


def parsed_whole(source):
    """The record-by-record read: ``problem_from_json_dict`` of a file's or some bytes' text."""
    text = source.decode() if isinstance(source, bytes) else source.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"instance file is not valid JSON: {exc}") from exc
    return problem_from_json_dict(data)


def block_read(content: bytes):
    """The block reader's outcome on a file's bytes; None where ``load_problem`` reads it whole."""
    written = sspbounds.core._read_written(io.BytesIO(content))
    if written is None:
        return None
    return read_outcome(lambda _: sspbounds.core._instance(*written, ordered=True), content)


def tiny_instance() -> SspProblem:
    """One decision state whose records spell signs, exponents and several digits."""
    view = Transitions.from_entries(
        2, [0, 0, 1, 2, 3], [0, 1, 1, 1, 1], [0.5, 0.5, 1.0, 1.0, 1.0],
        [3.25, -2.5e-05, 12.0, 0.0, 0.0],
    )
    return SspProblem(2, 2, 1, transitions=view)


# What the mutations below put into a file, one at a time.
MUTATION_CHARS = [*"0123456789.+-eE", " ", ",", "\n", ":", '"']
MUTATION_PAIRS = ["55", "5 ", " 5", "e5", ".5", "05", ",5"]


def mutations(text: str, records):
    """Edits of ``text`` at every offset of the given records, each of them a whole file.

    Each character and pair above is inserted, or written over as many
    characters, at every offset; each character also over two. Each
    field's number is moved to every other offset of its record, and each
    field's number is put against its colon with the space after it and a
    digit inserted at every offset of its record: the fast path's field
    check is what rejects these.
    """
    for span in (record_span(text, i) for i in records):
        record = text[span]
        for at in range(span.start, span.stop):
            for piece in MUTATION_CHARS + MUTATION_PAIRS:
                yield text[:at] + piece + text[at:]
                yield text[:at] + piece + text[at + len(piece) :]
            for piece in MUTATION_CHARS:
                yield text[:at] + 2 * piece + text[at + 2 :]
        for field in re.finditer(r": ([^,\n]+)", record):
            number = field[1]
            without = record[: field.start(1)] + record[field.end(1) :]
            against = record[: field.start()] + f":{number} " + record[field.end() :]
            edits = [without[:at] + number + without[at:] for at in range(len(without) + 1)]
            edits += [against[:at] + "5" + against[at:] for at in range(len(against) + 1)]
            for edited in edits:
                yield text[: span.start] + edited + text[span.stop :]


def set_field(name, value):
    """A record edit writing ``value``, text or a function of the old text, into a field."""
    field = re.compile(rf'("{name}": )([^,\n]*)')
    new = value if callable(value) else lambda old: value
    return lambda record: field.sub(lambda m: m[1] + new(m[2]), record, count=1)


def empty(name, record):
    return set_field(name, "")(record)


def swap_prob_and_cost(record):
    prob, cost = (re.search(rf'"{name}": [^,\n]*', record)[0] for name in ("prob", "cost"))
    return record.replace(prob, "@").replace(cost, prob).replace("@", cost)


# Edits of one record, each a departure from the writer's layout, its
# number grammar or its invariants, or a change within them.
RECORD_EDITS = {
    "leading zero index": set_field("to", lambda old: "0" + old),
    "leading zero cost": set_field("cost", "01.5"),
    "plus sign": set_field("cost", "+1"),
    "no integer part": set_field("prob", ".5"),
    "no fraction digits": set_field("cost", "1."),
    "NaN probability": set_field("prob", "NaN"),
    "infinite cost": set_field("cost", "-Infinity"),
    "cost 1e400": set_field("cost", "1e400"),
    "integer cost beyond floats": set_field("cost", "1" + "0" * 400),
    "inexact integer cost": set_field("cost", "123456789012345678901"),
    "other cost": set_field("cost", "-2.5e-3"),
    "index as 1.0": set_field("to", lambda old: old + ".0"),
    "index as 1e0": set_field("action", lambda old: old + "e0"),
    "index 2**53": set_field("from", str(2**53)),
    "index 2**53 + 1": set_field("to", str(2**53 + 1)),
    "fractional index": set_field("to", "1.5"),
    "index out of range": set_field("to", "999"),
    "action out of range": set_field("action", "3"),
    "negative index": set_field("action", "-1"),
    "empty field": set_field("prob", ""),
    "keys swapped": swap_prob_and_cost,
    "extra key": lambda r: r.replace("\n    }", ',\n      "note": 1\n    }'),
    "extra space": lambda r: r.replace('"from": ', '"from":  '),
    "digit in a key": lambda r: r.replace('"action"', '"act1ion"'),
    # a number character where no number goes, with the field it reads as empty
    "digit in a key, field empty": lambda r: empty("action", r).replace("ac", "a1c"),
    "digit before the colon, field empty": lambda r: empty("to", r).replace('o":', 'o"5:'),
    "digit after the colon, field empty": lambda r: empty("to", r).replace('o": ', 'o":5 '),
    # a number against the colon joins a number character before it
    "digit before the colon, number against it": lambda r: set_field("cost", "25")(r).replace(
        '"cost": 25', '"cost"5:25 '
    ),
    "digit in the indentation": lambda r: r.replace('\n      "prob"', '\n   7   "prob"'),
    "digit after a record, field empty": lambda r: empty("cost", r).replace("\n    }", "\n  3  }"),
    "duplicate record": lambda r: r + ",\n" + r,
    "CRLF in a record": lambda r: r.replace("\n", "\r\n"),
}


def record_span(text: str, index: int) -> slice:
    """Where record number ``index`` of a file in the writer's layout lies in its text."""
    start = [m.start() for m in re.finditer(r"^    \{$", text, re.M)][index]
    return slice(start, text.index("\n    }", start) + len("\n    }"))


def edit_record(text: str, index: int, edit) -> str:
    """``text`` with ``edit`` applied to its record number ``index``."""
    span = record_span(text, index)
    return text[: span.start] + edit(text[span]) + text[span.stop :]


def record_across(text: str, offset: int) -> int:
    """The number of the record that spans byte ``offset`` of the (ASCII) text."""
    return len(re.findall(r"^    \{$", text[:offset], re.M)) - 1


class TestJsonFiles:
    def test_round_trip_cost_convention(self, grid, tmp_path):
        path = tmp_path / "grid.json"
        save_problem(grid, path, convention="cost")
        loaded, convention = load_problem(path)
        assert convention == "cost"
        assert np.array_equal(dense(loaded).prob, dense(grid).prob)
        assert np.array_equal(dense(loaded).cost, dense(grid).cost)

    def test_round_trip_reward_convention(self, grid, tmp_path):
        path = tmp_path / "grid_reward.json"
        save_problem(grid, path, convention="reward")
        text = path.read_text()
        assert '"convention": "reward"' in text
        loaded, convention = load_problem(path)
        assert convention == "reward"
        # loader negates reward-form costs back into cost form
        assert np.array_equal(dense(loaded).cost, dense(grid).cost)

    def test_round_trip_across_writer_blocks(self, tmp_path):
        path = tmp_path / "blocks.json"
        problem = more_than_one_block_instance()
        data = json.loads(written(problem, "reward", path))
        triples = [(r["from"], r["action"], r["to"]) for r in data["transitions"]]
        assert len(triples) == 40 * 11 * 41 + 11  # more than eight blocks of 2048
        assert triples == sorted(triples)
        loaded, _ = load_problem(path)
        assert np.array_equal(dense(loaded).prob, dense(problem).prob)
        assert np.array_equal(dense(loaded).cost, dense(problem).cost)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_records_filling_whole_writer_blocks(self, blocks, tmp_path):
        problem = whole_blocks_instance(blocks)
        assert problem.transitions.row.size == blocks * sspbounds.core._WRITE_BLOCK
        for convention in ("cost", "reward"):
            path = tmp_path / f"{convention}.json"
            written(problem, convention, path)
            loaded, _ = load_problem(path)
            for field in ("row", "to", "prob", "cost"):
                expected = getattr(problem.transitions, field)
                assert getattr(loaded.transitions, field).tobytes() == expected.tobytes()

    def test_any_writer_block_size(self, grid, tmp_path, monkeypatch):
        records = grid.transitions.row.size
        for block in (1, 2, records // 2 - 1, records // 2, records - 1, records, records + 1):
            monkeypatch.setattr(sspbounds.core, "_WRITE_BLOCK", block)
            for convention in ("cost", "reward"):
                written(grid, convention, tmp_path / "grid.json")

    def test_duplicate_record_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"].append(dict(data["transitions"][0]))
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    @pytest.mark.parametrize("convention", ["cost", "reward"])
    def test_record_order_does_not_matter(self, grid, stay_go, convention, tmp_path):
        rng = np.random.default_rng(4)
        problems = [
            grid,
            stay_go,  # its terminal self-loops negate to 0.0, not -0.0
            random_proper_mixed_ssp(rng),
            from_discounted(*random_discounted(rng), 0.8),
            more_than_one_block_instance(),
        ]
        for problem in problems:
            # the files save_problem writes, read back in order and shuffled
            data = json.loads(written(problem, convention, tmp_path / "problem.json"))
            in_order, _ = problem_from_json_dict(data)
            rng.shuffle(data["transitions"])
            shuffled, _ = problem_from_json_dict(data)
            for field in ("row", "to", "prob", "cost"):
                expected = getattr(problem.transitions, field)
                assert np.array_equal(getattr(in_order.transitions, field), expected)
                assert np.array_equal(getattr(shuffled.transitions, field), expected)
        # the writer spells out what the loader rejects, in any record order
        for problem in (unvalidated_instance(), entryless_instance()):
            data = json.loads(written(problem, convention, tmp_path / "invalid.json"))
            with pytest.raises(ValidationError) as in_order:
                problem_from_json_dict(data)
            rng.shuffle(data["transitions"])
            with pytest.raises(ValidationError) as shuffled:
                problem_from_json_dict(data)
            assert str(shuffled.value) == str(in_order.value)

    def test_unknown_convention_leaves_file_untouched(self, stay_go, tmp_path):
        path = tmp_path / "kept.json"
        path.write_text("earlier contents", encoding="utf-8")
        with pytest.raises(ValueError, match="convention"):
            save_problem(stay_go, path, "bogus")
        assert path.read_text(encoding="utf-8") == "earlier contents"

    def test_save_peak_does_not_grow_with_entries(self, tmp_path):
        rng = np.random.default_rng(3)
        peaks = []
        # 17,692 and 40,404 entries: 8.6 and 19.7 blocks of 2,048
        for num_states in (66, 100):
            problem = from_discounted(*random_discounted(rng, num_states, num_actions=4), 0.9)
            tracemalloc.start()
            try:
                save_problem(problem, tmp_path / "instance.json")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a block of records at a time; one dict per entry peaked at 1.3 kB per entry
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < 10e6

    def test_writer_files_take_the_block_reader(self, stay_go, tmp_path, monkeypatch):
        def read_whole(path, name):
            raise AssertionError(f"{path} read record by record")

        monkeypatch.setattr(sspbounds.core, "read_json", read_whole)
        golden, _ = load_problem(os.path.join(os.path.dirname(__file__), "data", "gridworld.json"))
        rng = np.random.default_rng(6)
        problems = [
            golden,
            stay_go,
            random_proper_mixed_ssp(rng),
            more_than_one_block_instance(),
            # the shapes of the benchmark's instances: an open grid, a sparse
            # instance of three successors and an exit per pair, a dense reduction
            open_grid(30),
            wide_random_ssp(rng, 100),
            from_discounted(*random_discounted(rng, 50, 4), 0.95),
        ]
        path = tmp_path / "instance.json"
        for problem in problems:
            view = problem.transitions
            for convention, sign in (("cost", 1.0), ("reward", -1.0)):
                save_problem(problem, path, convention)
                with open(path, "rb") as file:
                    columns = sspbounds.core._read_written(file)[4:]
                # the file's numbers, before the loader turns rewards into costs
                expected = (view.row, view.to, view.prob, sign * view.cost + 0.0)
                for column, kernel in zip(columns, expected):
                    assert column.dtype == kernel.dtype
                    assert column.tobytes() == kernel.tobytes()
                loaded, read_convention = load_problem(path)
                assert read_convention == convention
                for field in ("row", "to", "prob", "cost"):
                    expected = getattr(problem.transitions, field)
                    assert getattr(loaded.transitions, field).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block_bytes", [None, 4096])
    def test_block_reader_agrees_with_record_by_record_read(
        self, block_bytes, tmp_path, monkeypatch
    ):
        indices = [0, 100, -1]
        problem = from_discounted(*random_discounted(np.random.default_rng(5), 8, 3), 0.9)
        path = tmp_path / "instance.json"
        # reward form: the zero rewards must load as 0.0, not -0.0
        text = written(problem, "reward", path)
        if block_bytes:
            monkeypatch.setattr(sspbounds.core, "_BLOCK_BYTES", block_bytes)
            indices.append(record_across(text, 2 * block_bytes))
        first, second = (text[record_span(text, i)] for i in (3, 4))
        files = {
            "as written": text,
            "CRLF": text.replace("\n", "\r\n"),
            "records out of order": text.replace(f"{first},\n{second}", f"{second},\n{first}"),
            "no final newline": text[:-1],
            "text after the end": text + "x",
            "a brace for the final newline": text[:-1] + "}",
            "byte order mark": "\ufeff" + text,
            "size as 9.0": text.replace('"num_states": 9', '"num_states": 9.0', 1),
            "header field added": text.replace("{", '{\n  "note": 1,', 1),
            "unknown convention": text.replace('"reward"', '"utility"', 1),
            "no records": written(entryless_instance(), "reward", path),
            "non-finite numbers": written(unvalidated_instance(), "reward", path),
        }
        for name, edit in RECORD_EDITS.items():
            for index in indices:
                files[f"{name}, record {index}"] = edit_record(text, index, edit)
        for name, content in files.items():
            path.write_bytes(content.encode())
            assert read_outcome(load_problem, path) == read_outcome(parsed_whole, path), name
        path.write_text(text, encoding="utf-8")
        loaded, _ = load_problem(path)
        assert loaded.transitions.cost.tobytes() == problem.transitions.cost.tobytes()
        assert (loaded.transitions.cost == 0.0).any()

    def test_block_reader_across_full_blocks(self, tmp_path):
        path = tmp_path / "blocks.json"
        text = written(more_than_one_block_instance(), "cost", path)
        across = record_across(text, 2 * sspbounds.core._BLOCK_BYTES)
        files = [
            edit_record(text, across, RECORD_EDITS["no integer part"]),
            edit_record(text, across, RECORD_EDITS["duplicate record"]),
            edit_record(text, across, RECORD_EDITS["other cost"]),
            edit_record(text, -1, RECORD_EDITS["index out of range"]),
        ]
        for content in files:
            path.write_bytes(content.encode())
            assert read_outcome(load_problem, path) == read_outcome(parsed_whole, path)

    @pytest.mark.parametrize(
        "convention, block_bytes", [("cost", None), ("reward", None), ("reward", 256)]
    )
    def test_block_reader_agrees_on_every_mutation(
        self, convention, block_bytes, tmp_path, monkeypatch
    ):
        text = written(tiny_instance(), convention, tmp_path / "tiny.json")
        records = range(text.count('"from"'))
        if block_bytes:
            # blocks of one or two records; the edits are to the record the first read ends in
            monkeypatch.setattr(sspbounds.core, "_BLOCK_BYTES", block_bytes)
            records = [record_across(text, block_bytes)]
        accepted = 0
        for content in map(str.encode, mutations(text, records)):
            # a file the block reader turns down is read whole, as parsed_whole reads it
            outcome = block_read(content)
            if outcome is not None:
                accepted += 1
                assert outcome == read_outcome(parsed_whole, content), content.decode()
        # edits within a number, such as one digit for another, keep to the fast path
        assert accepted > 250 * len(records)

    def test_load_peak_does_not_grow_with_entries(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "instance.json"
        peaks = []
        # 17,692 and 40,404 entries, files of 2.4 and 5.4 MB
        for num_states in (66, 100):
            problem = from_discounted(*random_discounted(rng, num_states, num_actions=4), 0.9)
            save_problem(problem, path)
            tracemalloc.start()
            try:
                load_problem(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a block of text at a time; the whole text parsed into one dict per
        # record peaked at 6.9 and 15.9 MB
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < 8e6

    def test_block_reader_peak_is_about_its_columns(self, tmp_path, monkeypatch):
        # 40,404 entries (1.3 MB of columns) in a 5.4 MB file of 64 kB blocks
        monkeypatch.setattr(sspbounds.core, "_BLOCK_BYTES", 1 << 16)
        problem = from_discounted(*random_discounted(np.random.default_rng(3), 100, 4), 0.9)
        path = tmp_path / "instance.json"
        save_problem(problem, path)
        with open(path, "rb") as file:
            tracemalloc.start()
            try:
                written = sspbounds.core._read_written(file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        columns = written[4:]
        # the blocks' columns and one joined column at most; joining all four
        # while every block was alive peaked at 2.04 times the columns
        assert peak < 1.5 * sum(column.nbytes for column in columns)
        for field, column in zip(("row", "to", "prob", "cost"), columns):
            expected = getattr(problem.transitions, field)
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes()

    def test_record_error_messages(self, stay_go):
        records = problem_to_json_dict(stay_go)["transitions"]
        go, stay = records[0], records[1]
        far = dict(go, to=9)
        broken = dict(go, prob="often")
        flag = dict(go, cost=True)
        cases = [
            # a record of the wrong types counts like any malformed record
            ([go, flag, dict(stay), dict(go)], f"malformed transition record {flag!r}"),
            ([go, stay, dict(stay), flag], "duplicate transition record for (from=0, action=1, to=0)"),
            ([go, stay, dict(go)], "duplicate transition record for (from=0, action=0, to=1)"),
            # the first offending record in file order is reported
            ([go, stay, dict(stay), dict(go)], "duplicate transition record for (from=0, action=1, to=0)"),
            ([go, dict(go), far], "duplicate transition record for (from=0, action=0, to=1)"),
            ([go, far, dict(go)], f"transition record {far!r} is out of range"),
            ([go, dict(go), broken], "duplicate transition record for (from=0, action=0, to=1)"),
            ([go, broken, dict(go)], f"malformed transition record {broken!r}"),
        ]
        for transitions, message in cases:
            data = problem_to_json_dict(stay_go)
            data["transitions"] = transitions
            with pytest.raises(ProblemFormatError) as info:
                problem_from_json_dict(data)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "field, value",
        [("from", 0.7), ("to", True), ("action", "0"), ("from", None), ("prob", "1.0"),
         ("cost", True), ("prob", None), ("cost", [1.0])],
    )
    def test_record_field_types_rejected(self, stay_go, field, value):
        data = problem_to_json_dict(stay_go)
        data["transitions"][0][field] = value
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(data)
        assert str(info.value).startswith("malformed transition record")

    @pytest.mark.parametrize(
        "field, value", [("num_states", 2.9), ("num_actions", True), ("terminal", "1")]
    )
    def test_size_field_types_rejected(self, stay_go, field, value):
        data = problem_to_json_dict(stay_go)
        data[field] = value
        with pytest.raises(ProblemFormatError) as info:
            problem_from_json_dict(data)
        assert str(info.value).startswith("malformed size field")

    def test_integral_floats_and_integer_numbers_accepted(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["num_states"], data["terminal"] = 2.0, 1.0
        data["transitions"][0].update({"from": 0.0, "to": 1.0, "prob": 1, "cost": 2})
        problem, _ = problem_from_json_dict(data)
        for field in ("row", "to", "prob", "cost"):
            assert np.array_equal(
                getattr(problem.transitions, field), getattr(stay_go.transitions, field)
            )

    def test_missing_field_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        del data["terminal"]
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_unknown_convention_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["convention"] = "utility"
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_out_of_range_record_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"][0]["to"] = 9
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_nan_probability_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"][1]["prob"] = float("nan")  # the stay self-loop
        with pytest.raises(ProbabilityOutOfRange) as info:
            problem_from_json_dict(data)
        assert (info.value.state, info.value.action, info.value.target) == (0, 1, 0)

    def test_huge_integer_probability_rejected(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"][1]["prob"] = 10**400
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    @pytest.mark.parametrize("transitions", [5, None, "records"])
    def test_non_list_transitions_rejected(self, stay_go, transitions):
        data = problem_to_json_dict(stay_go)
        data["transitions"] = transitions
        with pytest.raises(ProblemFormatError):
            problem_from_json_dict(data)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_invalid_instance_rejected_by_loader(self, stay_go):
        data = problem_to_json_dict(stay_go)
        data["transitions"] = [
            r for r in data["transitions"] if not (r["from"] == 1)
        ]
        with pytest.raises(Exception):
            problem_from_json_dict(data)

    def test_omitted_triples_have_probability_zero(self):
        data = {
            "num_states": 2,
            "num_actions": 1,
            "terminal": 1,
            "convention": "cost",
            "transitions": [
                {"from": 0, "action": 0, "to": 1, "prob": 1.0, "cost": 2.0},
                {"from": 1, "action": 0, "to": 1, "prob": 1.0, "cost": 0.0},
            ],
        }
        problem, _ = problem_from_json_dict(data)
        assert dense(problem).prob[0, 0, 0] == 0.0
        assert dense(problem).prob[0, 0, 1] == 1.0


class TestLoadedKernel:
    """A writer file's columns become the kernel as read; other columns are sorted copies."""

    def test_writer_file_columns_become_the_kernel(self, tmp_path, monkeypatch):
        problem = from_discounted(*random_discounted(np.random.default_rng(9), 8, 3), 0.9)

        def copied(cls, *args):
            raise AssertionError("the loader copied the columns")

        monkeypatch.setattr(Transitions, "from_entries", classmethod(copied))
        path = tmp_path / "instance.json"
        for convention in ("cost", "reward"):
            save_problem(problem, path, convention)
            loaded, _ = load_problem(path)
            for field in ("row", "to", "prob", "cost"):
                column = getattr(loaded.transitions, field)
                assert column.tobytes() == getattr(problem.transitions, field).tobytes()
                assert not column.flags.writeable

    @pytest.mark.parametrize("convention", ["cost", "reward"])
    def test_zero_probability_entry_is_dropped(self, stay_go, convention, tmp_path):
        # in the writer's layout and order, but an entry of probability 0 is not stored
        view = Transitions(
            2, row=[0, 0, 1, 2, 3], to=[0, 1, 0, 1, 1], prob=[0.0] + [1.0] * 4,
            cost=[5.0, 2.0, 1.0, 0.0, 0.0],
        )
        path = tmp_path / "instance.json"
        save_problem(SspProblem(2, 2, 1, transitions=view), path, convention)
        loaded, _ = load_problem(path)
        for field in ("row", "to", "prob", "cost"):
            column = getattr(loaded.transitions, field)
            assert column.tobytes() == getattr(stay_go.transitions, field).tobytes()
