import pytest

from helpers import stay_or_go_instance
from sspbounds import (
    build_gridworld,
    evaluate_policy,
    greedy_policy,
    uniform_random_policy,
    value_iteration,
)


@pytest.fixture(scope="session")
def stay_go():
    return stay_or_go_instance()


@pytest.fixture(scope="session")
def grid():
    return build_gridworld()


@pytest.fixture(scope="session")
def grid_uniform_values(grid):
    return evaluate_policy(grid, uniform_random_policy(grid))


@pytest.fixture(scope="session")
def grid_optimal_values(grid, grid_uniform_values):
    values, _ = value_iteration(grid, grid_uniform_values, epsilon=1e-12, max_iters=100_000)
    return values


@pytest.fixture(scope="session")
def grid_optimal_policy(grid, grid_optimal_values):
    return greedy_policy(grid, grid_optimal_values)
