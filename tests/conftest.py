"""Shared fixtures: the two-state crowd-seeking example at its default params."""

from fractions import Fraction

import pytest
from hypothesis import settings

from cmfg import two_state
from cmfg.model import ProbabilityVector


# `pytest --hypothesis-profile=ci` (the CI's tier-1 step) draws the same
# examples on every run, so a red CI run reproduces locally
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


DEFAULT_PARAMS = two_state.ExampleParams(
    beta=(Fraction(1, 8),) * 4, c0=Fraction(1, 32), c1=Fraction(1, 16)
)


@pytest.fixture(scope="session")
def params():
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def game(params):
    return two_state.build_game(params)


@pytest.fixture(scope="session")
def example(params):
    return two_state.build_example(params)


@pytest.fixture(scope="session")
def rho(example):
    return example[1]


@pytest.fixture(scope="session")
def m0(example):
    return example[2]


@pytest.fixture(scope="session")
def uniform_m0(game):
    return ProbabilityVector.uniform(game.states, game.arithmetic)
