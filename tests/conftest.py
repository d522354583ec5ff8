import pathlib
import random

import pytest
from hypothesis import HealthCheck, settings

from tugx.games import Game

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def duo() -> Game:
    # two players, a productive singleton, and a big joint surplus
    return Game.from_table([1, 2], {(1,): 2.0, (2,): 0.0, (1, 2): 6.0})


@pytest.fixture
def trio() -> Game:
    # zero singletons; only {1,2} and the grand coalition produce anything
    return Game.from_table([1, 2, 3], {(1, 2): 1.0, (1, 2, 3): 3.0})


@pytest.fixture
def halves() -> Game:
    # splitting up beats staying together: v({1})+v({2}) > v(N)
    return Game.from_table([1, 2], {(1,): 2.0, (2,): 2.0, (1, 2): 3.0})


@pytest.fixture
def fixture_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture
def wide_game():
    """Factory for seeded games off the 1/64 grid.

    Worths take either sign with magnitudes from 1e-8 to 1e11, and about one
    in twenty is a signed zero, so sums of worths round and zero signs show.
    """

    def make(players, seed: int) -> Game:
        rng = random.Random(seed)
        worth = [0.0]
        for _ in range(1, 1 << len(players)):
            if rng.random() < 0.05:
                worth.append(rng.choice((0.0, -0.0)))
            else:
                worth.append(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 11.0))
        return Game(tuple(players), tuple(worth))

    return make
