import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from tugx.games import (
    GENERAL,
    PROFILES,
    POSITIVE_SINGLETONS,
    ZERO_NORMALIZED,
    Game,
    Tolerance,
    are_symmetric,
    is_null_player,
    iter_set_partitions,
    permute_game,
    random_game,
    sample_set_partitions,
    subgame,
    total_of,
    unanimity_game,
)


def test_worth_table_indexing(duo):
    assert duo.n == 2
    assert duo.grand == 6.0
    assert duo.value((1,)) == 2.0
    assert duo.value((2,)) == 0.0
    assert duo.value(()) == 0.0
    assert duo.bit(1) == 1 and duo.bit(2) == 2
    assert duo.mask_of((2, 1)) == 3
    assert duo.members(3) == (1, 2)
    assert duo.coalition(2) == frozenset({2})


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Game((), ())
    with pytest.raises(ValueError):
        Game((2, 1), (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Game((1, 1), (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Game((1, 2), (0.0, 1.0))
    with pytest.raises(ValueError):
        Game((1, 2), (1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Game((1, 2), (0.0, math.inf, 0.0, 0.0))
    with pytest.raises(ValueError):
        Game(tuple(range(17)), tuple([0.0] * (1 << 17)))
    for players in ((-1, 2), (True, 2)):
        with pytest.raises(ValueError, match="player ids must be nonnegative ints"):
            Game(players, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="carrier 3 is not a player"):
        unanimity_game([1, 2], [3])
    with pytest.raises(ValueError, match="carrier set must be nonempty"):
        unanimity_game([1, 2], [])
    with pytest.raises(ValueError, match="unknown profile 'bogus'"):
        random_game([1, 2], seed=1, profile="bogus")


def test_from_table_rejects_bad_coalitions():
    with pytest.raises(ValueError):
        Game.from_table([1, 2], {(3,): 1.0})
    with pytest.raises(ValueError):
        Game.from_table([1, 2], {(1, 1): 1.0})
    with pytest.raises(ValueError):
        Game.from_table([1, 2], {(): 1.0})
    with pytest.raises(ValueError, match=re.escape("coalition (1, 2) listed twice")):
        Game.from_table([1, 2], {(1, 2): 1.0, (2, 1): 2.0})
    # a zero worth on the empty coalition is the one it must have
    v = Game.from_table([1, 2], {(): 0.0, (1, 2): 1.0})
    assert v.worth == (0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="player 9 is not in the game"):
        v.bit(9)
    with pytest.raises(ValueError, match="player 1 listed twice in coalition"):
        v.value([1, 1])
    with pytest.raises(ValueError, match="players must differ"):
        are_symmetric(v, 1, 1)
    with pytest.raises(ValueError, match="a subgame needs a nonempty coalition"):
        subgame(v, [])


def test_nonzero_table_round_trip(trio):
    table = dict(trio.nonzero_table())
    assert table == {(1, 2): 1.0, (1, 2, 3): 3.0}
    assert Game.from_table(trio.players, table) == trio


def test_symmetry_and_null_detection(trio):
    assert are_symmetric(trio, 1, 2)
    assert not are_symmetric(trio, 1, 3)
    assert not is_null_player(trio, 3)
    u = unanimity_game((1, 2, 3), (1, 2))
    assert is_null_player(u, 3)


# Worths where an exact comparison could part from a zero tolerance: signed
# zeros, subnormals, ties on the 1/64 grid, and pairs whose difference
# overflows.
EDGE_WORTHS = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308)
) | st.integers(-256, 256).map(lambda k: k / 64)


def _zero_tol_symmetric(v, i, j):
    """``are_symmetric`` as it was, comparing under Tolerance(0.0)."""
    tol = Tolerance(0.0)
    bi, bj = v.bit(i), v.bit(j)
    for mask in range(1 << v.n):
        if mask & (bi | bj):
            continue
        if not tol.eq(v.worth[mask | bi], v.worth[mask | bj]):
            return False
    return True


def _zero_tol_null(v, i):
    """``is_null_player`` as it was, comparing under Tolerance(0.0)."""
    tol = Tolerance(0.0)
    b = v.bit(i)
    return all(
        tol.eq(v.worth[mask | b], v.worth[mask]) for mask in range(1 << v.n) if not mask & b
    )


@st.composite
def near_twin_games(draw):
    """A game of 2-6 players on edge worths where players 1 and 2 are twins
    and the last player is null, before up to two worths are redrawn."""
    n = draw(st.integers(2, 6))
    base = draw(st.lists(EDGE_WORTHS, min_size=1 << n, max_size=1 << n))
    base[0] = draw(st.sampled_from((0.0, -0.0)))
    last = 1 << (n - 1)

    def key(mask):
        mask &= ~last
        swapped = mask & ~3 | (mask & 1) << 1 | (mask >> 1 & 1)
        return min(mask, swapped)

    worth = [base[key(mask)] for mask in range(1 << n)]
    for mask in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=2)):
        worth[mask] = draw(EDGE_WORTHS)
    return Game(tuple(range(1, n + 1)), tuple(worth))


@settings(max_examples=300, deadline=None)
@given(near_twin_games())
def test_exact_predicates_match_the_zero_tolerance_loops(v):
    for i, j in combinations(v.players, 2):
        assert are_symmetric(v, i, j) == _zero_tol_symmetric(v, i, j)
    for i in v.players:
        assert is_null_player(v, i) == _zero_tol_null(v, i)


@given(EDGE_WORTHS | st.floats(allow_nan=False, allow_infinity=False), EDGE_WORTHS)
def test_zero_tolerance_equates_finite_worths_exactly_when_equal(a, b):
    assert Tolerance(0.0).eq(a, b) == (a == b)
    assert Tolerance(0.0).eq(b, a) == (a == b)


def test_unanimity_game_values():
    u = unanimity_game((1, 2, 3), (1, 3))
    assert u.value((1, 3)) == 1.0
    assert u.value((1, 2, 3)) == 1.0
    assert u.value((1, 2)) == 0.0
    assert u.value((3,)) == 0.0


def test_permute_game_relabels_worths(trio):
    swapped = permute_game(trio, {1: 3, 2: 2, 3: 1})
    assert swapped.value((2, 3)) == 1.0
    assert swapped.value((1, 2)) == 0.0
    assert swapped.grand == 3.0
    with pytest.raises(ValueError):
        permute_game(trio, {1: 2, 2: 1})
    with pytest.raises(ValueError):
        permute_game(trio, {1: 1, 2: 2, 3: 4})


def test_subgame_restricts_worths(trio):
    sub = subgame(trio, (1, 2))
    assert sub.players == (1, 2)
    assert sub.grand == 1.0
    assert sub.value((1,)) == 0.0


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_game_deterministic(seed):
    players = (1, 2, 3)
    a = random_game(players, seed=seed)
    b = random_game(players, seed=seed)
    assert a == b


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_game_profiles(seed):
    players = (2, 5, 9)
    pos = random_game(players, seed=seed, profile=POSITIVE_SINGLETONS)
    assert all(x > 0.0 for x in pos.singleton_values())
    zn = random_game(players, seed=seed, profile=ZERO_NORMALIZED)
    assert zn.singleton_values() == (0.0, 0.0, 0.0)
    gen = random_game(players, seed=seed, profile=GENERAL)
    # worths live on a dyadic grid so that sums stay float-exact
    for game in (pos, zn, gen):
        assert all(x * 64.0 == round(x * 64.0) for x in game.worth)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_set_partition_counts(n, count):
    parts = list(iter_set_partitions(tuple(range(1, n + 1))))
    assert len(parts) == count
    for part in parts:
        members = sorted(p for block in part for p in block)
        assert members == list(range(1, n + 1))
        assert [min(b) for b in part] == sorted(min(b) for b in part)


def test_tolerance_comparison():
    tol = Tolerance(1e-9)
    assert tol.eq(1.0, 1.0 + 5e-10)
    assert not tol.eq(1.0, 1.0 + 5e-8)
    assert tol.eq(1e12, 1e12 * (1 + 1e-10))
    exact = Tolerance(0.0)
    assert exact.eq(0.5, 0.5)
    assert not exact.eq(0.5, 0.5 + 1e-16)


def test_tolerance_never_equates_a_non_finite_difference():
    tol = Tolerance(1e-9)
    for a, b in (
        (math.inf, 1e308),
        (-1.0, -math.inf),
        (math.inf, math.inf),
        (math.nan, 0.0),
        (math.nan, math.nan),
        (1e308, -1e308),
    ):
        assert not tol.eq(a, b)
        assert not tol.eq(b, a)


def test_tolerance_rejects_non_finite_or_negative():
    for eps in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            Tolerance(eps)


@pytest.mark.parametrize("k", [1, 15])
def test_sampled_partitions_match_listed_sample(k):
    for n in range(1, 9):
        items = tuple(range(3, 3 + n))
        listed = list(iter_set_partitions(items))
        for seed in range(6):
            ref_rng, rng = random.Random(seed), random.Random(seed)
            want = ref_rng.sample(listed, k) if len(listed) > k else listed
            assert sample_set_partitions(items, k, rng) == want
            assert rng.getstate() == ref_rng.getstate()


def _reference_subgame_worths(v, coalition):
    """The former kernel: each parent mask assembled bit by bit."""
    keep = v.mask_of(coalition)
    bits = [k for k in range(v.n) if keep >> k & 1]
    worth = []
    for sub in range(1 << len(bits)):
        mask = 0
        for t, k in enumerate(bits):
            if sub >> t & 1:
                mask |= 1 << k
        worth.append(v.worth[mask])
    return tuple(worth)


def test_subgame_matches_per_bit_reference(wide_game):
    rng = random.Random(5)
    for n in range(1, 11):
        players = tuple(range(1, 2 * n + 1, 2))
        games = [random_game(players, seed=n, profile=p) for p in PROFILES]
        games.append(wide_game(players, seed=n))
        for v in games:
            masks = {v.full_mask} | {rng.randrange(1, 1 << n) for _ in range(4)}
            for mask in masks:
                sub = subgame(v, v.members(mask))
                ref = _reference_subgame_worths(v, v.members(mask))
                assert sub.players == v.members(mask)
                assert sub.worth == ref
                assert [x.hex() for x in sub.worth] == [x.hex() for x in ref]


def _reference_permuted_worths(v, mapping):
    """The former kernel: each mask's image assembled bit by bit."""
    pos = {p: k for k, p in enumerate(v.players)}
    worth = [0.0] * len(v.worth)
    for mask in range(len(v.worth)):
        image = 0
        for k in range(v.n):
            if mask >> k & 1:
                image |= 1 << pos[mapping[v.players[k]]]
        worth[image] = v.worth[mask]
    return tuple(worth)


def test_permute_game_matches_per_bit_reference(wide_game):
    for n in range(1, 7):
        players = tuple(range(2, 2 * n + 2, 2))
        games = [random_game(players, seed=n, profile=p) for p in PROFILES]
        games.append(wide_game(players, seed=n))
        mappings = [
            dict(zip(players, players[r:] + players[:r])) for r in range(n)
        ]
        for a in range(n):
            for b in range(a + 1, n):
                swap = dict(zip(players, players))
                swap[players[a]], swap[players[b]] = players[b], players[a]
                mappings.append(swap)
        for v in games:
            for mapping in mappings:
                w = permute_game(v, mapping)
                ref = _reference_permuted_worths(v, mapping)
                assert w.players == v.players
                assert [x.hex() for x in w.worth] == [x.hex() for x in ref]


def test_total_of_names_a_sum_without_a_value():
    assert total_of([1e308, -1e308, 1.0], "x").hex() == math.fsum([1e308, -1e308, 1.0]).hex()
    assert total_of([math.inf, 1.0], "x") == math.inf
    with pytest.raises(OverflowError, match=r"^the payoff total adds \+inf to -inf$"):
        total_of([math.inf, 1.0, -math.inf], "the payoff total")
    with pytest.raises(OverflowError, match="^a block's total overflows$"):
        total_of([1e308, 1e308], "a block's total")
