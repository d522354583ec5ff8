import math
import random

import pytest
from hypothesis import given, strategies as st

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
    marginal_contribution,
    permute_game,
    random_game,
    sample_set_partitions,
    subgame,
    unanimity_game,
)

EXACT = Tolerance(0.0, 0.0)


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


def test_from_table_rejects_bad_coalitions():
    with pytest.raises(ValueError):
        Game.from_table([1, 2], {(3,): 1.0})
    with pytest.raises(ValueError):
        Game.from_table([1, 2], {(1, 1): 1.0})
    with pytest.raises(ValueError):
        Game.from_table([1, 2], {(): 1.0})


def test_nonzero_table_round_trip(trio):
    table = dict(trio.nonzero_table())
    assert table == {(1, 2): 1.0, (1, 2, 3): 3.0}
    assert Game.from_table(trio.players, table) == trio


def test_marginal_contribution(duo):
    assert marginal_contribution(duo, (1, 2), 2) == 4.0
    assert marginal_contribution(duo, (1,), 1) == 2.0
    with pytest.raises(ValueError):
        marginal_contribution(duo, (1,), 2)


def test_symmetry_and_null_detection(trio):
    assert are_symmetric(trio, 1, 2, EXACT)
    assert not are_symmetric(trio, 1, 3, EXACT)
    assert not is_null_player(trio, 3, EXACT)
    u = unanimity_game((1, 2, 3), (1, 2))
    assert is_null_player(u, 3, EXACT)


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
    tol = Tolerance(abs_eps=1e-9, rel_eps=1e-9)
    assert tol.eq(1.0, 1.0 + 5e-10)
    assert not tol.eq(1.0, 1.0 + 5e-8)
    assert tol.eq(1e12, 1e12 * (1 + 1e-10))
    assert EXACT.eq(0.5, 0.5)
    assert not EXACT.eq(0.5, 0.5 + 1e-16)


def test_tolerance_rejects_non_finite_or_negative():
    for eps in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=eps)
        with pytest.raises(ValueError):
            Tolerance(rel_eps=eps)


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
