import math

import pytest
from hypothesis import given, strategies as st

from tugx.coalition import (
    AUMANN_DREZE,
    PARTITION,
    aumann_dreze,
    block_of,
    cycle_balance_residual,
    extend_with_null,
    make_partition,
    remove_player,
    solve_by_cycle_balance_induction,
    split_off,
)
from tugx.errors import DomainViolation, InconsistentSystem, UnknownName
from tugx.games import DEFAULT_TOL, Game, iter_set_partitions, random_game
from tugx.operators import (
    EE_AUMANN_DREZE,
    PARTITION_ESS_OPERATOR,
    named_partition_solution,
    wrap,
)
from tugx.solutions import ZERO, Allocation, Solution, allocations_close, freeze_solution

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@pytest.fixture
def pair_block(trio):
    return make_partition([[1, 2], [3]], trio.players)


def test_make_partition_validation(trio):
    with pytest.raises(ValueError):
        make_partition([[1, 2], [2, 3]], trio.players)
    with pytest.raises(ValueError):
        make_partition([[1, 2]], trio.players)
    with pytest.raises(ValueError):
        make_partition([[1, 2], [3], []], trio.players)
    P = make_partition([[3], [1, 2]], trio.players)
    assert P == (frozenset({1, 2}), frozenset({3}))


def test_all_partitions_count():
    assert len(list(iter_set_partitions((1, 2, 3, 4)))) == 15


def test_block_and_split(pair_block):
    assert block_of(pair_block, 2) == frozenset({1, 2})
    assert split_off(pair_block, 2) == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )


def test_aumann_dreze_values(trio, pair_block):
    out = aumann_dreze(trio, pair_block)
    assert out[1] == 0.5 and out[2] == 0.5 and out[3] == 0.0
    out = EE_AUMANN_DREZE(trio, pair_block)
    assert math.isclose(out[1], 7.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(out[3], 2.0 / 3.0, abs_tol=1e-12)
    assert DEFAULT_TOL.eq(out.total(), trio.grand)


def test_partition_canonicalization(trio):
    # blocks may arrive in any order and any iterable shape
    messy = (frozenset({3}), frozenset({2, 1}))
    out = AUMANN_DREZE(trio, messy)
    assert out[1] == 0.5


def test_remove_player(trio, pair_block):
    sub, subP = remove_player(trio, pair_block, 2)
    assert sub.players == (1, 3)
    assert sub.value((1,)) == 0.0
    assert sub.grand == 0.0
    assert subP == (frozenset({1}), frozenset({3}))
    solo = Game.from_table([7], {(7,): 2.0})
    with pytest.raises(ValueError):
        remove_player(solo, (frozenset({7}),), 7)


def test_extend_with_null(trio, pair_block):
    ext, extP, nid = extend_with_null(trio, pair_block, frozenset({1, 2}))
    assert nid == 4
    assert ext.players == (1, 2, 3, 4)
    assert extP == (frozenset({1, 2, 4}), frozenset({3}))
    # the new player contributes nothing anywhere
    assert ext.value((1, 2, 4)) == trio.value((1, 2))
    assert ext.value((4,)) == 0.0
    assert ext.value((1, 2, 3, 4)) == trio.grand
    assert ext.value((2, 3, 4)) == trio.value((2, 3))


def test_extend_with_null_interleaved_ids():
    v = Game.from_table([1, 5], {(1,): 1.0, (5,): 2.0, (1, 5): 4.0})
    P = (frozenset({1}), frozenset({5}))
    ext, extP, nid = extend_with_null(v, P, frozenset({1}), new_id=3)
    assert ext.players == (1, 3, 5)
    assert extP == (frozenset({1, 3}), frozenset({5}))
    assert ext.value((1, 3)) == 1.0
    assert ext.value((3, 5)) == 2.0
    assert ext.value((1, 3, 5)) == 4.0


def test_cycle_balance_residual(trio, pair_block):
    # blockwise Shapley satisfies the balance exactly
    resid = cycle_balance_residual(AUMANN_DREZE, trio, pair_block, frozenset({1, 2}))
    assert abs(resid) < 1e-12
    with pytest.raises(DomainViolation):
        cycle_balance_residual(AUMANN_DREZE, trio, pair_block, frozenset({1, 3}))
    with pytest.raises(ValueError):
        cycle_balance_residual(
            AUMANN_DREZE, trio, pair_block, frozenset({1, 2}), order=(1, 3)
        )


def test_singleton_residual_needs_no_evaluation(trio, pair_block):
    calls = []

    def loud(v, P):
        calls.append(1)
        return Allocation(v.players, (0.0,) * v.n)

    sol = Solution("loud", loud, reads=PARTITION)
    assert cycle_balance_residual(sol, trio, pair_block, frozenset({3})) == 0.0
    assert not calls


@given(seeds, st.integers(min_value=2, max_value=4))
def test_cycle_induction_matches_extension(seed, n):
    players = tuple(range(1, n + 1))
    v = random_game(players, seed=seed)
    for F in (AUMANN_DREZE, ZERO):
        ext = wrap(PARTITION_ESS_OPERATOR, F)
        for P in iter_set_partitions(players):
            got = solve_by_cycle_balance_induction(F, v, P)
            assert allocations_close(got, ext(v, P), DEFAULT_TOL)


def test_cycle_induction_rejects_unbalanced_benchmark():
    # a benchmark that hands each block's worth to its lowest member has a
    # nonzero removal-cycle residual, which the level equations expose
    def lowest_takes_all(v, P):
        vals = dict.fromkeys(v.players, 0.0)
        for block in P:
            vals[min(block)] = v.value(block)
        return Allocation(v.players, tuple(vals[p] for p in v.players))

    greedy = Solution("lowest-takes-all", lowest_takes_all, reads=PARTITION)
    v = random_game((1, 2, 3), seed=12)
    P = (frozenset({1, 2, 3}),)
    with pytest.raises(InconsistentSystem):
        solve_by_cycle_balance_induction(greedy, v, P)


def test_cycle_induction_pair_blocks_always_consistent():
    # with two-member blocks the defining equations are degenerate, so even
    # an unbalanced benchmark yields a (consistent) answer
    def skew(v, P):
        return Allocation(v.players, tuple(float(k) for k in range(v.n)))

    sol = Solution("skew", skew, reads=PARTITION)
    v = random_game((1, 2), seed=5)
    out = solve_by_cycle_balance_induction(sol, v, (frozenset({1, 2}),))
    assert DEFAULT_TOL.eq(out.total(), v.grand)


def test_freeze_partition_solution(trio, pair_block, duo):
    frozen = freeze_solution(AUMANN_DREZE, trio, pair_block)
    assert frozen(trio, pair_block)[1] == 0.5
    with pytest.raises(DomainViolation):
        frozen(duo, (frozenset({1, 2}),))


def test_named_partition_solution(trio, pair_block):
    assert named_partition_solution("ad") is AUMANN_DREZE
    assert named_partition_solution("ee-ad") is EE_AUMANN_DREZE
    ext = named_partition_solution("partition-ess[aumann-dreze]")
    assert allocations_close(
        ext(trio, pair_block), EE_AUMANN_DREZE(trio, pair_block), DEFAULT_TOL
    )
    with pytest.raises(UnknownName):
        named_partition_solution("nope")


@pytest.mark.parametrize(
    "name",
    ["aumann-dreze", "ee-aumann-dreze", "partition-ess[partition-ess[aumann-dreze]]"],
)
def test_partition_checked_once_per_evaluation(name, monkeypatch):
    from tugx import coalition
    from tugx.operators import named_solution

    v = random_game((1, 2, 3, 4), seed=1)
    rule = named_solution(name)
    calls = []
    real = coalition.make_partition

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(coalition, "make_partition", counted)
    out = rule(v, [[3, 4], [1, 2]])
    assert len(calls) == 1
    assert out == rule(v, make_partition([[1, 2], [3, 4]], v.players))
    # a malformed partition still fails the one check, with its own message
    with pytest.raises(ValueError, match=r"blocks overlap at \[2\]"):
        rule(v, [[1, 2], [2, 3, 4]])
    with pytest.raises(ValueError, match="blocks must cover exactly the player set"):
        rule(v, [[1, 2], [3]])
