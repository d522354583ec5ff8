import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tugx.coalition import (
    AUMANN_DREZE,
    PARTITION,
    aumann_dreze,
    block_of,
    cycle_sums,
    extend_with_null,
    make_partition,
    removal_outcomes,
    remove_player,
    settle_blocks,
    slack,
    solve_by_cycle_balance_induction,
    split_off,
)
from tugx.errors import DomainViolation, InconsistentSystem, UnknownName
from tugx.games import (
    DEFAULT_TOL,
    PROFILES,
    Game,
    iter_set_partitions,
    random_game,
    sample_set_partitions,
)
from tugx.operators import (
    EE_AUMANN_DREZE,
    PARTITION_ESS_OPERATOR,
    named_partition_solution,
    wrap,
)
from tugx.solutions import (
    SHAPLEY,
    ZERO,
    Allocation,
    Solution,
    allocations_close,
    freeze_solution,
)

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
    with pytest.raises(ValueError, match="a partition needs at least one block"):
        make_partition([])
    singles = make_partition([[1], [2], [3]], trio.players)
    with pytest.raises(ValueError, match="player 9 is in no block"):
        block_of(singles, 9)
    with pytest.raises(ValueError, match=re.escape("(1, 2) is not a block")):
        extend_with_null(trio, singles, [1, 2])
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


def test_cycle_sides_evaluate_each_removal_once():
    players = (1, 2, 3, 4, 5)
    v = random_game(players, seed=4)
    P = make_partition([[1, 2, 4, 5], [3]], players)
    calls = []

    def counted(w, Q):
        calls.append(w.players)
        return AUMANN_DREZE(w, Q)

    sol = Solution("counted", counted, reads=PARTITION)
    outcomes = removal_outcomes(sol, v, P, [1, 2, 4, 5])
    # one evaluation per member, in sorted member order
    assert calls == [(2, 3, 4, 5), (1, 3, 4, 5), (1, 2, 3, 5), (1, 2, 3, 4)]
    assert outcomes == {j: AUMANN_DREZE(*remove_player(v, P, j)) for j in (1, 2, 4, 5)}
    cycle = (1, 4, 2, 5)
    succ, pred = cycle_sums(outcomes, cycle)
    assert succ == math.fsum(outcomes[cycle[(l + 1) % 4]][i] for l, i in enumerate(cycle))
    assert pred == math.fsum(outcomes[cycle[l - 1]][i] for l, i in enumerate(cycle))


@given(seeds, st.integers(min_value=2, max_value=4))
def test_cycle_induction_matches_extension(seed, n):
    players = tuple(range(1, n + 1))
    v = random_game(players, seed=seed)
    for F in (AUMANN_DREZE, ZERO):
        ext = wrap(PARTITION_ESS_OPERATOR, F)
        for P in iter_set_partitions(players):
            got = solve_by_cycle_balance_induction(F, v, P)
            assert allocations_close(got, ext(v, P), DEFAULT_TOL)


def _lowest_takes_all(v, P):
    vals = dict.fromkeys(v.players, 0.0)
    for block in P:
        vals[min(block)] = v.value(block)
    return Allocation(v.players, tuple(vals[p] for p in v.players))


# A benchmark that hands each block's worth to its lowest member has a
# nonzero removal-cycle residual, which the level equations expose.
LOWEST_TAKES_ALL = Solution("lowest-takes-all", _lowest_takes_all, reads=PARTITION)


def test_cycle_induction_rejects_unbalanced_benchmark():
    v = random_game((1, 2, 3), seed=12)
    P = (frozenset({1, 2, 3}),)
    with pytest.raises(
        InconsistentSystem, match=r"^block \(1, 2, 3\): cycle gaps drift by 8\.65625$"
    ):
        solve_by_cycle_balance_induction(LOWEST_TAKES_ALL, v, P)


def _nested_gap_induction(F, v, P, tol=DEFAULT_TOL):
    """The cycle-induction solver as it took its terms per gap: each of a
    block's k gaps re-reads 2(k - 1) removal terms."""
    part = make_partition(P, v.players)

    def relative(members):
        k = len(members)
        if k == 1:
            return [0.0]
        w, wP, nid = extend_with_null(v, part, members)
        red = {b: F(*remove_player(w, wP, b)) for b in members}
        gaps = []
        for s in range(k):
            succ_terms, pred_terms = [], []
            for l in range(k):
                if l != s:
                    r = red[members[(l + 1) % k]]
                    succ_terms.append(r[members[l]] - r[nid])
                if l != (s + 1) % k:
                    r = red[members[(l - 1) % k]]
                    pred_terms.append(r[members[l]] - r[nid])
            gaps.append(math.fsum(succ_terms) - math.fsum(pred_terms))
        drift = math.fsum(gaps)
        if abs(drift) > slack(tol, (x for r in red.values() for x in r.values)):
            raise InconsistentSystem(f"block {tuple(members)}: cycle gaps drift by {drift:g}")
        rel = [0.0]
        for s in range(k - 1):
            rel.append(rel[-1] + gaps[s])
        return rel

    return Allocation.from_mapping(settle_blocks(v, F(v, part), part, relative))


def _solved(solve, F, v, P):
    """The payoffs as float.hex strings, or the InconsistentSystem text."""
    try:
        return [x.hex() for x in solve(F, v, P).values]
    except InconsistentSystem as exc:
        return str(exc)


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seeds, st.integers(min_value=1, max_value=6), st.sampled_from((*PROFILES, "wide")))
def test_cycle_induction_matches_nested_gap_reference(wide_game, seed, n, profile):
    players = tuple(range(1, n + 1))
    if profile == "wide":
        v = wide_game(players, seed)
    else:
        v = random_game(players, seed=seed, profile=profile)
    if n <= 4:
        partitions = list(iter_set_partitions(players))
    else:
        partitions = sample_set_partitions(players, 6, random.Random(seed))
    for F in (AUMANN_DREZE, ZERO, SHAPLEY, LOWEST_TAKES_ALL):
        for P in partitions:
            want = _solved(_nested_gap_induction, F, v, P)
            assert _solved(solve_by_cycle_balance_induction, F, v, P) == want


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


def _reference_null_worths(v, players, nid):
    """Each extended coalition's worth read from v, mask by mask."""
    worth = []
    for mask in range(1 << len(players)):
        members = [p for k, p in enumerate(players) if mask >> k & 1 and p != nid]
        worth.append(v.worth[v.mask_of(members)])
    return worth


def test_extend_with_null_matches_per_mask_reference(wide_game):
    for n in range(1, 7):
        players = tuple(range(1, 2 * n + 1, 2))
        v = wide_game(players, seed=n)
        for P in (
            make_partition([players]),
            make_partition([[p] for p in players]),
            make_partition([players[::2], players[1::2]] if n > 1 else [players]),
        ):
            for block in P:
                w, wP, nid = extend_with_null(v, P, block)
                assert nid == 2 * n
                assert w.players == players + (nid,)
                assert block | {nid} in wP
                ref = _reference_null_worths(v, w.players, nid)
                assert [x.hex() for x in w.worth] == [x.hex() for x in ref]
