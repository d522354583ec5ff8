import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tugx.comm import (
    MYERSON_SOLUTION,
    Graph,
    all_graphs,
    complete_graph,
    components,
    empty_graph,
    myerson,
    restricted_game,
    solve_by_fairness_induction,
)
from tugx.errors import DomainViolation, InconsistentSystem, UnknownName
from tugx.games import DEFAULT_TOL, PROFILES, Game, random_game
from tugx.operators import EE_MYERSON, GRAPH_ESS_OPERATOR, named_graph_solution, wrap
from tugx.solutions import ZERO, Allocation, allocations_close, freeze_solution

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@pytest.fixture
def pair_link(trio):
    return Graph.from_pairs(trio.players, [(1, 2)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_pairs((1, 2, 3), [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_pairs((1, 2, 3), [(1, 4)])
    g = Graph.from_pairs((1, 2, 3), [(2, 1), (1, 2)])
    assert g.sorted_links() == ((1, 2),)
    with pytest.raises(ValueError):
        g.without((1, 3))
    for players in ((2, 1), ()):
        with pytest.raises(ValueError, match="players must be nonempty, strictly increasing"):
            Graph(players, frozenset())
    with pytest.raises(ValueError, match=re.escape("link (2, 1) must be ordered (low, high)")):
        Graph((1, 2), frozenset({(2, 1)}))


def test_components(pair_link, trio):
    assert components(pair_link) == (frozenset({1, 2}), frozenset({3}))
    assert components(empty_graph(trio.players)) == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )
    assert components(complete_graph(trio.players)) == (frozenset({1, 2, 3}),)


def test_all_graphs_counts():
    assert len(list(all_graphs((1, 2)))) == 2
    assert len(list(all_graphs((1, 2, 3)))) == 8
    assert len(list(all_graphs((1, 2, 3, 4)))) == 64


def test_restricted_game(trio, pair_link):
    r = restricted_game(trio, pair_link)
    assert r.value((1, 2)) == 1.0
    # disconnected coalitions split into their component worths
    assert r.grand == 1.0
    assert r.value((1, 3)) == 0.0
    with pytest.raises(ValueError):
        restricted_game(trio, Graph.from_pairs((1, 2), [(1, 2)]))


def test_myerson_values(trio, pair_link):
    out = myerson(trio, pair_link)
    assert out[1] == 0.5 and out[2] == 0.5 and out[3] == 0.0
    # the restricted game swallows the disconnected surplus
    assert out.total() == 1.0
    full = myerson(trio, complete_graph(trio.players))
    assert DEFAULT_TOL.eq(full.total(), trio.grand)


def test_ee_myerson_values(trio, pair_link):
    out = EE_MYERSON(trio, pair_link)
    assert math.isclose(out[1], 7.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(out[2], 7.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(out[3], 2.0 / 3.0, abs_tol=1e-12)
    assert DEFAULT_TOL.eq(out.total(), trio.grand)


def test_graph_ess_solution(trio, pair_link):
    ext = wrap(GRAPH_ESS_OPERATOR, ZERO)
    assert ext.name == "graph-ess[zero]"
    assert ext(trio, pair_link).values == (1.0, 1.0, 1.0)


@given(seeds, st.integers(min_value=2, max_value=4))
def test_fairness_induction_matches_extension(seed, n):
    players = tuple(range(1, n + 1))
    v = random_game(players, seed=seed)
    for F in (MYERSON_SOLUTION, ZERO):
        ext = wrap(GRAPH_ESS_OPERATOR, F)
        cache = {}
        for g in all_graphs(players):
            got = solve_by_fairness_induction(F, v, g, cache=cache)
            assert allocations_close(got, ext(v, g), DEFAULT_TOL)
        # one cache entry per link set, shared across the whole sweep
        assert len(cache) == len(list(all_graphs(players)))


def test_graph_on_another_player_set_is_refused(trio, duo):
    g = complete_graph(duo.players)
    message = "^graph and game must share the player set$"
    for refuse in (
        lambda: MYERSON_SOLUTION(trio, g),
        lambda: EE_MYERSON(trio, g),
        lambda: restricted_game(trio, g),
        lambda: solve_by_fairness_induction(MYERSON_SOLUTION, trio, g),
    ):
        with pytest.raises(ValueError, match=message):
            refuse()


def test_fairness_induction_link_cap():
    players = tuple(range(1, 7))
    v = random_game(players, seed=3)
    with pytest.raises(ValueError):
        solve_by_fairness_induction(MYERSON_SOLUTION, v, complete_graph(players))


def test_fairness_induction_detects_doctored_cache(trio):
    # the level equations are mutually consistent for any benchmark, so an
    # inconsistency can only enter through corrupted lower-level results
    g = complete_graph(trio.players)
    cache = {}
    solve_by_fairness_induction(MYERSON_SOLUTION, trio, g, cache=cache)
    key = frozenset({(1, 2)})
    good = cache[key]
    doctored = Allocation(good.players, (good.values[0] + 0.25,) + good.values[1:])
    broken = {k: v for k, v in cache.items() if len(k) <= 1}
    broken[key] = doctored
    with pytest.raises(
        InconsistentSystem,
        match=r"^link \(2, 3\): gap equations disagree beyond 2\.16667e-06$",
    ):
        solve_by_fairness_induction(MYERSON_SOLUTION, trio, g, cache=broken)


def test_freeze_graph_solution(trio, pair_link, duo):
    frozen = freeze_solution(MYERSON_SOLUTION, trio, pair_link)
    assert frozen(trio, complete_graph(trio.players)).total() == pytest.approx(3.0)
    with pytest.raises(DomainViolation):
        frozen(duo, Graph.from_pairs(duo.players, [(1, 2)]))


def test_named_graph_solution(trio, pair_link):
    assert named_graph_solution("myerson") is MYERSON_SOLUTION
    assert named_graph_solution("ee-myerson") is EE_MYERSON
    ext = named_graph_solution("graph-ess[myerson]")
    assert allocations_close(ext(trio, pair_link), EE_MYERSON(trio, pair_link), DEFAULT_TOL)
    with pytest.raises(UnknownName):
        named_graph_solution("nope")


def _reference_restricted_game(v, g):
    """The former kernel: a fresh search for the parts of every coalition."""
    pos = {p: k for k, p in enumerate(g.players)}
    adj = [0] * len(g.players)
    for a, b in g.links:
        adj[pos[a]] |= 1 << pos[b]
        adj[pos[b]] |= 1 << pos[a]
    worth = [0.0]
    for mask in range(1, 1 << v.n):
        parts = []
        remaining = mask
        while remaining:
            comp = remaining & -remaining
            frontier = comp
            while frontier:
                grown = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    grown |= adj[b.bit_length() - 1]
                frontier = grown & mask & ~comp
                comp |= frontier
            parts.append(comp)
            remaining &= ~comp
        worth.append(math.fsum(v.worth[c] for c in parts))
    return tuple(worth)


def _test_graphs(players, rng):
    first = players[0]
    yield empty_graph(players)
    yield Graph.from_pairs(players, zip(players, players[1:]))
    yield Graph.from_pairs(players, ((first, p) for p in players[1:]))
    yield complete_graph(players)
    for density in (0.3, 0.6):
        pairs = combinations(players, 2)
        yield Graph.from_pairs(players, (p for p in pairs if rng.random() < density))


def test_restricted_game_matches_per_mask_reference(wide_game):
    rng = random.Random(11)
    for n in range(1, 11):
        players = tuple(range(2, 2 + n))
        games = [
            random_game(players, seed=seed, profile=profile)
            for profile in PROFILES
            for seed in range(2)
        ]
        games.append(wide_game(players, seed=n))
        for v in games:
            for g in _test_graphs(players, rng):
                got = restricted_game(v, g).worth
                ref = _reference_restricted_game(v, g)
                assert got == ref
                assert [x.hex() for x in got] == [x.hex() for x in ref]


_EDGE_WORTHS = (0.0, -0.0, 5e-324, 0.1, 1.0, 2.0**53, -(2.0**53), 1e308, -1e308)


def test_restricted_game_matches_per_mask_reference_on_edge_worths():
    # exact and inexact part sums, signed zeros, subnormals and overflow
    rng = random.Random(3)
    for n in range(1, 9):
        players = tuple(range(1, n + 1))
        for seed in range(6):
            draw = random.Random(100 * n + seed)
            worth = (0.0, *(draw.choice(_EDGE_WORTHS) for _ in range(1, 1 << n)))
            v = Game(players, worth)
            for g in _test_graphs(players, rng):
                try:
                    ref = _reference_restricted_game(v, g)
                except OverflowError:
                    with pytest.raises(OverflowError, match="a restricted worth overflows"):
                        restricted_game(v, g)
                    continue
                got = restricted_game(v, g).worth
                assert [x.hex() for x in got] == [x.hex() for x in ref]


def _fsum_calls(monkeypatch, v, g):
    calls = []
    real = math.fsum

    def counted(values):
        calls.append(1)
        return real(values)

    with monkeypatch.context() as m:
        m.setattr(math, "fsum", counted)
        restricted_game(v, g)
    return len(calls)


@pytest.mark.parametrize("profile", PROFILES)
def test_restricted_game_sums_grid_games_without_fsum(monkeypatch, profile):
    # grid worths add exactly, so every coalition costs one addition at most
    players = tuple(range(10))
    v = random_game(players, seed=1, profile=profile)
    path = Graph.from_pairs(players, zip(players, players[1:]))
    for g in (empty_graph(players), path):
        assert _fsum_calls(monkeypatch, v, g) == 0


def test_restricted_game_falls_back_to_fsum_when_sums_round(monkeypatch):
    players = tuple(range(6))
    singles = (2.0**53, 1.0, -(2.0**53), 1.0, 2.0**53, -1.0)
    worth = [0.0] * (1 << 6)
    for mask in range(1, 1 << 6):
        worth[mask] = singles[mask.bit_length() - 1] if mask.bit_count() == 1 else 1.0
    v = Game(players, tuple(worth))
    g = empty_graph(players)
    assert _fsum_calls(monkeypatch, v, g) >= 1
    got = restricted_game(v, g).worth
    assert [x.hex() for x in got] == [x.hex() for x in _reference_restricted_game(v, g)]
