import math

import pytest
from hypothesis import given, strategies as st

from tugx.errors import DomainViolation, UnknownName
from tugx.games import DEFAULT_TOL, PROFILES, Game, random_game
from tugx.operators import ESS_VALUE, PS_VALUE, named_solution
from tugx.solutions import (
    Allocation,
    EQUAL_DIVISION,
    LEAD_SINGLETON,
    SHAPLEY,
    STAND_ALONE,
    Solution,
    allocations_close,
    constant_solution,
    shapley,
    shapley_permutation_oracle,
    singleton_total,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def test_allocation_lookup(duo):
    out = shapley(duo)
    assert out[1] == 4.0 and out[2] == 2.0
    with pytest.raises(KeyError):
        out[3]
    assert out.as_dict() == {1: 4.0, 2: 2.0}
    assert Allocation.from_mapping({2: 1.0, 1: 3.0}).players == (1, 2)


def test_allocations_close(duo):
    a = Allocation((1, 2), (4.0, 2.0))
    b = Allocation((1, 2), (4.0 + 1e-12, 2.0))
    assert allocations_close(a, b, DEFAULT_TOL)
    assert not allocations_close(a, Allocation((1, 3), (4.0, 2.0)), DEFAULT_TOL)


def test_shapley_known_values(duo, trio):
    assert shapley(duo).values == (4.0, 2.0)
    out = shapley(trio)
    assert math.isclose(out[1], 7.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(out[2], 7.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(out[3], 2.0 / 3.0, abs_tol=1e-12)


@given(seeds, st.integers(min_value=2, max_value=5))
def test_shapley_matches_permutation_definition(seed, n):
    v = random_game(tuple(range(1, n + 1)), seed=seed)
    fast = shapley(v)
    ref = shapley_permutation_oracle(v)
    for i in v.players:
        assert abs(fast[i] - ref[i]) < 1e-9


@given(seeds, st.integers(min_value=2, max_value=5))
def test_shapley_efficient(seed, n):
    v = random_game(tuple(range(1, n + 1)), seed=seed)
    assert DEFAULT_TOL.eq(shapley(v).total(), v.grand)


def test_permutation_oracle_size_cap():
    v = random_game(tuple(range(1, 10)), seed=1)
    with pytest.raises(ValueError):
        shapley_permutation_oracle(v)


def test_surplus_values(duo):
    assert ESS_VALUE(duo).values == (4.0, 2.0)
    assert PS_VALUE(duo).values == (6.0, 0.0)
    assert singleton_total(duo) == 2.0


def test_proportional_split_domain(trio):
    # zero singleton total: no well-defined proportions
    with pytest.raises(DomainViolation):
        PS_VALUE(trio)
    neg = Game.from_table([1, 2], {(1,): -3.0, (2,): 1.0, (1, 2): 4.0})
    with pytest.raises(DomainViolation):
        PS_VALUE(neg)


def test_simple_rules(duo, trio):
    assert STAND_ALONE(duo).values == (2.0, 0.0)
    assert EQUAL_DIVISION(duo).values == (3.0, 3.0)
    assert EQUAL_DIVISION(trio).values == (1.0, 1.0, 1.0)
    assert constant_solution(1.5)(trio).values == (1.5, 1.5, 1.5)
    assert LEAD_SINGLETON(duo).values == (2.0, 0.0)
    assert LEAD_SINGLETON(trio).values == (0.0, 0.0, 0.0)


def test_solution_output_is_validated(duo):
    bad = Solution("bad", lambda v: Allocation((1, 3), (0.0, 0.0)))
    with pytest.raises(ValueError):
        bad(duo)
    with pytest.raises(ValueError, match="one payoff per player required"):
        Allocation((1, 2), (0.0,))


def test_named_solution_lookup(duo):
    assert named_solution("shapley") is SHAPLEY
    assert named_solution("ed") is EQUAL_DIVISION
    assert named_solution("stand-alone") is STAND_ALONE
    assert named_solution("ess") is ESS_VALUE
    assert named_solution("ps") is PS_VALUE
    # names are the keys: a rule rebuilt under the same name is the same rule
    assert len({SHAPLEY, named_solution("shapley"), Solution("shapley", shapley)}) == 1
    assert named_solution("constant:1.5")(duo).values == (1.5, 1.5)
    wrapped = named_solution("ess[shapley]")
    assert wrapped.name == "ess[shapley]"
    assert wrapped(duo).values == (4.0, 2.0)
    nested = named_solution("ps[ess[standalone]]")
    assert nested(duo).total() == 6.0
    with pytest.raises(UnknownName):
        named_solution("nope")
    with pytest.raises(UnknownName):
        named_solution("constant:abc")


def _reference_shapley(v):
    """The former kernel: every player's terms collected mask by mask."""
    n = v.n
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s - 1] * fact[n - s] / fact[n] for s in range(n + 1)]
    terms = [[] for _ in range(n)]
    for mask in range(1, 1 << n):
        w = weight[mask.bit_count()]
        val = v.worth[mask]
        rem = mask
        while rem:
            b = rem & -rem
            rem ^= b
            terms[b.bit_length() - 1].append(w * (val - v.worth[mask ^ b]))
    return tuple(math.fsum(t) for t in terms)


def test_shapley_matches_per_mask_reference(wide_game):
    for n in range(1, 11):
        players = tuple(range(3, 3 + n))
        games = [
            random_game(players, seed=seed, profile=profile)
            for profile in PROFILES
            for seed in range(2)
        ]
        games.append(wide_game(players, seed=n))
        for v in games:
            got = shapley(v).values
            ref = _reference_shapley(v)
            assert got == ref
            assert [x.hex() for x in got] == [x.hex() for x in ref]
