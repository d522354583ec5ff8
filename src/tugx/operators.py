"""Operators that turn a benchmark solution into an efficient one.

The two basic constructions hand out the gap between the grand worth and the
benchmark total: the ess flavor splits it equally, the ps flavor rescales the
benchmark proportionally.  Variants here cover payoff-dependent weights,
an anchor-game construction used as a counterexample, and cohesive versions
that target the best partition worth instead of the grand worth.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import BadName, DomainViolation, UnknownName
from .games import DEFAULT_TOL, Game, Tolerance, iter_set_partitions
from .solutions import (
    ALL_GAMES,
    POSITIVE_GAMES,
    Allocation,
    Solution,
    singleton_total,
)

Benchmark = Solution | Callable[[Game], Allocation]


@dataclass(frozen=True, eq=False)
class Operator:
    """Named map from a benchmark solution and a game to a payoff vector."""

    name: str
    func: Callable[[Benchmark, Game], Allocation] = field(repr=False)
    domain: str = ALL_GAMES
    # Games the operator's definition depends on, beyond its argument.
    extra_games: tuple[Game, ...] = ()

    def __call__(self, f: Benchmark, v: Game) -> Allocation:
        return self.func(f, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Operator) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


def apply_ess_operator(f: Benchmark, v: Game) -> Allocation:
    """Benchmark payoffs plus an equal share of the leftover surplus."""
    out = f(v)
    share = (v.grand - math.fsum(out.values)) / v.n
    return Allocation(v.players, tuple(x + share for x in out.values))


def _positive_total(out: Allocation) -> float:
    """Benchmark total for proportional sharing.  A total within rounding of
    zero, relative to the payoffs' magnitudes, counts as non-positive: the
    rescaled payoffs would be rounding noise blown up to any size.
    """
    total = math.fsum(out.values)
    if total <= DEFAULT_TOL.rel_eps * math.fsum(map(abs, out.values)):
        raise DomainViolation(
            f"proportional operator needs a positive benchmark total, got {total}"
        )
    return total


def apply_ps_operator(f: Benchmark, v: Game) -> Allocation:
    """Grand worth split in proportion to benchmark payoffs."""
    if singleton_total(v) <= 0.0:
        raise DomainViolation(
            "proportional operator needs a positive singleton total"
        )
    out = f(v)
    total = _positive_total(out)
    return Allocation(v.players, tuple(x / total * v.grand for x in out.values))


@dataclass(frozen=True)
class WeightScheme:
    """Named map from a payoff vector to surplus weights."""

    name: str
    func: Callable[[tuple[float, ...]], tuple[float, ...]] = field(repr=False)

    def __call__(self, payoffs: tuple[float, ...]) -> tuple[float, ...]:
        return self.func(payoffs)


def convex_weights(alpha: float) -> WeightScheme:
    """Blend equal weights with payoff-proportional weights."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"blend parameter must lie in [0, 1], got {alpha}")

    def func(payoffs: tuple[float, ...]) -> tuple[float, ...]:
        n = len(payoffs)
        if alpha == 1.0:
            return (1.0 / n,) * n
        total = math.fsum(payoffs)
        if total == 0.0:
            raise DomainViolation(
                "payoff-proportional weights are undefined at total payoff 0"
            )
        return tuple(alpha / n + (1.0 - alpha) * (p / total) for p in payoffs)

    return WeightScheme(f"convex:{format(alpha, 'g')}", func)


def apply_weighted_operator(
    f: Benchmark,
    scheme: WeightScheme,
    v: Game,
    tol: Tolerance = DEFAULT_TOL,
) -> Allocation:
    """Benchmark payoffs plus scheme-weighted shares of the surplus.

    The scheme must produce one weight per player, weights summing to one,
    and equal weights for players with identical benchmark payoffs.
    """
    out = f(v)
    weights = scheme(out.values)
    if len(weights) != v.n:
        raise ValueError(f"scheme {scheme.name!r} produced {len(weights)} weights")
    if not tol.eq(math.fsum(weights), 1.0):
        raise ValueError(f"scheme {scheme.name!r} weights do not sum to 1")
    for a in range(v.n):
        for b in range(a + 1, v.n):
            if out.values[a] == out.values[b] and not tol.eq(weights[a], weights[b]):
                raise ValueError(
                    f"scheme {scheme.name!r} weighted equal payoffs unequally"
                )
    surplus = v.grand - math.fsum(out.values)
    return Allocation(
        v.players, tuple(x + w * surplus for x, w in zip(out.values, weights))
    )


def _game_digest(v: Game) -> str:
    raw = repr((v.players, v.worth)).encode()
    return hashlib.sha1(raw).hexdigest()[:8]


def anchored_ess_operator(anchor: Game) -> Operator:
    """Equal-surplus sharing shifted by benchmark offsets at a fixed game.

    The offsets sum to zero, so the result stays efficient, yet payoffs now
    react to how the benchmark behaves away from the game being played.
    """

    def func(f: Benchmark, v: Game) -> Allocation:
        if v.players != anchor.players:
            raise DomainViolation("anchored operator needs the anchor's player set")
        base = apply_ess_operator(f, v)
        at_anchor = f(anchor)
        mean = math.fsum(at_anchor.values) / v.n
        return Allocation(
            v.players,
            tuple(x + y - mean for x, y in zip(base.values, at_anchor.values)),
        )

    return Operator(
        f"anchored-ess:{_game_digest(anchor)}", func, extra_games=(anchor,)
    )


def anchored_ps_operator(anchor: Game) -> Operator:
    """Proportional sharing shifted by benchmark offsets at a fixed game."""

    def func(f: Benchmark, v: Game) -> Allocation:
        if v.players != anchor.players:
            raise DomainViolation("anchored operator needs the anchor's player set")
        base = apply_ps_operator(f, v)
        at_anchor = f(anchor)
        mean = math.fsum(at_anchor.values) / v.n
        return Allocation(
            v.players,
            tuple(x + y - mean for x, y in zip(base.values, at_anchor.values)),
        )

    return Operator(
        f"anchored-ps:{_game_digest(anchor)}",
        func,
        domain=POSITIVE_GAMES,
        extra_games=(anchor,),
    )


class BestPartition(NamedTuple):
    value: float
    blocks: tuple[frozenset[int], ...]


def _fill_best(
    mask: int, worth: tuple[float, ...], best: list[float], choice: list[int]
) -> None:
    """Best split of one mask: a block holding its lowest player, plus the
    best partition of the remainder.  Blocks go in ascending mask order and
    only a strictly larger worth replaces the first optimum.
    """
    low = mask & -mask
    rest = mask ^ low
    top = worth[low] + best[rest]
    pick = low
    sub = 0
    while sub != rest:
        sub = (sub - rest) & rest
        block = sub | low
        cand = worth[block] + best[mask ^ block]
        if cand > top:
            top = cand
            pick = block
    best[mask] = top
    choice[mask] = pick


def max_partition_value(v: Game) -> BestPartition:
    """Best total worth over all partitions, by dynamic programming on masks.

    Ties keep the first optimum found; blocks are tried smallest-mask first
    with the lowest remaining player pinned, so an additive game resolves to
    all singletons.

    Every block taken from a mask holds that mask's lowest player, so below
    the grand coalition the recursion only reads masks without player bit 0.
    Only those masks (the even ones, ascending) and then the full mask are
    filled: (3^(n-1) - 1)/2 + 2^(n-1) splits instead of (3^n - 1)/2 for all
    2^n masks, with identical values, choices and tie-breaks.
    """
    size = 1 << v.n
    worth = v.worth
    best = [0.0] * size
    choice = [0] * size
    for mask in range(2, size, 2):
        _fill_best(mask, worth, best, choice)
    _fill_best(size - 1, worth, best, choice)
    blocks = []
    mask = v.full_mask
    while mask:
        block = choice[mask]
        blocks.append(v.coalition(block))
        mask ^= block
    return BestPartition(best[-1], tuple(blocks))


def brute_force_partition_value(v: Game) -> float:
    """Best partition worth by full enumeration.  Exponential; n <= 10 only."""
    if v.n > 10:
        raise ValueError("partition enumeration is limited to 10 players")
    return max(
        math.fsum(v.value(block) for block in partition)
        for partition in iter_set_partitions(v.players)
    )


def apply_cohesive_ess(f: Benchmark, v: Game) -> Allocation:
    """Equal-surplus sharing aimed at the best partition worth."""
    target = max_partition_value(v).value
    out = f(v)
    share = (target - math.fsum(out.values)) / v.n
    return Allocation(v.players, tuple(x + share for x in out.values))


def apply_cohesive_ps(f: Benchmark, v: Game) -> Allocation:
    """Proportional sharing aimed at the best partition worth."""
    if singleton_total(v) <= 0.0:
        raise DomainViolation(
            "proportional operator needs a positive singleton total"
        )
    target = max_partition_value(v).value
    out = f(v)
    total = _positive_total(out)
    return Allocation(v.players, tuple(x / total * target for x in out.values))


ESS_OPERATOR = Operator("ess", apply_ess_operator)
PS_OPERATOR = Operator("ps", apply_ps_operator, domain=POSITIVE_GAMES)
COHESIVE_ESS_OPERATOR = Operator("cohesive-ess", apply_cohesive_ess)
COHESIVE_PS_OPERATOR = Operator(
    "cohesive-ps", apply_cohesive_ps, domain=POSITIVE_GAMES
)


def weighted_operator(alpha: float) -> Operator:
    """Surplus sharing with convex equal/proportional weights."""
    scheme = convex_weights(alpha)

    def func(f: Benchmark, v: Game) -> Allocation:
        return apply_weighted_operator(f, scheme, v)

    return Operator(f"weighted:{format(float(alpha), 'g')}", func)


def wrap(op: Operator, f: Solution) -> Solution:
    """The operator applied to a fixed benchmark, packaged as a solution."""
    domain = (
        POSITIVE_GAMES
        if POSITIVE_GAMES in (op.domain, f.domain)
        else ALL_GAMES
    )
    return Solution(f"{op.name}[{f.name}]", "wrapped", lambda v: op(f, v), domain)


def surplus_matched_game(f: Benchmark, v: Game, i: int) -> Game:
    """Game whose equal split of the grand worth matches player i's payoff
    under the equal-surplus operator over f at v.  All other worths are 0.
    """
    out = apply_ess_operator(f, v)
    worth = [0.0] * (1 << v.n)
    worth[-1] = v.n * out[i]
    return Game(v.players, tuple(worth))


def ratio_matched_game(f: Benchmark, v: Game, i: int) -> Game:
    """Game whose equal proportional split matches player i's payoff under
    the proportional operator over f at v.  Singleton worths are copied from
    v so the game stays inside the positive-singleton-total domain.
    """
    out = apply_ps_operator(f, v)
    worth = [0.0] * (1 << v.n)
    for k in range(v.n):
        worth[1 << k] = v.worth[1 << k]
    worth[-1] = v.n * out[i]
    return Game(v.players, tuple(worth))


_BASE: dict[str, Operator] = {
    op.name: op
    for op in (
        ESS_OPERATOR,
        PS_OPERATOR,
        COHESIVE_ESS_OPERATOR,
        COHESIVE_PS_OPERATOR,
    )
}


def named_operator(name: str) -> Operator:
    """Look up an operator by name; supports weighted:<alpha>."""
    if name in _BASE:
        return _BASE[name]
    if name.startswith("weighted:"):
        try:
            return weighted_operator(float(name.split(":", 1)[1]))
        except ValueError:
            raise BadName(f"bad blend parameter in {name!r}") from None
    raise UnknownName(f"unknown operator {name!r}")
