"""Single-valued solutions for TU games.

A Solution pairs a name with a payoff function.  Names double as identity:
two Solution objects compare equal iff their names match, which lets tests
and the command line treat them as registry keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, permutations
from operator import mul, sub
from typing import Callable, Iterable, Mapping

from .errors import BadName, DomainViolation, UnknownName, check_name_depth
from .games import DEFAULT_TOL, Game, Tolerance

ALL_GAMES = "all"
POSITIVE_GAMES = "positive-singleton-total"


@dataclass(frozen=True)
class Allocation:
    """A payoff vector aligned with a game's player tuple."""

    players: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.players) != len(self.values):
            raise ValueError("one payoff per player required")

    def __getitem__(self, player: int) -> float:
        try:
            return self.values[self.players.index(player)]
        except ValueError:
            raise KeyError(player) from None

    def total(self) -> float:
        return math.fsum(self.values)

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.players, self.values))

    @classmethod
    def from_mapping(cls, payoffs: Mapping[int, float]) -> "Allocation":
        ps = tuple(sorted(payoffs))
        return cls(ps, tuple(float(payoffs[p]) for p in ps))


def allocations_close(a: Allocation, b: Allocation, tol: Tolerance = DEFAULT_TOL) -> bool:
    if a.players != b.players:
        return False
    return all(tol.eq(x, y) for x, y in zip(a.values, b.values))


@dataclass(frozen=True, eq=False)
class Solution:
    """Named payoff rule; identity and hashing go by name."""

    name: str
    kind: str
    func: Callable[[Game], Allocation] = field(repr=False)
    domain: str = ALL_GAMES

    def __call__(self, v: Game) -> Allocation:
        out = self.func(v)
        if out.players != v.players:
            raise ValueError(f"solution {self.name!r} misaligned its payoff vector")
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Solution) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


def singleton_total(v: Game) -> float:
    return math.fsum(v.singleton_values())


def shapley(v: Game) -> Allocation:
    """Average marginal contribution over coalition sizes.

    Each payoff is an fsum over one term ``w(|S|) * (v(S) - v(S minus i))``
    per coalition S containing the player, so relabeled games produce
    bit-identical payoff multisets.

    The terms of player bit b are built a whole table slice at a time: the
    masks holding b come either as runs ``[h, h + b)`` or as strides
    ``[j::2b]``, whichever needs fewer slices, and ``wt`` gives each mask's
    weight.  fsum is exact and order-independent, so building the same
    terms in this order leaves every payoff bit-identical, and only one
    player's terms are in flight at a time.
    """
    n = v.n
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s - 1] * fact[n - s] / fact[n] for s in range(n + 1)]
    size = 1 << n
    wt = [weight[m.bit_count()] for m in range(size)]
    vw = v.worth
    payoffs = []
    for k in range(n):
        b = 1 << k
        step = b << 1
        if b * b >= size >> 1:
            slices = (
                map(mul, wt[h : h + b], map(sub, vw[h : h + b], vw[h - b : h]))
                for h in range(b, size, step)
            )
        else:
            slices = (
                map(mul, wt[j::step], map(sub, vw[j::step], vw[j - b :: step]))
                for j in range(b, step)
            )
        payoffs.append(math.fsum(chain.from_iterable(slices)))
    return Allocation(v.players, tuple(payoffs))


def shapley_permutation_oracle(v: Game) -> Allocation:
    """Average marginals over every player order.  Exponential; n <= 8 only."""
    if v.n > 8:
        raise ValueError("permutation oracle is limited to 8 players")
    totals = [0.0] * v.n
    count = 0
    for order in permutations(range(v.n)):
        mask = 0
        for k in order:
            grown = mask | (1 << k)
            totals[k] += v.worth[grown] - v.worth[mask]
            mask = grown
        count += 1
    return Allocation(v.players, tuple(t / count for t in totals))


def stand_alone(v: Game) -> Allocation:
    return Allocation(v.players, v.singleton_values())


def equal_division(v: Game) -> Allocation:
    share = v.grand / v.n
    return Allocation(v.players, (share,) * v.n)


def ess_value(v: Game) -> Allocation:
    """Stand-alone worths plus an equal share of the leftover surplus."""
    share = (v.grand - singleton_total(v)) / v.n
    return Allocation(v.players, tuple(x + share for x in v.singleton_values()))


def ps_value(v: Game) -> Allocation:
    """Grand worth split in proportion to stand-alone worths."""
    total = singleton_total(v)
    if total <= 0.0:
        raise DomainViolation(
            f"proportional split needs a positive singleton total, got {total}"
        )
    return Allocation(
        v.players, tuple(x / total * v.grand for x in v.singleton_values())
    )


SHAPLEY = Solution("shapley", "shapley", shapley)
STAND_ALONE = Solution("standalone", "stand-alone", stand_alone)
EQUAL_DIVISION = Solution("equal-division", "equal-division", equal_division)
ESS_VALUE = Solution("ess", "ess", ess_value)
PS_VALUE = Solution("ps", "ps", ps_value, domain=POSITIVE_GAMES)
ZERO = Solution("zero", "zero", lambda v: Allocation(v.players, (0.0,) * v.n))


def constant_solution(c: float) -> Solution:
    """Every player gets c in every game; c must be finite."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"constant payoff must be finite, got {c}")

    def func(v: Game) -> Allocation:
        return Allocation(v.players, (c,) * v.n)

    return Solution(f"constant:{format(c, 'g')}", "constant", func)


def lead_singleton_solution() -> Solution:
    """Lowest-id player keeps their stand-alone worth; the rest get 0."""

    def func(v: Game) -> Allocation:
        vals = [0.0] * v.n
        vals[0] = v.worth[1]
        return Allocation(v.players, tuple(vals))

    return Solution("lead-singleton", "lead-singleton", func)


def table_solution(name: str, entries: Mapping[Game, Allocation]) -> Solution:
    """Finite lookup; off-table games are a domain violation."""
    frozen = dict(entries)

    def func(v: Game) -> Allocation:
        try:
            return frozen[v]
        except KeyError:
            raise DomainViolation(f"{name!r} has no entry for this game") from None

    return Solution(name, "table", func)


def evaluate(f: Solution | Callable[[Game], Allocation], v: Game) -> Allocation:
    return f(v)


def total_payoff(f: Solution | Callable[[Game], Allocation], v: Game) -> float:
    return f(v).total()


_BASE: dict[str, Solution] = {
    s.name: s
    for s in (SHAPLEY, STAND_ALONE, EQUAL_DIVISION, ESS_VALUE, PS_VALUE, ZERO)
}
_ALIASES = {"ed": "equal-division", "stand-alone": "standalone"}


def named_solution(name: str) -> Solution:
    """Look up a solution by name; supports constant:<c> and op[sol] nesting."""
    check_name_depth(name)
    key = _ALIASES.get(name, name)
    if key in _BASE:
        return _BASE[key]
    if key == "lead-singleton":
        return lead_singleton_solution()
    if key.startswith("constant:"):
        try:
            return constant_solution(float(key.split(":", 1)[1]))
        except ValueError:
            raise BadName(f"bad constant payoff in {name!r}") from None
    if key.endswith("]") and "[" in key:
        from .operators import named_operator, wrap

        op_name, inner = key[:-1].split("[", 1)
        return wrap(named_operator(op_name), named_solution(inner))
    raise UnknownName(f"unknown solution {name!r}")
