"""Single-valued solutions for TU games.

A Solution pairs a name with a payoff function over a game and, when the
rule needs one, a structure on its players: a communication graph or a
partition.  Names double as identity: two Solution objects compare equal iff
their names match, which lets tests and the command line treat them as
registry keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, permutations
from operator import mul, sub
from typing import Any, Callable, Mapping, NamedTuple

from .errors import DomainViolation, MissingStructure
from .games import DEFAULT_TOL, Game, Tolerance
from .memo import reuse

# Which worths a rule's payoffs read.  Axiom checks build partner games by
# editing worths a benchmark does not read; a rule that declares none of the
# narrower sets may read any worth.
ALL_WORTHS = "all"
SINGLETON_WORTHS = "singletons"
GRAND_WORTH = "grand"
NO_WORTHS = "none"


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


class Structure(NamedTuple):
    """A kind of structure a rule may read besides the game.

    ``align(v, s)`` checks that s fits the game v, raising ValueError if
    not, and returns s in canonical form.
    """

    name: str
    align: Callable[[Game, Any], Any]


@dataclass(frozen=True, eq=False)
class Solution:
    """Named payoff rule; identity and hashing go by name.

    ``reads`` is the structure the rule needs after the game, or None.  A
    rule that reads none ignores a structure passed to it, so every rule
    can serve as a benchmark over graphs and partitions.  ``worths`` says
    which worths of the game the payoffs read.
    """

    name: str
    func: Callable[..., Allocation] = field(repr=False)
    reads: Structure | None = None
    worths: str = ALL_WORTHS

    def __call__(self, v: Game, *structure: Any) -> Allocation:
        if self.reads is not None:
            if not structure:
                raise MissingStructure(f"{self.name!r} needs a {self.reads.name}")
            structure = (self.reads.align(v, structure[0]),)
        return self.aligned(v, *structure)

    def aligned(self, v: Game, *structure: Any) -> Allocation:
        """The rule at a structure that ``reads.align`` already returned for
        v, as a wrapping rule hands it on: the check is not run again."""
        out = self.func(v) if self.reads is None else self.func(v, structure[0])
        if out.players != v.players:
            raise ValueError(f"solution {self.name!r} misaligned its payoff vector")
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Solution) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


def singleton_total(v: Game) -> float:
    return math.fsum(v.singleton_values())


@reuse
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


SHAPLEY = Solution("shapley", shapley)
STAND_ALONE = Solution("standalone", stand_alone, worths=SINGLETON_WORTHS)
EQUAL_DIVISION = Solution("equal-division", equal_division, worths=GRAND_WORTH)
ZERO = Solution("zero", lambda v: Allocation(v.players, (0.0,) * v.n), worths=NO_WORTHS)
# The lowest-id player keeps their stand-alone worth; the rest get 0.
LEAD_SINGLETON = Solution(
    "lead-singleton", lambda v: Allocation(v.players, (v.worth[1],) + (0.0,) * (v.n - 1))
)


def constant_solution(c: float) -> Solution:
    """Every player gets c in every game; c must be finite."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"constant payoff must be finite, got {c}")

    def func(v: Game) -> Allocation:
        return Allocation(v.players, (c,) * v.n)

    return Solution(f"constant:{format(c, 'g')}", func, worths=NO_WORTHS)


def table_solution(name: str, entries: Mapping[Game, Allocation]) -> Solution:
    """Finite lookup; off-table games are a domain violation."""
    frozen = dict(entries)

    def func(v: Game) -> Allocation:
        try:
            return frozen[v]
        except KeyError:
            raise DomainViolation(f"{name!r} has no entry for this game") from None

    return Solution(name, func)


def freeze_solution(F: Solution, v0: Game, s0: Any) -> Solution:
    """Restrict F, a rule that reads a structure, to inputs sharing the
    given game or the given structure."""

    def func(v: Game, s: Any) -> Allocation:
        if v != v0 and s != s0:
            raise DomainViolation("input is outside the frozen cross domain")
        return F.aligned(v, s)

    return Solution(f"frozen[{F.name}]", func, reads=F.reads)
