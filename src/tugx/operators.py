"""Operators that turn a benchmark solution into an efficient one.

An operator is a sharing rule over a target worth: it hands the target out
over the benchmark payoffs f(v).  The ess rule adds an equal share of what
the payoffs leave, the ps rule rescales them proportionally, and the
weighted rule blends the two with convex weights.  The target is the grand
worth v(N), or for the cohesive operators the best partition worth.  The
anchored operators, used as a counterexample, shift the ess or ps sharing
by the benchmark's offsets at a fixed game.

Every operator takes ``(f, v, *structure)`` and hands the structure to the
benchmark f alone, so one operator serves plain games, communication graphs
and coalition structures: the efficient extensions of the Myerson and
Aumann-Dreze values are the ess operator over those benchmarks, and the equal
surplus sharing and proportional sharing values are the ess and ps operators
over the stand-alone worths.  This module also resolves every rule name,
``op[inner]`` nesting included.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

from .coalition import AUMANN_DREZE, PARTITION
from .comm import GRAPH, MYERSON_SOLUTION
from .errors import BadName, DomainViolation, UnknownName, check_name_depth
from .games import DEFAULT_TOL, Game
from .memo import reuse
from .solutions import (
    EQUAL_DIVISION,
    LEAD_SINGLETON,
    SHAPLEY,
    STAND_ALONE,
    ZERO,
    Allocation,
    Solution,
    Structure,
    constant_solution,
    singleton_total,
)

# A benchmark: a Solution, or any callable over (game, *structure).
Benchmark = Solution | Callable[..., Allocation]


@dataclass(frozen=True, eq=False)
class Operator:
    """Named map from a benchmark and a (game, *structure) input to payoffs.

    ``reads`` is a structure the operator's name promises (``graph-ess``
    reads a graph), or None for an operator that serves any input.
    """

    name: str
    func: Callable[..., Allocation] = field(repr=False)
    reads: Structure | None = None

    def __call__(self, f: Benchmark, v: Game, *structure: Any) -> Allocation:
        return self.func(f, v, *structure)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Operator) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


def _ess_shares(out: Allocation, v: Game, target: float) -> Allocation:
    """Benchmark payoffs plus an equal share of the target worth they leave."""
    share = (target - math.fsum(out.values)) / v.n
    return Allocation(v.players, tuple(x + share for x in out.values))


def _divisor(out: Allocation, what: str, positive: bool = True) -> float:
    """Benchmark total to divide by.  A total within rounding of zero,
    relative to the payoffs' magnitudes, is refused (a negative one too when
    positive): dividing by it would blow rounding noise up to any size.
    """
    total = math.fsum(out.values)
    floor = DEFAULT_TOL.rel_eps * math.fsum(map(abs, out.values))
    if (total if positive else abs(total)) <= floor:
        need = "positive" if positive else "non-negligible"
        raise DomainViolation(f"{what} needs a {need} benchmark total, got {total}")
    return total


def _ps_shares(out: Allocation, v: Game, target: float) -> Allocation:
    """The target worth split in proportion to the benchmark payoffs."""
    total = _divisor(out, "proportional operator")
    return Allocation(v.players, tuple(x / total * target for x in out.values))


def _require_positive_singletons(v: Game) -> None:
    total = singleton_total(v)
    if total <= 0.0:
        raise DomainViolation(
            f"proportional operator needs a positive singleton total, got {total}"
        )


def _convex_shares(alpha: float) -> Callable[[Allocation, Game, float], Allocation]:
    """Benchmark payoffs plus surplus shares weighted alpha/n + (1 - alpha)
    x_i/total: equal weights blended with payoff-proportional ones."""

    def shares(out: Allocation, v: Game, target: float) -> Allocation:
        n = v.n
        if alpha == 1.0:
            weights = (1.0 / n,) * n
        else:
            total = _divisor(out, "payoff-proportional weighting", positive=False)
            weights = tuple(alpha / n + (1.0 - alpha) * (p / total) for p in out.values)
        surplus = target - math.fsum(out.values)
        return Allocation(
            v.players, tuple(x + w * surplus for x, w in zip(out.values, weights))
        )

    return shares


class Sharing(NamedTuple):
    """How an operator hands a target worth out over the benchmark payoffs.

    ``shares(out, v, target)`` gives the payoffs; ``check(v)``, when set, is
    a domain test on the game that runs before the benchmark does.
    """

    name: str
    shares: Callable[[Allocation, Game, float], Allocation]
    check: Callable[[Game], None] | None = None


_ESS = Sharing("ess", _ess_shares)
_PS = Sharing("ps", _ps_shares, _require_positive_singletons)


def _game_digest(v: Game) -> str:
    raw = repr((v.players, v.worth)).encode()
    return hashlib.sha1(raw).hexdigest()[:8]


def _anchored_operator(sharing: Sharing, anchor: Game) -> Operator:
    """The sharing of the grand worth at v, shifted by the benchmark's
    offsets from their mean at the anchor.

    The benchmark runs once at v.  When v is the anchor object itself, that
    run is also the anchor's run: nested anchored operators pass their anchor
    down, so k levels make k + 1 benchmark calls.  A merely equal game still
    gets its own run, since equal worths may differ in the sign of a zero.
    """

    def func(f: Benchmark, v: Game, *structure: Any) -> Allocation:
        if v.players != anchor.players:
            raise DomainViolation("anchored operator needs the anchor's player set")
        if sharing.check is not None:
            sharing.check(v)
        out = f(v, *structure)
        base = sharing.shares(out, v, v.grand)
        at_anchor = out if v is anchor else f(anchor, *structure)
        mean = math.fsum(at_anchor.values) / v.n
        return Allocation(
            v.players,
            tuple(x + y - mean for x, y in zip(base.values, at_anchor.values)),
        )

    return Operator(f"anchored-{sharing.name}:{_game_digest(anchor)}", func)


def anchored_ess_operator(anchor: Game) -> Operator:
    """Equal-surplus sharing shifted by benchmark offsets at a fixed game.

    The offsets sum to zero, so the result stays efficient, yet payoffs now
    react to how the benchmark behaves away from the game being played.
    """
    return _anchored_operator(_ESS, anchor)


def anchored_ps_operator(anchor: Game) -> Operator:
    """Proportional sharing shifted by benchmark offsets at a fixed game."""
    return _anchored_operator(_PS, anchor)


class BestPartition(NamedTuple):
    value: float
    blocks: tuple[frozenset[int], ...]


def _fill_best(
    mask: int, worth: tuple[float, ...], best: list[float], choice: list[int]
) -> None:
    """Best split of one mask: a block holding its lowest player, plus the
    best partition of the remainder r, worth ``worth[mask - r] + best[r]``.
    Blocks go in ascending mask order and only a strictly larger worth
    replaces the first optimum.

    Ascending blocks are descending remainders r over the subsets of
    ``rest``, the mask without its lowest player.  They are taken in groups
    of four over the two lowest bits b0 < b1 of ``rest``: each x over the
    other bits, descending, yields x + b0 + b1, x + b1, x + b0, x, and the
    first of them, rest itself, starts the search.  That is the same
    sequence of remainders, so the candidates, their float sums, the ``>``
    test and hence the values and choices (ties and zero signs included)
    are bit-identical to a split-at-a-time loop; the group only shares the
    subset step and the loop test among four splits.  A rest of one bit has
    the one split r = 0 left.  Masks are added and subtracted rather than
    or-ed and xor-ed: their bits never overlap, and CPython's integer + and
    - take a faster path.
    """
    low = mask & -mask
    rest = mask - low
    top = worth[low] + best[rest]
    pick = low
    if rest:
        b0 = rest & -rest
        upper = rest - b0
        if upper:
            b1 = upper & -upper
            upper -= b1
            m0 = mask - b0
            m1 = mask - b1
            m01 = m0 - b1
            b01 = b0 + b1
            x = upper
            while True:
                cand = worth[m1 - x] + best[x + b1]
                if cand > top:
                    top = cand
                    pick = m1 - x
                cand = worth[m0 - x] + best[x + b0]
                if cand > top:
                    top = cand
                    pick = m0 - x
                cand = worth[mask - x] + best[x]
                if cand > top:
                    top = cand
                    pick = mask - x
                if not x:
                    break
                x = (x - 1) & upper
                cand = worth[m01 - x] + best[x + b01]
                if cand > top:
                    top = cand
                    pick = m01 - x
        else:
            cand = worth[mask] + best[0]
            if cand > top:
                top = cand
                pick = mask
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

    Each mask's splits are scanned by ``_fill_best`` in groups of four
    remainders over the two lowest bits of the rest; the group keeps the
    split order and every float sum, so values and blocks are bit-identical
    to a scan of one split at a time.
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
    """Best partition worth by full enumeration.  Exponential; n <= 10 only.

    Partitions come in the order of iter_set_partitions, as lists of block
    masks: player k joins each open block in turn, then opens its own.  Each
    partition's worth is the fsum of its blocks' worths, and the first
    maximum is kept.  Independent of the dynamic programme in
    max_partition_value, which it checks.
    """
    if v.n > 10:
        raise ValueError("partition enumeration is limited to 10 players")
    worth = v.worth
    top = 1 << v.n
    best = -math.inf
    blocks: list[int] = []

    def place(bit: int) -> None:
        nonlocal best
        if bit == top:
            total = math.fsum([worth[b] for b in blocks])
            if total > best:
                best = total
            return
        for i, b in enumerate(blocks):
            blocks[i] = b | bit
            place(bit << 1)
            blocks[i] = b
        blocks.append(bit)
        place(bit << 1)
        blocks.pop()

    place(1)
    return best


@reuse
def best_partition_worth(v: Game) -> float:
    """The cohesive target: the best total worth over all partitions."""
    return max_partition_value(v).value


def _grand_worth(v: Game) -> float:
    return v.grand


def _operator(
    name: str,
    sharing: Sharing,
    target: Callable[[Game], float],
    reads: Structure | None = None,
) -> Operator:
    """The operator that hands out target(v) over the benchmark payoffs at v
    by the sharing rule."""

    def func(f: Benchmark, v: Game, *structure: Any) -> Allocation:
        if sharing.check is not None:
            sharing.check(v)
        goal = target(v)
        return sharing.shares(f(v, *structure), v, goal)

    return Operator(name, func, reads)


ESS_OPERATOR = _operator("ess", _ESS, _grand_worth)
GRAPH_ESS_OPERATOR = _operator("graph-ess", _ESS, _grand_worth, GRAPH)
PARTITION_ESS_OPERATOR = _operator("partition-ess", _ESS, _grand_worth, PARTITION)
PS_OPERATOR = _operator("ps", _PS, _grand_worth)
COHESIVE_ESS_OPERATOR = _operator("cohesive-ess", _ESS, best_partition_worth)
COHESIVE_PS_OPERATOR = _operator("cohesive-ps", _PS, best_partition_worth)


def weighted_operator(alpha: float) -> Operator:
    """Surplus sharing with convex equal/proportional weights."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"blend parameter must lie in [0, 1], got {alpha}")
    name = f"weighted:{format(alpha, 'g')}"
    return _operator(name, Sharing(name, _convex_shares(alpha)), _grand_worth)


def wrap(op: Operator, f: Solution) -> Solution:
    """The operator applied to a fixed benchmark, packaged as a solution
    that reads what the operator's name or the benchmark reads.  The
    solution checks the structure, so the benchmark runs without its own
    check."""
    if op.reads and f.reads and op.reads != f.reads:
        raise ValueError(
            f"{op.name!r} reads a {op.reads.name}, {f.name!r} a {f.reads.name}"
        )
    return Solution(
        f"{op.name}[{f.name}]",
        lambda v, *structure: op(f.aligned, v, *structure),
        reads=op.reads or f.reads,
    )


def _extension(name: str, op: Operator, f: Solution) -> Solution:
    """The operator over f, under a name of its own."""
    return replace(wrap(op, f), name=name)


ESS_VALUE = _extension("ess", ESS_OPERATOR, STAND_ALONE)
PS_VALUE = _extension("ps", PS_OPERATOR, STAND_ALONE)
EE_MYERSON = _extension("ee-myerson", ESS_OPERATOR, MYERSON_SOLUTION)
EE_AUMANN_DREZE = _extension("ee-aumann-dreze", ESS_OPERATOR, AUMANN_DREZE)


def surplus_matched_game(f: Benchmark, v: Game, i: int) -> Game:
    """Game whose equal split of the grand worth matches player i's payoff
    under the equal-surplus operator over f at v.  All other worths are 0.
    """
    out = ESS_OPERATOR(f, v)
    worth = [0.0] * (1 << v.n)
    worth[-1] = v.n * out[i]
    return Game(v.players, tuple(worth))


def ratio_matched_game(f: Benchmark, v: Game, i: int) -> Game:
    """Game whose equal proportional split matches player i's payoff under
    the proportional operator over f at v.  Singleton worths are copied from
    v so the game stays inside the positive-singleton-total domain.
    """
    out = PS_OPERATOR(f, v)
    worth = [0.0] * (1 << v.n)
    for k in range(v.n):
        worth[1 << k] = v.worth[1 << k]
    worth[-1] = v.n * out[i]
    return Game(v.players, tuple(worth))


_OPERATORS: dict[str, Operator] = {
    op.name: op
    for op in (
        ESS_OPERATOR,
        GRAPH_ESS_OPERATOR,
        PARTITION_ESS_OPERATOR,
        PS_OPERATOR,
        COHESIVE_ESS_OPERATOR,
        COHESIVE_PS_OPERATOR,
    )
}
_ANCHORED = {"anchored-ess": anchored_ess_operator, "anchored-ps": anchored_ps_operator}


def named_operator(name: str, anchor: Game | None = None) -> Operator:
    """Look up an operator by name; supports weighted:<alpha> and, given an
    anchor game, anchored-ess and anchored-ps."""
    if name in _OPERATORS:
        return _OPERATORS[name]
    if name in _ANCHORED:
        if anchor is None:
            raise ValueError(f"{name!r} needs an anchor game")
        return _ANCHORED[name](anchor)
    if name.startswith("weighted:"):
        try:
            return weighted_operator(float(name.split(":", 1)[1]))
        except ValueError:
            raise BadName(f"bad blend parameter in {name!r}") from None
    raise UnknownName(f"no operator named {name!r}")


_SOLUTIONS: dict[str, Solution] = {
    s.name: s
    for s in (
        SHAPLEY,
        STAND_ALONE,
        EQUAL_DIVISION,
        ESS_VALUE,
        PS_VALUE,
        ZERO,
        LEAD_SINGLETON,
        MYERSON_SOLUTION,
        EE_MYERSON,
        AUMANN_DREZE,
        EE_AUMANN_DREZE,
    )
}
_ALIASES = {
    "ed": "equal-division",
    "stand-alone": "standalone",
    "ad": "aumann-dreze",
    "ee-ad": "ee-aumann-dreze",
}


def named_solution(name: str, anchor: Game | None = None) -> Solution:
    """The one name resolver: base rules of every structure, constant:<c>,
    and op[inner] for any operator named_operator knows."""
    check_name_depth(name)
    key = _ALIASES.get(name, name)
    if key in _SOLUTIONS:
        return _SOLUTIONS[key]
    if key.startswith("constant:"):
        try:
            return constant_solution(float(key.split(":", 1)[1]))
        except ValueError:
            raise BadName(f"bad constant payoff in {name!r}") from None
    if key.endswith("]") and "[" in key:
        op_name, inner = key[:-1].split("[", 1)
        return wrap(named_operator(op_name, anchor), named_solution(inner, anchor))
    raise UnknownName(f"no solution named {name!r}")


def _reading(rule: Solution, structure: Structure) -> Solution:
    if rule.reads not in (None, structure):
        raise UnknownName(
            f"{rule.name!r} reads a {rule.reads.name}, not a {structure.name}"
        )
    return rule


def named_graph_solution(name: str) -> Solution:
    """named_solution, limited to rules that run on a game with a graph."""
    return _reading(named_solution(name), GRAPH)


def named_partition_solution(name: str) -> Solution:
    """named_solution, limited to rules that run on a game with a partition."""
    return _reading(named_solution(name), PARTITION)
