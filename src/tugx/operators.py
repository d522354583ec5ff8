"""Operators that turn a benchmark solution into an efficient one.

An operator is a sharing rule over a target worth: it hands the target out
over the benchmark payoffs f(v).  The ess rule adds an equal share of what
the payoffs leave, the ps rule rescales them proportionally, and the
weighted rule blends the two with convex weights.  The target is the grand
worth v(N), or for the cohesive operators the best partition worth.  The
anchored operators, used as a counterexample and reached only through
named_operator with an anchor game, shift the ess or ps sharing by the
benchmark's offsets at a fixed game.

Every operator takes ``(f, v, *structure)`` and hands the structure to the
benchmark f alone, so one operator serves plain games, communication graphs
and coalition structures: the efficient extensions of the Myerson and
Aumann-Dreze values are the ess operator over those benchmarks, and the equal
surplus sharing and proportional sharing values are the ess and ps operators
over the stand-alone worths.

This module is the one name resolver of every command: named_solution
reads rules, ``op[inner]`` nesting included, named_operator operators, and
named_target a check target, which is a rule whenever a rule can have its
name (any bracketed name can).  A refused name raises UnknownName for the
part that fails, so every command prints the same line for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

from .coalition import AUMANN_DREZE, PARTITION
from .comm import GRAPH, MYERSON_SOLUTION
from .errors import DomainViolation, UnknownName
from .games import DEFAULT_TOL, Game, total_of
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

# Every subject kind as reports and the command line spell it: the structure
# its inputs carry, and whether its target is an operator.
SUBJECT_KINDS: dict[str, tuple[Structure | None, bool]] = {
    "value": (None, False),
    "graph": (GRAPH, False),
    "partition": (PARTITION, False),
    "operator": (None, True),
    "graph-operator": (GRAPH, True),
    "partition-operator": (PARTITION, True),
}


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
    share = (target - total_of(out.values, "the benchmark total")) / v.n
    return Allocation(v.players, tuple(x + share for x in out.values))


def _divisor(out: Allocation, what: str, positive: bool = True) -> float:
    """Benchmark total to divide by.  A total within rounding of zero,
    relative to the payoffs' magnitudes, is refused (a negative one too when
    positive): dividing by it would blow rounding noise up to any size.
    """
    total = total_of(out.values, "the benchmark total")
    floor = DEFAULT_TOL.eps * total_of(map(abs, out.values), "the benchmark's size")
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
        surplus = target - total_of(out.values, "the benchmark total")
        return Allocation(
            v.players, tuple(x + w * surplus for x, w in zip(out.values, weights))
        )

    return shares


class Sharing(NamedTuple):
    """How an operator hands a target worth out over the benchmark payoffs.

    ``shares(out, v, target)`` gives the payoffs; ``check(v)``, when set, is
    a domain test on the game that runs before the benchmark does.
    """

    shares: Callable[[Allocation, Game, float], Allocation]
    check: Callable[[Game], None] | None = None


_ESS = Sharing(_ess_shares)
_PS = Sharing(_ps_shares, _require_positive_singletons)


def _game_digest(v: Game) -> str:
    # imported here: only the anchored names need it, and it is slow to load
    import hashlib

    raw = repr((v.players, v.worth)).encode()
    return hashlib.sha1(raw).hexdigest()[:8]


def _anchored_operator(name: str, sharing: Sharing, anchor: Game) -> Operator:
    """The sharing of the grand worth at v, shifted by the benchmark's
    offsets from their mean at the anchor.  The offsets sum to zero, so the
    result stays efficient.

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
        mean = total_of(at_anchor.values, "the benchmark total at the anchor") / v.n
        return Allocation(
            v.players,
            tuple(x + y - mean for x, y in zip(base.values, at_anchor.values)),
        )

    return Operator(f"{name}:{_game_digest(anchor)}", func)


class BestPartition(NamedTuple):
    value: float
    blocks: tuple[frozenset[int], ...]


def _offer(
    block: int, free: int, w: float, best: list[float], choice: list[int]
) -> None:
    """Push ``block`` (worth w) to every mask block + r, r a nonempty subset
    of ``free``: the candidate ``w + best[r]`` replaces the mask's best only
    if it is strictly larger.

    The remainders go in groups of four over the two lowest bits b0 < b1 of
    ``free``: each x over the other bits yields x + b0 + b1, x + b1, x + b0
    and, while x is nonzero, x.  Each mask gets one candidate from the
    block, so their order within the block does not matter.  Masks are
    added rather than or-ed: their bits never overlap, and CPython's integer
    + takes a faster path.
    """
    b0 = free & -free
    m0 = block + b0
    upper = free - b0
    if not upper:
        cand = w + best[b0]
        if cand > best[m0]:
            best[m0] = cand
            choice[m0] = block
        return
    b1 = upper & -upper
    upper -= b1
    b01 = b0 + b1
    m1 = block + b1
    m01 = m0 + b1
    x = upper
    while True:
        cand = w + best[x + b01]
        if cand > best[x + m01]:
            best[x + m01] = cand
            choice[x + m01] = block
        cand = w + best[x + b1]
        if cand > best[x + m1]:
            best[x + m1] = cand
            choice[x + m1] = block
        cand = w + best[x + b0]
        if cand > best[x + m0]:
            best[x + m0] = cand
            choice[x + m0] = block
        if not x:
            return
        cand = w + best[x]
        if cand > best[x + block]:
            best[x + block] = cand
            choice[x + block] = block
        x = (x - 1) & upper


def max_partition_value(v: Game) -> BestPartition:
    """Best total worth over all partitions, by dynamic programming on masks.

    Ties keep the first optimum found; blocks are tried smallest-mask first
    with the lowest remaining player pinned, so an additive game resolves to
    all singletons.  A mask's best is the first strict maximum, over its
    blocks B (each holding the mask's lowest player) in ascending order, of
    ``worth[B] + best[mask - B]``, with ``best[0] = 0.0``.

    Below the grand coalition that recursion only reads masks without player
    bit 0.  They are filled by pushing, in layers by their lowest player bit
    l, from the highest bit down to bit 1: the remainders of a layer lie
    above l and are final when it starts.  Within a layer the blocks
    B = l + C go with C ascending, l alone first.  B's own candidate
    ``worth[B] + 0.0`` closes B, and B is then offered to every mask B + r
    (``_offer``).  So each mask sees its candidates in ascending block
    order, exactly as a scan of its splits would.  Masks start at -inf, so
    the first candidate always lands; if it is -inf itself, the choice stays
    0, which stands for the lowest player alone.  The full mask is one plain
    scan of its 2^(n-1) splits, its blocks being the odd masks.

    A block worth clearly less than its own best partition is not offered.
    With H the Euclidean norm of the worth table (at least every |worth|)
    and tau = 8 n^2 2^-53 H, a block with ``best[B] - worth[B] > tau`` is
    dominated, and its candidates never are the first optimum.  Let E bound
    the rounding error of a float sum of at most n worths (E < n^2 2^-53 H;
    float addition errs relatively even among subnormals).  best[B] and
    best[r] are float sums of partitions of B and r, and a mask's best is at
    least the float sum of each of its partitions taken in the DP's order,
    because float addition is monotone.  So best[B + r] >= best[B] +
    best[r] - 3E, while the skipped candidate is at most worth[B] + best[r]
    + E, and best[B] - worth[B] > tau > 4E, with room to spare for the
    rounding of the test itself.  The candidate lies strictly below
    best[B + r], and every value, choice, tie and zero sign is bit-identical
    to the full scan.  The bound needs sums free of overflow; they stay
    below 2 n H, so unless that is finite nothing is skipped.
    """
    n = v.n
    size = 1 << n
    worth = v.worth
    best = [-math.inf] * size
    best[0] = 0.0
    choice = [0] * size
    # 2 n H bounds every float sum of n worths; tau = 8 n^2 2^-53 H
    tau = 2 * n * math.hypot(*worth)
    if tau < math.inf:
        tau *= 4 * n * 2.0**-53
    low = size >> 1
    while low > 1:
        for block in range(low, size, low + low):
            w = worth[block]
            cand = w + 0.0
            if cand > best[block]:
                best[block] = cand
                choice[block] = block
            elif best[block] - w > tau:
                continue
            free = size - low - block
            if free:
                _offer(block, free, w, best, choice)
        low >>= 1
    full = size - 1
    top = -math.inf
    pick = 1
    for block in range(1, size, 2):
        cand = worth[block] + best[full - block]
        if cand > top:
            top = cand
            pick = block
    choice[full] = pick
    blocks = []
    mask = full
    while mask:
        block = choice[mask] or mask & -mask
        blocks.append(v.coalition(block))
        mask ^= block
    return BestPartition(top, tuple(blocks))


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

    try:
        place(1)
    except OverflowError:
        raise OverflowError("a partition's worth overflows") from None
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
    return _operator(name, Sharing(_convex_shares(alpha)), _grand_worth)


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
_ANCHORED = {"anchored-ess": _ESS, "anchored-ps": _PS}


def named_operator(name: str, anchor: Game | None = None) -> Operator:
    """Look up an operator by name; supports weighted:<alpha> and, given an
    anchor game, anchored-ess and anchored-ps."""
    if name in _OPERATORS:
        return _OPERATORS[name]
    if name in _ANCHORED:
        if anchor is None:
            raise ValueError(f"{name!r} needs an anchor game")
        return _anchored_operator(name, _ANCHORED[name], anchor)
    if name.startswith("weighted:"):
        try:
            return weighted_operator(float(name.split(":", 1)[1]))
        except ValueError:
            raise UnknownName(f"bad blend parameter in {name!r}") from None
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

# Deepest op[...] nesting a rule name may have; the lookup recurses once per level.
MAX_NAME_DEPTH = 32


def _find_rule(name: str, anchor: Game | None) -> Solution | None:
    """The rule by that name, or None if no rule can have it: the name is
    no registry name or alias, not constant:<c>, and holds no bracket.  A
    rule name with an unusable part raises UnknownName naming that part."""
    if name.count("[") > MAX_NAME_DEPTH:
        raise UnknownName(f"rule name nests deeper than {MAX_NAME_DEPTH} levels: {name[:40]}...")
    key = _ALIASES.get(name, name)
    if key in _SOLUTIONS:
        return _SOLUTIONS[key]
    if key.startswith("constant:"):
        try:
            return constant_solution(float(key.split(":", 1)[1]))
        except ValueError:
            raise UnknownName(f"bad constant payoff in {name!r}") from None
    if "[" not in key:
        return None
    if not key.endswith("]"):
        raise UnknownName(f"no solution named {name!r}")
    op_name, inner = key[:-1].split("[", 1)
    return wrap(named_operator(op_name, anchor), named_solution(inner, anchor))


def named_solution(
    name: str, anchor: Game | None = None, reads: Structure | None = None
) -> Solution:
    """The rule by that name: base rules of every structure, constant:<c>,
    and op[inner] for any operator named_operator knows.  Given ``reads``,
    a rule that reads another structure is refused."""
    rule = _find_rule(name, anchor)
    if rule is None:
        raise UnknownName(f"no solution named {name!r}")
    if reads is not None and rule.reads not in (None, reads):
        raise UnknownName(f"{rule.name!r} reads a {rule.reads.name}, not a {reads.name}")
    return rule


def named_target(
    name: str, anchor: Game | None = None, kind: str | None = None
) -> tuple[Solution | Operator, Structure | None]:
    """A check target and the structure its inputs carry: read as the
    SUBJECT_KINDS entry of kind says, else as a rule if a rule can have the
    name and as an operator if not, over the structure the target reads."""
    if kind is not None:
        structure, operator = SUBJECT_KINDS[kind]
        return (named_operator if operator else named_solution)(name, anchor), structure
    target = _find_rule(name, anchor) or named_operator(name, anchor)
    return target, target.reads


def named_graph_solution(name: str) -> Solution:
    """named_solution, limited to rules that run on a game with a graph."""
    return named_solution(name, reads=GRAPH)


def named_partition_solution(name: str) -> Solution:
    """named_solution, limited to rules that run on a game with a partition."""
    return named_solution(name, reads=PARTITION)
