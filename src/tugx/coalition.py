"""Games played under a coalition structure.

A partition groups the players into disjoint blocks.  Rules that read
``PARTITION`` take a game together with a partition of its players.  The
induction solver reconstructs the equal-surplus extension of a benchmark
from removal cycles on a null-extended game plus block-sum constraints.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .errors import DomainViolation, InconsistentSystem
from .games import DEFAULT_TOL, Game, Tolerance, subgame
from .solutions import Allocation, Solution, Structure, shapley

Partition = tuple[frozenset[int], ...]


def make_partition(
    blocks: Iterable[Iterable[int]], players: Iterable[int] | None = None
) -> Partition:
    """Validate and canonicalize: disjoint nonempty blocks, sorted by minimum."""
    out = []
    seen: set[int] = set()
    for block in blocks:
        blk = frozenset(block)
        if not blk:
            raise ValueError("blocks must be nonempty")
        if blk & seen:
            raise ValueError(f"blocks overlap at {sorted(blk & seen)}")
        seen |= blk
        out.append(blk)
    if players is not None and seen != set(players):
        raise ValueError("blocks must cover exactly the player set")
    if not out:
        raise ValueError("a partition needs at least one block")
    return tuple(sorted(out, key=min))


def block_of(P: Partition, i: int) -> frozenset[int]:
    for block in P:
        if i in block:
            return block
    raise ValueError(f"player {i} is in no block")


def aumann_dreze(v: Game, P: Partition) -> Allocation:
    """Shapley payoffs computed inside each block's subgame."""
    payoffs: dict[int, float] = {}
    for block in P:
        payoffs.update(shapley(subgame(v, block)).as_dict())
    return Allocation.from_mapping(payoffs)


PARTITION = Structure("partition", lambda v, P: make_partition(P, v.players))
AUMANN_DREZE = Solution("aumann-dreze", aumann_dreze, reads=PARTITION)

PartitionBenchmark = Callable[[Game, Partition], Allocation]


def split_off(P: Partition, i: int) -> Partition:
    """Move player i into a block of their own."""
    home = block_of(P, i)
    blocks = [b for b in P if b is not home]
    rest = home - {i}
    if rest:
        blocks.append(rest)
    blocks.append(frozenset({i}))
    return make_partition(blocks)


def remove_player(v: Game, P: Partition, i: int) -> tuple[Game, Partition]:
    """Drop a player: subgame on the rest, block shrunk, empties removed."""
    if v.n < 2:
        raise ValueError("cannot remove the only player")
    home = block_of(P, i)
    rest = [p for p in v.players if p != i]
    blocks = [b for b in P if b is not home]
    if home - {i}:
        blocks.append(home - {i})
    return subgame(v, rest), make_partition(blocks, rest)


def extend_with_null(
    v: Game, P: Partition, block: Iterable[int], new_id: int | None = None
) -> tuple[Game, Partition, int]:
    """Adjoin a player who adds nothing, placed into the given block."""
    blk = frozenset(block)
    if blk not in set(P):
        raise ValueError(f"{tuple(sorted(blk))} is not a block")
    nid = max(v.players) + 1 if new_id is None else new_id
    if nid in v.players:
        raise ValueError(f"player {nid} already exists")
    players = tuple(sorted(v.players + (nid,)))
    at = players.index(nid)
    low = (1 << at) - 1
    worth = []
    for mask in range(1 << len(players)):
        old = (mask & low) | ((mask >> 1) & ~low)
        worth.append(v.worth[old])
    blocks = [b for b in P if b != blk]
    blocks.append(blk | {nid})
    return Game(players, tuple(worth)), make_partition(blocks, players), nid


def cycle_balance_residual(
    F: PartitionBenchmark,
    v: Game,
    P: Partition,
    block: Iterable[int],
    order: Sequence[int] | None = None,
) -> float:
    """Removal-cycle imbalance of F around a block, 0 when balanced.

    Sums each member's payoff after their cyclic successor is removed, minus
    the same with predecessors removed.  Single-member blocks are balanced
    by definition and skip evaluation.
    """
    blk = frozenset(block)
    if blk not in set(P):
        raise DomainViolation(f"{tuple(sorted(blk))} is not a block")
    cycle = tuple(order) if order is not None else tuple(sorted(blk))
    if set(cycle) != blk or len(cycle) != len(blk):
        raise ValueError("order must list each block member exactly once")
    k = len(cycle)
    if k == 1:
        return 0.0
    succ_terms = []
    pred_terms = []
    for l in range(k):
        keeper = cycle[l]
        after_succ = remove_player(v, P, cycle[(l + 1) % k])
        succ_terms.append(F(*after_succ)[keeper])
        after_pred = remove_player(v, P, cycle[(l - 1) % k])
        pred_terms.append(F(*after_pred)[keeper])
    return math.fsum(succ_terms) - math.fsum(pred_terms)


def solve_by_cycle_balance_induction(
    F: PartitionBenchmark,
    v: Game,
    P: Partition,
    tol: Tolerance = DEFAULT_TOL,
) -> Allocation:
    """Reconstruct the equal-surplus extension of F from removal cycles.

    Each block's payoff total equals its benchmark total plus a head-count
    share of the surplus.  Within a block, consecutive payoff gaps come from
    balanced removal cycles on the game extended with one null player: the
    unknown payoffs cancel around the cycle except for benchmark terms on
    the reduced games, with the null player's payoff as a common reference.
    The derived gaps must themselves sum to zero around the block; a drift
    beyond tolerance means the constraints are inconsistent.
    """
    part = make_partition(P, v.players)
    bench = F(v, part)
    surplus = v.grand - math.fsum(bench.values)
    payoffs: dict[int, float] = {}
    for blk in part:
        members = tuple(sorted(blk))
        k = len(members)
        block_total = (
            math.fsum(bench[i] for i in members) + k * surplus / v.n
        )
        if k == 1:
            payoffs[members[0]] = block_total
            continue
        w, wP, nid = extend_with_null(v, part, blk)
        red = {b: F(*remove_player(w, wP, b)) for b in members}
        gaps = []  # gaps[s] = payoff of members[s+1] minus payoff of members[s]
        for s in range(k):
            succ_terms = []
            for l in range(k):
                if l == s:
                    continue
                r = red[members[(l + 1) % k]]
                succ_terms.append(r[members[l]] - r[nid])
            pred_terms = []
            for l in range(k):
                if l == (s + 1) % k:
                    continue
                r = red[members[(l - 1) % k]]
                pred_terms.append(r[members[l]] - r[nid])
            gaps.append(math.fsum(succ_terms) - math.fsum(pred_terms))
        scale = max(
            [1.0] + [abs(x) for r in red.values() for x in r.values]
        )
        slack = 1000.0 * (tol.abs_eps + tol.rel_eps * scale)
        drift = math.fsum(gaps)
        if abs(drift) > slack:
            raise InconsistentSystem(
                f"block {members}: cycle gaps drift by {drift:g}"
            )
        rel = [0.0]
        for s in range(k - 1):
            rel.append(rel[-1] + gaps[s])
        shift = (block_total - math.fsum(rel)) / k
        for s, i in enumerate(members):
            payoffs[i] = rel[s] + shift
    return Allocation.from_mapping(payoffs)
