"""Games played under a coalition structure.

A partition groups the players into disjoint blocks.  Rules that read
``PARTITION`` take a game together with a partition of its players.  A
block of k players has (k - 1)! removal cycles but only k removals, and
``removal_outcomes`` evaluates each once: the cyclic-removal-balance
check and the induction solver both take their terms from it, and
``cycle_sums`` any cycle's two sums.  ``aumann_dreze`` reuses its results
within an axiom check (see ``memo``).  The induction solver reconstructs
the equal-surplus extension of a benchmark from removal cycles on a
null-extended game plus block-sum constraints.  Its block arithmetic,
``settle_blocks`` and ``slack``, is shared with the fairness induction
solver of ``comm``.  What a block or component is owed, ``owed_totals``,
is written once: ``settle_blocks`` and the relative-surplus fairness
checks of ``axioms`` both take it from here.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InconsistentSystem
from .games import DEFAULT_TOL, Game, Tolerance, _relabel, subgame, total_of
from .memo import reuse
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


@reuse
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
    bits = [1 << k for k in range(v.n)]
    bits.insert(players.index(nid), 0)
    blocks = [b for b in P if b != blk]
    blocks.append(blk | {nid})
    return _relabel(v, players, bits), make_partition(blocks, players), nid


def removal_outcomes(
    F: PartitionBenchmark, v: Game, P: Partition, block: Iterable[int]
) -> dict[int, Allocation]:
    """F after each member of a block is removed, keyed by the removed
    member and evaluated in sorted member order: the k outcomes every
    removal cycle around the block takes its terms from."""
    return {j: F(*remove_player(v, P, j)) for j in sorted(block)}


def cycle_sums(
    payoffs: Mapping[int, Allocation | Mapping[int, float]], order: Sequence[int]
) -> tuple[float, float]:
    """The two sums of the removal cycle ``order``, where ``payoffs[j][i]``
    is i's payoff once j is removed, as in ``removal_outcomes``: each
    member's payoff after their cyclic successor is removed, and after
    their predecessor is."""
    cycle = tuple(order)
    succ = [payoffs[j][i] for i, j in zip(cycle, cycle[1:] + cycle[:1])]
    pred = [payoffs[j][i] for i, j in zip(cycle, cycle[-1:] + cycle[:-1])]
    return total_of(succ, "a removal cycle"), total_of(pred, "a removal cycle")


def slack(tol: Tolerance, values: Iterable[float]) -> float:
    """How far an induction solver's equations may miss: a thousand times
    the tolerance at the largest of 1 and the magnitudes of values."""
    return 1000.0 * (tol.abs_eps + tol.rel_eps * max([1.0, *map(abs, values)]))


def owed_totals(
    v: Game, bench: Allocation, parts: Iterable[Sequence[int]]
) -> Iterator[float]:
    """What each part is owed, part by part: the benchmark's total on the
    part's members, given sorted, plus a head-count share of the surplus of
    v(N) over the benchmark's total.  The surplus is summed at once, the
    parts as they are read."""
    surplus = v.grand - total_of(bench.values, "the benchmark total")
    return (
        total_of([bench[i] for i in part], "a part's benchmark total")
        + len(part) * surplus / v.n
        for part in parts
    )


def settle_blocks(
    v: Game,
    bench: Allocation,
    blocks: Iterable[Iterable[int]],
    relative: Callable[[list[int]], Sequence[float]],
) -> dict[int, float]:
    """Payoffs of an induction solver, block by block.

    Each block's payoff total is what ``owed_totals`` owes it.
    ``relative(members)`` gives the members' payoffs, in sorted order, up to
    one common shift; they are shifted equally to meet the block total.
    """
    parts = [sorted(blk) for blk in blocks]
    payoffs: dict[int, float] = {}
    for members, block_total in zip(parts, owed_totals(v, bench, parts)):
        k = len(members)
        rel = relative(members)
        shift = (block_total - total_of(rel, "a block's relative payoffs")) / k
        for i, r in zip(members, rel):
            payoffs[i] = r + shift
    return payoffs


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

    def relative(members: list[int]) -> list[float]:
        k = len(members)
        if k == 1:
            return [0.0]
        w, wP, nid = extend_with_null(v, part, members)
        red = removal_outcomes(F, w, wP, members)

        def terms(d: int) -> list[float]:
            # each member's payoff less the null player's, once the member
            # d places on around the block is removed
            outs = (red[members[(l + d) % k]] for l in range(k))
            return [out[i] - out[nid] for i, out in zip(members, outs)]

        def fsum_but(xs: list[float], j: int) -> float:
            return total_of(xs[:j] + xs[j + 1 :], "a cycle gap's terms")

        succ, pred = terms(1), terms(-1)
        # gaps[s] = payoff of members[s+1] minus payoff of members[s]
        gaps = [fsum_but(succ, s) - fsum_but(pred, (s + 1) % k) for s in range(k)]
        drift = total_of(gaps, "the cycle gaps")
        if abs(drift) > slack(tol, (x for r in red.values() for x in r.values)):
            raise InconsistentSystem(
                f"block {tuple(members)}: cycle gaps drift by {drift:g}"
            )
        return list(accumulate(gaps[:-1], initial=0.0))

    return Allocation.from_mapping(settle_blocks(v, F(v, part), part, relative))
