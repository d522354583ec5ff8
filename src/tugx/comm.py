"""Games restricted by a communication graph.

Players can only cooperate along links: a coalition is worth the sum of its
connected parts.  Rules that read ``GRAPH`` take a game together with a
graph on the same players.  The induction solver reconstructs the
equal-surplus extension of a benchmark from link-removal equations alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import DomainViolation, InconsistentSystem
from .games import DEFAULT_TOL, Game, Tolerance
from .memo import reuse
from .solutions import Allocation, Solution, Structure, shapley

Link = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on a fixed player set; links stored as (low, high)."""

    players: tuple[int, ...]
    links: frozenset[Link]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.players))) != self.players or not self.players:
            raise ValueError("players must be nonempty, strictly increasing")
        ps = set(self.players)
        for link in self.links:
            a, b = link
            if a >= b:
                raise ValueError(f"link {link} must be ordered (low, high)")
            if a not in ps or b not in ps:
                raise ValueError(f"link {link} mentions a non-player")

    @classmethod
    def from_pairs(
        cls, players: Iterable[int], pairs: Iterable[tuple[int, int]]
    ) -> "Graph":
        links = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"self-link at player {a}")
            links.add((a, b) if a < b else (b, a))
        return cls(tuple(sorted(players)), frozenset(links))

    def without(self, link: tuple[int, int]) -> "Graph":
        a, b = link
        key = (a, b) if a < b else (b, a)
        if key not in self.links:
            raise ValueError(f"link {key} is not in the graph")
        return Graph(self.players, self.links - {key})

    def sorted_links(self) -> tuple[Link, ...]:
        return tuple(sorted(self.links))


def empty_graph(players: Iterable[int]) -> Graph:
    return Graph(tuple(sorted(players)), frozenset())


def complete_graph(players: Iterable[int]) -> Graph:
    ps = tuple(sorted(players))
    return Graph(ps, frozenset(combinations(ps, 2)))


def all_graphs(players: Iterable[int]) -> Iterator[Graph]:
    """Every graph on the player set, from empty to complete."""
    ps = tuple(sorted(players))
    pairs = list(combinations(ps, 2))
    for mask in range(1 << len(pairs)):
        yield Graph(
            ps, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        )


def _adjacency(g: Graph) -> list[int]:
    pos = {p: k for k, p in enumerate(g.players)}
    adj = [0] * len(g.players)
    for a, b in g.links:
        adj[pos[a]] |= 1 << pos[b]
        adj[pos[b]] |= 1 << pos[a]
    return adj


def _components_of_mask(adj: list[int], mask: int) -> list[int]:
    """Connected parts of the masked players, lowest bit first."""
    comps = []
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
        comps.append(comp)
        remaining &= ~comp
    return comps


def components(g: Graph, coalition: Iterable[int] | None = None) -> tuple[frozenset[int], ...]:
    """Connected parts of the coalition (all players by default)."""
    pos = {p: k for k, p in enumerate(g.players)}
    if coalition is None:
        mask = (1 << len(g.players)) - 1
    else:
        mask = 0
        for p in coalition:
            if p not in pos:
                raise ValueError(f"player {p} is not in the graph")
            mask |= 1 << pos[p]
    adj = _adjacency(g)
    out = []
    for comp in _components_of_mask(adj, mask):
        out.append(
            frozenset(p for k, p in enumerate(g.players) if comp >> k & 1)
        )
    return tuple(out)


@reuse
def restricted_game(v: Game, g: Graph) -> Game:
    """Each coalition earns the sum of its connected parts' worths.

    Coalitions are filled in ascending mask order as ``S = h | below``, with
    h the highest player of S.  The parts of S are the parts of ``below``
    that h does not touch, plus h joined with those it does.  ``rest_of[S]``
    is S minus the part holding h, so walking ``below, rest_of[below], ...``
    visits one part of ``below`` per step, and a mask is connected exactly
    when its ``rest_of`` is 0.

    The worth of S is ``math.fsum`` over its parts' worths, as if each part
    were found by a search of its own: a connected S keeps ``v(S)`` and two
    parts take one addition, which is what fsum returns for one or two terms
    (fsum turns -0.0 into 0.0, hence the ``+ 0.0``).  fsum is exact and
    order-independent, so every worth is bit-identical to summing the parts
    of each coalition found from scratch.  Only overflow differs: two parts
    then add to inf, which ``Game`` rejects, where fsum raises OverflowError.
    """
    if g.players != v.players:
        raise ValueError("graph and game must share the player set")
    vw = [x + 0.0 for x in v.worth]
    worth = vw[:]
    rest_of = [0] * len(vw)
    fsum = math.fsum
    for k, near in enumerate(_adjacency(g)):
        h = 1 << k
        for below in range(1, h):
            s = h | below
            if not rest_of[below]:
                # below is connected: S is too if h touches it
                if not below & near:
                    rest_of[s] = below
                    worth[s] = vw[below] + vw[h]
                continue
            joined = h
            parts = []
            r = below
            while r & near:
                nxt = rest_of[r]
                part = r ^ nxt
                if part & near:
                    joined |= part
                else:
                    parts.append(vw[part])
                r = nxt
            rest_of[s] = s ^ joined
            while r:
                nxt = rest_of[r]
                parts.append(vw[r ^ nxt])
                r = nxt
            if not parts:
                continue  # S is connected: worth[s] is already v(S)
            if len(parts) == 1:
                worth[s] = vw[joined] + parts[0]
            else:
                parts.append(vw[joined])
                worth[s] = fsum(parts)
    return Game(v.players, tuple(worth))


def myerson(v: Game, g: Graph) -> Allocation:
    """Shapley payoffs of the link-restricted game."""
    return shapley(restricted_game(v, g))


def _aligned_graph(v: Game, g: Graph) -> Graph:
    if g.players != v.players:
        raise ValueError("graph and game must share the player set")
    return g


GRAPH = Structure("graph", _aligned_graph)
MYERSON_SOLUTION = Solution("myerson", myerson, reads=GRAPH)

GraphBenchmark = Callable[[Game, Graph], Allocation]


def component_surplus_share(
    F: GraphBenchmark, v: Game, g: Graph, block: Iterable[int]
) -> float:
    """Benchmark total of a component plus its head-count surplus share."""
    blk = frozenset(block)
    if blk not in components(g):
        raise DomainViolation(f"{tuple(sorted(blk))} is not a component")
    out = F(v, g)
    surplus = v.grand - math.fsum(out.values)
    return math.fsum(out[i] for i in sorted(blk)) + len(blk) * surplus / v.n


def solve_by_fairness_induction(
    F: GraphBenchmark,
    v: Game,
    g: Graph,
    tol: Tolerance = DEFAULT_TOL,
    cache: dict[frozenset[Link], Allocation] | None = None,
) -> Allocation:
    """Reconstruct the equal-surplus extension of F from two constraints.

    Per graph level: each component's payoff total equals its benchmark
    total plus a head-count share of the surplus, and removing any link
    changes both endpoints' payoffs equally (which fixes payoff gaps from
    the already-solved smaller graph).  A gap equation that the solved
    payoffs fail to satisfy means the constraints are inconsistent for this
    benchmark.  Recursion visits every link subset once; capped at 12 links.

    Pass a dict as ``cache`` to share solved levels across calls with the
    same benchmark and game.
    """
    if g.players != v.players:
        raise ValueError("graph and game must share the player set")
    if len(g.links) > 12:
        raise ValueError("fairness induction is limited to 12 links")
    memo = cache if cache is not None else {}

    def solve(links: frozenset[Link]) -> Allocation:
        hit = memo.get(links)
        if hit is not None:
            return hit
        level = Graph(v.players, links)
        gaps: dict[Link, float] = {}
        for link in links:
            sub = solve(links - {link})
            gaps[link] = sub[link[0]] - sub[link[1]]
        bench = F(v, level)
        surplus = v.grand - math.fsum(bench.values)
        payoffs: dict[int, float] = {}
        for comp in components(level):
            block_total = (
                math.fsum(bench[i] for i in sorted(comp))
                + len(comp) * surplus / v.n
            )
            members = sorted(comp)
            rel = {members[0]: 0.0}
            frontier = [members[0]]
            while frontier:
                a = frontier.pop()
                for link in links:
                    if a not in link:
                        continue
                    b = link[1] if link[0] == a else link[0]
                    if b in rel:
                        continue
                    # gaps[link] is payoff(low) - payoff(high)
                    rel[b] = rel[a] - gaps[link] if a == link[0] else rel[a] + gaps[link]
                    frontier.append(b)
            shift = (block_total - math.fsum(rel[i] for i in members)) / len(comp)
            for i in members:
                payoffs[i] = rel[i] + shift
        scale = max(
            [1.0]
            + [abs(x) for x in payoffs.values()]
            + [abs(x) for x in gaps.values()]
        )
        slack = 1000.0 * (tol.abs_eps + tol.rel_eps * scale)
        for link, gap in gaps.items():
            if abs((payoffs[link[0]] - payoffs[link[1]]) - gap) > slack:
                raise InconsistentSystem(
                    f"link {link}: gap equations disagree beyond {slack:g}"
                )
        out = Allocation.from_mapping(payoffs)
        memo[links] = out
        return out

    return solve(g.links)
