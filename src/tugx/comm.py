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

from .coalition import settle_blocks, slack
from .errors import InconsistentSystem
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


def components(g: Graph) -> tuple[frozenset[int], ...]:
    """Connected parts of the graph's player set, lowest player first."""
    adj = _adjacency(g)
    comps = []
    remaining = (1 << len(g.players)) - 1
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            grown = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grown |= adj[b.bit_length() - 1]
            frontier = grown & ~comp
            comp |= frontier
        comps.append(frozenset(p for k, p in enumerate(g.players) if comp >> k & 1))
        remaining &= ~comp
    return tuple(comps)


def _aligned_graph(v: Game, g: Graph) -> Graph:
    if g.players != v.players:
        raise ValueError("graph and game must share the player set")
    return g


@reuse
def restricted_game(v: Game, g: Graph) -> Game:
    """Each coalition earns the sum of its connected parts' worths.

    Coalitions are filled in ascending mask order as ``S = h | below``, with
    h the highest player of S.  ``rest_of[S]`` is S minus the part holding
    h, so ``below, rest_of[below], ...`` visits one part of ``below`` per
    step, and a mask is connected exactly when its ``rest_of`` is 0.  For
    each h, ``h_part[below]`` is h joined with the parts of ``below`` that
    touch h: with ``nxt = rest_of[below]`` and ``part = below ^ nxt``, it
    is ``h_part[nxt]``, joined with ``part`` if part touches h.  So the part
    of S holding h costs one lookup, and ``rest = S ^ h_part[below]``.

    The worth of S is the exact sum of its parts' worths, rounded once, as
    ``math.fsum`` over the parts of each coalition found from scratch gives
    it.  A connected S keeps ``v(S)``.  ``exact[S]`` says that ``worth[S]``
    is the exact sum of S's parts, as it is for a connected S.  When
    ``exact[rest]``, the sum is ``worth[h_part] + worth[rest]`` exactly, and
    one addition rounds it once, which is what fsum returns.  That addition
    is exact iff each operand comes back when the other is subtracted from
    the sum: for |x| >= |y|, ``(x + y) - x`` is computed exactly (Dekker's
    Fast2Sum).  Otherwise S takes fsum over its parts, in any order, and is
    not marked exact.  Grid games add exactly, so they never reach fsum.

    The worths pass through ``+ 0.0``: fsum turns -0.0 into 0.0, and a sum
    of two floats that are not both -0.0 is never -0.0.  On overflow an
    addition gives inf, which clears ``exact`` (inf minus a finite x is not
    y); parts are connected, so they keep finite worths, and ``Game``
    rejects the inf.  fsum raises instead, when some run of parts adds past
    the float range, and those parts make a coalition whose own sum
    overflows.  So this kernel overflows exactly when some coalition's
    exact sum does, as the search from scratch does, and both become one
    OverflowError.
    """
    _aligned_graph(v, g)
    worth = [x + 0.0 for x in v.worth]
    size = len(worth)
    rest_of = [0] * size
    h_part = [0] * (size >> 1)
    exact = bytearray(b"\x01") * size
    try:
        fsum = math.fsum
        for k, near in enumerate(_adjacency(g)):
            h = 1 << k
            alone = worth[h]
            for below, nxt in enumerate(rest_of[1:h], 1):
                s = h | below
                if not nxt:
                    # below is connected: S is too if h touches it
                    if below & near:
                        h_part[below] = s
                        continue
                    h_part[below] = h
                    rest_of[s] = below
                    y = worth[below]
                    t = alone + y
                    worth[s] = t
                    if t - alone != y or t - y != alone:
                        exact[s] = 0
                    continue
                part = below ^ nxt
                joined = h_part[nxt] | part if part & near else h_part[nxt]
                h_part[below] = joined
                if joined == s:
                    continue  # S is connected: worth[s] is already v(S)
                rest = s ^ joined
                rest_of[s] = rest
                x = worth[joined]
                if exact[rest]:
                    y = worth[rest]
                    t = x + y
                    worth[s] = t
                    if t - x != y or t - y != x:
                        exact[s] = 0
                else:
                    exact[s] = 0
                    parts = [x]
                    while rest:
                        nxt = rest_of[rest]
                        parts.append(worth[rest ^ nxt])
                        rest = nxt
                    worth[s] = fsum(parts)
        return Game(v.players, tuple(worth))
    except (ValueError, OverflowError):
        raise OverflowError("a restricted worth overflows") from None


def myerson(v: Game, g: Graph) -> Allocation:
    """Shapley payoffs of the link-restricted game."""
    return shapley(restricted_game(v, g))


GRAPH = Structure("graph", _aligned_graph)
MYERSON_SOLUTION = Solution("myerson", myerson, reads=GRAPH)

GraphBenchmark = Callable[[Game, Graph], Allocation]


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
    _aligned_graph(v, g)
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

        def relative(members: list[int]) -> list[float]:
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
            return [rel[i] for i in members]

        payoffs = settle_blocks(v, F(v, level), components(level), relative)
        bound = slack(tol, [*payoffs.values(), *gaps.values()])
        for link, gap in gaps.items():
            if abs((payoffs[link[0]] - payoffs[link[1]]) - gap) > bound:
                raise InconsistentSystem(
                    f"link {link}: gap equations disagree beyond {bound:g}"
                )
        out = Allocation.from_mapping(payoffs)
        memo[links] = out
        return out

    return solve(g.links)
