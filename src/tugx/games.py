"""Core model for transferable-utility games on small player sets.

A game stores its sorted player ids plus a dense worth table with one entry
per coalition.  Coalitions are bitmasks over the player tuple: bit k set
means ``players[k]`` belongs to the coalition.  The dense layout caps games
at 16 players.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .memo import reuse

MAX_PLAYERS = 16

GENERAL = "general"
POSITIVE_SINGLETONS = "positive-singletons"
ZERO_NORMALIZED = "zero-normalized"
PROFILES = (GENERAL, POSITIVE_SINGLETONS, ZERO_NORMALIZED)

# Generated worths live on a grid of multiples of 1/64 so that sums,
# restrictions and relabelings of generated games stay exact in binary
# floating point.  Constructed test pairs rely on that exactness.
_GRID = 64


@dataclass(frozen=True)
class Tolerance:
    """Float comparison whose one epsilon bounds both the absolute and the
    relative error.  Numbers whose difference is not finite (an infinity or
    a nan among them) are never equal."""

    eps: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(
                f"tolerance must be finite and nonnegative, got {self.eps}"
            )

    def eq(self, a: float, b: float, scale: float = 0.0) -> bool:
        """Whether a and b agree; the relative bound scales with the larger
        of |a|, |b| and scale (the magnitude of what a sum summed)."""
        diff = abs(a - b)
        bound = self.eps + self.eps * max(abs(a), abs(b), scale)
        return diff < math.inf and diff <= bound


DEFAULT_TOL = Tolerance()


def total_of(values: Iterable[float], what: str) -> float:
    """``math.fsum`` of values.  A sum with no float value, of +inf and -inf
    or of finite values past the float range, is an OverflowError that
    names what was summed."""
    try:
        return math.fsum(values)
    except ValueError:
        raise OverflowError(f"{what} adds +inf to -inf") from None
    except OverflowError:
        raise OverflowError(f"{what} overflows") from None


def player_bits(players: Iterable[int]) -> tuple[tuple[int, ...], dict[int, int]]:
    """The sorted player ids and each one's coalition bit.  Duplicate ids and
    more than MAX_PLAYERS players are refused here, before a caller sizes a
    worth table by the player count."""
    ps = tuple(sorted(players))
    bits = {p: 1 << k for k, p in enumerate(ps)}
    if len(bits) != len(ps):
        raise ValueError("duplicate player ids")
    if len(ps) > MAX_PLAYERS:
        raise ValueError(f"at most {MAX_PLAYERS} players supported, got {len(ps)}")
    return ps, bits


@dataclass(frozen=True)
class Game:
    """A TU game: sorted player ids and ``worth[mask]`` per coalition."""

    players: tuple[int, ...]
    worth: tuple[float, ...]

    def __post_init__(self) -> None:
        ps = self.players
        if not ps:
            raise ValueError("player set must be nonempty")
        if len(ps) > MAX_PLAYERS:
            raise ValueError(f"at most {MAX_PLAYERS} players supported, got {len(ps)}")
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 0 for p in ps):
            raise ValueError("player ids must be nonnegative ints")
        if tuple(sorted(set(ps))) != ps:
            raise ValueError("players must be strictly increasing and distinct")
        if len(self.worth) != 1 << len(ps):
            raise ValueError(
                f"worth table needs {1 << len(ps)} entries, got {len(self.worth)}"
            )
        if self.worth[0] != 0.0:
            raise ValueError("the empty coalition must be worth exactly 0")
        if not all(map(math.isfinite, self.worth)):
            raise ValueError("coalition worths must be finite")

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def grand(self) -> float:
        """Worth of the coalition of all players."""
        return self.worth[-1]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.players)) - 1

    def bit(self, player: int) -> int:
        try:
            return 1 << self.players.index(player)
        except ValueError:
            raise ValueError(f"player {player} is not in the game") from None

    def mask_of(self, coalition: Iterable[int]) -> int:
        mask = 0
        for p in coalition:
            b = self.bit(p)
            if mask & b:
                raise ValueError(f"player {p} listed twice in coalition")
            mask |= b
        return mask

    def members(self, mask: int) -> tuple[int, ...]:
        return tuple(p for k, p in enumerate(self.players) if mask >> k & 1)

    def coalition(self, mask: int) -> frozenset[int]:
        return frozenset(self.members(mask))

    def value(self, coalition: Iterable[int]) -> float:
        return self.worth[self.mask_of(coalition)]

    def singleton_values(self) -> tuple[float, ...]:
        """Stand-alone worths, aligned with the player tuple."""
        return tuple(self.worth[1 << k] for k in range(self.n))

    def nonzero_table(self) -> list[tuple[tuple[int, ...], float]]:
        """Coalition/value pairs for every nonzero worth, in mask order."""
        return [
            (self.members(m), self.worth[m])
            for m in range(1, 1 << self.n)
            if self.worth[m] != 0.0
        ]

    @classmethod
    def from_table(
        cls, players: Iterable[int], table: Mapping[Iterable[int], float]
    ) -> "Game":
        """Build a game from explicit coalition worths; unlisted ones are 0."""
        ps, bits = player_bits(players)
        worth = [0.0] * (1 << len(ps))
        seen = set()
        for coalition, value in table.items():
            mask = 0
            for p in coalition:
                if p not in bits:
                    raise ValueError(f"coalition member {p} is not a player")
                b = bits[p]
                if mask & b:
                    raise ValueError(f"player {p} listed twice in coalition")
                mask |= b
            if mask in seen:
                raise ValueError(f"coalition {tuple(sorted(coalition))} listed twice")
            seen.add(mask)
            if mask == 0:
                if float(value) != 0.0:
                    raise ValueError("the empty coalition must be worth exactly 0")
                continue
            worth[mask] = float(value)
        return cls(ps, tuple(worth))


def are_symmetric(v: Game, i: int, j: int) -> bool:
    """True when i and j contribute equally to every coalition missing both."""
    bi, bj = v.bit(i), v.bit(j)
    if bi == bj:
        raise ValueError("players must differ")
    for mask in range(1 << v.n):
        if mask & (bi | bj):
            continue
        if v.worth[mask | bi] != v.worth[mask | bj]:
            return False
    return True


def is_null_player(v: Game, i: int) -> bool:
    """True when i adds nothing to any coalition."""
    b = v.bit(i)
    return all(
        v.worth[mask | b] == v.worth[mask]
        for mask in range(1 << v.n)
        if not mask & b
    )


def permute_game(v: Game, mapping: Mapping[int, int]) -> Game:
    """Relabel players by a bijection of the player set onto itself."""
    if sorted(mapping) != list(v.players):
        raise ValueError("mapping must be defined on exactly the player set")
    if sorted(mapping.values()) != list(v.players):
        raise ValueError("mapping must permute the player set")
    pos = {mapping[p]: k for k, p in enumerate(v.players)}
    return _relabel(v, v.players, [1 << pos[q] for q in v.players])


def subgame(v: Game, coalition: Iterable[int]) -> Game:
    """Restriction of the worth table to subsets of the given coalition."""
    keep = v.mask_of(coalition)
    if keep == 0:
        raise ValueError("a subgame needs a nonempty coalition")
    return _subgame(v, keep)


@reuse
def _subgame(v: Game, keep: int) -> Game:
    """The subgame on a nonempty coalition mask."""
    return _relabel(v, v.members(keep), [1 << k for k in range(v.n) if keep >> k & 1])


def _relabel(v: Game, players: tuple[int, ...], bits: Iterable[int]) -> Game:
    """The game on players whose bit k stands for v's bit ``bits[k]``, or
    for a player who adds nothing where that is 0.

    The parent mask of every coalition is built by doubling: for each new
    bit, in ascending order, the list so far is repeated with its source
    bit set, so entry t holds the parent mask that t's bits stand for.  The
    worths are gathered unchanged, signed zeros included.
    """
    idx = [0]
    for b in bits:
        idx += [m | b for m in idx]
    return Game(players, tuple(map(v.worth.__getitem__, idx)))


def unanimity_game(players: Iterable[int], carriers: Iterable[int]) -> Game:
    """Worth 1 for coalitions containing every carrier, else 0."""
    ps = tuple(sorted(players))
    pos = {p: k for k, p in enumerate(ps)}
    need = 0
    for c in set(carriers):
        if c not in pos:
            raise ValueError(f"carrier {c} is not a player")
        need |= 1 << pos[c]
    if need == 0:
        raise ValueError("carrier set must be nonempty")
    worth = tuple(
        1.0 if mask & need == need else 0.0 for mask in range(1 << len(ps))
    )
    return Game(ps, worth)


def random_game(players: Iterable[int], seed: int, profile: str = GENERAL) -> Game:
    """Seeded game with worths on the 1/64 grid; same arguments, same game.

    Profiles: ``general`` draws any sign, ``positive-singletons`` makes every
    coalition worth positive (so singleton totals and all subgame grand worths
    stay positive), ``zero-normalized`` pins singletons at exactly zero.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    ps = tuple(sorted(players))
    rng = random.Random(int(seed))
    worth = [0.0] * (1 << len(ps))
    for mask in range(1, 1 << len(ps)):
        size = mask.bit_count()
        if profile == POSITIVE_SINGLETONS:
            worth[mask] = rng.randrange(8, 129) * size / _GRID
        elif profile == ZERO_NORMALIZED and size == 1:
            worth[mask] = 0.0
        else:
            worth[mask] = rng.randrange(-256, 257) / _GRID
    return Game(ps, tuple(worth))


def iter_set_partitions(items: Iterable[int]) -> Iterator[tuple[frozenset[int], ...]]:
    """All partitions of the items, blocks ordered by smallest member."""
    seq = sorted(items)

    def rec(k: int, blocks: list[list[int]]):
        if k == len(seq):
            yield tuple(frozenset(b) for b in blocks)
            return
        x = seq[k]
        for b in blocks:
            b.append(x)
            yield from rec(k + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(k + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def sample_set_partitions(
    items: Iterable[int], k: int, rng: random.Random
) -> list[tuple[frozenset[int], ...]]:
    """``rng.sample(list(iter_set_partitions(items)), k)``, or every
    partition in that order when there are at most k, without listing them.

    iter_set_partitions yields restricted-growth strings in lexicographic
    order: item t joins one of the m blocks opened so far, in order, or
    opens block m.  ``ways[r][m]`` counts the ways to place r more items
    beside m blocks (only m + r <= n is ever read), so the partition at an
    index is read off digit by digit.  ``rng.sample`` draws the same numbers from a range as from a
    list of the same length, so the sample is the same.
    """
    seq = sorted(items)
    n = len(seq)
    ways = [[1] * (n + 2)]
    for r in range(1, n + 1):
        prev = ways[-1]
        ways.append([m * prev[m] + prev[m + 1] for m in range(n + 1)] + [0])
    total = ways[n][0]
    picks = range(total) if total <= k else rng.sample(range(total), k)
    out = []
    for index in picks:
        blocks: list[list[int]] = []
        for t, x in enumerate(seq):
            each = ways[n - t - 1][len(blocks)]
            if index < each * len(blocks):
                blocks[index // each].append(x)
                index %= each
            else:
                index -= each * len(blocks)
                blocks.append([x])
        out.append(tuple(frozenset(b) for b in blocks))
    return out
