"""Machine checks for properties of solutions and operators.

A check runs one named property for one subject over a corpus of games and
returns a report with a verdict, the number of non-vacuous cases, and a
witness when something failed.  Hypothesis-carrying properties (the
invariance and operator families) are checked on constructed game or
benchmark pairs whose hypotheses hold bit-exactly; candidates whose
hypotheses fail to hold exactly are dropped, never stretched.

Each property is a checker: a generator over ``(subject, corpus, tol,
**params)`` that yields three kinds of item.

* An evaluation: a zero-argument callable that runs the rules.  The driver
  calls it and sends back its result, or ``_SKIPPED`` when the call left a
  rule's domain (``DomainViolation`` or ``MissingStructure``); that counts
  as one skipped evaluation.
* ``None`` for a case that passed.
* A witness dict for a case that failed.  Checkers build it in the failing
  branch only, so a passing case never renders a game.

A checker may return a string saying why it can be vacuous; it heads the
note of a report with no cases.  The driver, ``_drive``, is the one place
that counts cases and skips, stops at the first failure, writes the note and
builds the ``AxiomReport``.  ``check_axiom`` finds a property in the
catalogue ``_CHECKERS`` as (subject kinds, checker, params), so the flavours
of one property share a checker.  While ``_drive`` runs, kernel results are
reused across evaluations, and across the checks of one theorem suite (see
``memo``).
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from itertools import combinations, permutations
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, Iterator, NamedTuple

from .coalition import (
    AUMANN_DREZE,
    PARTITION,
    Partition,
    block_of,
    cycle_sums,
    owed_totals,
    removal_outcomes,
    split_off,
)
from .comm import (
    GRAPH,
    MYERSON_SOLUTION,
    Graph,
    all_graphs,
    complete_graph,
    components,
    empty_graph,
)
from .errors import DomainViolation, IncompatibleSubject, MissingStructure, UnknownName
from .games import (
    DEFAULT_TOL,
    GENERAL,
    Game,
    POSITIVE_SINGLETONS,
    Tolerance,
    are_symmetric,
    is_null_player,
    permute_game,
    random_game,
    sample_set_partitions,
    total_of,
    unanimity_game,
)
from . import memo
from .io import game_payload
from .operators import (
    COHESIVE_ESS_OPERATOR,
    COHESIVE_PS_OPERATOR,
    EE_AUMANN_DREZE,
    EE_MYERSON,
    ESS_OPERATOR,
    ESS_VALUE,
    GRAPH_ESS_OPERATOR,
    Operator,
    PARTITION_ESS_OPERATOR,
    PS_OPERATOR,
    PS_VALUE,
    SUBJECT_KINDS,
    best_partition_worth,
    wrap,
)
from .solutions import (
    Allocation,
    EQUAL_DIVISION,
    GRAND_WORTH,
    NO_WORTHS,
    SHAPLEY,
    SINGLETON_WORTHS,
    STAND_ALONE,
    ZERO,
    Solution,
    Structure,
    constant_solution,
    freeze_solution,
)

EXACT = Tolerance(0.0, 0.0)

_KIND_OF = {shape: kind for kind, shape in SUBJECT_KINDS.items()}

# Benchmark pools of operator subjects, by the structure their inputs carry.
DEFAULT_POOLS = {
    None: (STAND_ALONE, EQUAL_DIVISION, SHAPLEY, constant_solution(1.5)),
    GRAPH: (MYERSON_SOLUTION, ZERO),
    PARTITION: (AUMANN_DREZE, ZERO),
}

# Corpus.build samples this many random graphs for each game of 4+ players
# (besides the empty and complete graphs), and keeps at most this many of
# each game's partitions.
GRAPHS_PER_GAME = 12
PARTITIONS_PER_GAME = 15


@dataclass(frozen=True)
class Subject:
    """What a check is about: a rule or an operator, the structure its
    inputs carry (None for plain games, GRAPH or PARTITION), and the
    benchmark or benchmark pool that relative and operator checks use.
    Without a pool, an operator gets DEFAULT_POOLS at its structure and a
    rule gets none.

    Every rule involved must read that structure or none.
    """

    target: Any
    structure: Structure | None = None
    benchmark: Solution | None = None
    pool: tuple | None = None

    def __post_init__(self) -> None:
        if self.structure not in (None, GRAPH, PARTITION):
            raise ValueError(f"unknown structure {self.structure!r}")
        default = DEFAULT_POOLS[self.structure] if self.is_operator else ()
        object.__setattr__(self, "pool", default if self.pool is None else tuple(self.pool))
        for rule in (self.target, self.benchmark, *self.pool):
            reads = getattr(rule, "reads", None)
            if reads not in (None, self.structure):
                where = self.structure.name if self.structure else "plain game"
                raise IncompatibleSubject(
                    f"{rule.name!r} reads a {reads.name}, the subject a {where}"
                )

    @property
    def name(self) -> str:
        return getattr(self.target, "name", str(self.target))

    @property
    def is_operator(self) -> bool:
        return isinstance(self.target, Operator)

    @property
    def kind(self) -> str:
        """The subject's name in SUBJECT_KINDS."""
        return _KIND_OF[(self.structure, self.is_operator)]


def value_subject(target: Solution, benchmark: Solution | None = None) -> Subject:
    """A rule, checked at the inputs it reads."""
    return Subject(target, target.reads, benchmark)


def operator_subject(target: Operator, pool: tuple | None = None) -> Subject:
    """An operator, checked over pool (its default pool if None) at the
    inputs it reads."""
    return Subject(target, target.reads, pool=pool)


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    subject: str
    verdict: str
    cases: int
    witness: dict | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        extra = f" [{self.note}]" if self.note else ""
        return f"[{tag}] {self.axiom} :: {self.subject} (cases={self.cases}){extra}"

    def to_dict(self) -> dict:
        return asdict(self)


def _example_games() -> tuple[Game, ...]:
    duo = Game.from_table([1, 2], {(1,): 2.0, (2,): 0.0, (1, 2): 6.0})
    trio = Game.from_table([1, 2, 3], {(1, 2): 1.0, (1, 2, 3): 3.0})
    halves = Game.from_table([1, 2], {(1,): 2.0, (2,): 2.0, (1, 2): 3.0})
    return duo, trio, halves


def _structured_game(players: tuple[int, ...], profile: str) -> Game:
    """Symmetric-pair game; outside the positive profile the non-carriers
    are exact null players."""
    carriers = players[:2]
    u = unanimity_game(players, carriers)
    worth = []
    for mask in range(1 << len(players)):
        if profile == POSITIVE_SINGLETONS:
            base = mask.bit_count() / 2.0
        else:
            base = (mask & 0b11).bit_count() / 2.0
        worth.append(base + u.worth[mask] if mask else 0.0)
    return Game(players, tuple(worth))


@dataclass(frozen=True)
class Corpus:
    """Games, and game/structure pairs, that checks quantify over."""

    games: tuple[Game, ...]
    comm: tuple[tuple[Game, Graph], ...] = ()
    partitioned: tuple[tuple[Game, Partition], ...] = ()

    @classmethod
    def build(
        cls,
        sizes: Iterable[int] = (2, 3, 4),
        per_size: int = 10,
        seed: int = 7,
        profile: str = GENERAL,
        include_examples: bool = True,
    ) -> "Corpus":
        rng = random.Random(int(seed))
        games: list[Game] = []
        for n in sizes:
            players = tuple(range(1, n + 1))
            for _ in range(per_size):
                games.append(
                    random_game(players, seed=rng.randrange(2**31), profile=profile)
                )
            if n >= 2:
                games.append(_structured_game(players, profile))
        if include_examples:
            for g in _example_games():
                if profile == POSITIVE_SINGLETONS and min(g.singleton_values()) <= 0:
                    continue
                games.append(g)
        comm: list[tuple[Game, Graph]] = []
        partitioned: list[tuple[Game, Partition]] = []
        for v in games:
            if v.n <= 3:
                graphs = list(all_graphs(v.players))
            else:
                pairs = list(combinations(v.players, 2))
                graphs = [empty_graph(v.players), complete_graph(v.players)]
                for _ in range(GRAPHS_PER_GAME):
                    chosen = [p for p in pairs if rng.random() < 0.5]
                    graphs.append(Graph(v.players, frozenset(chosen)))
            seen: set[frozenset] = set()
            for g in graphs:
                if g.links not in seen:
                    seen.add(g.links)
                    comm.append((v, g))
            for P in sample_set_partitions(v.players, PARTITIONS_PER_GAME, rng):
                partitioned.append((v, P))
        return cls(tuple(games), tuple(comm), tuple(partitioned))

    @classmethod
    def from_game_files(cls, files: Iterable[Any]) -> "Corpus":
        """Build from parsed game files; structures ride along when present."""
        files = list(files)
        return cls(
            tuple(f.game for f in files),
            tuple((f.game, f.graph) for f in files if f.graph is not None),
            tuple((f.game, f.partition) for f in files if f.partition is not None),
        )


# ---------------------------------------------------------------------------
# the driver and what checkers share

_Checker = Generator[Any, Any, "str | None"]

# Sent back for an evaluation that left a rule's domain.
_SKIPPED = object()


def _drive(axiom: str, subject: str, checker: _Checker, note: str = "") -> AxiomReport:
    """Run a checker to its end or to its first failure and report on it.

    ``note`` heads the note of a passing report; a string the checker
    returns takes its place when no case was tested.
    """
    cases = skipped = 0
    witness = None
    sent = None
    with memo.scope(f"{axiom} :: {subject}"):
        while True:
            try:
                item = checker.send(sent)
            except StopIteration as stop:
                if cases == 0 and stop.value:
                    note = stop.value
                break
            if callable(item):
                try:
                    sent = item()
                except (DomainViolation, MissingStructure):
                    skipped += 1
                    sent = _SKIPPED
            else:
                cases += 1
                if item is not None:
                    witness = item
                    break
    bits = [note] if note and witness is None else []
    if cases == 0:
        bits.append("vacuous: no applicable cases")
    if skipped:
        bits.append(f"skipped {skipped} out-of-domain evaluations")
    verdict = "pass" if witness is None else "fail"
    return AxiomReport(axiom, subject, verdict, cases, witness, "; ".join(bits))


def _witness(v: Game, structure: Graph | Partition | None = None, **extra: Any) -> dict:
    """A failure's witness: the game, its graph or partition, extra fields."""
    out: dict[str, Any] = {"game": game_payload(v)}
    if isinstance(structure, Graph):
        out["graph"] = [list(l) for l in structure.sorted_links()]
    elif structure is not None:
        out["partition"] = [sorted(b) for b in structure]
    out.update(extra)
    return out


def _game_items(corpus: Corpus) -> Iterator[tuple[Game]]:
    return ((v,) for v in corpus.games)


# The argument tuples a subject is evaluated at (after the benchmark, for
# operators), by the structure its inputs carry.
_ITEMS: dict[Structure | None, Callable[[Corpus], Iterable[tuple]]] = {
    None: _game_items,
    GRAPH: attrgetter("comm"),
    PARTITION: attrgetter("partitioned"),
}


def _name(f) -> str:
    return getattr(f, "name", "?")


# check_axiom puts the axiom's name in front of these two messages.
def _benchmark(subject: Subject):
    if subject.benchmark is None:
        raise IncompatibleSubject("needs a benchmark on the subject")
    return subject.benchmark


def _pool(subject: Subject) -> tuple:
    if not subject.pool:
        raise IncompatibleSubject("needs a benchmark pool")
    return subject.pool


def _scale(outs: Iterable[Allocation]) -> float:
    """The size of the rounding in payoffs from the allocations outs: the
    largest ``fsum(|x_i|)``, since payoffs that cancel leave rounding of
    their own size, not of the result's."""
    return max(total_of(map(abs, out.values), "a payoff size") for out in outs)


def _agree(tol: Tolerance, a: float, b: float, *outs: Allocation) -> bool:
    """Whether two sums or differences of payoffs agree, to within rounding
    of the payoffs they come from: the tolerance scales with ``_scale(outs)``."""
    return tol.eq(a, b, _scale(outs))


# ---------------------------------------------------------------------------
# totals: efficiency flavors


def _totals(subject, corpus, tol, target):
    """Payoff total against target(v) at every evaluation the subject allows:
    one per input for a rule, one per pool benchmark for an operator."""
    rule = subject.target
    pool = subject.pool if subject.is_operator else (None,)
    for args in _ITEMS[subject.structure](corpus):
        want = target(args[0])
        for f in pool:
            out = yield (lambda: rule(*args)) if f is None else (lambda: rule(f, *args))
            if out is _SKIPPED:
                continue
            got = out.total()
            extra = {} if f is None else {"benchmark": _name(f)}
            yield None if _agree(tol, got, want, out) else _witness(
                *args, **extra, total=got, required=want
            )


# ---------------------------------------------------------------------------
# value axioms


def _rotation_fixing(players: tuple[int, ...], fixed: int | None) -> dict[int, int]:
    moving = [p for p in players if p != fixed]
    mapping = {p: moving[(k + 1) % len(moving)] for k, p in enumerate(moving)}
    if fixed is not None:
        mapping[fixed] = fixed
    return mapping


def _symmetry(subject, corpus, tol):
    phi = subject.target
    for v in corpus.games:
        mapping = _rotation_fixing(v.players, None)
        w = permute_game(v, mapping)
        pair = yield lambda: (phi(v), phi(w))
        if pair is _SKIPPED:
            continue
        a, b = pair
        for i in v.players:
            j = mapping[i]
            yield None if tol.eq(a[i], b[j]) else _witness(
                v, player=i, image=j, lhs=a[i], rhs=b[j]
            )


def _equal_treatment(subject, corpus, tol):
    phi = subject.target
    for v in corpus.games:
        pairs = [
            (i, j)
            for i, j in combinations(v.players, 2)
            if are_symmetric(v, i, j, EXACT)
        ]
        if not pairs:
            continue
        out = yield lambda: phi(v)
        if out is _SKIPPED:
            continue
        for i, j in pairs:
            yield None if tol.eq(out[i], out[j]) else _witness(
                v, players=[i, j], lhs=out[i], rhs=out[j]
            )


def _scaled_game(v: Game) -> Game:
    return Game(v.players, tuple(x * 2.0 for x in v.worth))


def _edited_game(v: Game, mask: int, delta: float) -> Game:
    worth = list(v.worth)
    worth[mask] += delta
    return Game(v.players, tuple(worth))


def _invariance_partners(f, v: Game, i: int) -> list[Game]:
    """Candidate partner games for payoff-invariance checks at player i.

    Every candidate is screened against the exact hypothesis later, so this
    only needs to propose games likely to satisfy it for this benchmark.
    A one-player game has only the scaled partner, and a game with a worth
    that doubles past the float range has no scaled partner.
    """
    scaled = [_scaled_game(v)] if 2.0 * max(map(abs, v.worth)) < math.inf else []
    others = [p for p in v.players if p != i]
    if not others:
        return scaled
    partners = []
    if v.n >= 3:
        partners.append(permute_game(v, _rotation_fixing(v.players, i)))
    if f.worths == SINGLETON_WORTHS:
        if v.n >= 3:
            a, b = others[0], others[1]
            w = _edited_game(v, v.bit(a), -0.25)
            w = _edited_game(w, w.bit(b), 0.25)
            partners.append(_edited_game(w, w.mask_of((a, b)), 0.5))
        w = _edited_game(v, v.bit(others[0]), 0.5)
        partners.append(_edited_game(w, w.full_mask, 0.5))
    if f.worths in (GRAND_WORTH, NO_WORTHS):
        partners.append(_edited_game(v, v.bit(others[0]), 0.5))
    return partners + scaled


def _surplus_stats(f, v: Game) -> tuple[Allocation, float, float]:
    out = f(v)
    total = out.total()
    return out, total, v.grand - total


def _invariance(subject, corpus, tol, cohesive=False, ratio=False):
    """Player i's payoff is the same at v and at a partner game w when the
    benchmark pays i the same at both and the surplus over the benchmark is
    the same (ratio: the benchmark total and the target worth are).  The
    target is the grand worth, or the best partition worth when cohesive.
    """
    phi = subject.target
    f = _benchmark(subject)
    for v in corpus.games:
        for i in v.players:
            for w in _invariance_partners(f, v, i):
                stats = yield lambda: (_surplus_stats(f, v), _surplus_stats(f, w))
                if stats is _SKIPPED:
                    continue
                (fv, tv, sv), (fw, tw, sw) = stats
                if fv[i] != fw[i]:
                    continue
                gv, gw = v.grand, w.grand
                if cohesive:
                    gv, gw = best_partition_worth(v), best_partition_worth(w)
                    sv, sw = gv - tv, gw - tw
                if ratio:
                    if tv != tw or gv != gw:
                        continue
                elif sv != sw:
                    continue
                pair = yield lambda: (phi(v)[i], phi(w)[i])
                if pair is _SKIPPED:
                    continue
                a, b = pair
                yield None if tol.eq(a, b) else _witness(
                    v, partner=game_payload(w), player=i, lhs=a, rhs=b
                )


# ---------------------------------------------------------------------------
# graph and partition axioms


def _part_totals(subject, corpus, tol, share=None):
    """Payoff total of each component (graph) or block (partition) C against
    what C is owed: its worth v(C) when share is None; v(C) plus |C|/n of the
    surplus of v(N) over the components' worths when share is "worth"; the
    benchmark's total on C plus |C|/n of the surplus of v(N) over the
    benchmark's total, ``owed_totals``, when share is "benchmark".
    """
    phi = subject.target
    F = _benchmark(subject) if share == "benchmark" else None
    part = "component" if subject.structure is GRAPH else "block"
    for v, s in _ITEMS[subject.structure](corpus):
        pair = yield lambda: (phi(v, s), None if F is None else F(v, s))
        if pair is _SKIPPED:
            continue
        out, bench = pair
        outs = (out,) if bench is None else pair
        parts = [sorted(C) for C in (components(s) if part == "component" else s)]
        if bench is not None:
            owed = owed_totals(v, bench, parts)
        elif share is not None:
            surplus = v.grand - total_of(map(v.value, parts), "the parts' worth total")
        for members in parts:
            got = total_of((out[i] for i in members), "a part's payoff total")
            if bench is not None:
                want = next(owed)
            else:
                want = v.value(members)
                if share is not None:
                    want += len(members) * surplus / v.n
            yield None if _agree(tol, got, want, *outs) else _witness(
                v, s, **{part: members}, total=got, required=want
            )


def _link_fairness(subject, corpus, tol):
    phi = subject.target
    for v, g in corpus.comm:
        for link in g.sorted_links():
            a, b = link
            pair = yield lambda: (phi(v, g), phi(v, g.without(link)))
            if pair is _SKIPPED:
                continue
            full, cut = pair
            da = full[a] - cut[a]
            db = full[b] - cut[b]
            yield None if _agree(tol, da, db, full, cut) else _witness(
                v, g, link=list(link), lhs=da, rhs=db
            )


def _split_off_balance(subject, corpus, tol):
    phi = subject.target
    for v, P in corpus.partitioned:
        for block in P:
            for i, j in combinations(sorted(block), 2):
                outs = yield lambda: (
                    phi(v, P),
                    phi(v, split_off(P, j)),
                    phi(v, split_off(P, i)),
                )
                if outs is _SKIPPED:
                    continue
                base, no_j, no_i = outs
                lhs = base[i] - no_j[i]
                rhs = base[j] - no_i[j]
                yield None if _agree(tol, lhs, rhs, *outs) else _witness(
                    v, P, players=[i, j], lhs=lhs, rhs=rhs
                )


def _cycle_orders(block: frozenset[int]) -> Iterator[tuple[int, ...]]:
    """Distinct removal cycles of a block of two or more players: fix the
    lowest member, permute the rest."""
    first, *rest = sorted(block)
    if rest:
        for tail in permutations(rest):
            yield (first,) + tail


# The most removal cycles _cyclic_removal_balance runs for one block: 9!,
# the orders of a block of 10 members.  A block of 11 has ten times as many.
_MAX_CYCLE_ORDERS = math.factorial(9)


def _cyclic_removal_balance(subject, corpus, tol, axiom):
    """Every removal cycle of every block balances.  A block's cycles share
    its k removal outcomes, evaluated at its first order; while those leave
    the rule's domain, each order counts one skipped evaluation.  A corpus
    with a block of more than _MAX_CYCLE_ORDERS orders is refused before
    anything is evaluated."""
    for v, P in corpus.partitioned:
        for block in P:
            orders = math.factorial(len(block) - 1)
            if orders > _MAX_CYCLE_ORDERS:
                raise ValueError(
                    f"{axiom}: block {tuple(sorted(block))} has {orders:,} removal cycles; "
                    f"the check runs at most {_MAX_CYCLE_ORDERS:,} (blocks of up to 10 members)"
                )
    phi = subject.target
    for v, P in corpus.partitioned:
        for block in P:
            outcomes = _SKIPPED
            for order in _cycle_orders(block):
                if outcomes is _SKIPPED:
                    outcomes = yield lambda: removal_outcomes(phi, v, P, block)
                    if outcomes is _SKIPPED:
                        continue
                    scale = _scale(outcomes.values())
                    payoffs = {j: out.as_dict() for j, out in outcomes.items()}
                succ, pred = cycle_sums(payoffs, order)
                yield None if tol.eq(succ, pred, scale) else _witness(
                    v, P, order=list(order), residual=succ - pred
                )


def _null_player_gap(subject, corpus, tol):
    phi = subject.target
    F = _benchmark(subject)
    for v, P in corpus.partitioned:
        nulls = [j for j in v.players if is_null_player(v, j, EXACT)]
        if not nulls:
            continue
        pair = yield lambda: (phi(v, P), F(v, P))
        if pair is _SKIPPED:
            continue
        out, bench = pair
        for j in nulls:
            for a in sorted(block_of(P, j) - {j}):
                lhs = out[a] - out[j]
                rhs = bench[a] - bench[j]
                yield None if _agree(tol, lhs, rhs, out, bench) else _witness(
                    v, P, null_player=j, player=a, lhs=lhs, rhs=rhs
                )


# ---------------------------------------------------------------------------
# operator axioms


def _twin(f, edit, at=None, away=None):
    """f with ``edit`` applied to its payoffs: everywhere, only at the
    arguments ``at``, or everywhere but at the arguments ``away``.  ``edit``
    maps the payoff list to the new values of the positions it changes."""

    def twin(*args):
        out = f(*args)
        if (at is not None and args != at) or args == away:
            return out
        vals = list(out.values)
        for k, x in edit(vals).items():
            vals[k] = x
        return Allocation(out.players, tuple(vals))

    return twin


def _op_equal_treatment(subject, corpus, tol):
    op = subject.target
    pool = _pool(subject)
    for args in _ITEMS[subject.structure](corpus):
        v = args[0]
        for f in pool:
            for a, b in combinations(range(v.n), 2):
                twin = _twin(f, lambda x: dict.fromkeys((a, b), (x[a] + x[b]) / 2.0))
                out = yield lambda: op(twin, *args)
                if out is _SKIPPED:
                    continue
                x, y = out.values[a], out.values[b]
                yield None if tol.eq(x, y) else _witness(
                    *args,
                    benchmark=_name(f),
                    players=[v.players[a], v.players[b]],
                    lhs=x,
                    rhs=y,
                )


def _conclude(subject, tol, f1, f2, args, idx, **detail):
    """The operator must pay position idx the same under f1 and f2 at args."""
    op = subject.target
    pair = yield lambda: (op(f1, *args), op(f2, *args))
    if pair is _SKIPPED:
        return
    x, y = pair[0].values[idx], pair[1].values[idx]
    yield None if tol.eq(x, y) else _witness(
        *args, player=args[0].players[idx], lhs=x, rhs=y, **detail
    )


def _detached(x: list[float]) -> dict[int, float]:
    """A zero-sum offset of the first two payoffs; one payoff has none."""
    return {0: x[0] + 0.5, 1: x[1] - 0.5} if len(x) > 1 else {}


def _swap_two_others(idx: int, n: int):
    """The edit swapping the payoffs of the first two positions besides idx."""
    a, b = [k for k in range(n) if k != idx][:2]
    return lambda x: {a: x[b], b: x[a]}


def _op_equal_surplus(subject, corpus, tol):
    """Payoffs may depend on the benchmark only through the player's own
    benchmark payoff and the benchmark total at the input being played."""
    pool = _pool(subject)
    for args in _ITEMS[subject.structure](corpus):
        v = args[0]
        # benchmark pairs from the pool that happen to agree here
        for f1, f2 in combinations(pool, 2):
            pair = yield lambda: (f1(*args), f2(*args))
            if pair is _SKIPPED:
                continue
            o1, o2 = pair
            if o1.total() != o2.total():
                continue
            for idx in range(v.n):
                if o1.values[idx] == o2.values[idx]:
                    yield from _conclude(
                        subject, tol, f1, f2, args, idx, benchmarks=[_name(f1), _name(f2)]
                    )
        for f in pool:
            # identical at this input, offset everywhere else
            twin = _twin(f, _detached, away=args)
            for idx in range(v.n):
                yield from _conclude(
                    subject, tol, f, twin, args, idx, benchmark=_name(f), pair="detached"
                )
            # two other players' payoffs swapped at this input only
            if v.n >= 3:
                for idx in range(v.n):
                    twin = _twin(f, _swap_two_others(idx, v.n), at=args)
                    yield from _conclude(
                        subject, tol, f, twin, args, idx, benchmark=_name(f), pair="swapped"
                    )


def _op_weak_equal_surplus(subject, corpus, tol):
    """Like the strong form, but the agreement hypothesis must hold at every
    input, so only everywhere-swapped twins are valid constructed pairs."""
    pool = _pool(subject)
    for args in _ITEMS[subject.structure](corpus):
        v = args[0]
        if v.n < 3:
            continue
        for f in pool:
            for idx in range(v.n):
                twin = _twin(f, _swap_two_others(idx, v.n))
                yield from _conclude(subject, tol, f, twin, args, idx, benchmark=_name(f))
    return "needs games with 3+ players"


# ---------------------------------------------------------------------------
# dispatch

_VALUE, _GRAPH, _PART = ((_KIND_OF[s, False],) for s in (None, GRAPH, PARTITION))
_OPS = tuple(_KIND_OF[s, True] for s in (None, GRAPH, PARTITION))
_PLAIN = (*_VALUE, _KIND_OF[None, True])  # rules and operators on plain games

# The *-at-game forms share their base checks' equations: a subject whose
# domain pins the game is skipped, not failed, off that domain.
_CHECKERS: dict[str, tuple[tuple[str, ...], Callable[..., _Checker], dict]] = {
    "efficiency": (tuple(SUBJECT_KINDS), _totals, {"target": attrgetter("grand")}),
    "cohesive-efficiency": (_PLAIN, _totals, {"target": best_partition_worth}),
    "symmetry": (_VALUE, _symmetry, {}),
    "equal-treatment": (_VALUE, _equal_treatment, {}),
    "equal-surplus-invariance": (_VALUE, _invariance, {}),
    "equal-ratio-invariance": (_VALUE, _invariance, {"ratio": True}),
    "equal-cohesive-surplus-invariance": (_VALUE, _invariance, {"cohesive": True}),
    "equal-cohesive-ratio-invariance": (
        _VALUE,
        _invariance,
        {"cohesive": True, "ratio": True},
    ),
    "component-efficiency": (_GRAPH, _part_totals, {}),
    "link-fairness": (_GRAPH, _link_fairness, {}),
    "link-fairness-at-game": (_GRAPH, _link_fairness, {}),
    "component-surplus-fairness": (_GRAPH, _part_totals, {"share": "worth"}),
    "relative-component-surplus-fairness": (
        _GRAPH,
        _part_totals,
        {"share": "benchmark"},
    ),
    "split-off-balance": (_PART, _split_off_balance, {}),
    **{
        axiom: (_PART, _cyclic_removal_balance, {"axiom": axiom})
        for axiom in ("cyclic-removal-balance", "cyclic-removal-balance-at-game")
    },
    "null-player-gap": (_PART, _null_player_gap, {}),
    "relative-block-surplus-fairness": (_PART, _part_totals, {"share": "benchmark"}),
    "operator-equal-treatment": (_OPS, _op_equal_treatment, {}),
    "operator-equal-surplus": (_OPS, _op_equal_surplus, {}),
    "operator-weak-equal-surplus": (_OPS, _op_weak_equal_surplus, {}),
}

ALL_AXIOMS = tuple(sorted(_CHECKERS))


def check_axiom(
    axiom: str, subject: Subject, corpus: Corpus, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Run one named check; raises for unknown names or wrong subject kinds."""
    try:
        kinds, checker, params = _CHECKERS[axiom]
    except KeyError:
        raise UnknownName(f"unknown axiom {axiom!r}") from None
    if subject.kind not in kinds:
        raise IncompatibleSubject(
            f"{axiom} applies to {'/'.join(kinds)} subjects, not {subject.kind}"
        )
    try:
        return _drive(axiom, subject.name, checker(subject, corpus, tol, **params))
    except IncompatibleSubject as exc:
        raise IncompatibleSubject(f"{axiom} {exc}") from None


# ---------------------------------------------------------------------------
# theorem suites


def _link_subsets(links: frozenset) -> Iterator[frozenset]:
    items = sorted(links)
    for r in range(len(items) + 1):
        for chosen in combinations(items, r):
            yield frozenset(chosen)


def _fa_preservation(corpus: Corpus, tol: Tolerance) -> _Checker:
    """Freezing a fair benchmark at one game keeps its extension fair there,
    across the whole subgraph family of the frozen pair."""
    eligible = [pair for pair in corpus.comm if 1 <= len(pair[1].links) <= 5]
    eligible.sort(key=lambda pair: -len(pair[1].links))
    for v, g in eligible[:4]:
        ext = wrap(GRAPH_ESS_OPERATOR, freeze_solution(MYERSON_SOLUTION, v, g))
        family = tuple((v, Graph(v.players, links)) for links in _link_subsets(g.links))
        yield from _link_fairness(value_subject(ext), Corpus((), family), tol)


_AD_EXTENSION = wrap(PARTITION_ESS_OPERATOR, AUMANN_DREZE)


def _rbcc_preservation(corpus: Corpus, tol: Tolerance) -> _Checker:
    """The partition extension's removal-cycle residual equals Aumann-Dreze's."""
    for v, P in corpus.partitioned:
        if v.n > 4:
            continue
        for block in P:
            if len(block) < 2:
                continue
            ad = removal_outcomes(AUMANN_DREZE, v, P, block)
            ext = removal_outcomes(_AD_EXTENSION, v, P, block)
            scale = _scale([*ad.values(), *ext.values()])
            for order in _cycle_orders(block):
                s0, p0 = cycle_sums(ad, order)
                s1, p1 = cycle_sums(ext, order)
                r0, r1 = s0 - p0, s1 - p1
                yield None if tol.eq(r1, r0, scale) else _witness(
                    v, P, order=list(order), lhs=r1, rhs=r0
                )


class _Preserved(NamedTuple):
    """A suite row that drives a checker of its own over (corpus, tol)."""

    axiom: str
    subject: str
    checker: Callable[[Corpus, Tolerance], _Checker]
    note: str


def _relative_rows(op: Operator, axiom: str) -> tuple:
    """The relative check of op's extension of each default benchmark."""
    return tuple((value_subject(wrap(op, F), F), (axiom,)) for F in DEFAULT_POOLS[op.reads])


_VALUE_AXIOMS = ("efficiency", "equal-treatment")
_OPERATOR_AXIOMS = ("efficiency", "operator-equal-treatment")
_COHESIVE_AXIOMS = ("cohesive-efficiency", "operator-equal-treatment")

# Each suite's rows in report order: (subject, axioms) checks the axioms on
# the subject in turn; a _Preserved row drives its own checker.
_SUITES: dict[str, tuple] = {
    "surplus-values": (
        (value_subject(ESS_VALUE, STAND_ALONE), (*_VALUE_AXIOMS, "equal-surplus-invariance")),
        (value_subject(PS_VALUE, STAND_ALONE), (*_VALUE_AXIOMS, "equal-ratio-invariance")),
    ),
    "surplus-operators": tuple(
        (operator_subject(op), (*_OPERATOR_AXIOMS, "operator-equal-surplus"))
        for op in (ESS_OPERATOR, PS_OPERATOR)
    ),
    "network-extension": (
        (
            value_subject(EE_MYERSON, MYERSON_SOLUTION),
            ("efficiency", "link-fairness", "relative-component-surplus-fairness"),
        ),
    ),
    "network-operators": (
        (
            operator_subject(GRAPH_ESS_OPERATOR),
            (*_OPERATOR_AXIOMS, "operator-weak-equal-surplus"),
        ),
        *_relative_rows(GRAPH_ESS_OPERATOR, "relative-component-surplus-fairness"),
        _Preserved(
            "link-fairness-at-game",
            "graph-ess[frozen[myerson]]",
            _fa_preservation,
            "fairness preserved on subgraph families",
        ),
    ),
    "partition-extension": (
        (
            value_subject(EE_AUMANN_DREZE, AUMANN_DREZE),
            (
                "efficiency",
                "cyclic-removal-balance",
                "null-player-gap",
                "relative-block-surplus-fairness",
            ),
        ),
    ),
    "partition-operators": (
        (
            operator_subject(PARTITION_ESS_OPERATOR),
            (*_OPERATOR_AXIOMS, "operator-weak-equal-surplus"),
        ),
        *_relative_rows(PARTITION_ESS_OPERATOR, "relative-block-surplus-fairness"),
        _Preserved(
            "cyclic-removal-balance-at-game",
            _AD_EXTENSION.name,
            _rbcc_preservation,
            "residuals preserved under the extension",
        ),
    ),
    "cohesive-operators": (
        (operator_subject(COHESIVE_ESS_OPERATOR), _COHESIVE_AXIOMS),
        (
            value_subject(wrap(COHESIVE_ESS_OPERATOR, STAND_ALONE), STAND_ALONE),
            ("equal-cohesive-surplus-invariance",),
        ),
        (operator_subject(COHESIVE_PS_OPERATOR), _COHESIVE_AXIOMS),
        (
            value_subject(wrap(COHESIVE_PS_OPERATOR, STAND_ALONE), STAND_ALONE),
            ("equal-cohesive-ratio-invariance",),
        ),
    ),
}

THEOREM_SUITES = tuple(_SUITES)


def check_theorem_suite(
    suite: str, corpus: Corpus, tol: Tolerance = DEFAULT_TOL
) -> tuple[AxiomReport, ...]:
    """Run the bundle of checks behind one characterization result.

    Only the axiom directions are machine-checked; uniqueness arguments rely
    on richness of the game space and are out of scope here.
    """
    try:
        rows = _SUITES[suite]
    except KeyError:
        raise UnknownName(f"unknown theorem suite {suite!r}") from None
    reports: list[AxiomReport] = []
    # the rows evaluate the same values on the same corpus: one memo for all
    with memo.scope(f"suite {suite}"):
        for row in rows:
            if isinstance(row, _Preserved):
                checker = row.checker(corpus, tol)
                reports.append(_drive(row.axiom, row.subject, checker, row.note))
            else:
                subject, axioms = row
                reports.extend(check_axiom(a, subject, corpus, tol) for a in axioms)
    return tuple(reports)
