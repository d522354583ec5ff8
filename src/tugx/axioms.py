"""Machine checks for properties of solutions and operators.

A check runs one named property for one subject over a corpus of games and
returns a report with a verdict, the number of non-vacuous cases, and a
witness when something failed.  Hypothesis-carrying properties (the
invariance and operator families) are checked on constructed game or
benchmark pairs whose hypotheses hold bit-exactly; candidates whose
hypotheses fail to hold exactly are dropped, never stretched.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, Iterable, Iterator

from .coalition import (
    AUMANN_DREZE,
    Partition,
    PartitionSolution,
    ZERO_PARTITION,
    block_of,
    cycle_balance_residual,
    partition_ess_solution,
    split_off,
)
from .comm import (
    Graph,
    GraphSolution,
    MYERSON_SOLUTION,
    ZERO_GRAPH,
    all_graphs,
    components,
    freeze_graph_solution,
    graph_ess_solution,
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
    iter_set_partitions,
    permute_game,
    random_game,
    unanimity_game,
)
from .io import game_payload
from .operators import max_partition_value
from .solutions import (
    Allocation,
    EQUAL_DIVISION,
    SHAPLEY,
    STAND_ALONE,
    Solution,
    constant_solution,
)

EXACT = Tolerance(0.0, 0.0)

SUBJECT_KINDS = (
    "value",
    "graph",
    "partition",
    "operator",
    "graph-operator",
    "partition-operator",
)

DEFAULT_BENCHMARKS = (STAND_ALONE, EQUAL_DIVISION, SHAPLEY, constant_solution(1.5))
DEFAULT_GRAPH_BENCHMARKS = (MYERSON_SOLUTION, ZERO_GRAPH)
DEFAULT_PARTITION_BENCHMARKS = (AUMANN_DREZE, ZERO_PARTITION)


@dataclass(frozen=True)
class Subject:
    """What a check is about: a rule of some kind, with optional context."""

    kind: str
    target: Any
    benchmark: Any = None
    pool: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in SUBJECT_KINDS:
            raise ValueError(f"unknown subject kind {self.kind!r}")

    @property
    def name(self) -> str:
        return getattr(self.target, "name", str(self.target))


def value_subject(target: Solution, benchmark: Solution | None = None) -> Subject:
    return Subject("value", target, benchmark)


def graph_subject(target: GraphSolution, benchmark=None) -> Subject:
    return Subject("graph", target, benchmark)


def partition_subject(target: PartitionSolution, benchmark=None) -> Subject:
    return Subject("partition", target, benchmark)


def operator_subject(target, pool: tuple = DEFAULT_BENCHMARKS) -> Subject:
    return Subject("operator", target, pool=tuple(pool))


def graph_operator_subject(target, pool: tuple = DEFAULT_GRAPH_BENCHMARKS) -> Subject:
    return Subject("graph-operator", target, pool=tuple(pool))


def partition_operator_subject(
    target, pool: tuple = DEFAULT_PARTITION_BENCHMARKS
) -> Subject:
    return Subject("partition-operator", target, pool=tuple(pool))


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
        return {
            "axiom": self.axiom,
            "subject": self.subject,
            "verdict": self.verdict,
            "cases": self.cases,
            "witness": self.witness,
            "note": self.note,
        }


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
        graphs_per_game: int = 12,
        partitions_per_game: int = 15,
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
                graphs = [Graph(v.players, frozenset()), Graph(v.players, frozenset(pairs))]
                for _ in range(graphs_per_game):
                    chosen = [p for p in pairs if rng.random() < 0.5]
                    graphs.append(Graph(v.players, frozenset(chosen)))
            seen: set[frozenset] = set()
            for g in graphs:
                if g.links not in seen:
                    seen.add(g.links)
                    comm.append((v, g))
            parts = list(iter_set_partitions(v.players))
            if len(parts) > partitions_per_game:
                parts = rng.sample(parts, partitions_per_game)
            for P in parts:
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


def _try(thunk: Callable[[], Any]) -> tuple[bool, Any]:
    try:
        return True, thunk()
    except (DomainViolation, MissingStructure):
        return False, None


def _witness_game(v: Game, **extra: Any) -> dict:
    out: dict[str, Any] = {"game": game_payload(v)}
    out.update(extra)
    return out


def _note_for(cases: int, skipped: int, base: str = "") -> str:
    bits = [base] if base else []
    if cases == 0:
        bits.append("vacuous: no applicable cases")
    if skipped:
        bits.append(f"skipped {skipped} out-of-domain evaluations")
    return "; ".join(bits)


# ---------------------------------------------------------------------------
# generic evaluation streams


def _value_items(subject: Subject, corpus: Corpus):
    for v in corpus.games:
        yield (v,), {}


def _graph_items(subject: Subject, corpus: Corpus):
    for v, g in corpus.comm:
        yield (v, g), {"graph": [list(l) for l in g.sorted_links()]}


def _partition_items(subject: Subject, corpus: Corpus):
    for v, P in corpus.partitioned:
        yield (v, P), {"partition": [sorted(b) for b in P]}


_ITEMS = {
    "value": _value_items,
    "graph": _graph_items,
    "partition": _partition_items,
    "operator": _value_items,
    "graph-operator": _graph_items,
    "partition-operator": _partition_items,
}


def _is_operator_kind(kind: str) -> bool:
    return kind.endswith("operator")


def _evaluations(subject: Subject, corpus: Corpus) -> Iterator[tuple]:
    """Yield (thunk, args, context) for every evaluation the subject allows."""
    items = _ITEMS[subject.kind](subject, corpus)
    if _is_operator_kind(subject.kind):
        for args, ctx in items:
            for f in subject.pool:
                yield (
                    lambda args=args, f=f: subject.target(f, *args),
                    args,
                    dict(ctx, benchmark=getattr(f, "name", "?")),
                )
    else:
        for args, ctx in items:
            yield (lambda args=args: subject.target(*args)), args, ctx


# ---------------------------------------------------------------------------
# totals: efficiency flavors


def _check_total(subject, corpus, tol, axiom, target_of):
    cases = skipped = 0
    for thunk, args, ctx in _evaluations(subject, corpus):
        ok, out = _try(thunk)
        if not ok:
            skipped += 1
            continue
        v = args[0]
        want = target_of(v)
        got = out.total()
        cases += 1
        if not tol.eq(got, want):
            return AxiomReport(
                axiom,
                subject.name,
                "fail",
                cases,
                _witness_game(v, **ctx, total=got, required=want),
                _note_for(cases, skipped),
            )
    return AxiomReport(
        axiom, subject.name, "pass", cases, None, _note_for(cases, skipped)
    )


def _check_efficiency(subject, corpus, tol):
    return _check_total(subject, corpus, tol, "efficiency", lambda v: v.grand)


def _check_cohesive_efficiency(subject, corpus, tol):
    return _check_total(
        subject,
        corpus,
        tol,
        "cohesive-efficiency",
        lambda v: max_partition_value(v).value,
    )


# ---------------------------------------------------------------------------
# value axioms


def _rotation_fixing(players: tuple[int, ...], fixed: int | None) -> dict[int, int]:
    moving = [p for p in players if p != fixed]
    mapping = {p: moving[(k + 1) % len(moving)] for k, p in enumerate(moving)}
    if fixed is not None:
        mapping[fixed] = fixed
    return mapping


def _check_symmetry(subject, corpus, tol):
    phi = subject.target
    cases = skipped = 0
    for v in corpus.games:
        mapping = _rotation_fixing(v.players, None)
        w = permute_game(v, mapping)
        ok, pair = _try(lambda: (phi(v), phi(w)))
        if not ok:
            skipped += 1
            continue
        a, b = pair
        for i in v.players:
            cases += 1
            if not tol.eq(a[i], b[mapping[i]]):
                return AxiomReport(
                    "symmetry",
                    subject.name,
                    "fail",
                    cases,
                    _witness_game(v, player=i, image=mapping[i], lhs=a[i], rhs=b[mapping[i]]),
                    _note_for(cases, skipped),
                )
    return AxiomReport(
        "symmetry", subject.name, "pass", cases, None, _note_for(cases, skipped)
    )


def _check_equal_treatment(subject, corpus, tol):
    phi = subject.target
    cases = skipped = 0
    for v in corpus.games:
        pairs = [
            (i, j)
            for i, j in combinations(v.players, 2)
            if are_symmetric(v, i, j, EXACT)
        ]
        if not pairs:
            continue
        ok, out = _try(lambda: phi(v))
        if not ok:
            skipped += 1
            continue
        for i, j in pairs:
            cases += 1
            if not tol.eq(out[i], out[j]):
                return AxiomReport(
                    "equal-treatment",
                    subject.name,
                    "fail",
                    cases,
                    _witness_game(v, players=[i, j], lhs=out[i], rhs=out[j]),
                    _note_for(cases, skipped),
                )
    return AxiomReport(
        "equal-treatment", subject.name, "pass", cases, None, _note_for(cases, skipped)
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
    """
    partners = []
    if v.n >= 3:
        partners.append(permute_game(v, _rotation_fixing(v.players, i)))
    kind = getattr(f, "kind", "")
    others = [p for p in v.players if p != i]
    if kind == "stand-alone":
        if v.n >= 3:
            a, b = others[0], others[1]
            w = _edited_game(v, v.bit(a), -0.25)
            w = _edited_game(w, w.bit(b), 0.25)
            partners.append(_edited_game(w, w.mask_of((a, b)), 0.5))
        w = _edited_game(v, v.bit(others[0]), 0.5)
        partners.append(_edited_game(w, w.full_mask, 0.5))
    if kind in ("equal-division", "constant", "zero"):
        partners.append(_edited_game(v, v.bit(others[0]), 0.5))
    partners.append(_scaled_game(v))
    return partners


def _surplus_stats(f, v: Game) -> tuple[Allocation, float, float]:
    out = f(v)
    total = math.fsum(out.values)
    return out, total, v.grand - total


def _check_invariance(subject, corpus, tol, axiom, flavor):
    """Shared body of the four payoff-invariance checks.

    flavor: "surplus" | "ratio" | "cohesive-surplus" | "cohesive-ratio".
    """
    phi = subject.target
    f = subject.benchmark
    if f is None:
        raise IncompatibleSubject(f"{axiom} needs a benchmark on the subject")
    cases = skipped = 0
    cohesive = flavor.startswith("cohesive")
    ratio = flavor.endswith("ratio")
    for v in corpus.games:
        # The best-partition worth of v, computed on first use.
        best_v = None
        for i in v.players:
            for w in _invariance_partners(f, v, i):
                ok, stats = _try(lambda: (_surplus_stats(f, v), _surplus_stats(f, w)))
                if not ok:
                    skipped += 1
                    continue
                (fv, tv, sv), (fw, tw, sw) = stats
                if fv[i] != fw[i]:
                    continue
                gv, gw = v.grand, w.grand
                if cohesive:
                    if best_v is None:
                        best_v = max_partition_value(v).value
                    gv, gw = best_v, max_partition_value(w).value
                    sv, sw = gv - tv, gw - tw
                if ratio:
                    if tv != tw or gv != gw:
                        continue
                elif sv != sw:
                    continue
                ok, pair = _try(lambda: (phi(v)[i], phi(w)[i]))
                if not ok:
                    skipped += 1
                    continue
                cases += 1
                if not tol.eq(pair[0], pair[1]):
                    return AxiomReport(
                        axiom,
                        subject.name,
                        "fail",
                        cases,
                        _witness_game(
                            v, partner=game_payload(w), player=i, lhs=pair[0], rhs=pair[1]
                        ),
                        _note_for(cases, skipped),
                    )
    return AxiomReport(
        axiom, subject.name, "pass", cases, None, _note_for(cases, skipped)
    )


def _check_surplus_invariance(subject, corpus, tol):
    return _check_invariance(
        subject, corpus, tol, "equal-surplus-invariance", "surplus"
    )


def _check_ratio_invariance(subject, corpus, tol):
    return _check_invariance(subject, corpus, tol, "equal-ratio-invariance", "ratio")


def _check_cohesive_surplus_invariance(subject, corpus, tol):
    return _check_invariance(
        subject, corpus, tol, "equal-cohesive-surplus-invariance", "cohesive-surplus"
    )


def _check_cohesive_ratio_invariance(subject, corpus, tol):
    return _check_invariance(
        subject, corpus, tol, "equal-cohesive-ratio-invariance", "cohesive-ratio"
    )


# ---------------------------------------------------------------------------
# graph axioms


def _check_component_efficiency(subject, corpus, tol):
    phi = subject.target
    cases = skipped = 0
    for v, g in corpus.comm:
        ok, out = _try(lambda: phi(v, g))
        if not ok:
            skipped += 1
            continue
        for comp in components(g):
            cases += 1
            got = math.fsum(out[i] for i in sorted(comp))
            want = v.value(comp)
            if not tol.eq(got, want):
                return AxiomReport(
                    "component-efficiency",
                    subject.name,
                    "fail",
                    cases,
                    _witness_game(
                        v,
                        graph=[list(l) for l in g.sorted_links()],
                        component=sorted(comp),
                        total=got,
                        required=want,
                    ),
                    _note_for(cases, skipped),
                )
    return AxiomReport(
        "component-efficiency",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


def _link_fairness_body(subject, corpus, tol, axiom):
    phi = subject.target
    cases = skipped = 0
    for v, g in corpus.comm:
        for link in g.sorted_links():
            a, b = link
            ok, trio = _try(lambda: (phi(v, g), phi(v, g.without(link))))
            if not ok:
                skipped += 1
                continue
            full, cut = trio
            cases += 1
            da = full[a] - cut[a]
            db = full[b] - cut[b]
            if not tol.eq(da, db):
                return AxiomReport(
                    axiom,
                    subject.name,
                    "fail",
                    cases,
                    _witness_game(
                        v,
                        graph=[list(l) for l in g.sorted_links()],
                        link=list(link),
                        lhs=da,
                        rhs=db,
                    ),
                    _note_for(cases, skipped),
                )
    return AxiomReport(
        axiom, subject.name, "pass", cases, None, _note_for(cases, skipped)
    )


def _check_link_fairness(subject, corpus, tol):
    return _link_fairness_body(subject, corpus, tol, "link-fairness")


def _check_link_fairness_at_game(subject, corpus, tol):
    # same equations; the subject's domain is expected to pin the game,
    # with off-domain evaluations skipped rather than failed
    return _link_fairness_body(subject, corpus, tol, "link-fairness-at-game")


def _check_component_surplus_fairness(subject, corpus, tol):
    phi = subject.target
    cases = skipped = 0
    for v, g in corpus.comm:
        ok, out = _try(lambda: phi(v, g))
        if not ok:
            skipped += 1
            continue
        comps = components(g)
        surplus = v.grand - math.fsum(v.value(c) for c in comps)
        for comp in comps:
            cases += 1
            got = math.fsum(out[i] for i in sorted(comp))
            want = v.value(comp) + len(comp) * surplus / v.n
            if not tol.eq(got, want):
                return AxiomReport(
                    "component-surplus-fairness",
                    subject.name,
                    "fail",
                    cases,
                    _witness_game(
                        v,
                        graph=[list(l) for l in g.sorted_links()],
                        component=sorted(comp),
                        total=got,
                        required=want,
                    ),
                    _note_for(cases, skipped),
                )
    return AxiomReport(
        "component-surplus-fairness",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


def _check_relative_component_surplus_fairness(subject, corpus, tol):
    phi = subject.target
    F = subject.benchmark
    if F is None:
        raise IncompatibleSubject(
            "relative-component-surplus-fairness needs a benchmark on the subject"
        )
    cases = skipped = 0
    for v, g in corpus.comm:
        ok, pair = _try(lambda: (phi(v, g), F(v, g)))
        if not ok:
            skipped += 1
            continue
        out, bench = pair
        surplus = v.grand - math.fsum(bench.values)
        for comp in components(g):
            cases += 1
            got = math.fsum(out[i] for i in sorted(comp))
            want = (
                math.fsum(bench[i] for i in sorted(comp))
                + len(comp) * surplus / v.n
            )
            if not tol.eq(got, want):
                return AxiomReport(
                    "relative-component-surplus-fairness",
                    subject.name,
                    "fail",
                    cases,
                    _witness_game(
                        v,
                        graph=[list(l) for l in g.sorted_links()],
                        component=sorted(comp),
                        total=got,
                        required=want,
                    ),
                    _note_for(cases, skipped),
                )
    return AxiomReport(
        "relative-component-surplus-fairness",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


# ---------------------------------------------------------------------------
# partition axioms


def _check_split_off_balance(subject, corpus, tol):
    phi = subject.target
    cases = skipped = 0
    for v, P in corpus.partitioned:
        for block in P:
            if len(block) < 2:
                continue
            for i, j in combinations(sorted(block), 2):
                ok, outs = _try(
                    lambda: (
                        phi(v, P),
                        phi(v, split_off(P, j)),
                        phi(v, split_off(P, i)),
                    )
                )
                if not ok:
                    skipped += 1
                    continue
                base, no_j, no_i = outs
                cases += 1
                lhs = base[i] - no_j[i]
                rhs = base[j] - no_i[j]
                if not tol.eq(lhs, rhs):
                    return AxiomReport(
                        "split-off-balance",
                        subject.name,
                        "fail",
                        cases,
                        _witness_game(
                            v,
                            partition=[sorted(b) for b in P],
                            players=[i, j],
                            lhs=lhs,
                            rhs=rhs,
                        ),
                        _note_for(cases, skipped),
                    )
    return AxiomReport(
        "split-off-balance",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


def _cycle_orders(members: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct removal cycles: fix the first member, permute the rest."""
    from itertools import permutations

    first, rest = members[0], members[1:]
    for tail in permutations(rest):
        yield (first,) + tail


def _rbcc_body(subject, corpus, tol, axiom):
    phi = subject.target
    cases = skipped = 0
    for v, P in corpus.partitioned:
        for block in P:
            members = tuple(sorted(block))
            if len(members) < 2:
                continue
            for order in _cycle_orders(members):
                ok, resid = _try(
                    lambda: cycle_balance_residual(phi, v, P, block, order)
                )
                if not ok:
                    skipped += 1
                    continue
                cases += 1
                if not tol.eq(resid, 0.0):
                    return AxiomReport(
                        axiom,
                        subject.name,
                        "fail",
                        cases,
                        _witness_game(
                            v,
                            partition=[sorted(b) for b in P],
                            order=list(order),
                            residual=resid,
                        ),
                        _note_for(cases, skipped),
                    )
    return AxiomReport(
        axiom, subject.name, "pass", cases, None, _note_for(cases, skipped)
    )


def _check_cyclic_removal_balance(subject, corpus, tol):
    return _rbcc_body(subject, corpus, tol, "cyclic-removal-balance")


def _check_cyclic_removal_balance_at_game(subject, corpus, tol):
    # the subject's domain pins the game; off-domain removals are skipped
    return _rbcc_body(subject, corpus, tol, "cyclic-removal-balance-at-game")


def _check_null_player_gap(subject, corpus, tol):
    phi = subject.target
    F = subject.benchmark
    if F is None:
        raise IncompatibleSubject("null-player-gap needs a benchmark on the subject")
    cases = skipped = 0
    for v, P in corpus.partitioned:
        nulls = [j for j in v.players if is_null_player(v, j, EXACT)]
        if not nulls:
            continue
        ok, pair = _try(lambda: (phi(v, P), F(v, P)))
        if not ok:
            skipped += 1
            continue
        out, bench = pair
        for j in nulls:
            for a in sorted(block_of(P, j) - {j}):
                cases += 1
                lhs = out[a] - out[j]
                rhs = bench[a] - bench[j]
                if not tol.eq(lhs, rhs):
                    return AxiomReport(
                        "null-player-gap",
                        subject.name,
                        "fail",
                        cases,
                        _witness_game(
                            v,
                            partition=[sorted(b) for b in P],
                            null_player=j,
                            player=a,
                            lhs=lhs,
                            rhs=rhs,
                        ),
                        _note_for(cases, skipped),
                    )
    return AxiomReport(
        "null-player-gap",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


def _check_relative_block_surplus_fairness(subject, corpus, tol):
    phi = subject.target
    F = subject.benchmark
    if F is None:
        raise IncompatibleSubject(
            "relative-block-surplus-fairness needs a benchmark on the subject"
        )
    cases = skipped = 0
    for v, P in corpus.partitioned:
        ok, pair = _try(lambda: (phi(v, P), F(v, P)))
        if not ok:
            skipped += 1
            continue
        out, bench = pair
        surplus = v.grand - math.fsum(bench.values)
        for block in P:
            cases += 1
            members = sorted(block)
            got = math.fsum(out[i] for i in members)
            want = math.fsum(bench[i] for i in members) + len(block) * surplus / v.n
            if not tol.eq(got, want):
                return AxiomReport(
                    "relative-block-surplus-fairness",
                    subject.name,
                    "fail",
                    cases,
                    _witness_game(
                        v,
                        partition=[sorted(b) for b in P],
                        block=members,
                        total=got,
                        required=want,
                    ),
                    _note_for(cases, skipped),
                )
    return AxiomReport(
        "relative-block-surplus-fairness",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


# ---------------------------------------------------------------------------
# operator axioms


def _averaged_twin(f, a: int, b: int):
    def twin(*args):
        out = f(*args)
        vals = list(out.values)
        mid = (vals[a] + vals[b]) / 2.0
        vals[a] = mid
        vals[b] = mid
        return Allocation(out.players, tuple(vals))

    return twin


def _swapped_twin(f, a: int, b: int, only_at=None):
    def twin(*args):
        out = f(*args)
        if only_at is not None and args != only_at:
            return out
        vals = list(out.values)
        vals[a], vals[b] = vals[b], vals[a]
        return Allocation(out.players, tuple(vals))

    return twin


def _detached_twin(f, args0):
    """Copy of f at args0, shifted by a zero-sum offset everywhere else."""

    def twin(*args):
        out = f(*args)
        if args == args0:
            return out
        vals = list(out.values)
        vals[0] += 0.5
        vals[1] -= 0.5
        return Allocation(out.players, tuple(vals))

    return twin


def _op_require(subject):
    if not subject.pool:
        raise IncompatibleSubject("operator checks need a benchmark pool")


def _check_op_equal_treatment(subject, corpus, tol):
    _op_require(subject)
    op = subject.target
    cases = skipped = 0
    for args, ctx in _ITEMS[subject.kind](subject, corpus):
        v = args[0]
        for f in subject.pool:
            for a, b in combinations(range(v.n), 2):
                twin = _averaged_twin(f, a, b)
                ok, out = _try(lambda: op(twin, *args))
                if not ok:
                    skipped += 1
                    continue
                cases += 1
                if not tol.eq(out.values[a], out.values[b]):
                    return AxiomReport(
                        "operator-equal-treatment",
                        subject.name,
                        "fail",
                        cases,
                        _witness_game(
                            v,
                            **ctx,
                            benchmark=getattr(f, "name", "?"),
                            players=[v.players[a], v.players[b]],
                            lhs=out.values[a],
                            rhs=out.values[b],
                        ),
                        _note_for(cases, skipped),
                    )
    return AxiomReport(
        "operator-equal-treatment",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


def _check_op_equal_surplus(subject, corpus, tol):
    """Payoffs may depend on the benchmark only through the player's own
    benchmark payoff and the benchmark total at the input being played."""
    _op_require(subject)
    op = subject.target
    cases = skipped = 0

    def conclude(f1, f2, args, idx, detail):
        nonlocal cases, skipped
        ok, pair = _try(lambda: (op(f1, *args), op(f2, *args)))
        if not ok:
            skipped += 1
            return None
        cases += 1
        x, y = pair[0].values[idx], pair[1].values[idx]
        if tol.eq(x, y):
            return None
        v = args[0]
        return AxiomReport(
            "operator-equal-surplus",
            subject.name,
            "fail",
            cases,
            _witness_game(v, player=v.players[idx], lhs=x, rhs=y, **detail),
            _note_for(cases, skipped),
        )

    for args, ctx in _ITEMS[subject.kind](subject, corpus):
        v = args[0]
        # benchmark pairs from the pool that happen to agree here
        for f1, f2 in combinations(subject.pool, 2):
            ok, pair = _try(lambda: (f1(*args), f2(*args)))
            if not ok:
                skipped += 1
                continue
            o1, o2 = pair
            if math.fsum(o1.values) != math.fsum(o2.values):
                continue
            for idx in range(v.n):
                if o1.values[idx] != o2.values[idx]:
                    continue
                bad = conclude(
                    f1,
                    f2,
                    args,
                    idx,
                    dict(
                        ctx,
                        benchmarks=[getattr(f1, "name", "?"), getattr(f2, "name", "?")],
                    ),
                )
                if bad:
                    return bad
        for f in subject.pool:
            name = getattr(f, "name", "?")
            # identical at this input, offset everywhere else
            twin = _detached_twin(f, args)
            for idx in range(v.n):
                bad = conclude(
                    f, twin, args, idx, dict(ctx, benchmark=name, pair="detached")
                )
                if bad:
                    return bad
            # two other players' payoffs swapped at this input only
            if v.n >= 3:
                for idx in range(v.n):
                    rest = [k for k in range(v.n) if k != idx]
                    twin = _swapped_twin(f, rest[0], rest[1], only_at=args)
                    bad = conclude(
                        f, twin, args, idx, dict(ctx, benchmark=name, pair="swapped")
                    )
                    if bad:
                        return bad
    return AxiomReport(
        "operator-equal-surplus",
        subject.name,
        "pass",
        cases,
        None,
        _note_for(cases, skipped),
    )


def _check_op_weak_equal_surplus(subject, corpus, tol):
    """Like the strong form, but the agreement hypothesis must hold at every
    input, so only everywhere-swapped twins are valid constructed pairs."""
    _op_require(subject)
    op = subject.target
    cases = skipped = 0
    for args, ctx in _ITEMS[subject.kind](subject, corpus):
        v = args[0]
        if v.n < 3:
            continue
        for f in subject.pool:
            for idx in range(v.n):
                rest = [k for k in range(v.n) if k != idx]
                twin = _swapped_twin(f, rest[0], rest[1])
                ok, pair = _try(lambda: (op(f, *args), op(twin, *args)))
                if not ok:
                    skipped += 1
                    continue
                cases += 1
                x, y = pair[0].values[idx], pair[1].values[idx]
                if not tol.eq(x, y):
                    return AxiomReport(
                        "operator-weak-equal-surplus",
                        subject.name,
                        "fail",
                        cases,
                        _witness_game(
                            v,
                            **ctx,
                            benchmark=getattr(f, "name", "?"),
                            player=v.players[idx],
                            lhs=x,
                            rhs=y,
                        ),
                        _note_for(cases, skipped),
                    )
    note = _note_for(cases, skipped, "" if cases else "needs games with 3+ players")
    return AxiomReport(
        "operator-weak-equal-surplus", subject.name, "pass", cases, None, note
    )


# ---------------------------------------------------------------------------
# dispatch

_VALUE = ("value",)
_GRAPH = ("graph",)
_PART = ("partition",)
_OPS = ("operator", "graph-operator", "partition-operator")

_CHECKERS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "efficiency": (SUBJECT_KINDS, _check_efficiency),
    "cohesive-efficiency": (("value", "operator"), _check_cohesive_efficiency),
    "symmetry": (_VALUE, _check_symmetry),
    "equal-treatment": (_VALUE, _check_equal_treatment),
    "equal-surplus-invariance": (_VALUE, _check_surplus_invariance),
    "equal-ratio-invariance": (_VALUE, _check_ratio_invariance),
    "equal-cohesive-surplus-invariance": (_VALUE, _check_cohesive_surplus_invariance),
    "equal-cohesive-ratio-invariance": (_VALUE, _check_cohesive_ratio_invariance),
    "component-efficiency": (_GRAPH, _check_component_efficiency),
    "link-fairness": (_GRAPH, _check_link_fairness),
    "link-fairness-at-game": (_GRAPH, _check_link_fairness_at_game),
    "component-surplus-fairness": (_GRAPH, _check_component_surplus_fairness),
    "relative-component-surplus-fairness": (
        _GRAPH,
        _check_relative_component_surplus_fairness,
    ),
    "split-off-balance": (_PART, _check_split_off_balance),
    "cyclic-removal-balance": (_PART, _check_cyclic_removal_balance),
    "cyclic-removal-balance-at-game": (_PART, _check_cyclic_removal_balance_at_game),
    "null-player-gap": (_PART, _check_null_player_gap),
    "relative-block-surplus-fairness": (_PART, _check_relative_block_surplus_fairness),
    "operator-equal-treatment": (_OPS, _check_op_equal_treatment),
    "operator-equal-surplus": (_OPS, _check_op_equal_surplus),
    "operator-weak-equal-surplus": (_OPS, _check_op_weak_equal_surplus),
}

ALL_AXIOMS = tuple(sorted(_CHECKERS))


def check_axiom(
    axiom: str, subject: Subject, corpus: Corpus, tol: Tolerance = DEFAULT_TOL
) -> AxiomReport:
    """Run one named check; raises for unknown names or wrong subject kinds."""
    try:
        kinds, fn = _CHECKERS[axiom]
    except KeyError:
        raise UnknownName(f"unknown axiom {axiom!r}") from None
    if subject.kind not in kinds:
        raise IncompatibleSubject(
            f"{axiom} applies to {'/'.join(kinds)} subjects, not {subject.kind}"
        )
    return fn(subject, corpus, tol)


# ---------------------------------------------------------------------------
# theorem suites


def _link_subsets(links: frozenset) -> Iterator[frozenset]:
    items = sorted(links)
    for r in range(len(items) + 1):
        for chosen in combinations(items, r):
            yield frozenset(chosen)


def _fa_preservation_report(corpus: Corpus, tol: Tolerance) -> AxiomReport:
    """Freezing a fair benchmark at one game keeps its extension fair there,
    across the whole subgraph family of the frozen pair."""
    cases = 0
    eligible = [pair for pair in corpus.comm if 1 <= len(pair[1].links) <= 5]
    eligible.sort(key=lambda pair: -len(pair[1].links))
    for v, g in eligible[:4]:
        frozen = freeze_graph_solution(MYERSON_SOLUTION, v, g)
        ext = graph_ess_solution(frozen)
        for links in _link_subsets(g.links):
            level = Graph(v.players, links)
            for link in sorted(links):
                a, b = link
                full = ext(v, level)
                cut = ext(v, level.without(link))
                cases += 1
                if not tol.eq(full[a] - cut[a], full[b] - cut[b]):
                    return AxiomReport(
                        "link-fairness-at-game",
                        ext.name,
                        "fail",
                        cases,
                        _witness_game(
                            v,
                            graph=[list(l) for l in level.sorted_links()],
                            link=list(link),
                        ),
                    )
    return AxiomReport(
        "link-fairness-at-game",
        "graph-ess[frozen[myerson]]",
        "pass",
        cases,
        None,
        _note_for(cases, 0, "fairness preserved on subgraph families"),
    )


def _rbcc_preservation_report(
    corpus: Corpus, tol: Tolerance, benchmark: PartitionSolution = AUMANN_DREZE
) -> AxiomReport:
    """The extension's removal-cycle residual equals the benchmark's."""
    ext = partition_ess_solution(benchmark)
    cases = 0
    for v, P in corpus.partitioned:
        if v.n > 4:
            continue
        for block in P:
            members = tuple(sorted(block))
            if len(members) < 2:
                continue
            for order in _cycle_orders(members):
                r0 = cycle_balance_residual(benchmark, v, P, block, order)
                r1 = cycle_balance_residual(ext, v, P, block, order)
                cases += 1
                if not tol.eq(r1, r0):
                    return AxiomReport(
                        "cyclic-removal-balance-at-game",
                        ext.name,
                        "fail",
                        cases,
                        _witness_game(
                            v,
                            partition=[sorted(b) for b in P],
                            order=list(order),
                            lhs=r1,
                            rhs=r0,
                        ),
                    )
    return AxiomReport(
        "cyclic-removal-balance-at-game",
        ext.name,
        "pass",
        cases,
        None,
        _note_for(cases, 0, "residuals preserved under the extension"),
    )


THEOREM_SUITES = (
    "surplus-values",
    "surplus-operators",
    "network-extension",
    "network-operators",
    "partition-extension",
    "partition-operators",
    "cohesive-operators",
)


def check_theorem_suite(
    suite: str,
    corpus: Corpus,
    tol: Tolerance = DEFAULT_TOL,
    pool: tuple | None = None,
) -> tuple[AxiomReport, ...]:
    """Run the bundle of checks behind one characterization result.

    Only the axiom directions are machine-checked; uniqueness arguments rely
    on richness of the game space and are out of scope here.
    """
    from .coalition import EE_AUMANN_DREZE, PARTITION_ESS_OPERATOR
    from .comm import EE_MYERSON, GRAPH_ESS_OPERATOR
    from .operators import (
        COHESIVE_ESS_OPERATOR,
        COHESIVE_PS_OPERATOR,
        ESS_OPERATOR,
        PS_OPERATOR,
        wrap,
    )
    from .solutions import ESS_VALUE, PS_VALUE

    reports: list[AxiomReport] = []
    if suite == "surplus-values":
        for sol, inv in ((ESS_VALUE, "equal-surplus-invariance"), (PS_VALUE, "equal-ratio-invariance")):
            reports.append(check_axiom("efficiency", value_subject(sol), corpus, tol))
            reports.append(
                check_axiom("equal-treatment", value_subject(sol), corpus, tol)
            )
            reports.append(
                check_axiom(inv, value_subject(sol, benchmark=STAND_ALONE), corpus, tol)
            )
    elif suite == "surplus-operators":
        bench_pool = pool or DEFAULT_BENCHMARKS
        for op in (ESS_OPERATOR, PS_OPERATOR):
            sub = operator_subject(op, bench_pool)
            reports.append(check_axiom("efficiency", sub, corpus, tol))
            reports.append(check_axiom("operator-equal-treatment", sub, corpus, tol))
            reports.append(check_axiom("operator-equal-surplus", sub, corpus, tol))
    elif suite == "network-extension":
        sub = graph_subject(EE_MYERSON, benchmark=MYERSON_SOLUTION)
        reports.append(check_axiom("efficiency", sub, corpus, tol))
        reports.append(check_axiom("link-fairness", sub, corpus, tol))
        reports.append(
            check_axiom("relative-component-surplus-fairness", sub, corpus, tol)
        )
    elif suite == "network-operators":
        bench_pool = pool or DEFAULT_GRAPH_BENCHMARKS
        sub = graph_operator_subject(GRAPH_ESS_OPERATOR, bench_pool)
        reports.append(check_axiom("efficiency", sub, corpus, tol))
        reports.append(check_axiom("operator-equal-treatment", sub, corpus, tol))
        reports.append(check_axiom("operator-weak-equal-surplus", sub, corpus, tol))
        for F in bench_pool:
            reports.append(
                check_axiom(
                    "relative-component-surplus-fairness",
                    graph_subject(graph_ess_solution(F), benchmark=F),
                    corpus,
                    tol,
                )
            )
        reports.append(_fa_preservation_report(corpus, tol))
    elif suite == "partition-extension":
        sub = partition_subject(EE_AUMANN_DREZE, benchmark=AUMANN_DREZE)
        reports.append(check_axiom("efficiency", sub, corpus, tol))
        reports.append(check_axiom("cyclic-removal-balance", sub, corpus, tol))
        reports.append(check_axiom("null-player-gap", sub, corpus, tol))
        reports.append(
            check_axiom("relative-block-surplus-fairness", sub, corpus, tol)
        )
    elif suite == "partition-operators":
        bench_pool = pool or DEFAULT_PARTITION_BENCHMARKS
        sub = partition_operator_subject(PARTITION_ESS_OPERATOR, bench_pool)
        reports.append(check_axiom("efficiency", sub, corpus, tol))
        reports.append(check_axiom("operator-equal-treatment", sub, corpus, tol))
        reports.append(check_axiom("operator-weak-equal-surplus", sub, corpus, tol))
        for F in bench_pool:
            reports.append(
                check_axiom(
                    "relative-block-surplus-fairness",
                    partition_subject(partition_ess_solution(F), benchmark=F),
                    corpus,
                    tol,
                )
            )
        reports.append(_rbcc_preservation_report(corpus, tol))
    elif suite == "cohesive-operators":
        bench_pool = pool or DEFAULT_BENCHMARKS
        for op, inv in (
            (COHESIVE_ESS_OPERATOR, "equal-cohesive-surplus-invariance"),
            (COHESIVE_PS_OPERATOR, "equal-cohesive-ratio-invariance"),
        ):
            sub = operator_subject(op, bench_pool)
            reports.append(check_axiom("cohesive-efficiency", sub, corpus, tol))
            reports.append(check_axiom("operator-equal-treatment", sub, corpus, tol))
            reports.append(
                check_axiom(
                    inv,
                    value_subject(wrap(op, STAND_ALONE), benchmark=STAND_ALONE),
                    corpus,
                    tol,
                )
            )
    else:
        raise UnknownName(f"unknown theorem suite {suite!r}")
    return tuple(reports)
