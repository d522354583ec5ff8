"""Kernel results reused within one axiom check: same reports, exact keys,
nothing kept outside a check or past the budget."""

import contextlib
import json
import logging
import re
from collections import Counter

import pytest

from tugx import memo
from tugx.axioms import Corpus, THEOREM_SUITES, check_axiom, check_theorem_suite, value_subject
from tugx.cli import main
from tugx.comm import Graph, all_graphs, complete_graph, restricted_game
from tugx.games import POSITIVE_SINGLETONS, Game, iter_set_partitions, subgame
from tugx.operators import best_partition_worth
from tugx.solutions import Solution, shapley


def _zero_twin(v: Game, mask: int) -> tuple[Game, Game]:
    """v with worth[mask] set to 0.0, and its twin with -0.0 there: equal
    games whose worth bytes differ."""
    plus, minus = list(v.worth), list(v.worth)
    plus[mask], minus[mask] = 0.0, -0.0
    return Game(v.players, tuple(plus)), Game(v.players, tuple(minus))


def _wide_corpus(wide_game) -> Corpus:
    games = []
    for n in (2, 3, 4):
        players = tuple(range(1, n + 1))
        for seed in range(2):
            games.extend(_zero_twin(wide_game(players, seed=10 * n + seed), 1))
    comm = []
    partitioned = []
    for v in games:
        graphs = all_graphs(v.players) if v.n <= 3 else (complete_graph(v.players),)
        comm.extend((v, g) for g in graphs)
        partitioned.extend((v, P) for P in list(iter_set_partitions(v.players))[:6])
    return Corpus(tuple(games), tuple(comm), tuple(partitioned))


def _all_suites(corpus: Corpus) -> list[str]:
    # json renders -0.0 and every float digit, so equal text is bit-equal
    return [
        json.dumps(report.to_dict())
        for suite in THEOREM_SUITES
        for report in check_theorem_suite(suite, corpus)
    ]


def _memo_off(monkeypatch) -> None:
    monkeypatch.setattr(memo, "scope", lambda label: contextlib.nullcontext())


@pytest.mark.parametrize("which", ["general", "positive", "wide"])
def test_suites_report_the_same_without_the_memo(which, wide_game, monkeypatch):
    corpus = {
        "general": lambda: Corpus.build(sizes=(2, 3), per_size=4, seed=11),
        "positive": lambda: Corpus.build(
            sizes=(2, 3), per_size=4, seed=11, profile=POSITIVE_SINGLETONS
        ),
        "wide": lambda: _wide_corpus(wide_game),
    }[which]()
    with_memo = _all_suites(corpus)
    _memo_off(monkeypatch)
    assert _all_suites(corpus) == with_memo


def test_equal_games_with_other_zero_signs_keep_their_own_results():
    v = Game.from_table([1, 2], {(1,): 2.0, (1, 2): 1.0})
    plus, minus = _zero_twin(v, 2)
    assert plus == minus
    g = Graph.from_pairs(v.players, [])
    fresh = [shapley(w) for w in (plus, minus)]
    with memo.scope("test"):
        for w, alone in zip((plus, minus), fresh):
            assert [x.hex() for x in shapley(w).values] == [x.hex() for x in alone.values]
            assert subgame(w, [2]).worth[1].hex() == w.worth[2].hex()
            restricted_game(w, g)
            best_partition_worth(w)
        kernels = ("shapley", "subgame", "restricted_game", "best_partition_worth")
        assert memo._memo.misses == Counter(dict.fromkeys(kernels, 2))
        assert not memo._memo.hits
        shapley(minus)
        assert memo._memo.hits == Counter(shapley=1)


def test_memo_is_dropped_when_a_check_returns_or_raises():
    corpus = Corpus.build(sizes=(2, 3), per_size=2, seed=1)
    held = []

    def probe(v):
        shapley(v)
        held.append(len(memo._memo.results))
        return shapley(v)

    def broken(v):
        shapley(v)
        raise RuntimeError("broken rule")

    report = check_axiom("efficiency", value_subject(Solution("probe", probe)), corpus)
    assert report.passed and min(held) > 0
    assert memo._memo is None
    with pytest.raises(RuntimeError):
        check_axiom("efficiency", value_subject(Solution("broken", broken)), corpus)
    assert memo._memo is None
    # a check inside an open scope leaves the outer memo in place
    with memo.scope("outer"):
        outer = memo._memo
        check_axiom("efficiency", value_subject(Solution("probe", probe)), corpus)
        assert memo._memo is outer and outer.results
    assert memo._memo is None


def test_plain_solve_stores_nothing(fixture_dir, monkeypatch, capsys):
    stored = []
    real_put = memo._Memo.put
    monkeypatch.setattr(
        memo._Memo, "put", lambda self, *a: stored.append(a) or real_put(self, *a)
    )
    trio = str(fixture_dir / "trio.json")
    for rule in ("shapley", "ee-myerson", "ee-aumann-dreze", "cohesive-ess[standalone]"):
        assert main(["solve", trio, "-s", rule]) == 0
        assert main(["solve", trio, "-s", rule]) == 0
    assert stored == [] and memo._memo is None
    assert main(["check", str(fixture_dir), "--suite", "partition-extension"]) == 0
    capsys.readouterr()
    assert stored and memo._memo is None


def test_memo_past_its_budget_is_emptied(monkeypatch, caplog):
    corpus = Corpus.build(sizes=(2, 3, 4, 5, 6), per_size=1, seed=1)
    suites = ("network-operators", "partition-extension")
    budget = 256
    monkeypatch.setattr(memo, "_BUDGET", budget)
    held = []
    real_put = memo._Memo.put

    def put(self, *args):
        real_put(self, *args)
        held.append(self.cells)

    monkeypatch.setattr(memo._Memo, "put", put)
    with caplog.at_level(logging.DEBUG, logger="tugx"):
        reports = [r.to_dict() for s in suites for r in check_theorem_suite(s, corpus)]
    assert held and max(held) <= budget
    clears = [int(m) for m in re.findall(r"(\d+) clears", caplog.text)]
    assert len(clears) == len(reports) and sum(clears) > 0
    _memo_off(monkeypatch)
    assert reports == [r.to_dict() for s in suites for r in check_theorem_suite(s, corpus)]


def test_tugx_logger_is_silent_until_asked(caplog):
    corpus = Corpus.build(sizes=(2, 3), per_size=1, seed=1)
    subject = value_subject(Solution("shapley-twice", lambda v: shapley(v) and shapley(v)))
    with caplog.at_level(logging.INFO, logger="tugx"):
        check_axiom("efficiency", subject, corpus)
    assert caplog.records == []
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("tugx").handlers)
    with caplog.at_level(logging.DEBUG, logger="tugx"):
        check_axiom("efficiency", subject, corpus)
    (record,) = caplog.records
    n = len(corpus.games)
    assert record.getMessage() == (
        f"memo of efficiency :: shapley-twice: shapley {n} hits/{n} misses, 0 clears"
    )
