import math
import time
from collections import Counter

import pytest

from tugx import axioms, operators
from tugx.axioms import (
    ALL_AXIOMS,
    Corpus,
    Subject,
    THEOREM_SUITES,
    check_axiom,
    check_theorem_suite,
    graph_subject,
    operator_subject,
    partition_subject,
    value_subject,
)
from tugx.coalition import AUMANN_DREZE
from tugx.comm import MYERSON_SOLUTION
from tugx.errors import IncompatibleSubject, UnknownName
from tugx.games import POSITIVE_SINGLETONS, Game, Tolerance, is_null_player
from tugx.operators import (
    COHESIVE_ESS_OPERATOR,
    COHESIVE_PS_OPERATOR,
    EE_AUMANN_DREZE,
    EE_MYERSON,
    ESS_OPERATOR,
    ESS_VALUE,
    GRAPH_ESS_OPERATOR,
    Operator,
    PS_VALUE,
    max_partition_value,
    wrap,
)
from tugx.solutions import SHAPLEY, STAND_ALONE, ZERO, Allocation, Solution

EXACT = Tolerance(0.0, 0.0)


@pytest.fixture(scope="module")
def corpus():
    return Corpus.build(sizes=(2, 3), per_size=4, seed=11)


@pytest.fixture(scope="module")
def positive_corpus():
    return Corpus.build(sizes=(2, 3), per_size=4, seed=11, profile=POSITIVE_SINGLETONS)


def test_corpus_is_deterministic(corpus):
    again = Corpus.build(sizes=(2, 3), per_size=4, seed=11)
    assert again.games == corpus.games
    assert again.comm == corpus.comm
    assert again.partitioned == corpus.partitioned


def test_corpus_contains_exact_nulls_and_twins(corpus):
    nulls = [
        (v, j) for v in corpus.games for j in v.players if is_null_player(v, j, EXACT)
    ]
    assert nulls
    pos = Corpus.build(sizes=(3,), per_size=2, seed=1, profile=POSITIVE_SINGLETONS)
    assert all(min(v.singleton_values()) > 0.0 for v in pos.games)


def test_subject_validation():
    with pytest.raises(ValueError):
        Subject("weird", SHAPLEY)
    sub = value_subject(SHAPLEY)
    assert sub.name == "shapley"


def test_check_axiom_dispatch_errors(corpus):
    with pytest.raises(UnknownName):
        check_axiom("not-an-axiom", value_subject(SHAPLEY), corpus)
    with pytest.raises(IncompatibleSubject):
        check_axiom("link-fairness", value_subject(SHAPLEY), corpus)
    with pytest.raises(IncompatibleSubject):
        check_axiom(
            "equal-surplus-invariance", value_subject(ESS_VALUE), corpus
        )  # benchmark missing


def test_axiom_catalogue_is_stable():
    assert len(ALL_AXIOMS) == 21
    assert "efficiency" in ALL_AXIOMS
    assert "operator-weak-equal-surplus" in ALL_AXIOMS


def test_surplus_value_properties(corpus, positive_corpus):
    assert check_axiom("efficiency", value_subject(ESS_VALUE), corpus).passed
    sub = value_subject(ESS_VALUE, benchmark=STAND_ALONE)
    report = check_axiom("equal-surplus-invariance", sub, corpus)
    assert report.passed and report.cases > 0
    sub = value_subject(PS_VALUE, benchmark=STAND_ALONE)
    report = check_axiom("equal-ratio-invariance", sub, positive_corpus)
    assert report.passed and report.cases > 0


def test_shapley_is_not_surplus_invariant(corpus):
    sub = value_subject(SHAPLEY, benchmark=STAND_ALONE)
    report = check_axiom("equal-surplus-invariance", sub, corpus)
    assert not report.passed
    assert report.witness is not None
    assert "partner" in report.witness


def test_myerson_fails_plain_efficiency(corpus):
    report = check_axiom("efficiency", graph_subject(MYERSON_SOLUTION), corpus)
    assert not report.passed
    report = check_axiom(
        "component-efficiency", graph_subject(MYERSON_SOLUTION), corpus
    )
    assert report.passed


def _cancelling_game() -> Game:
    # the singleton worths cancel, so payoff totals round at the payoffs' scale
    return Game.from_table(
        [1, 2, 3], {(1,): 1e11, (2,): -1e11 + 0.3, (3,): 3.7e10, (1, 2, 3): 1.0}
    )


def test_efficiency_tolerance_scales_with_the_payoffs():
    v = _cancelling_game()
    assert ESS_VALUE(v).total() == 0.9999923706054688
    corpus = Corpus((v,))
    assert check_axiom("efficiency", value_subject(ESS_VALUE), corpus).passed
    report = check_axiom("efficiency", operator_subject(ESS_OPERATOR), corpus)
    assert report.passed and report.cases == 4


def test_efficiency_fails_a_miss_of_one_millionth_of_the_payoffs(corpus):
    def off(v):
        out = ESS_VALUE(v)
        miss = 1e-6 * math.fsum(map(abs, out.values))
        return Allocation(v.players, (out.values[0] + miss,) + out.values[1:])

    subject = value_subject(Solution("off", off))
    for games in ((_cancelling_game(),), corpus.games):
        report = check_axiom("efficiency", subject, Corpus(games))
        assert not report.passed and report.cases == 1


def test_absolute_vs_relative_component_fairness(corpus):
    # the benchmark-free share formula singles out the egalitarian extension
    # of the component-efficient rule; other benchmarks need the relative form
    ext = wrap(GRAPH_ESS_OPERATOR, ZERO)
    report = check_axiom("component-surplus-fairness", graph_subject(ext), corpus)
    assert not report.passed
    report = check_axiom(
        "component-surplus-fairness", graph_subject(EE_MYERSON), corpus
    )
    assert report.passed
    report = check_axiom(
        "relative-component-surplus-fairness",
        graph_subject(ext, benchmark=ZERO),
        corpus,
    )
    assert report.passed


def test_split_off_balance_separates_extensions(corpus):
    assert check_axiom(
        "split-off-balance", partition_subject(AUMANN_DREZE), corpus
    ).passed
    report = check_axiom(
        "split-off-balance", partition_subject(EE_AUMANN_DREZE), corpus
    )
    assert not report.passed


def test_operator_axioms(corpus):
    sub = operator_subject(ESS_OPERATOR)
    for axiom in (
        "efficiency",
        "operator-equal-treatment",
        "operator-equal-surplus",
        "operator-weak-equal-surplus",
    ):
        report = check_axiom(axiom, sub, corpus)
        assert report.passed and report.cases > 0, axiom


def test_weak_surplus_vacuous_on_two_players():
    corpus2 = Corpus.build(sizes=(2,), per_size=3, seed=4, include_examples=False)
    report = check_axiom(
        "operator-weak-equal-surplus", operator_subject(ESS_OPERATOR), corpus2
    )
    # with two players the hypothesis pins the whole benchmark, so there is
    # no nontrivial pair to test; the report says so instead of inventing one
    assert report.passed and report.cases == 0
    assert "vacuous" in report.note


def test_report_shape(corpus):
    report = check_axiom("efficiency", value_subject(ESS_VALUE), corpus)
    as_dict = report.to_dict()
    assert as_dict["axiom"] == "efficiency"
    assert as_dict["verdict"] == "pass"
    assert report.line().startswith("[PASS] efficiency :: ess")


def test_theorem_suites_pass(corpus, positive_corpus):
    for suite in THEOREM_SUITES:
        use = (
            positive_corpus
            if suite in ("surplus-operators", "cohesive-operators")
            else corpus
        )
        reports = check_theorem_suite(suite, use)
        assert reports
        for report in reports:
            assert report.passed, (suite, report.line())


def test_unknown_suite(corpus):
    with pytest.raises(UnknownName):
        check_theorem_suite("no-such-suite", corpus)


def test_suite_rows_call_check_axiom_at_call_time(monkeypatch):
    # the benchmark's tracer wraps axioms.check_axiom after import
    corpus = Corpus.build(sizes=(2,), per_size=1, seed=1)
    seen = []
    real = axioms.check_axiom
    monkeypatch.setattr(
        axioms, "check_axiom", lambda axiom, *a: seen.append(axiom) or real(axiom, *a)
    )
    for suite in THEOREM_SUITES:
        seen.clear()
        reports = check_theorem_suite(suite, corpus)
        assert seen == [r.axiom for r in reports if not r.axiom.endswith("-at-game")]


@pytest.mark.parametrize("op", [COHESIVE_ESS_OPERATOR, COHESIVE_PS_OPERATOR])
def test_cohesive_efficiency_finds_best_partition_once_per_game(op, monkeypatch):
    corpus = Corpus.build(sizes=(2, 3, 4, 5, 6), per_size=1, seed=1)
    calls, inside = [], []

    def counted(v):
        # the checker's calls count, not those of the operator's own target
        if not inside:
            calls.append(id(v))
        return max_partition_value(v)

    def marked(f, v, *structure):
        inside.append(v)
        try:
            return op(f, v, *structure)
        finally:
            inside.pop()

    monkeypatch.setattr(operators, "max_partition_value", counted)
    subject = operator_subject(Operator(op.name, marked))
    report = check_axiom("cohesive-efficiency", subject, corpus)
    assert report.passed and report.cases > 0
    assert calls and max(Counter(calls).values()) == 1


def test_corpus_samples_partitions_of_twelve_players_quickly():
    t0 = time.monotonic()
    corpus = Corpus.build(sizes=(12,), per_size=1)
    assert time.monotonic() - t0 < 1.0
    # the random game and the structured game, 15 partitions each
    assert sum(1 for v, _ in corpus.partitioned if v.n == 12) == 2 * 15
