"""Axiom reports pinned field by field against a committed fixture.

``fixtures/golden/axiom_reports.json`` maps each label below to the
``to_dict()`` of its report: every theorem suite on a general corpus and its
positive-singletons twin, every catalogue axiom on at least one subject, a
failing check in each subject family (so ``cases`` at the failure and the
witness are pinned), a vacuous check and checks with skipped evaluations.
The fixture lives in a subdirectory so that ``fixtures/*.json`` stays a
directory of game files.
"""

import json
import pathlib

import pytest

from tugx.axioms import (
    ALL_AXIOMS,
    Corpus,
    THEOREM_SUITES,
    check_axiom,
    check_theorem_suite,
    operator_subject,
    value_subject,
)
from tugx.coalition import AUMANN_DREZE
from tugx.comm import MYERSON_SOLUTION
from tugx.games import POSITIVE_SINGLETONS, Game
from tugx.operators import (
    COHESIVE_ESS_OPERATOR,
    COHESIVE_PS_OPERATOR,
    EE_AUMANN_DREZE,
    EE_MYERSON,
    ESS_OPERATOR,
    ESS_VALUE,
    GRAPH_ESS_OPERATOR,
    PARTITION_ESS_OPERATOR,
    PS_OPERATOR,
    PS_VALUE,
    named_operator,
    wrap,
)
from tugx.solutions import (
    EQUAL_DIVISION,
    LEAD_SINGLETON,
    SHAPLEY,
    STAND_ALONE,
    ZERO,
    freeze_solution,
)

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden" / "axiom_reports.json"


def golden_reports() -> dict[str, dict]:
    general = Corpus.build(sizes=(2, 3), per_size=4, seed=11)
    positive = Corpus.build(sizes=(2, 3), per_size=4, seed=11, profile=POSITIVE_SINGLETONS)
    # the four generated duos, without the example games Corpus.build appends
    duos = Corpus(Corpus.build(sizes=(2,), per_size=3, seed=4).games[:-3])
    examples = Corpus(general.games[-3:])
    out: dict[str, dict] = {}
    for label, corpus in (("general", general), ("positive", positive)):
        for suite in THEOREM_SUITES:
            for k, report in enumerate(check_theorem_suite(suite, corpus)):
                out[f"suite:{suite}:{label}:{k}"] = report.to_dict()

    v0, g0 = general.comm[-1]
    w0, P0 = general.partitioned[-1]
    anchor = Game.from_table([1, 2], {(1,): 1.0, (2,): 3.0, (1, 2): 0.0})
    anchored = named_operator("anchored-ess", anchor)
    cases = (
        # value family
        ("efficiency", value_subject(ESS_VALUE), general),
        ("efficiency", value_subject(SHAPLEY), general),
        ("cohesive-efficiency", value_subject(ESS_VALUE), general),
        ("cohesive-efficiency", value_subject(wrap(COHESIVE_ESS_OPERATOR, SHAPLEY)), general),
        ("cohesive-efficiency", value_subject(wrap(COHESIVE_PS_OPERATOR, SHAPLEY)), general),
        ("symmetry", value_subject(SHAPLEY), general),
        ("symmetry", value_subject(LEAD_SINGLETON), general),
        ("symmetry", value_subject(PS_VALUE), general),
        ("equal-treatment", value_subject(SHAPLEY), general),
        ("equal-treatment", value_subject(LEAD_SINGLETON), general),
        ("equal-surplus-invariance", value_subject(ESS_VALUE, STAND_ALONE), general),
        ("equal-surplus-invariance", value_subject(SHAPLEY, STAND_ALONE), general),
        ("equal-surplus-invariance", value_subject(wrap(ESS_OPERATOR, SHAPLEY), SHAPLEY), general),
        ("equal-ratio-invariance", value_subject(PS_VALUE, STAND_ALONE), positive),
        ("equal-ratio-invariance", value_subject(PS_VALUE, STAND_ALONE), general),
        ("equal-ratio-invariance", value_subject(ESS_VALUE, STAND_ALONE), positive),
        ("equal-cohesive-surplus-invariance", value_subject(SHAPLEY, STAND_ALONE), general),
        (
            "equal-cohesive-surplus-invariance",
            value_subject(wrap(COHESIVE_ESS_OPERATOR, EQUAL_DIVISION), EQUAL_DIVISION),
            general,
        ),
        ("equal-cohesive-ratio-invariance", value_subject(ESS_VALUE, STAND_ALONE), positive),
        # graph family
        ("efficiency", value_subject(MYERSON_SOLUTION), general),
        ("component-efficiency", value_subject(MYERSON_SOLUTION), general),
        ("component-efficiency", value_subject(EE_MYERSON), general),
        ("link-fairness", value_subject(EE_MYERSON), general),
        ("link-fairness", value_subject(wrap(GRAPH_ESS_OPERATOR, ZERO)), general),
        ("link-fairness-at-game", value_subject(EE_MYERSON), general),
        (
            "link-fairness-at-game",
            value_subject(wrap(GRAPH_ESS_OPERATOR, freeze_solution(MYERSON_SOLUTION, v0, g0))),
            general,
        ),
        ("component-surplus-fairness", value_subject(EE_MYERSON), general),
        ("component-surplus-fairness", value_subject(wrap(GRAPH_ESS_OPERATOR, ZERO)), general),
        ("relative-component-surplus-fairness", value_subject(EE_MYERSON, ZERO), general),
        # partition family
        ("efficiency", value_subject(AUMANN_DREZE), general),
        ("split-off-balance", value_subject(AUMANN_DREZE), general),
        ("split-off-balance", value_subject(EE_AUMANN_DREZE), general),
        ("cyclic-removal-balance", value_subject(AUMANN_DREZE), general),
        ("cyclic-removal-balance", value_subject(EE_AUMANN_DREZE), general),
        ("cyclic-removal-balance-at-game", value_subject(EE_AUMANN_DREZE), general),
        (
            "cyclic-removal-balance-at-game",
            value_subject(wrap(PARTITION_ESS_OPERATOR, freeze_solution(AUMANN_DREZE, w0, P0))),
            general,
        ),
        ("null-player-gap", value_subject(EE_AUMANN_DREZE, AUMANN_DREZE), general),
        ("null-player-gap", value_subject(EE_AUMANN_DREZE, ZERO), general),
        ("relative-block-surplus-fairness", value_subject(EE_AUMANN_DREZE, ZERO), general),
        # operator family
        ("efficiency", operator_subject(PS_OPERATOR), general),
        ("cohesive-efficiency", operator_subject(COHESIVE_ESS_OPERATOR), general),
        ("cohesive-efficiency", operator_subject(ESS_OPERATOR), general),
        ("cohesive-efficiency", operator_subject(COHESIVE_PS_OPERATOR), positive),
        ("operator-equal-treatment", operator_subject(PS_OPERATOR), general),
        ("operator-equal-treatment", operator_subject(GRAPH_ESS_OPERATOR), general),
        ("operator-equal-surplus", operator_subject(anchored), general),
        (
            "operator-equal-surplus",
            operator_subject(anchored, (STAND_ALONE, LEAD_SINGLETON)),
            examples,
        ),
        ("operator-equal-surplus", operator_subject(GRAPH_ESS_OPERATOR), general),
        ("operator-equal-surplus", operator_subject(PARTITION_ESS_OPERATOR), general),
        ("operator-weak-equal-surplus", operator_subject(ESS_OPERATOR), duos),
        ("operator-weak-equal-surplus", operator_subject(PS_OPERATOR), general),
        ("operator-weak-equal-surplus", operator_subject(anchored), general),
    )
    for k, (axiom, subject, corpus) in enumerate(cases):
        out[f"axiom:{k}:{axiom}:{subject.kind}:{subject.name}"] = check_axiom(
            axiom, subject, corpus
        ).to_dict()
    return out


@pytest.fixture(scope="module")
def reports():
    return json.loads(json.dumps(golden_reports()))


def test_reports_match_golden(reports):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(reports) == sorted(golden)
    for label, report in golden.items():
        assert reports[label] == report, label


def test_golden_covers_catalogue_families_and_edges(reports):
    checked = {r["axiom"] for r in reports.values()}
    assert checked == set(ALL_AXIOMS)
    failing_kinds = {
        label.split(":")[3] for label, r in reports.items()
        if label.startswith("axiom:") and r["verdict"] == "fail"
    }
    assert {"value", "graph", "partition", "operator"} <= failing_kinds
    assert any(r["cases"] == 0 and "vacuous" in r["note"] for r in reports.values())
    assert any("skipped" in r["note"] for r in reports.values())
