"""End-to-end acceptance checks.

Each test covers one delivery criterion, pins its tolerance and budget, and
prints one summary line.  Frozen numbers were computed by hand from the
closed forms (weights, telescoping sums) independently of the library code.
"""

import json
import math
import time

import pytest

from tugx.axioms import Corpus, check_axiom, operator_subject, value_subject, partition_subject
from tugx.cli import main
from tugx.coalition import (
    AUMANN_DREZE,
    aumann_dreze,
    cycle_balance_residual,
    make_partition,
    solve_by_cycle_balance_induction,
)
from tugx.comm import (
    MYERSON_SOLUTION,
    Graph,
    all_graphs,
    component_surplus_share,
    components,
    myerson,
    solve_by_fairness_induction,
)
from tugx.games import (
    GENERAL,
    POSITIVE_SINGLETONS,
    Game,
    Tolerance,
    iter_set_partitions,
    random_game,
)
from tugx.operators import (
    COHESIVE_ESS_OPERATOR,
    COHESIVE_PS_OPERATOR,
    EE_AUMANN_DREZE,
    EE_MYERSON,
    ESS_OPERATOR,
    GRAPH_ESS_OPERATOR,
    PARTITION_ESS_OPERATOR,
    PS_OPERATOR,
    anchored_ess_operator,
    brute_force_partition_value,
    max_partition_value,
    weighted_operator,
    wrap,
)
from tugx.solutions import (
    EQUAL_DIVISION,
    SHAPLEY,
    STAND_ALONE,
    ZERO,
    allocations_close,
    constant_solution,
    ess_value,
    lead_singleton_solution,
    ps_value,
    shapley,
    shapley_permutation_oracle,
)
from tugx.io import render_game_text, significant

TOL = Tolerance(abs_eps=1e-9, rel_eps=1e-9)
LOOSE = Tolerance(abs_eps=1e-8, rel_eps=1e-8)


def _games(n: int, count: int, base_seed: int, profile: str = GENERAL):
    players = tuple(range(1, n + 1))
    return [
        random_game(players, seed=base_seed * 1000 + i, profile=profile)
        for i in range(count)
    ]


def test_closed_form_fixture_values(duo, trio, halves):
    t0 = time.monotonic()
    assert shapley(duo).values == (4.0, 2.0)
    assert ess_value(duo).values == (4.0, 2.0)
    assert ps_value(duo).values == (6.0, 0.0)
    assert EQUAL_DIVISION(duo).values == (3.0, 3.0)
    assert weighted_operator(0.5)(STAND_ALONE, duo).values == (5.0, 1.0)

    out = shapley(trio)
    for i, want in ((1, 7 / 6), (2, 7 / 6), (3, 2 / 3)):
        assert TOL.eq(out[i], want)
    link = Graph.from_pairs(trio.players, [(1, 2)])
    out = myerson(trio, link)
    assert out.values == (0.5, 0.5, 0.0)
    out = EE_MYERSON(trio, link)
    for i, want in ((1, 7 / 6), (2, 7 / 6), (3, 2 / 3)):
        assert TOL.eq(out[i], want)
    assert TOL.eq(
        component_surplus_share(MYERSON_SOLUTION, trio, link, (1, 2)), 7 / 3
    )
    assert TOL.eq(component_surplus_share(MYERSON_SOLUTION, trio, link, (3,)), 2 / 3)
    blocks = make_partition([[1, 2], [3]], trio.players)
    out = aumann_dreze(trio, blocks)
    assert out.values == (0.5, 0.5, 0.0)
    out = EE_AUMANN_DREZE(trio, blocks)
    for i, want in ((1, 7 / 6), (2, 7 / 6), (3, 2 / 3)):
        assert TOL.eq(out[i], want)

    best = max_partition_value(halves)
    assert best.value == 4.0 and len(best.blocks) == 2
    assert COHESIVE_ESS_OPERATOR(STAND_ALONE, halves).values == (2.0, 2.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"[PASS] closed-form fixture values at 1e-9 ({elapsed:.3f}s)")


def test_shapley_matches_permutation_oracle():
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for n in (2, 3, 4, 5, 6):
        for v in _games(n, 40, base_seed=100 + n):
            fast = shapley(v)
            ref = shapley_permutation_oracle(v)
            for i in v.players:
                worst = max(worst, abs(fast[i] - ref[i]))
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 200
    assert worst < 1e-9
    assert elapsed < 10.0
    print(
        f"[PASS] shapley vs permutation oracle on 200 games, "
        f"max |diff| = {worst:.2e} ({elapsed:.2f}s)"
    )


def test_myerson_component_efficiency_and_fairness_exhaustive():
    t0 = time.monotonic()
    instances = 0
    for n, game_count in ((3, 20), (4, 20)):
        players = tuple(range(1, n + 1))
        graphs = list(all_graphs(players))
        assert len(graphs) == (8 if n == 3 else 64)
        for v in _games(n, game_count, base_seed=200 + n):
            for g in graphs:
                out = myerson(v, g)
                for comp in components(g):
                    total = math.fsum(out[i] for i in sorted(comp))
                    assert TOL.eq(total, v.value(comp))
                for link in g.sorted_links():
                    cut = myerson(v, g.without(link))
                    a, b = link
                    assert TOL.eq(out[a] - cut[a], out[b] - cut[b])
                instances += 1
    elapsed = time.monotonic() - t0
    assert instances == 20 * 8 + 20 * 64
    print(
        f"[PASS] myerson component efficiency + fairness on {instances} "
        f"game/graph pairs, zero violations at 1e-9 ({elapsed:.2f}s)"
    )


def test_operator_laws_across_benchmarks():
    t0 = time.monotonic()
    pool = (SHAPLEY, STAND_ALONE, EQUAL_DIVISION, constant_solution(1.5))
    general = Corpus(
        games=tuple(
            v for n in (2, 3, 4, 5) for v in _games(n, 100, base_seed=300 + n)
        )
    )
    positive = Corpus(
        games=tuple(
            v
            for n in (2, 3, 4, 5)
            for v in _games(n, 100, base_seed=300 + n, profile=POSITIVE_SINGLETONS)
        )
    )
    sub = operator_subject(ESS_OPERATOR, pool)
    for axiom in ("efficiency", "operator-equal-treatment", "operator-equal-surplus"):
        report = check_axiom(axiom, sub, general, TOL)
        assert report.passed and report.cases > 0, report.line()
    for f in pool:
        report = check_axiom(
            "equal-surplus-invariance",
            value_subject(wrap(ESS_OPERATOR, f), benchmark=f),
            general,
            TOL,
        )
        assert report.passed and report.cases > 0, report.line()
    report = check_axiom("efficiency", operator_subject(PS_OPERATOR, pool), positive, TOL)
    assert report.passed and report.cases > 0
    for f in pool:
        report = check_axiom(
            "equal-ratio-invariance",
            value_subject(wrap(PS_OPERATOR, f), benchmark=f),
            positive,
            TOL,
        )
        assert report.passed and report.cases > 0, report.line()
    elapsed = time.monotonic() - t0
    print(
        f"[PASS] surplus-operator laws for 4 benchmarks over 400 general + "
        f"400 positive games at 1e-9 ({elapsed:.2f}s)"
    )


def test_anchored_operator_surplus_violation_reproduced(duo):
    t0 = time.monotonic()
    anchor2 = Game.from_table([1, 2], {(1,): 1.0, (2,): 3.0, (1, 2): 0.0})
    op2 = anchored_ess_operator(anchor2)
    lead = lead_singleton_solution()
    # stand-alone and lead-singleton agree on player 1's payoff and on the
    # total at the played game, yet the anchored outputs differ by -3/2
    diff = op2(STAND_ALONE, duo)[1] - op2(lead, duo)[1]
    assert diff == -1.5

    pool = (STAND_ALONE, lead)
    corpus2 = Corpus(games=(duo,) + tuple(_games(2, 6, base_seed=411)))
    report = check_axiom(
        "operator-equal-surplus", operator_subject(op2, pool), corpus2, TOL
    )
    assert not report.passed

    report = check_axiom(
        "equal-surplus-invariance",
        value_subject(wrap(op2, STAND_ALONE), benchmark=STAND_ALONE),
        corpus2,
        TOL,
    )
    assert report.passed and report.cases > 0

    # the weak form needs a third player to swap around, so on the duo
    # corpus it holds vacuously; an anchored instance on three players
    # provides the substantive positive half
    report = check_axiom(
        "operator-weak-equal-surplus", operator_subject(op2, pool), corpus2, TOL
    )
    assert report.passed and report.cases == 0

    anchor3 = Game.from_table([1, 2, 3], {(1,): 1.0, (2,): 3.0, (1, 2, 3): 0.0})
    op3 = anchored_ess_operator(anchor3)
    corpus3 = Corpus(games=tuple(_games(3, 8, base_seed=412)))
    report = check_axiom(
        "operator-weak-equal-surplus", operator_subject(op3, pool), corpus3, TOL
    )
    assert report.passed and report.cases > 0
    elapsed = time.monotonic() - t0
    print(
        "[PASS] anchored operator: -3/2 witness exact, strong surplus axiom "
        f"fails, weak form and surplus invariance hold ({elapsed:.2f}s)"
    )


def test_induction_solvers_match_closed_forms():
    t0 = time.monotonic()
    fairness_checked = 0
    for n, game_count in ((2, 8), (3, 16), (4, 16)):
        players = tuple(range(1, n + 1))
        graphs = list(all_graphs(players))
        for v in _games(n, game_count, base_seed=500 + n):
            for F in (MYERSON_SOLUTION, ZERO):
                ext = wrap(GRAPH_ESS_OPERATOR, F)
                cache: dict = {}
                for g in graphs:
                    got = solve_by_fairness_induction(F, v, g, cache=cache)
                    assert allocations_close(got, ext(v, g), LOOSE)
                    fairness_checked += 1
                assert len(cache) == len(graphs)
    cycle_checked = 0
    for n in (2, 3, 4):
        players = tuple(range(1, n + 1))
        parts = list(iter_set_partitions(players))
        assert len(parts) == {2: 2, 3: 5, 4: 15}[n]
        for v in _games(n, 20, base_seed=600 + n):
            for F in (AUMANN_DREZE, ZERO):
                ext = wrap(PARTITION_ESS_OPERATOR, F)
                for P in parts:
                    got = solve_by_cycle_balance_induction(F, v, P)
                    assert allocations_close(got, ext(v, P), LOOSE)
                    cycle_checked += 1
    elapsed = time.monotonic() - t0
    assert fairness_checked == (8 * 2 + 16 * 8 + 16 * 64) * 2
    assert cycle_checked == (20 * 2 + 20 * 5 + 20 * 15) * 2
    assert elapsed < 60.0
    print(
        f"[PASS] induction solvers: {fairness_checked} fairness and "
        f"{cycle_checked} cycle instances match closed forms at 1e-8 "
        f"({elapsed:.2f}s)"
    )


def test_partition_dp_matches_enumeration():
    t0 = time.monotonic()
    checked = 0
    for n in (2, 3, 4, 5, 6):
        for v in _games(n, 40, base_seed=700 + n):
            best = max_partition_value(v).value
            assert best == brute_force_partition_value(v)
            assert TOL.eq(COHESIVE_ESS_OPERATOR(STAND_ALONE, v).total(), best)
            checked += 1
        for v in _games(n, 40, base_seed=700 + n, profile=POSITIVE_SINGLETONS):
            got = COHESIVE_PS_OPERATOR(STAND_ALONE, v).total()
            assert TOL.eq(got, max_partition_value(v).value)
    elapsed = time.monotonic() - t0
    assert checked == 200
    assert elapsed < 30.0
    print(
        f"[PASS] best-partition DP equals enumeration exactly on {checked} "
        f"games; cohesive operator totals hit the optimum ({elapsed:.2f}s)"
    )


def test_negative_witnesses_found(trio):
    t0 = time.monotonic()
    corpus = Corpus.build(sizes=(2, 3, 4), per_size=6, seed=801)
    report = check_axiom(
        "split-off-balance", partition_subject(EE_AUMANN_DREZE), corpus, TOL
    )
    assert not report.passed
    assert report.witness is not None and "partition" in report.witness

    link = Graph.from_pairs(trio.players, [(1, 2)])
    out = myerson(trio, link)
    assert out.total() == 1.0 != trio.grand
    from tugx.axioms import graph_subject

    report = check_axiom("efficiency", graph_subject(MYERSON_SOLUTION), corpus, TOL)
    assert not report.passed
    elapsed = time.monotonic() - t0
    print(
        "[PASS] negative witnesses: split-off balance fails for the "
        f"partition extension, efficiency fails for the graph value "
        f"({elapsed:.2f}s)"
    )


def test_cycle_balance_preserved_under_extension():
    t0 = time.monotonic()
    ext = wrap(PARTITION_ESS_OPERATOR, AUMANN_DREZE)
    worst = 0.0
    checked = 0
    for n in (2, 3, 4):
        players = tuple(range(1, n + 1))
        for v in _games(n, 10, base_seed=900 + n):
            for P in iter_set_partitions(players):
                for block in P:
                    if len(block) < 2:
                        continue
                    r0 = cycle_balance_residual(AUMANN_DREZE, v, P, block)
                    r1 = cycle_balance_residual(ext, v, P, block)
                    worst = max(worst, abs(r1 - r0))
                    checked += 1
    elapsed = time.monotonic() - t0
    assert checked > 0
    assert worst <= 1e-8
    print(
        f"[PASS] removal-cycle residual preserved by the extension on "
        f"{checked} blocks, max drift {worst:.2e} ({elapsed:.2f}s)"
    )


def test_cli_round_trip_and_determinism(tmp_path, capsys, fixture_dir):
    t0 = time.monotonic()
    from tugx.io import load_game_file

    for path in sorted(fixture_dir.glob("*.json")):
        gf = load_game_file(str(path))
        rendered = render_game_text(gf.game, graph=gf.graph, partition=gf.partition)
        assert rendered == path.read_text()

    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            main(
                ["gen", str(out), "--sizes", "2-4", "--count", "3", "--seed", "21",
                 "--attach", "both"]
            )
            == 0
        )
    files = sorted(p.name for p in a.iterdir())
    assert len(files) == 9
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    capsys.readouterr()

    game_path = str(a / "game-n3-s21-000.json")
    assert main(["solve", game_path, "-s", "shapley"]) == 0
    payload = json.loads(capsys.readouterr().out)
    v = load_game_file(game_path).game
    want = shapley(v)
    for player, value in payload["payoffs"].items():
        assert value == significant(want[int(player)])

    assert main(["check", str(a), "--axiom", "efficiency", "--target", "ess"]) == 0
    capsys.readouterr()
    assert (
        main(
            ["check", "gen:n=3,count=4,seed=2", "--axiom", "split-off-balance",
             "--target", "ee-aumann-dreze"]
        )
        == 1
    )
    capsys.readouterr()
    assert main(["solve", game_path, "-s", "nope"]) == 2
    assert main(["solve", str(tmp_path / "missing.json"), "-s", "shapley"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["solve", str(bad), "-s", "shapley"]) == 2
    assert main(["oracle", game_path, "--name", "shapley-perm"]) == 0
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    print(
        f"[PASS] cli: deterministic gen, solve round trip at 12 significant "
        f"digits, exit statuses 0/1/2 ({elapsed:.2f}s)"
    )
