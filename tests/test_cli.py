import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from tugx import cli
from tugx.axioms import ALL_AXIOMS, THEOREM_SUITES, _CHECKERS, Corpus, Subject, check_axiom
from tugx.cli import main
from tugx.coalition import make_partition
from tugx.comm import Graph, empty_graph
from tugx.errors import UnknownName
from tugx.games import Game, random_game
from tugx.io import load_game_file, render_game_text, significant
from tugx.operators import (
    ESS_OPERATOR,
    GRAPH_ESS_OPERATOR,
    PARTITION_ESS_OPERATOR,
    PS_OPERATOR,
    SUBJECT_KINDS,
    brute_force_partition_value,
    max_partition_value,
    named_graph_solution,
    named_partition_solution,
    named_solution,
)
from tugx.solutions import Allocation, shapley, shapley_permutation_oracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_outputs_json(capsys, fixture_dir):
    code, out, err = run(capsys, "solve", str(fixture_dir / "duo.json"), "-s", "shapley")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["solution"] == "shapley"
    assert payload["payoffs"] == {"1": 4.0, "2": 2.0}
    assert payload["total"] == 6.0


def test_solve_structured_solutions(capsys, fixture_dir):
    trio = str(fixture_dir / "trio.json")
    code, out, _ = run(capsys, "solve", trio, "-s", "myerson")
    assert code == 0
    assert json.loads(out)["payoffs"] == {"1": 0.5, "2": 0.5, "3": 0.0}
    code, out, _ = run(capsys, "solve", trio, "-s", "ee-ad")
    assert code == 0
    assert json.loads(out)["total"] == 3.0


def test_solve_wrapped_and_anchored(capsys, tmp_path, fixture_dir):
    duo = str(fixture_dir / "duo.json")
    code, out, _ = run(capsys, "solve", duo, "-s", "weighted:0.5[standalone]")
    assert code == 0
    assert json.loads(out)["payoffs"] == {"1": 5.0, "2": 1.0}
    anchor = tmp_path / "anchor.json"
    anchor.write_text(
        render_game_text(
            Game.from_table([1, 2], {(1,): 1.0, (2,): 3.0, (1, 2): 0.0})
        )
    )
    code, out, _ = run(
        capsys, "solve", duo, "-s", "anchored-ess[standalone]", "--anchor", str(anchor)
    )
    assert code == 0
    assert json.loads(out)["payoffs"] == {"1": 3.0, "2": 3.0}
    # anchored spellings without --anchor are a usage error
    code, _, err = run(capsys, "solve", duo, "-s", "anchored-ess[standalone]")
    assert code == 2 and "anchor" in err


def test_solve_with_operator_shows_surplus(capsys, fixture_dir):
    duo = str(fixture_dir / "duo.json")
    code, out, _ = run(capsys, "solve", duo, "--operator", "ess", "-f", "standalone")
    assert code == 0
    payload = json.loads(out)
    assert payload["benchmark_payoffs"] == {"1": 2.0, "2": 0.0}
    assert payload["surplus"] == 4.0
    assert payload["payoffs"] == {"1": 4.0, "2": 2.0}
    # a graph benchmark routes to the graph operator
    trio = str(fixture_dir / "trio.json")
    code, out, _ = run(capsys, "solve", trio, "--operator", "ess", "-f", "myerson")
    assert code == 0
    payload = json.loads(out)
    assert payload["surplus"] == 2.0
    assert payload["payoffs"]["3"] == pytest.approx(2 / 3, abs=1e-9)
    code, out, _ = run(capsys, "solve", trio, "--operator", "ess", "-f", "aumann-dreze")
    assert code == 0
    assert json.loads(out)["total"] == 3.0
    # usage and name errors
    code, _, err = run(capsys, "solve", duo, "--operator", "ess")
    assert code == 2 and "--benchmark" in err
    code, _, err = run(capsys, "solve", duo, "-s", "shapley", "-f", "myerson")
    assert code == 2 and "--operator" in err
    # ps serves graph benchmarks too; trio's singleton total is 0
    code, _, err = run(capsys, "solve", trio, "--operator", "ps", "-f", "myerson")
    assert code == 2 and "positive singleton total" in err


def test_solve_runs_the_benchmark_once_at_the_game(capsys, tmp_path, monkeypatch):
    players = tuple(range(1, 7))
    game = tmp_path / "six.json"
    graph = Graph.from_pairs(players, zip(players, players[1:]))
    game.write_text(render_game_text(random_game(players, seed=3), graph=graph))
    anchor = tmp_path / "anchor.json"
    anchor.write_text(render_game_text(random_game(players, seed=4)))
    # an anchored operator runs the benchmark at its anchor too
    invocations = (
        (("--operator", "graph-ess", "-f", "myerson"), 1),
        (("--operator", "anchored-ess", "--anchor", str(anchor), "-f", "standalone"), 2),
    )
    plain = [run(capsys, "solve", str(game), *argv) for argv, _ in invocations]
    calls = []
    real = cli.named_solution

    def counting(*args, **kwargs):
        f = real(*args, **kwargs)

        def func(v, *structure):
            calls.append(v.worth)
            return f.func(v, *structure)

        return replace(f, func=func)

    monkeypatch.setattr(cli, "named_solution", counting)
    for (argv, runs), want in zip(invocations, plain):
        calls.clear()
        assert run(capsys, "solve", str(game), *argv) == want
        assert want[0] == 0
        assert len(calls) == len(set(calls)) == runs


def test_solve_error_statuses(capsys, fixture_dir, tmp_path):
    duo = str(fixture_dir / "duo.json")
    code, _, err = run(capsys, "solve", duo, "-s", "nope")
    assert code == 2 and "no solution named" in err
    code, _, err = run(capsys, "solve", duo, "-s", "myerson")
    assert code == 2 and "graph" in err
    trio = str(fixture_dir / "trio.json")
    code, _, err = run(capsys, "solve", trio, "-s", "ps")
    assert code == 2 and "positive singleton total" in err
    missing = str(tmp_path / "absent.json")
    code, _, err = run(capsys, "solve", missing, "-s", "shapley")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    code, _, err = run(capsys, "solve", str(bad), "-s", "shapley")
    assert code == 2 and "bad.json" in err


def test_solve_blames_the_rule_that_needs_the_structure(capsys, fixture_dir):
    duo = str(fixture_dir / "duo.json")
    # standalone reads nothing: the composed rule needs the graph
    code, out, err = run(capsys, "solve", duo, "--operator", "graph-ess", "-f", "standalone")
    assert (code, out) == (2, "")
    assert err == "error: 'graph-ess[standalone]' needs a graph in the game file\n"
    code, out, err = run(capsys, "solve", duo, "--operator", "ess", "-f", "ad")
    assert (code, out) == (2, "")
    assert err == "error: 'ess[aumann-dreze]' needs a partition in the game file\n"
    # without --operator the rule is the name as typed
    code, out, err = run(capsys, "solve", duo, "-s", "ee-ad")
    assert (code, out) == (2, "")
    assert err == "error: 'ee-ad' needs a partition in the game file\n"


def test_non_finite_constant_is_rejected(capsys, fixture_dir):
    duo = str(fixture_dir / "duo.json")
    for name in ("constant:inf", "constant:-inf", "constant:nan"):
        code, out, err = run(capsys, "solve", duo, "-s", name)
        assert code == 2 and name in err
        assert out == ""


def test_constant_error_keeps_its_reason(capsys, fixture_dir):
    duo = str(fixture_dir / "duo.json")
    for argv in (("-s", "constant:inf"), ("-s", "ess[constant:nan]")):
        code, out, err = run(capsys, "solve", duo, *argv)
        assert code == 2 and "bad constant payoff" in err
        assert out == ""
    code, out, err = run(
        capsys, "solve", duo, "--operator", "ess", "-f", "constant:inf"
    )
    assert code == 2 and "bad constant payoff" in err


def test_non_finite_payoffs_exit_2(capsys, tmp_path):
    # Shapley payoff of player 1 is 0.5 * 1e308 + 0.5 * (1e308 + 1e308) = inf
    wide = tmp_path / "wide.json"
    wide.write_text(
        render_game_text(
            Game.from_table([1, 2], {(1,): 1e308, (2,): -1e308, (1, 2): 1e308})
        )
    )
    for argv in (("-s", "shapley"), ("--operator", "ess", "-f", "shapley")):
        code, out, err = run(capsys, "solve", str(wide), *argv)
        assert code == 2 and out == ""
        assert "payoff of player 1 is inf" in err
    # finite payoffs whose total overflows
    big = tmp_path / "big.json"
    big.write_text(
        render_game_text(
            Game.from_table([1, 2], {(1,): 1.5e308, (2,): 1.5e308, (1, 2): 1e308})
        )
    )
    code, out, err = run(capsys, "solve", str(big), "-s", "standalone")
    assert code == 2 and out == ""
    assert "payoff total overflows" in err
    # restricted worths that overflow: two or three unlinked parts of 1e308
    for n in (2, 3):
        players = tuple(range(1, n + 1))
        lone = tmp_path / f"lone{n}.json"
        lone.write_text(
            render_game_text(
                Game.from_table(players, {(p,): 1e308 for p in players}),
                graph=empty_graph(players),
            )
        )
        code, out, err = run(capsys, "solve", str(lone), "-s", "myerson")
        assert code == 2 and out == ""
        assert err.startswith("error: a sum leaves the float range")


def test_a_sum_of_inf_and_minus_inf_is_named(capsys, tmp_path):
    # the Shapley payoffs are inf, -inf and finite, so their total, which
    # every operator over shapley takes first, has no value
    v = Game.from_table([1, 2, 3], {
        (1,): 1e308, (2,): -1e308, (1, 2): 1e308, (3,): 1.7e308, (1, 3): 1.0,
        (2, 3): -1.7e308, (1, 2, 3): -0.0,
    })
    path = tmp_path / "game.json"
    path.write_text(render_game_text(v))
    for name in ("ess[shapley]", "ps[shapley]", "cohesive-ess[shapley]",
                 "weighted:0.5[shapley]"):
        code, out, err = run(capsys, "solve", str(path), "-s", name)
        assert (code, out) == (2, ""), name
        assert err == (
            "error: a sum leaves the float range (the benchmark total adds +inf to -inf)\n"
        ), name


def test_check_with_non_finite_payoffs_exits_2(capsys, tmp_path):
    # both ess payoffs are inf: v(N) - v({1}) = 1e308 + 1e308 overflows
    corpus = tmp_path / "wide"
    corpus.mkdir()
    (corpus / "g.json").write_text(
        render_game_text(Game.from_table([1, 2], {(1,): -1e308, (1, 2): 1e308}))
    )
    for mode in ((), ("--json",)):
        code, out, err = run(
            capsys, "check", str(corpus), "--axiom", "efficiency", "--target", "ess", *mode
        )
        assert code == 2
        assert "PASS" not in out and "Infinity" not in out and "NaN" not in out
        assert err.startswith("error: ") and "Traceback" not in err


def test_check_prints_nothing_before_a_non_finite_witness(capsys, tmp_path):
    # the efficiency witness holds the total inf; no report line may precede
    # the error, and the error names the check
    corpus = tmp_path / "wide"
    corpus.mkdir()
    (corpus / "g.json").write_text(
        render_game_text(Game.from_table([1, 2], {(1,): -1e308, (1, 2): 1e308}))
    )
    for mode in ((), ("--json",)):
        code, out, err = run(
            capsys, "check", str(corpus), "--axiom", "efficiency", "--target", "ess", *mode
        )
        assert code == 2 and out == ""
        assert "efficiency :: ess" in err and "non-finite" in err


def test_deep_names_exit_2(capsys, fixture_dir):
    duo = str(fixture_dir / "duo.json")
    deep = "ess[" * 3000 + "shapley" + "]" * 3000
    code, out, err = run(capsys, "solve", duo, "-s", deep)
    assert code == 2 and out == ""
    assert "nests deeper than 32 levels" in err and "Traceback" not in err
    code, out, err = run(capsys, "solve", duo, "--operator", "ess", "-f", deep)
    assert code == 2 and "nests deeper than 32 levels" in err
    for lookup in (
        named_solution,
        named_graph_solution,
        named_partition_solution,
        lambda name: named_solution(name, None),
    ):
        with pytest.raises(UnknownName):
            lookup(deep)
    # the cap itself still resolves
    at_cap = "ess[" * 32 + "shapley" + "]" * 32
    code, out, _ = run(capsys, "solve", duo, "-s", at_cap)
    assert code == 0 and json.loads(out)["total"] == 6.0
    graph_deep = "graph-ess[" * 33 + "myerson" + "]" * 33
    with pytest.raises(UnknownName, match="nests deeper"):
        named_graph_solution(graph_deep)


def test_count_below_one_is_rejected(capsys, tmp_path):
    for count in ("0", "-1"):
        code, out, err = run(
            capsys, "check", f"gen:n=2,count={count},seed=4", "--suite", "surplus-values"
        )
        assert code == 2 and "count must be at least 1" in err
        assert out == ""
        outdir = tmp_path / f"gen{count}"
        code, out, err = run(
            capsys, "gen", str(outdir), "--count", count, "--seed", "1"
        )
        assert code == 2 and "count must be at least 1" in err
        assert not outdir.exists()


def test_gen_rejects_bad_sizes_before_writing(capsys, tmp_path):
    outdir = tmp_path / "out"
    for option, message in (
        (("--sizes", "2-x"), "'x' is not an integer"),
        (("--sizes", "2,17"), "at most 16 players supported, got 17"),
        (("--sizes", "0"), "player set must be nonempty"),
        (("--sizes", "3-2"), "no sizes in '3-2'"),
        (("--profile", "bogus"), "unknown profile 'bogus'"),
    ):
        code, out, err = run(
            capsys, "gen", str(outdir), *option, "--count", "2", "--seed", "1"
        )
        assert code == 2 and message in err and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not outdir.exists()


def test_check_rejects_bad_corpus_sizes_before_building_games(capsys, monkeypatch):
    def sentinel(self):
        raise AssertionError(f"built a game of {len(self.players)} players")

    monkeypatch.setattr(Game, "__post_init__", sentinel)
    for fields, message in (
        ("n=17", "at most 16 players supported, got 17"),
        ("n=0-2", "player set must be nonempty"),
        ("n=3-2", "no sizes in '3-2'"),
        ("n=2,foo", "bad corpus field 'foo'"),
        ("n=2,profile=bogus", "unknown profile 'bogus'"),
    ):
        code, out, err = run(
            capsys, "check", f"gen:{fields},count=1", "--suite", "surplus-values"
        )
        assert code == 2 and message in err and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors(capsys, tmp_path, fixture_dir):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    for argv, message in (
        (["check", str(tmp_path), "--suite", "surplus-values"], "no .json game files in"),
        (["check", str(fixture_dir)], "nothing to check: pass --suite and/or --axiom"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and message in err and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    # an empty field in a corpus spec is skipped
    code, _, _ = run(capsys, "check", "gen:,n=2,count=1", "--suite", "surplus-values")
    assert code == 0


def test_gen_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = run(
            capsys,
            "gen",
            str(out),
            "--sizes",
            "2-3",
            "--count",
            "2",
            "--seed",
            "9",
            "--attach",
            "both",
        )
        assert code == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert names == [
        "game-n2-s9-000.json",
        "game-n2-s9-001.json",
        "game-n3-s9-000.json",
        "game-n3-s9-001.json",
    ]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_bytes_are_pinned(capsys, tmp_path):
    code, _, _ = run(
        capsys, "gen", str(tmp_path), "--sizes", "6", "--count", "1", "--seed", "3",
        "--attach", "both",
    )
    assert code == 0
    data = (tmp_path / "game-n6-s3-000.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "495e394919be0124d4e269ce442eb2c4f0d17d1c5864c6f3590d5fa4721e196c"
    )


@pytest.mark.parametrize("n", [17, 64])
def test_game_file_with_too_many_players_exits_2(capsys, tmp_path, n):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"players": list(range(1, n + 1)), "worths": []}))
    code, out, err = run(capsys, "solve", str(path), "-s", "shapley")
    assert code == 2 and out == ""
    assert err == f"error: {path}: at most 16 players supported, got {n}\n"


def test_worth_beyond_float_range_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"players": [1, 2], "worths": [{"coalition": [1], "value": 1.5},'
        ' {"coalition": [1, 2], "value": 1%s}]}' % ("0" * 400)
    )
    code, out, err = run(capsys, "solve", str(path), "-s", "shapley")
    assert code == 2 and out == ""
    assert err == f"error: {path}: worth entry 1 value is out of float range\n"


def test_invariance_checks_skip_a_partner_past_the_float_range(capsys, tmp_path):
    # doubling v({2}) leaves the float range, so no scaled partner is built
    v = Game.from_table([1, 2], {(1,): 1.0, (2,): -1.7e308, (1, 2): 0.5})
    (tmp_path / "edge.json").write_text(render_game_text(v))
    for suite in ("surplus-values", "cohesive-operators"):
        code, out, err = run(capsys, "check", str(tmp_path), "--suite", suite)
        assert (code, err) == (0, "")
        assert out.endswith("6 checks, 0 failed\n")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "solve", str(path), "-s", "shapley")
    assert code == 2 and out == ""
    assert err == f"error: {path}: not valid JSON: nested too deeply\n"


def test_check_suite_and_exit_codes(capsys, tmp_path):
    code, out, _ = run(
        capsys, "check", "gen:n=2-3,count=3,seed=11", "--suite", "network-extension"
    )
    assert code == 0
    assert "[PASS] link-fairness :: ee-myerson" in out
    assert out.strip().endswith("0 failed")
    # a failing axiom drives exit status 1 and prints a witness
    code, out, _ = run(
        capsys,
        "check",
        "gen:n=3,count=3,seed=2",
        "--axiom",
        "split-off-balance",
        "--target",
        "ee-aumann-dreze",
    )
    assert code == 1
    assert "[FAIL] split-off-balance" in out
    assert '"partition"' in out
    # malformed corpus arguments
    code, _, err = run(capsys, "check", "gen:bogus=1", "--suite", "surplus-values")
    assert code == 2
    code, _, err = run(capsys, "check", str(tmp_path / "void"), "--axiom", "efficiency")
    assert code == 2


def test_check_json_output(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "gen:n=2,count=3,seed=4",
        "--axiom",
        "efficiency",
        "--target",
        "ess",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    (report,) = payload["reports"]
    assert report["axiom"] == "efficiency"
    assert report["verdict"] == "pass"
    assert report["cases"] > 0
    code, out, _ = run(
        capsys,
        "check",
        "gen:n=3,count=3,seed=2",
        "--axiom",
        "split-off-balance",
        "--target",
        "ee-aumann-dreze",
        "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["failed"] == 1
    assert payload["reports"][0]["witness"] is not None


def test_check_directory_corpus(capsys, tmp_path, fixture_dir):
    code, _, _ = run(capsys, "gen", str(tmp_path), "--sizes", "3", "--count", "4",
                     "--seed", "5", "--attach", "both")
    assert code == 0
    code, out, _ = run(
        capsys, "check", str(tmp_path), "--axiom", "efficiency", "--target", "ess"
    )
    assert code == 0 and "[PASS] efficiency :: ess (cases=4)" in out


def test_check_one_block_of_eight_players(capsys, tmp_path):
    # 7! removal cycles share the block's 8 removals
    players = tuple(range(1, 9))
    v = random_game(players, seed=8)
    (tmp_path / "block.json").write_text(render_game_text(v, partition=[players]))
    code, out, err = run(
        capsys, "check", str(tmp_path), "--axiom", "cyclic-removal-balance",
        "--target", "ee-aumann-dreze",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == (
        "[PASS] cyclic-removal-balance :: ee-aumann-dreze (cases=5040)"
    )


def test_check_refuses_a_block_of_eleven_players(capsys, tmp_path):
    # 10! removal cycles are refused before the rule is evaluated once
    players = tuple(range(1, 12))
    v = random_game(players, seed=11)
    (tmp_path / "block.json").write_text(render_game_text(v, partition=[players]))
    for flag in ((), ("--json",)):
        code, out, err = run(
            capsys, "check", str(tmp_path), "--axiom", "cyclic-removal-balance",
            "--target", "ee-aumann-dreze", *flag,
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: cyclic-removal-balance: block (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11) has "
            "3,628,800 removal cycles; the check runs at most 362,880 (blocks of up to 10 "
            "members)"
        ]


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_as_on_sigpipe(fixture_dir, unbuffered):
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    # buffered, the report reaches the closed pipe only when stdout is flushed
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    p = subprocess.Popen(
        [sys.executable, "-m", "tugx", "check", str(fixture_dir), "--suite", "partition-extension"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    p.stdout.close()  # long before the interpreter has started and written
    err = p.stderr.read()
    p.stderr.close()
    assert (p.wait(timeout=120), err) == (141, b"")


def test_check_operator_kind(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "gen:n=3,count=2,seed=3",
        "--axiom",
        "operator-equal-surplus",
        "--target",
        "ess",
        "--kind",
        "operator",
        "--pool",
        "standalone,ed,shapley",
    )
    assert code == 0 and "[PASS] operator-equal-surplus :: ess" in out


def test_check_without_a_pool_checks_the_subjects_default_pool(capsys):
    # the command builds the same subject as the library, default pool and all
    corpus = Corpus.build(sizes=(2, 3), per_size=1, seed=3)
    targets = {
        "ess": (ESS_OPERATOR, ("operator", "graph-operator", "partition-operator")),
        "ps": (PS_OPERATOR, ("operator", "graph-operator", "partition-operator")),
        "graph-ess": (GRAPH_ESS_OPERATOR, ("graph-operator",)),
        "partition-ess": (PARTITION_ESS_OPERATOR, ("partition-operator",)),
    }
    for name, (op, kinds) in targets.items():
        for kind in kinds:
            argv = ("check", "gen:n=2-3,count=1,seed=3", "--axiom", "efficiency")
            code, out, _ = run(capsys, *argv, "--target", name, "--kind", kind, "--json")
            subject = Subject(op, SUBJECT_KINDS[kind][0])
            report = check_axiom("efficiency", subject, corpus)
            assert code == 0, (name, kind)
            assert json.loads(out)["reports"] == [json.loads(json.dumps(report.to_dict()))]


def test_oracle_matches(capsys, tmp_path, fixture_dir):
    code, _, _ = run(capsys, "gen", str(tmp_path), "--sizes", "3", "--count", "1",
                     "--seed", "7", "--attach", "both")
    assert code == 0
    game = str(tmp_path / "game-n3-s7-000.json")
    for oracle in ("shapley-perm", "partition-brute", "fairness-induction",
                   "cycle-induction"):
        code, out, _ = run(capsys, "oracle", game, "--name", oracle)
        assert code == 0, oracle
        assert json.loads(out)["match"] is True
    duo, trio = str(fixture_dir / "duo.json"), str(fixture_dir / "trio.json")
    for argv, message in (
        ((duo, "--name", "fairness-induction"), "graph"),
        ((duo, "--name", "cycle-induction"), "partition"),
        ((trio, "--name", "cycle-induction", "-f", "myerson"), "reads a graph"),
        ((trio, "--name", "fairness-induction", "-f", "aumann-dreze"), "reads a partition"),
    ):
        code, out, err = run(capsys, "oracle", *argv)
        assert code == 2 and out == "" and message in err, argv


def _wide_game_file(tmp_path, seed: int) -> str:
    rng = random.Random(seed)
    worth = [0.0] + [
        rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 11.0) for _ in range(15)
    ]
    path = tmp_path / f"wide-{seed}.json"
    path.write_text(render_game_text(Game((1, 2, 3, 4), tuple(worth))))
    return str(path)


def test_allocation_oracle_reports_its_largest_gaps(capsys, tmp_path, fixture_dir, monkeypatch):
    game = _wide_game_file(tmp_path, 0)
    v = load_game_file(game).game
    pairs = list(zip(shapley(v).values, shapley_permutation_oracle(v).values))
    gaps = [abs(a - b) for a, b in pairs]
    assert max(gaps) > 0.0
    code, out, _ = run(capsys, "oracle", game, "--name", "shapley-perm")
    payload = json.loads(out)
    assert code == 0 and payload["match"] is True
    assert payload["max_abs_gap"] == significant(max(gaps))
    rel = max(g / max(abs(a), abs(b)) for g, (a, b) in zip(gaps, pairs) if g)
    assert payload["max_rel_gap"] == significant(rel)
    # a fast path off by 0.2, 0.5 and 0.4: the largest absolute gap is
    # player 2's, the largest relative one player 3's
    def off(v):
        return Allocation(
            v.players, tuple(x + d for x, d in zip(shapley(v).values, (0.2, 0.5, 0.4)))
        )

    monkeypatch.setattr(cli, "shapley", off)
    trio = str(fixture_dir / "trio.json")
    v = load_game_file(trio).game
    fast, ref = off(v).values, shapley_permutation_oracle(v).values
    code, out, _ = run(capsys, "oracle", trio, "--name", "shapley-perm")
    payload = json.loads(out)
    assert code == 1 and payload["match"] is False
    assert payload["max_abs_gap"] == significant(fast[1] - ref[1])
    assert payload["max_rel_gap"] == significant((fast[2] - ref[2]) / fast[2])


def test_worth_oracle_reports_its_gap(capsys, tmp_path, fixture_dir, monkeypatch):
    game = _wide_game_file(tmp_path, 0)
    v = load_game_file(game).game
    gap = abs(max_partition_value(v).value - brute_force_partition_value(v))
    assert gap > 0.0
    code, out, _ = run(capsys, "oracle", game, "--name", "partition-brute")
    payload = json.loads(out)
    assert code == 0 and payload["match"] is True
    assert payload["max_abs_gap"] == significant(gap)
    assert payload["max_rel_gap"] == significant(gap / abs(payload["reference"]))
    # a fast path off by a half: no match, and the gap says by how much
    real = cli.max_partition_value
    monkeypatch.setattr(
        cli, "max_partition_value", lambda v: real(v)._replace(value=real(v).value + 0.5)
    )
    code, out, _ = run(capsys, "oracle", str(fixture_dir / "trio.json"), "--name", "partition-brute")
    payload = json.loads(out)
    assert code == 1 and payload["match"] is False
    assert (payload["fast"], payload["reference"]) == (3.5, 3.0)
    assert (payload["max_abs_gap"], payload["max_rel_gap"]) == (0.5, significant(0.5 / 3.5))


def test_non_finite_or_negative_tol_exits_2(capsys, fixture_dir):
    trio = str(fixture_dir / "trio.json")
    for tol in ("nan", "inf", "-1"):
        code, out, err = run(
            capsys, "check", str(fixture_dir), "--suite", "surplus-values", f"--tol={tol}"
        )
        assert code == 2 and out == "" and "tolerance" in err
        code, out, err = run(capsys, "oracle", trio, "--name", "shapley-perm", f"--tol={tol}")
        assert code == 2 and out == "" and "tolerance" in err


def test_operators_nest_over_every_structure(capsys, fixture_dir):
    trio = str(fixture_dir / "trio.json")
    code, out, _ = run(capsys, "solve", trio, "-s", "ess[myerson]")
    assert code == 0
    assert json.loads(out)["payoffs"]["3"] == pytest.approx(2 / 3, abs=1e-9)
    code, out, _ = run(
        capsys,
        "check",
        "gen:n=3,count=2,seed=3",
        "--axiom",
        "efficiency",
        "--target",
        "ess",
        "--kind",
        "graph-operator",
    )
    assert code == 0 and "[PASS] efficiency :: ess" in out


def test_benchmark_reading_another_structure_exits_2(capsys):
    # a graph benchmark in a plain-game pool would only ever be skipped
    code, out, err = run(
        capsys,
        "check",
        "gen:n=3,count=2,seed=3",
        "--axiom",
        "efficiency",
        "--target",
        "ess",
        "--kind",
        "operator",
        "--pool",
        "standalone,myerson",
    )
    assert code == 2 and out == "" and "'myerson' reads a graph" in err


def test_bad_integer_names_field_and_text(capsys, tmp_path):
    suite = ("--suite", "surplus-values")
    cases = (
        (("check", "gen:n=x", *suite), "corpus field n: 'x' is not an integer"),
        (("check", "gen:n=2,count=z", *suite), "corpus field count: 'z' is not an integer"),
        (("check", "gen:n=2,seed=x", *suite), "corpus field seed: 'x' is not an integer"),
        (("gen", str(tmp_path), "--sizes", "2-x", "--seed", "1"), "--sizes: 'x' is not an integer"),
    )
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv



def test_oracles_call_solvers_at_call_time(capsys, monkeypatch, fixture_dir):
    # the benchmark's tracer wraps the solvers in tugx.cli after import
    calls = []
    for name in ("solve_by_fairness_induction", "solve_by_cycle_balance_induction"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k)
        )
    trio = str(fixture_dir / "trio.json")
    for oracle in ("fairness-induction", "cycle-induction"):
        code, out, _ = run(capsys, "oracle", trio, "--name", oracle)
        assert code == 0 and json.loads(out)["match"] is True
    assert calls == ["solve_by_fairness_induction", "solve_by_cycle_balance_induction"]


def test_induction_oracle_bytes_are_pinned(capsys, tmp_path, fixture_dir):
    # both induction oracles under four benchmarks, on the fixtures and a
    # generated corpus with graphs and partitions: stdout and exit codes
    code, _, _ = run(capsys, "gen", str(tmp_path), "--sizes", "2-6", "--count", "2",
                     "--seed", "5", "--attach", "both")
    assert code == 0
    games = sorted(fixture_dir.glob("*.json")) + sorted(tmp_path.glob("*.json"))
    assert len(games) == 13
    digest = hashlib.sha256()
    for game in games:
        for oracle in ("fairness-induction", "cycle-induction"):
            for bench in ((), ("-f", "zero"), ("-f", "shapley"), ("-f", "standalone")):
                code, out, _ = run(capsys, "oracle", str(game), "--name", oracle, *bench)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == (
        "415eb064ae89a529286fe010dddea4eb384e6e81f0ee44d5f59ab7859db9dcc2"
    )


# A target (and benchmark) of each subject kind, for the exit-status matrix.
_KIND_TARGETS = {
    "value": ("ess", "standalone"),
    "graph": ("ee-myerson", "myerson"),
    "partition": ("ee-aumann-dreze", "aumann-dreze"),
    "operator": ("ess", None),
    "graph-operator": ("graph-ess", None),
    "partition-operator": ("partition-ess", None),
}


def _check_invocations():
    source = "gen:n=1-3,count=1,seed=3"
    for suite in THEOREM_SUITES:
        yield ("check", source, "--suite", suite)
    for axiom in ALL_AXIOMS:
        kind = _CHECKERS[axiom][0][0]
        target, bench = _KIND_TARGETS[kind]
        argv = ("check", source, "--axiom", axiom, "--target", target, "--kind", kind)
        yield argv + (("--benchmark", bench) if bench else ())


@pytest.mark.parametrize(
    "argv", list(_check_invocations()), ids=lambda argv: " ".join(argv[2:4])
)
def test_check_exit_status_matrix(capsys, argv):
    # every suite and every axiom on one-, two- and three-player games ends
    # in a verdict or a usage error, never in a traceback
    code, _, _ = run(capsys, *argv)
    assert code in (0, 1, 2)


# sha256 of what each call prints.  The check help and the --kind error
# differ from the version before --strict only by that option's usage token
# and help line.
_HELP_DIGESTS = {
    ("--help",): "6e84ae0afbf4e6b82e3ebcf1e39716af8c544936c9cfd2d4a3cd5fedf14efba1",
    ("solve", "--help"): "f153533f4147c14f20f1173f2a63777cf643d23b227686213427604656e5aaec",
    ("check", "--help"): "851f401241402dd589aa3a05561d521fd74c8c5f0d27ab0de6f00e930338801f",
    ("gen", "--help"): "9ebfa7b375f1d94a8667c75c0a9855144ea44c8e3d6ce02b15d78c4d06a42e30",
    ("oracle", "--help"): "8616837fbf6233436cf55af6a01223014b3cb809c4650a769862b17870165757",
}


@pytest.mark.parametrize("argv", list(_HELP_DIGESTS), ids=" ".join)
def test_help_bytes_are_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _HELP_DIGESTS[argv]


def test_unknown_kind_bytes_are_pinned(capsys, monkeypatch):
    # the --kind choices, in SUBJECT_KINDS order, are part of the message
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, "check", "x", "--kind", "bogus")
    assert code == 2 and out == ""
    assert hashlib.sha256(err.encode()).hexdigest() == (
        "d6ad20a6111ef5d41df0fa0f2ccca117507cbd9dad4059c0f5e68b7b43a00a3b"
    )


def test_strict_fails_a_vacuous_check(capsys, tmp_path):
    # ps is out of domain on every game here, so efficiency has no case
    (tmp_path / "negative.json").write_text(
        render_game_text(Game.from_table([1, 2], {(1,): -1.0, (2,): -2.0, (1, 2): 3.0}))
    )
    argv = ("check", str(tmp_path), "--axiom", "efficiency", "--target", "ps")
    note = "vacuous: no applicable cases; skipped 1 out-of-domain evaluations"
    for strict, code, tag in (((), 0, "PASS"), (("--strict",), 1, "FAIL")):
        assert run(capsys, *argv, *strict) == (
            code, f"[{tag}] efficiency :: ps (cases=0) [{note}]\n1 checks, {code} failed\n", ""
        )
        got, out, _ = run(capsys, *argv, *strict, "--json")
        assert got == code
        assert json.loads(out) == {
            "failed": code,
            "reports": [{
                "axiom": "efficiency", "subject": "ps", "verdict": tag.lower(), "cases": 0,
                "witness": None, "note": note,
            }],
        }
    # a check with cases is unchanged under --strict
    code, out, _ = run(capsys, "check", str(tmp_path), "--axiom", "efficiency", "--target",
                       "ess", "--strict")
    assert code == 0 and out.startswith("[PASS] efficiency :: ess (cases=1)")


# Worths at the edges of the float range: near overflow, subnormal, signed zero.
_edge_worths = st.one_of(
    st.sampled_from((
        0.0, -0.0, 0.5, 1.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308,
        5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    )),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _captured_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(_edge_worths, min_size=(1 << n) - 1, max_size=(1 << n) - 1)
))
# the DP adds 1e308 + (-1e308 + 1.0) in chain order and loses the 1.0 that
# the enumeration's fsum keeps: the oracle reports the gap and exits 1
@example([1e308, -1e308, -1e300, 1.0, 1e308, -1e308, 0.0])
def test_cohesive_runs_exit_cleanly_on_edge_worths(worths):
    # each run prints strict JSON or exits 2 with a message, never a
    # traceback; only the oracle may exit 1, for a reported mismatch
    n = (len(worths) + 1).bit_length() - 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w") as fh:
            fh.write(render_game_text(Game(tuple(range(1, n + 1)), (0.0, *worths))))
        for argv in (
            ("solve", path, "-s", "cohesive-ess[standalone]"),
            ("solve", path, "-s", "cohesive-ps[standalone]"),
            ("oracle", path, "--name", "partition-brute"),
        ):
            code, out, err = _captured_main(*argv)
            if code == 2:
                assert out == "" and err.startswith("error: "), argv
                assert "in fsum" not in err, argv
                continue
            assert err == "", argv
            payload = json.loads(out, parse_constant=_reject_constant)
            if argv[0] == "oracle":
                assert code == (0 if payload["match"] else 1), argv
            else:
                assert code == 0, argv


# Runs over a game file with a graph and a partition: the remaining rules
# and oracles.
_STRUCTURED_RUNS = (
    ("solve", "-s", "ee-myerson"),
    ("solve", "-s", "ee-aumann-dreze"),
    ("solve", "-s", "ps"),
    ("solve", "-s", "weighted:0.5[standalone]"),
    ("solve", "--operator", "ps", "-f", "shapley"),
    ("oracle", "--name", "shapley-perm"),
    ("oracle", "--name", "fairness-induction"),
    ("oracle", "--name", "cycle-induction"),
)


@st.composite
def _structured_games(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    players = tuple(range(1, n + 1))
    worths = draw(st.lists(_edge_worths, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    pairs = list(combinations(players, 2))
    linked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for p, label in zip(players, labels):
        blocks.setdefault(label, []).append(p)
    return render_game_text(
        Game(players, (0.0, *worths)),
        graph=Graph(players, frozenset(p for p, on in zip(pairs, linked) if on)),
        partition=make_partition(blocks.values(), players),
    )


@settings(max_examples=60)
@given(_structured_games())
def test_structured_runs_exit_cleanly_on_edge_worths(text):
    # strict JSON, an oracle's reported mismatch, or one error line that
    # does not blame the file for a sum the program overflowed
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w") as fh:
            fh.write(text)
        for cmd, *rest in _STRUCTURED_RUNS:
            argv = (cmd, path, *rest)
            code, out, err = _captured_main(*argv)
            if code == 2:
                assert out == "" and err.startswith("error: "), argv
                assert err.count("\n") == 1, argv
                assert "coalition worths must be finite" not in err, argv
                assert "in fsum" not in err, argv
                continue
            assert err == "", argv
            payload = json.loads(out, parse_constant=_reject_constant)
            assert code == (1 if cmd == "oracle" and not payload["match"] else 0), argv
