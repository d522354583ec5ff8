import hashlib
import json
import random

import pytest

from tugx import cli
from tugx.axioms import ALL_AXIOMS, THEOREM_SUITES, _CHECKERS
from tugx.cli import main
from tugx.comm import empty_graph
from tugx.errors import UnknownName
from tugx.games import Game
from tugx.io import load_game_file, render_game_text, significant
from tugx.operators import (
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
        assert err.startswith("error: ")


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
    for sizes, message in (
        ("2-x", "'x' is not an integer"),
        ("2,17", "at most 16 players supported, got 17"),
        ("0", "player set must be nonempty"),
    ):
        code, out, err = run(
            capsys, "gen", str(outdir), "--sizes", sizes, "--count", "2", "--seed", "1"
        )
        assert code == 2 and message in err and out == ""
        assert not outdir.exists()


def test_check_rejects_bad_corpus_sizes_before_building_games(capsys, monkeypatch):
    def sentinel(self):
        raise AssertionError(f"built a game of {len(self.players)} players")

    monkeypatch.setattr(Game, "__post_init__", sentinel)
    for sizes, message in (
        ("17", "at most 16 players supported, got 17"),
        ("0-2", "player set must be nonempty"),
    ):
        code, out, err = run(
            capsys, "check", f"gen:n={sizes},count=1", "--suite", "surplus-values"
        )
        assert code == 2 and message in err and out == ""


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


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
