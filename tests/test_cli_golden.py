"""CLI output pinned against a committed fixture.

``fixtures/golden/cli_outputs.json`` maps each command below to its exit
status and standard output: ``tugx solve`` on every fixture game under every
rule name the resolver knows, the ``--operator`` form over plain, graph and
partition benchmarks, and ``tugx check`` on the fixtures for every theorem
suite, as text and as JSON.  Standard error is not pinned.
"""

import contextlib
import io
import json
import pathlib

from tugx.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden" / "cli_outputs.json"

SOLUTIONS = (
    "shapley",
    "standalone",
    "ed",
    "ess",
    "ps",
    "zero",
    "lead-singleton",
    "constant:1.5",
    "ess[shapley]",
    "cohesive-ess[standalone]",
    "weighted:0.5[standalone]",
    "myerson",
    "ee-myerson",
    "graph-ess[myerson]",
    "graph-ess[zero]",
    "aumann-dreze",
    "ad",
    "ee-ad",
    "partition-ess[aumann-dreze]",
)
OPERATOR_BENCHMARKS = ("standalone", "myerson", "aumann-dreze")
SUITES = (
    "surplus-values",
    "surplus-operators",
    "network-extension",
    "network-operators",
    "partition-extension",
    "partition-operators",
    "cohesive-operators",
)


def _commands() -> list[list[str]]:
    """Argument lists, with game files named relative to the fixtures."""
    games = sorted(p.name for p in FIXTURES.glob("*.json"))
    out = []
    for game in games:
        out += [["solve", game, "-s", name] for name in SOLUTIONS]
        out += [["solve", game, "--operator", "ess", "-f", f] for f in OPERATOR_BENCHMARKS]
    for suite in SUITES:
        out.append(["check", ".", "--suite", suite])
        out.append(["check", ".", "--suite", suite, "--json"])
    return out


def _run(argv: list[str]) -> tuple[int, str]:
    resolved = [str(FIXTURES / a) if a.endswith(".json") or a == "." else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, stdout.getvalue()


def cli_outputs() -> dict[str, list]:
    return {" ".join(argv): list(_run(argv)) for argv in _commands()}


def test_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = cli_outputs()
    assert sorted(got) == sorted(golden)
    for command, (code, stdout) in golden.items():
        assert got[command] == [code, stdout], command
