"""How every command reads a rule, operator or check-target name.

``check --target`` without ``--kind`` used to try the name as a rule and,
failing that, as an operator.  The resolver in ``tugx.operators`` now reads
it once, by its grammar.  These tests hold it to the former chain on a
frozen list of names, pin the refusal line of each failure family, and draw
names from the grammar for every command that takes one.
"""

import contextlib
import io
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from tugx import axioms, cli
from tugx.cli import main
from tugx.errors import TugxError, UnknownName
from tugx.io import load_game_file
from tugx.operators import (
    _ALIASES,
    _ANCHORED,
    _OPERATORS,
    _SOLUTIONS,
    SUBJECT_KINDS,
    named_operator,
    named_solution,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
DUO = FIXTURES / "duo.json"
GAME_FILES = tuple(str(FIXTURES / f) for f in ("duo.json", "trio.json", "halves.json"))

# Every registry name and alias.
REGISTRY = (
    "shapley", "standalone", "equal-division", "ess", "ps", "zero", "lead-singleton",
    "myerson", "ee-myerson", "aumann-dreze", "ee-aumann-dreze",
    "ed", "stand-alone", "ad", "ee-ad",
    "graph-ess", "partition-ess", "cohesive-ess", "cohesive-ps",
    "anchored-ess", "anchored-ps",
)
# Parameter forms, good and bad, and names no registry has.
FORMS = (
    "constant:1.5", "constant:-0", "constant:inf", "constant:nan", "constant:x", "constant:",
    "weighted:0", "weighted:0.25", "weighted:1", "weighted:1.5", "weighted:nan",
    "weighted:x", "weighted:", "anchored-ess:1", "nope", "shaply", "",
)
BASE = REGISTRY + FORMS
# What may stand before a bracket: operators, and names that are none.
OUTER = (
    "ess", "graph-ess", "partition-ess", "ps", "cohesive-ps", "anchored-ess",
    "weighted:0.5", "weighted:2", "shapley", "nope",
)
MALFORMED = (
    "ess[", "ess]", "ess[shapley", "ess]shapley[", "[shapley]", "ess[]", "ess[shapley]]",
    "ess[[shapley]]", "ess[shapley][ps]", "weighted:0.5[x", "weighted:0.5]", "ess [shapley]",
)


def _names() -> tuple[str, ...]:
    one = [f"{op}[{inner}]" for op in OUTER for inner in BASE]
    two = [
        f"{OUTER[k % len(OUTER)]}[{OUTER[(3 * k + 1) % len(OUTER)]}[{inner}]]"
        for k, inner in enumerate(BASE)
    ]
    deep = [
        op * depth + inner + "]" * depth
        for op, inner in (("ess[", "shapley"), ("graph-ess[", "myerson"), ("weighted:0.5[", "ed"))
        for depth in (32, 33)
    ]
    return BASE + tuple(one + two + deep) + MALFORMED


NAMES = _names()


def test_name_list_covers_every_registry():
    assert {*_SOLUTIONS, *_ALIASES, *_OPERATORS, *_ANCHORED} == set(REGISTRY)


def former_target(name, anchor):
    """The former ``check --target`` chain: a rule, else an operator."""
    for lookup in (named_solution, named_operator):
        try:
            return lookup(name, anchor)
        except UnknownName:
            pass
    return None


class Resolved(Exception):
    """Raised in place of running the check, to hand the subject out."""


def _resolve_only(axiom, subject, corpus, tol):
    raise Resolved(subject)


def _captured_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _one_error_line(code, out, err) -> bool:
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture
def one_parser(monkeypatch):
    """main builds its parser once for the whole test."""
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)


def test_check_target_resolves_as_the_former_chain(monkeypatch, one_parser):
    # a name the chain resolved gives the same subject kind, name and
    # structure; a name it refused exits 2 with one error line, and
    # solve -s prints that same line for a bracketed name
    monkeypatch.setattr(axioms, "check_axiom", _resolve_only)
    anchor = load_game_file(DUO).game
    cases = [(name, None) for name in NAMES]
    cases += [(name, anchor) for name in NAMES if "anchored" in name]
    for name, at in cases:
        extra = ("--anchor", str(DUO)) if at else ()
        try:
            former = former_target(name, at)
        except (TugxError, ValueError):
            former = None
        argv = ("check", str(FIXTURES), "--axiom", "efficiency", f"--target={name}", *extra)
        try:
            code, out, err = _captured_main(*argv)
        except Resolved as got:
            subject = got.args[0]
            assert former is not None, name
            assert type(subject.target) is type(former), name
            assert subject.target.name == former.name, name
            assert subject.structure == former.reads, name
            continue
        assert former is None and _one_error_line(code, out, err), (name, err)
        if "[" in name:
            solved = _captured_main("solve", str(DUO), f"--solution={name}", *extra)
            assert solved == (code, out, err), name


_DEEP = "ess[" * 33 + "shapley" + "]" * 33
# One name per refusal family, and the line every command prints for it.
REFUSALS = {
    "ess[shaply]": "no solution named 'shaply'",
    "weighted:0.5[shaply]": "no solution named 'shaply'",
    "nope[shapley]": "no operator named 'nope'",
    "shapley[ess]": "no operator named 'shapley'",
    "ess[shapley": "no solution named 'ess[shapley'",
    "constant:x": "bad constant payoff in 'constant:x'",
    "ess[constant:inf]": "bad constant payoff in 'constant:inf'",
    "weighted:x[standalone]": "bad blend parameter in 'weighted:x'",
    "anchored-ess[shapley]": "'anchored-ess' needs an anchor game",
    "graph-ess[aumann-dreze]": "'graph-ess' reads a graph, 'aumann-dreze' a partition",
    _DEEP: "rule name nests deeper than 32 levels: " + _DEEP[:40] + "...",
}


@pytest.mark.parametrize("name", list(REFUSALS), ids=lambda n: n[:24])
def test_every_command_refuses_a_name_with_one_line(name):
    line = f"error: {REFUSALS[name]}\n"
    trio = str(FIXTURES / "trio.json")
    for argv in (
        ("solve", trio, f"--solution={name}"),
        ("solve", trio, "--operator=ess", f"--benchmark={name}"),
        ("check", str(FIXTURES), "--axiom", "efficiency", f"--target={name}"),
        ("check", str(FIXTURES), "--axiom", "efficiency", "--target=ess", "--kind=value",
         f"--benchmark={name}"),
        ("check", str(FIXTURES), "--axiom", "efficiency", "--target=ess", "--kind=operator",
         f"--pool=standalone,{name}"),
    ):
        assert _captured_main(*argv) == (2, "", line), argv


def test_names_no_rule_can_have_are_read_as_operators():
    # without --kind; a kind reads the name as its entry says
    check = ("check", str(FIXTURES), "--axiom", "efficiency")
    for name, line in (
        ("nope", "no operator named 'nope'"),
        ("weighted:2", "bad blend parameter in 'weighted:2'"),
        ("anchored-ps", "'anchored-ps' needs an anchor game"),
    ):
        assert _captured_main(*check, f"--target={name}") == (2, "", f"error: {line}\n")
    assert _captured_main(*check, "--target=nope", "--kind=graph") == (
        2, "", "error: no solution named 'nope'\n"
    )
    assert _captured_main(*check, "--target=ess[shapley]", "--kind=operator") == (
        2, "", "error: no operator named 'ess[shapley]'\n"
    )
    trio = str(FIXTURES / "trio.json")
    assert _captured_main("oracle", trio, "--name=cycle-induction", "-f", "ee-myerson") == (
        2, "", "error: 'ee-myerson' reads a graph, not a partition\n"
    )


# Names drawn from the grammar: registry names and parameter forms, nested
# under operators, and stray text over the grammar's characters.
_names_drawn = st.one_of(
    st.recursive(
        st.sampled_from(BASE + MALFORMED),
        lambda inner: st.builds("{}[{}]".format, st.sampled_from(OUTER), inner),
        max_leaves=4,
    ),
    st.text(alphabet="esdpwighted-:[]0.5", max_size=14),
)


def _invocations(name: str, game: str, anchored: bool):
    anchor = ("--anchor", str(DUO)) if anchored else ()
    check = ("check", str(FIXTURES), "--axiom", "efficiency")
    yield ("solve", game, f"--solution={name}", *anchor)
    yield ("solve", game, f"--operator={name}", "--benchmark=standalone", *anchor)
    yield ("solve", game, "--operator=ess", f"--benchmark={name}", *anchor)
    for kind in (None, *SUBJECT_KINDS):
        yield (*check, f"--target={name}", *((f"--kind={kind}",) if kind else ()), *anchor)
    yield (*check, "--target=ess", "--kind=value", f"--benchmark={name}", *anchor)
    yield (*check, "--target=ess", "--kind=operator", f"--pool=standalone,{name}", *anchor)
    yield ("oracle", game, "--name=fairness-induction", f"--benchmark={name}")
    yield ("oracle", game, "--name=cycle-induction", f"--benchmark={name}")


@settings(max_examples=40)
@given(_names_drawn, st.sampled_from(GAME_FILES), st.booleans())
def test_any_name_in_any_command_exits_cleanly(name, game, anchored):
    # exit 0, 1 or 2 and never a traceback; an exit 2 prints one error line
    # and nothing on stdout
    for argv in _invocations(name, game, anchored):
        code, out, err = _captured_main(*argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert _one_error_line(code, out, err), (argv, err)
        else:
            assert err == "", argv
