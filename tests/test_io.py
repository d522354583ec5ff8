import json
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tugx.coalition import make_partition
from tugx.comm import Graph, empty_graph
from tugx.errors import ParseError
from tugx.games import PROFILES, Game, random_game
from tugx.io import (
    GameFile,
    game_payload,
    load_game_file,
    parse_game_payload,
    parse_game_text,
    render_game_text,
    significant,
)


def test_round_trip_plain(duo):
    text = render_game_text(duo)
    parsed = parse_game_text(text)
    assert parsed.game == duo
    assert parsed.graph is None and parsed.partition is None
    assert render_game_text(parsed.game) == text


def test_round_trip_with_structures(trio):
    g = Graph.from_pairs(trio.players, [(1, 2)])
    P = make_partition([[1, 2], [3]], trio.players)
    text = render_game_text(trio, graph=g, partition=P)
    parsed = parse_game_text(text)
    assert parsed.game == trio
    assert parsed.graph == g
    assert parsed.partition == P


def test_zero_worths_are_omitted(trio):
    payload = game_payload(trio)
    coalitions = [entry["coalition"] for entry in payload["worths"]]
    assert coalitions == [[1, 2], [1, 2, 3]]


def test_significant_rounding():
    assert significant(1 / 3) == 0.333333333333
    assert significant(6.0) == 6.0
    assert significant(-2.890625) == -2.890625


# Each bad file with the message the parser gives for it; the file is the id.
_REJECTIONS = [
    ("[1, 2]", "game file must be a JSON object"),
    ("{", "not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ('{"players": [1, 2]}', "missing key 'worths'"),
    ('{"players": [1, 2], "worths": [], "bogus": 1}', "unknown keys: ['bogus']"),
    ('{"players": [1, "a"], "worths": []}', "'players' must contain only integers"),
    ('{"players": [1, 2], "worths": [{"coalition": [1]}]}',
     "worth entry 0 needs exactly 'coalition' and 'value'"),
    ('{"players": [1, 2], "worths": [{"coalition": [1], "value": true}]}',
     "worth entry 0 value must be a number"),
    ('{"players": [1, 2], "worths": [{"coalition": [3], "value": 1.0}]}',
     "coalition member 3 is not a player"),
    ('{"players": [1, 2], "worths": [{"coalition": [1], "value": 1.0},'
     ' {"coalition": [1], "value": 2.0}]}',
     "worth entry 1 repeats coalition [1]"),
    ('{"players": [1, 2], "worths": [], "graph": [[1, 1]]}', "self-link at player 1"),
    ('{"players": [1, 2], "worths": [], "partition": [[1]]}',
     "blocks must cover exactly the player set"),
]


@pytest.mark.parametrize("text, message", _REJECTIONS, ids=[t for t, _ in _REJECTIONS])
def test_parse_rejections(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_game_text(text)


def test_deeply_nested_json_is_a_parse_error():
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        with pytest.raises(ParseError, match="^not valid JSON: nested too deeply$"):
            parse_game_text(text)


@pytest.mark.parametrize(
    "worths, message",
    [
        # shape and type errors in any entry come before a bad member
        ('[{"coalition": [3], "value": 1.0}, {"coalition": [1], "value": "x"}]',
         "worth entry 1 value must be a number"),
        ('[{"coalition": [2, 1, 1, 9], "value": 1.0}]', "player 1 listed twice in coalition"),
        ('[{"coalition": [9, 9], "value": 1.0}, {"coalition": [9, 9], "value": 1.0}]',
         "worth entry 1 repeats coalition [9, 9]"),
        ('[{"coalition": [2, 1], "value": 1.0}, {"coalition": [1, 2], "value": 1}]',
         "worth entry 1 repeats coalition [1, 2]"),
        ('[{"coalition": [], "value": 0.5}]', "the empty coalition must be worth exactly 0"),
        ('[{"coalition": [1], "value": 1e400}]', "coalition worths must be finite"),
        ('[{"coalition": [1], "value": 1.0}, {"coalition": [2], "value": 1%s}]' % ("0" * 400),
         "worth entry 1 value is out of float range"),
    ],
)
def test_worth_entry_rejections(worths, message):
    text = '{"players": [1, 2], "worths": %s}' % worths
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_game_text(text)


def test_members_must_be_plain_integers():
    # the worth table's fast path reads members by their exact type, and so
    # does every other integer field
    class Member(int):
        pass

    entry = {"coalition": [Member(1)], "value": 1.0}
    with pytest.raises(ParseError, match="^worth entry 0 coalition must contain only integers$"):
        parse_game_payload({"players": [1, 2], "worths": [entry]})
    with pytest.raises(ParseError, match="^'players' must contain only integers$"):
        parse_game_payload({"players": [Member(1), 2], "worths": []})


@pytest.mark.parametrize("n", [17, 64])
def test_too_many_players_are_refused_before_any_table(n):
    players = list(range(n))
    entries = [{"coalition": players, "value": 1.0}]
    message = f"at most 16 players supported, got {n}"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_game_payload({"players": players, "worths": entries})
    with pytest.raises(ValueError, match=f"^{message}$"):
        Game.from_table(players, {tuple(players): 1.0})
    with pytest.raises(ParseError, match="^duplicate player ids$"):
        parse_game_payload({"players": players + [0], "worths": entries})


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# Mostly well-formed payloads, so that the checks late in the parse are
# reached, with odd members, values and whole JSON values mixed in.
_players = st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True)
_ids = st.one_of(
    st.integers(-1, 5), st.sampled_from([True, 1.0, "1", None, 10**20])
)
_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 1e400, -0.0, True, "1", None]),
)
_members = st.one_of(_players, _players, _players, st.lists(_ids, max_size=4), _json)
_entry = st.fixed_dictionaries({"coalition": _members, "value": _values})
_entries = st.one_of(_entry, _entry, _entry, _entry, _entry, _entry, _entry, _json)
_int_lists = st.lists(st.lists(st.integers(-1, 5), max_size=3), max_size=3)
_payloads = st.fixed_dictionaries(
    {
        "players": st.one_of(_players, _players, _players, st.lists(_ids, max_size=4)),
        "worths": st.one_of(st.lists(_entries, max_size=6), _json),
    },
    optional={"graph": st.one_of(_int_lists, _json), "partition": st.one_of(_int_lists, _json)},
)


@settings(max_examples=200)
@given(st.one_of(_json, _payloads, _payloads, _payloads))
def test_any_json_value_parses_or_raises_parse_error(obj):
    try:
        gf = parse_game_payload(obj)
    except ParseError:
        return
    assert isinstance(gf, GameFile)
    assert isinstance(gf.game, Game)


def _reference_text(v, graph=None, partition=None):
    return json.dumps(game_payload(v, graph, partition), indent=2, sort_keys=True) + "\n"


_magnitudes = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from((-1.0, 1.0)),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-300, 299),
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _rendered_games(draw):
    n = draw(st.integers(1, 6))
    players = tuple(sorted(draw(st.sets(st.integers(0, 10**6), min_size=n, max_size=n))))
    if draw(st.booleans()):
        profile = draw(st.sampled_from(PROFILES))
        v = random_game(players, seed=draw(st.integers(0, 10**6)), profile=profile)
    else:
        worths = draw(st.lists(_magnitudes, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
        v = Game(players, (0.0, *worths))
    graph = draw(st.one_of(
        st.none(),
        st.sets(st.sampled_from(list(combinations(players, 2)) or [None])).map(
            lambda links: Graph(players, frozenset(links - {None}))
        ),
    ))
    partition = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
            lambda labels: make_partition(
                [[p for p, b in zip(players, labels) if b == label] for label in set(labels)],
                players,
            )
        ),
    ))
    return v, graph, partition


@settings(max_examples=100)
@given(_rendered_games())
def test_render_matches_json_dumps(case):
    v, graph, partition = case
    assert render_game_text(v, graph, partition) == _reference_text(v, graph, partition)


def test_render_matches_json_dumps_on_every_profile_and_structure():
    players = (1, 2, 3, 4, 5)
    graphs = [None, empty_graph(players), Graph.from_pairs(players, [(1, 2), (4, 5), (2, 5)])]
    partitions = [None, make_partition([players], players), make_partition([[1, 4], [2], [3, 5]])]
    games = [random_game(players, seed=seed, profile=p) for p in PROFILES for seed in (1, 2)]
    games.append(Game(players, (0.0,) * 32))
    for v in games:
        for graph in graphs:
            for partition in partitions:
                text = render_game_text(v, graph, partition)
                assert text == _reference_text(v, graph, partition)
    assert '"worths": []' in render_game_text(games[-1], graphs[1])


def test_load_game_file_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(ParseError) as err:
        load_game_file(str(path))
    assert "broken.json" in str(err.value)


def test_load_game_file(tmp_path, duo):
    path = tmp_path / "duo.json"
    path.write_text(render_game_text(duo))
    assert load_game_file(str(path)).game == duo
