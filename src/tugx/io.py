"""Game files: a small JSON format plus canonical rendering.

A file holds players, a sparse worth table, and optionally a graph and a
partition.  Rendering is canonical (sorted keys, mask-ordered worths, values
at 12 significant digits, trailing newline) so that equal inputs produce
byte-equal files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .coalition import Partition, make_partition
from .comm import Graph
from .errors import ParseError
from .games import Game, player_bits


@dataclass(frozen=True)
class GameFile:
    game: Game
    graph: Graph | None = None
    partition: Partition | None = None


def significant(x: float) -> float:
    """Round to 12 significant digits; identity for short decimals."""
    return float(format(float(x), ".12g"))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_int(x: Any) -> bool:
    # the exact type, as the worth table's fast path tests members
    return type(x) is int


def _int_list(obj: Any, what: str) -> list[int]:
    _require(isinstance(obj, list), f"{what} must be a list")
    _require(all(map(_is_int, obj)), f"{what} must contain only integers")
    return obj


def _float(value: int | float, k: int) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"worth entry {k} value is out of float range") from None


def _not_a_coalition(members: list[int], bits: dict[int, int]) -> str:
    """Why a list of ints that the worth table's fast path refused is no
    coalition of the players: its first member in ascending order that is
    no player or repeats one."""
    mask = 0
    for p in sorted(members):
        b = bits.get(p, 0)
        if not b:
            return f"coalition member {p} is not a player"
        if mask & b:
            break
        mask |= b
    return f"player {p} listed twice in coalition"


_ENTRY_KEYS = {"coalition", "value"}


def _worth_table(entries: list, bits: dict[int, int]) -> list[float]:
    """The dense worth table of the entries; unlisted coalitions are worth 0.

    Each entry is read straight into its mask, and a message is formatted
    only once a check fails.  Every entry's shape, types and repetition are
    checked, in entry order, before the first coalition that names a
    non-player or a player twice, or an empty coalition of nonzero worth,
    is reported.
    """
    worth = [0.0] * (1 << len(bits))
    seen = bytearray(len(worth))
    bad: set[tuple[int, ...]] = set()  # sorted members of non-coalitions
    late = None  # why the first non-coalition is one
    for k, entry in enumerate(entries):
        if type(entry) is not dict or entry.keys() != _ENTRY_KEYS:
            _require(isinstance(entry, dict), f"worth entry {k} must be an object")
            _require(
                entry.keys() == _ENTRY_KEYS,
                f"worth entry {k} needs exactly 'coalition' and 'value'",
            )
        members = entry["coalition"]
        value = entry["value"]
        mask = 0
        if type(members) is list:
            for p in members:
                b = bits.get(p, 0) if type(p) is int else 0
                if not b or mask & b:
                    mask = -1
                    break
                mask |= b
        else:
            mask = -1
        if mask < 0 or (type(value) is not float and type(value) is not int):
            members = _int_list(members, f"worth entry {k} coalition")
            _require(
                isinstance(value, (int, float)) and not isinstance(value, bool),
                f"worth entry {k} value must be a number",
            )
            if mask < 0:
                key = tuple(sorted(members))
                _require(key not in bad, f"worth entry {k} repeats coalition {list(key)}")
                bad.add(key)
                _float(value, k)
                late = late or _not_a_coalition(members, bits)
                continue
        if seen[mask]:
            raise ParseError(f"worth entry {k} repeats coalition {sorted(members)}")
        seen[mask] = 1
        x = value if type(value) is float else _float(value, k)
        if mask:
            worth[mask] = x
        elif x != 0.0:
            late = late or "the empty coalition must be worth exactly 0"
    if late is not None:
        raise ParseError(late)
    return worth


def parse_game_payload(obj: Any) -> GameFile:
    _require(isinstance(obj, dict), "game file must be a JSON object")
    unknown = set(obj) - {"players", "worths", "graph", "partition"}
    _require(not unknown, f"unknown keys: {sorted(unknown)}")
    _require("players" in obj, "missing key 'players'")
    players = _int_list(obj["players"], "'players'")
    _require("worths" in obj, "missing key 'worths'")
    _require(isinstance(obj["worths"], list), "'worths' must be a list")
    try:
        ps, bits = player_bits(players)
        game = Game(ps, tuple(_worth_table(obj["worths"], bits)))
    except ValueError as e:
        raise ParseError(str(e)) from None
    graph = None
    if "graph" in obj:
        _require(isinstance(obj["graph"], list), "'graph' must be a list of pairs")
        pairs = []
        for k, pair in enumerate(obj["graph"]):
            link = _int_list(pair, f"graph link {k}")
            _require(len(link) == 2, f"graph link {k} must have two players")
            pairs.append((link[0], link[1]))
        try:
            graph = Graph.from_pairs(game.players, pairs)
        except ValueError as e:
            raise ParseError(str(e)) from None
    partition = None
    if "partition" in obj:
        _require(isinstance(obj["partition"], list), "'partition' must be a list")
        blocks = [
            _int_list(b, f"partition block {k}") for k, b in enumerate(obj["partition"])
        ]
        try:
            partition = make_partition(blocks, game.players)
        except ValueError as e:
            raise ParseError(str(e)) from None
    return GameFile(game, graph, partition)


def parse_game_text(text: str) -> GameFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    return parse_game_payload(obj)


def load_game_file(path: str) -> GameFile:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_game_text(text)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def game_payload(
    v: Game, graph: Graph | None = None, partition: Partition | None = None
) -> dict[str, Any]:
    """Canonical JSON-ready form; zero worths are omitted."""
    payload: dict[str, Any] = {
        "players": list(v.players),
        "worths": [
            {"coalition": list(members), "value": significant(x)}
            for members, x in v.nonzero_table()
        ],
    }
    if graph is not None:
        payload["graph"] = [list(link) for link in graph.sorted_links()]
    if partition is not None:
        payload["partition"] = [sorted(b) for b in partition]
    return payload


def _array(items: list[str], pad: str) -> str:
    """A JSON array of rendered items, laid out as json.dumps(indent=2) lays
    out an array that opens at indent pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def render_game_text(
    v: Game, graph: Graph | None = None, partition: Partition | None = None
) -> str:
    """Exactly ``json.dumps(game_payload(v, graph, partition), indent=2,
    sort_keys=True) + "\\n"``, written directly: json.dumps runs its pure
    Python encoder whenever it indents.  Numbers are written by int and
    float repr, as json writes them, and each coalition's member lines are
    built once, from those of the coalition without its highest player.
    """
    names = [int.__repr__(p) for p in v.players]
    fields = []  # (key, rendered items), in sorted key order
    if graph is not None:
        links = [list(map(int.__repr__, link)) for link in graph.sorted_links()]
        fields.append(("graph", [_array(link, "    ") for link in links]))
    if partition is not None:
        blocks = [list(map(int.__repr__, sorted(b))) for b in partition]
        fields.append(("partition", [_array(block, "    ") for block in blocks]))
    fields.append(("players", names))
    lines = [""]  # lines[mask]: the coalition's member lines
    for name in names:
        item = "        " + name
        lines += [f"{s},\n{item}" if s else item for s in lines]
    worth = v.worth
    entries = [
        f'{{\n      "coalition": [\n{lines[m]}\n      ],\n'
        f'      "value": {significant(worth[m])!r}\n    }}'
        for m in range(1, len(worth))
        if worth[m] != 0.0
    ]
    fields.append(("worths", entries))
    body = ",\n".join(f'  "{key}": {_array(items, "  ")}' for key, items in fields)
    return "{\n" + body + "\n}\n"
