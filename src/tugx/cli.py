"""Command line front end.

Subcommands: solve a game file, run property checks over a corpus, generate
reproducible corpora, and cross-check fast paths against slow oracles.
Exit status 0 means success, 1 means a check or oracle comparison failed,
2 means the request itself was unusable (bad file, bad name, out of domain).

Only ``check`` imports the axiom harness, inside the functions that run it:
every command is a process of its own, and the other three never need it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import replace
from itertools import combinations
from typing import TYPE_CHECKING

from .coalition import make_partition, solve_by_cycle_balance_induction
from .comm import Graph, solve_by_fairness_induction
from . import memo
from .errors import DomainViolation, MissingStructure, TugxError
from .games import DEFAULT_TOL, GENERAL, MAX_PLAYERS, PROFILES, Game, Tolerance, random_game
from .io import GameFile, load_game_file, render_game_text, significant
from .operators import (
    GRAPH_ESS_OPERATOR,
    PARTITION_ESS_OPERATOR,
    SUBJECT_KINDS,
    Operator,
    brute_force_partition_value,
    max_partition_value,
    named_operator,
    named_solution,
    named_target,
    wrap,
)
from .solutions import Allocation, allocations_close, shapley, shapley_permutation_oracle

if TYPE_CHECKING:
    from .axioms import Corpus, Subject


def _int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field}: {text!r} is not an integer") from None


def _parse_sizes(text: str, field: str) -> tuple[int, ...]:
    sizes: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if "-" in token:
            lo, hi = token.split("-", 1)
            sizes.extend(range(_int(lo, field), _int(hi, field) + 1))
        else:
            sizes.append(_int(token, field))
    if not sizes:
        raise ValueError(f"no sizes in {text!r}")
    for n in sizes:
        if n < 1:
            raise ValueError("player set must be nonempty")
        if n > MAX_PLAYERS:
            raise ValueError(f"at most {MAX_PLAYERS} players supported, got {n}")
    return tuple(sizes)


def _check_count(count: int) -> int:
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return count


def _corpus_from_source(source: str) -> Corpus:
    """Either `gen:n=2-4,count=12,seed=7[,profile=...]` or a directory."""
    from .axioms import Corpus

    if source.startswith("gen:"):
        fields = {"n": "2-4", "count": "12", "seed": "7", "profile": GENERAL}
        for token in source[4:].split(","):
            if not token:
                continue
            if "=" not in token:
                raise ValueError(f"bad corpus field {token!r}")
            key, _, value = token.partition("=")
            if key not in fields:
                raise ValueError(f"unknown corpus field {key!r}")
            fields[key] = value
        if fields["profile"] not in PROFILES:
            raise ValueError(f"unknown profile {fields['profile']!r}")
        return Corpus.build(
            sizes=_parse_sizes(fields["n"], "corpus field n"),
            per_size=_check_count(_int(fields["count"], "corpus field count")),
            seed=_int(fields["seed"], "corpus field seed"),
            profile=fields["profile"],
        )
    if not os.path.isdir(source):
        raise ValueError(f"corpus {source!r} is neither gen:... nor a directory")
    names = sorted(f for f in os.listdir(source) if f.endswith(".json"))
    if not names:
        raise ValueError(f"no .json game files in {source!r}")
    return Corpus.from_game_files(
        load_game_file(os.path.join(source, name)) for name in names
    )


def _load_anchor(path: str | None) -> Game | None:
    if path is None:
        return None
    return load_game_file(path).game


def _structure(gf: GameFile, rule, name: str) -> tuple:
    """The file's graph or partition if the rule reads one, else nothing."""
    if rule.reads is None:
        return ()
    # GameFile names its fields after the structures
    found = getattr(gf, rule.reads.name)
    if found is None:
        raise MissingStructure(f"{name!r} needs a {rule.reads.name} in the game file")
    return (found,)


def _subject(args, anchor: Game | None) -> Subject:
    """--target and the structure of its inputs, as named_target reads them
    under --kind."""
    from .axioms import Subject

    target, structure = named_target(args.target, anchor, args.kind)
    benchmark = named_solution(args.benchmark, anchor) if args.benchmark else None
    pool = None
    if args.pool:
        pool = tuple(named_solution(n.strip(), anchor) for n in args.pool.split(","))
    return Subject(target, structure, benchmark, pool)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


def _finite(x: float, what: str) -> float:
    """x rounded for output; a non-finite number is a domain violation."""
    if not math.isfinite(x):
        raise DomainViolation(f"{what} is {x}, not a finite number")
    return significant(x)


def _witness_text(report) -> str | None:
    """The report's witness as JSON text; a non-finite number in it is a
    domain violation that names the check."""
    if report.witness is None:
        return None
    try:
        return json.dumps(report.witness, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DomainViolation(
            f"{report.axiom} :: {report.subject}: the witness holds a non-finite number"
        ) from None


def _payoff_dict(alloc) -> dict:
    return {
        str(p): _finite(x, f"payoff of player {p}")
        for p, x in zip(alloc.players, alloc.values)
    }


def _total(alloc, what: str = "payoff total") -> float:
    """fsum of the payoffs; an overflow is a domain violation."""
    try:
        return alloc.total()
    except OverflowError:
        raise DomainViolation(f"{what} overflows") from None


def _tol_from(args) -> Tolerance:
    if args.tol is None:
        return DEFAULT_TOL
    return Tolerance(args.tol)


def _cmd_solve(args) -> int:
    gf = load_game_file(args.game)
    anchor = _load_anchor(args.anchor)
    if args.operator and not args.benchmark:
        raise ValueError("--operator needs -f/--benchmark")
    if args.benchmark and not args.operator:
        raise ValueError("-f/--benchmark only applies with --operator")
    name = args.benchmark or args.solution
    f = named_solution(name, anchor)
    op = named_operator(args.operator, anchor) if args.operator else None
    sol = wrap(op, f) if op else f
    v = gf.game
    # under --operator the composed rule is the one that needs the structure
    structure = _structure(gf, sol, sol.name if args.operator else name)
    if not args.operator:
        out = sol(v, *structure)
        _emit(
            {
                "solution": name,
                "payoffs": _payoff_dict(out),
                "total": significant(_total(out)),
            }
        )
        return 0
    bench = f(v, *structure)

    def bench_at_v(w: Game, *at: object) -> Allocation:
        return bench if w is v else f.aligned(w, *at)

    # the operator, handed the benchmark payoffs already computed at v
    out = op(bench_at_v, v, *structure)
    _emit(
        {
            "operator": args.operator,
            "benchmark": name,
            "benchmark_payoffs": _payoff_dict(bench),
            "surplus": _finite(
                _total(out) - _total(bench, "benchmark total"), "surplus"
            ),
            "payoffs": _payoff_dict(out),
            "total": significant(_total(out)),
        }
    )
    return 0


def _cmd_check(args) -> int:
    from .axioms import check_axiom, check_theorem_suite

    corpus = _corpus_from_source(args.corpus)
    tol = _tol_from(args)
    anchor = _load_anchor(args.anchor)
    reports = []
    # every check of the command shares one memo
    with memo.scope("tugx check"):
        for suite in args.suite or ():
            reports.extend(check_theorem_suite(suite, corpus, tol))
        if args.axiom:
            if not args.target:
                raise ValueError("--axiom needs --target")
            reports.append(check_axiom(args.axiom, _subject(args, anchor), corpus, tol))
    if not reports:
        raise ValueError("nothing to check: pass --suite and/or --axiom")
    if args.strict:
        reports = [r if r.cases else replace(r, verdict="fail") for r in reports]
    failed = sum(1 for report in reports if not report.passed)
    # Every witness is rendered before anything is printed, so a non-finite
    # one ends the run with an empty stdout.
    witnesses = [_witness_text(report) for report in reports]
    if args.json:
        _emit({"failed": failed, "reports": [r.to_dict() for r in reports]})
        return 1 if failed else 0
    lines = []
    for report, witness in zip(reports, witnesses):
        lines.append(report.line())
        if witness is not None:  # only a failed report has one
            lines.append(witness)
    lines.append(f"{len(reports)} checks, {failed} failed")
    print("\n".join(lines))
    return 1 if failed else 0


def _random_partition(players: tuple[int, ...], rng: random.Random):
    labels = [rng.randrange(len(players)) for _ in players]
    groups: dict[int, list[int]] = {}
    for p, label in zip(players, labels):
        groups.setdefault(label, []).append(p)
    return make_partition(groups.values(), players)


def _cmd_gen(args) -> int:
    if args.profile not in PROFILES:
        raise ValueError(f"unknown profile {args.profile!r}")
    _check_count(args.count)
    sizes = _parse_sizes(args.sizes, "--sizes")
    os.makedirs(args.outdir, exist_ok=True)
    count = 0
    for n in sizes:
        players = tuple(range(1, n + 1))
        for i in range(args.count):
            file_seed = args.seed * 1000003 + n * 1009 + i
            game = random_game(players, seed=file_seed, profile=args.profile)
            rng = random.Random(file_seed ^ 0x5EED)
            graph = None
            partition = None
            if args.attach in ("graph", "both"):
                pairs = [p for p in combinations(players, 2) if rng.random() < 0.5]
                graph = Graph(players, frozenset(pairs))
            if args.attach in ("partition", "both"):
                partition = _random_partition(players, rng)
            name = f"game-n{n}-s{args.seed}-{i:03d}.json"
            with open(os.path.join(args.outdir, name), "w") as fh:
                fh.write(render_game_text(game, graph=graph, partition=partition))
            count += 1
    print(f"wrote {count} files to {args.outdir}")
    return 0


def _shapley_perm(gf: GameFile, args, tol: Tolerance) -> tuple:
    return shapley(gf.game), shapley_permutation_oracle(gf.game)


def _partition_brute(gf: GameFile, args, tol: Tolerance) -> tuple:
    return max_partition_value(gf.game).value, brute_force_partition_value(gf.game)


def _induction(default: str, op: Operator, solver, gf: GameFile, args, tol: Tolerance):
    """An induction oracle: op, an ess operator that reads a structure, over
    the benchmark -f names (default when absent), against the solver that
    rebuilds that extension from its axioms."""
    s = _structure(gf, op, args.name)
    F = named_solution(args.benchmark or default, reads=op.reads)
    return wrap(op, F)(gf.game, *s), solver(F, gf.game, *s, tol=tol)


# Each oracle: (game file, arguments, tolerance) -> (fast, reference), two
# allocations or two worths.  Rows look their functions up when called, so a
# wrapper installed over one after import, such as a tracer, sees the calls.
_ORACLES = {
    "shapley-perm": _shapley_perm,
    "partition-brute": _partition_brute,
    "fairness-induction": lambda *a: _induction(
        "myerson", GRAPH_ESS_OPERATOR, solve_by_fairness_induction, *a
    ),
    "cycle-induction": lambda *a: _induction(
        "aumann-dreze", PARTITION_ESS_OPERATOR, solve_by_cycle_balance_induction, *a
    ),
}


def _gaps(pairs) -> dict:
    """Largest absolute and relative gap over (fast, reference) pairs; the
    relative gap divides by the larger magnitude of the pair."""
    abs_gap = rel_gap = 0.0
    for a, b in pairs:
        gap = abs(a - b)
        abs_gap = max(abs_gap, gap)
        if gap:
            rel_gap = max(rel_gap, gap / max(abs(a), abs(b)))
    return {"max_abs_gap": significant(abs_gap), "max_rel_gap": significant(rel_gap)}


def _cmd_oracle(args) -> int:
    gf = load_game_file(args.game)
    tol = _tol_from(args)
    fast, ref = _ORACLES[args.name](gf, args, tol)
    if isinstance(fast, Allocation):
        match, show = allocations_close(fast, ref, tol), _payoff_dict
        pairs = zip(fast.values, ref.values)
    else:
        match, show = tol.eq(fast, ref), significant
        pairs = [(fast, ref)]
    _emit({
        "oracle": args.name,
        "match": match,
        "fast": show(fast),
        "reference": show(ref),
        **_gaps(pairs),
    })
    return 0 if match else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tugx",
        description="Surplus-sharing solutions, extensions, and property checks "
        "for cooperative games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="evaluate a solution on one game file")
    p.add_argument("game", help="path to a game .json file")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument(
        "-s",
        "--solution",
        help="solution name, e.g. shapley, ess, ps, ess[shapley], myerson, "
        "ee-aumann-dreze, weighted:0.5[standalone], anchored-ess[ess]",
    )
    how.add_argument(
        "--operator",
        help="operator name to apply to -f/--benchmark; also prints the "
        "benchmark payoffs and the surplus",
    )
    p.add_argument("-f", "--benchmark", help="benchmark name for --operator")
    p.add_argument("--anchor", help="game file for anchored-* solutions")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check", help="run property checks over a corpus")
    p.add_argument(
        "corpus",
        help="directory of game .json files, or gen:n=2-4,count=12,seed=7"
        "[,profile=general]",
    )
    p.add_argument(
        "--suite",
        action="append",
        help="theorem suite name (repeatable)",
    )
    p.add_argument("--axiom", help="single axiom id to check")
    p.add_argument("--target", help="subject name for --axiom")
    p.add_argument(
        "--kind", choices=tuple(SUBJECT_KINDS), help="force how --target is interpreted"
    )
    p.add_argument("--benchmark", help="benchmark name for relative axioms")
    p.add_argument("--pool", help="comma-separated benchmark pool for operators")
    p.add_argument("--anchor", help="game file for anchored-* targets")
    p.add_argument("--tol", type=float, help="absolute and relative tolerance")
    p.add_argument(
        "--json", action="store_true", help="emit reports as JSON instead of lines"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail a check that found no applicable case",
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("gen", help="write a reproducible corpus of game files")
    p.add_argument("outdir")
    p.add_argument("--sizes", default="2-4", help="player counts, e.g. 2,3 or 2-5")
    p.add_argument("--count", type=int, default=10, help="games per size")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", default=GENERAL, help="|".join(sorted(PROFILES)))
    p.add_argument(
        "--attach",
        choices=("none", "graph", "partition", "both"),
        default="none",
        help="attach random structures to each game",
    )
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("oracle", help="compare a fast path against a slow oracle")
    p.add_argument("game", help="path to a game .json file")
    p.add_argument("--name", required=True, choices=tuple(_ORACLES))
    p.add_argument(
        "-f",
        "--benchmark",
        help="benchmark for the induction oracles "
        "(default myerson / aumann-dreze)",
    )
    p.add_argument("--tol", type=float, help="absolute and relative tolerance")
    p.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout (`tugx check ... | head -1`).  Point the
        # descriptor at devnull so the interpreter's final flush succeeds,
        # and exit as a process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (TugxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a sum leaves the float range ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
