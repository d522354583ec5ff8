"""Command line front end.

Subcommands: solve a game file, run property checks over a corpus, generate
reproducible corpora, and cross-check fast paths against slow oracles.
Exit status 0 means success, 1 means a check or oracle comparison failed,
2 means the request itself was unusable (bad file, bad name, out of domain).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from itertools import combinations

from .axioms import (
    Corpus,
    Subject,
    check_axiom,
    check_theorem_suite,
    DEFAULT_BENCHMARKS,
    DEFAULT_GRAPH_BENCHMARKS,
    DEFAULT_PARTITION_BENCHMARKS,
)
from .coalition import (
    PARTITION_ESS_OPERATOR,
    make_partition,
    named_partition_solution,
    partition_ess_solution,
    solve_by_cycle_balance_induction,
)
from .comm import (
    GRAPH_ESS_OPERATOR,
    Graph,
    graph_ess_solution,
    named_graph_solution,
    solve_by_fairness_induction,
)
from .errors import (
    BadName,
    DomainViolation,
    MissingStructure,
    TugxError,
    UnknownName,
    check_name_depth,
)
from .games import DEFAULT_TOL, GENERAL, PROFILES, Game, Tolerance, random_game
from .io import GameFile, load_game_file, render_game_text, significant
from .operators import (
    anchored_ess_operator,
    anchored_ps_operator,
    brute_force_partition_value,
    max_partition_value,
    named_operator,
    wrap,
)
from .solutions import (
    allocations_close,
    named_solution,
    shapley,
    shapley_permutation_oracle,
)

_ANCHORED = {"anchored-ess": anchored_ess_operator, "anchored-ps": anchored_ps_operator}


def _parse_sizes(text: str) -> tuple[int, ...]:
    sizes: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if "-" in token:
            lo, hi = token.split("-", 1)
            sizes.extend(range(int(lo), int(hi) + 1))
        else:
            sizes.append(int(token))
    if not sizes:
        raise ValueError(f"no sizes in {text!r}")
    return tuple(sizes)


def _check_count(count: int) -> int:
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return count


def _corpus_from_source(source: str) -> Corpus:
    """Either `gen:n=2-4,count=12,seed=7[,profile=...]` or a directory."""
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
            sizes=_parse_sizes(fields["n"]),
            per_size=_check_count(int(fields["count"])),
            seed=int(fields["seed"]),
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


def _named_value_solution(name: str, anchor: Game | None):
    """named_solution plus anchored-operator spellings, which need --anchor."""
    check_name_depth(name)
    for prefix, make in _ANCHORED.items():
        if name.startswith(prefix + "[") and name.endswith("]"):
            if anchor is None:
                raise ValueError(f"{name!r} needs --anchor with a game file")
            inner = _named_value_solution(name[len(prefix) + 1 : -1], anchor)
            return wrap(make(anchor), inner)
    return named_solution(name)


def _named_plain_operator(name: str, anchor: Game | None):
    if name in _ANCHORED:
        if anchor is None:
            raise ValueError(f"{name!r} needs --anchor with a game file")
        return _ANCHORED[name](anchor)
    return named_operator(name)


_KIND_POOLS = {
    "operator": DEFAULT_BENCHMARKS,
    "graph-operator": DEFAULT_GRAPH_BENCHMARKS,
    "partition-operator": DEFAULT_PARTITION_BENCHMARKS,
}


def _resolve_target(name: str, kind: str | None, anchor: Game | None):
    resolvers = (
        ("value", lambda: _named_value_solution(name, anchor)),
        ("graph", lambda: named_graph_solution(name)),
        ("partition", lambda: named_partition_solution(name)),
        ("operator", lambda: _named_plain_operator(name, anchor)),
        ("graph-operator", lambda: {"graph-ess": GRAPH_ESS_OPERATOR}[name]),
        ("partition-operator", lambda: {"partition-ess": PARTITION_ESS_OPERATOR}[name]),
    )
    for found_kind, resolve in resolvers:
        if kind is not None and kind != found_kind:
            continue
        try:
            return found_kind, resolve()
        except (UnknownName, KeyError):
            continue
    raise UnknownName(f"no {kind or 'known'} target named {name!r}")


def _resolve_benchmark(name: str, kind: str, anchor: Game | None):
    if kind in ("value", "operator"):
        return _named_value_solution(name, anchor)
    if kind in ("graph", "graph-operator"):
        return named_graph_solution(name)
    return named_partition_solution(name)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False))


def _finite(x: float, what: str) -> float:
    """x rounded for output; a non-finite number is a domain violation."""
    if not math.isfinite(x):
        raise DomainViolation(f"{what} is {x}, not a finite number")
    return significant(x)


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
    return Tolerance(abs_eps=args.tol, rel_eps=args.tol)


def _solve_with_operator(args, gf: GameFile, anchor: Game | None) -> int:
    """Apply an operator to a named benchmark, showing both sides."""
    if not args.benchmark:
        raise ValueError("--operator needs -f/--benchmark")
    name = args.operator
    v = gf.game
    try:
        f = _named_value_solution(args.benchmark, anchor)
    except UnknownName as exc:
        value_err = exc if isinstance(exc, BadName) else None
        try:
            F = named_graph_solution(args.benchmark)
        except UnknownName:
            try:
                Fp = named_partition_solution(args.benchmark)
            except UnknownName:
                raise value_err or UnknownName(
                    f"no benchmark named {args.benchmark!r}"
                ) from None
            if name not in ("ess", "partition-ess"):
                raise UnknownName(f"no partition operator named {name!r}") from None
            if gf.partition is None:
                raise MissingStructure(
                    f"{args.benchmark!r} needs a partition in the game file"
                ) from None
            bench = Fp(v, gf.partition)
            out = PARTITION_ESS_OPERATOR(Fp, v, gf.partition)
        else:
            if name not in ("ess", "graph-ess"):
                raise UnknownName(f"no graph operator named {name!r}")
            if gf.graph is None:
                raise MissingStructure(
                    f"{args.benchmark!r} needs a graph in the game file"
                )
            bench = F(v, gf.graph)
            out = GRAPH_ESS_OPERATOR(F, v, gf.graph)
    else:
        op = _named_plain_operator(name, anchor)
        bench = f(v)
        out = op(f, v)
    _emit(
        {
            "operator": name,
            "benchmark": args.benchmark,
            "benchmark_payoffs": _payoff_dict(bench),
            "surplus": _finite(
                _total(out) - _total(bench, "benchmark total"), "surplus"
            ),
            "payoffs": _payoff_dict(out),
            "total": significant(_total(out)),
        }
    )
    return 0


def _cmd_solve(args) -> int:
    gf = load_game_file(args.game)
    anchor = _load_anchor(args.anchor)
    if args.operator:
        return _solve_with_operator(args, gf, anchor)
    if args.benchmark:
        raise ValueError("-f/--benchmark only applies with --operator")
    name = args.solution
    try:
        sol = _named_value_solution(name, anchor)
        out = sol(gf.game)
    except UnknownName as exc:
        # a specific reason (bad parameter, nesting too deep) beats the generic one
        value_err = exc if isinstance(exc, BadName) else None
        try:
            gsol = named_graph_solution(name)
        except UnknownName:
            try:
                psol = named_partition_solution(name)
            except UnknownName:
                raise value_err or UnknownName(f"no solution named {name!r}") from None
            if gf.partition is None:
                raise MissingStructure(
                    f"{name!r} needs a partition in the game file"
                ) from None
            out = psol(gf.game, gf.partition)
        else:
            if gf.graph is None:
                raise MissingStructure(f"{name!r} needs a graph in the game file")
            out = gsol(gf.game, gf.graph)
    _emit(
        {
            "solution": name,
            "payoffs": _payoff_dict(out),
            "total": significant(_total(out)),
        }
    )
    return 0


def _cmd_check(args) -> int:
    corpus = _corpus_from_source(args.corpus)
    tol = _tol_from(args)
    anchor = _load_anchor(args.anchor)
    reports = []
    for suite in args.suite or ():
        reports.extend(check_theorem_suite(suite, corpus, tol))
    if args.axiom:
        if not args.target:
            raise ValueError("--axiom needs --target")
        kind, target = _resolve_target(args.target, args.kind, anchor)
        benchmark = None
        if args.benchmark:
            benchmark = _resolve_benchmark(args.benchmark, kind, anchor)
        pool = _KIND_POOLS.get(kind, ())
        if args.pool:
            pool = tuple(
                _resolve_benchmark(n.strip(), kind, anchor)
                for n in args.pool.split(",")
            )
        reports.append(
            check_axiom(args.axiom, Subject(kind, target, benchmark, pool), corpus, tol)
        )
    if not reports:
        raise ValueError("nothing to check: pass --suite and/or --axiom")
    failed = sum(1 for report in reports if not report.passed)
    if args.json:
        _emit({"failed": failed, "reports": [r.to_dict() for r in reports]})
        return 1 if failed else 0
    for report in reports:
        print(report.line())
        if not report.passed and report.witness is not None:
            print(json.dumps(report.witness, indent=2, sort_keys=True))
    print(f"{len(reports)} checks, {failed} failed")
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
    os.makedirs(args.outdir, exist_ok=True)
    count = 0
    for n in _parse_sizes(args.sizes):
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


def _cmd_oracle(args) -> int:
    gf = load_game_file(args.game)
    v = gf.game
    tol = _tol_from(args)
    name = args.name
    if name == "shapley-perm":
        fast = shapley(v)
        ref = shapley_permutation_oracle(v)
        match = allocations_close(fast, ref, tol)
        payload = {"fast": _payoff_dict(fast), "reference": _payoff_dict(ref)}
    elif name == "partition-brute":
        fast_value = max_partition_value(v).value
        ref_value = brute_force_partition_value(v)
        match = tol.eq(fast_value, ref_value)
        payload = {"fast": significant(fast_value), "reference": significant(ref_value)}
    elif name == "fairness-induction":
        if gf.graph is None:
            raise MissingStructure("fairness-induction needs a graph in the game file")
        F = named_graph_solution(args.benchmark or "myerson")
        fast = graph_ess_solution(F)(v, gf.graph)
        ref = solve_by_fairness_induction(F, v, gf.graph, tol=tol)
        match = allocations_close(fast, ref, tol)
        payload = {"fast": _payoff_dict(fast), "reference": _payoff_dict(ref)}
    elif name == "cycle-induction":
        if gf.partition is None:
            raise MissingStructure("cycle-induction needs a partition in the game file")
        F = named_partition_solution(args.benchmark or "aumann-dreze")
        fast = partition_ess_solution(F)(v, gf.partition)
        ref = solve_by_cycle_balance_induction(F, v, gf.partition, tol=tol)
        match = allocations_close(fast, ref, tol)
        payload = {"fast": _payoff_dict(fast), "reference": _payoff_dict(ref)}
    else:
        raise UnknownName(f"unknown oracle {name!r}")
    payload["oracle"] = name
    payload["match"] = match
    _emit(payload)
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
        "--kind",
        choices=(
            "value",
            "graph",
            "partition",
            "operator",
            "graph-operator",
            "partition-operator",
        ),
        help="force how --target is interpreted",
    )
    p.add_argument("--benchmark", help="benchmark name for relative axioms")
    p.add_argument("--pool", help="comma-separated benchmark pool for operators")
    p.add_argument("--anchor", help="game file for anchored-* targets")
    p.add_argument("--tol", type=float, help="absolute and relative tolerance")
    p.add_argument(
        "--json", action="store_true", help="emit reports as JSON instead of lines"
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
    p.add_argument(
        "--name",
        required=True,
        choices=(
            "shapley-perm",
            "partition-brute",
            "fairness-induction",
            "cycle-induction",
        ),
    )
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
        return args.fn(args)
    except TugxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a sum leaves the float range ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
