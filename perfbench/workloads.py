"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Ops come in cycles whose composition is fixed, so
that latency percentiles sit at the same place in the mix whatever the number
of cycles a run completes.  Inputs come from the workload seed through the
benchmark's own generators (``random.Random`` seeded with a string), never
from tugx's generators, so a change to the package cannot change what the
benchmark feeds it.  The exceptions are ``Corpus.build`` in ``suite-sweep``
and ``tugx gen`` in ``cli-session``: building the corpus and writing game
files are part of what those workloads measure.

An op is ``run`` (timed) plus ``check`` (untimed).  ``check`` returns
``(ok, cases, reason)``; an op fails on an exception, a nonzero exit, a wrong
output or a vacuous pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# The large-games rule mix, with the registry a user looks each name up in.
RULES = (
    ("shapley", "value"),
    ("ee-myerson", "graph"),
    ("ee-aumann-dreze", "partition"),
    ("cohesive-ess[standalone]", "value"),
)
COHESIVE = "cohesive-ess[standalone]"
SIG_DIGITS = ".12g"


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports tugx from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def lookup(tugx, name: str, family: str):
    registry = {
        "value": tugx.named_solution,
        "graph": tugx.named_graph_solution,
        "partition": tugx.named_partition_solution,
    }[family]
    return registry(name)


# ---------------------------------------------------------------------------
# input generators (benchmark-owned)


def players(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def positive_worths(rng: random.Random, n: int) -> list[float]:
    """The positive-singletons profile: worths in [|S|/8, 2|S|] on a 1/64 grid."""
    worth = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        worth[mask] = rng.randrange(8, 129) * mask.bit_count() / 64
    return worth


def permuted_worths(worth, perm: list[int]) -> list[float]:
    """Relabel a worth table: bit k of the old table becomes bit perm[k]."""
    size = len(worth)
    image = [0] * size
    out = [0.0] * size
    for mask in range(1, size):
        low = mask & -mask
        image[mask] = image[mask ^ low] | (1 << perm[low.bit_length() - 1])
        out[image[mask]] = worth[mask]
    return out


def path_links(rng: random.Random, n: int) -> list[tuple[int, int]]:
    order = list(players(n))
    rng.shuffle(order)
    return list(zip(order, order[1:]))


def random_links(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    ps = players(n)
    return [(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :] if rng.random() < density]


def balanced_blocks(rng: random.Random, n: int, blocks: int) -> list[list[int]]:
    order = list(players(n))
    rng.shuffle(order)
    return [sorted(order[k::blocks]) for k in range(blocks)]


def restricted_worths(worth, n: int, links) -> list[float]:
    """Each coalition's worth is the sum over its connected parts.

    The part holding a coalition's lowest player is found by search; the
    rest of the coalition is a smaller mask whose worth is already known.
    """
    adj = [0] * n
    for a, b in links:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    out = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        comp = frontier = mask & -mask
        while frontier:
            k = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[k] & mask & ~comp
            comp |= new
            frontier |= new
        out[mask] = worth[comp] + out[mask ^ comp]
    return out


def sub_worths(worth, block) -> list[float]:
    bits = [p - 1 for p in sorted(block)]
    out = []
    for sub in range(1 << len(bits)):
        mask = 0
        for t, k in enumerate(bits):
            if sub >> t & 1:
                mask |= 1 << k
        out.append(worth[mask])
    return out


def shapley_values(worth, n: int) -> list[float]:
    """Shapley value by the subset formula: one weighted marginal per coalition."""
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s] * fact[n - 1 - s] / fact[n] for s in range(n)]
    out = []
    for k in range(n):
        bit = 1 << k
        out.append(
            math.fsum(
                weight[m.bit_count()] * (worth[m | bit] - worth[m])
                for m in range(1 << n)
                if not m & bit
            )
        )
    return out


def best_partition_worth(worth, n: int) -> float:
    """Best total worth over all partitions of the players.

    The block holding a coalition's lowest player is the coalition minus one
    of the submasks of the other players, taken largest first.
    """
    best = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        rest = mask & (mask - 1)
        top = worth[mask]
        other = rest
        while other:
            cand = worth[mask ^ other] + best[other]
            if cand > top:
                top = cand
            other = (other - 1) & rest
        best[mask] = top
    return best[-1]


def spread_surplus(values, target: float) -> list[float]:
    """Add an equal share of ``target`` minus the payoff total to every payoff."""
    share = (target - math.fsum(values)) / len(values)
    return [x + share for x in values]


def expected_payoffs(rule: str, worth, n: int, links, blocks, shapley_of, best: float):
    """Payoffs of a large-games rule from worth tables the benchmark builds.

    ``shapley_of(worth, players)`` gives the Shapley value of a table over
    ``players``; ``best`` is the best-partition worth.
    """
    if rule == "shapley":
        return list(shapley_of(worth, players(n)))
    if rule == "ee-myerson":
        return spread_surplus(shapley_of(restricted_worths(worth, n, links), players(n)), worth[-1])
    if rule == "ee-aumann-dreze":
        blockwise = {}
        for b in blocks:
            blockwise.update(zip(b, shapley_of(sub_worths(worth, b), tuple(b))))
        return spread_surplus([blockwise[p] for p in players(n)], worth[-1])
    if rule == COHESIVE:
        return spread_surplus([worth[1 << k] for k in range(n)], best)
    raise ValueError(f"no reference for rule {rule!r}")


def permute_links(links, perm: list[int]) -> list[tuple[int, int]]:
    return [(perm[a - 1] + 1, perm[b - 1] + 1) for a, b in links]


def permute_blocks(blocks, perm: list[int]) -> list[list[int]]:
    return [sorted(perm[p - 1] + 1 for p in b) for b in blocks]


def game_file_text(worth, n: int, links=None, blocks=None) -> str:
    payload = {
        "players": list(players(n)),
        "worths": [
            {"coalition": [p for p in players(n) if m >> (p - 1) & 1], "value": worth[m]}
            for m in range(1, 1 << n)
            if worth[m] != 0.0
        ],
    }
    if links is not None:
        payload["graph"] = [list(link) for link in sorted(links)]
    if blocks is not None:
        payload["partition"] = [sorted(b) for b in blocks]
    return json.dumps(payload, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# output checks


def check_allocation(alloc, v, expected, target, tol) -> tuple[bool, int, str]:
    """Payoffs aligned with the players, finite, summing to ``target`` and
    each within ``tol`` of ``expected``."""
    if tuple(alloc.players) != tuple(v.players):
        return False, 0, "payoffs not aligned with players"
    if not all(math.isfinite(x) for x in alloc.values):
        return False, 0, "non-finite payoff"
    total = math.fsum(alloc.values)
    if not tol.eq(total, target):
        return False, 0, f"payoffs sum to {total!r}, target {target!r}"
    for p, got, want in zip(alloc.players, alloc.values, expected):
        if not tol.eq(got, want):
            return False, 0, f"payoff of player {p} is {got!r}, expected {want!r}"
    return True, 1, ""


def check_reports(reports) -> tuple[bool, int, str]:
    if not reports:
        return False, 0, "no reports"
    for r in reports:
        if not r.passed:
            return False, 0, f"{r.axiom} :: {r.subject} failed"
        if r.cases <= 0:
            return False, 0, f"{r.axiom} :: {r.subject} passed vacuously"
    return True, sum(r.cases for r in reports), ""


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting Infinity and NaN."""
    return json.loads(text, parse_constant=_reject_constant)


def sig(x: float) -> float:
    return float(format(float(x), SIG_DIGITS))


def sig_payoffs(alloc) -> dict[str, float]:
    return {str(p): sig(x) for p, x in zip(alloc.players, alloc.values)}


def check_cli_output(result, want=None) -> tuple[bool, int, str]:
    """Exit status 0 and strict JSON on stdout; then the command's own test.

    ``want`` is a function of the parsed object returning a reason string
    (empty when correct).
    """
    code, out, err = result
    if code != 0:
        return False, 0, f"exit {code}: {err.strip()[-200:]}"
    try:
        obj = strict_json(out)
    except ValueError as exc:
        return False, 0, f"stdout is not strict JSON: {exc}"
    reason = want(obj) if want is not None else ""
    return (not reason), (0 if reason else 1), reason


def want_payoffs(rule: str, ref: dict):
    def want(obj) -> str:
        if obj.get("solution") != rule:
            return f"solution {obj.get('solution')!r}, expected {rule!r}"
        if obj.get("payoffs") != ref["payoffs"]:
            return f"payoffs {obj.get('payoffs')} differ from the library's {ref['payoffs']}"
        if obj.get("total") != ref["total"]:
            return f"total {obj.get('total')} differs from the library's {ref['total']}"
        return ""

    return want


def want_match(name: str):
    def want(obj) -> str:
        if obj.get("oracle") != name:
            return f"oracle {obj.get('oracle')!r}, expected {name!r}"
        if obj.get("match") is not True:
            return "oracle reports no match"
        return ""

    return want


def want_clean_check(obj) -> str:
    if obj.get("failed") != 0:
        return f"{obj.get('failed')} checks failed"
    reports = obj.get("reports") or []
    if not reports:
        return "no reports"
    for r in reports:
        if r.get("verdict") != "pass" or not r.get("cases"):
            return f"{r.get('axiom')} :: {r.get('subject')} failed or was vacuous"
    return ""


# ---------------------------------------------------------------------------
# large-games


class LargeGames:
    """Exponential kernels at n = 12, 14, 16; axioms, io and cli stay idle.

    A cycle holds, for each n, ``count`` games (6, 3 and 1), and every game
    is solved under each of the four rules.  Per n the seed gives one worth
    table, two graphs (a path and a random graph of density 0.3) and two
    partitions (2 and 3 blocks); each game relabels the table, and the graph
    and partition it alternates between, by a seeded permutation of the
    players.  Kernel cost does not depend on the labels, relabeled games are
    distinct inputs, and every op is checked against the relabeled payoffs
    of its base game, which the benchmark computes itself, untimed, once per
    n, rule and base structure.
    """

    name = "large-games"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.counts = {6: 2, 7: 1, 8: 1} if tiny else {12: 6, 14: 3, 16: 1}
        self.check_n = 6 if tiny else 8
        self.min_ops = 8 if tiny else 100
        # Reference payoffs per (n, rule, base structure), in base labels.
        self.refs: dict[tuple, list[float]] = {}
        self.best: dict[int, float] = {}

    def _rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed, *parts))))

    def setup(self, tugx) -> dict:
        base = {}
        for n in self.counts:
            rng = self._rng("base", n)
            base[n] = {
                "game": tugx.Game(players(n), tuple(positive_worths(rng, n))),
                "links": (path_links(rng, n), random_links(rng, n, 0.3)),
                "blocks": (balanced_blocks(rng, n, 2), balanced_blocks(rng, n, 3)),
            }
        for name, family in RULES:
            lookup(tugx, name, family)
        return {"tugx": tugx, "base": base}

    def _reference(self, state, n: int, rule: str, g: int, b: int) -> tuple[list[float], float]:
        """Base-label payoffs of ``rule`` and the total they sum to."""
        base = state["base"][n]
        worth = base["game"].worth
        if n not in self.best:
            self.best[n] = best_partition_worth(worth, n)
        key = (n, rule, g if rule == "ee-myerson" else 0, b if rule == "ee-aumann-dreze" else 0)
        if key not in self.refs:
            self.refs[key] = expected_payoffs(
                rule, worth, n, base["links"][g], base["blocks"][b],
                lambda table, ps: shapley_values(table, len(ps)), self.best[n],
            )
        return self.refs[key], (self.best[n] if rule == COHESIVE else worth[-1])

    def _ops(self, state, c: int, counts: dict[int, int]) -> list[Op]:
        tugx = state["tugx"]
        rng = self._rng("cycle", c)
        ops = []
        for n, count in counts.items():
            base = state["base"][n]
            for j in range(count):
                perm = list(range(n))
                rng.shuffle(perm)
                v = tugx.Game(players(n), tuple(permuted_worths(base["game"].worth, perm)))
                g, b = (c * count + j) % 2, (c + j) % 2
                graph = tugx.Graph.from_pairs(v.players, permute_links(base["links"][g], perm))
                partition = tugx.make_partition(permute_blocks(base["blocks"][b], perm), v.players)
                structure = {"value": (), "graph": (graph,), "partition": (partition,)}
                for rule, family in RULES:
                    args = (v, *structure[family])

                    def run(rule=rule, family=family, args=args):
                        return lookup(tugx, rule, family)(*args)

                    def check(alloc, n=n, rule=rule, g=g, b=b, perm=perm, v=v):
                        ref, target = self._reference(state, n, rule, g, b)
                        expected = [0.0] * n
                        for k, x in enumerate(ref):
                            expected[perm[k]] = x
                        return check_allocation(alloc, v, expected, target, tugx.DEFAULT_TOL)

                    ops.append(Op(f"{rule}@n{n}", run, check))
        return ops

    def cycle(self, state, c: int) -> list[Op]:
        return self._ops(state, c, self.counts)

    def trace_slice(self, state) -> list[Op]:
        """One game per n, each under every rule."""
        return self._ops(state, 0, {n: 1 for n in self.counts})

    def cleanup(self) -> None:
        pass

    def setup_checks(self, state) -> list[str]:
        """The op paths on a small game agree with the slow oracles; then the
        references for the large games are computed."""
        tugx = state["tugx"]
        tol = tugx.DEFAULT_TOL
        n = self.check_n
        rng = self._rng("oracle-check")
        worth = positive_worths(rng, n)
        v = tugx.Game(players(n), tuple(worth))
        links = random_links(rng, n, 0.3)
        blocks = balanced_blocks(rng, n, 2)
        graph = tugx.Graph.from_pairs(v.players, links)
        partition = tugx.make_partition(blocks, v.players)

        def oracle(table, ps):
            return tugx.shapley_permutation_oracle(tugx.Game(tuple(ps), tuple(table))).values

        best = tugx.brute_force_partition_value(v)
        structure = {"value": (), "graph": (graph,), "partition": (partition,)}
        problems = []
        for rule, family in RULES:
            want = expected_payoffs(rule, worth, n, links, blocks, oracle, best)
            got = lookup(tugx, rule, family)(v, *structure[family])
            if not tugx.allocations_close(got, tugx.Allocation(v.players, tuple(want)), tol):
                problems.append(f"{rule} at n={n} disagrees with the oracle")
            mine = expected_payoffs(
                rule, worth, n, links, blocks,
                lambda table, ps: shapley_values(table, len(ps)), best_partition_worth(worth, n),
            )
            if not all(tol.eq(x, y) for x, y in zip(mine, want)):
                problems.append(f"the benchmark's own {rule} reference at n={n} disagrees with the oracle")
        for n in self.counts:
            for rule, _ in RULES:
                for g in range(2):
                    for b in range(2):
                        self._reference(state, n, rule, g, b)
        return problems


# ---------------------------------------------------------------------------
# suite-sweep


class SuiteSweep:
    """All seven theorem suites over corpus shards of 2-6 player games.

    A cycle is one shard from ``Corpus.build(sizes=(2, 3, 4, 5, 6),
    per_size=1)`` with a seed drawn from the workload seed, and one op per
    suite.  The axiom harness, game construction, subgames and rule dispatch
    dominate; the exponential kernels stay cheap at these sizes.
    """

    name = "suite-sweep"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.sizes = (2, 3) if tiny else (2, 3, 4, 5, 6)
        self.min_ops = 7 if tiny else 100

    def _shard(self, tugx, c: int):
        rng = random.Random(f"{self.name}:{self.seed}:{c}")
        return tugx.Corpus.build(sizes=self.sizes, per_size=1, seed=rng.randrange(2**31))

    def setup(self, tugx) -> dict:
        return {"tugx": tugx, "shard0": self._shard(tugx, 0)}

    def cycle(self, state, c: int) -> list[Op]:
        tugx = state["tugx"]
        shard = state["shard0"] if c == 0 else self._shard(tugx, c)
        return [
            Op(suite, lambda suite=suite: tugx.check_theorem_suite(suite, shard), check_reports)
            for suite in tugx.THEOREM_SUITES
        ]

    def trace_slice(self, state) -> list[Op]:
        return self.cycle(state, 0)

    def setup_checks(self, state) -> list[str]:
        return []

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli-session


class CliSession:
    """One ``python -m tugx`` process per op.

    A cycle is: one ``gen`` writing game files of sizes 8, 10, 12 and 14 with
    a graph and a partition; ``solve`` on every file under each large-games
    rule; the four oracles, each on an input inside its cap
    (``shapley-perm`` n = 8, ``partition-brute`` n = 10, ``cycle-induction``
    n = 12 from the generated files; ``fairness-induction`` on a
    benchmark-written n = 8 game with 9 links); and one small ``check``.
    Even sizes only keep the five cycles that make the 100 ops a run needs
    within about half a minute.  Every cycle writes the same
    files, so the in-process reference payoffs are computed once per run.
    """

    name = "cli-session"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.gen_sizes = (5, 6, 7) if tiny else (8, 10, 12, 14)
        self.oracles = (
            ("shapley-perm", 5 if tiny else 8),
            ("partition-brute", 6 if tiny else 10),
            ("cycle-induction", 7 if tiny else 12),
        )
        self.fair_n, self.fair_links = (5, 5) if tiny else (8, 9)
        self.check_source = "n=2-3,count=1" if tiny else "n=2-4,count=3"
        self.min_ops = 10 if tiny else 100
        self.command = [sys.executable, "-m", "tugx"]
        self.workdir = os.path.join(OUT, f"{self.name}-{os.getpid()}")
        # Library payoffs per (file digest, rule); set-ups repeat, this stays.
        self.refs: dict[tuple[str, str], dict] = {}

    def _rng(self, *parts) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed, *parts))))

    def setup(self, tugx) -> dict:
        gen_dir = os.path.join(self.workdir, "gen")
        os.makedirs(gen_dir, exist_ok=True)
        rng = self._rng("fairness")
        n = self.fair_n
        links = path_links(rng, n)
        chords = [
            (a, b)
            for i, a in enumerate(players(n))
            for b in players(n)[i + 1 :]
            if (a, b) not in links and (b, a) not in links
        ]
        rng.shuffle(chords)
        links = [tuple(sorted(link)) for link in links] + chords[: self.fair_links - len(links)]
        fair = os.path.join(self.workdir, f"fair-n{n}.json")
        with open(fair, "w", encoding="utf-8") as fh:
            fh.write(game_file_text(positive_worths(rng, n), n, links=links))
        return {
            "tugx": tugx,
            "gen_dir": gen_dir,
            "fair": fair,
            "gen_seed": self._rng("gen").randrange(10**6),
            "check_seed": self._rng("check").randrange(10**6),
            "files": {},
            "run": self.run_subprocess,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- running ----------------------------------------------------------

    def run_subprocess(self, argv):
        p = subprocess.run(
            [*self.command, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=150,
        )
        return p.returncode, p.stdout, p.stderr

    @staticmethod
    def run_inprocess(tugx, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tugx.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    # -- references ---------------------------------------------------------

    def _read_gen_files(self, state) -> str:
        """Parse every generated file strictly; record them by player count."""
        files = {}
        for name in sorted(os.listdir(state["gen_dir"])):
            path = os.path.join(state["gen_dir"], name)
            with open(path, "rb") as fh:
                raw = fh.read()
            try:
                obj = strict_json(raw.decode("utf-8"))
            except ValueError as exc:
                return f"{name}: {exc}"
            n = len(obj.get("players", ()))
            if obj.get("players") != list(players(n)):
                return f"{name}: unexpected players {obj.get('players')}"
            if "graph" not in obj or "partition" not in obj:
                return f"{name}: no graph or partition attached"
            if len(obj.get("worths", ())) != (1 << n) - 1:
                return f"{name}: {len(obj.get('worths', ()))} worths for n={n}"
            files[n] = (path, hashlib.sha1(raw).hexdigest(), raw.decode("utf-8"))
        if tuple(sorted(files)) != self.gen_sizes:
            return f"generated sizes {sorted(files)}, expected {self.gen_sizes}"
        state["files"] = files
        return ""

    def _reference(self, state, n: int, rule: str, family: str) -> dict:
        path, digest, text = state["files"][n]
        key = (digest, rule)
        if key not in self.refs:
            tugx = state["tugx"]
            gf = tugx.parse_game_text(text)
            structure = {"value": (), "graph": (gf.graph,), "partition": (gf.partition,)}
            alloc = lookup(tugx, rule, family)(gf.game, *structure[family])
            self.refs[key] = {"payoffs": sig_payoffs(alloc), "total": sig(alloc.total())}
        return self.refs[key]

    # -- ops ----------------------------------------------------------------

    def _op(self, state, kind, argv, check) -> Op:
        run = state["run"]
        return Op(kind, lambda: run(argv), check)

    def cycle(self, state, c: int):
        """Yield the cycle's ops; solves are listed from what gen wrote."""
        gen_dir = state["gen_dir"]
        shutil.rmtree(gen_dir, ignore_errors=True)
        os.makedirs(gen_dir)
        gen_argv = [
            "gen", gen_dir, "--sizes", ",".join(map(str, self.gen_sizes)), "--count", "1",
            "--seed", str(state["gen_seed"]), "--attach", "both",
            "--profile", "positive-singletons",
        ]

        def check_gen(result):
            code, out, err = result
            if code != 0:
                return False, 0, f"exit {code}: {err.strip()[-200:]}"
            reason = self._read_gen_files(state)
            return (not reason), (0 if reason else 1), reason

        state["files"] = {}
        yield self._op(state, "gen", gen_argv, check_gen)
        files = state["files"]
        if not files:
            return
        for n in sorted(files):
            for rule, family in RULES:

                def check(result, n=n, rule=rule, family=family):
                    ref = self._reference(state, n, rule, family)
                    return check_cli_output(result, want_payoffs(rule, ref))

                yield self._op(state, f"solve:{rule}@n{n}", ["solve", files[n][0], "-s", rule], check)
        for name, n in self.oracles:
            argv = ["oracle", files[n][0], "--name", name]
            yield self._op(state, f"oracle:{name}", argv, lambda r, name=name: check_cli_output(r, want_match(name)))
        argv = ["oracle", state["fair"], "--name", "fairness-induction"]
        yield self._op(
            state, "oracle:fairness-induction", argv,
            lambda r: check_cli_output(r, want_match("fairness-induction")),
        )
        source = f"gen:{self.check_source},seed={state['check_seed']}"
        argv = ["check", source, "--suite", "network-extension", "--json"]
        yield self._op(state, "check", argv, lambda r: check_cli_output(r, want_clean_check))

    def trace_slice(self, state):
        return self.cycle(state, 0)

    def setup_checks(self, state) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (LargeGames, SuiteSweep, CliSession)}
