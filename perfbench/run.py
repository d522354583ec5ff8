"""tugx benchmark: one workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload large-games --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics of the named workload for about
``--seconds`` seconds (whole cycles, at least enough ops for ten samples
beyond p90).  ``--trace 1`` instead runs a fixed slice of the named workload
traced, untraced and traced again, checks that both traced passes make the
same calls, and reports the per-layer metrics; spans and the full per-layer
table go to ``perfbench/out/``.  Every op's output is checked in both modes.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Fresh interpreters timed through set-up per run; setup_s is their median.
SETUP_SAMPLES = 7
IMPORT_REPEATS = 5

# What a set-up sample runs: from its first statement, import tugx and the
# workload code, then build the workload's inputs.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {here!r}]
import tugx, tugx.cli, workloads
workload = workloads.WORKLOADS[{name!r}]({seed!r}, {tiny!r})
workload.setup(tugx)
print(time.perf_counter() - start)
workload.cleanup()
"""


def import_tugx():
    if workloads.SRC not in sys.path:
        sys.path.insert(0, workloads.SRC)
    tugx = importlib.import_module("tugx")
    importlib.import_module("tugx.cli")
    return tugx


def setup_times(workload, samples: int) -> list[float]:
    """Set-up wall times of ``samples`` fresh interpreters, one after another."""
    code = SETUP_PROBE.format(
        src=workloads.SRC, here=HERE, name=workload.name, seed=workload.seed, tiny=workload.tiny
    )
    times = []
    for _ in range(samples):
        p = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=workloads.ROOT, timeout=60
        )
        if p.returncode != 0:
            raise RuntimeError(f"set-up failed: {p.stderr.strip()[-300:]}")
        times.append(float(p.stdout))
    return times


class Tally:
    """Latency samples, checked cases and failures of a series of ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.kinds: dict[str, list[float]] = {}
        self.cases = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, op, wrap=None) -> None:
        start = time.perf_counter()
        try:
            out = wrap(op) if wrap else op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.kinds.setdefault(op.kind, []).append(elapsed)
        if error is None:
            ok, cases, reason = op.check(out)
        else:
            ok, cases, reason = False, 0, error
        if ok:
            self.cases += cases
        else:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.kind}: {reason}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def peak_rss_mb() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, children


def measure(workload, seconds: float, samples: int) -> tuple[dict, list[str]]:
    """Time ``samples`` set-ups, then run whole cycles for about ``seconds``."""
    setups = setup_times(workload, samples)
    state = workload.setup(import_tugx())
    problems = workload.setup_checks(state)
    tally = Tally()
    cycle_times = []
    start = time.perf_counter()
    c = 0
    while True:
        if c and tally.attempted >= workload.min_ops:
            if time.perf_counter() - start + min(cycle_times) > seconds:
                break
        cycle_start = time.perf_counter()
        for op in workload.cycle(state, c):
            tally.run(op)
        cycle_times.append(time.perf_counter() - cycle_start)
        c += 1
    wall = time.perf_counter() - start
    setup_s = statistics.median(setups)
    own_mb, child_mb = peak_rss_mb()
    result = metrics.end_to_end(setup_s, tally.latencies, tally.cases, max(own_mb, child_mb))
    _, beyond = metrics.percentile_nearest_rank(tally.latencies, 0.9)
    lines = [f"workload {workload.name}: {c} cycles, {tally.attempted} ops in {wall:.2f} s"]
    lines += [f"  {name:<14} {m['value']:.6g} {m['unit']}" for name, m in result.items()]
    lines += [
        f"  {'fail_ratio':<14} {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})",
        f"  {'samples':<14} {tally.attempted} ({beyond} beyond p90)",
        f"  {'cases':<14} {tally.cases}",
        f"  {'rss':<14} benchmark {own_mb:.1f} MB, largest child {child_mb:.1f} MB",
        f"  {'setups':<14} " + " ".join(f"{t:.4f}" for t in setups) + " s",
        "  op kind medians (ms):",
    ]
    lines += [
        f"    {kind:<40} {statistics.median(ts) * 1e3:10.2f}  x{len(ts)}"
        for kind, ts in sorted(tally.kinds.items())
    ]
    lines += [f"  setup check failed: {p}" for p in problems]
    lines += [f"  op failed: {r}" for r in tally.reasons]
    summary = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }
    return summary, lines


# ---------------------------------------------------------------------------
# traced run


def cli_import_ms(repeats: int) -> float:
    code = (
        "import time; t = time.perf_counter(); import tugx.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        p = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=workloads.child_env(),
            timeout=60,
        )
        if p.returncode != 0:
            raise RuntimeError(f"importing tugx.cli failed: {p.stderr.strip()[-200:]}")
        times.append(float(p.stdout))
    return statistics.median(times) * 1e3


def _pass(tracer, name, ops, traced=False):
    """Run a slice once; traced passes trace each op (not its check) as a root span."""
    tally = Tally()
    tracer.reset()
    for k, op in enumerate(ops):
        if traced:
            tally.run(op, lambda op, k=k: tracer.op(k + 1, f"op.{name}.{op.kind}", op.run))
        else:
            tally.run(op)
    snap = tracer.snapshot()
    snap["wall_s"] = math.fsum(tally.latencies)
    snap["tally"] = tally
    return snap


def measure_traced(workload) -> tuple[dict, list[str]]:
    """Per-layer metrics of the workload's trace slice.

    The slice runs traced (``first``, which also warms allocations up),
    untraced, and traced again (``traced``, whose spans are kept and whose
    figures are reported); both traced passes must make the same calls.
    cli-session runs its slice in process through ``tugx.cli.main`` and then
    once more as subprocesses, untraced, for the process overhead.
    """
    name = workload.name
    tugx = import_tugx()
    state = workload.setup(tugx)
    problems = workload.setup_checks(state)
    is_cli = name == metrics.CLI
    if is_cli:
        state["run"] = lambda argv: workload.run_inprocess(tugx, argv)
    tracer = Tracer()
    tracer.install(tugx)
    out_dir = os.path.join(workloads.OUT, f"trace-{name}-seed{workload.seed}")
    os.makedirs(out_dir, exist_ok=True)
    first = _pass(tracer, name, workload.trace_slice(state), traced=True)
    untraced = _pass(tracer, name, workload.trace_slice(state))
    tracer.keep_spans = True
    traced = _pass(tracer, name, workload.trace_slice(state), traced=True)
    tracer.write_spans(os.path.join(out_dir, "spans.jsonl.gz"))
    tallies = [first["tally"], untraced["tally"], traced["tally"]]

    mismatched = [
        span
        for span in sorted(set(first["stats"]) | set(traced["stats"]))
        if first["stats"].get(span, [0])[0] != traced["stats"].get(span, [0])[0]
    ]
    problems += [f"calls differ between the traced passes at {m}" for m in mismatched[:10]]

    inproc = untraced["tally"]
    extra = {
        "overhead_ratio": (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"],
        "import_ms": cli_import_ms(IMPORT_REPEATS),
        "cases": traced["tally"].cases,
        "process_overhead_ms": 0.0,
    }
    for cmd in metrics.CLI_COMMANDS:
        times = [t for kind, ts in inproc.kinds.items() if kind.split(":")[0] == cmd for t in ts]
        extra[f"main.{cmd}.ms"] = statistics.fmean(times) * 1e3 if is_cli else 0.0
    if is_cli:
        state["run"] = workload.run_subprocess
        subproc = _pass(tracer, name, workload.trace_slice(state))
        tallies.append(subproc["tally"])
        extra["process_overhead_ms"] = (
            (subproc["wall_s"] - untraced["wall_s"]) / inproc.attempted * 1e3
        )
    traced["extra"] = extra
    result = metrics.per_layer(traced)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    with open(os.path.join(out_dir, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "seed": workload.seed,
                "untraced_wall_s": untraced["wall_s"],
                "traced_wall_s": traced["wall_s"],
                "spans": {
                    span: {"calls": st[0], "total_s": st[1] / 1e9, "self_s": st[2] / 1e9, "work": st[3]}
                    for span, st in sorted(traced["stats"].items())
                },
                "distinct": traced["distinct"],
                "counters": traced["counters"],
                "metrics": result,
            },
            fh,
            indent=1,
            sort_keys=True,
        )

    lines = [
        f"traced run of {name}, seed {workload.seed}: spans and per-layer table in "
        f"{os.path.relpath(out_dir, workloads.ROOT)}",
        f"  untraced {untraced['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s",
    ]
    top = sorted(traced["stats"].items(), key=lambda kv: -kv[1][2])[:12]
    for span, st in top:
        lines.append(f"    {span:<52} calls {st[0]:>8}  self {st[2] / 1e9:9.4f} s")
    lines += [f"  {m:<52} {r['value']:.6g} {r['unit']}" for m, r in result.items()]
    lines += [f"  check failed: {p}" for p in problems]
    lines += [f"  op failed: {r}" for t in tallies for r in t.reasons]
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }
    return summary, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs and few ops, for the self-test"
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.SRC, "tugx", "__init__.py")):
        print(f"error: no tugx sources under {workloads.SRC}", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        if args.trace:
            summary, lines = measure_traced(workload)
        else:
            summary, lines = measure(workload, args.seconds, 3 if args.tiny else SETUP_SAMPLES)
    finally:
        workload.cleanup()
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
