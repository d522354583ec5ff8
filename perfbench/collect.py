"""Run the benchmark over several seeds and summarize each metric.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --label seed-c957dca \
        --out perfbench/trajectory/BENCH_seed-c957dca.json

For every workload of ``BENCHMARK.json`` and every seed it runs ``run.py`` untraced for
``BENCHMARK.json``'s ``run_seconds``, one run after another, and reports
each end-to-end metric's median, quartiles (``statistics.quantiles(values,
n=4)``) and spread, the distance between the quartiles as a share of the
median.  With ``--trace-seed`` it also makes two traced runs of that seed
per workload and checks that their ``calls`` counts agree.  ``--against``
compares the medians with those of an earlier point, metric by metric,
against the metric's bound.  ``--out`` writes everything as one trajectory
point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for token in text.split(","):
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    wall = time.perf_counter() - start
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    log_dir = os.path.join(HERE, "out", "collect")
    os.makedirs(log_dir, exist_ok=True)
    with open(os.path.join(log_dir, f"{workload}-seed{seed}-trace{trace}.txt"), "w") as fh:
        fh.write(p.stdout)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def git_commit() -> str | None:
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
        )
    except OSError:
        return None
    return p.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--label", default=None)
    parser.add_argument("--against", default=None, help="an earlier trajectory point to compare with")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    point = {
        "label": args.label,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    worst = 0.0
    for workload in names:
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, 0)
            runs.append(r)
            print(
                f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}/"
                f"{r['attempted']} wall={r['wall_s']:.1f}s",
                flush=True,
            )
        stats = {}
        for name in runs[0]["metrics"]:
            stats[name] = summarize([r["metrics"][name]["value"] for r in runs])
            stats[name]["unit"] = runs[0]["metrics"][name]["unit"]
        point["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": stats,
        }
        print(f"{workload}: median [q1, q3] spread (bound)")
        for name, s in stats.items():
            bound = bounds.get(name)
            ratio = s["spread"] / bound if bound and s["spread"] is not None else 0.0
            if name != "setup_s":
                worst = max(worst, ratio)
            print(
                f"  {name:<14} {s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                f"{s['spread']:.4f} ({bound}) {s['unit']}  spread/bound {ratio:.2f}"
            )
    if args.trace_seed is not None:
        point["trace"] = {"seed": args.trace_seed}
        for workload in names:
            first = run_once(workload, args.trace_seed, seconds, 1)
            second = run_once(workload, args.trace_seed, seconds, 1)
            calls = [n for n in first["metrics"] if n.endswith(".calls")]
            differ = [n for n in calls if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
            point["trace"][workload] = {
                "correct": first["correct"] and second["correct"],
                "calls_repeat": not differ,
                "wall_s": [round(first["wall_s"], 2), round(second["wall_s"], 2)],
                "metrics": first["metrics"],
            }
            print(f"{workload} traced runs: calls repeat exactly: {not differ} {differ}")
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
        point["against"] = {"label": earlier.get("label"), "workloads": {}}
        print(f"medians against {earlier.get('label')}: (this - earlier) / earlier (bound)")
        for workload, now in point["workloads"].items():
            then = earlier["workloads"][workload]["metrics"]
            shifts = {}
            for name, s in now["metrics"].items():
                shift = (s["median"] - then[name]["median"]) / then[name]["median"]
                shifts[name] = shift
                within = abs(shift) <= bounds[name]
                print(f"  {workload:<12} {name:<14} {shift:+.4f} ({bounds[name]}) {'ok' if within else 'OUTSIDE'}")
            point["against"]["workloads"][workload] = shifts
    print(f"largest spread/bound, setup_s aside: {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
