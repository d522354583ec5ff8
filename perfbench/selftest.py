"""Self-test of the benchmark's own code.

Run from the repository root with either

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection: the
tiny runs start a few dozen interpreters and take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def _result(p: subprocess.CompletedProcess) -> dict:
    assert p.returncode == 0, p.stderr[-2000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_emitted_metrics():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tiny_untraced_runs_emit_every_end_to_end_metric():
    units = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    for name in workloads.WORKLOADS:
        result = _result(_run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units, name
        assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_tiny_traced_runs_emit_every_per_layer_metric_and_repeat_calls():
    units = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    reached = set()
    for name in workloads.WORKLOADS:
        args = ("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny")
        first = _result(_run(*args))
        assert first["correct"] and first["failed"] == 0, name
        assert {k: v["unit"] for k, v in first["metrics"].items()} == units, name
        reached |= {k for k, v in first["metrics"].items() if v["value"] > 0}
        if name == "suite-sweep":
            second = _result(_run(*args))
            for metric, unit in units.items():
                if unit == "count":
                    assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
    assert {k for k, unit in units.items() if unit == "count"} <= reached


def test_shifted_payoff_is_a_failure():
    tugx = run.import_tugx()
    v = tugx.Game.from_table([1, 2, 3], {(1, 2): 1.0, (1, 2, 3): 3.0})
    alloc = tugx.shapley(v)
    ok, _, _ = workloads.check_allocation(alloc, v, alloc.values, v.grand, tugx.DEFAULT_TOL)
    assert ok
    shifted = tugx.Allocation(v.players, (alloc.values[0] + 1.0, *alloc.values[1:]))
    ok, cases, reason = workloads.check_allocation(shifted, v, alloc.values, v.grand, tugx.DEFAULT_TOL)
    assert not ok and cases == 0 and "sum" in reason

    ref = {"payoffs": workloads.sig_payoffs(alloc), "total": workloads.sig(alloc.total())}
    good = {"solution": "shapley", "payoffs": ref["payoffs"], "total": ref["total"]}
    bad = dict(good, payoffs=dict(ref["payoffs"], **{"1": ref["payoffs"]["1"] + 1.0}))
    want = workloads.want_payoffs("shapley", ref)
    assert workloads.check_cli_output((0, json.dumps(good), ""), want)[0]
    assert not workloads.check_cli_output((0, json.dumps(bad), ""), want)[0]
    assert not workloads.check_cli_output((2, json.dumps(good), "error: x"), want)[0]


def test_wrong_large_game_payoffs_with_the_right_total_fail():
    tugx = run.import_tugx()
    lg = workloads.LargeGames(seed=2, tiny=True)
    state = lg.setup(tugx)
    assert lg.setup_checks(state) == []
    ops = lg.cycle(state, 1)
    tally = run.Tally()
    for op in ops:
        tally.run(op)
    assert tally.failed == 0 and tally.attempted == len(ops)
    for op in ops:
        alloc = op.run()
        swapped = (alloc.values[1], alloc.values[0], *alloc.values[2:])
        ok, _, reason = op.check(tugx.Allocation(alloc.players, swapped))
        assert not ok and "expected" in reason, op.kind


def test_infinity_stub_is_counted_as_failed():
    tugx = run.import_tugx()
    cli = workloads.CliSession(seed=1, tiny=True)
    stub = "import sys; print('{\"solution\": \"shapley\", \"payoffs\": {\"1\": Infinity}, \"total\": Infinity}')"
    cli.command = [sys.executable, "-c", stub]
    try:
        state = cli.setup(tugx)
        tally = run.Tally()
        for op in cli.cycle(state, 0):
            tally.run(op)
        # gen prints no files, so the cycle stops after its first op
        assert tally.attempted == 1 and tally.failed == 1
        op = cli._op(state, "solve", ["solve", "x.json", "-s", "shapley"], lambda r: workloads.check_cli_output(r))
        tally.run(op)
        assert tally.failed == 2 and "strict JSON" in tally.reasons[-1]
    finally:
        cli.cleanup()


def test_vacuous_pass_is_a_failure():
    tugx = run.import_tugx()
    passed = tugx.AxiomReport("efficiency", "shapley", "pass", 3)
    vacuous = tugx.AxiomReport("efficiency", "shapley", "pass", 0)
    assert workloads.check_reports([passed]) == (True, 3, "")
    assert not workloads.check_reports([passed, vacuous])[0]
    assert not workloads.check_reports([])[0]


def test_checkout_without_sources_exits_nonzero():
    os.makedirs(workloads.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=workloads.OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        p = _run("--workload", "large-games", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert p.returncode != 0
        assert '"metrics"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [(k, f) for k, f in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
