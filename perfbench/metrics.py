"""Metric names, units and how each one is computed.

End-to-end metrics come from untraced runs of one workload.  Per-layer
metrics come from the traced run of one workload's fixed slice; every
workload reports all of them, and a layer the workload does not reach reads
0.  ``calls`` figures repeat exactly for a seed; times are self time (span duration minus child spans) unless
named ``total_s``; ``ns_per_*`` figures are computed from self time and the
nominal work of each call's input size.
"""

from __future__ import annotations

import math
import statistics

from tracer import RULE_SPAN_PREFIX

CLI = "cli-session"

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("cases_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

SUITES = (
    "surplus-values",
    "surplus-operators",
    "network-extension",
    "network-operators",
    "partition-extension",
    "partition-operators",
    "cohesive-operators",
)

# The axioms check_theorem_suite runs through check_axiom.
SUITE_AXIOMS = (
    "efficiency",
    "equal-treatment",
    "equal-surplus-invariance",
    "equal-ratio-invariance",
    "operator-equal-treatment",
    "operator-equal-surplus",
    "operator-weak-equal-surplus",
    "link-fairness",
    "relative-component-surplus-fairness",
    "cyclic-removal-balance",
    "null-player-gap",
    "relative-block-surplus-fairness",
    "cohesive-efficiency",
    "equal-cohesive-surplus-invariance",
    "equal-cohesive-ratio-invariance",
)

CLI_COMMANDS = ("gen", "solve", "oracle", "check")


def _calls(span):
    return lambda s: s["stats"].get(span, [0, 0, 0, 0])[0]


def _self_s(span):
    return lambda s: s["stats"].get(span, [0, 0, 0, 0])[2] / 1e9


def _total_s(span):
    return lambda s: s["stats"].get(span, [0, 0, 0, 0])[1] / 1e9


def _repeat_ratio(span):
    def f(s):
        distinct = s["distinct"].get(span, 0)
        return s["stats"].get(span, [0])[0] / distinct if distinct else 0.0

    return f


def _ns_per_unit(span):
    def f(s):
        st = s["stats"].get(span, [0, 0, 0, 0])
        return st[2] / st[3] if st[3] else 0.0

    return f


def _counter(name):
    return lambda s: s["counters"].get(name, 0)


def _extra(name):
    return lambda s: s["extra"][name]


def _cases_per_rule_call(s):
    rule_calls = sum(st[0] for name, st in s["stats"].items() if name.startswith(RULE_SPAN_PREFIX))
    return s["extra"]["cases"] / rule_calls if rule_calls else 0.0


# (name, unit, better, extractor over the traced snapshot)
PER_LAYER = (
    ("games.Game.calls", "count", "lower", _calls("games.Game")),
    ("games.Game.self_s", "s", "lower", _self_s("games.Game")),
    ("games.subgame.calls", "count", "lower", _calls("games.subgame")),
    ("games.subgame.self_s", "s", "lower", _self_s("games.subgame")),
    ("games.subgame.repeat_ratio", "ratio", "lower", _repeat_ratio("games.subgame")),
    ("solutions.shapley.calls", "count", "lower", _calls("solutions.shapley")),
    ("solutions.shapley.self_s", "s", "lower", _self_s("solutions.shapley")),
    ("solutions.shapley.repeat_ratio", "ratio", "lower", _repeat_ratio("solutions.shapley")),
    ("solutions.shapley.ns_per_term", "ns", "lower", _ns_per_unit("solutions.shapley")),
    ("operators.max_partition_value.calls", "count", "lower", _calls("operators.max_partition_value")),
    ("operators.max_partition_value.self_s", "s", "lower", _self_s("operators.max_partition_value")),
    ("operators.max_partition_value.ns_per_split", "ns", "lower", _ns_per_unit("operators.max_partition_value")),
    ("operators.brute_force_partition_value.self_s", "s", "lower", _self_s("operators.brute_force_partition_value")),
    ("comm.restricted_game.calls", "count", "lower", _calls("comm.restricted_game")),
    ("comm.restricted_game.self_s", "s", "lower", _self_s("comm.restricted_game")),
    ("comm.restricted_game.ns_per_mask", "ns", "lower", _ns_per_unit("comm.restricted_game")),
    ("comm.components.calls", "count", "lower", _calls("comm.components")),
    ("comm.components.self_s", "s", "lower", _self_s("comm.components")),
    ("comm.Graph.calls", "count", "lower", _calls("comm.Graph")),
    ("comm.solve_by_fairness_induction.self_s", "s", "lower", _self_s("comm.solve_by_fairness_induction")),
    ("coalition.aumann_dreze.calls", "count", "lower", _calls("coalition.aumann_dreze")),
    ("coalition.aumann_dreze.self_s", "s", "lower", _self_s("coalition.aumann_dreze")),
    ("coalition.make_partition.calls", "count", "lower", _calls("coalition.make_partition")),
    ("coalition.make_partition.self_s", "s", "lower", _self_s("coalition.make_partition")),
    ("coalition.remove_player.calls", "count", "lower", _calls("coalition.remove_player")),
    ("coalition.remove_player.self_s", "s", "lower", _self_s("coalition.remove_player")),
    (
        "coalition.solve_by_cycle_balance_induction.self_s", "s", "lower",
        _self_s("coalition.solve_by_cycle_balance_induction"),
    ),
    *(
        (f"axioms.suite.{suite}.total_s", "s", "lower", _total_s(f"axioms.suite.{suite}"))
        for suite in SUITES
    ),
    *(
        (f"axioms.check.{axiom}.self_s", "s", "lower", _self_s(f"axioms.check.{axiom}"))
        for axiom in SUITE_AXIOMS
    ),
    ("axioms.cases_per_rule_call", "ratio", "higher", _cases_per_rule_call),
    ("io.parse_game_text.self_s", "s", "lower", _self_s("io.parse_game_text")),
    ("io.render_game_text.self_s", "s", "lower", _self_s("io.render_game_text")),
    ("io.bytes_read", "bytes", "lower", _counter("io.bytes_read")),
    ("io.bytes_written", "bytes", "lower", _counter("io.bytes_written")),
    ("cli.import_ms", "ms", "lower", _extra("import_ms")),
    *(
        (f"cli.main.{cmd}.ms", "ms", "lower", _extra(f"main.{cmd}.ms"))
        for cmd in CLI_COMMANDS
    ),
    ("cli.process_overhead_ms", "ms", "lower", _extra("process_overhead_ms")),
    ("trace.overhead_ratio", "ratio", "lower", _extra("overhead_ratio")),
)


def percentile_nearest_rank(values, q: float) -> tuple[float, int]:
    """The q-th quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(setup_s: float, latencies: list[float], cases: int, rss_mb: float) -> dict:
    busy = math.fsum(latencies)
    p90, _ = percentile_nearest_rank(latencies, 0.9)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "cases_per_s": cases / busy,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(snap: dict) -> dict:
    """``snap`` is a tracer snapshot with the run's ``extra`` figures."""
    return {name: {"value": extract(snap), "unit": unit} for name, unit, _, extract in PER_LAYER}
