"""The package surface, and what each command loads.

``import tugx`` loads the solving modules; the axiom harness (``tugx.axioms``)
and the command line (``tugx.cli``) load on first use.  These tests pin that
the lazy names are the same objects as before, and that ``tugx solve``,
``oracle`` and ``gen`` never load the harness or ``hashlib``.
"""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import tugx

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _defining_modules() -> dict[str, list[str]]:
    """Top-level names each module of the package defines (not imports)."""
    defined: dict[str, list[str]] = {}
    for path in sorted((SRC / "tugx").glob("*.py")):
        if path.stem.startswith("__"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                defined.setdefault(name, []).append(path.stem)
    return defined


def _tracer():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _metric_spans() -> set[str]:
    """The ``module.function`` spans that ``perfbench/metrics.py`` reads by a
    literal name."""
    tree = ast.parse((ROOT / "perfbench" / "metrics.py").read_text(encoding="utf-8"))
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"_calls", "_self_s", "_total_s", "_repeat_ratio", "_ns_per_unit"}
        and isinstance(node.args[0], ast.Constant)
    }


def test_public_names_are_the_defining_modules_objects():
    defined = _defining_modules()
    assert len(tugx.__all__) == len(set(tugx.__all__)) > 0
    for name in tugx.__all__:
        (module,) = defined[name]
        source = importlib.import_module(f"tugx.{module}")
        assert getattr(tugx, name) is getattr(source, name), name


def test_every_name_the_benchmark_reads_resolves():
    # a name the benchmark reads may not leave the package unnoticed
    read = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= set(re.findall(r"\btugx\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert {"named_graph_solution", "named_partition_solution"} <= read
    for name in read:
        assert hasattr(tugx, name), name
    tracer = _tracer()
    spans = _metric_spans() | {*tracer.WORK, *tracer.KEYS, *tracer.BYTES}
    spans |= {f"{module}.{name}" for module, name in tracer.CONSTRUCTORS}
    # the per-suite, per-check and per-command spans are named after these
    spans |= {"axioms.check_axiom", "axioms.check_theorem_suite", "cli.main"}
    assert {"games.Game", "solutions.shapley", "io.parse_game_text"} <= spans
    for span in spans:
        module, name = span.split(".")
        assert hasattr(importlib.import_module(f"tugx.{module}"), name), span


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tugx import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tugx.__all__)
    assert namespace["check_axiom"] is tugx.axioms.check_axiom


def test_dir_lists_every_public_name_and_lazy_module():
    listed = set(dir(tugx))
    assert set(tugx.__all__) <= listed
    assert {"axioms", "cli"} <= listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tugx.no_such_name
    assert not hasattr(tugx, "no_such_name")


def _python(code: str, *args: str) -> str:
    """Run code in a fresh interpreter that imports tugx from src; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    p = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert p.returncode == 0, p.stderr
    return p.stdout


_FRESH_SURFACE = """
import json, sys
import tugx
before = "tugx.axioms" in sys.modules
found = {m: getattr(getattr(tugx, m, None), "__name__", None) for m in json.loads(sys.argv[1])}
check_axiom = tugx.check_axiom
print(json.dumps([before, found, check_axiom is sys.modules["tugx.axioms"].check_axiom]))
"""


def test_fresh_import_resolves_lazy_modules_and_names():
    modules = _tracer().MODULES
    before, found, same = json.loads(_python(_FRESH_SURFACE, json.dumps(modules)))
    assert before is False
    assert found == {m: f"tugx.{m}" for m in modules}
    assert same is True


# Runs each argument list as `python -m tugx` would, in one interpreter, and
# prints after each which of the watched modules are loaded.
_STARTUP_PROBE = """
import json, runpy, sys
watched = ("tugx.axioms", "hashlib")
loaded = []
for argv in json.loads(sys.argv[1]):
    sys.argv[1:] = argv
    try:
        runpy.run_module("tugx", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    loaded.append([code, [m for m in watched if m in sys.modules]])
print(json.dumps(loaded))
"""


def test_solve_oracle_and_gen_leave_the_axiom_harness_unloaded(tmp_path):
    duo, trio = str(FIXTURES / "duo.json"), str(FIXTURES / "trio.json")
    quiet = [
        ["solve", trio, "-s", "shapley"],
        ["solve", trio, "-s", "ee-myerson"],
        ["solve", trio, "-s", "cohesive-ess[standalone]"],
        ["solve", duo, "--operator", "ess", "-f", "standalone"],
        *(["oracle", trio, "--name", name] for name in (
            "shapley-perm", "partition-brute", "fairness-induction", "cycle-induction"
        )),
        ["gen", str(tmp_path), "--sizes", "2-3", "--count", "1", "--seed", "1",
         "--attach", "both"],
    ]
    loud = [
        ["check", str(FIXTURES), "--axiom", "efficiency", "--target", "ess"],
        ["solve", duo, "-s", "anchored-ess[standalone]", "--anchor", duo],
    ]
    out = _python(_STARTUP_PROBE, json.dumps(quiet + loud))
    results = json.loads(out.splitlines()[-1])
    assert results[: len(quiet)] == [[0, []]] * len(quiet)
    # check loads the harness; an anchored name hashes its anchor game
    assert results[len(quiet):] == [[0, ["tugx.axioms"]], [0, ["tugx.axioms", "hashlib"]]]
