"""Source checks that need no linter: every module of the package uses
each name it imports, and every private top-level name is used somewhere in
the package outside its own definition."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "tugx"
# __init__ imports names to export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never mentions, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os, os.path as osp\nfrom a import b, c as d\nfrom . import e\nos\nd(e.f)\n"
    assert unused_imports(source) == ["b", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined_private(node: ast.stmt) -> list[str]:
    """The private, non-dunder names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def _mentions(node: ast.AST) -> set[str]:
    """Names a statement reads, as a name, an attribute or an import."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def dead_private_names(sources: list[str]) -> list[str]:
    """Private top-level names of the sources that no statement mentions
    except the one that defines them, sorted."""
    statements = [node for source in sources for node in ast.parse(source).body]
    mentions = [_mentions(node) for node in statements]
    dead = []
    for k, node in enumerate(statements):
        for name in _defined_private(node):
            if not any(name in m for j, m in enumerate(mentions) if j != k):
                dead.append(name)
    return sorted(dead)


def test_dead_private_names_are_found():
    sources = [
        "def _used(): pass\ndef _rec(): _rec()\n_TABLE = {}\nclass __Dunder__: pass\n",
        "from m import _used\nimport x\nx._TABLE\n_gone = 1\n",
    ]
    assert dead_private_names(sources) == ["_gone", "_rec"]


def test_no_dead_private_names():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert dead_private_names(sources) == []


def _reads_fsum(node: ast.AST) -> bool:
    """Whether a statement reads ``math.fsum`` or imports ``fsum`` from math."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "fsum":
            if isinstance(sub.value, ast.Name) and sub.value.id == "math":
                return True
        elif isinstance(sub, ast.ImportFrom) and sub.module == "math":
            if any(a.name == "fsum" for a in sub.names):
                return True
    return False


def fsum_readers(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level statement of the sources, keyed by
    module, that reads ``math.fsum``, or ``module`` for a statement that
    defines no name; sorted."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if _reads_fsum(node):
                name = getattr(node, "name", None)
                found.append(f"{module}.{name}" if name else module)
    return sorted(found)


def test_fsum_readers_are_found():
    sources = {
        "a": '"""math.fsum"""\nimport math\ndef f(): return math.fsum([])\ndef g(): pass\n',
        "b": "from math import fsum\nclass C:\n    def h(self): return math.fsum\n",
    }
    assert fsum_readers(sources) == ["a.f", "b", "b.C"]


def test_math_fsum_is_read_only_by_total_of_and_two_hot_loops():
    # every other sum goes through games.total_of, which names an overflow;
    # restricted_game and brute_force_partition_value keep bare fsum in
    # their inner loops and name an overflow around the loop
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert fsum_readers(sources) == [
        "comm.restricted_game",
        "games.total_of",
        "operators.brute_force_partition_value",
    ]


def _compares(node: ast.AST) -> bool:
    """Whether a statement calls an ``.eq`` method or ``_witness``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr == "eq":
                return True
            if isinstance(func, ast.Name) and func.id == "_witness":
                return True
    return False


def comparers(source: str) -> list[str]:
    """The name of each top-level statement of source that calls an ``.eq``
    method or ``_witness``, or ``<module>`` for a statement that defines no
    name; sorted."""
    return sorted(
        getattr(node, "name", "<module>") for node in ast.parse(source).body if _compares(node)
    )


def test_comparers_are_found():
    source = (
        "def f(tol): return [tol.eq(1, 2)]\n"
        "class C:\n    def g(self): return _witness(self)\n"
        "def h(eq, t): return eq(1, 2) or t.eq\n"
        "OK = Tolerance().eq(0, 0)\n"
    )
    assert comparers(source) == ["<module>", "C", "f"]


def test_only_the_axiom_driver_compares_cases_and_builds_witnesses():
    # checkers yield cases; _drive alone compares them and builds the witness
    source = (SRC / "axioms.py").read_text(encoding="utf-8")
    assert comparers(source) == ["_drive"]


def _builds_tolerance(node: ast.AST) -> bool:
    """Whether a statement calls ``Tolerance`` by name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Name) and func.id == "Tolerance":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "Tolerance":
                return True
    return False


def tolerance_builders(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level statement of the sources, keyed by
    module, that builds a ``Tolerance``, where an assignment is named by its
    first target and any other nameless statement by the module; sorted."""
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if _builds_tolerance(node):
                name = getattr(node, "name", None)
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                    name = node.targets[0].id
                found.append(f"{module}.{name}" if name else module)
    return sorted(found)


def test_tolerance_builders_are_found():
    sources = {
        "a": "EXACT = Tolerance(0.0, 0.0)\ndef f(t): return Tolerance\n",
        "b": "import games\nclass C:\n    tol = games.Tolerance()\nprint(Tolerance(1.0))\n",
    }
    assert tolerance_builders(sources) == ["a.EXACT", "b", "b.C"]


def test_tolerances_are_built_only_as_the_default_and_from_the_cli_flag():
    # exact comparisons use ==; a Tolerance is the default or the one --tol sets
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert tolerance_builders(sources) == ["cli._tol_from", "games.DEFAULT_TOL"]
