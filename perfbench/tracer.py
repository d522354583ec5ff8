"""Span tracing installed from outside the tugx package.

The package imports functions by name (``from .solutions import shapley`` in
``comm``, ``coalition``, ``cli`` and ``axioms``), and rule objects such as
``SHAPLEY`` keep a reference to their function in ``func``.  A wrapper is
therefore installed in every module namespace that binds a traced function
and in every module-level rule object that holds one; constructors and rule
calls are traced at class level.

Each wrapper records a span (id, op, name, start, end, parent) and adds its
duration and self time (duration minus the time covered by child spans) to a
per-name table.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

MODULES = ("games", "solutions", "operators", "comm", "coalition", "axioms", "io", "cli")

# Classes whose construction is a layer cost of its own.
CONSTRUCTORS = (("games", "Game"), ("comm", "Graph"))

# Rule objects: every call into one of these counts as a rule call.
RULE_CLASSES = (
    ("solutions", "Solution"),
    ("comm", "GraphSolution"),
    ("coalition", "PartitionSolution"),
    ("operators", "Operator"),
    ("comm", "GraphOperator"),
    ("coalition", "PartitionOperator"),
)
RULE_SPAN_PREFIX = "rule."


def _game_key(v) -> int:
    return hash((v.players, v.worth))


def _coalition_key(coalition):
    if isinstance(coalition, (frozenset, set, list, tuple)):
        return frozenset(coalition)
    return None


# Nominal work per call, from the input size alone.
WORK = {
    "solutions.shapley": lambda v: v.n << (v.n - 1),
    "comm.restricted_game": lambda v, g: 1 << v.n,
    "operators.max_partition_value": lambda v: (3**v.n - 1) // 2,
}

# Argument keys whose distinct count gives a repeat ratio.
KEYS = {
    "games.subgame": lambda v, coalition: (_game_key(v), _coalition_key(coalition)),
    "solutions.shapley": lambda v: _game_key(v),
}

# Bytes moved through the io layer, counted from arguments and results.
BYTES = {
    "io.parse_game_text": ("io.bytes_read", lambda args, out: len(args[0].encode())),
    "io.render_game_text": ("io.bytes_written", lambda args, out: len(out.encode())),
}


def _dynamic_name(name: str):
    """Span names that carry the axiom, suite or command they ran."""
    if name == "axioms.check_axiom":
        return lambda a, k: f"axioms.check.{a[0] if a else k['axiom']}"
    if name == "axioms.check_theorem_suite":
        return lambda a, k: f"axioms.suite.{a[0] if a else k['suite']}"
    if name == "cli.main":
        return lambda a, k: f"cli.main.{(a[0] if a else k.get('argv') or ['?'])[0]}"
    return None


class Tracer:
    """Per-name call statistics plus an in-memory span log."""

    def __init__(self) -> None:
        self.active = False
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.reset()
        self._next_id = 1
        self._stack: list[list] = []
        self._op = 0

    def reset(self) -> None:
        # name -> [calls, total_ns, self_ns, work]
        self.stats: dict[str, list[int]] = {}
        self.keys: dict[str, set] = {}
        self.counters: dict[str, int] = {}

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "counters": dict(self.counters),
        }

    # -- spans ------------------------------------------------------------

    def _enter(self):
        frame = [self._next_id, 0]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end, work=0):
        self._stack.pop()
        dur = end - start
        if parent is not None:
            parent[1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        st[3] += work
        if self.keep_spans:
            self.spans.append(
                (frame[0], self._op, name, start, end, parent[0] if parent else 0)
            )

    def op(self, op_id: int, name: str, thunk):
        """Run one benchmark op, traced, as the root span of its request."""
        self._op = op_id
        self.active = True
        frame, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            return thunk()
        finally:
            self._exit(name, frame, parent, start, time.perf_counter_ns())
            self.active = False

    def wrap(self, name: str, fn):
        dynamic = _dynamic_name(name)
        work = WORK.get(name)
        key = KEYS.get(name)
        count = BYTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = dynamic(args, kwargs) if dynamic else name
            frame, parent = tracer._enter()
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._exit(
                    span, frame, parent, start, end, work(*args, **kwargs) if work else 0
                )
            if key is not None:
                tracer.keys.setdefault(span, set()).add(key(*args, **kwargs))
            if count is not None:
                counter, size = count
                tracer.counters[counter] = tracer.counters.get(counter, 0) + size(args, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions, constructors and rule calls of tugx."""
        modules = {m: getattr(package, m, None) for m in MODULES}
        originals: dict[int, object] = {}  # id of a traced function -> its wrapper
        for mname, mod in modules.items():
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(value)
                ):
                    continue
                originals[id(value)] = self.wrap(f"{mname}.{attr}", value)
        # Rebind in every namespace that imported the name, the package included.
        for mod in [package, *(m for m in modules.values() if m is not None)]:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        rule_types = tuple(
            getattr(modules[m], c)
            for m, c in RULE_CLASSES
            if modules.get(m) is not None and hasattr(modules[m], c)
        )
        for mod in modules.values():
            for value in list(vars(mod).values()) if mod is not None else ():
                wrapper = originals.get(id(getattr(value, "func", None)))
                if isinstance(value, rule_types) and wrapper is not None:
                    object.__setattr__(value, "func", wrapper)
        for m, c in CONSTRUCTORS:
            cls = getattr(modules.get(m), c, None)
            if cls is not None:
                cls.__init__ = self.wrap(f"{m}.{c}", cls.__init__)
        for cls in rule_types:
            cls.__call__ = self.wrap(f"{RULE_SPAN_PREFIX}{cls.__name__}", cls.__call__)

    def write_spans(self, path: str) -> int:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return len(self.spans)

