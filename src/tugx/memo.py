"""Kernel results reused across the axiom checks of one run.

An axiom check evaluates rules on many inputs that share games: the
Aumann-Dreze value of every partition of a game takes subgames the other
partitions took too, the rules an operator check compares ask for the
Aumann-Dreze payoffs of one game and partition again and again, and every
benchmark of a pool restricts the same game by the same graph.  The checks
of one theorem suite evaluate the same values on the same corpus once more.
While a ``scope`` is open, a kernel decorated with ``reuse`` looks its
result up here first and runs only on a miss.  ``axioms._drive`` opens one
per check, ``axioms.check_theorem_suite`` one per suite and ``tugx check``
one per command; a scope opened inside another shares its memo, so the
checks of a suite or a command reuse each other's results.  Outside a scope
nothing is stored and every kernel runs.

A result is keyed by the kernel, the game's players, the exact bytes of its
worth table and the kernel's other arguments (a coalition mask, a graph, a
partition).  Keying by bytes rather than by float equality keeps apart
games that are ``==`` but differ in the sign of a zero, so a reused result
is bit-identical to a fresh run.  The bytes are taken once per game object.

The memo holds at most ``_BUDGET`` worth-table cells, counting the byte
tables it has taken and the games it has stored; an entry that would pass
the budget empties the memo first.

At DEBUG the ``tugx.memo`` logger gets one line per scope: the hits, misses
and clears that accrued while that scope was open.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

# Worth-table cells held at most; 2^19 cells are a few tens of MB.
_BUDGET = 1 << 19

K = TypeVar("K", bound=Callable)


class _Memo:
    """The results of one outermost scope, with hit and miss counts per
    kernel."""

    def __init__(self) -> None:
        self.hits: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()
        self.clears = 0
        self._empty()

    def _empty(self) -> None:
        self.results: dict[tuple, object] = {}
        # id(game) -> (weak reference to the game, its players and bytes)
        self.idents: dict[int, tuple[weakref.ref, tuple]] = {}
        self.cells = 0

    def _spend(self, cells: int) -> None:
        """Count cells against the budget, emptying the memo first when
        they would pass it."""
        if self.cells + cells > _BUDGET:
            self._empty()
            self.clears += 1
        self.cells += cells

    def ident(self, v) -> tuple:
        """v's players and exact worth bytes."""
        known = self.idents.get(id(v))
        if known is None or known[0]() is not v:
            self._spend(len(v.worth))
            ident = (v.players, array("d", v.worth).tobytes())
            known = self.idents[id(v)] = (weakref.ref(v), ident)
        return known[1]

    def put(self, key: tuple, out: object) -> None:
        self._spend(len(getattr(out, "worth", ())))
        self.results[key] = out

    def counts(self) -> tuple[Counter[str], Counter[str], int]:
        """A snapshot of the hits, misses and clears so far."""
        return Counter(self.hits), Counter(self.misses), self.clears

    def summary(self, since: tuple[Counter[str], Counter[str], int]) -> str:
        """The counts that accrued after the snapshot ``since``."""
        hits, misses = self.hits - since[0], self.misses - since[1]
        kernels = sorted(hits.keys() | misses.keys())
        counts = [f"{k} {hits[k]} hits/{misses[k]} misses" for k in kernels]
        return ", ".join(counts + [f"{self.clears - since[2]} clears"])


_memo: _Memo | None = None


def _debug_logger():
    """The ``tugx.memo`` logger when it records DEBUG, else None.  Its parent
    ``tugx`` gets a NullHandler, so it is silent until configured.  The
    ``logging`` module is only used once the program has imported it:
    before that nothing can have configured it, and importing it here would
    add its start-up time to every command."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    package = logging.getLogger(__package__)
    if not package.handlers:
        package.addHandler(logging.NullHandler())
    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


@contextmanager
def scope(label: str) -> Iterator[None]:
    """Reuse kernel results until the block ends.  The outermost scope owns
    the memo and drops it however the block ends; a scope inside it shares
    the memo.  At DEBUG each scope logs the counts of its own block."""
    global _memo
    outer = _memo
    memo = _memo = outer or _Memo()
    log = _debug_logger()
    since = memo.counts() if log is not None else None
    try:
        yield
    finally:
        _memo = outer
        if since is not None:
            log.debug("memo of %s: %s", label, memo.summary(since))


def reuse(kernel: K) -> K:
    """The kernel ``(v, *args)``, reusing its results inside a scope; args
    must be hashable."""
    name = kernel.__name__.lstrip("_")

    @functools.wraps(kernel)
    def reused(v, *args):
        memo = _memo
        if memo is None:
            return kernel(v, *args)
        key = (kernel, memo.ident(v), *args)
        out = memo.results.get(key)
        if out is None:
            memo.misses[name] += 1
            out = kernel(v, *args)
            memo.put(key, out)
        else:
            memo.hits[name] += 1
        return out

    return reused
