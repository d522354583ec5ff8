"""Efficient surplus-sharing extensions for cooperative games.

Core objects: games on up to 16 players with dense coalition tables,
allocation rules (Shapley, stand-alone, equal division, egalitarian and
proportional surplus sharing), extension operators that spread the grand
coalition's surplus over arbitrary benchmark rules, communication-graph and
coalition-structure generalizations, cohesive variants that target the best
partition value, and a harness that machine-checks the defining properties
on generated corpora.

The ``tugx`` logger is silent unless configured; at DEBUG it reports, for
each axiom check, the kernel results reused and recomputed.

The axiom harness (``tugx.axioms``, the largest module) and the command line
(``tugx.cli``) load on first use: the names below that come from them resolve
through the module ``__getattr__``, so a process that only solves games never
compiles them.
"""

import importlib
import types

from .errors import (
    DomainViolation,
    IncompatibleSubject,
    InconsistentSystem,
    MissingStructure,
    ParseError,
    TugxError,
    UnknownName,
)
from .games import (
    GENERAL,
    MAX_PLAYERS,
    POSITIVE_SINGLETONS,
    PROFILES,
    ZERO_NORMALIZED,
    DEFAULT_TOL,
    Game,
    Tolerance,
    are_symmetric,
    is_null_player,
    iter_set_partitions,
    permute_game,
    random_game,
    subgame,
    unanimity_game,
)
from .solutions import (
    Allocation,
    EQUAL_DIVISION,
    LEAD_SINGLETON,
    SHAPLEY,
    STAND_ALONE,
    ZERO,
    Solution,
    Structure,
    allocations_close,
    constant_solution,
    freeze_solution,
    shapley,
    shapley_permutation_oracle,
    singleton_total,
)
from .comm import (
    GRAPH,
    Graph,
    MYERSON_SOLUTION,
    all_graphs,
    complete_graph,
    components,
    empty_graph,
    myerson,
    restricted_game,
    solve_by_fairness_induction,
)
from .coalition import (
    AUMANN_DREZE,
    PARTITION,
    Partition,
    aumann_dreze,
    block_of,
    extend_with_null,
    make_partition,
    remove_player,
    solve_by_cycle_balance_induction,
    split_off,
)
from .operators import (
    BestPartition,
    COHESIVE_ESS_OPERATOR,
    COHESIVE_PS_OPERATOR,
    EE_AUMANN_DREZE,
    EE_MYERSON,
    ESS_OPERATOR,
    ESS_VALUE,
    GRAPH_ESS_OPERATOR,
    PARTITION_ESS_OPERATOR,
    PS_OPERATOR,
    PS_VALUE,
    Operator,
    brute_force_partition_value,
    max_partition_value,
    named_graph_solution,
    named_operator,
    named_partition_solution,
    named_solution,
    ratio_matched_game,
    surplus_matched_game,
    weighted_operator,
    wrap,
)
from .io import GameFile, game_payload, load_game_file, parse_game_text, render_game_text

__version__ = "0.1.0"

_LAZY_MODULES = ("axioms", "cli")
_AXIOM_NAMES = (
    "ALL_AXIOMS",
    "AxiomReport",
    "Corpus",
    "Subject",
    "THEOREM_SUITES",
    "check_axiom",
    "check_theorem_suite",
    "operator_subject",
    "value_subject",
)

# The public names: everything imported above that is not a module, and the
# axiom names.
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    + list(_AXIOM_NAMES)
)


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name in _AXIOM_NAMES:
        value = getattr(importlib.import_module(f"{__name__}.axioms"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULES, *_AXIOM_NAMES})
