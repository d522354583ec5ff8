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
"""

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
    component_surplus_share,
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
    cycle_balance_residual,
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
    anchored_ess_operator,
    anchored_ps_operator,
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
from .axioms import (
    ALL_AXIOMS,
    AxiomReport,
    Corpus,
    DEFAULT_BENCHMARKS,
    Subject,
    THEOREM_SUITES,
    check_axiom,
    check_theorem_suite,
    graph_operator_subject,
    graph_subject,
    operator_subject,
    partition_operator_subject,
    partition_subject,
    value_subject,
)
from .io import GameFile, game_payload, load_game_file, parse_game_text, render_game_text

__version__ = "0.1.0"
