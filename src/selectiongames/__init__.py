"""Topological selection-principle games at desk scale.

A game engine and strategy-transformation library for the finite-selection
and single-selection covering games on countable and finite space models,
implementing the classical winning-counterplay constructions as executable,
checkable pipelines, cross-checked against an exact finite-game solver.
"""

from .covers import (
    CofiniteSpec,
    FiniteSelection,
    IndexedCover,
    Verdict,
    head_normalize,
    increasing_form,
    is_cover_up_to,
    witness_of,
)
from .engine import (
    AliceStrategy,
    GameKind,
    Inning,
    MENGER_GAME,
    MultiplicityReport,
    ROTHBERGER_GAME,
    Transcript,
    check_legal,
    evaluate_win,
)
from .errors import (
    BudgetError,
    ConfigError,
    CrossSpaceError,
    GameError,
    IntegrityError,
    LegalityError,
    PreconditionError,
    ResourceLimitError,
    StripExhaustedError,
)
from .evasion import (
    BaireFunction,
    counterplay_large,
    evasion_function,
    greedy_index_function,
    strip_chosen_tree,
    strip_history,
)
from .hurewicz import (
    ExclusionOracle,
    FiniteWinFound,
    LevelFamily,
    bob_counterplay_menger,
    cofinite_intersection,
    level_family,
    normalize_strategy,
    tail_derived_cover,
)
from .products import (
    infinitely_often_play,
    lift_strategy,
    lifted_cover,
    project_selection,
)
from .rothberger import (
    distinct_intersections,
    joint_refinement_cover,
    menger_from_rothberger,
    rothberger_counterplay,
    select_one_per_family,
    wedge_tree,
)
from .scenarios import emit_transcript, parse_transcript, run_scenario, transcript_records
from .selectors import select_sone
from .solver import (
    FiniteGameInstance,
    cross_check,
    decision_table,
    deterministic_strategy,
    minimal_winning_depth,
    solve_finite_game,
    stationary_instance,
)
from .spaces import (
    CountableDiscrete,
    CumulativeUnion,
    FiniteIntersection,
    FiniteTopological,
    FiniteUnion,
    Lifted,
    Named,
    OpenSet,
    Point,
    ProductSpace,
    SpaceModel,
    Whole,
    describe,
    extension,
    from_ids,
    initial_segment,
    member,
    singleton,
    whole,
)
from .trees import TreeStrategy, strategy_from_tree

__version__ = "0.1.0"
