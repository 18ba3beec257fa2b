"""Sequential source-task selection over guidance hold durations.

Core pieces: the performance landscape and linear-gap model, the greedy,
coarse-to-fine, random, and exhaustive selectors, closed-form coverage
bounds with an exact best-subset certification oracle, pluggable task
evaluators, and a single-lane ring micro-simulation as a real task backend.
"""

from .landscape import (
    GapModel,
    HoldRange,
    Landscape,
    SlopeClass,
    aggregate_area,
    apply_transfer,
    gap,
    segments,
    symmetric_model,
)
from .selectors import (
    SelectionError,
    SelectionState,
    SelectorKind,
    find_greedy_transfer_point,
    run_cttl,
    run_exhaustive,
    run_gttl,
    run_rttl,
    run_selector,
)
from .theory import (
    BoundReport,
    UnsupportedAssumptionError,
    cttl_optimal_area,
    ghost_cell_lower_bound,
    optimal_pick_and_gain,
    steps_to_cover,
    suboptimality_bound,
)
from .oracle import OracleResult, exhaustive_best, greedy_vs_oracle
from .trainers import (
    CsvFormatError,
    CsvReplayTrainer,
    DecayingTrainer,
    EvaluatorResult,
    IdealTrainer,
    MissingDataError,
    NoisyTrainer,
    RingTrainer,
    TrainingError,
    load_csv_landscape,
)
from .ringsim import (
    CollisionError,
    GuidanceParams,
    IdmParams,
    RingConfig,
    RingState,
    equilibrium_speed,
    rollout_measure,
    simulate,
    simulate_many,
    step,
    train_and_measure,
    train_and_measure_many,
)

__all__ = [name for name in dir() if not name.startswith("_")]
