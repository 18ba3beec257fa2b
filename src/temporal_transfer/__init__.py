"""Sequential source-task selection over guidance hold durations. The root
holds the README library sketch's names; every other name is reached through
its module (landscape, selectors, theory, oracle, trainers, ringsim, cli)."""

from .landscape import HoldRange, symmetric_model
from .oracle import exhaustive_best
from .selectors import run_gttl
from .theory import ghost_cell_lower_bound
from .trainers import IdealTrainer

__all__ = ["HoldRange", "symmetric_model", "IdealTrainer", "run_gttl", "exhaustive_best",
           "ghost_cell_lower_bound"]
