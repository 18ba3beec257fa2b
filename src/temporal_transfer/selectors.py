"""Sequential source-task selection strategies over hold durations.

Each selector repeatedly asks a trainer for a policy at a chosen duration,
merges the result into the landscape, and tracks the covered area. Selection
order matters only through the running landscape; the anytime property holds
for every strategy (truncating a run is the same as replaying its prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import theory
from .landscape import (
    GapModel,
    HoldRange,
    Landscape,
    aggregate_area,
    apply_transfer,
    best_marginal_cell,
    segments,
)
from .trainers import EvaluatorResult


class SelectorKind(str, Enum):
    GTTL = "gttl"
    CTTL = "cttl"
    RTTL = "rttl"
    EXHAUSTIVE = "exhaustive"


class SelectionError(RuntimeError):
    """Trainer failure mid-run; carries the valid partial state."""

    def __init__(self, message: str, state: "SelectionState"):
        super().__init__(message)
        self.state = state


class GridExhausted(RuntimeError):
    """Every grid duration has been selected already."""


@dataclass
class SelectionState:
    """Everything accumulated across selection iterations; picks are grid
    indices of the landscape's range."""

    landscape: Landscape
    picks: list[int] = field(default_factory=list)
    results: list[EvaluatorResult] = field(default_factory=list)
    area_history: list[float] = field(default_factory=list)

    @property
    def sources(self) -> list[float]:
        """Picked durations, in pick order."""
        return [self.landscape.range.point(i) for i in self.picks]

    @property
    def iteration(self) -> int:
        return len(self.picks)

    @property
    def area(self) -> float:
        return self.area_history[-1] if self.area_history else aggregate_area(self.landscape)


def _train_and_apply(state: SelectionState, trainer, model: GapModel, i: int) -> None:
    rng = state.landscape.range
    snap = getattr(trainer, "snap_delta", None)
    if snap is not None:
        snapped = rng.nearest_index(snap(rng.point(i)))
        # keep the exact grid pick when backend rounding would retrain an
        # already-selected task
        if snapped not in state.picks:
            i = snapped
    delta = rng.point(i)
    try:
        result = trainer.evaluate(delta)
    except Exception as exc:  # anytime property: partial state stays valid
        raise SelectionError(f"trainer failed at delta={delta:.6g}: {exc}", state) from exc
    state.landscape = apply_transfer(state.landscape, model, delta, result.achieved)
    state.picks.append(i)
    state.results.append(result)
    state.area_history.append(aggregate_area(state.landscape))


def find_greedy_transfer_point(state: SelectionState, model: GapModel) -> int:
    """Grid index of the pick of the segment with the largest estimated
    marginal area gain, all segments scored at once.

    Gains within 1e-12 * (|best| + 1) of the best tie, and ties (mirror
    segments, equal-gain candidates) go to the coarser (larger) index, then
    to the earlier segment. If the winning pick is an already-selected
    index, the best non-duplicate grid cell inside the winning segment is
    used instead, ranked by true marginal gain.
    """
    land = state.landscape
    rng = land.range
    segs = segments(land, state.picks)
    picks, gains = theory.optimal_pick_and_gain(segs, model, not state.picks)
    idx = rng.nearest_index(picks)
    best = gains.max()
    near = gains >= best - 1e-12 * (abs(best) + 1.0)
    k = int(np.argmax(np.where(near, idx, -1)))
    i = int(idx[k])
    if i not in state.picks:
        return i
    seg = segs[k]
    taken = set(state.picks)
    found = best_marginal_cell(land, model, seg.left, seg.right, taken)
    if found is None:  # winning segment exhausted; widen to the whole grid
        found = best_marginal_cell(land, model, rng.d_min, rng.d_max, taken)
    if found is None:
        raise GridExhausted("every grid duration has already been selected")
    return rng.nearest_index(found[0])


def run_gttl(
    trainer,
    model: GapModel,
    hold_range: HoldRange,
    budget: int = 15,
    epsilon: float = 0.05,
) -> SelectionState:
    """Greedy selection until the covered area or the training budget is hit.

    The covered area is that of the landscape clipped at j_star, so a result
    above j_star cannot stand in for a stretch that is still uncovered.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    state = SelectionState(landscape=Landscape.zeros(hold_range))
    if epsilon >= 1:  # degenerate: the coverage target is already met
        return state
    target = (1 - epsilon) * theory.full_area(hold_range, model)
    while state.iteration < budget and aggregate_area(state.landscape, cap=model.j_star) <= target:
        try:
            i = find_greedy_transfer_point(state, model)
        except GridExhausted:
            break
        _train_and_apply(state, trainer, model, i)
    return state


def _run_plan(trainer, model: GapModel, hold_range: HoldRange, plan) -> SelectionState:
    """Train the grid indices of a plan, known up front, in order."""
    state = SelectionState(landscape=Landscape.zeros(hold_range))
    for i in plan:
        _train_and_apply(state, trainer, model, int(i))
    return state


def _cttl_plan(hold_range: HoldRange, budget: int) -> np.ndarray:
    """Grid indices of the coarse-to-fine schedule."""
    k = np.arange(budget)
    durations = hold_range.d_max - (2 * k + 1) / (2 * budget) * hold_range.width
    return hold_range.nearest_index(durations)


def cttl_schedule(hold_range: HoldRange, budget: int) -> list[float]:
    """Coarse-to-fine schedule: K equally spaced durations, snapped to grid.

    Starts at d_max - width/(2K) and steps down by width/K.
    """
    return [hold_range.point(int(i)) for i in _cttl_plan(hold_range, budget)]


def run_cttl(trainer, model: GapModel, hold_range: HoldRange, budget: int = 15) -> SelectionState:
    """Train the coarse-to-fine schedule in order."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    return _run_plan(trainer, model, hold_range, _cttl_plan(hold_range, budget))


def run_rttl(
    trainer, model: GapModel, hold_range: HoldRange, budget: int = 15, seed: int = 0
) -> SelectionState:
    """Train budget-many distinct grid durations drawn uniformly at random."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if budget > hold_range.n_points:
        raise ValueError(f"budget {budget} exceeds the {hold_range.n_points}-point grid")
    rng = np.random.default_rng(seed)
    plan = rng.choice(hold_range.n_points, size=budget, replace=False)
    return _run_plan(trainer, model, hold_range, plan)


def run_exhaustive(trainer, model: GapModel, hold_range: HoldRange) -> SelectionState:
    """Train every grid duration, merged in grid order."""
    return _run_plan(trainer, model, hold_range, range(hold_range.n_points))


def run_selector(
    kind: SelectorKind,
    trainer,
    model: GapModel,
    hold_range: HoldRange,
    budget: int = 15,
    epsilon: float = 0.05,
    seed: int = 0,
) -> SelectionState:
    if kind is SelectorKind.GTTL:
        return run_gttl(trainer, model, hold_range, budget, epsilon)
    if kind is SelectorKind.CTTL:
        return run_cttl(trainer, model, hold_range, budget)
    if kind is SelectorKind.RTTL:
        return run_rttl(trainer, model, hold_range, budget, seed)
    return run_exhaustive(trainer, model, hold_range)


def iterations_csv_text(state: SelectionState) -> str:
    lines = ["iteration,delta,achieved,area"]
    for i, (d, res, area) in enumerate(
        zip(state.sources, state.results, state.area_history), start=1
    ):
        lines.append(f"{i},{d:.6g},{res.achieved:.6g},{area:.6g}")
    return "\n".join(lines) + "\n"


def write_iterations_csv(state: SelectionState, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(iterations_csv_text(state))
