"""Sequential source-task selection strategies over hold durations.

Each selector repeatedly asks a trainer for a policy at a chosen duration,
merges the result into the landscape, and tracks the covered area. Selection
order matters only through the running landscape; the anytime property holds
for every strategy (truncating a run is the same as replaying its prefix).
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
    check_bounds,
    check_overflow,
    segment_bounds,
    segment_shapes,
    slope_tol,
)
from .theory import optimal_pick_and_gain
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


# Most trainings of one selector run, and most grid points that a plan
# selector merges (plan length times grid points): a merge costs about 23 us
# plus 13 ns a point, so either takes at most about a minute.
MAX_BUDGET = 1_000_000
MAX_MERGES = 4_000_000_000


@dataclass
class SegmentTable:
    """The greedy pick and estimated gain of every segment of one landscape
    split at its picks, under one gap model.

    `bounds` are the sorted segment ends (grid indices: 0, the picks, the
    last cell), and segment k, from bounds[k] to bounds[k + 1], has its pick
    at grid index `idx[k]` with gain `gains[k]`. Its entries are those of a
    full rescoring at the slope tolerance `tol`. A table is never changed
    after it is made, so a later table may share its bounds.
    """

    landscape: Landscape
    tol: float
    bounds: list[int]
    idx: np.ndarray
    gains: np.ndarray

    @classmethod
    def build(cls, land: Landscape, picks: list[int], model: GapModel) -> "SegmentTable":
        """Score every segment."""
        bounds = segment_bounds(land, picks)
        tol = slope_tol(land)
        idx, gains = _score(land, bounds, tol, model, not picks)
        return cls(land, tol, bounds, np.array(idx, dtype=np.intp), np.array(gains))

    def after_transfer(self, land: Landscape, i: int, model: GapModel) -> "SegmentTable":
        """The table of `land`, this table's landscape after a transfer at
        grid index `i`, split at one more pick: `i`. This table is past the
        first pick, which has its own gain rule. Only the segments whose
        values changed, and the one that `i` splits, are rescored; when the
        largest |estimate|, and so the slope tolerance, moves, the table is
        built again from the new bounds."""
        b = self.bounds
        at = bisect_left(b, i)
        split = int(b[at] != i)  # i splits one segment in two
        if split:
            b = b.copy()
            b.insert(at, i)
        tol = slope_tol(land)
        if tol != self.tol:
            return SegmentTable.build(land, b, model)  # the bounds hold every pick
        changed = np.flatnonzero(land.values != self.landscape.values)
        lo, hi = (min(i, int(changed[0])), max(i, int(changed[-1]))) if len(changed) else (i, i)
        # segments a .. e-1 touch [lo, hi]: neighbours share their end cells
        a, e = max(bisect_left(self.bounds, lo) - 1, 0), bisect_left(self.bounds, hi + 1)
        idx, gains = _score(land, b[a : e + 1 + split], tol, model, False)
        return SegmentTable(land, tol, b, np.concatenate((self.idx[:a], idx, self.idx[e:])),
                            np.concatenate((self.gains[:a], gains, self.gains[e:])))


def _score(land: Landscape, bounds: list[int], tol: float, model: GapModel, is_first: bool):
    """Grid index of the pick, and the estimated gain, of each segment
    between consecutive `bounds`, as two tuples."""
    rng = land.range
    shapes = [None] if is_first else segment_shapes(land, bounds)
    return zip(*[optimal_pick_and_gain(model, rng, lo, hi, shape, tol)
                 for lo, hi, shape in zip(bounds, bounds[1:], shapes)])


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
    try:  # a result that apply_transfer refuses fails as a trainer error does
        result = trainer.evaluate(delta)
        landscape = apply_transfer(state.landscape, model, i, result.achieved)
    except Exception as exc:  # anytime property: partial state stays valid
        raise SelectionError(f"trainer failed at delta={delta:.6g}: {exc}", state) from exc
    state.landscape = landscape
    state.picks.append(i)
    state.results.append(result)
    state.area_history.append(aggregate_area(state.landscape))


def find_greedy_transfer_point(state: SelectionState, model: GapModel, table: SegmentTable) -> int:
    """Grid index of the pick of the segment with the largest estimated
    marginal area gain, read from `table`, the segment table of the state's
    landscape and picks.

    Gains within 1e-12 * (|best| + 1) of the best tie, and ties (mirror
    segments, equal-gain candidates) go to the coarser (larger) index, then
    to the earlier segment. If the winning pick is an already-selected
    index, the best non-duplicate grid cell inside the winning segment is
    used instead, ranked by true marginal gain.
    """
    idx, gains = table.idx, table.gains
    best = gains.max()
    near = gains >= best - 1e-12 * (abs(best) + 1.0)
    k = int(np.argmax(np.where(near, idx, -1)))
    i, (lo, hi) = int(idx[k]), table.bounds[k : k + 2]
    # every pick is a segment end, so only a pick at an end can be taken
    if lo < i < hi or i not in state.picks:
        return i
    land = state.landscape
    taken = set(state.picks)
    found = best_marginal_cell(land, model, lo, hi, taken)
    if found is None:  # winning segment exhausted; widen to the whole grid
        found = best_marginal_cell(land, model, 0, land.range.n_cells, taken)
    if found is None:
        raise GridExhausted("every grid duration has already been selected")
    return found[0]


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
    check_bounds(counts={"budget": (budget, 1, MAX_BUDGET)})
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    check_overflow(hold_range, model, j_star=model.j_star)
    state = SelectionState(landscape=Landscape.zeros(hold_range))
    if epsilon >= 1:  # degenerate: the coverage target is already met
        return state
    target = (1 - epsilon) * theory.full_area(hold_range, model)
    while state.iteration < budget and aggregate_area(state.landscape, cap=model.j_star) <= target:
        # the run's segment table: scored in full for the first two picks (the
        # first has its own gain rule), then brought up to date after each transfer
        table = (SegmentTable.build(state.landscape, state.picks, model) if state.iteration < 2
                 else table.after_transfer(state.landscape, state.picks[-1], model))
        try:
            i = find_greedy_transfer_point(state, model, table)
        except GridExhausted:
            break
        _train_and_apply(state, trainer, model, i)
    return state


def _run_plan(trainer, model: GapModel, hold_range: HoldRange, plan) -> SelectionState:
    """Train the grid indices of a plan, known up front, in order."""
    check_bounds(counts={"plan length * grid points": (len(plan) * hold_range.n_points, 0, MAX_MERGES)})
    check_overflow(hold_range, model, j_star=model.j_star)
    state = SelectionState(landscape=Landscape.zeros(hold_range))
    for i in plan:
        _train_and_apply(state, trainer, model, int(i))
    return state


def run_cttl(trainer, model: GapModel, hold_range: HoldRange, budget: int = 15) -> SelectionState:
    """Train the coarse-to-fine schedule in order: K = budget equally spaced
    durations from d_max - width/(2K) down in steps of width/K, each at its
    nearest grid index."""
    check_bounds(counts={"budget": (budget, 1, MAX_BUDGET)})
    k = np.arange(budget)
    durations = hold_range.d_max - (2 * k + 1) / (2 * budget) * hold_range.width
    return _run_plan(trainer, model, hold_range, [hold_range.nearest_index(d) for d in durations.tolist()])


def run_rttl(
    trainer, model: GapModel, hold_range: HoldRange, budget: int = 15, seed: int = 0
) -> SelectionState:
    """Train budget-many distinct grid durations drawn uniformly at random."""
    check_bounds(counts={"budget": (budget, 1, hold_range.n_points), "seed": (seed, 0, math.inf)})
    plan = np.random.default_rng(seed).choice(hold_range.n_points, size=budget, replace=False)
    return _run_plan(trainer, model, hold_range, plan)


def run_exhaustive(trainer, model: GapModel, hold_range: HoldRange) -> SelectionState:
    """Train every grid duration, merged in grid order."""
    return _run_plan(trainer, model, hold_range, range(hold_range.n_points))


def run_selector(
    kind: SelectorKind, trainer, model: GapModel, hold_range: HoldRange, **options
) -> SelectionState:
    """Run the selector `kind` with the options it takes (budget, epsilon,
    seed); an option left out takes that selector's default."""
    run = {SelectorKind.GTTL: run_gttl, SelectorKind.CTTL: run_cttl, SelectorKind.RTTL: run_rttl}
    return run.get(kind, run_exhaustive)(trainer, model, hold_range, **options)


def iterations_csv_text(state: SelectionState) -> str:
    lines = ["iteration,delta,achieved,area"]
    for i, (d, res, area) in enumerate(
        zip(state.sources, state.results, state.area_history), start=1
    ):
        lines.append(f"{i},{d:.6g},{res.achieved:.6g},{area:.6g}")
    return "\n".join(lines) + "\n"
