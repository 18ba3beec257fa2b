"""Exact certification of the selectors against the best K-subset.

Under the ideal trainer a final landscape is the max-of-tents envelope of the
chosen set (order plays no role), and between two consecutive chosen cells
only their two tents can be the maximum. The area therefore splits into
per-pair terms, and a dynamic program over the last chosen cell finds the
best K-subset of a coarse grid exactly in O(K n^2), for asymmetric slopes
too. The chosen subset is scored by aggregate_area, as every selector's
landscape is. Used to certify the closed-form picks, areas, and bounds
independently of the formulas themselves. The picks are checked with
best_marginal_cell, the brute-force scan that the greedy selector also
falls back on; it lives with the landscape and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import theory
from .landscape import GapModel, HoldRange, Landscape, aggregate_area, check_bounds, check_overflow, gap
from .landscape import best_marginal_cell  # noqa: F401  (re-exported)
from .selectors import run_cttl, run_gttl
from .theory import BoundReport, bound_report
from .trainers import IdealTrainer


@dataclass(frozen=True)
class OracleResult:
    picks: tuple[int, ...]  # the chosen cells of the coarse grid, ascending
    best_area: float


# Most points of a coarse grid: the dynamic program holds several n x n float
# tables, and at 2,001 points one K = 1 solve takes 0.39 s and 244 MiB.
MAX_COARSE_CELLS = 2001


def coarse_range(hold_range: HoldRange, coarse_cells: int) -> HoldRange:
    """Evaluation grid with coarse_cells points across the same interval."""
    check_bounds(counts={"coarse_cells": (coarse_cells, 2, MAX_COARSE_CELLS)})
    return HoldRange(
        d_min=hold_range.d_min,
        d_max=hold_range.d_max,
        resolution=hold_range.width / (coarse_cells - 1),
    )


def _trapezoid_weights(rng: HoldRange) -> np.ndarray:
    w = np.full(rng.n_points, rng.resolution)
    w[0] = w[-1] = rng.resolution / 2
    return w


def _area_tables(tents: np.ndarray, weights: np.ndarray, model: GapModel):
    """Areas left of a first pick (cells t < i under tent i), between
    consecutive picks i < j (cells i <= t < j under the larger tent; -inf
    unless i < j) and right of a last pick (cells t >= i under tent i).

    Tent i wins up to the crossover of the two unclamped lines and tent j
    after it, so each entry is a difference of row-wise cumulative sums.
    """
    n = len(weights)
    cum = np.zeros((n, n + 1))
    np.cumsum(tents * weights, axis=1, out=cum[:, 1:])
    idx = np.arange(n)
    own = cum[idx, idx]  # row i summed over t < i
    i, j = idx[:, None], idx[None, :]
    # Crossover in grid units (the grid is uniform): theta_left / (theta_left + theta_right) of
    # the way from i to j, a sum that check_overflow keeps finite, and halfway when symmetric.
    frac = 0.5 if model.symmetric else model.theta_left / (model.theta_left + model.theta_right)
    cross = i + frac * (j - i)
    split = np.minimum(np.floor(cross).astype(np.intp) + 1, j)
    pair = (cum[i, split] - own[:, None]) + (own[None, :] - cum[j, split])
    pair[i >= j] = -np.inf
    return own, pair, cum[:, n] - own


def exhaustive_best(
    hold_range: HoldRange, model: GapModel, k: int, coarse_cells: int = 41
) -> OracleResult:
    """Best K-subset of the coarse grid, exact over all C(coarse_cells, K).

    Dynamic program over the last chosen cell: best[j] is the largest area
    left of cell j with the picks so far ending at j. Ties go to the smaller
    cell index. best_area is the aggregate_area of the chosen subset's
    max-of-tents envelope, which is the landscape that apply_transfer builds
    from the same picks.
    """
    rng = coarse_range(hold_range, coarse_cells)
    check_bounds(counts={"k": (k, 1, coarse_cells)})
    check_overflow(rng, model, j_star=model.j_star)
    grid = rng.grid()
    # Row i: the landscape one ideal training at grid[i] reaches.
    tents = np.maximum(model.j_star - gap(model, grid[:, None], grid[None, :]), 0.0)
    left, pair, right = _area_tables(tents, _trapezoid_weights(rng), model)
    best = left
    back = []
    for _ in range(k - 1):
        totals = best[:, None] + pair
        back.append(np.argmax(totals, axis=0))
        best = totals.max(axis=0)
    chosen = [int(np.argmax(best + right))]
    for pointers in reversed(back):
        chosen.append(int(pointers[chosen[-1]]))
    chosen.reverse()
    envelope = Landscape(rng, tents[chosen].max(axis=0))
    return OracleResult(picks=tuple(chosen), best_area=aggregate_area(envelope))


def simulated_areas(hold_range: HoldRange, model: GapModel, kmax: int) -> tuple[list[float], list[float]]:
    """The greedy and the CTTL areas at K = 1 .. kmax under the ideal trainer: one anytime
    greedy run of kmax picks, read after min(K, picks made) picks, and one CTTL run per K."""
    ideal = IdealTrainer(model.j_star, hold_range)
    history = run_gttl(ideal, model, hold_range, budget=kmax, epsilon=0.0).area_history
    budgets = range(1, kmax + 1)
    return ([history[min(k, len(history)) - 1] for k in budgets],
            [run_cttl(ideal, model, hold_range, budget=k).area for k in budgets])


def greedy_vs_oracle(
    hold_range: HoldRange, model: GapModel, kmax: int, coarse_cells: int = 41
) -> list[tuple[OracleResult, float, float, BoundReport]]:
    """For each budget K = 1 .. kmax: the optimum, the greedy and the CTTL
    areas, and the oracle-minus-greedy gap checked against the bound plus one
    coarse cell. The optima and bounds come first, so a model they refuse
    stops the work before the selectors run."""
    rng = coarse_range(hold_range, coarse_cells)
    check_bounds(counts={"kmax": (kmax, 1, coarse_cells)})
    budgets = range(1, kmax + 1)
    optima = [exhaustive_best(hold_range, model, k, coarse_cells) for k in budgets]
    bounds = [theory.suboptimality_bound(hold_range, model, k) if k >= 2 else 0.0 for k in budgets]
    greedy, cttl = simulated_areas(rng, model, kmax)
    cell, scale = rng.resolution * model.j_star, theory.full_area(hold_range, model)
    return [(best, area, schedule, bound_report(f"T4-oracle-K{k}", best.best_area - area, bound + cell, scale))
            for k, best, area, schedule, bound in zip(budgets, optima, greedy, cttl, bounds)]
