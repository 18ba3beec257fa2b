"""Exact certification of the selectors against the best K-subset.

Under the ideal trainer a final landscape is the max-of-tents envelope of the
chosen set (order plays no role), and between two consecutive chosen cells
only their two tents can be the maximum. The area therefore splits into
per-pair terms, and a dynamic program over the last chosen cell finds the
best K-subset of a coarse grid exactly in O(K n^2), for asymmetric slopes
too. Used to certify the closed-form picks, areas, and suboptimality bounds
independently of the formulas themselves. The picks are checked with
best_marginal_cell, the brute-force scan that the greedy selector also
falls back on; it lives with the landscape and is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import theory
from .landscape import GapModel, HoldRange, best_marginal_cell, gap  # noqa: F401  (re-exported)
from .selectors import run_gttl
from .theory import BoundReport, bound_report
from .trainers import IdealTrainer


@dataclass(frozen=True)
class OracleResult:
    best_sequence: tuple[float, ...]
    best_area: float


def coarse_range(hold_range: HoldRange, coarse_cells: int) -> HoldRange:
    """Evaluation grid with coarse_cells points across the same interval."""
    if coarse_cells < 2:
        raise ValueError(f"coarse grid needs at least 2 cells, got {coarse_cells}")
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
    slopes = model.theta_left + model.theta_right
    # Crossover in grid units (the grid is uniform); flat tents split anywhere.
    cross = (model.theta_right * i + model.theta_left * j) / slopes if slopes > 0 else i
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
    cell index. best_area is the trapezoid integral of the chosen subset's
    max-of-tents envelope.
    """
    if not 1 <= k <= coarse_cells:
        raise ValueError(f"k must be in 1..{coarse_cells} for a {coarse_cells}-cell grid, got {k}")
    rng = coarse_range(hold_range, coarse_cells)
    grid = rng.grid()
    # Row i: the landscape one ideal training at grid[i] reaches.
    tents = np.maximum(model.j_star - gap(model, grid[:, None], grid[None, :]), 0.0)
    weights = _trapezoid_weights(rng)
    left, pair, right = _area_tables(tents, weights, model)
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
    envelope = tents[chosen].max(axis=0)
    return OracleResult(
        best_sequence=tuple(float(grid[i]) for i in chosen),
        best_area=float(envelope @ weights),
    )


def greedy_vs_oracle(
    hold_range: HoldRange, model: GapModel, k: int, coarse_cells: int = 41
) -> tuple[OracleResult, float, BoundReport]:
    """The optimum, the greedy area, and the measured oracle-minus-greedy
    area gap checked against the bound.

    The greedy run uses the same coarse grid as the oracle; the bound
    allows one coarse cell of discretization slack.
    """
    rng = coarse_range(hold_range, coarse_cells)
    best = exhaustive_best(hold_range, model, k, coarse_cells)
    greedy = run_gttl(IdealTrainer(model.j_star, rng), model, rng, budget=k, epsilon=0.0).area
    cell = rng.resolution * model.j_star
    bound = theory.suboptimality_bound(hold_range, model, k) if k >= 2 else 0.0
    report = bound_report(
        claim=f"T4-oracle-K{k}",
        lhs=best.best_area - greedy,
        rhs=bound + cell,
        scale=theory.full_area(hold_range, model),
    )
    return best, greedy, report
