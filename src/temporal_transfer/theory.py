"""Closed-form areas, picks, and bounds for the selection strategies.

Everything here is a pure function of the gap model and the hold range, used
both by the greedy selector and by the verification suite that checks the
simulated selectors against these formulas. The pick/gain rule is exact for
symmetric models and a heuristic for asymmetric ones; the areas and bounds
refuse all but symmetric models with a bounded slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .landscape import GapModel, HoldRange, SlopeClass, check_bounds, check_overflow, slope_class


class UnsupportedAssumptionError(ValueError):
    """Raised when a closed form needs an assumption the model violates."""


# Relative slack for floating comparisons in bound reports.
REPORT_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    """One verified claim: holds iff lhs <= rhs within relative slack."""

    claim: str
    lhs: float
    rhs: float
    holds: bool
    slack: float


def bound_report(claim: str, lhs: float, rhs: float, scale: float) -> BoundReport:
    return BoundReport(
        claim=claim,
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + REPORT_TOL * abs(scale),
        slack=rhs - lhs,
    )


def full_area(hold_range: HoldRange, model: GapModel) -> float:
    """Area ceiling A*: constant j_star over the whole range."""
    return hold_range.width * model.j_star


def split_point(model: GapModel, left: float, right: float) -> float:
    """Slope-weighted pick for a fresh or V-shaped stretch: exactly the
    midpoint (left + right) / 2 for symmetric models, theta = 0 included."""
    if model.symmetric:
        return (left + right) / 2
    return (model.theta_left * left + model.theta_right * right) / (model.theta_left + model.theta_right)


def optimal_pick_and_gain(model: GapModel, hold_range: HoldRange, lo: int, hi: int, shape,
                          tol: float) -> tuple[int, float]:
    """The greedy pick, snapped to its nearest grid index, and the
    closed-form marginal area gain of the one segment between grid indices
    lo < hi. `shape` is None for the untouched full range of the first pick,
    which has its own gain row, and else the segment's (first value, last
    value, largest, smallest), which `slope_class` classifies at `tol`.

    Flat segments after the first pick take the monotone gain rule with a
    midpoint pick. Exact for symmetric models; for asymmetric ones a
    heuristic: split_point for fresh and V segments, trisection for
    monotone ones, and the mean slope (theta_left + theta_right) / 2 in
    every gain.
    """
    left, right = hold_range.point(lo), hold_range.point(hi)
    # the mean slope; a symmetric model's own, which has no sum to overflow
    theta = model.theta_left if model.symmetric else (model.theta_left + model.theta_right) / 2
    length = right - left
    if shape is None:
        return hold_range.nearest_index(split_point(model, left, right)), 0.75 * theta * (length * length)
    kind = slope_class(*shape, tol)
    if kind is SlopeClass.SYMMETRIC_V:
        pick, divisor = split_point(model, left, right), 8
    elif kind is SlopeClass.POSITIVE:  # trisection: a third of the way from the lower end
        pick, divisor = (2 * left + right) / 3, 3
    elif kind is SlopeClass.NEGATIVE:
        pick, divisor = (left + 2 * right) / 3, 3
    else:  # flat after the first pick: no direction to trisect toward
        pick, divisor = (left + right) / 2, 3
    return hold_range.nearest_index(pick), theta * (length * length) / divisor


def _area_scale(hold_range: HoldRange, model: GapModel, what: str) -> float:
    """theta * W^2, the scale of every closed-form area: for a symmetric
    model with a bounded slope only, and only where it is finite."""
    if not model.symmetric:
        raise UnsupportedAssumptionError(f"{what} requires a symmetric gap model")
    if not model.slope_within_bound(hold_range):
        raise UnsupportedAssumptionError(
            f"{what} requires theta <= j_star / range width "
            f"(theta={model.theta}, j_star={model.j_star}, width={hold_range.width})"
        )
    return check_overflow(hold_range, model)


def ghost_cell_lower_bound(hold_range: HoldRange, model: GapModel, k: int) -> float:
    """Coverage guaranteed after k steps by the ghost-cell construction.

    Anchors at k = 2^i + 1 carry the closed form (1 - 1/2^(i+2)) * theta * W^2;
    intermediate k interpolate with equal steps of theta * W^2 / 2^(2i+1).
    The value is a valid (loose) lower bound whenever theta <= j_star / W.
    """
    scale = _area_scale(hold_range, model, "ghost_cell_lower_bound")
    check_bounds(counts={"k": (k, 0, math.inf)})
    if k == 0:
        return 0.0
    if k <= 2:
        return 0.75 * scale
    i = math.ceil(math.log2(k - 1))  # anchor above: k <= 2^i + 1
    upper_frac = 1 - 1 / 2 ** (i + 2)
    steps_short = (2**i + 1) - k
    return scale * (upper_frac - steps_short / 2 ** (2 * i + 1))


def steps_to_cover(epsilon: float) -> int:
    """Minimum selection steps needed to cover a (1 - epsilon) area fraction."""
    check_bounds(positive={"epsilon": epsilon})
    raw = (4 * epsilon + 1) / (4 * epsilon)
    return math.ceil(raw - 1e-9)


def cttl_optimal_area(hold_range: HoldRange, model: GapModel, k: int) -> float:
    """Closed-form area of the budget-K coarse-to-fine schedule."""
    scale = _area_scale(hold_range, model, "cttl_optimal_area")
    check_bounds(counts={"k": (k, 1, math.inf)})
    return (1 - 1 / (4 * k)) * scale


def suboptimality_bound(hold_range: HoldRange, model: GapModel, k: int) -> float:
    """Upper bound on the coarse-to-fine advantage over the greedy selector."""
    scale = _area_scale(hold_range, model, "suboptimality_bound")
    check_bounds(counts={"k": (k, 2, math.inf)})
    n = k - 1
    if n & (n - 1) == 0:  # k = 2^i + 1 for some i >= 0
        return scale / (4 * k * (k - 1))
    return scale / (2 * (k - 1) ** 2)
