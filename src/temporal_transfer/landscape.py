"""Estimated-performance landscapes over a range of guidance hold durations.

A landscape stores the running estimate J(delta) on a uniform grid of hold
durations. Transferring a trained policy from a source duration lowers the
estimate linearly with distance (the generalization-gap model); the landscape
keeps the pointwise best estimate seen so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class SlopeClass(str, Enum):
    FLAT = "flat"
    POSITIVE = "positive"
    NEGATIVE = "negative"
    SYMMETRIC_V = "symmetric-V"


# Relative tolerance for treating grid values as equal when classifying
# segment shapes; floating-point grids never hit exact equality.
SLOPE_TOL = 1e-9

# Most cells a hold range may have: far above the 2,000 of `verify`'s finest
# grid, and low enough that each grid-sized array stays at 8 MB.
MAX_CELLS = 1_000_000


def check_bounds(positive: dict | None = None, nonnegative: dict | None = None, counts: dict | None = None) -> None:
    """The bounds rule of every numeric parameter and every size: each of
    `positive`'s named values must be finite and > 0, each of `nonnegative`'s
    finite and >= 0, and each of `counts`, a (value, least, most) triple, in
    [least, most], where most is its limit (math.inf for none). Raises
    ValueError naming the first value that is not."""
    for values, zero in ((positive, False), (nonnegative, True)):
        for name, value in (values or {}).items():
            # Comparisons, not math.isfinite: NaN fails them all, and an int
            # too large for a float still compares.
            if not (0 < value < math.inf or zero and value == 0):
                raise ValueError(f"{name} must be finite and {'>= 0' if zero else 'positive'}, got {value}")
    for name, (value, least, most) in (counts or {}).items():
        if not value >= least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
        if value > most:
            raise ValueError(f"{name} = {value:,} is above the limit of {most:,}")


@dataclass(frozen=True)
class HoldRange:
    """Closed interval of hold durations with a uniform evaluation grid of
    at most MAX_CELLS cells."""

    d_min: float
    d_max: float
    resolution: float = 0.1
    n_cells: int = field(init=False, repr=False, compare=False)
    _grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_bounds(
            positive={"d_max": self.d_max, "resolution": self.resolution},
            nonnegative={"d_min": self.d_min},
        )
        if self.d_min >= self.d_max:
            raise ValueError(f"need d_min < d_max, got [{self.d_min}, {self.d_max}]")
        cells = (self.d_max - self.d_min) / self.resolution
        check_bounds(counts={"cells": (cells, 0, MAX_CELLS)})
        object.__setattr__(self, "n_cells", round(cells))
        if self.n_cells < 1 or abs(cells - self.n_cells) > 1e-6 * max(cells, 1.0):
            raise ValueError(f"range width {self.d_max - self.d_min} is not a positive whole number "
                             f"of {self.resolution}-cells")
        grid = self.d_min + self.resolution * np.arange(self.n_points)
        grid[-1] = self.d_max  # d_min + n_cells * resolution can round past it
        grid.flags.writeable = False
        object.__setattr__(self, "_grid", grid)

    @property
    def width(self) -> float:
        return self.d_max - self.d_min

    @property
    def n_points(self) -> int:
        return self.n_cells + 1

    def grid(self) -> np.ndarray:
        """The grid durations, one read-only array per range."""
        return self._grid

    def point(self, index: int) -> float:
        """The grid duration of an index: the last one is d_max exactly."""
        return self.d_max if index == self.n_cells else self.d_min + index * self.resolution

    def nearest_index(self, duration: float) -> int:
        """Index of the nearest grid duration, halves to even, clamped to the range."""
        # clamped before rounding, which gives the same int; round() is half to even
        i = (duration - self.d_min) / self.resolution
        return round(0.0 if i < 0.0 else self.n_cells if i > self.n_cells else i)


@dataclass(frozen=True)
class GapModel:
    """Linear generalization-gap model with an upper performance bound.

    theta_left is the degradation slope when transferring from a coarser to a
    finer task (source > target); theta_right covers the opposite direction.
    j_star is the upper-bound performance every training is assumed to reach.
    """

    theta_left: float
    theta_right: float
    j_star: float

    def __post_init__(self):
        check_bounds(nonnegative=vars(self))

    @property
    def symmetric(self) -> bool:
        return self.theta_left == self.theta_right

    @property
    def theta(self) -> float:
        """Common slope for symmetric models."""
        if not self.symmetric:
            raise ValueError("model is asymmetric; no single slope")
        return self.theta_left

    def slope_within_bound(self, hold_range: HoldRange) -> bool:
        """Bounded-slope check: max slope <= j_star / range width.

        Violations are reported (False), never silently fixed.
        """
        return max(self.theta_left, self.theta_right) <= self.j_star / hold_range.width


def symmetric_model(theta: float, j_star: float) -> GapModel:
    return GapModel(theta_left=theta, theta_right=theta, j_star=j_star)


def check_overflow(hold_range: HoldRange, model: GapModel | None = None, **values: float) -> float | None:
    """The overflow rule of areas and slopes over `hold_range`: theta * W^2 (which
    bounds theta * W) for the model's steeper slope theta, (theta_left +
    theta_right) * d_max for an asymmetric model, and v * n_points and
    v * W for each named value v, the largest that a landscape of the range may
    hold, must be finite. Raises ValueError naming the first product that is
    not; returns theta * W^2, None without a model."""
    width, scale = hold_range.width, None
    if model is not None:
        theta = max(model.theta_left, model.theta_right)
        try:  # Python's float ** raises OverflowError where numpy would give inf
            scale = theta * width**2
        except OverflowError:
            scale = math.inf
        if not scale < math.inf:  # each message is made only on failure
            raise ValueError(f"theta * width**2 (width={width}, theta={theta}) must be finite and >= 0, got inf")
        # An asymmetric model's slope sum bounds its mean slope, and the sum
        # times d_max (the largest |duration|, as 0 <= d_min) split_point's numerator.
        if not (model.symmetric or (model.theta_left + model.theta_right) * hold_range.d_max < math.inf):
            raise ValueError(f"(theta_left + theta_right) * d_max (theta_left={model.theta_left}, theta_right="
                             f"{model.theta_right}, d_max={hold_range.d_max}) must be finite and >= 0, got inf")
    for name, v in values.items():
        for of, size in (("n_points", hold_range.n_points), ("width", width)):
            if not float(v) * size < math.inf:
                raise ValueError(f"{name} * {of} ({name}={v}, {of}={size}) must be finite and >= 0, got inf")
    return scale


def gap(model: GapModel, d_source, d_target):
    """Performance lost transferring a policy from d_source to d_target: a
    float for two durations, an array for arrays of them (broadcast)."""
    d = np.subtract(d_target, d_source)
    slope = model.theta_left if model.symmetric else np.where(d < 0, model.theta_left, model.theta_right)
    g = slope * np.abs(d)
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class Landscape:
    """Immutable per-grid-point performance estimates.

    All operations return new landscapes; instances are safe to share.
    """

    range: HoldRange
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.range.n_points,):
            raise ValueError(
                f"values length {values.shape} does not match grid "
                f"({self.range.n_points} points)"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, hold_range: HoldRange) -> "Landscape":
        return cls(range=hold_range, values=np.zeros(hold_range.n_points))

    @classmethod
    def _adopt(cls, hold_range: HoldRange, values: np.ndarray) -> "Landscape":
        """A landscape that takes `values`, a new float array of the grid's
        length that nothing else holds, without checking or copying it."""
        values.flags.writeable = False
        land = object.__new__(cls)
        object.__setattr__(land, "range", hold_range)
        object.__setattr__(land, "values", values)
        return land


def apply_transfer(land: Landscape, model: GapModel, index: int, achieved: float) -> Landscape:
    """Merge one training result, at the source of grid index `index`, into
    the landscape.

    At the source the new estimate is exactly `achieved` (the measurement
    overrides any prior extrapolation there). Elsewhere it is the pointwise
    max of the old estimate and achieved minus the gap, clamped at 0.
    """
    check_bounds(nonnegative={"achieved": achieved})
    rng = land.range
    check_overflow(rng, achieved=achieved)
    if not (isinstance(index, (int, np.integer)) and 0 <= index <= rng.n_cells):
        raise ValueError(f"source index must be an int in [0, {rng.n_cells}], got {index!r}")
    values = achieved - gap(model, rng.point(index), rng.grid())
    np.maximum(values, 0.0, out=values)
    np.maximum(land.values, values, out=values)
    values[index] = achieved
    return Landscape._adopt(rng, values)


def aggregate_area(land: Landscape, cap: float | None = None) -> float:
    """Trapezoidal integral of the estimates over the hold range, each
    estimate clipped at `cap` when one is given."""
    v = land.values if cap is None else np.minimum(land.values, cap)
    return float(land.range.resolution * (v.sum() - 0.5 * (v[0] + v[-1])))


def best_marginal_cell(
    land: Landscape, model: GapModel, lo: int, hi: int, taken=()
) -> tuple[int, float] | None:
    """Grid index in [lo, hi], outside the grid indices `taken`, whose ideal
    transfer adds the most area: (index, gain), or None if every cell is
    taken.

    Brute force over cells, ties to the coarser cell: the greedy selector's
    duplicate fallback, and the independent check for the closed-form picks.
    """
    base = aggregate_area(land)
    best = None
    for i in range(lo, hi + 1):
        if i in taken:
            continue
        gain = aggregate_area(apply_transfer(land, model, i, model.j_star)) - base
        if best is None or gain >= best[1] - 1e-15:
            best = (i, gain)
    return best


def slope_tol(land: Landscape) -> float:
    """The classifier's equality tolerance: SLOPE_TOL relative to the
    largest |estimate|."""
    return SLOPE_TOL * max(float(np.abs(land.values).max()), 1e-300)


def slope_class(v_left: float, v_right: float, top: float, bottom: float, tol: float) -> SlopeClass:
    """The class of one segment from its end values, its largest and
    smallest value, and the tolerance within which values count as equal:
    FLAT if they are all equal; SYMMETRIC_V if the ends are equal and the
    minimum lies below both; else POSITIVE or NEGATIVE by the sign of the
    net change. A segment's class depends on its own values and `tol` only.
    """
    if top - bottom <= tol:
        return SlopeClass.FLAT
    rise = v_right - v_left
    if abs(rise) <= tol and bottom < min(v_left, v_right) - tol:
        return SlopeClass.SYMMETRIC_V
    return SlopeClass.POSITIVE if rise > 0 else SlopeClass.NEGATIVE


def segment_bounds(land: Landscape, picks) -> list[int]:
    """Sorted segment ends at the picked grid indices: 0, the picks, the last cell."""
    return sorted({0, land.range.n_cells, *picks})


def segment_shapes(land: Landscape, bounds: list[int]) -> list[tuple[float, float, float, float]]:
    """(first value, last value, largest, smallest) of each piece between
    consecutive entries of the increasing grid indices `bounds`, ends
    included: the inputs of `slope_class`, in one reduceat pass."""
    at = np.fromiter(bounds, np.intp, len(bounds))
    v = land.values[: bounds[-1] + 1]
    ends = v[at]
    # reduceat spans [start, next start), up to the last bound; the shared right end is folded in after
    top = np.maximum(np.maximum.reduceat(v, at[:-1]), ends[1:]).tolist()
    bottom = np.minimum(np.minimum.reduceat(v, at[:-1]), ends[1:]).tolist()
    ends = ends.tolist()
    return list(zip(ends, ends[1:], top, bottom))


def segments(land: Landscape, picks) -> list[tuple[float, float, SlopeClass]]:
    """Split the range at the picked grid indices: (left duration, right
    duration, `slope_class`) of each piece in grid order, at the
    landscape's own slope tolerance."""
    bounds, tol, point = segment_bounds(land, picks), slope_tol(land), land.range.point
    return [(point(lo), point(hi), slope_class(*shape, tol))
            for lo, hi, shape in zip(bounds, bounds[1:], segment_shapes(land, bounds))]


def landscape_csv_text(land: Landscape) -> str:
    """CSV with header delta,performance, one row per grid point, 6 sig digits."""
    rows = np.column_stack((land.range.grid(), land.values))
    return "delta,performance\n" + "%.6g,%.6g\n" * len(rows) % tuple(rows.ravel().tolist())
