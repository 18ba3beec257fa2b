"""Estimated-performance landscapes over a range of guidance hold durations.

A landscape stores the running estimate J(delta) on a uniform grid of hold
durations. Transferring a trained policy from a source duration lowers the
estimate linearly with distance (the generalization-gap model); the landscape
keeps the pointwise best estimate seen so far.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class GridAlignmentError(ValueError):
    """Raised when a duration does not lie on the landscape grid."""


class SlopeClass(str, Enum):
    FLAT = "flat"
    POSITIVE = "positive"
    NEGATIVE = "negative"
    SYMMETRIC_V = "symmetric-V"


# Relative tolerance for treating grid values as equal when classifying
# segment shapes; floating-point grids never hit exact equality.
SLOPE_TOL = 1e-9


@dataclass(frozen=True)
class HoldRange:
    """Closed interval of hold durations with a uniform evaluation grid."""

    d_min: float
    d_max: float
    resolution: float = 0.1
    n_cells: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.d_min, self.d_max, self.resolution))):
            raise ValueError(f"range bounds and resolution must be finite, got {self}")
        if not 0 <= self.d_min < self.d_max:
            raise ValueError(f"need 0 <= d_min < d_max, got [{self.d_min}, {self.d_max}]")
        if self.resolution <= 0:
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        cells = (self.d_max - self.d_min) / self.resolution
        if abs(cells - round(cells)) > 1e-6 * max(cells, 1.0):
            raise ValueError(
                f"range width {self.d_max - self.d_min} is not a whole number of "
                f"{self.resolution}-cells"
            )
        object.__setattr__(self, "n_cells", round(cells))

    @property
    def width(self) -> float:
        return self.d_max - self.d_min

    @property
    def n_points(self) -> int:
        return self.n_cells + 1

    def grid(self) -> np.ndarray:
        return self.d_min + self.resolution * np.arange(self.n_points)

    def index_of(self, duration: float) -> int:
        """Grid index of an on-grid duration; GridAlignmentError otherwise."""
        i = self.nearest_index(duration)
        if abs(self.point(i) - duration) > 1e-9 * max(self.resolution, 1.0):
            raise GridAlignmentError(
                f"duration {duration} is not on the [{self.d_min}, {self.d_max}] "
                f"grid with resolution {self.resolution}"
            )
        return i

    def point(self, index: int) -> float:
        return self.d_min + index * self.resolution

    def nearest_index(self, duration):
        """Index of the nearest grid duration, halves to even, clamped to the
        range: an int for one duration, an index array for an array of them."""
        i = np.rint((duration - self.d_min) / self.resolution)
        i = np.minimum(np.maximum(i, 0.0), self.n_cells)
        return int(i) if i.ndim == 0 else i.astype(np.intp)

    def snap(self, duration: float) -> float:
        """Nearest grid duration (clamped to the range)."""
        return self.point(self.nearest_index(duration))


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
        params = (self.theta_left, self.theta_right, self.j_star)
        if not all(math.isfinite(x) and x >= 0 for x in params):
            raise ValueError(f"slopes and j_star must be finite and non-negative, got {self}")

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


def gap(model: GapModel, d_source, d_target):
    """Performance lost transferring a policy from d_source to d_target: a
    float for two durations, an array for arrays of them (broadcast)."""
    g = np.where(
        d_source > d_target,
        model.theta_left * (d_source - d_target),
        model.theta_right * (d_target - d_source),
    )
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

    def value_at(self, duration: float) -> float:
        return float(self.values[self.range.index_of(duration)])


def apply_transfer(
    land: Landscape, model: GapModel, d_source: float, achieved: float
) -> Landscape:
    """Merge one training result into the landscape.

    At d_source the new estimate is exactly `achieved` (the measurement
    overrides any prior extrapolation there). Elsewhere it is the pointwise
    max of the old estimate and achieved minus the gap, clamped at 0.
    """
    if not (math.isfinite(achieved) and achieved >= 0):
        raise ValueError(f"achieved performance must be finite and >= 0, got {achieved}")
    idx = land.range.index_of(d_source)
    candidate = np.maximum(achieved - gap(model, d_source, land.range.grid()), 0.0)
    new_values = np.maximum(land.values, candidate)
    new_values[idx] = achieved
    return Landscape(range=land.range, values=new_values)


def aggregate_area(land: Landscape, cap: float | None = None) -> float:
    """Trapezoidal integral of the estimates over the hold range, each
    estimate clipped at `cap` when one is given."""
    v = land.values if cap is None else np.minimum(land.values, cap)
    return float(land.range.resolution * (v.sum() - 0.5 * (v[0] + v[-1])))


def best_marginal_cell(
    land: Landscape, model: GapModel, lo: float, hi: float, taken=()
) -> tuple[float, float] | None:
    """Grid cell in [lo, hi], outside the grid indices `taken`, whose ideal
    transfer adds the most area: (duration, gain), or None if every cell is
    taken.

    Brute force over cells, ties to the coarser cell: the greedy selector's
    duplicate fallback, and the independent check for the closed-form picks.
    """
    rng = land.range
    base = aggregate_area(land)
    best = None
    for i in range(rng.nearest_index(lo), rng.nearest_index(hi) + 1):
        if i in taken:
            continue
        d = rng.point(i)
        gain = aggregate_area(apply_transfer(land, model, d, model.j_star)) - base
        if best is None or gain >= best[1] - 1e-15:
            best = (d, gain)
    return best


@dataclass(frozen=True)
class Segment:
    """Maximal stretch of the landscape between consecutive inflection points."""

    left: float
    right: float
    slope_class: SlopeClass

    @property
    def length(self) -> float:
        return self.right - self.left

    def by_class(self, values: dict):
        """The value given for this segment's slope class."""
        return values[self.slope_class]


# Classification order, first match wins; a segment's code is the position
# of its class here.
_CLASS_ORDER = (SlopeClass.FLAT, SlopeClass.SYMMETRIC_V, SlopeClass.POSITIVE, SlopeClass.NEGATIVE)


@dataclass(frozen=True, eq=False)
class Segments(Sequence):
    """A landscape's segments in grid order, held as parallel arrays;
    indexing and iteration give `Segment`s."""

    left: np.ndarray
    right: np.ndarray
    codes: np.ndarray  # positions in _CLASS_ORDER

    def by_class(self, values: dict) -> np.ndarray:
        """Per segment, the constant given for its slope class; for tuples of
        constants, one array per tuple entry."""
        return np.array([values[c] for c in _CLASS_ORDER])[self.codes].T

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k: int) -> Segment:
        return Segment(float(self.left[k]), float(self.right[k]), _CLASS_ORDER[self.codes[k]])


def segments(land: Landscape, picks) -> Segments:
    """Split the range at the picked grid indices and classify every piece at
    once, all values of a piece within SLOPE_TOL (relative to the largest
    estimate) counting as equal: FLAT if they are all equal; SYMMETRIC_V if
    the ends are equal and the minimum lies below both; else POSITIVE or
    NEGATIVE by the sign of the net change.
    """
    rng = land.range
    v = land.values
    bounds = np.array(sorted({0, rng.n_cells, *picks}))
    ends = v[bounds]
    v_left, v_right = ends[:-1], ends[1:]
    # reduceat spans [lo, next lo); the shared right end is folded in after
    top = np.maximum(np.maximum.reduceat(v, bounds[:-1]), v_right)
    bottom = np.minimum(np.minimum.reduceat(v, bounds[:-1]), v_right)
    tol = SLOPE_TOL * max(float(np.abs(v).max()), 1e-300)
    rise = v_right - v_left
    # codes are positions in _CLASS_ORDER; later assignments win, which keeps its order
    codes = np.where(rise > 0, 2, 3)
    codes[(bottom < np.minimum(v_left, v_right) - tol) & (np.abs(rise) <= tol)] = 1
    codes[top - bottom <= tol] = 0
    points = rng.d_min + bounds * rng.resolution
    return Segments(points[:-1], points[1:], codes)


def write_landscape_csv(land: Landscape, path) -> None:
    """CSV with header delta,performance, one row per grid point, 6 sig digits."""
    with open(path, "w", newline="") as fh:
        fh.write(landscape_csv_text(land))


def landscape_csv_text(land: Landscape) -> str:
    lines = ["delta,performance"]
    for d, v in zip(land.range.grid(), land.values):
        lines.append(f"{d:.6g},{v:.6g}")
    return "\n".join(lines) + "\n"
