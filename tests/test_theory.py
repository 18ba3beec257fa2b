"""Closed-form picks, areas, and bound arithmetic."""

import math
import re

import pytest

from temporal_transfer.landscape import GapModel, HoldRange, SlopeClass, slope_class, symmetric_model
from temporal_transfer.selectors import run_cttl
from temporal_transfer.theory import (
    REPORT_TOL,
    UnsupportedAssumptionError,
    bound_report,
    cttl_optimal_area,
    full_area,
    ghost_cell_lower_bound,
    optimal_pick_and_gain,
    split_point,
    steps_to_cover,
    suboptimality_bound,
)
from temporal_transfer.trainers import IdealTrainer

UNIT = HoldRange(0, 1, 0.025)
UNIT_MODEL = symmetric_model(1.0, 1.0)
WIDE = HoldRange(0, 40, 0.1)
WIDE_MODEL = symmetric_model(1 / 40, 1.0)


# (first value, last value, largest, smallest) of a segment of each class
SHAPES = {
    SlopeClass.FLAT: (1.0, 1.0, 1.0, 1.0),
    SlopeClass.SYMMETRIC_V: (1.0, 1.0, 1.0, 0.0),
    SlopeClass.POSITIVE: (0.0, 1.0, 1.0, 0.0),
    SlopeClass.NEGATIVE: (1.0, 0.0, 1.0, 0.0),
}


def pick_and_gain(left, right, slope_class, model, is_first):
    """optimal_pick_and_gain of the one segment [left, right] of WIDE with
    values of a slope class: the picked grid duration and the gain."""
    shape = None if is_first else SHAPES[slope_class]
    i, gain = optimal_pick_and_gain(model, WIDE, WIDE.nearest_index(left), WIDE.nearest_index(right), shape, 0.0)
    return WIDE.point(i), gain


def snapped(duration):
    """The grid duration of WIDE nearest to `duration`."""
    return WIDE.point(WIDE.nearest_index(duration))


class TestOptimalPickAndGain:
    def test_shapes_have_their_class(self):
        for cls, shape in SHAPES.items():
            assert slope_class(*shape, 0.0) is cls

    def test_first_pick_full_range(self):
        point, gain = pick_and_gain(0.0, 40.0, SlopeClass.FLAT, WIDE_MODEL, is_first=True)
        assert point == pytest.approx(20.0)
        assert gain == pytest.approx(30.0)  # (3/4) * theta * width^2

    def test_symmetric_v(self):
        point, gain = pick_and_gain(0.0, 20.0, SlopeClass.SYMMETRIC_V, WIDE_MODEL, is_first=False)
        assert point == pytest.approx(10.0)
        assert gain == pytest.approx(1.25)  # (1/8) * (1/40) * 400

    @pytest.mark.parametrize("left, right", [(0.0, 20.0), (10.0, 30.0)])
    def test_positive_slope_trisection(self, left, right):
        point, gain = pick_and_gain(left, right, SlopeClass.POSITIVE, WIDE_MODEL, is_first=False)
        assert point == snapped((2 * left + right) / 3)
        assert gain == pytest.approx(400 / 120)  # (1/3) * (1/40) * 20^2

    def test_negative_slope_trisection(self):
        point, _ = pick_and_gain(10.0, 40.0, SlopeClass.NEGATIVE, WIDE_MODEL, is_first=False)
        assert point == pytest.approx((10 + 80) / 3)

    def test_asymmetric_model_uses_weighted_split_and_mean_slope(self):
        model = GapModel(theta_left=0.2, theta_right=0.1, j_star=1.0)
        weighted = (0.2 * 0 + 0.1 * 30) / 0.3
        mean = 0.15
        assert split_point(model, 0.0, 30.0) == pytest.approx(weighted)
        cases = [
            (SlopeClass.FLAT, True, weighted, 0.75 * mean * 900),
            (SlopeClass.SYMMETRIC_V, False, weighted, mean * 900 / 8),
            (SlopeClass.POSITIVE, False, 10.0, mean * 900 / 3),
            (SlopeClass.NEGATIVE, False, 20.0, mean * 900 / 3),
            (SlopeClass.FLAT, False, 15.0, mean * 900 / 3),
        ]
        for slope_class, is_first, point, gain in cases:
            got = pick_and_gain(0.0, 30.0, slope_class, model, is_first)
            assert got == pytest.approx((point, gain))

    def test_split_point_is_exact_midpoint_for_symmetric_models(self):
        # Segments of an odd number of cells: the midpoint is half a cell
        # off the grid, where a rounding difference would move the snapped pick.
        for theta in (0.0, 1 / 40, 1.0, 3.7):
            model = symmetric_model(theta, 1.0)
            for lo, cells in ((0, 1), (3, 7), (17, 333), (199, 201)):
                left, right = WIDE.point(lo), WIDE.point(lo + cells)
                assert split_point(model, left, right) == (left + right) / 2


class TestGhostCellLowerBound:
    def test_k1(self):
        assert ghost_cell_lower_bound(UNIT, UNIT_MODEL, 1) == pytest.approx(0.75)

    def test_anchors(self):
        for i, k in enumerate((2, 3, 5, 9, 17)):
            expected = 1 - 1 / 2 ** (i + 2)
            assert ghost_cell_lower_bound(UNIT, UNIT_MODEL, k) == pytest.approx(
                expected, rel=1e-15
            )

    def test_interpolated_k4(self):
        assert ghost_cell_lower_bound(UNIT, UNIT_MODEL, 4) == pytest.approx(0.875 + 1 / 32)

    def test_k0_and_monotone(self):
        assert ghost_cell_lower_bound(UNIT, UNIT_MODEL, 0) == 0.0
        values = [ghost_cell_lower_bound(UNIT, UNIT_MODEL, k) for k in range(1, 40)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert all(v <= full_area(UNIT, UNIT_MODEL) + 1e-12 for v in values)

    def test_loose_for_small_theta(self):
        model = symmetric_model(0.25, 1.0)
        assert ghost_cell_lower_bound(UNIT, model, 5) == pytest.approx(0.25 * 0.9375)

    def test_slope_violation_rejected(self):
        with pytest.raises(UnsupportedAssumptionError):
            ghost_cell_lower_bound(UNIT, symmetric_model(1.5, 1.0), 3)

    def test_k2_is_the_first_anchor(self):
        # `k <= 2` -> `k < 2` is an equivalent mutant: at k = 2 the anchor
        # rule has i = 0 and steps_short = 0, which give 0.75 * scale too.
        model = symmetric_model(0.02, 1.0)
        assert ghost_cell_lower_bound(WIDE, model, 2) == 0.75 * (0.02 * WIDE.width**2)


class TestStepsToCover:
    def test_examples(self):
        assert steps_to_cover(1 / 16) == 5
        assert steps_to_cover(1 / 4) == 2
        assert steps_to_cover(1 / 64) == 17

    def test_consistency_with_ghost_bound(self):
        # 17 steps cover 1 - 1/64 of the ceiling
        assert ghost_cell_lower_bound(UNIT, UNIT_MODEL, 17) == pytest.approx(1 - 1 / 64)

    def test_divergence(self):
        with pytest.raises(ValueError):
            steps_to_cover(0.0)
        with pytest.raises(ValueError):
            steps_to_cover(-0.1)
        with pytest.raises(ValueError, match="epsilon must be finite and positive, got nan"):
            steps_to_cover(float("nan"))

    def test_non_dyadic(self):
        assert steps_to_cover(1 / 12) == 4


class TestCttlOptimalArea:
    def test_small_budget(self):
        assert cttl_optimal_area(UNIT, UNIT_MODEL, 2) == pytest.approx(0.875)

    def test_large_budget_limit(self):
        assert cttl_optimal_area(UNIT, UNIT_MODEL, 1000) == pytest.approx(0.99975)

    def test_matches_simulated_schedule(self):
        closed = cttl_optimal_area(WIDE, WIDE_MODEL, 7)
        assert closed == pytest.approx(40 * (1 - 1 / 28))
        state = run_cttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=7)
        assert state.area == pytest.approx(closed, abs=WIDE.resolution * WIDE_MODEL.j_star)


class TestSuboptimalityBound:
    def test_power_of_two_plus_one_branch(self):
        assert suboptimality_bound(UNIT, UNIT_MODEL, 3) == pytest.approx(1 / 24)
        assert suboptimality_bound(UNIT, UNIT_MODEL, 5) == pytest.approx(1 / 80)
        assert suboptimality_bound(UNIT, UNIT_MODEL, 2) == pytest.approx(1 / 8)

    def test_other_branch(self):
        assert suboptimality_bound(UNIT, UNIT_MODEL, 4) == pytest.approx(1 / 18)

    def test_undefined_below_two(self):
        with pytest.raises(ValueError):
            suboptimality_bound(UNIT, UNIT_MODEL, 1)

    def test_identity_at_anchors(self):
        # closed-form schedule area minus ghost bound equals the first-branch
        # bound exactly at every anchor budget
        for i in range(5):
            k = 2**i + 1
            lhs = cttl_optimal_area(UNIT, UNIT_MODEL, k) - ghost_cell_lower_bound(
                UNIT, UNIT_MODEL, k
            )
            assert lhs == pytest.approx(suboptimality_bound(UNIT, UNIT_MODEL, k), rel=1e-12)


class TestBoundReport:
    def test_holds_semantics(self):
        report = bound_report("x", 1.0, 1.0, scale=1.0)
        assert report.holds
        assert bound_report("x", 1.0 + 1e-10, 1.0, scale=1.0).holds is False
        assert bound_report("x", 2.0, 1.0, scale=1.0).slack == -1.0

    @pytest.mark.parametrize("scale", [4.0, -4.0])
    def test_holds_exactly_up_to_the_tolerance(self, scale):
        # The slack is REPORT_TOL * |scale|, whatever the sign of scale: lhs
        # at that edge holds, and the next float above it does not.
        edge = 1.0 + REPORT_TOL * abs(scale)
        assert bound_report("x", edge, 1.0, scale).holds
        assert not bound_report("x", math.nextafter(edge, math.inf), 1.0, scale).holds


@pytest.mark.parametrize("closed_form, k", [(ghost_cell_lower_bound, 2), (cttl_optimal_area, 1),
                                            (suboptimality_bound, 2)])
@pytest.mark.parametrize("width, theta, j_star", [(1e300, 0.0, 1.0), (1e300, 1.0, 1e307), (1e154, 10.0, 1e160)])
def test_overflowing_area_scale_is_rejected(closed_form, k, width, theta, j_star):
    # theta * W^2 overflows: W**2 raises OverflowError at W = 1e300, and the
    # product is inf at W = 1e154. Either way a ValueError names both.
    with pytest.raises(ValueError, match=re.escape(f"theta * width**2 (width={width}, theta={theta}) must be finite")):
        closed_form(HoldRange(0, width, width), symmetric_model(theta, j_star), k)
