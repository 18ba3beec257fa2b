"""Landscape, gap model, segmentation, and serialization tests."""

import math
import re

import numpy as np
import pytest

from temporal_transfer.landscape import (
    MAX_CELLS,
    GapModel,
    HoldRange,
    Landscape,
    SlopeClass,
    aggregate_area,
    apply_transfer,
    best_marginal_cell,
    check_bounds,
    check_overflow,
    gap,
    landscape_csv_text,
    segment_shapes,
    segments,
    slope_class,
    slope_tol,
    symmetric_model,
)


def tent(hold_range, model, i, achieved):
    """The clamped tent of one transfer from grid index i, written out
    apart from the library's gap function."""
    grid = hold_range.grid()
    d = hold_range.point(i)
    return np.maximum(np.where(
        grid <= d,
        achieved - model.theta_left * (d - grid),
        achieved - model.theta_right * (grid - d),
    ), 0.0)


def tent_envelope(hold_range, model, transfers, force_sources=True):
    """Independent construction: pointwise max of clamped tents of
    (grid index, achieved) transfers.

    With force_sources the measured value overrides the envelope at each
    source, mirroring the update rule; without it the result is a pure
    envelope, which is gap-Lipschitz and serves as a hidden ground truth.
    """
    values = np.zeros(hold_range.n_points)
    for i, achieved in transfers:
        values = np.maximum(values, tent(hold_range, model, i, achieved))
    if force_sources:
        for i, achieved in transfers:
            values[i] = achieved
    return values


def on_grid(hold_range, d):
    """Grid index of the duration d, which must be a grid point exactly."""
    i = hold_range.nearest_index(d)
    assert hold_range.point(i) == d
    return i


class TestHoldRange:
    def test_grid_shape(self):
        rng = HoldRange(0, 40)  # the default resolution, 0.1
        assert rng.n_cells == 400
        assert rng.n_points == 401
        assert rng.grid()[0] == 0.0
        assert rng.grid()[-1] == pytest.approx(40.0)

    def test_cell_count_is_not_part_of_equality_or_repr(self):
        rng = HoldRange(0, 40, 0.1)
        assert repr(rng) == "HoldRange(d_min=0, d_max=40, resolution=0.1)"
        assert rng == HoldRange(0, 40, 0.1) and hash(rng) == hash(HoldRange(0, 40, 0.1))
        assert rng != HoldRange(0, 40, 0.2)

    def test_nearest_index_rounds_half_cells_to_even(self):
        # Half-cell picks are where rounding decides: halves go to the even
        # index, and the ends clamp.
        rng = HoldRange(0, 40, 0.1)
        halves = [rng.point(i) + rng.resolution / 2 for i in range(-3, rng.n_points + 2)]
        midpoints = [(rng.point(lo) + rng.point(lo + cells)) / 2
                     for lo in (0, 3, 17, 199) for cells in (1, 3, 7, 201)]
        picks = halves + midpoints
        scalar = [rng.nearest_index(p) for p in picks]
        assert all(type(i) is int for i in scalar)
        want = [min(max(round((p - rng.d_min) / rng.resolution), 0), rng.n_cells) for p in picks]
        assert scalar == want

    def test_invalid_ranges(self):
        with pytest.raises(ValueError, match=re.escape("need d_min < d_max, got [5, 5]")):
            HoldRange(5, 5, 0.1)
        with pytest.raises(ValueError):
            HoldRange(-1, 5, 0.1)
        with pytest.raises(ValueError):
            HoldRange(0, 1, 0.3)  # not a whole number of cells
        with pytest.raises(ValueError):
            HoldRange(0, 1, -0.1)

    @pytest.mark.parametrize("d_min, d_max, resolution",
                             [(0, 40, 1e10), (5e-324, 40, 1.7e308), (0, 1, 2.5), (1, 41, 1e10), (0, 1 + 1.5e-6, 1)])
    def test_range_of_no_whole_cell_is_rejected(self, d_min, d_max, resolution):
        # a width of 4e-9 cells rounds to 0 cells within the whole-cell
        # tolerance, and one of 1 + 1.5e-6 cells is 1.5e-6 cells past the
        # tolerance of 1e-6 cells that a range of at most one cell has
        width = d_max - d_min
        with pytest.raises(ValueError, match=re.escape(f"range width {width} is not a positive whole number "
                                                       f"of {resolution}-cells")):
            HoldRange(d_min, d_max, resolution)

    def test_grid_is_one_read_only_array(self):
        rng = HoldRange(0, 40, 0.1)
        assert rng.grid() is rng.grid()
        with pytest.raises(ValueError):
            rng.grid()[0] = 1.0
        np.testing.assert_array_equal(rng.grid(), 0 + 0.1 * np.arange(401))

    @pytest.mark.parametrize(
        "d_min, d_max, resolution", [(0, 7, 0.28), (0, 40, 0.000632471064449), (0.1, 1.3, 0.2), (0, 0.9, 0.3)]
    )
    def test_last_point_is_d_max(self, d_min, d_max, resolution):
        # d_min + n_cells * resolution rounds to 7.000000000000001,
        # 40.000000000012555, 1.3000000000000003 and 0.8999999999999999.
        rng = HoldRange(d_min, d_max, resolution)
        assert d_min + rng.n_cells * resolution != d_max
        assert rng.grid()[-1] == rng.point(rng.n_cells) == d_max
        assert rng.nearest_index(d_max + 1) == rng.nearest_index(d_max) == rng.n_cells

    def test_cell_limit(self):
        assert HoldRange(0, 1, 1 / MAX_CELLS).n_cells == MAX_CELLS
        # Just above the limit, and far above it: rejected before any grid
        # is built, with a message that names the limit.
        for hi, resolution in ((1 + 1 / MAX_CELLS, 1 / MAX_CELLS), (40, 1e-9), (1e308, 1e-300)):
            with pytest.raises(ValueError, match=f"above the limit of {MAX_CELLS:,}"):
                HoldRange(0, hi, resolution)

    def test_nearest_index_and_point(self):
        rng = HoldRange(0, 40, 0.1)
        assert rng.point(rng.nearest_index(33.333)) == pytest.approx(33.3)
        assert rng.point(rng.nearest_index(-3.0)) == 0.0
        assert rng.point(rng.nearest_index(45.0)) == pytest.approx(40.0)
        assert rng.nearest_index(rng.point(123)) == 123
        assert rng.nearest_index(0.07) == 1  # 0.7 cells: not clamped, rounded up

    def test_range_that_starts_above_zero(self):
        rng = HoldRange(1, 3, 0.5)
        assert rng.width == 2.0
        assert [rng.nearest_index(d) for d in (0.0, 1.0, 2.0, 2.8, 4.0)] == [0, 0, 2, 4, 4]


class TestGap:
    def test_symmetric_example(self):
        m = symmetric_model(0.05, 1.0)
        assert gap(m, 10, 30) == pytest.approx(1.0)
        assert gap(m, 30, 10) == pytest.approx(1.0)

    def test_zero_distance(self):
        m = GapModel(0.3, 0.7, 1.0)
        assert gap(m, 7, 7) == 0.0

    def test_asymmetric_left_branch(self):
        m = GapModel(theta_left=0.1, theta_right=0.02, j_star=1.0)
        assert gap(m, 20, 5) == pytest.approx(1.5)
        assert gap(m, 5, 20) == pytest.approx(0.3)

    def test_slope_bound_is_inclusive(self):
        rng = HoldRange(0, 40, 0.1)
        assert symmetric_model(0.025, 1.0).slope_within_bound(rng)  # theta = j* / W exactly
        assert not GapModel(0.025, 0.03, 1.0).slope_within_bound(rng)
        assert not symmetric_model(0.5, 1.0).slope_within_bound(rng)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            GapModel(-0.1, 0.1, 1.0)

    def test_arrays_broadcast_like_scalars(self):
        m = GapModel(theta_left=0.1, theta_right=0.02, j_star=1.0)
        grid = np.linspace(0, 40, 9)
        table = gap(m, grid[:, None], grid[None, :])
        assert table.shape == (9, 9)
        assert table.tolist() == [[gap(m, s, t) for t in grid] for s in grid]
        assert type(gap(m, 20.0, 5.0)) is float


@pytest.mark.parametrize(
    "positive, nonnegative, message",
    [
        ({"a": 0.0}, None, "a must be finite and positive, got 0.0"),
        ({"a": np.inf}, None, "a must be finite and positive, got inf"),
        (None, {"b": -1}, "b must be finite and >= 0, got -1"),
        (None, {"b": np.nan}, "b must be finite and >= 0, got nan"),
        # the first failing value, positive ones first
        ({"a": 1.0, "c": -np.inf}, {"b": -1}, "c must be finite and positive, got -inf"),
    ],
)
def test_one_bounds_rule(positive, nonnegative, message):
    check_bounds(positive={"a": 1e-300, "n": 10**400}, nonnegative={"b": 0.0, "c": 0})
    with pytest.raises(ValueError) as err:
        check_bounds(positive, nonnegative)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"n": (1, 2, 10)}, "n must be >= 2, got 1"),
        ({"n": (np.nan, 0, 10)}, "n must be >= 0, got nan"),
        ({"n": (11, 2, 10)}, "n = 11 is above the limit of 10"),
        ({"cells": (4e10, 0, 10**6)}, "cells = 40,000,000,000.0 is above the limit of 1,000,000"),
        ({"n": (np.inf, 0, 10**6)}, "n = inf is above the limit of 1,000,000"),
        # an int too large for a float is still compared, and named whole
        ({"n": (10**30, 0, 10**6)}, f"n = {10**30:,} is above the limit of 1,000,000"),
        # the first failing value, in order
        ({"a": (5, 0, 9), "b": (-1, 0, 9), "c": (99, 0, 9)}, "b must be >= 0, got -1"),
    ],
)
def test_count_bounds(counts, message):
    # least and most are both allowed, and math.inf is no limit
    check_bounds(counts={"n": (10, 2, 10), "m": (2, 2, math.inf), "k": (10**400, 0, math.inf)})
    with pytest.raises(ValueError) as err:
        check_bounds(counts=counts)
    assert str(err.value) == message
    # the numeric groups come first
    with pytest.raises(ValueError, match="x must be finite and positive"):
        check_bounds(positive={"x": 0}, counts=counts)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_non_finite_model_and_range_rejected(bad, position):
    model = [0.1, 0.02, 1.0]
    model[position] = bad
    with pytest.raises(ValueError, match="finite"):
        GapModel(*model)
    bounds = [0.0, 40.0, 0.1]
    bounds[position] = bad
    with pytest.raises(ValueError, match="finite"):
        HoldRange(*bounds)


@pytest.mark.parametrize(
    "d_max, resolution, model, values, message",
    [
        # the steeper of two slopes sets theta, whichever side it is on
        (40.0, 0.1, GapModel(0.0, 1.7e308, 1.0), {}, "theta * width**2 (width=40.0, theta=1.7e+308)"),
        (40.0, 0.1, GapModel(1.7e308, 0.0, 1.0), {}, "theta * width**2 (width=40.0, theta=1.7e+308)"),
        # an asymmetric model's slope sum, and the sum times d_max, where theta * W^2 is finite
        (1.0, 0.25, GapModel(1.7e308, 1.6e308, 1.0), {},
         "(theta_left + theta_right) * d_max (theta_left=1.7e+308, theta_right=1.6e+308, d_max=1.0)"),
        (1.5, 0.5, GapModel(7.9e307, 7.8e307, 1.0), {},
         "(theta_left + theta_right) * d_max (theta_left=7.9e+307, theta_right=7.8e+307, d_max=1.5)"),
        (40.0, 0.1, None, {"achieved": 1e307}, "achieved * n_points (achieved=1e+307, n_points=401)"),
        (4000.0, 100.0, None, {"v": 1e306}, "v * width (v=1e+306, width=4000.0)"),
    ],
)
def test_overflow_rule_names_the_product(d_max, resolution, model, values, message):
    with pytest.raises(ValueError, match=re.escape(f"{message} must be finite and >= 0, got inf")):
        check_overflow(HoldRange(0.0, d_max, resolution), model, **values)


def test_overflow_rule_returns_theta_times_width_squared():
    rng = HoldRange(0.0, 40.0, 0.1)
    assert check_overflow(rng, GapModel(0.5, 0.25, 1.0), v=1e300) == 0.5 * 40.0**2
    assert check_overflow(rng, v=1e300) is None


class TestApplyTransfer:
    def setup_method(self):
        self.rng = HoldRange(0, 40, 0.1)
        self.model = symmetric_model(1 / 40, 1.0)
        self.zero = Landscape.zeros(self.rng)

    def test_single_transfer_values(self):
        land = apply_transfer(self.zero, self.model, on_grid(self.rng, 20.0), 1.0)
        assert land.values[300] == pytest.approx(0.75)
        assert land.values[0] == pytest.approx(0.5)
        assert land.values[200] == 1.0

    def test_second_transfer_takes_pointwise_max(self):
        land = apply_transfer(self.zero, self.model, 200, 1.0)
        land = apply_transfer(land, self.model, 333, 1.0)
        # candidate from the new source: 1 - (40 - 33.3)/40; old estimate 0.5
        assert land.values[400] == pytest.approx(1 - 6.7 / 40)
        assert land.values[400] > 0.5
        expected = tent_envelope(self.rng, self.model, [(200, 1.0), (333, 1.0)])
        np.testing.assert_allclose(land.values, expected, atol=1e-12)

    def test_zero_achievement_overrides_at_source(self):
        land = apply_transfer(self.zero, self.model, 200, 1.0)
        land = apply_transfer(land, self.model, 200, 0.0)
        assert land.values[200] == 0.0
        # neighbours keep the old extrapolation
        assert land.values[201] == pytest.approx(1 - 0.1 / 40)

    @pytest.mark.parametrize(
        "index", [-1, 401, 0.5, np.float64(200.0)], ids=["negative", "past-end", "float", "numpy-float"]
    )
    def test_bad_index_rejected(self, index):
        # Rejected before anything is written: unchecked, -1 would put a
        # tent left of the range and set the last cell.
        message = rf"source index must be an int in \[0, 400\], got {re.escape(repr(index))}$"
        with pytest.raises(ValueError, match=message):
            apply_transfer(self.zero, self.model, index, 1.0)

    def test_numpy_int_index_accepted(self):
        got = apply_transfer(self.zero, self.model, np.intp(200), 1.0)
        assert got.values.tobytes() == apply_transfer(self.zero, self.model, 200, 1.0).values.tobytes()

    def test_negative_achieved_rejected(self):
        with pytest.raises(ValueError):
            apply_transfer(self.zero, self.model, 200, -0.5)

    def test_inputs_not_mutated(self):
        before = self.zero.values.copy()
        apply_transfer(self.zero, self.model, 200, 1.0)
        np.testing.assert_array_equal(self.zero.values, before)
        with pytest.raises(ValueError):
            self.zero.values[0] = 5.0

    @pytest.mark.parametrize("model", [symmetric_model(1 / 40, 1.0), GapModel(0.05, 0.0, 1.0)])
    @pytest.mark.parametrize(
        "hold_range", [HoldRange(0, 40, 0.1), HoldRange(0.1, 1.3, 0.2)], ids=["401-points", "7-points"]
    )
    def test_every_cell_matches_the_tent_formula_bit_for_bit(self, model, hold_range):
        # 0.1 + 6 * 0.2 rounds to 1.3000000000000003, so the 7-point
        # range's last source is d_max itself, not that product.
        assert hold_range.point(hold_range.n_cells) == hold_range.d_max
        land = apply_transfer(Landscape.zeros(hold_range), model, hold_range.n_cells // 3, 0.8)
        for i in range(hold_range.n_points):
            achieved = (0.2, 0.9, 1.0, 0.0)[i % 4]
            want = np.maximum(land.values, tent(hold_range, model, i, achieved))
            want[i] = achieved
            got = apply_transfer(land, model, i, achieved)
            assert got.values.tobytes() == want.tobytes()
            assert got.range is land.range
            with pytest.raises(ValueError):
                got.values[0] = 5.0


class TestAggregateArea:
    def test_zero_landscape(self):
        assert aggregate_area(Landscape.zeros(HoldRange(0, 40, 0.1))) == 0.0

    def test_constant_landscape(self):
        rng = HoldRange(0, 40, 0.1)
        land = Landscape(range=rng, values=np.ones(rng.n_points))
        assert aggregate_area(land) == pytest.approx(40.0)

    def test_single_transfer_matches_closed_form(self):
        rng = HoldRange(0, 40, 0.1)
        model = symmetric_model(1 / 40, 1.0)
        land = apply_transfer(Landscape.zeros(rng), model, on_grid(rng, 20.0), 1.0)
        # 0.75 * theta * width^2 = 30; grid integral is exact here (kinks on grid)
        assert aggregate_area(land) == pytest.approx(30.0, abs=rng.resolution * model.j_star)


    def test_end_values_count_half(self):
        land = Landscape(HoldRange(0, 4, 1), np.array([1.0, 0.0, 0.0, 0.0, 3.0]))
        assert aggregate_area(land) == 2.0


class TestBestMarginalCell:
    # five cells of [0, 1] under theta = j* = 1: every area is a binary fraction
    RNG = HoldRange(0, 1, 0.25)
    MODEL = symmetric_model(1.0, 1.0)

    @pytest.mark.parametrize("lo, hi, taken, want", [
        (1, 4, (), (3, 0.34375)),
        (1, 3, (), (3, 0.34375)),
        (1, 2, (), (2, 0.3125)),
        (1, 4, (3,), (2, 0.3125)),
    ])
    def test_largest_true_gain_in_range(self, lo, hi, taken, want):
        # after a transfer at cell 0 the gains of cells 1 .. 4 are
        # 0.21875, 0.3125, 0.34375 and 0.25
        land = apply_transfer(Landscape.zeros(self.RNG), self.MODEL, 0, 1.0)
        assert best_marginal_cell(land, self.MODEL, lo, hi, taken) == want

    def test_exact_tie_goes_to_the_coarser_cell(self):
        # cells 1 and 3 of an empty landscape gain 0.6875 each
        land = Landscape.zeros(self.RNG)
        assert best_marginal_cell(land, self.MODEL, 1, 3, taken=(2,)) == (3, 0.6875)

    def test_gain_exactly_1e_15_below_the_best_still_ties(self):
        # one-cell tents: cell 3 gains 1.25 - (b - a), which rounds to exactly 1.25 - 1e-15
        land = Landscape(HoldRange(0, 4, 1), np.array([0.0, 0.0, 0.25, 0.25000000000000105, 0.0]))
        assert best_marginal_cell(land, symmetric_model(1e3, 1.5), 2, 3) == (3, 1.25 - 1e-15)

    def test_every_cell_taken(self):
        assert best_marginal_cell(Landscape.zeros(self.RNG), self.MODEL, 1, 2, taken={1, 2}) is None


class TestSlopeClass:
    # (first, last, largest, smallest) of a segment, and the tolerance
    @pytest.mark.parametrize("shape, tol, want", [
        ((1.0, 1.0, 1.0, 1.0), 0.25, SlopeClass.FLAT),
        ((0.0, 0.5, 0.5, 0.0), 0.5, SlopeClass.FLAT),  # top - bottom = tol
        ((0.0, 1.0, 1.0, 0.0), 0.25, SlopeClass.POSITIVE),
        ((1.0, 0.0, 1.0, 0.0), 0.25, SlopeClass.NEGATIVE),
        ((1.0, 1.0, 1.0, 0.5), 0.25, SlopeClass.SYMMETRIC_V),
        ((1.0, 1.25, 1.25, 0.0), 0.25, SlopeClass.SYMMETRIC_V),  # |rise| = tol
        ((1.0, 1.0, 2.0, 0.75), 0.25, SlopeClass.NEGATIVE),  # bottom = min(ends) - tol, no rise
    ])
    def test_class_at_each_edge_of_the_tolerance(self, shape, tol, want):
        assert slope_class(*shape, tol) == want

    def test_tolerance_is_relative_to_the_largest_estimate(self):
        rng = HoldRange(0, 4, 1)
        assert slope_tol(Landscape(rng, np.array([0.0, -0.5, 0.25, 0.0, 0.0]))) == 0.5e-9
        assert slope_tol(Landscape(rng, np.full(5, 4.0))) == 4e-9
        assert slope_tol(Landscape.zeros(rng)) == 1e-309

    def test_shapes_stop_at_the_last_bound(self):
        land = Landscape(HoldRange(0, 6, 1), np.array([0.0, 1.0, 2.0, 3.0, 4.0, 9.0, 5.0]))
        assert segment_shapes(land, [0, 2, 4]) == [(0.0, 2.0, 2.0, 0.0), (2.0, 4.0, 4.0, 2.0)]


class TestSegments:
    def setup_method(self):
        self.rng = HoldRange(0, 40, 0.1)
        self.model = symmetric_model(1 / 40, 1.0)

    def test_fresh_landscape_is_one_flat_segment(self):
        assert segments(Landscape.zeros(self.rng), []) == [(0.0, 40.0, SlopeClass.FLAT)]

    def test_one_source_splits_positive_negative(self):
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 200, 1.0)
        segs = segments(land, [200])
        assert [c for _, _, c in segs] == [SlopeClass.POSITIVE, SlopeClass.NEGATIVE]
        assert segs[0][1] == segs[1][0] == pytest.approx(20.0)

    def test_two_sources_give_symmetric_v_between(self):
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 200, 1.0)
        land = apply_transfer(land, self.model, 333, 1.0)
        segs = segments(land, [200, 333])
        assert [c for _, _, c in segs] == [
            SlopeClass.POSITIVE,
            SlopeClass.SYMMETRIC_V,
            SlopeClass.NEGATIVE,
        ]

    def test_len_counts_the_segments(self):
        # The benchmark's tracer sums len(segments(...)) as segments per call.
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 200, 1.0)
        for picks in ([], [0], [400], [0, 400], [200], [0, 1, 2, 200, 399, 400]):
            segs = segments(land, picks)
            ends = sorted({0, 400, *picks})
            assert len(segs) == len(ends) - 1
            assert segs[-1][:2] == (self.rng.point(ends[-2]), self.rng.point(ends[-1]))

    def test_unequal_peaks_classified_by_net_change(self):
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 100, 1.0)
        land = apply_transfer(land, self.model, 300, 0.4)
        assert segments(land, [100, 300])[1][2] == SlopeClass.NEGATIVE


class TestProperties:
    """Randomized invariants; the heavyweight 1000-trial version lives in
    the acceptance suite."""

    def _consistent_transfers(self, rng, model, trials_rng, n):
        """Achieved values consistent with a hidden tent-envelope truth."""
        anchors = [
            (rng.nearest_index(trials_rng.uniform(rng.d_min, rng.d_max)), trials_rng.uniform(0, model.j_star))
            for _ in range(3)
        ]
        # Slightly inside the envelope so no measurement ties another tent
        # exactly; ties resolve at ulp level differently per order.
        truth = 0.999 * tent_envelope(rng, model, anchors, force_sources=False)
        picks = trials_rng.choice(rng.n_points, size=n, replace=False)
        return [(int(i), float(truth[int(i)])) for i in picks]

    def test_monotone_area_and_order_invariance(self):
        trials_rng = np.random.default_rng(1234)
        rng = HoldRange(0, 10, 0.5)
        model = symmetric_model(0.08, 1.0)
        for _ in range(50):
            transfers = self._consistent_transfers(rng, model, trials_rng, 4)
            ceiling = rng.width * max(a for _, a in transfers)
            land = Landscape.zeros(rng)
            prev_area = 0.0
            for i, a in transfers:
                land = apply_transfer(land, model, i, a)
                area = aggregate_area(land)
                assert area >= prev_area - 1e-12
                assert area <= ceiling + 1e-12
                prev_area = area
            shuffled = list(transfers)
            trials_rng.shuffle(shuffled)
            other = Landscape.zeros(rng)
            for i, a in shuffled:
                other = apply_transfer(other, model, i, a)
            np.testing.assert_array_equal(land.values, other.values)

    def test_idempotence_unconditional(self):
        trials_rng = np.random.default_rng(99)
        rng = HoldRange(0, 10, 0.5)
        model = GapModel(0.05, 0.11, 1.0)
        for _ in range(50):
            i = int(trials_rng.integers(rng.n_points))
            a = float(trials_rng.uniform(0, 2))
            land = apply_transfer(Landscape.zeros(rng), model, i, a)
            twice = apply_transfer(land, model, i, a)
            np.testing.assert_array_equal(land.values, twice.values)

    def test_exactness_at_source(self):
        rng = HoldRange(0, 10, 0.5)
        model = symmetric_model(0.3, 1.0)
        achieved = 0.123456789012345
        i = on_grid(rng, 3.5)
        land = apply_transfer(Landscape.zeros(rng), model, i, achieved)
        assert land.values[i] == achieved  # bit-for-bit

    def test_gap_symmetry(self):
        m = symmetric_model(0.07, 1.0)
        rng = HoldRange(0, 10, 0.5)
        grid = rng.grid()
        for a in grid[::3]:
            for b in grid[::4]:
                assert gap(m, a, b) == gap(m, b, a)


def reference_csv_text(land):
    """The landscape CSV as it was first written: one f-string per row."""
    lines = ["delta,performance"]
    for d, v in zip(land.range.grid(), land.values):
        lines.append(f"{d:.6g},{v:.6g}")
    return "\n".join(lines) + "\n"


class TestCsv:
    @pytest.mark.parametrize("hold_range", [
        HoldRange(0, 40, 0.1), HoldRange(2.5, 3.5, 0.025), HoldRange(0, 1e-300, 1e-302),
        HoldRange(1e300, 2e300, 1e298), HoldRange(0, 1, 1),
    ], ids=["wide", "offset", "tiny", "huge", "two-points"])
    def test_bytes_match_the_reference_formatter(self, hold_range):
        n = hold_range.n_points
        gen = np.random.default_rng(n)
        special = np.array([0.0, -0.0, 5e-324, 1e-310, 1e-5, 123456.5, 9999995.0,
                            1e300, 1.7976931348623157e308, -2.5, np.inf, np.nan])
        cases = [
            gen.normal(size=n) * 10.0 ** gen.uniform(-30, 30, n),  # random, any magnitude
            gen.uniform(0, 4, n),
            np.zeros(n),
            np.full(n, -0.0),
            np.resize(special, n),
        ]
        for values in cases:
            land = Landscape(hold_range, values)
            assert landscape_csv_text(land) == reference_csv_text(land)

    def test_format_and_roundtrip(self, tmp_path):
        rng = HoldRange(0, 1, 0.25)
        model = symmetric_model(1.0, 1.0)
        land = apply_transfer(Landscape.zeros(rng), model, on_grid(rng, 0.5), 1.0)
        text = landscape_csv_text(land)
        lines = text.strip().splitlines()
        assert lines[0] == "delta,performance"
        assert len(lines) == rng.n_points + 1
        assert lines[1] == "0,0.5"
        assert lines[3] == "0.5,1"
