"""Landscape, gap model, segmentation, and serialization tests."""

import numpy as np
import pytest

from temporal_transfer.landscape import (
    GapModel,
    GridAlignmentError,
    HoldRange,
    Landscape,
    Segment,
    SlopeClass,
    aggregate_area,
    apply_transfer,
    gap,
    landscape_csv_text,
    segments,
    symmetric_model,
)


def tent_envelope(hold_range, model, transfers, force_sources=True):
    """Independent construction: pointwise max of clamped tents.

    With force_sources the measured value overrides the envelope at each
    source, mirroring the update rule; without it the result is a pure
    envelope, which is gap-Lipschitz and serves as a hidden ground truth.
    """
    grid = hold_range.grid()
    values = np.zeros_like(grid)
    for d, achieved in transfers:
        tent = np.where(
            grid <= d,
            achieved - model.theta_left * (d - grid),
            achieved - model.theta_right * (grid - d),
        )
        values = np.maximum(values, np.maximum(tent, 0.0))
    if force_sources:
        for d, achieved in transfers:
            values[hold_range.index_of(d)] = achieved
    return values


class TestHoldRange:
    def test_grid_shape(self):
        rng = HoldRange(0, 40, 0.1)
        assert rng.n_cells == 400
        assert rng.n_points == 401
        assert rng.grid()[0] == 0.0
        assert rng.grid()[-1] == pytest.approx(40.0)

    def test_cell_count_is_not_part_of_equality_or_repr(self):
        rng = HoldRange(0, 40, 0.1)
        assert repr(rng) == "HoldRange(d_min=0, d_max=40, resolution=0.1)"
        assert rng == HoldRange(0, 40, 0.1) and hash(rng) == hash(HoldRange(0, 40, 0.1))
        assert rng != HoldRange(0, 40, 0.2)

    def test_nearest_index_of_an_array_matches_scalars_at_half_cells(self):
        # Half-cell picks are where rounding decides: halves go to the even
        # index, for one duration and for an array alike, and the ends clamp.
        rng = HoldRange(0, 40, 0.1)
        halves = [rng.point(i) + rng.resolution / 2 for i in range(-3, rng.n_points + 2)]
        midpoints = [(rng.point(lo) + rng.point(lo + cells)) / 2
                     for lo in (0, 3, 17, 199) for cells in (1, 3, 7, 201)]
        picks = halves + midpoints
        scalar = [rng.nearest_index(p) for p in picks]
        assert all(type(i) is int for i in scalar)
        assert rng.nearest_index(np.array(picks)).tolist() == scalar
        want = [min(max(round((p - rng.d_min) / rng.resolution), 0), rng.n_cells) for p in picks]
        assert scalar == want

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            HoldRange(5, 5, 0.1)
        with pytest.raises(ValueError):
            HoldRange(-1, 5, 0.1)
        with pytest.raises(ValueError):
            HoldRange(0, 1, 0.3)  # not a whole number of cells
        with pytest.raises(ValueError):
            HoldRange(0, 1, -0.1)

    def test_snap_and_index(self):
        rng = HoldRange(0, 40, 0.1)
        assert rng.snap(33.333) == pytest.approx(33.3)
        assert rng.snap(-3.0) == 0.0
        assert rng.snap(45.0) == pytest.approx(40.0)
        assert rng.index_of(rng.point(123)) == 123
        with pytest.raises(GridAlignmentError):
            rng.index_of(0.05)


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


class TestApplyTransfer:
    def setup_method(self):
        self.rng = HoldRange(0, 40, 0.1)
        self.model = symmetric_model(1 / 40, 1.0)
        self.zero = Landscape.zeros(self.rng)

    def test_single_transfer_values(self):
        land = apply_transfer(self.zero, self.model, 20.0, 1.0)
        assert land.value_at(30.0) == pytest.approx(0.75)
        assert land.value_at(0.0) == pytest.approx(0.5)
        assert land.value_at(20.0) == 1.0

    def test_second_transfer_takes_pointwise_max(self):
        land = apply_transfer(self.zero, self.model, 20.0, 1.0)
        land = apply_transfer(land, self.model, 33.3, 1.0)
        # candidate from the new source: 1 - (40 - 33.3)/40; old estimate 0.5
        assert land.value_at(40.0) == pytest.approx(1 - 6.7 / 40)
        assert land.value_at(40.0) > 0.5
        expected = tent_envelope(self.rng, self.model, [(20.0, 1.0), (33.3, 1.0)])
        np.testing.assert_allclose(land.values, expected, atol=1e-12)

    def test_zero_achievement_overrides_at_source(self):
        land = apply_transfer(self.zero, self.model, 20.0, 1.0)
        land = apply_transfer(land, self.model, 20.0, 0.0)
        assert land.value_at(20.0) == 0.0
        # neighbours keep the old extrapolation
        assert land.value_at(20.1) == pytest.approx(1 - 0.1 / 40)

    def test_off_grid_source_rejected(self):
        with pytest.raises(GridAlignmentError):
            apply_transfer(self.zero, self.model, 20.05, 1.0)

    def test_negative_achieved_rejected(self):
        with pytest.raises(ValueError):
            apply_transfer(self.zero, self.model, 20.0, -0.5)

    def test_inputs_not_mutated(self):
        before = self.zero.values.copy()
        apply_transfer(self.zero, self.model, 20.0, 1.0)
        np.testing.assert_array_equal(self.zero.values, before)
        with pytest.raises(ValueError):
            self.zero.values[0] = 5.0


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
        land = apply_transfer(Landscape.zeros(rng), model, 20.0, 1.0)
        # 0.75 * theta * width^2 = 30; grid integral is exact here (kinks on grid)
        assert aggregate_area(land) == pytest.approx(30.0, abs=rng.resolution * model.j_star)


class TestSegments:
    def setup_method(self):
        self.rng = HoldRange(0, 40, 0.1)
        self.model = symmetric_model(1 / 40, 1.0)

    def test_fresh_landscape_is_one_flat_segment(self):
        segs = segments(Landscape.zeros(self.rng), [])
        assert [(s.left, s.right, s.slope_class) for s in segs] == [(0.0, 40.0, SlopeClass.FLAT)]

    def test_one_source_splits_positive_negative(self):
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 20.0, 1.0)
        segs = segments(land, [200])
        assert [s.slope_class for s in segs] == [SlopeClass.POSITIVE, SlopeClass.NEGATIVE]
        assert segs[0].right == segs[1].left == pytest.approx(20.0)

    def test_two_sources_give_symmetric_v_between(self):
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 20.0, 1.0)
        land = apply_transfer(land, self.model, 33.3, 1.0)
        segs = segments(land, [200, 333])
        assert [s.slope_class for s in segs] == [
            SlopeClass.POSITIVE,
            SlopeClass.SYMMETRIC_V,
            SlopeClass.NEGATIVE,
        ]

    def test_len_counts_the_segments_iterated(self):
        # The benchmark's tracer sums len(segments(...)) as segments per call.
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 20.0, 1.0)
        for picks in ([], [0], [400], [0, 400], [200], [0, 1, 2, 200, 399, 400]):
            segs = segments(land, picks)
            items = list(segs)
            assert len(segs) == len(items) == len({0, 400, *picks}) - 1
            assert all(type(s) is Segment for s in items)
            assert segs[-1] == items[-1]

    def test_unequal_peaks_classified_by_net_change(self):
        land = apply_transfer(Landscape.zeros(self.rng), self.model, 10.0, 1.0)
        land = apply_transfer(land, self.model, 30.0, 0.4)
        seg = segments(land, [100, 300])[1]
        assert seg.slope_class == SlopeClass.NEGATIVE


class TestProperties:
    """Randomized invariants; the heavyweight 1000-trial version lives in
    the acceptance suite."""

    def _consistent_transfers(self, rng, model, trials_rng, n):
        """Achieved values consistent with a hidden tent-envelope truth."""
        anchors = [
            (rng.snap(trials_rng.uniform(rng.d_min, rng.d_max)), trials_rng.uniform(0, model.j_star))
            for _ in range(3)
        ]
        # Slightly inside the envelope so no measurement ties another tent
        # exactly; ties resolve at ulp level differently per order.
        truth = 0.999 * tent_envelope(rng, model, anchors, force_sources=False)
        picks = trials_rng.choice(rng.n_points, size=n, replace=False)
        return [(rng.point(int(i)), float(truth[int(i)])) for i in picks]

    def test_monotone_area_and_order_invariance(self):
        trials_rng = np.random.default_rng(1234)
        rng = HoldRange(0, 10, 0.5)
        model = symmetric_model(0.08, 1.0)
        for _ in range(50):
            transfers = self._consistent_transfers(rng, model, trials_rng, 4)
            ceiling = rng.width * max(a for _, a in transfers)
            land = Landscape.zeros(rng)
            prev_area = 0.0
            for d, a in transfers:
                land = apply_transfer(land, model, d, a)
                area = aggregate_area(land)
                assert area >= prev_area - 1e-12
                assert area <= ceiling + 1e-12
                prev_area = area
            shuffled = list(transfers)
            trials_rng.shuffle(shuffled)
            other = Landscape.zeros(rng)
            for d, a in shuffled:
                other = apply_transfer(other, model, d, a)
            np.testing.assert_array_equal(land.values, other.values)

    def test_idempotence_unconditional(self):
        trials_rng = np.random.default_rng(99)
        rng = HoldRange(0, 10, 0.5)
        model = GapModel(0.05, 0.11, 1.0)
        for _ in range(50):
            d = rng.point(int(trials_rng.integers(rng.n_points)))
            a = float(trials_rng.uniform(0, 2))
            land = apply_transfer(Landscape.zeros(rng), model, d, a)
            twice = apply_transfer(land, model, d, a)
            np.testing.assert_array_equal(land.values, twice.values)

    def test_exactness_at_source(self):
        rng = HoldRange(0, 10, 0.5)
        model = symmetric_model(0.3, 1.0)
        achieved = 0.123456789012345
        land = apply_transfer(Landscape.zeros(rng), model, 3.5, achieved)
        assert land.value_at(3.5) == achieved  # bit-for-bit

    def test_gap_symmetry(self):
        m = symmetric_model(0.07, 1.0)
        rng = HoldRange(0, 10, 0.5)
        grid = rng.grid()
        for a in grid[::3]:
            for b in grid[::4]:
                assert gap(m, a, b) == gap(m, b, a)


class TestCsv:
    def test_format_and_roundtrip(self, tmp_path):
        rng = HoldRange(0, 1, 0.25)
        model = symmetric_model(1.0, 1.0)
        land = apply_transfer(Landscape.zeros(rng), model, 0.5, 1.0)
        text = landscape_csv_text(land)
        lines = text.strip().splitlines()
        assert lines[0] == "delta,performance"
        assert len(lines) == rng.n_points + 1
        assert lines[1] == "0,0.5"
        assert lines[3] == "0.5,1"
