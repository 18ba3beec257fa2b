"""The exact best-subset oracle, pinned to brute force, and greedy certification."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temporal_transfer.landscape import (
    GapModel,
    HoldRange,
    Landscape,
    apply_transfer,
    symmetric_model,
)
from temporal_transfer.oracle import (
    best_marginal_cell,
    coarse_range,
    exhaustive_best,
    greedy_vs_oracle,
)
from temporal_transfer.selectors import run_cttl, run_gttl, run_rttl
from temporal_transfer.theory import cttl_optimal_area
from temporal_transfer.trainers import IdealTrainer

UNIT = HoldRange(0, 1, 0.025)
MODEL = symmetric_model(1.0, 1.0)
SKEWED = GapModel(theta_left=2.0, theta_right=0.5, j_star=1.0)


def envelope_areas(hold_range, model, cells, subsets):
    """Trapezoid area of the max-of-tents landscape of each subset (rows of
    grid indices), built directly from the gap model."""
    grid = coarse_range(hold_range, cells).grid()
    h = hold_range.width / (cells - 1)
    weights = np.full(cells, h)
    weights[0] = weights[-1] = h / 2
    sources = grid[np.asarray(subsets)][..., None]  # (subsets, k, 1)
    gaps = np.where(
        grid >= sources, model.theta_right * (grid - sources), model.theta_left * (sources - grid)
    )
    envelope = np.maximum(model.j_star - gaps, 0.0).max(axis=-2)
    return envelope @ weights


def brute_force_area(hold_range, model, k, cells):
    """Largest envelope area over every K-subset of the coarse grid."""
    subsets = list(itertools.combinations(range(cells), k))
    return float(envelope_areas(hold_range, model, cells, subsets).max())


def assert_matches_brute_force(hold_range, model, k, cells):
    result = exhaustive_best(hold_range, model, k, coarse_cells=cells)
    want = brute_force_area(hold_range, model, k, cells)
    assert result.best_area == pytest.approx(want, rel=1e-12, abs=0)
    coarse = coarse_range(hold_range, cells)
    picks = [coarse.index_of(d) for d in result.best_sequence]
    assert len(picks) == k
    assert picks == sorted(set(picks))
    assert result.best_sequence == tuple(float(coarse.grid()[i]) for i in picks)
    own = float(envelope_areas(hold_range, model, cells, [picks])[0])
    assert own == pytest.approx(result.best_area, rel=1e-12, abs=0)


class TestExhaustiveBest:
    def test_single_pick_is_midpoint(self):
        result = exhaustive_best(UNIT, MODEL, 1, coarse_cells=41)
        assert result.best_sequence == (0.5,)
        assert result.best_area == pytest.approx(0.75, abs=0.025)

    def test_two_picks_match_quartiles(self):
        result = exhaustive_best(UNIT, MODEL, 2, coarse_cells=41)
        assert result.best_sequence == pytest.approx((0.25, 0.75), abs=0.025)
        assert result.best_area == pytest.approx(0.875, abs=0.025)

    def test_full_coverage(self):
        rng = HoldRange(0, 1, 0.1)
        result = exhaustive_best(rng, MODEL, 11, coarse_cells=11)
        assert result.best_area == pytest.approx(1.0, rel=1e-12)

    def test_large_grids_are_solved(self):
        for cells, k in ((101, 1), (81, 20)):
            result = exhaustive_best(UNIT, MODEL, k, coarse_cells=cells)
            cell = coarse_range(UNIT, cells).resolution * MODEL.j_star
            assert abs(result.best_area - cttl_optimal_area(UNIT, MODEL, k)) <= cell
            spaced = [round((2 * i + 1) / (2 * k) * (cells - 1)) for i in range(k)]
            assert result.best_area >= envelope_areas(UNIT, MODEL, cells, [spaced])[0] - 1e-12

    @pytest.mark.parametrize("k,cells", [(0, 41), (42, 41), (-1, 5)])
    def test_rejects_k_outside_grid(self, k, cells):
        with pytest.raises(ValueError, match="k must be in"):
            exhaustive_best(UNIT, MODEL, k, coarse_cells=cells)

    def test_rejects_grid_without_cells(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            exhaustive_best(UNIT, MODEL, 1, coarse_cells=1)

    def test_shrinking_grid_changes_area_at_most_one_cell(self):
        fine = exhaustive_best(UNIT, MODEL, 2, coarse_cells=41)
        coarse = exhaustive_best(UNIT, MODEL, 2, coarse_cells=21)
        cell = coarse_range(UNIT, 21).resolution * MODEL.j_star
        assert coarse.best_area <= fine.best_area + 1e-12
        assert fine.best_area <= coarse.best_area + cell

    def test_deterministic(self):
        a = exhaustive_best(UNIT, MODEL, 3, coarse_cells=21)
        b = exhaustive_best(UNIT, MODEL, 3, coarse_cells=21)
        assert a == b


class TestAgainstBruteForce:
    @pytest.mark.parametrize("model", [MODEL, SKEWED], ids=["symmetric", "skewed"])
    @pytest.mark.parametrize("cells", range(5, 22))
    def test_matches_enumeration(self, model, cells):
        for k in range(1, 6):
            assert_matches_brute_force(UNIT, model, k, cells)

    @pytest.mark.parametrize(
        "model",
        [GapModel(0.0, 0.3, 2.0), GapModel(0.3, 0.0, 2.0), GapModel(0.0, 0.0, 2.0)],
        ids=["flat-left", "flat-right", "flat"],
    )
    def test_one_sided_and_flat_tents(self, model):
        wide = HoldRange(0, 10, 10)
        for k in range(1, 5):
            assert_matches_brute_force(wide, model, k, 11)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        theta_left=st.floats(0.0, 5.0),
        theta_right=st.floats(0.0, 5.0),
        j_star=st.floats(0.1, 4.0),
        d_min=st.floats(0.0, 3.0),
        width=st.floats(0.25, 4.0),
        cells=st.integers(2, 15),
        data=st.data(),
    )
    def test_random_models(self, theta_left, theta_right, j_star, d_min, width, cells, data):
        k = data.draw(st.integers(1, min(4, cells)), label="k")
        hold_range = HoldRange(d_min, d_min + width, width)
        assert_matches_brute_force(hold_range, GapModel(theta_left, theta_right, j_star), k, cells)


class TestGreedyVsOracle:
    def test_first_pick_gap_is_zero(self):
        _, _, report = greedy_vs_oracle(UNIT, MODEL, 1, coarse_cells=41)
        assert report.holds
        assert abs(report.lhs) <= 1e-9

    def test_k3_within_bound(self):
        _, _, report = greedy_vs_oracle(UNIT, MODEL, 3, coarse_cells=41)
        assert report.holds
        assert report.rhs == pytest.approx(1 / 24 + 0.025)

    def test_k4_within_bound(self):
        _, _, report = greedy_vs_oracle(UNIT, MODEL, 4, coarse_cells=41)
        assert report.holds
        assert report.rhs == pytest.approx(1 / 18 + 0.025)


class TestSelectorOrdering:
    def test_oracle_cttl_gttl_rttl_ordering(self):
        coarse = coarse_range(UNIT, 41)
        trainer = IdealTrainer(1.0, coarse)
        cell = coarse.resolution * MODEL.j_star
        for k in (2, 3):
            best = exhaustive_best(UNIT, MODEL, k, coarse_cells=41).best_area
            cttl = run_cttl(trainer, MODEL, coarse, budget=k).area
            gttl = run_gttl(trainer, MODEL, coarse, budget=k, epsilon=0.0).area
            rttl_mean = float(
                np.mean(
                    [run_rttl(trainer, MODEL, coarse, budget=k, seed=s).area for s in range(30)]
                )
            )
            assert best >= cttl - cell
            assert cttl >= gttl - cell
            assert gttl >= rttl_mean - cell


class TestBestMarginalCell:
    def test_trisection_recovered_by_brute_force(self):
        land = apply_transfer(Landscape.zeros(UNIT), MODEL, 0.5, 1.0)
        left_pick, left_gain = best_marginal_cell(land, MODEL, 0.0, 0.5)
        right_pick, right_gain = best_marginal_cell(land, MODEL, 0.5, 1.0)
        assert left_pick == pytest.approx(1 / 6, abs=0.025)
        assert right_pick == pytest.approx(5 / 6, abs=0.025)
        assert left_gain == pytest.approx(1 / 12, abs=0.01)
        assert right_gain == pytest.approx(1 / 12, abs=0.01)
