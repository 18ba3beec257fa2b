"""The exact best-subset oracle, pinned to brute force, and greedy certification."""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import temporal_transfer
from temporal_transfer.landscape import (
    GapModel,
    HoldRange,
    Landscape,
    aggregate_area,
    apply_transfer,
    symmetric_model,
)
from temporal_transfer.oracle import (
    best_marginal_cell,
    coarse_range,
    exhaustive_best,
    greedy_vs_oracle,
    simulated_areas,
)
from temporal_transfer.selectors import run_cttl, run_gttl, run_rttl
from temporal_transfer.theory import cttl_optimal_area, suboptimality_bound
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
    picks = list(result.picks)
    assert len(picks) == k
    assert picks == sorted(set(picks))
    assert all(type(i) is int and 0 <= i < cells for i in picks)
    own = float(envelope_areas(hold_range, model, cells, [picks])[0])
    assert own == pytest.approx(result.best_area, rel=1e-12, abs=0)


class TestExhaustiveBest:
    def test_single_pick_is_midpoint(self):
        result = exhaustive_best(UNIT, MODEL, 1, coarse_cells=41)
        assert result.picks == (20,)
        assert result.best_area == pytest.approx(0.75, abs=0.025)

    def test_two_picks_match_quartiles(self):
        result = exhaustive_best(UNIT, MODEL, 2, coarse_cells=41)
        assert result.picks == pytest.approx((10, 30), abs=1)
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
        message = f"k must be >= 1, got {k}" if k < 1 else f"k = {k} is above the limit of {cells}"
        with pytest.raises(ValueError, match=message):
            exhaustive_best(UNIT, MODEL, k, coarse_cells=cells)

    def test_rejects_grid_without_cells(self):
        with pytest.raises(ValueError, match="coarse_cells must be >= 2, got 1"):
            exhaustive_best(UNIT, MODEL, 1, coarse_cells=1)

    def test_shrinking_grid_changes_area_at_most_one_cell(self):
        fine = exhaustive_best(UNIT, MODEL, 2, coarse_cells=41)
        coarse = exhaustive_best(UNIT, MODEL, 2, coarse_cells=21)
        cell = coarse_range(UNIT, 21).resolution * MODEL.j_star
        assert coarse.best_area <= fine.best_area + 1e-12
        assert fine.best_area <= coarse.best_area + cell

    @pytest.mark.parametrize("theta", [1e306, 2.2e306, 1e308])
    def test_huge_finite_crossovers_are_solved(self, theta):
        # every finite slope is solved, also where theta * 40 cells + theta *
        # 40 cells would overflow: the optimum of any positive slope above j*
        result = exhaustive_best(HoldRange(0, 1, 1), symmetric_model(theta, 1.0), 2, 41)
        assert result == exhaustive_best(HoldRange(0, 1, 1), symmetric_model(1e3, 1.0), 2, 41)

    def test_deterministic(self):
        a = exhaustive_best(UNIT, MODEL, 3, coarse_cells=21)
        b = exhaustive_best(UNIT, MODEL, 3, coarse_cells=21)
        assert a == b

    def test_default_grid_has_41_cells(self):
        assert exhaustive_best(UNIT, MODEL, 2) == exhaustive_best(UNIT, MODEL, 2, coarse_cells=41)

    @pytest.mark.parametrize("model", [MODEL, SKEWED, symmetric_model(0.0, 1.5)], ids=["symmetric", "skewed", "flat"])
    @pytest.mark.parametrize("k, cells", [(1, 41), (2, 41), (3, 21), (5, 81)])
    def test_area_is_that_of_a_run_of_the_picks(self, model, k, cells):
        # One area rule: the optimum's area is, bit for bit, aggregate_area
        # of the landscape that merging its picks builds.
        result = exhaustive_best(UNIT, model, k, coarse_cells=cells)
        coarse = coarse_range(UNIT, cells)
        land = Landscape.zeros(coarse)
        for i in result.picks:
            land = apply_transfer(land, model, i, model.j_star)
        assert result.best_area.hex() == aggregate_area(land).hex()

    def test_src_calls_no_blas_routine(self):
        # A BLAS product sums in an order that depends on the CPU's kernel,
        # so no area in the package goes through one.
        blas = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}
        for path in Path(temporal_transfer.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                assert not isinstance(node, ast.MatMult), f"{path.name}:{node.lineno}"
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    assert name not in blas, f"{path.name}:{node.lineno} calls {name}"


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

    @pytest.mark.parametrize("theta_left, theta_right",
                             [(5e306, 5e306), (1e308, 0.0), (1.0, 1e308), (2.26e306, 2.26e306)])
    def test_huge_finite_slopes(self, theta_left, theta_right):
        # theta_right * 40 cells + theta_left * 40 cells would overflow (the
        # last case: the sum only); the crossover's fraction of the way never does
        for k in (1, 2, 3):
            assert_matches_brute_force(HoldRange(0, 1, 1), GapModel(theta_left, theta_right, 1.0), k, 41)

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
        *_, report = greedy_vs_oracle(UNIT, MODEL, 1, coarse_cells=41)[-1]
        assert report.holds
        assert abs(report.lhs) <= 1e-9

    def test_k3_within_bound(self):
        *_, report = greedy_vs_oracle(UNIT, MODEL, 3, coarse_cells=41)[-1]
        assert report.holds
        assert report.rhs == pytest.approx(1 / 24 + 0.025)

    def test_k4_within_bound(self):
        *_, report = greedy_vs_oracle(UNIT, MODEL, 4, coarse_cells=41)[-1]
        assert report.holds
        assert report.rhs == pytest.approx(1 / 18 + 0.025)

    def test_default_grid_has_41_cells(self):
        assert greedy_vs_oracle(UNIT, MODEL, 3) == greedy_vs_oracle(UNIT, MODEL, 3, coarse_cells=41)

    @pytest.mark.parametrize("theta, cells, kmax", [(1.0, 41, 6), (0.5, 5, 5), (0.0, 5, 5)])
    def test_one_greedy_run_gives_every_budget(self, theta, cells, kmax):
        # The greedy is anytime: its kmax-pick run read after K picks is the
        # run of budget K, up to kmax = cells, which leaves no cell free.
        model = symmetric_model(theta, 1.0)
        coarse = coarse_range(UNIT, cells)
        rows = greedy_vs_oracle(UNIT, model, kmax, cells)
        assert len(rows) == kmax
        assert [list(column) for column in zip(*rows)][1:3] == list(simulated_areas(coarse, model, kmax))
        for k, (best, greedy, cttl, report) in enumerate(rows, start=1):
            assert best == exhaustive_best(UNIT, model, k, cells)
            assert greedy == run_gttl(IdealTrainer(1.0, coarse), model, coarse, budget=k, epsilon=0.0).area
            assert cttl == run_cttl(IdealTrainer(1.0, coarse), model, coarse, budget=k).area
            assert report.claim == f"T4-oracle-K{k}" and report.lhs == best.best_area - greedy
        assert rows[0][3].lhs == 0.0  # one rule: at K = 1 both pick the midpoint and score it alike

    def test_slack_is_one_cell_of_j_star(self):
        # At j* != 1 the one-cell slack is resolution * j*, not resolution / j*.
        model = symmetric_model(2.5, 2.5)
        cell = coarse_range(UNIT, 41).resolution * 2.5
        for k, (*_, report) in enumerate(greedy_vs_oracle(UNIT, model, 4), start=1):
            assert report.holds
            assert report.rhs == (suboptimality_bound(UNIT, model, k) if k >= 2 else 0.0) + cell


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
        mid = UNIT.nearest_index(0.5)
        assert UNIT.point(mid) == 0.5
        land = apply_transfer(Landscape.zeros(UNIT), MODEL, mid, 1.0)
        left_pick, left_gain = best_marginal_cell(land, MODEL, 0, mid)
        right_pick, right_gain = best_marginal_cell(land, MODEL, mid, UNIT.n_cells)
        assert UNIT.point(left_pick) == pytest.approx(1 / 6, abs=0.025)
        assert UNIT.point(right_pick) == pytest.approx(5 / 6, abs=0.025)
        assert left_gain == pytest.approx(1 / 12, abs=0.01)
        assert right_gain == pytest.approx(1 / 12, abs=0.01)
