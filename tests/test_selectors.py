"""Selection strategies: greedy picks, schedules, bookkeeping, properties."""

import re
from pathlib import Path

import numpy as np
import pytest

from temporal_transfer.landscape import (
    GapModel,
    HoldRange,
    Landscape,
    aggregate_area,
    apply_transfer,
    slope_tol,
    symmetric_model,
)
from temporal_transfer.selectors import (
    SegmentTable,
    SelectionError,
    SelectionState,
    SelectorKind,
    find_greedy_transfer_point,
    iterations_csv_text,
    run_cttl,
    run_exhaustive,
    run_gttl,
    run_rttl,
    run_selector,
)
from temporal_transfer.theory import full_area, ghost_cell_lower_bound, suboptimality_bound
from temporal_transfer.trainers import DecayingTrainer, EvaluatorResult, IdealTrainer

WIDE = HoldRange(0, 40, 0.1)
WIDE_MODEL = symmetric_model(1 / 40, 1.0)
UNIT = HoldRange(0, 1, 0.0025)
UNIT_MODEL = symmetric_model(1.0, 1.0)


def cttl_sources(hold_range, budget):
    """The durations the coarse-to-fine schedule trains, in order."""
    return run_cttl(IdealTrainer(1.0, hold_range), symmetric_model(0.0, 1.0), hold_range, budget).sources


def grid_area(hold_range, model, transfers):
    """Grid-integration oracle, independent of the selectors."""
    grid = hold_range.grid()
    values = np.zeros_like(grid)
    for d, achieved in transfers:
        tent = achieved - np.where(
            grid <= d, model.theta_left * (d - grid), model.theta_right * (grid - d)
        )
        values = np.maximum(values, np.maximum(tent, 0.0))
    return float(np.trapezoid(values, dx=hold_range.resolution))


class FailingTrainer(IdealTrainer):
    """Fails at call `fail_at_call`: raises, or given `achieved`, returns it."""

    def __init__(self, j_star, hold_range, fail_at_call, achieved=None):
        super().__init__(j_star, hold_range)
        self.calls = 0
        self.fail_at_call = fail_at_call
        self.achieved = achieved

    def evaluate(self, delta):
        self.calls += 1
        if self.calls == self.fail_at_call:
            if self.achieved is None:
                raise RuntimeError("synthetic trainer outage")
            return EvaluatorResult(delta=delta, achieved=self.achieved, policy_id="failing")
        return super().evaluate(delta)


def greedy_pick(state: SelectionState, model: GapModel) -> int:
    """The greedy pick, from a segment table built for the state."""
    return find_greedy_transfer_point(state, model, SegmentTable.build(state.landscape, state.picks, model))


class TestFindGreedyTransferPoint:
    def test_fresh_state_picks_midpoint(self):
        state = SelectionState(landscape=Landscape.zeros(WIDE))
        assert WIDE.point(greedy_pick(state, WIDE_MODEL)) == pytest.approx(20.0)

    def test_second_pick_breaks_tie_toward_coarser(self):
        land = apply_transfer(Landscape.zeros(WIDE), WIDE_MODEL, 200, 1.0)
        state = SelectionState(landscape=land, picks=[200])
        pick = WIDE.point(greedy_pick(state, WIDE_MODEL))
        assert pick == pytest.approx(33.3)  # (20 + 2*40)/3 snapped to grid

    def test_positive_segment_alone_gives_trisection(self):
        rng = HoldRange(0, 20, 0.1)
        model = symmetric_model(1 / 40, 1.0)
        land = apply_transfer(Landscape.zeros(rng), model, 200, 1.0)
        state = SelectionState(landscape=land, picks=[200])
        assert rng.point(greedy_pick(state, model)) == pytest.approx(6.7)

    @pytest.mark.parametrize("below, pick", [(1.5e-12, 300), (2e-12, 300), (2.5e-12, 100)])
    def test_gains_within_the_tie_tolerance_go_to_the_coarser_pick(self, below, pick):
        # a table made by hand: segment 0 picks cell 100 at gain 1, segment 1
        # cell 300 at a gain `below` lower; within 1e-12 * (|1| + 1), inclusive,
        # the two tie and the coarser cell wins, and past it the larger gain
        land = apply_transfer(Landscape.zeros(WIDE), WIDE_MODEL, 200, 1.0)
        state = SelectionState(landscape=land, picks=[200])
        table = SegmentTable(land, slope_tol(land), [0, 200, 400], np.array([100, 300]),
                             np.array([1.0, 1.0 - below]))
        assert find_greedy_transfer_point(state, WIDE_MODEL, table) == pick

    def test_duplicate_guard_returns_fresh_cell(self):
        rng = HoldRange(0, 1, 0.5)  # grid {0, 0.5, 1}
        model = symmetric_model(1.0, 1.0)
        land = Landscape.zeros(rng)
        for i in (1, 2):
            land = apply_transfer(land, model, i, 1.0)
        state = SelectionState(landscape=land, picks=[1, 2])
        assert rng.point(greedy_pick(state, model)) == 0.0


class TestRunGttl:
    def test_single_step_example(self):
        state = run_gttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=1, epsilon=0.0)
        assert state.sources == [20.0]
        assert state.area == pytest.approx(30.0, abs=0.1)

    def test_three_step_example(self):
        state = run_gttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=3, epsilon=0.0)
        assert [round(s, 1) for s in state.sources] == [20.0, 33.3, 6.7]
        expected = grid_area(WIDE, WIDE_MODEL, [(d, 1.0) for d in state.sources])
        assert state.area == pytest.approx(expected, rel=1e-12)
        assert state.area == pytest.approx(36.67, abs=0.1)
        # the closed-form construction value is only a lower bound
        assert state.area >= ghost_cell_lower_bound(WIDE, WIDE_MODEL, 3)

    def test_defaults_are_budget_15_and_epsilon_5_percent(self):
        trainer = IdealTrainer(1.0, WIDE)
        assert run_gttl(trainer, WIDE_MODEL, WIDE, epsilon=0.0).iteration == 15
        assert run_gttl(trainer, WIDE_MODEL, WIDE, budget=40).picks == run_gttl(
            trainer, WIDE_MODEL, WIDE, budget=40, epsilon=0.05).picks

    def test_backend_snap_moves_a_pick_unless_it_retrains_one(self):
        class Thirds(IdealTrainer):  # trains at whole multiples of 3 s only
            def snap_delta(self, delta):
                return 3.0 * round(delta / 3)

        state = run_gttl(Thirds(1.0, WIDE), WIDE_MODEL, WIDE, budget=20, epsilon=0.0)
        assert state.sources[:3] == [21.0, 6.0, 33.0]
        # the 14 multiples of 3 are all taken by then: later picks stay on the grid
        assert len(set(state.picks)) == 20 and state.sources[14] == 37.5

    def test_epsilon_one_returns_empty(self):
        state = run_gttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=5, epsilon=1.0)
        assert state.sources == []
        assert state.area_history == []

    def test_epsilon_stops_early(self):
        # 0.75*A* covered by the first pick; epsilon=0.3 accepts that
        state = run_gttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=10, epsilon=0.3)
        assert state.sources == [20.0]

    def test_results_above_j_star_do_not_count_as_coverage(self):
        class Overshooting(IdealTrainer):
            def evaluate(self, delta):
                return EvaluatorResult(delta=delta, achieved=1.25, policy_id="over")

        # The first pick, at 20 s, covers 40 of raw area, above the
        # 0.95 * W * j* = 38 target, but only 37.5 of it lies below j*.
        state = run_gttl(Overshooting(1.0, WIDE), WIDE_MODEL, WIDE, budget=40, epsilon=0.05)
        assert 1 < state.iteration < 40
        assert aggregate_area(state.landscape, cap=1.0) > 0.95 * 40
        before = Landscape.zeros(WIDE)
        for i in state.picks[:-1]:
            before = apply_transfer(before, WIDE_MODEL, i, 1.25)
        assert aggregate_area(before, cap=1.0) <= 0.95 * 40

    def test_invalid_arguments(self):
        trainer = IdealTrainer(1.0, WIDE)
        with pytest.raises(ValueError):
            run_gttl(trainer, WIDE_MODEL, WIDE, budget=0)
        with pytest.raises(ValueError):
            run_gttl(trainer, WIDE_MODEL, WIDE, budget=1, epsilon=-0.1)
        with pytest.raises(ValueError, match=re.escape("epsilon must be in [0, 1], got 1.5")):
            run_gttl(trainer, WIDE_MODEL, WIDE, budget=1, epsilon=1.5)
        # an asymmetric slope sum that overflows, refused before any pick
        with pytest.raises(ValueError, match=re.escape("(theta_left + theta_right) * d_max")):
            run_gttl(trainer, GapModel(1.7e308, 1.6e308, 1.0), HoldRange(0.0, 1.0, 0.25), budget=3, epsilon=0.0)

    # a trainer exception, and a result whose areas overflow
    @pytest.mark.parametrize("achieved", [None, 1e308])
    def test_trainer_failure_carries_partial_state(self, achieved):
        trainer = FailingTrainer(1.0, WIDE, fail_at_call=3, achieved=achieved)
        with pytest.raises(SelectionError) as err:
            run_gttl(trainer, WIDE_MODEL, WIDE, budget=5, epsilon=0.0)
        partial = err.value.state
        assert len(partial.sources) == 2 == len(partial.area_history)
        assert partial.area == pytest.approx(
            grid_area(WIDE, WIDE_MODEL, [(d, 1.0) for d in partial.sources]), rel=1e-12
        )

    def test_anytime_truncation_equals_replay(self):
        state = run_gttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=6, epsilon=0.0)
        j = 3
        land = Landscape.zeros(WIDE)
        for i, res in zip(state.picks[:j], state.results[:j]):
            land = apply_transfer(land, WIDE_MODEL, i, res.achieved)
        assert aggregate_area(land) == pytest.approx(state.area_history[j - 1], rel=1e-15)

    def test_budget_beyond_grid_stops_cleanly(self):
        rng = HoldRange(0, 1, 0.5)
        model = symmetric_model(1.0, 1.0)
        state = run_gttl(IdealTrainer(1.0, rng), model, rng, budget=10, epsilon=0.0)
        assert sorted(state.sources) == [0.0, 0.5, 1.0]

    def test_first_pick_is_midpoint_for_any_symmetric_model(self):
        for d_min, d_max, theta in ((0.0, 12.0, 0.05), (2.0, 10.0, 0.1), (0.0, 40.0, 0.02)):
            rng = HoldRange(d_min, d_max, (d_max - d_min) / 200)
            model = symmetric_model(theta, 1.0)
            state = run_gttl(IdealTrainer(1.0, rng), model, rng, budget=1, epsilon=0.0)
            assert state.sources[0] == pytest.approx((d_min + d_max) / 2)


class TestCttl:
    def test_schedule_examples(self):
        assert cttl_sources(WIDE, 2) == [30.0, 10.0]
        assert cttl_sources(WIDE, 1) == [20.0]

    def test_schedule_formula_fine_grid(self):
        rng = HoldRange(1, 40, 0.001)
        got = cttl_sources(rng, 7)
        expected = [40 - (2 * k + 1) / 14 * 39 for k in range(7)]
        assert got == pytest.approx(expected, abs=rng.resolution / 2)
        assert got == pytest.approx(
            [37.214, 31.643, 26.071, 20.5, 14.929, 9.357, 3.786], abs=5e-4
        )
        assert all(a > b for a, b in zip(got, got[1:]))  # strictly coarse to fine

    def test_two_step_area_matches_closed_form(self):
        rng = HoldRange(0, 1, 0.25)
        model = symmetric_model(1.0, 1.0)
        state = run_cttl(IdealTrainer(1.0, rng), model, rng, budget=2)
        assert state.sources == [0.75, 0.25]
        assert state.area == pytest.approx(0.875)

    def test_single_step_equals_gttl_first(self):
        state = run_cttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=1)
        assert state.sources == [20.0]
        assert state.area == pytest.approx(30.0, abs=0.1)

    def test_k10_matches_closed_form_within_cell(self):
        state = run_cttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=10)
        assert state.area == pytest.approx(39.0, abs=WIDE.resolution * WIDE_MODEL.j_star)

    def test_budget_required(self):
        with pytest.raises(ValueError):
            run_cttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=0)

    def test_default_budget_is_15(self):
        assert run_cttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE).iteration == 15

    def test_plan_over_the_merge_limit_is_rejected_before_training(self):
        rng = HoldRange(0, 1, 1 / 70_000)  # 70,001 points: 4.9e9 merged points for 70,001 picks
        with pytest.raises(ValueError, match=re.escape("plan length * grid points")):
            run_cttl(FailingTrainer(1.0, rng, fail_at_call=1), UNIT_MODEL, rng, budget=rng.n_points)

    def test_iterations_csv_text(self):
        state = run_cttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=2)
        assert iterations_csv_text(state) == "iteration,delta,achieved,area\n1,30,1,27.5\n2,10,1,35\n"


class TestRttl:
    def test_seeded_determinism(self):
        a = run_rttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=5, seed=7)
        b = run_rttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=5, seed=7)
        assert a.sources == b.sources
        assert a.area_history == b.area_history

    def test_defaults_are_budget_15_and_seed_0(self):
        trainer = IdealTrainer(1.0, WIDE)
        state = run_rttl(trainer, WIDE_MODEL, WIDE)
        assert state.iteration == 15
        assert state.picks == run_rttl(trainer, WIDE_MODEL, WIDE, budget=15, seed=0).picks
        assert run_rttl(trainer, WIDE_MODEL, WIDE, budget=1, seed=0).iteration == 1

    def test_exhaustive_limit(self):
        rng = HoldRange(0, 1, 0.1)
        model = symmetric_model(1.0, 1.0)
        state = run_rttl(IdealTrainer(1.0, rng), model, rng, budget=rng.n_points, seed=3)
        assert sorted(state.sources) == pytest.approx(list(rng.grid()))
        assert state.area == pytest.approx(1.0, rel=1e-12)

    def test_budget_over_grid_rejected(self):
        rng = HoldRange(0, 1, 0.5)
        with pytest.raises(ValueError):
            run_rttl(IdealTrainer(1.0, rng), symmetric_model(1.0, 1.0), rng, budget=4)

    def test_mean_coverage_below_optimal_schedule(self):
        rng = HoldRange(0, 1, 0.025)
        model = symmetric_model(1.0, 1.0)
        trainer = IdealTrainer(1.0, rng)
        areas = [
            run_rttl(trainer, model, rng, budget=2, seed=seed).area for seed in range(100)
        ]
        assert float(np.mean(areas)) < 0.875


class TestExhaustive:
    def test_landscape_equals_per_cell_training(self):
        rng = HoldRange(0, 2, 0.5)
        model = symmetric_model(0.1, 1.0)
        trainer = DecayingTrainer(1.0, rng, decay=0.5)
        state = run_exhaustive(trainer, model, rng)
        assert state.iteration == rng.n_points
        for i, d in enumerate(rng.grid()):
            direct = trainer.evaluate(float(d)).achieved
            assert state.landscape.values[i] >= direct - 1e-12

    def test_dispatcher(self):
        state = run_selector(
            SelectorKind.CTTL, IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=2
        )
        assert state.sources == [30.0, 10.0]


class TestAnalyticalProperties:
    def test_cttl_dominance_and_ghost_bound_k1_to_16(self):
        trainer = IdealTrainer(1.0, UNIT)
        gttl = run_gttl(trainer, UNIT_MODEL, UNIT, budget=16, epsilon=0.0)
        for k in range(1, 17):
            cttl_area = run_cttl(trainer, UNIT_MODEL, UNIT, budget=k).area
            gttl_area = gttl.area_history[k - 1]
            cell = UNIT.resolution * UNIT_MODEL.j_star
            assert cttl_area >= gttl_area - cell
            assert gttl_area >= ghost_cell_lower_bound(UNIT, UNIT_MODEL, k)

    def test_suboptimality_bound_k2_to_17(self):
        trainer = IdealTrainer(1.0, UNIT)
        gttl = run_gttl(trainer, UNIT_MODEL, UNIT, budget=17, epsilon=0.0)
        cell = UNIT.resolution * UNIT_MODEL.j_star
        for k in range(2, 18):
            cttl_area = run_cttl(trainer, UNIT_MODEL, UNIT, budget=k).area
            gap = cttl_area - gttl.area_history[k - 1]
            assert gap <= suboptimality_bound(UNIT, UNIT_MODEL, k) + cell

    def test_coverage_threshold_reached_within_predicted_steps(self):
        # epsilon = 1/2^(i+2) is covered within 2^i + 1 trainings for i <= 3;
        # i = 4 is the k=17 counterexample pinned in the acceptance suite
        # (greedy coverage 15299/15552 sits below the 1 - 1/64 target).
        trainer = IdealTrainer(1.0, UNIT)
        for i in range(4):
            epsilon = 1 / 2 ** (i + 2)
            state = run_gttl(trainer, UNIT_MODEL, UNIT, budget=64, epsilon=epsilon)
            a_star = UNIT.width * UNIT_MODEL.j_star
            assert state.iteration <= 2**i + 1
            assert state.area > (1 - epsilon) * a_star

    def test_decaying_trainer_keeps_area_monotone(self):
        trainer = DecayingTrainer(1.0, WIDE, decay=0.5)
        state = run_gttl(trainer, WIDE_MODEL, WIDE, budget=8, epsilon=0.0)
        assert all(
            b >= a - 1e-12 for a, b in zip(state.area_history, state.area_history[1:])
        )

    def test_no_duplicate_sources(self):
        for seed in range(5):
            state = run_rttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=12, seed=seed)
            assert len(set(state.sources)) == len(state.sources)
        state = run_gttl(IdealTrainer(1.0, WIDE), WIDE_MODEL, WIDE, budget=12, epsilon=0.0)
        assert len(set(state.sources)) == len(state.sources)


def test_readme_library_sketch_runs_as_its_comments_state():
    # The README's sketch runs as written and gives what its comments state.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    names = {}
    exec(sketch, names)
    state = names["state"]
    assert state.picks == [200, 333, 67]
    assert state.sources == [20.0, 33.300000000000004, 6.7]
    assert round(state.area, 2) == 36.67
    assert names["best"].picks == (7, 20, 33)
    assert full_area(names["hold_range"], names["model"]) == 40.0


def test_package_root_exports_exactly_the_readme_sketch_names():
    # The sketch's `from temporal_transfer import (...)` is the package
    # root's whole public surface; every other name lives in its module.
    import temporal_transfer

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    imported = re.search(r"from temporal_transfer import \((.*?)\)", readme, re.S).group(1)
    assert set(temporal_transfer.__all__) == {name.strip() for name in imported.split(",") if name.strip()}
    assert len(temporal_transfer.__all__) == 6


def test_no_file_imports_another_name_from_the_package_root():
    # `from temporal_transfer import X` names a submodule or a sketch name.
    import ast

    import temporal_transfer

    root = Path(__file__).resolve().parents[1]
    package = Path(temporal_transfer.__file__).parent
    allowed = set(temporal_transfer.__all__) | {p.stem for p in package.glob("*.py")}
    found = set()
    for path in [*root.glob("tests/*.py"), *root.glob("perfbench/*.py"), *root.glob("src/temporal_transfer/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "temporal_transfer" and node.level == 0:
                found |= {(path.name, alias.name) for alias in node.names}
    assert found, "the scan should see the tests' own submodule imports"
    assert {(name, alias) for name, alias in found if alias not in allowed} == set()
