"""The greedy selection core pinned to per-segment Python references: the
segment classification and the pick/gain rule (`optimal_pick_and_gain`,
which scores one segment on Python floats and snaps its pick with
`nearest_index`'s rounding), the segments they give, the greedy pick, and
the segment table that a greedy run brings up to date from pick to pick,
pinned to a full rescoring.

The references below are kept as they were written before the selection
core was vectorised: `reference_classify` classifies one slice of the
landscape at a time, `reference_pick_and_gain` is the pick/gain rule of one
segment before snapping, and `reference_pick` walks the segments in grid
order, keeping the running best under the tie rule. Landscapes come from
random `apply_transfer` sequences (hypothesis) and from replayed greedy
runs, whose mirror segments tie in gain at every step.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temporal_transfer.landscape import (
    SLOPE_TOL,
    GapModel,
    HoldRange,
    Landscape,
    SlopeClass,
    apply_transfer,
    best_marginal_cell,
    segments,
    symmetric_model,
)
from temporal_transfer.theory import optimal_pick_and_gain
from temporal_transfer import selectors
from temporal_transfer.selectors import (
    GridExhausted,
    SegmentTable,
    SelectionState,
    _train_and_apply,
    find_greedy_transfer_point,
    run_gttl,
)
from temporal_transfer.trainers import CsvReplayTrainer, DecayingTrainer, IdealTrainer, NoisyTrainer


def reference_classify(values, tol):
    v_left, v_right = values[0], values[-1]
    if values.max() - values.min() <= tol:
        return SlopeClass.FLAT
    interior_min = values.min()
    if interior_min < min(v_left, v_right) - tol and abs(v_left - v_right) <= tol:
        return SlopeClass.SYMMETRIC_V
    if v_right > v_left:
        return SlopeClass.POSITIVE
    return SlopeClass.NEGATIVE


def reference_segments(land, picks):
    """(left, right, slope class) of each segment, in grid order."""
    rng = land.range
    boundaries = sorted({0, rng.n_points - 1, *picks})
    tol = SLOPE_TOL * max(float(np.abs(land.values).max()), 1e-300)
    return [
        (rng.point(lo), rng.point(hi), reference_classify(land.values[lo : hi + 1], tol))
        for lo, hi in zip(boundaries[:-1], boundaries[1:])
    ]


def reference_pick_and_gain(segment, model, is_first):
    left, right, slope_class = segment
    theta = (model.theta_left + model.theta_right) / 2
    length = right - left
    if model.symmetric:
        split = (left + right) / 2
    else:
        split = (model.theta_left * left + model.theta_right * right) / (
            model.theta_left + model.theta_right
        )
    if is_first:
        return split, 0.75 * theta * length**2
    if slope_class is SlopeClass.SYMMETRIC_V:
        return split, theta * length**2 / 8
    if slope_class is SlopeClass.POSITIVE:
        return (2 * left + right) / 3, theta * length**2 / 3
    if slope_class is SlopeClass.NEGATIVE:
        return (left + 2 * right) / 3, theta * length**2 / 3
    return (left + right) / 2, theta * length**2 / 3


def reference_pick(state, model):
    """Grid index of the greedy pick, or None when every cell is taken."""
    land = state.landscape
    rng = land.range
    best = None  # (gain, index, segment)
    for seg in reference_segments(land, state.picks):
        pick, gain = reference_pick_and_gain(seg, model, not state.picks)
        i = min(max(round((pick - rng.d_min) / rng.resolution), 0), rng.n_points - 1)
        tol = 1e-12 * (abs(best[0]) + 1.0) if best else 0.0
        if best is None or gain > best[0] + tol or (abs(gain - best[0]) <= tol and i > best[1]):
            best = (gain, i, seg)
    _, i, seg = best
    if i not in state.picks:
        return i
    taken = set(state.picks)
    lo, hi = rng.nearest_index(seg[0]), rng.nearest_index(seg[1])
    found = best_marginal_cell(land, model, lo, hi, taken)
    if found is None:
        found = best_marginal_cell(land, model, 0, rng.n_cells, taken)
    return None if found is None else found[0]


def assert_rule_matches_reference(land, picks, model):
    """`segments` and, for each segment, the one pick/gain rule against
    the reference classifier and rule, the pick snapped by `nearest_index`;
    returns the reference's (grid index, gain) per segment."""
    rng = land.range
    segs = reference_segments(land, picks)
    assert segments(land, picks) == segs
    bounds = sorted({0, rng.n_cells, *picks})
    tol = SLOPE_TOL * max(float(np.abs(land.values).max()), 1e-300)
    want = []
    for lo, hi, seg in zip(bounds, bounds[1:], segs):
        pick, gain = reference_pick_and_gain(seg, model, not picks)
        # snapped with numpy's rounding, apart from the rule's Python round()
        want.append((min(max(int(np.rint((pick - rng.d_min) / rng.resolution)), 0), rng.n_cells), gain))
        v = land.values[lo : hi + 1]
        shape = (v[0], v[-1], v.max(), v.min()) if picks else None
        assert optimal_pick_and_gain(model, rng, lo, hi, shape, tol) == want[-1]
    return want


def assert_matches_reference(state, model):
    want = assert_rule_matches_reference(state.landscape, state.picks, model)
    want_pick = reference_pick(state, model)
    table = SegmentTable.build(state.landscape, state.picks, model)
    if want_pick is None:
        with pytest.raises(GridExhausted):
            find_greedy_transfer_point(state, model, table)
    else:
        assert find_greedy_transfer_point(state, model, table) == want_pick
    # the table holds the same rule's entries
    assert list(zip(table.idx, table.gains)) == want


# Slopes are 0 or at least 1e-3, so distinct gains differ by far more than
# the 1e-12 tie tolerance and the one-pass tie rule must agree exactly with
# the running-best one; `test_tie_rule_with_tiny_gains` covers the rest.
SLOPES = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
RESOLUTIONS = st.sampled_from([0.1, 0.025, 0.5, 1.0, 0.3])


@st.composite
def landscapes(draw, slopes=SLOPES):
    """(state, model): a landscape built by a random apply_transfer sequence."""
    # a small grid, or the 2001-point grid, whose segments run to over 1,000 cells
    resolution, n_cells = draw(st.one_of(st.tuples(RESOLUTIONS, st.integers(1, 40)),
                                         st.just((0.02, 2000))))
    d_min = draw(st.sampled_from([0.0, 0.1, 2.5]))
    rng = HoldRange(d_min, d_min + n_cells * resolution, resolution)
    j_star = draw(st.floats(0.1, 4.0))
    shape = draw(st.sampled_from(["symmetric", "asymmetric", "one-sided"]))
    if shape == "symmetric":  # theta = 0 included
        model = symmetric_model(draw(slopes), j_star)
    elif shape == "asymmetric":
        model = GapModel(draw(slopes), draw(slopes), j_star)
    else:
        model = GapModel(draw(slopes), 0.0, j_star)
    n = rng.n_points
    picks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 12)))
    for end in (0, n - 1):
        if end not in picks and draw(st.booleans()):
            picks.insert(draw(st.integers(0, len(picks))), end)
    if draw(st.booleans()):  # mirror every pick: equal-gain segments on both sides
        picks += [n - 1 - i for i in picks if n - 1 - i not in picks]
    # ideal, noisy, or off j* by a few slope tolerances (classes at their edges)
    kind = draw(st.sampled_from(["ideal", "noisy", "jitter"]))
    land = Landscape.zeros(rng)
    for i in picks:
        if kind == "noisy":
            achieved = draw(st.floats(0.0, 1.5 * j_star))
        elif kind == "jitter":
            achieved = j_star * (1 - draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])) * SLOPE_TOL)
        else:
            achieved = j_star
        land = apply_transfer(land, model, i, achieved)
    return SelectionState(landscape=land, picks=picks), model


def case(rng, model, transfers):
    """(state, model) after the (grid index, achieved) transfers, in order."""
    land = Landscape.zeros(rng)
    for i, achieved in transfers:
        land = apply_transfer(land, model, i, achieved)
    return SelectionState(landscape=land, picks=[i for i, _ in transfers]), model


ONE_SIDED = GapModel(theta_left=0.05, theta_right=0.0, j_star=1.0)
SKEWED = GapModel(theta_left=0.05, theta_right=0.01, j_star=1.0)
# Odd cell counts put midpoints on half cells, which round half to even:
# 2.5 to 2 (first-pick row, and flat segments after the first pick under
# theta = 0) and 1.5 to 2.
CASES = [
    case(HoldRange(0, 5, 1), symmetric_model(1.0, 1.0), []),
    case(HoldRange(0, 3, 1), symmetric_model(1.0, 1.0), []),
    case(HoldRange(0, 5, 1), symmetric_model(0.0, 1.0), [(0, 1.0)]),
    case(HoldRange(0, 8, 1), symmetric_model(0.0, 1.0), [(5, 1.0), (0, 1.0)]),
    case(HoldRange(0, 40, 0.1), ONE_SIDED, [(200, 1.0), (301, 0.8)]),
    case(HoldRange(0, 40, 0.1), SKEWED, [(100, 1.0), (300, 1.0)]),
    # segments of 700 and 1,300 cells on the 2001-point grid
    case(HoldRange(0, 40, 0.02), symmetric_model(1 / 40, 1.0), [(700, 1.0)]),
    # values within the slope tolerance of each other, and one-cell segments
    case(HoldRange(0, 4, 1), symmetric_model(0.0, 1.0), [(0, 1.0), (4, 1 - 0.5 * SLOPE_TOL), (3, 1.0)]),
    case(HoldRange(0, 6, 1), symmetric_model(1e-10, 1.0), [(1, 1.0), (2, 1.0), (5, 1.0)]),
]


def with_examples(cases):
    """Each case also as an explicit example of a hypothesis test."""
    def decorate(test):
        for c in reversed(cases):
            test = example(c)(test)
        return test
    return decorate


class TestAgainstReference:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(landscapes())
    @with_examples(CASES)
    def test_random_transfer_sequences(self, case):
        state, model = case
        assert_matches_reference(state, model)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(landscapes(slopes=st.floats(0.0, 5.0)))
    def test_segments_at_any_slope(self, case):
        # Slopes far below the slope tolerance give dips and bumps near it.
        state, model = case
        assert_rule_matches_reference(state.landscape, state.picks, model)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        steps=st.lists(st.sampled_from([-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0]),
                       min_size=2, max_size=30),
        scale=st.floats(0.1, 4.0),
        data=st.data(),
    )
    def test_segments_of_values_near_the_tolerance(self, steps, scale, data):
        # Any values, not only tent envelopes: each lies a few slope
        # tolerances off a common level, so every test of the classifier
        # is met at and around its edge.
        rng = HoldRange(0, len(steps) - 1, 1)
        land = Landscape(rng, scale * (1 + np.array(steps) * SLOPE_TOL))
        picks = data.draw(st.lists(st.integers(0, rng.n_cells), unique=True, max_size=8))
        model = data.draw(st.sampled_from([symmetric_model(0.5, 1.0), SKEWED, ONE_SIDED]))
        assert_rule_matches_reference(land, picks, model)

    @pytest.mark.parametrize(
        "model",
        [
            symmetric_model(1 / 40, 1.0),
            symmetric_model(0.0, 1.0),
            GapModel(theta_left=0.05, theta_right=0.01, j_star=1.0),
            GapModel(theta_left=0.0, theta_right=0.03, j_star=1.0),
        ],
        ids=["tight", "zero", "skewed", "one-sided"],
    )
    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    def test_every_step_of_greedy_runs(self, model, noisy):
        # Greedy runs split mirror segments in turn and, on a small grid,
        # reach 1-cell segments and the duplicate fallback.
        for rng in (HoldRange(0, 40, 0.1), HoldRange(0, 3, 0.1), HoldRange(1, 2, 0.25)):
            trainer = (NoisyTrainer(1.0, rng, eta=0.3, seed=5) if noisy
                       else IdealTrainer(1.0, rng))
            budget = min(rng.n_points, 40)
            run = run_gttl(trainer, model, rng, budget=budget, epsilon=0.0)
            state = SelectionState(landscape=Landscape.zeros(rng))
            for i, result in zip(run.picks, run.results):
                assert_matches_reference(state, model)
                land = apply_transfer(state.landscape, model, i, result.achieved)
                state.landscape = land
                state.picks.append(i)
            assert_matches_reference(state, model)

    def test_one_cell_segments_and_full_grid(self):
        rng = HoldRange(0, 1, 0.25)
        model = symmetric_model(1.0, 1.0)
        land = Landscape.zeros(rng)
        picks = []
        for i in (0, 1, 3, 4, 2):
            land = apply_transfer(land, model, i, 1.0)
            picks.append(i)
            assert_matches_reference(SelectionState(landscape=land, picks=list(picks)), model)


class TestTieRule:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(landscapes(), st.floats(0.0, 1e-9))
    def test_tie_rule_with_tiny_gains(self, case, theta):
        """Where the 1e-12 tolerance floor dominates, gains within it of the
        best tie, and the tie goes to the largest (coarsest) index."""
        state, _ = case
        model = symmetric_model(theta, 1.0)
        rng = state.landscape.range
        gains = [reference_pick_and_gain(s, model, not state.picks)
                 for s in reference_segments(state.landscape, state.picks)]
        best = max(g for _, g in gains)
        near = [rng.nearest_index(p) for p, g in gains if g >= best - 1e-12 * (abs(best) + 1.0)]
        coarsest = max(near)
        if coarsest not in state.picks:
            table = SegmentTable.build(state.landscape, state.picks, model)
            assert find_greedy_transfer_point(state, model, table) == coarsest


def curve_trainer(rng):
    """CSV replay of a smooth declining curve with bumps, as an exported
    curve would be: a row every 5 cells (or every tenth of the width, if that
    is less), so every grid duration is within half a row spacing of one."""
    spacing = min(rng.width / 10, rng.resolution * 5)
    deltas = np.linspace(rng.d_min, rng.d_max, round(rng.width / spacing) + 1)
    x = (deltas - rng.d_min) / rng.width
    values = 1 - 0.4 * x**2 + 0.06 * np.sin(17 * x) + 0.04 * np.cos(5 * x)
    return CsvReplayTrainer(deltas, np.maximum(values, 0.0))


TRAINERS = {
    "ideal": lambda rng: IdealTrainer(1.0, rng),
    "noisy": lambda rng: NoisyTrainer(1.0, rng, eta=0.3, seed=11),
    "csv": curve_trainer,
    "decaying": lambda rng: DecayingTrainer(1.0, rng, decay=0.5),
}
# per range width W: the tight slope 1/W, a skewed pair, and flat tents (every
# gain 0, so the coarsest pick is taken and then the duplicate fallback runs)
MODELS = {
    "symmetric": lambda w: symmetric_model(1 / w, 1.0),
    "asymmetric": lambda w: GapModel(2 / w, 0.5 / w, 1.0),
    "flat": lambda w: symmetric_model(0.0, 1.0),
}
# grid, and picks per run: the 5-point grid runs until every cell is taken
GRIDS = {
    "401": (HoldRange(0, 40, 0.1), 30),
    "2001": (HoldRange(0, 40, 0.02), 12),
    "5": (HoldRange(0, 1, 0.25), None),
}


full_rescoring = SegmentTable.build  # kept from before any patching


def assert_table_is_a_full_rescoring(table, state, model):
    full = full_rescoring(state.landscape, state.picks, model)
    assert table.landscape is state.landscape
    assert table.tol == full.tol
    for name in ("bounds", "idx", "gains"):
        got, want = getattr(table, name), getattr(full, name)
        assert np.array(got).tobytes() == np.array(want).tobytes(), name


class TestCarriedTable:
    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("trainer_name", TRAINERS)
    def test_every_pick_against_reference(self, trainer_name, model_name, grid, monkeypatch):
        rng, picks = GRIDS[grid]
        # every landscape and table of the range reads this one grid
        assert not rng.grid().flags.writeable
        model = MODELS[model_name](rng.width)
        builds, fallbacks, exhausted = [], [], []
        build = SegmentTable.build.__func__
        monkeypatch.setattr(SegmentTable, "build", classmethod(
            lambda cls, *a: builds.append(1) or build(cls, *a)))
        monkeypatch.setattr(selectors, "best_marginal_cell",
                            lambda *a: fallbacks.append(1) or best_marginal_cell(*a))

        def checked_pick(state, model, table):
            # the table that run_gttl's update rule made for this pick
            assert_table_is_a_full_rescoring(table, state, model)
            want = reference_pick(state, model)
            if want is None:
                exhausted.append(1)
                with pytest.raises(GridExhausted):
                    find_greedy_transfer_point(state, model, table)
                raise GridExhausted
            got = find_greedy_transfer_point(state, model, table)
            assert got == want
            return got

        monkeypatch.setattr(selectors, "find_greedy_transfer_point", checked_pick)
        run = run_gttl(TRAINERS[trainer_name](rng), model, rng, budget=picks or rng.n_points + 1, epsilon=0.0)
        # a 5-point grid is used up: five picks, then GridExhausted
        assert (len(run.picks), bool(exhausted)) == (picks or rng.n_points, picks is None)
        # the duplicate fallback runs under flat tents on the 401-point grid,
        # and wherever the 5-point grid's segments run out of free cells
        assert bool(fallbacks) == {"401": model_name == "flat", "2001": False, "5": True}[grid]
        # All other picks rescore only the segments that the last transfer
        # changed or split. The table is built for the first two picks, and
        # rebuilt where the largest estimate moves, which under the ideal
        # trainer it does only at the first pick.
        if trainer_name == "ideal":
            assert len(builds) == 2
        assert 2 <= len(builds) < len(run.picks) or rng.n_points == 5

    def test_a_rise_of_the_largest_estimate_rescores_every_segment(self):
        # The slope tolerance is relative to the largest estimate, so a
        # transfer that changes one cell can reclassify a far segment: [0, 4]
        # falls by 1.2e-9, NEGATIVE at the tolerance 1e-9 (pick at 8/3) and
        # FLAT at 1.5e-9 (pick at 2), after a transfer of 1.5 at 10 changes
        # nothing but cell 10.
        rng = HoldRange(0, 10, 1)
        model = symmetric_model(10.0, 1.5)
        values = np.zeros(rng.n_points)
        values[:5] = 1.0
        values[4] -= 1.2e-9
        state = SelectionState(landscape=Landscape(rng, values), picks=[4, 7])
        table = SegmentTable.build(state.landscape, state.picks, model)
        assert table.idx[0] == 3
        _train_and_apply(state, IdealTrainer(1.5, rng), model, 10)
        table = table.after_transfer(state.landscape, 10, model)
        assert_table_is_a_full_rescoring(table, state, model)
        assert table.idx[0] == 2
