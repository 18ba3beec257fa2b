"""Evaluator backends: analytic profiles, CSV replay, determinism."""

import numpy as np
import pytest

from temporal_transfer.landscape import (
    HoldRange,
    Landscape,
    apply_transfer,
    landscape_csv_text,
    symmetric_model,
)
from temporal_transfer.selectors import run_gttl
from temporal_transfer.trainers import (
    CsvFormatError,
    DecayingTrainer,
    EvaluatorResult,
    IdealTrainer,
    MissingDataError,
    NoisyTrainer,
    load_csv_landscape,
)

RANGE = HoldRange(0, 40, 0.1)


class TestAnalyticBackends:
    def test_ideal_always_hits_bound(self):
        trainer = IdealTrainer(1.0, RANGE)
        for delta in (0.0, 7.3, 40.0):
            assert trainer.evaluate(delta).achieved == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            IdealTrainer(1.0, RANGE).evaluate(41.0)

    def test_decaying_endpoint(self):
        trainer = DecayingTrainer(1.0, RANGE, decay=0.5)
        assert trainer.evaluate(40.0).achieved == pytest.approx(0.5)
        assert trainer.evaluate(0.0).achieved == pytest.approx(1.0)

    def test_decaying_validates_slope(self):
        with pytest.raises(ValueError):
            DecayingTrainer(1.0, RANGE, decay=-0.1)

    def test_noisy_determinism(self):
        trainer = NoisyTrainer(1.0, RANGE, eta=0.2, seed=11)
        first = trainer.evaluate(12.5).achieved
        assert trainer.evaluate(12.5).achieved == first
        assert trainer.evaluate(12.6).achieved != first

    def test_noisy_order_independent(self):
        a = NoisyTrainer(1.0, RANGE, eta=0.2, seed=11)
        b = NoisyTrainer(1.0, RANGE, eta=0.2, seed=11)
        a.evaluate(3.0)
        assert a.evaluate(12.5).achieved == b.evaluate(12.5).achieved

    def test_zero_eta_bit_identical_to_ideal(self):
        noisy = NoisyTrainer(1.0, RANGE, eta=0.0, seed=5)
        ideal = IdealTrainer(1.0, RANGE)
        for delta in (0.0, 17.2, 40.0):
            assert noisy.evaluate(delta).achieved == ideal.evaluate(delta).achieved

    def test_negative_zero_eta_is_zero(self):
        # -0.0 passes the >= 0 rule; a draw from [0.0, -0.0] would fail
        noisy = NoisyTrainer(1.0, RANGE, eta=-0.0, seed=5)
        assert [noisy.evaluate(d).achieved for d in (0.0, 17.2, 40.0)] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("eta", [1e308, 1.7e308])
    def test_eta_whose_draw_range_overflows_is_rejected(self, eta):
        with pytest.raises(ValueError, match=r"2 \* eta must be finite"):
            NoisyTrainer(1.0, RANGE, eta=eta)

    def test_noise_clamped_at_zero(self):
        trainer = NoisyTrainer(0.01, RANGE, eta=1.0, seed=0)
        achieved = [trainer.evaluate(d).achieved for d in RANGE.grid()[:100]]
        assert min(achieved) >= 0.0


class TestCsvBackend:
    def _write(self, tmp_path, text):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        return path

    def test_round_trip_from_exported_landscape(self, tmp_path):
        model = symmetric_model(1 / 40, 1.0)
        land = apply_transfer(Landscape.zeros(RANGE), model, RANGE.nearest_index(20.0), 1.0)
        path = tmp_path / "landscape.csv"
        path.write_text(landscape_csv_text(land))
        backend = load_csv_landscape(path)
        for d in (0.0, 20.0, 33.3):
            i = RANGE.nearest_index(d)
            assert RANGE.point(i) == pytest.approx(d, abs=1e-12)
            stored = float(f"{land.values[i]:.6g}")
            assert backend.evaluate(d).achieved == stored

    def test_two_row_file_rejects_midpoint_query(self, tmp_path):
        path = self._write(tmp_path, "delta,performance\n0.1,3.8\n40,3.8\n")
        backend = load_csv_landscape(path)
        with pytest.raises(MissingDataError):
            backend.evaluate(20.0)
        assert backend.evaluate(0.1).achieved == pytest.approx(3.8)

    def test_dense_file_nearest_neighbor(self, tmp_path):
        rows = "\n".join(f"{0.1 * i:.1f},{3.8}" for i in range(1, 401))
        backend = load_csv_landscape(self._write(tmp_path, "delta,performance\n" + rows))
        result = backend.evaluate(17.25)
        assert result.achieved == pytest.approx(3.8)
        # nearest row is 17.2 or 17.3, half a median spacing away
        assert backend.tolerance == pytest.approx(0.05)
        with pytest.raises(MissingDataError):
            backend.evaluate(40.06)

    @pytest.mark.parametrize(
        "d_min, d_max, resolution, largest",
        [(0.5, 9.5, 0.5, 100.0), (0.6, 9.5, 0.1, 50.0), (0.5, 9.4, 0.1, 100.0), (0.6, 9.4, 0.1, 9.0),
         (3.0, 4.0, 1.0, 4.0), (10.6, 12.0, 0.1, 0.0)],
        ids=["both-ends-within", "low-end-out", "high-end-out", "both-out", "inside", "no-row"],
    )
    def test_largest_answer_reads_the_rows_a_range_can_query(self, tmp_path, d_min, d_max, resolution, largest):
        # rows 0 .. 10, answering within 0.5 (inclusive) of their delta
        perf = {0: 100, 10: 50}
        rows = "".join(f"{d},{perf.get(d, d)}\n" for d in range(11))
        backend = load_csv_landscape(self._write(tmp_path, "delta,performance\n" + rows))
        assert backend.largest_answer(HoldRange(d_min, d_max, resolution)) == largest

    def test_negative_performance_rejected_with_line(self, tmp_path):
        path = self._write(tmp_path, "delta,performance\n1,0.5\n2,-1\n")
        with pytest.raises(CsvFormatError, match=":3:"):
            load_csv_landscape(path)

    @pytest.mark.parametrize(
        "row", ["2,nan", "2,inf", "nan,0.5", "inf,0.5", "-inf,0.5", "2,-inf"]
    )
    def test_non_finite_field_rejected_with_line(self, tmp_path, row):
        path = self._write(tmp_path, f"delta,performance\n1,0.5\n{row}\n3,0.5\n")
        with pytest.raises(CsvFormatError, match=r"curve\.csv:3: non-finite"):
            load_csv_landscape(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = self._write(tmp_path, "delta,performance\n1,0.5\n1,0.6\n")
        with pytest.raises(CsvFormatError, match="strictly increasing"):
            load_csv_landscape(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "delta,performance\n1,0.5\nfoo\n")
        with pytest.raises(CsvFormatError, match=":3:"):
            load_csv_landscape(path)

    def test_missing_header_rejected(self, tmp_path):
        path = self._write(tmp_path, "1,0.5\n2,0.6\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv_landscape(path)


class TestNonFiniteAchieved:
    @pytest.mark.parametrize("achieved", [float("nan"), float("inf"), -float("inf")])
    def test_result_rejects_non_finite(self, achieved):
        with pytest.raises(ValueError, match="finite"):
            EvaluatorResult(delta=1.0, achieved=achieved, policy_id="x")

    @pytest.mark.parametrize("achieved", [float("nan"), float("inf")])
    def test_apply_transfer_rejects_non_finite(self, achieved):
        model = symmetric_model(1 / 40, 1.0)
        with pytest.raises(ValueError, match="finite"):
            apply_transfer(Landscape.zeros(RANGE), model, 200, achieved)


class TestConstructors:
    def test_ideal_and_decaying_values(self):
        assert IdealTrainer(1.0, RANGE).evaluate(5.0).achieved == 1.0
        assert DecayingTrainer(1.0, RANGE, decay=1.0).evaluate(40.0).achieved == 0.0


class TestInteractionWithSelectors:
    def test_decaying_run_has_monotone_history(self):
        model = symmetric_model(1 / 40, 1.0)
        state = run_gttl(DecayingTrainer(1.0, RANGE, decay=0.5), model, RANGE, budget=6, epsilon=0.0)
        history = state.area_history
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_csv_replay_reproduces_ideal_run(self, tmp_path):
        model = symmetric_model(1 / 40, 1.0)
        ideal_state = run_gttl(IdealTrainer(1.0, RANGE), model, RANGE, budget=3, epsilon=0.0)
        path = tmp_path / "land.csv"
        path.write_text(landscape_csv_text(ideal_state.landscape))
        replay_state = run_gttl(load_csv_landscape(path), model, RANGE, budget=3, epsilon=0.0)
        assert replay_state.sources == ideal_state.sources
        assert replay_state.area_history == pytest.approx(ideal_state.area_history, rel=1e-6)
