"""Command-line behavior: outputs, exit codes, reproducibility."""

import subprocess
import sys

import pytest
from conftest import cli_env

from temporal_transfer.cli import main

RING_FAST = "warmup = 20\nhorizon = 40\n"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--algo", "gttl", "--theta", "inf", "--budget", "3"],
        ["run", "--algo", "gttl", "--resolution", "inf"],
        ["run", "--algo", "gttl", "--dmax", "inf"],
        ["oracle", "--theta", "nan", "--kmax", "2"],
    ],
)
def test_non_finite_model_or_range_is_usage_error(args, tmp_path, capsys):
    code, out, err = run_cli([*args, "--out", str(tmp_path / "x")], capsys)
    assert (code, out) == (2, "")
    assert "invalid input" in err and "finite" in err
    assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_cttl_example(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "run", "--algo", "cttl", "--dmin", "0", "--dmax", "40",
                "--budget", "2", "--theta", "0.025", "--jstar", "1",
                "--trainer", "ideal", "--out", str(tmp_path / "c"),
            ],
            capsys,
        )
        assert code == 0
        assert out.strip() == "cttl,2,35,0.874688"
        iterations = (tmp_path / "c_iterations.csv").read_text().splitlines()
        assert iterations[0] == "iteration,delta,achieved,area"
        assert iterations[1] == "1,30,1,27.5"
        assert iterations[2] == "2,10,1,35"
        landscape = (tmp_path / "c_landscape.csv").read_text().splitlines()
        assert landscape[0] == "delta,performance"
        assert len(landscape) == 402

    def test_gttl_epsilon_one_is_immediate(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["run", "--algo", "gttl", "--epsilon", "1.0", "--out", str(tmp_path / "e")],
            capsys,
        )
        assert code == 0
        assert out.startswith("gttl,0,")

    def test_invalid_range_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "--algo", "gttl", "--dmin", "5", "--dmax", "5", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "invalid" in err

    def test_csv_trainer_requires_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "--algo", "gttl", "--trainer", "csv", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2

    def test_noisy_greedy_spends_its_budget(self, tmp_path, capsys):
        # Results above j* must not count as coverage: the stop test clips the
        # landscape at j*, so with epsilon 0 every pick of the budget is made.
        code, out, _ = run_cli(
            ["run", "--algo", "gttl", "--trainer", "noisy", "--noise-eta", "0.1",
             "--seed", "7", "--budget", "17", "--epsilon", "0", "--out", str(tmp_path / "n")],
            capsys,
        )
        assert code == 0
        assert out.startswith("gttl,17,")
        assert len((tmp_path / "n_iterations.csv").read_text().splitlines()) == 18

    def test_trainer_failure_writes_partial_csvs(self, tmp_path, capsys):
        curve = tmp_path / "short.csv"
        curve.write_text("delta,performance\n" + "".join(f"{i / 10:g},1\n" for i in range(251)))
        code, out, err = run_cli(
            ["run", "--algo", "gttl", "--trainer", "csv", "--csv", str(curve),
             "--budget", "5", "--out", str(tmp_path / "p")],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "delta=33.3" in err
        iterations = (tmp_path / "p_iterations.csv").read_text().splitlines()
        assert iterations == ["iteration,delta,achieved,area", "1,20,1,30"]
        landscape = (tmp_path / "p_landscape.csv").read_text().splitlines()
        assert len(landscape) == 402
        assert landscape[201] == "20,1"

    def test_non_finite_csv_is_usage_error(self, tmp_path, capsys):
        curve = tmp_path / "bad.csv"
        curve.write_text("delta,performance\n0,1\n20,nan\n40,inf\n")
        code, out, err = run_cli(
            ["run", "--algo", "gttl", "--trainer", "csv", "--csv", str(curve),
             "--budget", "3", "--out", str(tmp_path / "b")],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"{curve}:3: non-finite" in err
        assert not (tmp_path / "b_landscape.csv").exists()

    @pytest.mark.parametrize(
        "trainer, flag, value",
        [
            (trainer, flag, value)
            for trainer in ("ideal", "decaying", "noisy", "csv", "ring")
            for flag, value, owner in (
                ("--csv", "curve.csv", "csv"),
                ("--noise-eta", "0.1", "noisy"),
                ("--decay", "0.5", "decaying"),
                ("--search-budget", "24", "ring"),
                ("--config", "missing.cfg", "ring"),
                ("--warmup", "20", "ring"),
                ("--horizon", "40", "ring"),
            )
            if owner != trainer
        ],
    )
    def test_flag_of_another_backend_is_usage_error(self, trainer, flag, value, tmp_path, capsys):
        code, out, err = run_cli(
            ["run", "--algo", "gttl", "--trainer", trainer, flag, value, "--out", str(tmp_path / "x")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "algo, trainer, flag, code",
        [
            *[(algo, trainer, flag, 2)
              for trainer in ("ideal", "decaying", "csv")
              for flag, algos in (
                  ("--budget", ("exhaustive",)),
                  ("--epsilon", ("cttl", "rttl", "exhaustive")),
                  ("--seed", ("gttl", "cttl", "exhaustive")),
              )
              for algo in algos],
            *[(algo, "ideal", "--budget", 0) for algo in ("gttl", "cttl", "rttl")],
            ("gttl", "ideal", "--epsilon", 0),
            ("rttl", "ideal", "--seed", 0),
            ("gttl", "noisy", "--seed", 0),
            ("gttl", "ring", "--seed", 0),
        ],
    )
    def test_selector_flag_needs_a_reader(self, algo, trainer, flag, code, tmp_path, capsys):
        # --budget, --epsilon and --seed apply only where the algorithm or
        # the trainer reads them.
        curve = tmp_path / "curve.csv"
        curve.write_text("delta,performance\n" + "".join(f"{d},1\n" for d in range(21)))
        backend = {
            "csv": ["--csv", str(curve)],
            "ring": ["--search-budget", "1", "--warmup", "5", "--horizon", "5", "--budget", "1"],
        }.get(trainer, [])
        value = "0" if flag == "--epsilon" else "1"
        result = run_cli(
            ["run", "--algo", algo, "--trainer", trainer, *backend, "--dmax", "20",
             "--resolution", "1", flag, value, "--out", str(tmp_path / "out" / "x")],
            capsys,
        )
        if code:
            assert result[:2] == (2, "")
            assert f"{flag} applies only to" in result[2]
            assert not (tmp_path / "out").exists()
        else:
            assert result[0] == 0
            assert (tmp_path / "out" / "x_iterations.csv").exists()

    @pytest.mark.parametrize(
        "trainer, defaults",
        [("decaying", ["--decay", "0.5"]), ("noisy", ["--noise-eta", "0.1"])],
    )
    def test_backend_defaults(self, trainer, defaults, tmp_path, capsys):
        args = ["run", "--algo", "gttl", "--trainer", trainer, "--budget", "5"]
        implicit = run_cli([*args, "--out", str(tmp_path / "a")], capsys)
        explicit = run_cli([*args, *defaults, "--out", str(tmp_path / "b")], capsys)
        assert implicit[0] == 0
        assert implicit == explicit
        for suffix in ("_iterations.csv", "_landscape.csv"):
            assert (tmp_path / f"a{suffix}").read_text() == (tmp_path / f"b{suffix}").read_text()

    @pytest.mark.parametrize(
        "line, budget, message",
        [
            ("number_of_controlled_vehicles = 0", "2", "the policy search needs a guided vehicle"),
            ("mode = acceleration", "2", "'acceleration'"),
            ("", "0", "search budget must be >= 1, got 0"),
        ],
    )
    def test_ring_search_checked_before_training(self, line, budget, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(RING_FAST + line + "\n")
        code, out, err = run_cli(
            ["run", "--algo", "gttl", "--trainer", "ring", "--search-budget", budget,
             "--budget", "2", "--dmax", "5", "--resolution", "1", "--config", str(cfg),
             "--out", str(tmp_path / "r")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert message in err
        assert not (tmp_path / "r_iterations.csv").exists()
        ring = run_cli(["ring", "eval", "--delta", "1", "--budget", budget, "--config", str(cfg)], capsys)
        assert ring == (code, out, err)

    def test_csv_replay_reproduces_area_history(self, tmp_path, capsys):
        out1 = tmp_path / "ideal"
        code, _, _ = run_cli(
            ["run", "--algo", "gttl", "--budget", "3", "--epsilon", "0.0",
             "--out", str(out1)],
            capsys,
        )
        assert code == 0
        out2 = tmp_path / "replay"
        code, _, _ = run_cli(
            ["run", "--algo", "gttl", "--budget", "3", "--epsilon", "0.0",
             "--trainer", "csv", "--csv", f"{out1}_landscape.csv", "--out", str(out2)],
            capsys,
        )
        assert code == 0
        first = (tmp_path / "ideal_iterations.csv").read_text()
        second = (tmp_path / "replay_iterations.csv").read_text()
        assert first == second


class TestVerify:
    def test_t2_holds(self, capsys):
        code, out, _ = run_cli(["verify", "--claims", "T2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "claim,lhs,rhs,holds,slack"
        assert all(",true," in line for line in lines[1:])
        assert any(line.startswith("T2-steps-eps1_16") for line in lines)

    def test_l3_holds_on_default_grid(self, capsys):
        code, out, _ = run_cli(["verify", "--claims", "L3", "--grid", "41"], capsys)
        assert code == 0
        assert out.count("true") >= 6

    def test_l3_honours_kmax(self, capsys):
        code, out, _ = run_cli(["verify", "--claims", "L3", "--kmax", "2"], capsys)
        assert code == 0
        claims = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert claims == ["L3-K1", "L3-K2"]

    def test_oracle_claims_certified_beyond_81_cells(self, capsys):
        code, out, err = run_cli(
            ["verify", "--claims", "T1,L3", "--grid", "101", "--kmax", "3"], capsys
        )
        assert code == 0
        assert err == ""
        claims = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert claims == [
            "T1-first-pick", "T1-first-area", "T1-pos-trisection", "T1-neg-trisection",
            "L3-K1", "L3-K2", "L3-K3",
        ]

    def test_unknown_claim_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--claims", "T9"], capsys)
        assert code == 2

    def test_l2_reports_known_k17_shortfall(self, capsys):
        code, out, _ = run_cli(["verify", "--claims", "L2", "--kmax", "17"], capsys)
        lines = [l for l in out.strip().splitlines()[1:]]
        held = {l.split(",")[0]: ",true," in l for l in lines}
        assert all(held[f"L2-k{k}"] for k in range(1, 17))
        assert not held["L2-k17"]  # documented greedy shortfall at k=17
        assert code == 4


class TestOracleCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(["oracle", "--kmax", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,best_area,gttl_area,cttl_area,bound,holds"
        assert len(lines) == 3
        assert all(line.endswith("true") for line in lines[1:])

    def test_resolution_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--resolution", "0.5"])
        assert exc.value.code == 2
        assert "--resolution" in capsys.readouterr().err

    def test_k_beyond_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(["oracle", "--grid", "3", "--kmax", "4"], capsys)
        assert code == 2
        assert "k must be in 1..3" in err


class TestRing:
    def test_eval_budget_zero_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["ring", "eval", "--delta", "40", "--budget", "0"],
            capsys,
        )
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["eval", "--delta", "inf", "--budget", "2"], "delta inf"),
            (["eval", "--delta", "nan", "--budget", "2"], "delta nan"),
            (["eval", "--delta", "1", "--budget", "2", "--warmup", "inf"], "warmup must be finite"),
            (["baseline", "--seeds", "1", "--warmup", "-5", "--horizon", "10"], "warmup must be finite and >= 0"),
            (["eval", "--delta", "1", "--budget", "2", "--horizon", "nan"], "horizon must be finite"),
            (["baseline", "--seeds", "1", "--horizon", "inf"], "horizon must be finite"),
        ],
    )
    def test_duration_that_cannot_be_honoured_is_usage_error(self, args, message, tmp_path, capsys):
        # A non-finite duration never reaches round(); a negative warmup would
        # score steps that were never run.
        code, out, err = run_cli(["ring", *args, "--out", str(tmp_path / "x.csv")], capsys)
        assert (code, out) == (2, "")
        assert message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_baseline_without_seeds_is_usage_error(self, seeds, tmp_path, capsys):
        code, out, err = run_cli(
            ["ring", "baseline", "--seeds", seeds, "--out", str(tmp_path / "x.csv")], capsys
        )
        assert (code, out) == (2, "")
        assert f"--seeds must be >= 1, got {seeds}" in err
        assert list(tmp_path.iterdir()) == []

    def test_baseline_rows(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(RING_FAST)
        code, out, _ = run_cli(
            ["ring", "baseline", "--seeds", "2", "--config", str(cfg)], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "seed,mean_speed,speed_std"
        assert len(lines) == 3

    def test_sweep_rows(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(RING_FAST)
        code, out, _ = run_cli(
            ["ring", "sweep", "--deltas", "1,2", "--budget", "2", "--seed", "3",
             "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "delta,achieved,baseline,policy_id"
        assert len(lines) == 3

    @pytest.mark.parametrize("action", [["eval", "--delta", "1"], ["sweep", "--deltas", "1,2"]])
    def test_acceleration_mode_flag_is_rejected(self, action, capsys):
        # The policy search emits target speeds, so there is no --mode to
        # give; acceleration mode is reachable through a config file only.
        with pytest.raises(SystemExit) as exc:
            main(["ring", *action, "--budget", "2", "--mode", "acceleration"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --mode acceleration" in captured.err

    @pytest.mark.parametrize(
        "action, flag",
        [
            *[("baseline", flag) for flag in ("--budget", "--seed", "--delta", "--deltas")],
            *[("eval", flag) for flag in ("--deltas", "--seeds")],
            *[("sweep", flag) for flag in ("--delta", "--seeds")],
            *[(action, "--mode") for action in ("baseline", "eval", "sweep")],
        ],
    )
    def test_flag_of_another_action_is_rejected(self, action, flag, capsys):
        # Each action takes only the flags it reads; a prefix of one of its
        # own flags (--seed for --seeds, --delta for --deltas) is no match.
        required = {"baseline": [], "eval": ["--delta", "1"], "sweep": ["--deltas", "1"]}[action]
        with pytest.raises(SystemExit) as exc:
            main(["ring", action, *required, flag, "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 3" in captured.err

    @pytest.mark.parametrize("action", [["eval", "--delta", "1"], ["sweep", "--deltas", "1,2"]])
    def test_acceleration_mode_config_is_rejected(self, action, tmp_path, capsys):
        cfg = tmp_path / "accel.cfg"
        cfg.write_text(RING_FAST + "mode = acceleration\n")
        code, out, err = run_cli(["ring", *action, "--budget", "2", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "'acceleration'" in err

    @pytest.mark.parametrize("action", [["eval", "--delta", "1"], ["sweep", "--deltas", "1"], ["baseline"]])
    def test_hold_flag_is_rejected(self, action, capsys):
        # eval and sweep train at --delta/--deltas and the baseline is
        # unguided, so a --hold would have no effect.
        with pytest.raises(SystemExit) as exc:
            main(["ring", *action, "--hold", "5"])
        assert exc.value.code == 2
        assert "--hold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "action",
        [["eval", "--delta", "1", "--budget", "2"], ["sweep", "--deltas", "1,2", "--budget", "2"], ["baseline"]],
    )
    def test_guided_count_above_one_is_rejected(self, action, tmp_path, capsys):
        # The simulator guides vehicle 0 only.
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(RING_FAST)
        code, out, err = run_cli(["ring", *action, "--guided", "3", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "n_guided must be 0 or 1, got 3" in err

    def test_guided_count_config_key_above_one_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(RING_FAST + "number_of_controlled_vehicles = 3\n")
        code, out, err = run_cli(["ring", "eval", "--delta", "1", "--budget", "2", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "n_guided must be 0 or 1, got 3" in err

    @pytest.mark.parametrize("action", [["eval", "--delta", "1"], ["sweep", "--deltas", "1,2"]])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unguided_policy_search_is_rejected(self, action, source, tmp_path, capsys):
        cfg = tmp_path / "unguided.cfg"
        cfg.write_text(RING_FAST + ("number_of_controlled_vehicles = 0\n" if source == "config" else ""))
        flag = ["--guided", "0"] if source == "flag" else []
        code, out, err = run_cli(["ring", *action, "--budget", "2", *flag, "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "the policy search needs a guided vehicle" in err

    def test_baseline_accepts_an_unguided_config(self, tmp_path, capsys):
        cfg = tmp_path / "unguided.cfg"
        cfg.write_text(RING_FAST + "number_of_controlled_vehicles = 0\n")
        unguided = run_cli(["ring", "baseline", "--seeds", "2", "--config", str(cfg)], capsys)
        cfg.write_text(RING_FAST)
        assert unguided[0] == 0
        assert unguided == run_cli(["ring", "baseline", "--seeds", "2", "--config", str(cfg)], capsys)


class TestExportPlot:
    def test_melts_iterations(self, tmp_path, capsys):
        source = tmp_path / "run.csv"
        source.write_text("iteration,delta,area\n1,30,27.5\n2,10,35\n")
        code, out, _ = run_cli(["export-plot", "--input", str(source)], capsys)
        assert code == 0
        assert out.splitlines() == [
            "series,x,y",
            "delta,1,30",
            "area,1,27.5",
            "delta,2,10",
            "area,2,35",
        ]


class TestByteReproducibility:
    def _invoke(self, args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "temporal_transfer.cli", *args],
            capture_output=True,
            cwd=cwd,
            env=cli_env(),
            check=False,
        )

    def test_rttl_run_twice_identical(self, tmp_path):
        args = ["run", "--algo", "rttl", "--seed", "7", "--budget", "4"]
        a = self._invoke([*args, "--out", "a"], tmp_path)
        b = self._invoke([*args, "--out", "b"], tmp_path)
        assert a.returncode == b.returncode == 0, a.stderr.decode() + b.stderr.decode()
        assert a.stdout == b.stdout
        assert (tmp_path / "a_iterations.csv").read_bytes() == (
            tmp_path / "b_iterations.csv"
        ).read_bytes()
        assert (tmp_path / "a_landscape.csv").read_bytes() == (
            tmp_path / "b_landscape.csv"
        ).read_bytes()
