"""Command-line behavior: outputs, exit codes, reproducibility."""

import importlib
import platform
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env

from temporal_transfer.cli import ALL_CLAIMS, main

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


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--algo", "gttl", "--budget", "3", "--trainer", "noisy"],
        ["run", "--algo", "gttl", "--budget", "1", "--trainer", "ring", "--search-budget", "1",
         "--warmup", "5", "--horizon", "5"],
        ["run", "--algo", "rttl", "--budget", "3"],
        ["ring", "eval", "--delta", "1", "--budget", "1", "--warmup", "5", "--horizon", "5"],
        ["ring", "sweep", "--deltas", "1,5", "--budget", "1", "--warmup", "5", "--horizon", "5"],
    ],
    ids=["noisy", "ring-trainer", "rttl", "ring-eval", "ring-sweep"],
)
def test_negative_seed_is_usage_error(args, tmp_path, capsys):
    # Every seed goes through the bounds rule before any training.
    code, out, err = run_cli([*args, "--seed", "-1", "--out", str(tmp_path / "out" / "x")], capsys)
    assert (code, out, err) == (2, "", "invalid input: seed must be >= 0, got -1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args, work",
    [
        (["run", "--algo", "gttl", "--budget", "1", "--trainer", "csv", "--csv", "{dir}"], None),
        (["ring", "baseline", "--config", "{dir}"], None),
        (["export-plot", "--input", "{dir}"], None),
        (["verify", "--claims", "T2", "--out", "{dir}"], "theory.ghost_cell_lower_bound"),
        (["run", "--algo", "gttl", "--budget", "1", "--out", "{file}/x"], "selectors.run_gttl"),
        (["oracle", "--kmax", "1", "--grid", "2", "--out", "{file}/x"], "oracle.greedy_vs_oracle"),
        (["oracle", "--kmax", "1", "--grid", "2", "--out", "{dir}"], "oracle.greedy_vs_oracle"),
        (["ring", "eval", "--delta", "40", "--out", "{file}/x"], "ringsim.train_and_measure_many"),
        (["ring", "sweep", "--deltas", "1,40", "--out", "{file}/sub/x"], "ringsim.sweep"),
        (["ring", "baseline", "--out", "{file}/x"], "ringsim.simulate_many"),
        (["ring", "baseline", "--out", "{dir}"], "ringsim.simulate_many"),
        (["export-plot", "--input", "{file}", "--out", "{file}/x"], None),
        # the --out is checked before a flag that no chosen name reads
        (["verify", "--claims", "T2", "--grid", "81", "--out", "{file}/x"], "theory.ghost_cell_lower_bound"),
        (["run", "--algo", "cttl", "--trainer", "csv", "--csv", "{file}", "--jstar", "2", "--out", "{file}/x"],
         "selectors.run_cttl"),
    ],
    ids=["run-csv-dir", "ring-config-dir", "export-input-dir", "verify-out-dir", "run-out-under-file",
         "oracle-out-under-file", "oracle-out-dir", "ring-eval-out-under-file",
         "ring-sweep-out-under-file", "ring-baseline-out-under-file", "ring-baseline-out-dir",
         "export-out-under-file", "verify-out-before-unread-grid", "run-out-before-unread-jstar"],
)
def test_unusable_path_is_usage_error(args, work, tmp_path, capsys, monkeypatch):
    # A directory where a file is read or written, or a file where a
    # directory must be made: exit 2 naming the path, not a traceback. An
    # --out that cannot be written fails before the command's work starts.
    if work:
        module, name = work.split(".")
        monkeypatch.setattr(importlib.import_module(f"temporal_transfer.{module}"), name,
                            lambda *a, **kw: pytest.fail(f"{work} was reached"))
    (tmp_path / "file").write_text("")
    paths = {"dir": str(tmp_path), "file": str(tmp_path / "file")}
    code, out, err = run_cli([a.format(**paths) for a in args], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: [Errno ") and err.count("\n") == 1
    named = paths["file"] if any(a.startswith("{file}/") for a in args) else paths["dir"]
    assert repr(named) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_out_in_a_missing_directory_is_made(tmp_path, capsys):
    out = tmp_path / "new" / "sub" / "oracle.csv"
    code, text, _ = run_cli(["oracle", "--kmax", "1", "--grid", "2", "--out", str(out)], capsys)
    assert code == 0 and out.read_text() == text


# A value each conditional flag accepts, and the extra flags each trainer needs.
FLAG_VALUES = {"--budget": "1", "--epsilon": "0", "--jstar": "2", "--seed": "1", "--csv": "{curve}",
               "--noise-eta": "0.1", "--decay": "0.5", "--search-budget": "1", "--config": "{config}",
               "--warmup": "5", "--horizon": "5", "--grid": "21", "--kmax": "2"}
TRAINER_FLAGS = {"csv": {"--csv": "{curve}"},
                 "ring": {"--search-budget": "1", "--warmup": "5", "--horizon": "5"}}
ALGOS = ("gttl", "cttl", "rttl", "exhaustive")
TRAINERS = ("ideal", "decaying", "noisy", "csv", "ring")


def _flag_call(command, flag, names):
    """A `command` call that gives `flag` and chooses `names`: the --algo and
    --trainer values of a run, or the claims of a verify."""
    if command == "verify":
        return ["verify", "--claims", ",".join(names), flag, FLAG_VALUES[flag]]
    algo, trainer = names
    given = {"--dmax": "20", "--resolution": "1", **TRAINER_FLAGS.get(trainer, {}),
             **({"--budget": "1"} if algo != "exhaustive" else {}), flag: FLAG_VALUES[flag]}
    return ["run", "--algo", algo, "--trainer", trainer, *[a for kv in given.items() for a in kv]]


def _table_rows():
    from temporal_transfer.cli import ALL_CLAIMS, CONDITIONAL_FLAGS

    for command, table in CONDITIONAL_FLAGS.items():
        for flag, (_, _, readers, _) in table.items():
            if command == "verify":
                unread = [[next(c for c in ALL_CLAIMS if c not in readers)]]
                read = [[claim] for claim in readers]
            else:
                unread = [[next(a for a in ALGOS if a not in readers), next(t for t in TRAINERS if t not in readers)]]
                read = [[name, "ideal"] if name in ALGOS else ["cttl", name] for name in readers]
            yield from [pytest.param(command, flag, names, readers, id=f"{command}{flag}-{'-'.join(names)}")
                        for names in unread + read]


class TestConditionalFlags:
    @pytest.mark.parametrize("command, flag, names, readers", list(_table_rows()))
    def test_flag_applies_only_where_a_chosen_name_reads_it(self, command, flag, names, readers,
                                                            tmp_path, capsys):
        # Every row of each command's table: given with no reader among the
        # chosen names, the flag exits 2 before any work; with one, it runs.
        curve = tmp_path / "curve.csv"
        curve.write_text("delta,performance\n" + "".join(f"{d},1\n" for d in range(21)))
        config = tmp_path / "ring.cfg"
        config.write_text(RING_FAST)
        args = [a.format(curve=curve, config=config) for a in _flag_call(command, flag, names)]
        out = tmp_path / "out" / "x"
        code, stdout, err = run_cli([*args, "--out", str(out)], capsys)
        if set(names) & set(readers):
            assert (code, err) == (0, "")
            assert (out.parent / "x_iterations.csv").exists() if command == "run" else out.exists()
        else:
            assert (code, stdout) == (2, "")
            assert err == f"usage error: {flag} applies only to {', '.join(readers)}\n"
            assert not (tmp_path / "out").exists()

    def test_jstar_is_read_by_the_ideal_trainer(self, tmp_path, capsys):
        code, out, _ = run_cli(["run", "--algo", "cttl", "--jstar", "2", "--budget", "2",
                                "--out", str(tmp_path / "x")], capsys)
        assert (code, out) == (0, "cttl,2,75,1.87469\n")  # 35 and 0.874688 at j* = 1


@pytest.mark.parametrize(
    "args, product",
    [
        (["oracle", "--dmax", "1e300", "--jstar", "1e307", "--grid", "49", "--kmax", "1"],
         "theta * width**2 (width=1e+300, theta=1.0)"),
        (["oracle", "--dmax", "40", "--jstar", "1e307", "--kmax", "1"],
         "j_star * n_points (j_star=1e+307, n_points=41)"),
        (["run", "--algo", "gttl", "--dmax", "1e300", "--resolution", "1e298", "--jstar", "1e307",
          "--theta", "0", "--budget", "2"], "theta * width**2 (width=1e+300, theta=0.0)"),
        (["run", "--algo", "cttl", "--trainer", "csv", "--csv", "{huge}"],
         "achieved * n_points (achieved=1e+308, n_points=401)"),
        (["run", "--algo", "gttl", "--resolution", "2", "--theta", "1.7e308"],
         "theta * width**2 (width=40.0, theta=1.7e+308)"),
        (["oracle", "--dmax", "1e300", "--kmax", "1"], "theta * width**2 (width=1e+300, theta=1.0)"),
        (["run", "--algo", "rttl", "--dmin", "1", "--theta", "1e307", "--budget", "5", "--seed", "5"],
         "theta * width**2 (width=39.0, theta=1e+307)"),
        (["run", "--algo", "gttl", "--trainer", "noisy", "--noise-eta", "1e308", "--budget", "3"], "2 * eta"),
        (["run", "--resolution", "1e10", "--algo", "gttl"],
         "range width 40.0 is not a positive whole number of 10000000000.0-cells"),
        (["run", "--algo", "exhaustive", "--trainer", "csv", "--dmin", "5e-324", "--resolution", "1.7e308",
          "--csv", "{huge}"], "range width 40.0 is not a positive whole number of 1.7e+308-cells"),
        # the largest result a trainer can return, checked before the first training
        (["run", "--algo", "gttl", "--trainer", "csv", "--csv", "{half}", "--budget", "5"],
         "achieved * n_points (achieved=1e+308, n_points=401)"),
        # a row half a spacing past d_max answers a query at d_max
        (["run", "--algo", "gttl", "--trainer", "csv", "--csv", "{half}", "--dmax", "20.05", "--resolution", "0.05",
          "--budget", "5"], "achieved * n_points (achieved=1e+308, n_points=402)"),
        (["run", "--algo", "gttl", "--trainer", "noisy", "--jstar", "1e305", "--noise-eta", "1e306", "--theta", "0"],
         "(j_star + eta) * n_points ((j_star + eta)=1.1e+306, n_points=401)"),
    ],
    ids=["oracle-wide-range", "oracle-huge-jstar", "run-wide-range", "run-huge-csv", "run-steep-slope",
         "oracle-wide-default", "rttl-steep-slope", "noisy-huge-eta", "run-zero-cells", "exhaustive-zero-cells",
         "csv-huge-past-20s", "csv-huge-within-reach", "noisy-huge-sum"],
)
def test_overflowing_product_is_usage_error(args, product, tmp_path, capsys, monkeypatch):
    # Areas, sums and slopes that would overflow, and a range of no whole
    # cell, exit 2 naming the product or the cell, before any training and
    # before numpy warns (pytest makes a RuntimeWarning an error), with
    # nothing on stdout and no file.
    from temporal_transfer import trainers

    for backend in (trainers.IdealTrainer, trainers.DecayingTrainer, trainers.NoisyTrainer,
                    trainers.CsvReplayTrainer):
        monkeypatch.setattr(backend, "evaluate", lambda *a: pytest.fail("a delta was trained"))
    huge, half = tmp_path / "huge.csv", tmp_path / "half.csv"
    huge.write_text("delta,performance\n0,1e308\n20,1e308\n40,1e308\n")
    half.write_text("delta,performance\n" + "".join(f"{d / 10},{1e308 if d > 200 else 1}\n" for d in range(401)))
    out = tmp_path / "out" / "x"
    code, stdout, err = run_cli([*[a.format(huge=huge, half=half) for a in args], "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"invalid input: {product}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


class TestRun:
    def test_steepest_finite_slope_runs(self, tmp_path, capsys):
        # theta * W^2 is finite on [0, 1]; the gains use the slope itself, not
        # a sum of the two equal slopes, which would overflow
        code, out, err = run_cli(["run", "--algo", "gttl", "--dmax", "1", "--theta", "1.7e308",
                                  "--budget", "2", "--out", str(tmp_path / "x")], capsys)
        assert (code, out, err) == (0, "gttl,2,0.2,0.181818\n", "")

    @pytest.mark.parametrize("out", ["file/x", "file/sub/x"])
    def test_out_under_a_file_fails_before_any_training(self, out, tmp_path, capsys, monkeypatch):
        from temporal_transfer.trainers import RingTrainer

        monkeypatch.setattr(RingTrainer, "evaluate", lambda *a: pytest.fail("a delta was trained"))
        (tmp_path / "file").write_text("")
        code, stdout, err = run_cli(
            ["run", "--algo", "cttl", "--trainer", "ring", "--budget", "2", "--search-budget", "8",
             "--warmup", "100", "--horizon", "200", "--out", str(tmp_path / out)],
            capsys,
        )
        assert (code, stdout) == (2, "")
        assert err == f"invalid input: [Errno 20] Not a directory: {str(tmp_path / 'file')!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_grid_over_the_cell_limit_is_usage_error(self, tmp_path, capsys):
        # [0, 40] at 1e-9 s would be a 4e10-point grid
        from temporal_transfer.landscape import MAX_CELLS

        code, out, err = run_cli(["run", "--algo", "gttl", "--dmin", "0", "--dmax", "40",
                                  "--resolution", "1e-9", "--out", str(tmp_path / "x")], capsys)
        assert (code, out) == (2, "")
        assert f"cells = 40,000,000,000.0 is above the limit of {MAX_CELLS:,}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("algo", [["exhaustive"], ["cttl", "--budget", "30"]])
    def test_last_grid_point_is_trained_at_d_max(self, algo, tmp_path, capsys):
        # 0 + 25 * 0.28 is 7.000000000000001, which the trainer rejected as
        # outside [0, 7]; the last grid point is 7 itself.
        code, out, err = run_cli(["run", "--algo", *algo, "--dmax", "7", "--resolution", "0.28",
                                  "--out", str(tmp_path / "r")], capsys)
        assert (code, err) == (0, "")
        rows = (tmp_path / "r_iterations.csv").read_text().splitlines()[1:]
        assert "7" in [row.split(",")[1] for row in rows]

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

    def test_csv_rows_no_query_reaches_are_not_checked(self, tmp_path, capsys):
        # the rows from 20.1 s on lie more than half a spacing past 20 s and answer
        # no query of [0, 20], so their 1e308 refuses nothing: the run is that on
        # the curve cut at 20 s
        rows = [f"{d / 10},{1e308 if d > 200 else 1}\n" for d in range(401)]
        runs = []
        for name, kept in (("half", rows), ("cut", rows[:201])):
            curve = tmp_path / f"{name}.csv"
            curve.write_text("delta,performance\n" + "".join(kept))
            result = run_cli(["run", "--algo", "gttl", "--trainer", "csv", "--csv", str(curve), "--dmax", "20",
                              "--budget", "3", "--out", str(tmp_path / name)], capsys)
            runs.append((*result, *((tmp_path / f"{name}_{t}.csv").read_text() for t in ("iterations", "landscape"))))
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert runs[0] == runs[1]

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
        assert ALL_CLAIMS == ("T1", "T2", "T4", "L2", "L3")  # the claims table, in order

    def test_t4_and_l2_share_one_greedy_run(self, capsys, monkeypatch):
        oracle = importlib.import_module("temporal_transfer.oracle")
        run_gttl, calls = oracle.run_gttl, []

        def counted(*args, **kwargs):
            calls.append(kwargs["budget"])
            return run_gttl(*args, **kwargs)

        monkeypatch.setattr(oracle, "run_gttl", counted)
        code, out, _ = run_cli(["verify", "--claims", "T4,L2", "--kmax", "5"], capsys)
        assert code == 0 and out.count("\n") == 1 + 4 + 3 + 5
        assert calls == [5]

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
        assert "--kmax = 4 is above the limit of 3" in err

    def test_huge_finite_slope_is_solved(self, capsys):
        # theta * 40 cells + theta * 40 cells would overflow; the tent
        # crossovers never compute it
        code, out, err = run_cli(["oracle", "--theta", "1e307", "--kmax", "1"], capsys)
        assert (code, err) == (0, "")
        assert out == "k,best_area,gttl_area,cttl_area,bound,holds\n1,0.025,0.025,0.025,0.025,true\n"

    def test_unbounded_slope_is_usage_error(self, capsys):
        # K = 2 needs the closed-form bound, which holds only for theta <= j* / W
        code, out, err = run_cli(["oracle", "--theta", "1e307", "--kmax", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == ("invalid input: suboptimality_bound requires theta <= j_star / range width "
                       "(theta=1e+307, j_star=1.0, width=1.0)\n")

    def test_overflowing_area_scale_is_usage_error(self, tmp_path, capsys):
        # theta * W^2 overflows in the closed-form bound: exit 2, no file
        out = tmp_path / "oracle.csv"
        code, text, err = run_cli(["oracle", "--dmax", "1e300", "--theta", "0", "--kmax", "2",
                                   "--out", str(out)], capsys)
        assert (code, text) == (2, "")
        assert err == "invalid input: theta * width**2 (width=1e+300, theta=0.0) must be finite and >= 0, got inf\n"
        assert not out.exists()

    def test_one_greedy_run_per_table(self, capsys, monkeypatch):
        oracle = importlib.import_module("temporal_transfer.oracle")
        run_gttl, calls = oracle.run_gttl, []

        def counted(*args, **kwargs):
            calls.append(kwargs["budget"])
            return run_gttl(*args, **kwargs)

        monkeypatch.setattr(oracle, "run_gttl", counted)
        code, out, _ = run_cli(["oracle", "--kmax", "4"], capsys)
        assert code == 0 and out.count("\n") == 5
        assert calls == [4]


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

    @pytest.mark.parametrize(
        "command",
        [
            ["ring", "baseline", "--seeds", "1"],
            ["ring", "eval", "--delta", "1", "--budget", "2"],
            ["run", "--algo", "gttl", "--trainer", "ring", "--search-budget", "2", "--budget", "2",
             "--dmax", "5", "--resolution", "1"],
        ],
    )
    @pytest.mark.parametrize(
        "durations, message",
        [
            (["--warmup", "10.05", "--horizon", "20"], "warmup 10.05 is not a whole multiple of dt 0.1"),
            (["--warmup", "10", "--horizon", "20.04"], "horizon 20.04 is not a positive multiple of dt 0.1"),
            (["--warmup", "10", "--horizon", "0.04"], "horizon 0.04 is not a positive multiple of dt 0.1"),
        ],
    )
    def test_duration_off_the_step_grid_is_usage_error(self, command, durations, message, tmp_path, capsys):
        # Warmup and horizon become whole steps by the rule the hold uses,
        # so neither is rounded silently.
        code, out, err = run_cli([*command, *durations, "--out", str(tmp_path / "x")], capsys)
        assert (code, out) == (2, "")
        assert err == f"invalid input: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["ring", "baseline", "--seeds", "1"],
            ["ring", "eval", "--delta", "1", "--budget", "2"],
            ["run", "--algo", "gttl", "--trainer", "ring", "--search-budget", "2", "--budget", "1",
             "--dmax", "5", "--resolution", "1"],
        ],
    )
    def test_zero_warmup_runs(self, command, tmp_path, capsys):
        code, out, err = run_cli(
            [*command, "--warmup", "0", "--horizon", "20", "--out", str(tmp_path / "x")], capsys
        )
        assert (code, err) == (0, "")
        assert out and list(tmp_path.iterdir())

    def test_overflowing_car_following_law_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # The desired gap at v_desired, squared over the spacing, is not a
        # float: rejected before any step is run.
        from temporal_transfer import ringsim

        cfg = tmp_path / "huge.cfg"
        cfg.write_text("desired_time_headway = 1e300\n")
        monkeypatch.setattr(ringsim, "_advance", lambda *a: pytest.fail("a step ran"))
        code, out, err = run_cli(
            ["ring", "baseline", "--seeds", "1", "--warmup", "10", "--horizon", "20", "--config", str(cfg)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "invalid input: desired gap s0 + v_desired * time_headway = 3e+301 m overflows\n"

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
            *[(action, flag) for action in ("baseline", "eval", "sweep") for flag in ("--mode", "--guided")],
        ],
    )
    def test_flag_of_another_action_is_rejected(self, action, flag, capsys):
        # Each action takes only the flags it reads; a prefix of one of its
        # own flags (--seed for --seeds, --delta for --deltas) is no match.
        # No action reads --mode or --guided: the search guides vehicle 0 in
        # speed mode, and the baseline is unguided.
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
        cfg = tmp_path / "three.cfg"
        cfg.write_text(RING_FAST + "controlled_vehicles = 3\n")
        code, out, err = run_cli(["ring", *action, "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "n_guided = 3 is above the limit of 1" in err

    def test_guided_count_config_key_above_one_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(RING_FAST + "number_of_controlled_vehicles = 3\n")
        code, out, err = run_cli(["ring", "eval", "--delta", "1", "--budget", "2", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "n_guided = 3 is above the limit of 1" in err

    @pytest.mark.parametrize("action", [["eval", "--delta", "1"], ["sweep", "--deltas", "1,2"]])
    def test_unguided_policy_search_is_rejected(self, action, tmp_path, capsys):
        cfg = tmp_path / "unguided.cfg"
        cfg.write_text(RING_FAST + "number_of_controlled_vehicles = 0\n")
        code, out, err = run_cli(["ring", *action, "--budget", "2", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "the policy search needs a guided vehicle" in err

    def test_tiny_simulation_step_is_rejected_before_any_rollout(self, monkeypatch, tmp_path, capsys):
        # 1e-300 s steps would make about 1e302 steps per rollout
        from temporal_transfer import ringsim

        calls = []
        monkeypatch.setattr(ringsim, "simulate_many", lambda *a, **kw: calls.append(a))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("simulation_step = 1e-300\n")
        code, out, err = run_cli(["ring", "baseline", "--seeds", "1", "--config", str(cfg)], capsys)
        assert (code, out, calls) == (2, "", [])
        assert f"is above the limit of {ringsim.MAX_STEPS:,}" in err and "warmup + horizon steps = " in err

    def test_sweep_checks_durations_before_any_rollout(self, monkeypatch, capsys):
        from temporal_transfer import ringsim

        calls = []
        monkeypatch.setattr(ringsim, "simulate_many", lambda *a, **kw: calls.append(a))
        code, out, err = run_cli(["ring", "sweep", "--deltas", "1,inf", "--budget", "2"], capsys)
        assert (code, out, calls) == (2, "", [])
        assert "delta inf is not a positive multiple of dt" in err

    @pytest.mark.parametrize(
        "action, message",
        [
            (["sweep", "--deltas", "1,5"], "error: vehicle 2 hit vehicle 3 at t=0.6s"),
            (["eval", "--delta", "1"], "error: all 2 candidate rollouts collided at delta=1 (seed=2)"),
        ],
    )
    def test_colliding_unguided_ring_fails_the_sweep(self, action, message, tmp_path, capsys):
        # An aggressive, dense ring whose unguided run collides at seed 2:
        # the sweep reports the baseline's collision; eval, which prints no
        # baseline, reports its own search.
        cfg = tmp_path / "crash.cfg"
        cfg.write_text(
            "warmup = 10\nhorizon = 20\ntotal_vehicles = 30\nmax_acceleration = 3\n"
            "comfortable_deceleration = 0.5\ndesired_time_headway = 0.1\n"
        )
        code, out, err = run_cli(["ring", *action, "--budget", "2", "--seed", "2", "--config", str(cfg)], capsys)
        assert (code, out, err) == (3, "", message + "\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_speed_levels = 1", "n_speed_levels must be >= 2, got 1"),
            ("number_of_discrete_action_space = 0", "n_speed_levels must be >= 2, got 0"),
            ("speed_limit = 0", "speed_limit must be finite and positive, got 0.0"),
            ("speed_limit = -5", "speed_limit must be finite and positive, got -5.0"),
            ("speed_limit = nan", "speed_limit must be finite and positive, got nan"),
            ("speed_limit = inf", "speed_limit must be finite and positive, got inf"),
            ("alpha = nan", "alpha must be finite and >= 0, got nan"),
            ("alpha = -0.1", "alpha must be finite and >= 0, got -0.1"),
            ("beta = inf", "beta must be finite and >= 0, got inf"),
            ("accel_cap = -1", "accel_cap must be finite and positive, got -1.0"),
            ("acceleration_capacity = 0", "accel_cap must be finite and positive, got 0.0"),
            ("accel_cap = inf", "accel_cap must be finite and positive, got inf"),
            ("accel_cap = nan", "accel_cap must be finite and positive, got nan"),
            ("alpha = inf", "alpha must be finite and >= 0, got inf"),
            ("beta = nan", "beta must be finite and >= 0, got nan"),
            ("beta = -0.2", "beta must be finite and >= 0, got -0.2"),
            # Every other float key at nan, inf and one value out of range.
            *[(f"{key} = {value}", f"{name} must be finite and {bound}, got {float(value)}")
              for keys, name, bound, low in (
                  (("circumference",), "circumference", "positive", "-250"),
                  (("vehicle_length",), "vehicle_length", "positive", "0"),
                  (("simulation_step", "dt"), "dt", "positive", "0"),
                  (("warmup",), "warmup", ">= 0", "-1"),
                  (("horizon",), "horizon", "positive", "0"),
                  (("maximum_acceleration", "max_acceleration"), "a_max", "positive", "0"),
                  (("comfortable_deceleration",), "b_comfort", "positive", "-1.5"),
                  (("desired_velocity",), "v_desired", "positive", "0"),
                  (("minimum_spacing",), "s0", "positive", "0"),
                  (("desired_time_headway",), "time_headway", "positive", "-1"),
                  (("exponent",), "exponent", "positive", "0"),
              )
              for key in keys
              for value in ("nan", "inf", low)],
            *[(f"acceleration_capacity = {value}", f"accel_cap must be finite and positive, got {value}")
              for value in ("nan", "inf")],
            # Whole-number keys do not parse nan or inf.
            *[(f"{key} = 0", "n_vehicles must be finite and positive, got 0")
              for key in ("total_number_of_vehicles", "total_vehicles", "n_vehicles")],
            ("warmup_steps = -10", "warmup must be finite and >= 0, got -1.0"),
            ("timestep_horizon = 0", "horizon must be finite and positive, got 0.0"),
            # The analytic backends' run flags follow the same rule.
            *[(f"{flag} {value}", f"{name} must be finite and >= 0, got {float(value)}")
              for flag, name in (("--decay", "decay"), ("--noise-eta", "eta"))
              for value in ("nan", "inf", "-0.5")],
        ],
    )
    def test_guidance_the_policy_cannot_honour_is_usage_error(self, line, message, tmp_path, capsys):
        # One speed level, or a zero limit, divides by zero; a NaN gain or
        # limit poisons every command; a non-positive cap inverts the clamp.
        # Every numeric parameter is finite, and positive or >= 0.
        if line.startswith("--"):
            flag, value = line.split()
            trainer = {"--decay": "decaying", "--noise-eta": "noisy"}[flag]
            args = ["run", "--algo", "gttl", "--budget", "2", "--trainer", trainer, flag, value,
                    "--out", str(tmp_path / "out" / "r")]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            args = ["ring", "eval", "--delta", "1", "--budget", "2", "--warmup", "10", "--horizon", "20",
                    "--config", str(cfg)]
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"invalid input: {message}\n"

    def test_speed_levels_above_the_limit_is_usage_error(self, tmp_path, capsys):
        # A level count with no float: the snap would overflow converting it.
        from temporal_transfer.ringsim import MAX_SPEED_LEVELS

        levels = 10**400
        cfg = tmp_path / "levels.cfg"
        cfg.write_text(f"warmup = 10\nhorizon = 20\nn_speed_levels = {levels}\n")
        code, out, err = run_cli(["ring", "eval", "--delta", "1", "--budget", "2", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == f"invalid input: n_speed_levels = {levels:,} is above the limit of {MAX_SPEED_LEVELS:,}\n"
        assert not (tmp_path / "out").exists()

    def test_one_vehicle_ring_is_guided(self, capsys):
        # The lone vehicle leads itself, one lap ahead.
        code, out, err = run_cli(
            ["ring", "eval", "--delta", "1", "--budget", "2", "--warmup", "10", "--horizon", "20",
             "--vehicles", "1"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "delta,achieved,policy_id,cost"
        assert len(out.splitlines()) == 2

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

    @pytest.mark.parametrize("row, got", [("1,2,3", 3), ("4", 1)])
    def test_row_of_another_width_is_usage_error(self, row, got, tmp_path, capsys):
        # Melting would drop the extra field, or emit nothing for the row.
        source = tmp_path / "run.csv"
        source.write_text(f"a,b\n0,1\n\n{row}\n")
        code, out, err = run_cli(["export-plot", "--input", str(source)], capsys)
        assert (code, out) == (2, "")
        assert err == f"usage error: {source}:4: expected 2 fields, got {got}\n"


def _numpy_reports(feature: str) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get(feature, False)


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return ""


class TestByteReproducibility:
    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernels")
    @pytest.mark.skipif("openblas" not in _numpy_blas().lower(), reason="numpy's BLAS is not OpenBLAS")
    def test_certification_bytes_do_not_depend_on_the_blas_kernel(self):
        # The oracle and verify print the same bytes under OpenBLAS's SSE3
        # (Prescott) and AVX2 (Haswell) kernels as under the one it picks.
        child = "import sys\nfrom temporal_transfer.cli import main\nfor a in sys.argv[1:]: print(main(a.split()))"
        commands = ["verify", "verify --grid 81 --kmax 17", "oracle --grid 81"]
        kernels = [None, "Prescott", *(["Haswell"] if _numpy_reports("AVX2") else [])]
        outputs = []
        for kernel in kernels:
            env = {k: v for k, v in cli_env().items() if k != "OPENBLAS_CORETYPE"}
            env.update({"OPENBLAS_CORETYPE": kernel} if kernel else {})
            done = subprocess.run([sys.executable, "-c", child, *commands], capture_output=True, env=env, check=False)
            assert (done.returncode, done.stderr) == (0, b""), kernel
            outputs.append(done.stdout)
        assert outputs[0].count(b"\n0\n") == 2 and outputs[0].count(b"\n4\n") == 1  # L2-k17 fails at K = 17
        assert all(out == outputs[0] for out in outputs[1:]), kernels

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
