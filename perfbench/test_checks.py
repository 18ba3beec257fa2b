"""The benchmark's output checks accept real outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import contextlib
import io
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from temporal_transfer import cli, ringsim  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def nudge_line(text: str, line: int, column: int, delta: float) -> str:
    lines = text.splitlines()
    fields = lines[line].split(",")
    fields[column] = f"{float(fields[column]) + delta:.6g}"
    lines[line] = ",".join(fields)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- select

@pytest.fixture(scope="module")
def gttl_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "g"
    rc, text = run_cli(["run", "--algo", "gttl", "--dmax", "40", "--theta", "0.025", "--jstar", "1",
                        "--budget", "17", "--epsilon", "0", "--out", str(out)])
    iterations = Path(f"{out}_iterations.csv").read_text()
    landscape = Path(f"{out}_landscape.csv").read_text()
    return rc, text, iterations, landscape


def check_gttl(rc, text, iterations, landscape):
    checks.check_run(text, rc, iterations, landscape, algo="gttl", dmax=40.0, resolution=0.1,
                     theta=0.025, jstar=1.0, budget=17)


def test_run_check_accepts_real_output(gttl_run):
    check_gttl(*gttl_run)


@pytest.mark.parametrize("row", [1, 137, 401])
def test_run_check_rejects_nudged_landscape_value(gttl_run, row):
    rc, text, iterations, landscape = gttl_run
    with pytest.raises(checks.CheckError, match="landscape"):
        check_gttl(rc, text, iterations, nudge_line(landscape, row, 1, -1e-3))


def test_run_check_rejects_nudged_area(gttl_run):
    rc, text, iterations, landscape = gttl_run
    with pytest.raises(checks.CheckError, match="area"):
        check_gttl(rc, text, nudge_line(iterations, 5, 3, 0.01), landscape)


def test_run_check_rejects_area_below_ghost_cell_bound(tmp_path):
    # A coarse-to-fine run is self-consistent but starts far from the middle,
    # so passed off as greedy it misses the ghost-cell bound at k=1.
    out = tmp_path / "c"
    rc, text = run_cli(["run", "--algo", "cttl", "--dmax", "40", "--theta", "0.025", "--jstar", "1",
                        "--budget", "17", "--out", str(out)])
    with pytest.raises(checks.CheckError, match="ghost-cell"):
        check_gttl(rc, text.replace("cttl", "gttl"), Path(f"{out}_iterations.csv").read_text(),
                   Path(f"{out}_landscape.csv").read_text())


def test_csv_trainer_check_rejects_wrong_replay(tmp_path):
    curve_text = workloads.curve_csv_text(7, 1.0)
    curve_path = tmp_path / "curve.csv"
    curve_path.write_text(curve_text)
    curve = [float(line.split(",")[1]) for line in curve_text.splitlines()[1:]]
    out = tmp_path / "c"
    rc, text = run_cli(["run", "--algo", "gttl", "--dmax", "40", "--theta", "0.025", "--budget", "17",
                        "--epsilon", "0", "--trainer", "csv", "--csv", str(curve_path), "--out", str(out)])
    args = dict(algo="gttl", dmax=40.0, resolution=0.1, theta=0.025, jstar=1.0, budget=17,
                trainer="csv", curve=curve)
    iterations = Path(f"{out}_iterations.csv").read_text()
    landscape = Path(f"{out}_landscape.csv").read_text()
    checks.check_run(text, rc, iterations, landscape, **args)
    shifted = [curve[0]] + curve[:-1]
    with pytest.raises(checks.CheckError, match="replayed"):
        checks.check_run(text, rc, iterations, landscape, **{**args, "curve": shifted})


# ---------------------------------------------------------------- certify

ORACLE_ARGS = dict(dmax=10.0, theta=0.075, jstar=1.0, grid=41)


@pytest.fixture(scope="module")
def oracle_run():
    return run_cli(["oracle", "--dmax", "10", "--theta", "0.075", "--jstar", "1", "--grid", "41"])


def test_oracle_check_accepts_real_output(oracle_run):
    rc, text = oracle_run
    checks.check_oracle(text, rc, **ORACLE_ARGS)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_oracle_check_rejects_area_a_feasible_subset_beats(oracle_run, k):
    rc, text = oracle_run
    picks = [round((2 * j + 1) / (2 * k) * 40) for j in range(k)]
    feasible = checks.subset_area(10.0, 0.075, 1.0, 41, picks)
    lines = text.splitlines()
    fields = lines[k].split(",")
    # below the evenly spaced subset; the selector columns go down with it
    fields[1] = fields[2] = fields[3] = f"{feasible - 0.01:.6g}"
    lines[k] = ",".join(fields)
    with pytest.raises(checks.CheckError, match="best"):
        checks.check_oracle("\n".join(lines) + "\n", rc, **ORACLE_ARGS)


def test_enumeration_matches_known_optimum():
    # One source on [0, 1] with theta = j* = 1: the midpoint, area 3/4.
    assert checks.enumerate_best(1.0, 1.0, 1.0, 41, 1) == pytest.approx(0.75, abs=1e-15)
    # K sources: the coarse-to-fine closed form, when the grid holds its points.
    assert checks.enumerate_best(1.0, 1.0, 1.0, 41, 2) == pytest.approx(checks.cttl_area(1, 1, 2), abs=1e-12)


def test_verify_check_accepts_real_output_and_rejects_loosened_l3_bound():
    rc, text = run_cli(["verify"])
    checks.check_verify(text, rc)
    loosened = text.splitlines()
    row = next(i for i, line in enumerate(loosened) if line.startswith("L3-K2,"))
    fields = loosened[row].split(",")
    fields[2] = "0.05"
    loosened[row] = ",".join(fields)
    with pytest.raises(checks.CheckError, match="L3-K2 rhs"):
        checks.check_verify("\n".join(loosened) + "\n", rc)
    with pytest.raises(checks.CheckError, match="exited"):
        checks.check_verify(text, 4)


# ---------------------------------------------------------------- ring

RING = replace(ringsim.RingConfig(), warmup=10.0, horizon=40.0)


def test_step_check_accepts_the_simulator():
    assert checks.check_step_agreement(ringsim, RING, seed=3, n_steps=200) == 200


@pytest.mark.parametrize("field", ["speeds", "positions"])
def test_step_check_rejects_perturbed_step(field):
    def perturbed(state, config, command=None):
        out = ringsim.step(state, config, command)
        values = getattr(out, field).copy()
        values[7] *= 1 + 1e-9
        return replace(out, **{field: values})

    with pytest.raises(checks.CheckError, match=field[:-1]):
        checks.check_step_agreement(ringsim, RING, seed=3, n_steps=200, step=perturbed)


def test_step_check_rejects_wrong_guided_clamp():
    def unclamped(state, config, command=None):
        big = replace(config, speed_limit=config.idm.v_desired, guidance=replace(config.guidance, accel_cap=9.0))
        return ringsim.step(state, big, command)

    with pytest.raises(checks.CheckError):
        checks.check_step_agreement(ringsim, RING, seed=3, n_steps=200, step=unclamped)


def test_ring_sweep_check_reproduces_lattice_winner():
    text = "delta,achieved,baseline,policy_id\n5,4.5,4.3,ring[w0=4,w1=0,w2=0]@5s\n"
    checks.check_ring_sweep(text, [5.0], 10.0, 30.0, rollout=lambda d, w: 4.5)
    with pytest.raises(checks.CheckError, match="fresh rollout"):
        checks.check_ring_sweep(text, [5.0], 10.0, 30.0, rollout=lambda d, w: 4.49)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_ring_sweep(text.replace("4.5,", "12.5,"), [5.0], 10.0, 30.0)
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_ring_sweep(text, [5.0, 40.0], 10.0, 30.0)


def test_tracer_names_a_function_the_program_no_longer_has(monkeypatch):
    import tracer
    from temporal_transfer import landscape, oracle, selectors, theory, trainers

    mods = {"cli": cli, "landscape": landscape, "selectors": selectors, "theory": theory,
            "oracle": oracle, "trainers": trainers, "ringsim": ringsim}
    monkeypatch.delattr(ringsim, "step")
    traced = tracer.Tracer(mods)
    traced.install()
    traced.restore()
    assert traced.missing == ["ringsim.step"]
