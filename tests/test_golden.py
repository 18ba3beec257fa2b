"""Golden outputs: the bytes a fixed set of CLI commands print and write, and
the sources `run_gttl` picks under asymmetric gap models and a snapping
trainer.

`golden_outputs.json` holds, per command, the exit code, stdout in full and
the sha256 of both CSVs that `run` writes. A refactor of the selection code
must leave every entry as it is. Regenerate the file only for an intended
output change, and name each changed entry where that change is described:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from temporal_transfer.cli import main
from temporal_transfer.landscape import GapModel, HoldRange, symmetric_model
from temporal_transfer.selectors import run_cttl, run_gttl
from temporal_transfer.trainers import IdealTrainer, NoisyTrainer

GOLDEN = Path(__file__).with_name("golden_outputs.json")

TIGHT, HALF, ZERO = "0.025", "0.0125", "0"  # theta = j*/W, j*/2W, 0 on 0-40 s
TRAINER_ARGS = {
    "ideal": [],
    "noisy": ["--trainer", "noisy", "--noise-eta", "0.1", "--seed", "11"],
    "decaying": ["--trainer", "decaying", "--decay", "0.4"],
    "csv": ["--trainer", "csv", "--csv", "{curve}"],
}


def _run(algo, trainer="ideal", theta=TIGHT, resolution="0.1", budget=17, epsilon="0"):
    return ["run", "--algo", algo, "--theta", theta, "--resolution", resolution,
            "--budget", str(budget), "--epsilon", epsilon, "--seed", "3",
            *TRAINER_ARGS[trainer]]


def _commands() -> dict[str, list[str]]:
    cmds = {}
    for algo in ("gttl", "cttl", "rttl", "exhaustive"):
        for trainer in TRAINER_ARGS:
            cmds[f"{algo}-{trainer}-401"] = _run(algo, trainer)
    for algo in ("gttl", "cttl", "rttl"):
        for trainer in ("ideal", "noisy"):
            cmds[f"{algo}-{trainer}-half-401"] = _run(algo, trainer, theta=HALF)
    cmds["gttl-ideal-zero-401"] = _run("gttl", theta=ZERO)
    cmds["gttl-noisy-zero-401"] = _run("gttl", "noisy", theta=ZERO)
    cmds["cttl-ideal-zero-401"] = _run("cttl", theta=ZERO)
    cmds["rttl-ideal-zero-401"] = _run("rttl", theta=ZERO)
    cmds["exhaustive-decaying-zero-401"] = _run("exhaustive", "decaying", theta=ZERO)
    for name, theta in (("tight", TIGHT), ("half", HALF), ("zero", ZERO)):
        cmds[f"gttl-ideal-{name}-2001"] = _run("gttl", theta=theta, resolution="0.02")
    for algo in ("cttl", "rttl", "exhaustive"):
        cmds[f"{algo}-ideal-2001"] = _run(algo, resolution="0.02")
    for trainer in ("noisy", "csv", "decaying"):
        cmds[f"gttl-{trainer}-2001"] = _run("gttl", trainer, resolution="0.02")
    cmds["gttl-ideal-dense-401"] = _run("gttl", budget=360)
    cmds["gttl-noisy-dense-401"] = _run("gttl", "noisy", budget=360)
    cmds["gttl-csv-dense-401"] = _run("gttl", "csv", budget=200)
    for trainer in TRAINER_ARGS:
        cmds[f"gttl-{trainer}-eps05-401"] = _run("gttl", trainer, epsilon="0.05")
    cmds["gttl-noisy-seed7-401"] = ["run", "--algo", "gttl", "--trainer", "noisy", "--noise-eta", "0.1",
                                    "--seed", "7", "--budget", "17", "--epsilon", "0"]
    cmds["gttl-ideal-offset-range"] = ["run", "--algo", "gttl", "--dmin", "2", "--dmax", "10",
                                       "--resolution", "0.05", "--theta", "0.1", "--budget", "9",
                                       "--epsilon", "0"]
    cmds["gttl-ideal-jstar2"] = ["run", "--algo", "gttl", "--jstar", "2", "--theta", "0.05",
                                 "--budget", "12", "--epsilon", "0"]
    for grid in (21, 41, 81, 101):
        cmds[f"verify-{grid}"] = ["verify", "--grid", str(grid)]
        cmds[f"oracle-{grid}"] = ["oracle", "--grid", str(grid)]
    cmds["oracle-wide-81"] = ["oracle", "--dmax", "10", "--theta", "0.1", "--jstar", "1", "--grid", "81"]
    return cmds


COMMANDS = _commands()


def curve_csv_text() -> str:
    """A delta,performance curve on the 0-40 s, 0.1 s grid that declines with
    duration and rises above j* = 1 around 8 s."""
    lines = ["delta,performance"]
    for i in range(401):
        d = i * 0.1
        v = 1 - 0.35 * (d / 40) ** 2 + 0.06 / (1 + ((d - 8) / 3) ** 2) - 0.05 / (1 + ((d - 27) / 2) ** 2)
        lines.append(f"{d:.6g},{v:.6g}")
    return "\n".join(lines) + "\n"


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def cli_output(name: str, work: Path) -> dict:
    curve = work / "curve.csv"
    if not curve.exists():
        curve.write_text(curve_csv_text())
    argv = [a.replace("{curve}", str(curve)) for a in COMMANDS[name]]
    out = work / name
    if argv[0] == "run":
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    record = {"exit": code, "stdout": stdout.getvalue()}
    if argv[0] == "run":
        record["iterations_sha256"] = _sha(Path(f"{out}_iterations.csv"))
        record["landscape_sha256"] = _sha(Path(f"{out}_landscape.csv"))
    return record


class _SnapTrainer(IdealTrainer):
    """Ideal trainer that rounds requested durations to whole seconds."""

    def snap_delta(self, delta: float) -> float:
        return float(round(delta))


WIDE = HoldRange(0.0, 40.0, 0.1)
ASYMMETRIC = {
    "left-steep": GapModel(theta_left=0.05, theta_right=0.0125, j_star=1.0),
    "right-steep": GapModel(theta_left=0.01, theta_right=0.04, j_star=1.0),
    "one-sided": GapModel(theta_left=0.03, theta_right=0.0, j_star=1.0),
}


def api_sources() -> dict[str, list[float]]:
    out = {}
    for name, model in ASYMMETRIC.items():
        state = run_gttl(IdealTrainer(1.0, WIDE), model, WIDE, budget=17, epsilon=0.0)
        out[f"gttl-{name}"] = state.sources
        noisy = NoisyTrainer(1.0, WIDE, eta=0.05, seed=5)
        out[f"gttl-noisy-{name}"] = run_gttl(noisy, model, WIDE, budget=12, epsilon=0.0).sources
    model = symmetric_model(0.025, 1.0)
    out["gttl-snap"] = run_gttl(_SnapTrainer(1.0, WIDE), model, WIDE, budget=30, epsilon=0.0).sources
    out["cttl-snap"] = run_cttl(_SnapTrainer(1.0, WIDE), model, WIDE, budget=30).sources
    return out


@functools.cache
def _expected() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_bytes(name, work):
    assert cli_output(name, work) == _expected()["cli"][name]


def test_api_sources():
    assert api_sources() == _expected()["api_sources"]


def test_golden_file_covers_every_command():
    assert sorted(_expected()["cli"]) == sorted(COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {"cli": {name: cli_output(name, Path(tmp)) for name in COMMANDS},
                "api_sources": api_sources()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(data['cli'])} commands to {GOLDEN}\n")
