"""Workload inputs, generated from the benchmark seed.

Each workload repeats one fixed op. An op is a short list of command lines
for `temporal_transfer.cli.main`; `Workload.op(i, out_dir)` gives the
command lines of op i, with every output file under `out_dir`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Hold durations of one ring sweep: the paper's 0.1-40 s range, coarse to fine.
RING_DELTAS = (0.1, 1.0, 5.0, 15.0, 40.0)
# Shortened so that one sweep (5 x 24 rollouts + the baseline) takes a few
# seconds; the 40 s hold still gets one full command period in the horizon.
RING_WARMUP_S = 10.0
RING_HORIZON_S = 40.0

# certify: the default oracle grid and the largest one the enumeration accepts.
ORACLE_GRIDS = (41, 81)

# select: the 0-40 s range of the paper on two grids, K=17 as in the
# ghost-cell bound's k = 2^4 + 1 anchor, and a dense greedy run over 90% of
# the 401-point grid, where segments per pick grow with the picks.
SELECT_DMAX = 40.0
SELECT_K = 17
SELECT_DENSE_BUDGET = 360
NOISE_ETA = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict

    def op(self, i: int, out_dir: Path) -> list[list[str]]:
        return _OPS[self.name](self, i, Path(out_dir))


def _ring_op(w: Workload, i: int, out_dir: Path) -> list[list[str]]:
    ring_seed = w.params["ring_seeds"][i % len(w.params["ring_seeds"])]
    return [[
        "ring", "sweep",
        "--deltas", ",".join(f"{d:g}" for d in RING_DELTAS),
        "--seed", str(ring_seed),
        "--warmup", f"{RING_WARMUP_S:g}",
        "--horizon", f"{RING_HORIZON_S:g}",
    ]]


def _certify_op(w: Workload, i: int, out_dir: Path) -> list[list[str]]:
    p = w.params
    model = ["--dmax", f"{p['dmax']:g}", "--theta", repr(p["theta"]), "--jstar", repr(p["jstar"])]
    cmds = [["verify"]]
    for grid in ORACLE_GRIDS:
        cmds.append(["oracle", *model, "--grid", str(grid)])
    return cmds


def select_runs(w: Workload) -> dict[str, list[str]]:
    """Name -> `run` arguments (without --out) of one select pass."""
    p = w.params
    base = ["--dmin", "0", "--dmax", f"{SELECT_DMAX:g}",
            "--theta", repr(p["theta"]), "--jstar", repr(p["jstar"])]
    k = ["--budget", str(SELECT_K)]
    greedy = ["--algo", "gttl", "--epsilon", "0"]
    return {
        "gttl401": [*base, *greedy, *k, "--resolution", "0.1"],
        "gttl2001": [*base, *greedy, *k, "--resolution", "0.02"],
        "gttl401dense": [*base, *greedy, "--budget", str(SELECT_DENSE_BUDGET), "--resolution", "0.1"],
        "cttl": [*base, "--algo", "cttl", *k, "--resolution", "0.1"],
        "rttl": [*base, "--algo", "rttl", *k, "--seed", str(p["rttl_seed"]), "--resolution", "0.1"],
        "exhaustive": [*base, "--algo", "exhaustive", "--resolution", "0.1"],
        "noisy": [*base, *greedy, *k, "--resolution", "0.1", "--trainer", "noisy",
                  "--noise-eta", f"{NOISE_ETA:g}", "--seed", str(p["noise_seed"])],
        "csv": [*base, *greedy, *k, "--resolution", "0.1", "--trainer", "csv",
                "--csv", str(p["curve_csv"])],
    }


def _select_op(w: Workload, i: int, out_dir: Path) -> list[list[str]]:
    return [["run", *args, "--out", str(out_dir / name)] for name, args in select_runs(w).items()]


_OPS = {"ring-sweep": _ring_op, "certify": _certify_op, "select": _select_op}
NAMES = tuple(_OPS)


def curve_csv_text(seed: int, jstar: float) -> str:
    """A delta,performance curve on the 0-40 s, 0.1 s grid: a smooth decline
    with seeded bumps, as an exported training curve would look."""
    rng = random.Random(seed)
    drop = rng.uniform(0.2, 0.5)
    bumps = [(rng.uniform(0, SELECT_DMAX), rng.uniform(1, 6), rng.uniform(-0.08, 0.08)) for _ in range(4)]
    lines = ["delta,performance"]
    for i in range(401):
        d = i * 0.1
        v = jstar * (1 - drop * (d / SELECT_DMAX) ** 2)
        for center, width, height in bumps:
            v += jstar * height / (1 + ((d - center) / width) ** 2)
        lines.append(f"{d:.6g},{max(v, 0.0):.6g}")
    return "\n".join(lines) + "\n"


def make(name: str, seed: int, work_dir: Path) -> Workload:
    """Inputs of one workload run; writes any input file under work_dir."""
    if name not in _OPS:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")
    rng = random.Random(f"{name}:{seed}")
    if name == "ring-sweep":
        # One ring seed per op: colliding candidates end their rollouts early,
        # so work per sweep differs by ring seed, and a run averages over its ops.
        params = {"ring_seeds": [rng.randrange(2**31) for _ in range(64)]}
    elif name == "certify":
        dmax = rng.choice((1.0, 2.0, 5.0, 10.0, 40.0))
        jstar = rng.randrange(4, 33) / 8
        # theta at or below the bounded-slope limit j*/W, where the closed
        # forms and the suboptimality bound apply.
        theta = jstar / dmax * rng.choice((1.0, 0.75, 0.5))
        params = {"dmax": dmax, "jstar": jstar, "theta": theta}
    else:
        jstar = rng.randrange(4, 33) / 8
        work_dir.mkdir(parents=True, exist_ok=True)
        curve = work_dir / "curve.csv"
        curve.write_text(curve_csv_text(rng.randrange(2**31), jstar))
        params = {
            "jstar": jstar,
            # tight slope theta = j*/W: the regime of the closed forms
            "theta": jstar / SELECT_DMAX,
            "rttl_seed": rng.randrange(2**31),
            "noise_seed": rng.randrange(2**31),
            "curve_csv": curve,
        }
    return Workload(name=name, params=params)
