"""Every size and its limit: a value just above a limit is rejected, naming
the size and the limit, before anything of that size is allocated or run.

The library table traces the allocations of each rejected call. The CLI
test runs each over-limit command in a child process under an address-space
cap, where an allocation of the rejected size would end in a MemoryError
(exit 1) and a search or a sweep of it would outlast the timeout.
"""

import math
import re
import resource
import subprocess
import sys
import tracemalloc

import pytest
from conftest import cli_env

from temporal_transfer import cli
from temporal_transfer.landscape import MAX_CELLS, HoldRange, symmetric_model
from temporal_transfer.oracle import MAX_COARSE_CELLS, coarse_range, exhaustive_best
from temporal_transfer.ringsim import (
    MAX_BATCH,
    MAX_ROLLOUTS,
    MAX_SPEED_LEVELS,
    MAX_STEPS,
    GuidanceParams,
    RingConfig,
    check_batch,
    check_search,
    simulate_many,
    train_and_measure_many,
)
from temporal_transfer.selectors import (
    MAX_BUDGET,
    MAX_MERGES,
    run_cttl,
    run_exhaustive,
    run_gttl,
    run_rttl,
)
from temporal_transfer.trainers import IdealTrainer, RingTrainer

MIB = 2**20
UNIT = HoldRange(0, 1, 0.025)
MODEL = symmetric_model(1.0, 1.0)
FAST = RingConfig(warmup=20.0, horizon=40.0)


def _ring(n_vehicles: int) -> RingConfig:
    """FAST with `n_vehicles` on a ring long enough to hold them."""
    return RingConfig(n_vehicles=n_vehicles, circumference=12.0 * n_vehicles, warmup=20.0, horizon=40.0)


# The most vehicles whose one-duration policy search fits a batch: its 12
# lattice rounds and the baseline are 13 rows.
SEARCH_VEHICLES = MAX_BATCH // 13


def _selector(run, hold_range, **options):
    return lambda: run(IdealTrainer(1.0, hold_range), MODEL, hold_range, **options)


def _cases():
    """Size name -> a call that asks for one more than its limit. The ranges
    are built here, before any allocation is traced."""
    side = math.isqrt(MAX_MERGES) + 1  # the smallest grid whose exhaustive plan is over
    square = HoldRange(0, side - 1, 1.0)
    million = HoldRange(0, MAX_CELLS, 1.0)
    return {
        "cells": lambda: HoldRange(0, MAX_CELLS + 1, 1.0),
        "warmup + horizon steps": lambda: RingConfig(warmup=0.0, horizon=(MAX_STEPS + 1) * 0.1),
        "n_guided": lambda: RingConfig(n_guided=2),
        "n_vehicles": lambda: _ring(MAX_BATCH + 1),
        "rows * vehicles": lambda: simulate_many(FAST, range(MAX_BATCH // FAST.n_vehicles + 1)),
        "rows * vehicles (search)": lambda: train_and_measure_many(_ring(SEARCH_VEHICLES + 1), [1.0], 24, 0),
        "rows * vehicles (search budget below a lattice)": lambda: train_and_measure_many(
            _ring(MAX_BATCH // 3 + 1), [1.0], 2, 0
        ),
        "rows * vehicles (trainer)": lambda: RingTrainer(_ring(SEARCH_VEHICLES + 1), search_budget=24),
        "n_speed_levels": lambda: GuidanceParams(n_speed_levels=MAX_SPEED_LEVELS + 1),
        "durations * search budget": lambda: train_and_measure_many(FAST, [1.0], MAX_ROLLOUTS + 1, 0),
        "durations * search budget (durations)": lambda: train_and_measure_many(
            FAST, [0.1 * (i + 1) for i in range(MAX_ROLLOUTS // 24 + 1)], 24, 0
        ),
        "durations * search budget (trainer)": lambda: RingTrainer(FAST, search_budget=MAX_ROLLOUTS + 1),
        "coarse_cells": lambda: coarse_range(UNIT, MAX_COARSE_CELLS + 1),
        "coarse_cells (oracle)": lambda: exhaustive_best(UNIT, MODEL, 1, MAX_COARSE_CELLS + 1),
        "k": lambda: exhaustive_best(UNIT, MODEL, 42, 41),
        "budget (gttl)": _selector(run_gttl, UNIT, budget=MAX_BUDGET + 1),
        "budget (cttl)": _selector(run_cttl, UNIT, budget=MAX_BUDGET + 1),
        "budget (rttl)": _selector(run_rttl, UNIT, budget=UNIT.n_points + 1),
        "plan length * grid points (cttl)": _selector(
            run_cttl, million, budget=MAX_MERGES // million.n_points + 1
        ),
        "plan length * grid points (exhaustive)": _selector(run_exhaustive, square),
    }


CASES = _cases()


@pytest.mark.parametrize("case", CASES)
def test_just_above_each_limit_is_rejected_before_allocating(case):
    name = case.split(" (")[0]
    call = CASES[case]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} = .* is above the limit of "):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MIB


def test_largest_accepted_counts_pass_the_rule():
    # One below each over-limit case above: accepted, and only checked here.
    HoldRange(0, MAX_CELLS, 1.0)
    RingConfig(warmup=0.0, horizon=MAX_STEPS * 0.1)
    _ring(MAX_BATCH)
    check_batch(FAST, MAX_BATCH // FAST.n_vehicles)
    check_search(_ring(SEARCH_VEHICLES), 24)
    check_search(_ring(MAX_BATCH // 3), 2)
    GuidanceParams(n_speed_levels=MAX_SPEED_LEVELS)
    RingTrainer(FAST, search_budget=MAX_ROLLOUTS)
    assert coarse_range(UNIT, MAX_COARSE_CELLS).n_points == MAX_COARSE_CELLS


def _address_space_cap():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


def run_capped(args, cwd):
    """The CLI in a child process with 2 GiB of address space and 10 s."""
    return subprocess.run(
        [sys.executable, "-m", "temporal_transfer.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=cli_env(), timeout=10,
        preexec_fn=_address_space_cap, check=False,
    )


def test_small_command_runs_under_the_cap(tmp_path):
    done = run_capped(["oracle", "--kmax", "2"], tmp_path)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("k,best_area,gttl_area,cttl_area,bound,holds\n")


@pytest.mark.parametrize(
    "args, size, limit",
    [
        (["run", "--algo", "cttl", "--budget", "1000000000000"], "budget", MAX_BUDGET),
        (["run", "--algo", "exhaustive", "--resolution", "4e-5"], "plan length * grid points", MAX_MERGES),
        (["oracle", "--grid", "100000", "--kmax", "1"], "coarse_cells", MAX_COARSE_CELLS),
        (["verify", "--grid", "100000"], "coarse_cells", MAX_COARSE_CELLS),
        (["verify", "--claims", "T4", "--kmax", "1000000"], "--kmax", cli.MAX_KMAX),
        (["ring", "baseline", "--seeds", "1000000000"], "rows * vehicles", MAX_BATCH),
        (["ring", "baseline", "--seeds", "1" + "0" * 30], "rows * vehicles", MAX_BATCH),
        (["ring", "eval", "--delta", "1", "--budget", "1000000000"], "durations * search budget", MAX_ROLLOUTS),
        (["ring", "sweep", "--deltas", ",".join(f"{0.1 * i:g}" for i in range(1, 1001))],
         "durations * search budget", MAX_ROLLOUTS),
    ],
    ids=["cttl-budget", "exhaustive-merges", "oracle-grid", "verify-grid", "verify-kmax", "baseline-seeds",
         "baseline-seeds-past-len", "eval-budget", "sweep-durations"],
)
def test_over_limit_command_exits_2_in_a_capped_child(args, size, limit, tmp_path):
    done = run_capped([*args, "--out", "x"], tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert f"{size} = " in done.stderr and f"is above the limit of {limit:,}" in done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, n_vehicles, rows",
    [
        (["ring", "baseline"], MAX_BATCH // 10 + 1, 10),
        (["ring", "baseline", "--seeds", "4000", "--warmup", "0", "--horizon", "0.1"], 10_000, 4000),
        (["ring", "eval", "--delta", "1"], 10_000, 13),
        (["run", "--algo", "cttl", "--trainer", "ring", "--budget", "2"], 10_000, 13),
    ],
    ids=["baseline-default-seeds", "baseline-composed", "eval", "run-ring-trainer"],
)
def test_over_limit_batch_exits_2_in_a_capped_child(args, n_vehicles, rows, tmp_path):
    # The ring is long enough for the vehicles, and each size alone is within
    # its limit: only their product, the batch, is over.
    config = tmp_path / "vehicles.cfg"
    config.write_text(f"total_number_of_vehicles = {n_vehicles}\ncircumference = {12 * n_vehicles}\n")
    work = tmp_path / "work"
    work.mkdir()
    done = run_capped([*args, "--config", str(config), "--out", "x"], work)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"invalid input: rows * vehicles = {rows * n_vehicles:,} "
                           f"is above the limit of {MAX_BATCH:,}\n")
    assert list(work.iterdir()) == []
