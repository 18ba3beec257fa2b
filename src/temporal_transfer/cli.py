"""Command-line front end: selection runs, bound verification, oracle
comparisons, ring evaluations, and plot-data export.

Every command that takes --seed is byte-reproducible: all randomness flows
from that seed and numeric output is fixed at 6 significant digits.

Exit codes: 0 success, 2 validation error, 3 trainer or simulation failure,
4 bound violation in verify.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import ringsim, theory
from .landscape import (
    HoldRange,
    Landscape,
    apply_transfer,
    check_bounds,
    check_overflow,
    landscape_csv_text,
    symmetric_model,
)
from .selectors import (
    SelectionError,
    SelectorKind,
    iterations_csv_text,
    run_selector,
)
from .theory import BoundReport, bound_report
from .trainers import (
    DecayingTrainer,
    IdealTrainer,
    NoisyTrainer,
    RingTrainer,
    load_csv_landscape,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_BOUND = 4

# The largest --kmax of `oracle` and `verify`: about a minute of work
# (README lists the measurements).
MAX_KMAX = 48


class UsageError(ValueError):
    pass


def _usable_out(out: str | None, prefix: bool = False) -> Path | None:
    """The --out path, checked before any work: its nearest existing ancestor
    must be a directory, and a single-file --out (not a `prefix` of file
    names) not a directory. Creates nothing; `_write` makes the directories."""
    if out is None:  # printed only
        return None
    if not out:
        raise UsageError("--out must not be empty")
    path = Path(out)
    nearest = next((p for p in (path.parent, *path.parent.parents) if p.exists()), path.parent)
    if not nearest.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "Not a directory", str(nearest))
    if not prefix and path.is_dir():
        raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
    return path


def _write(text: str, out: Path) -> None:
    """Write an output file, and any directories it needs."""
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, newline="")


def _emit(text: str, out: Path | None) -> None:
    """Print a table and, given --out, write the same text there first, so
    that an --out it cannot write leaves stdout empty."""
    if out:
        _write(text, out)
    sys.stdout.write(text)


def _report_rows(reports: list[BoundReport]) -> str:
    rows = [f"{r.claim},{r.lhs:.6g},{r.rhs:.6g},{str(r.holds).lower()},{r.slack:.6g}" for r in reports]
    return "\n".join(["claim,lhs,rhs,holds,slack", *rows]) + "\n"


# The flags of `run` and `verify` that not every call reads: each one's type,
# default (None: that of the function that reads it), the --algo and --trainer
# values (which never collide) or the claims that read it, and its help text.
CONDITIONAL_FLAGS = {
    "run": {
        "--budget": (int, None, ("gttl", "cttl", "rttl"), "training budget K"),
        "--epsilon": (float, None, ("gttl",), "uncovered fraction at which to stop"),
        "--jstar": (float, 1.0, ("gttl", "ideal", "decaying", "noisy"), "performance ceiling J*"),
        "--seed": (int, None, ("rttl", "noisy", "ring"), "random seed"),
        "--csv": (str, None, ("csv",), "landscape CSV to replay"),
        "--noise-eta": (float, None, ("noisy",), "noise amplitude"),
        "--decay": (float, None, ("decaying",), "fall of the bound across the range"),
        "--search-budget": (int, None, ("ring",), "policy-search rollouts"),
        "--config": (str, None, ("ring",), "key=value config file"),
        "--warmup": (float, None, ("ring",), "warmup seconds"),
        "--horizon": (float, None, ("ring",), "scored seconds"),
    },
    "verify": {
        "--grid": (int, 41, ("T1", "L3"), "oracle grid points"),
        "--kmax": (int, 9, ("T4", "L2", "L3"), "largest budget K"),
    },
}


def _check_readers(args, chosen) -> None:
    """Reject a given CONDITIONAL_FLAGS flag that no name in `chosen` reads; default the rest."""
    for flag, (_, default, readers, _) in CONDITIONAL_FLAGS[args.command].items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif not set(readers) & set(chosen):
            raise UsageError(f"{flag} applies only to {', '.join(readers)}")


def given(**params) -> dict:
    """The keyword arguments whose flags were given. A flag left out takes
    the default of the function that reads it."""
    return {name: value for name, value in params.items() if value is not None}


def _build_trainer(args, hold_range: HoldRange):
    """The backend that --trainer names, built from its own flags. An analytic
    or replayed backend checks its largest result, and a ring backend its
    config and budget, here, before any training."""
    if args.trainer == "ideal":
        return IdealTrainer(args.jstar, hold_range)
    if args.trainer == "decaying":
        return DecayingTrainer(args.jstar, hold_range, **given(decay=args.decay))
    if args.trainer == "noisy":
        return NoisyTrainer(args.jstar, hold_range, **given(eta=args.noise_eta, seed=args.seed))
    if args.trainer == "csv":
        if not args.csv:
            raise UsageError("--csv PATH is required with --trainer csv")
        trainer = load_csv_landscape(args.csv)
        check_overflow(hold_range, achieved=trainer.largest_answer(hold_range))  # its largest result
        return trainer
    return RingTrainer(_ring_config(args), **given(search_budget=args.search_budget, seed=args.seed))


def cmd_run(args) -> int:
    _check_readers(args, (args.algo, args.trainer))
    hold_range = HoldRange(args.dmin, args.dmax, args.resolution)
    model = symmetric_model(args.theta, args.jstar)
    kind = SelectorKind(args.algo)
    trainer = _build_trainer(args, hold_range)
    options = {name: getattr(args, name) for name in ("budget", "epsilon", "seed")
               if kind.value in CONDITIONAL_FLAGS["run"][f"--{name}"][2]}
    failed = None
    try:
        state = run_selector(kind, trainer, model, hold_range, **given(**options))
    except SelectionError as exc:
        failed, state = exc, exc.state
    # The selectors are anytime: a failed run still writes its valid prefix.
    _write(iterations_csv_text(state), Path(f"{args.out}_iterations.csv"))
    _write(landscape_csv_text(state.landscape), Path(f"{args.out}_landscape.csv"))
    if failed is not None:
        print(f"error: {failed}", file=sys.stderr)
        return EXIT_RUNTIME
    mean_perf = float(np.mean(state.landscape.values))
    print(f"{kind.value},{state.iteration},{state.area:.6g},{mean_perf:.6g}")
    return EXIT_OK


# verify's unit problem: the range [0, 1] with theta = j* = 1, and its area
# ceiling A*. T1, T2 and L3 read only the interval; T4's cell is the resolution.
UNIT_RANGE = HoldRange(0.0, 1.0, 1 / 2000)
UNIT_MODEL = symmetric_model(1.0, 1.0)
UNIT_AREA = theory.full_area(UNIT_RANGE, UNIT_MODEL)


def _verify_t1(args, _) -> list[BoundReport]:
    coarse = oracle_mod.coarse_range(UNIT_RANGE, args.grid)
    cell = coarse.resolution * UNIT_MODEL.j_star
    best = oracle_mod.exhaustive_best(UNIT_RANGE, UNIT_MODEL, 1, args.grid)
    rows = [
        bound_report("T1-first-pick", abs(coarse.point(best.picks[0]) - 0.5), cell, UNIT_AREA),
        bound_report("T1-first-area", abs(best.best_area - 0.75 * UNIT_AREA), cell, UNIT_AREA),
    ]
    i = coarse.nearest_index(0.5)
    mid = coarse.point(i)
    land = apply_transfer(Landscape.zeros(coarse), UNIT_MODEL, i, UNIT_MODEL.j_star)
    left_pick = coarse.point(oracle_mod.best_marginal_cell(land, UNIT_MODEL, 0, i)[0])
    right_pick = coarse.point(oracle_mod.best_marginal_cell(land, UNIT_MODEL, i, coarse.n_cells)[0])
    rows.append(bound_report("T1-pos-trisection", abs(left_pick - (2 * coarse.d_min + mid) / 3), cell, UNIT_AREA))
    rows.append(bound_report("T1-neg-trisection", abs(right_pick - (mid + 2 * coarse.d_max) / 3), cell, UNIT_AREA))
    return rows


def _verify_t2(*_) -> list[BoundReport]:
    rows = []
    for i in range(5):
        k = 2**i + 1
        value = theory.ghost_cell_lower_bound(UNIT_RANGE, UNIT_MODEL, k)
        target = (1 - 1 / 2 ** (i + 2)) * UNIT_MODEL.theta * UNIT_RANGE.width**2
        rows.append(bound_report(f"T2-anchor-k{k}", abs(value - target), 0.0, 1.0))
    rows.append(bound_report("T2-steps-eps1_16", abs(theory.steps_to_cover(1 / 16) - 5), 0.0, 1.0))
    rows.append(bound_report("T2-steps-eps1_64", abs(theory.steps_to_cover(1 / 64) - 17), 0.0, 1.0))
    return rows


def _verify_t4(args, areas) -> list[BoundReport]:
    gttl, cttl = areas()
    cell = UNIT_RANGE.resolution * UNIT_MODEL.j_star
    rows = []
    for k in range(2, args.kmax + 1):
        bound = theory.suboptimality_bound(UNIT_RANGE, UNIT_MODEL, k)
        rows.append(bound_report(f"T4-gap-K{k}", cttl[k - 1] - gttl[k - 1], bound + cell, UNIT_AREA))
    for k in [k for k in (2, 3, 5, 9, 17) if k <= args.kmax]:  # the anchors 2^i + 1
        lhs = theory.cttl_optimal_area(UNIT_RANGE, UNIT_MODEL, k) - theory.ghost_cell_lower_bound(
            UNIT_RANGE, UNIT_MODEL, k
        )
        rhs = theory.suboptimality_bound(UNIT_RANGE, UNIT_MODEL, k)
        rows.append(bound_report(f"T4-identity-K{k}", abs(lhs - rhs), 1e-9 * UNIT_AREA, UNIT_AREA))
    return rows


def _verify_l2(args, areas) -> list[BoundReport]:
    gttl = areas()[0]
    return [bound_report(f"L2-k{k}", theory.ghost_cell_lower_bound(UNIT_RANGE, UNIT_MODEL, k), gttl[k - 1],
                         UNIT_AREA) for k in range(1, args.kmax + 1)]


def _verify_l3(args, _) -> list[BoundReport]:
    cell = oracle_mod.coarse_range(UNIT_RANGE, args.grid).resolution * UNIT_MODEL.j_star
    rows = []
    for k in range(1, args.kmax + 1):
        best = oracle_mod.exhaustive_best(UNIT_RANGE, UNIT_MODEL, k, args.grid)
        closed = theory.cttl_optimal_area(UNIT_RANGE, UNIT_MODEL, k)
        rows.append(bound_report(f"L3-K{k}", abs(best.best_area - closed), cell, UNIT_AREA))
    return rows


# Each claim's rows, from the parsed flags and a call that gives the
# simulated (greedy, CTTL) areas.
CLAIMS = {"T1": _verify_t1, "T2": _verify_t2, "T4": _verify_t4, "L2": _verify_l2, "L3": _verify_l3}
ALL_CLAIMS = tuple(CLAIMS)


def cmd_verify(args) -> int:
    claims = list(ALL_CLAIMS) if args.claims is None else [c.strip().upper() for c in args.claims.split(",")]
    unknown = set(claims) - set(ALL_CLAIMS)
    if unknown:
        raise UsageError(f"unknown claims: {sorted(unknown)} (choose from {ALL_CLAIMS})")
    _check_readers(args, claims)
    check_bounds(counts={"--kmax": (args.kmax, 1, MAX_KMAX)})
    # one simulation of the areas, made at the first claim that reads them (T4 or L2)
    areas = functools.cache(lambda: oracle_mod.simulated_areas(UNIT_RANGE, UNIT_MODEL, args.kmax))
    rows = [row for claim in claims for row in CLAIMS[claim](args, areas)]
    _emit(_report_rows(rows), args.out)
    return EXIT_OK if all(r.holds for r in rows) else EXIT_BOUND


def cmd_oracle(args) -> int:
    # The oracle and the bound see only the interval, never a fine grid.
    hold_range = HoldRange(args.dmin, args.dmax, args.dmax - args.dmin)
    model = symmetric_model(args.theta, args.jstar)
    oracle_mod.coarse_range(hold_range, args.grid)  # the --grid error before the --kmax one
    check_bounds(counts={"--kmax": (args.kmax, 1, min(args.grid, MAX_KMAX))})  # before the first solve
    lines = ["k,best_area,gttl_area,cttl_area,bound,holds"]
    rows = oracle_mod.greedy_vs_oracle(hold_range, model, args.kmax, args.grid)
    for k, (best, gttl, cttl, report) in enumerate(rows, start=1):
        lines.append(f"{k},{best.best_area:.6g},{gttl:.6g},{cttl:.6g},{report.rhs:.6g},{str(report.holds).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# Ring-config flags and the RingConfig fields they override.
_RING_FLAGS = {"warmup": "warmup", "horizon": "horizon", "vehicles": "n_vehicles"}


def _ring_config(args) -> ringsim.RingConfig:
    config = ringsim.load_ring_config(args.config) if args.config else ringsim.RingConfig()
    overrides = {field: getattr(args, flag, None) for flag, field in _RING_FLAGS.items()}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def cmd_ring_baseline(args) -> int:
    check_bounds(counts={"--seeds": (args.seeds, 1, math.inf)})
    unguided = replace(_ring_config(args), n_guided=0)
    ringsim.check_batch(unguided, args.seeds)  # before range() holds a count too large for len()
    lines = ["seed,mean_speed,speed_std"]
    for seed, result in enumerate(ringsim.simulate_many(unguided, range(args.seeds))):
        if result.collision is not None:
            print(f"error: {result.collision}", file=sys.stderr)
            return EXIT_RUNTIME
        lines.append(f"{seed},{result.mean_speed:.6g},{result.speed_std:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# Per search action: the table header and the row of one trained duration.
# A sweep row also carries the unguided baseline of the same ring seed.
_SEARCH_TABLES = {
    "eval": ("delta,achieved,policy_id,cost", "{r.delta:.6g},{r.achieved:.6g},{r.policy_id},{r.cost:.6g}"),
    "sweep": ("delta,achieved,baseline,policy_id", "{r.delta:.6g},{r.achieved:.6g},{baseline:.6g},{r.policy_id}"),
}


def cmd_ring_search(args) -> int:
    """`ring eval` and `ring sweep`: one policy search over their durations."""
    config = _ring_config(args)
    header, row = _SEARCH_TABLES[args.action]
    sweep = args.action == "sweep"
    deltas = [float(x) for x in args.deltas.split(",")] if sweep else [args.delta]
    baseline = None
    try:
        if sweep:
            baseline, results = ringsim.sweep(config, deltas, args.budget, args.seed)
        else:
            results = ringsim.train_and_measure_many(config, deltas, args.budget, args.seed)
    except (ringsim.CollisionError, ringsim.TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    rows = [row.format(r=res, baseline=baseline) for res in results]
    _emit("\n".join([header, *rows]) + "\n", args.out)
    return EXIT_OK


def cmd_export_plot(args) -> int:
    lines = Path(args.input).read_text().splitlines()
    if not lines:
        raise UsageError(f"{args.input} is empty")
    header = lines[0].split(",")
    if len(header) < 2:
        raise UsageError(f"{args.input}: need at least two columns to melt")
    rows = ["series,x,y"]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise UsageError(f"{args.input}:{lineno}: expected {len(header)} fields, got {len(fields)}")
        x = fields[0]
        for name, value in zip(header[1:], fields[1:]):
            rows.append(f"{name},{x},{value}")
    text = "\n".join(rows) + "\n"
    if args.out:
        _write(text, args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_conditional(parser: argparse.ArgumentParser, command: str) -> None:
    """The command's CONDITIONAL_FLAGS, readers first in the help and no default."""
    for flag, (kind, _, readers, text) in CONDITIONAL_FLAGS[command].items():
        parser.add_argument(flag, type=kind, help=f"{', '.join(readers)}: {text}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temporal-transfer",
        description="Source-task selection over hold durations: runs, bounds, oracle checks, ring evaluations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one selector with a trainer backend")
    run.add_argument("--algo", required=True, choices=[k.value for k in SelectorKind])
    run.add_argument("--dmin", type=float, default=0.0)
    run.add_argument("--dmax", type=float, default=40.0)
    run.add_argument("--resolution", type=float, default=0.1)
    run.add_argument("--theta", type=float, default=0.025)
    run.add_argument("--trainer", default="ideal", choices=["ideal", "decaying", "noisy", "csv", "ring"])
    _add_conditional(run, "run")
    run.add_argument("--out", default="run", help="output path prefix")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="check the analytical claims numerically")
    verify.add_argument("--claims", help=f"comma list from {','.join(ALL_CLAIMS)} (default all)")
    _add_conditional(verify, "verify")
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="exact best subsets vs simulated selectors")
    orc.add_argument("--dmin", type=float, default=0.0)
    orc.add_argument("--dmax", type=float, default=1.0)
    orc.add_argument("--theta", type=float, default=1.0)
    orc.add_argument("--jstar", type=float, default=1.0)
    orc.add_argument("--grid", type=int, default=41)
    orc.add_argument("--kmax", type=int, default=4)
    orc.add_argument("--out")
    orc.set_defaults(func=cmd_oracle)

    ring = sub.add_parser("ring", help="ring micro-simulation: baseline, eval, or sweep")
    actions = ring.add_subparsers(dest="action", required=True)
    # Each action takes only the flags it reads. Abbreviations are off, so a
    # foreign --seed or --delta never passes for a prefix of --seeds or --deltas.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--vehicles", type=int)
    config.add_argument("--warmup", type=float)
    config.add_argument("--horizon", type=float)
    config.add_argument("--config", help="key=value config file")
    config.add_argument("--out")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--budget", type=int, default=24, help="policy-search rollouts")
    search.set_defaults(func=cmd_ring_search)
    baseline = actions.add_parser("baseline", help="unguided rollouts, one per seed",
                                  parents=[config], allow_abbrev=False)
    baseline.add_argument("--seeds", type=int, default=10, help="number of seeds")
    baseline.set_defaults(func=cmd_ring_baseline)
    evaluate = actions.add_parser("eval", help="policy search at one hold duration",
                                  parents=[config, search], allow_abbrev=False)
    evaluate.add_argument("--delta", type=float, required=True)
    sweep = actions.add_parser("sweep", help="policy search at each hold duration",
                               parents=[config, search], allow_abbrev=False)
    sweep.add_argument("--deltas", required=True, help="comma list of hold durations")

    export = sub.add_parser("export-plot", help="melt a run CSV into series,x,y rows")
    export.add_argument("--input", required=True)
    export.add_argument("--out")
    export.set_defaults(func=cmd_export_plot)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused after it: parsing
    leaves it unchanged, and every default is immutable."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every command's --out, before its work; run's is a prefix whose
        # directory is made after the run, or not at all
        args.out = _usable_out(args.out, prefix=args.func is cmd_run)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
