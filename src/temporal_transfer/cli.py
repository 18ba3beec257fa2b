"""Command-line front end: selection runs, bound verification, oracle
comparisons, ring evaluations, and plot-data export.

Every command that takes --seed is byte-reproducible: all randomness flows
from that seed and numeric output is fixed at 6 significant digits.

Exit codes: 0 success, 2 validation error, 3 trainer or simulation failure,
4 bound violation in verify.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import ringsim, theory
from .landscape import (
    GapModel,
    HoldRange,
    Landscape,
    apply_transfer,
    symmetric_model,
    write_landscape_csv,
)
from .selectors import (
    SelectionError,
    SelectorKind,
    run_cttl,
    run_gttl,
    run_selector,
    write_iterations_csv,
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

ALL_CLAIMS = ("T1", "T2", "T4", "L2", "L3")


class UsageError(ValueError):
    pass


def _emit(text: str, out: str | None) -> None:
    """Print a table and, given --out, write the same text there."""
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text)


def _report_rows(reports: list[BoundReport]) -> str:
    lines = ["claim,lhs,rhs,holds,slack"]
    for r in reports:
        lines.append(f"{r.claim},{r.lhs:.6g},{r.rhs:.6g},{str(r.holds).lower()},{r.slack:.6g}")
    return "\n".join(lines) + "\n"


# Each `run` flag that not every run reads, and the --algo and --trainer
# values that read it. Algorithm and trainer names never collide.
_READERS = {
    "budget": ("gttl", "cttl", "rttl"),
    "epsilon": ("gttl",),
    "seed": ("rttl", "noisy", "ring"),
    "csv": ("csv",),
    "noise_eta": ("noisy",),
    "decay": ("decaying",),
    "search_budget": ("ring",),
    "config": ("ring",),
    "warmup": ("ring",),
    "horizon": ("ring",),
}


def given(**params) -> dict:
    """The keyword arguments whose flags were given. A flag left out takes
    the default of the function that reads it."""
    return {name: value for name, value in params.items() if value is not None}


def _build_trainer(args, hold_range: HoldRange):
    """The backend that --trainer names, built from its own flags. A ring
    backend checks its config and budget here, before any training."""
    if args.trainer == "ideal":
        return IdealTrainer(args.jstar, hold_range)
    if args.trainer == "decaying":
        return DecayingTrainer(args.jstar, hold_range, **given(decay=args.decay))
    if args.trainer == "noisy":
        return NoisyTrainer(args.jstar, hold_range, **given(eta=args.noise_eta, seed=args.seed))
    if args.trainer == "csv":
        if not args.csv:
            raise UsageError("--csv PATH is required with --trainer csv")
        return load_csv_landscape(args.csv)
    return RingTrainer(
        _ring_config(args), **given(search_budget=args.search_budget, seed=args.seed)
    )


def cmd_run(args) -> int:
    for flag, readers in _READERS.items():
        if getattr(args, flag) is not None and args.algo not in readers and args.trainer not in readers:
            raise UsageError(f"--{flag.replace('_', '-')} applies only to {', '.join(readers)}")
    hold_range = HoldRange(args.dmin, args.dmax, args.resolution)
    model = symmetric_model(args.theta, args.jstar)
    kind = SelectorKind(args.algo)
    trainer = _build_trainer(args, hold_range)
    options = {flag: getattr(args, flag) for flag in ("budget", "epsilon", "seed")
               if kind.value in _READERS[flag]}
    failed = None
    try:
        state = run_selector(kind, trainer, model, hold_range, **given(**options))
    except SelectionError as exc:
        failed, state = exc, exc.state
    # The selectors are anytime: a failed run still writes its valid prefix.
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_iterations_csv(state, f"{out}_iterations.csv")
    write_landscape_csv(state.landscape, f"{out}_landscape.csv")
    if failed is not None:
        print(f"error: {failed}", file=sys.stderr)
        return EXIT_RUNTIME
    mean_perf = float(np.mean(state.landscape.values))
    print(f"{kind.value},{state.iteration},{state.area:.6g},{mean_perf:.6g}")
    return EXIT_OK


def _verify_t1(grid_cells: int) -> list[BoundReport]:
    hold_range = HoldRange(0.0, 1.0, 1.0)
    model = symmetric_model(1.0, 1.0)
    coarse = oracle_mod.coarse_range(hold_range, grid_cells)
    cell = coarse.resolution * model.j_star
    a_star = theory.full_area(hold_range, model)
    best = oracle_mod.exhaustive_best(hold_range, model, 1, grid_cells)
    rows = [
        bound_report("T1-first-pick", abs(best.best_sequence[0] - 0.5), cell, a_star),
        bound_report("T1-first-area", abs(best.best_area - 0.75 * a_star), cell, a_star),
    ]
    land = apply_transfer(Landscape.zeros(coarse), model, coarse.snap(0.5), model.j_star)
    mid = coarse.snap(0.5)
    left_pick, _ = oracle_mod.best_marginal_cell(land, model, coarse.d_min, mid)
    right_pick, _ = oracle_mod.best_marginal_cell(land, model, mid, coarse.d_max)
    rows.append(bound_report("T1-pos-trisection", abs(left_pick - (2 * coarse.d_min + mid) / 3), cell, a_star))
    rows.append(bound_report("T1-neg-trisection", abs(right_pick - (mid + 2 * coarse.d_max) / 3), cell, a_star))
    return rows


def _verify_t2() -> list[BoundReport]:
    hold_range = HoldRange(0.0, 1.0, 0.025)
    model = symmetric_model(1.0, 1.0)
    rows = []
    for i in range(5):
        k = 2**i + 1
        value = theory.ghost_cell_lower_bound(hold_range, model, k)
        target = (1 - 1 / 2 ** (i + 2)) * model.theta * hold_range.width**2
        rows.append(bound_report(f"T2-anchor-k{k}", abs(value - target), 0.0, 1.0))
    rows.append(bound_report("T2-steps-eps1_16", abs(theory.steps_to_cover(1 / 16) - 5), 0.0, 1.0))
    rows.append(bound_report("T2-steps-eps1_64", abs(theory.steps_to_cover(1 / 64) - 17), 0.0, 1.0))
    return rows


def _simulated_areas(kmax: int) -> tuple[list[float], list[float], HoldRange, GapModel]:
    hold_range = HoldRange(0.0, 1.0, 1 / 2000)
    model = symmetric_model(1.0, 1.0)
    ideal = IdealTrainer(model.j_star, hold_range)
    gttl = run_gttl(ideal, model, hold_range, budget=kmax, epsilon=0.0).area_history
    cttl = [run_cttl(ideal, model, hold_range, budget=k).area for k in range(1, kmax + 1)]
    return gttl, cttl, hold_range, model


def _verify_t4(kmax: int, gttl, cttl, hold_range: HoldRange, model: GapModel) -> list[BoundReport]:
    cell = hold_range.resolution * model.j_star
    a_star = theory.full_area(hold_range, model)
    rows = []
    for k in range(2, kmax + 1):
        bound = theory.suboptimality_bound(hold_range, model, k)
        rows.append(bound_report(f"T4-gap-K{k}", cttl[k - 1] - gttl[k - 1], bound + cell, a_star))
    for i in range(5):
        k = 2**i + 1
        if k > kmax:
            break
        lhs = theory.cttl_optimal_area(hold_range, model, k) - theory.ghost_cell_lower_bound(
            hold_range, model, k
        )
        rhs = theory.suboptimality_bound(hold_range, model, k)
        rows.append(bound_report(f"T4-identity-K{k}", abs(lhs - rhs), 1e-9 * a_star, a_star))
    return rows


def _verify_l2(kmax: int, gttl, _, hold_range: HoldRange, model: GapModel) -> list[BoundReport]:
    rows = []
    for k in range(1, kmax + 1):
        rows.append(
            bound_report(
                f"L2-k{k}",
                theory.ghost_cell_lower_bound(hold_range, model, k),
                gttl[k - 1],
                theory.full_area(hold_range, model),
            )
        )
    return rows


def _verify_l3(grid_cells: int, kmax: int) -> list[BoundReport]:
    hold_range = HoldRange(0.0, 1.0, 1.0)
    model = symmetric_model(1.0, 1.0)
    coarse = oracle_mod.coarse_range(hold_range, grid_cells)
    cell = coarse.resolution * model.j_star
    a_star = theory.full_area(hold_range, model)
    rows = []
    for k in range(1, kmax + 1):
        best = oracle_mod.exhaustive_best(hold_range, model, k, grid_cells)
        closed = theory.cttl_optimal_area(hold_range, model, k)
        rows.append(bound_report(f"L3-K{k}", abs(best.best_area - closed), cell, a_star))
    return rows


def cmd_verify(args) -> int:
    claims = [c.strip().upper() for c in args.claims.split(",")] if args.claims else list(ALL_CLAIMS)
    unknown = set(claims) - set(ALL_CLAIMS)
    if unknown:
        raise UsageError(f"unknown claims: {sorted(unknown)} (choose from {ALL_CLAIMS})")
    rows: list[BoundReport] = []
    simulated = None  # greedy and schedule areas, shared by T4 and L2
    for claim in claims:
        if claim == "T1":
            rows.extend(_verify_t1(args.grid))
        elif claim == "T2":
            rows.extend(_verify_t2())
        elif claim in ("T4", "L2"):
            simulated = simulated or _simulated_areas(args.kmax)
            verify = _verify_t4 if claim == "T4" else _verify_l2
            rows.extend(verify(args.kmax, *simulated))
        elif claim == "L3":
            rows.extend(_verify_l3(args.grid, args.kmax))
    _emit(_report_rows(rows), args.out)
    return EXIT_OK if all(r.holds for r in rows) else EXIT_BOUND


def cmd_oracle(args) -> int:
    # The oracle and the bound see only the interval, never a fine grid.
    hold_range = HoldRange(args.dmin, args.dmax, args.dmax - args.dmin)
    model = symmetric_model(args.theta, args.jstar)
    lines = ["k,best_area,gttl_area,cttl_area,bound,holds"]
    coarse = oracle_mod.coarse_range(hold_range, args.grid)
    coarse_ideal = IdealTrainer(args.jstar, coarse)
    for k in range(1, args.kmax + 1):
        best, gttl, report = oracle_mod.greedy_vs_oracle(hold_range, model, k, args.grid)
        cttl = run_cttl(coarse_ideal, model, coarse, budget=k).area
        lines.append(
            f"{k},{best.best_area:.6g},{gttl:.6g},{cttl:.6g},{report.rhs:.6g},{str(report.holds).lower()}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# Ring-config flags and the RingConfig fields they override.
_RING_FLAGS = {"warmup": "warmup", "horizon": "horizon", "vehicles": "n_vehicles", "guided": "n_guided"}


def _ring_config(args) -> ringsim.RingConfig:
    config = ringsim.load_ring_config(args.config) if args.config else ringsim.RingConfig()
    overrides = {field: getattr(args, flag, None) for flag, field in _RING_FLAGS.items()}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def cmd_ring_baseline(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    unguided = replace(_ring_config(args), n_guided=0)
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
    ringsim.check_search(config, args.budget)
    header, row = _SEARCH_TABLES[args.action]
    sweep = args.action == "sweep"
    deltas = [float(x) for x in args.deltas.split(",")] if sweep else [args.delta]
    baseline = None
    try:
        if sweep:
            baseline = ringsim.rollout_measure(replace(config, n_guided=0), None, args.seed)
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
    out = ["series,x,y"]
    for line in lines[1:]:
        if not line.strip():
            continue
        fields = line.split(",")
        x = fields[0]
        for name, value in zip(header[1:], fields[1:]):
            out.append(f"{name},{x},{value}")
    text = "\n".join(out) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
    # Selector and backend flags: each applies only to the --algo and
    # --trainer values that read it (_READERS).
    run.add_argument("--budget", type=int, help="gttl, cttl, rttl: training budget K")
    run.add_argument("--epsilon", type=float, help="gttl: uncovered fraction at which to stop")
    run.add_argument("--theta", type=float, default=0.025)
    run.add_argument("--jstar", type=float, default=1.0)
    run.add_argument("--trainer", default="ideal", choices=["ideal", "decaying", "noisy", "csv", "ring"])
    run.add_argument("--seed", type=int, help="rttl, noisy, ring: random seed")
    run.add_argument("--csv", help="csv: landscape CSV to replay")
    run.add_argument("--noise-eta", type=float, help="noisy: noise amplitude")
    run.add_argument("--decay", type=float, help="decaying: fall of the bound across the range")
    run.add_argument("--search-budget", type=int, help="ring: policy-search rollouts")
    run.add_argument("--config", help="ring: key=value config file")
    run.add_argument("--warmup", type=float, help="ring: warmup seconds")
    run.add_argument("--horizon", type=float, help="ring: scored seconds")
    run.add_argument("--out", default="run", help="output path prefix")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="check the analytical claims numerically")
    verify.add_argument("--claims", help=f"comma list from {','.join(ALL_CLAIMS)} (default all)")
    verify.add_argument("--grid", type=int, default=41)
    verify.add_argument("--kmax", type=int, default=9)
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
    config.add_argument("--guided", type=int)
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
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, FileNotFoundError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
