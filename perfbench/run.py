"""Benchmark of the temporal_transfer command line, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout, one fresh process per call. It imports the
package from ./src, generates the workload's inputs from the seed, calls
`temporal_transfer.cli.main` in-process for S seconds, one call after
another, and checks every output. The last line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, ops_per_s, op_p50_s and
peak_rss_mib. setup_s is the median of this process's own set-up and of
SETUP_PROBES fresh processes of this script with --setup-only, half started
before the timed ops and half after. With --trace 1 the metrics are the
per-layer ones of tracer.PER_LAYER. Workloads: ring-sweep, certify, select
(see README.md).
"""

import os
import time

_T0 = time.perf_counter()
# One BLAS thread: the load is one process with one thread of calls, and the
# oracle's matrix products would otherwise spread over every core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def import_program() -> dict:
    """Import the package from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import temporal_transfer
    from temporal_transfer import cli, landscape, oracle, ringsim, selectors, theory, trainers

    where = Path(temporal_transfer.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"imported temporal_transfer from {where}, not from {src}")
    return {"cli": cli, "landscape": landscape, "selectors": selectors, "theory": theory,
            "oracle": oracle, "trainers": trainers, "ringsim": ringsim}


@dataclass
class Op:
    index: int
    cmds: list
    results: list  # (exit code, stdout, stderr) per command
    seconds: float
    out_dir: Path

    @property
    def failed(self) -> bool:
        return any(rc != 0 for rc, _, _ in self.results)


def call_cli(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def run_op(cli, w, index: int, out_dir: Path) -> Op:
    cmds = w.op(index, out_dir)
    start = time.perf_counter()
    results = [call_cli(cli, argv) for argv in cmds]
    return Op(index, cmds, results, time.perf_counter() - start, out_dir)


def run_for(cli, w, seconds: float, work: Path, tag: str) -> tuple[list, float]:
    """Ops 0, 1, 2, ... until `seconds` have passed; returns them and the wall time."""
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        ops.append(run_op(cli, w, i, work / f"{tag}{i}"))
        if time.perf_counter() - start >= seconds:
            return ops, time.perf_counter() - start


# ---------------------------------------------------------------- checks

def _fingerprint(op: Op) -> tuple:
    files = tuple(sorted((p.name, p.read_text()) for p in op.out_dir.glob("*.csv"))) if op.out_dir.exists() else ()
    return (tuple(op.results), files)


def check_op(w, op: Op, mods: dict) -> None:
    import checks

    for argv, (rc, _, err) in zip(op.cmds, op.results):
        checks.require(err == "", f"{' '.join(argv)} wrote to stderr: {err.strip()[:300]}")
    if w.name == "ring-sweep":
        ringsim = mods["ringsim"]
        base = replace(ringsim.RingConfig(), warmup=workloads.RING_WARMUP_S, horizon=workloads.RING_HORIZON_S)
        ring_seed = int(op.cmds[0][op.cmds[0].index("--seed") + 1])

        def rollout(delta, weights):
            cfg = replace(base, guidance=replace(base.guidance, hold=delta, mode="speed"))
            return ringsim.rollout_measure(cfg, ringsim.LinearSpeedPolicy(*weights, cfg), ring_seed)

        checks.check_ring_sweep(op.results[0][1], workloads.RING_DELTAS, base.speed_limit,
                                base.idm.v_desired, rollout)
        checks.check_step_agreement(ringsim, base, ring_seed, n_steps=300)
    elif w.name == "certify":
        rc, text, _ = op.results[0]
        checks.check_verify(text, rc)
        p = w.params
        for (rc, text, _), grid in zip(op.results[1:], workloads.ORACLE_GRIDS):
            checks.check_oracle(text, rc, p["dmax"], p["theta"], p["jstar"], grid)
        # The oracle's optimum, unrounded, against the plain enumeration here.
        exhaustive_best = getattr(mods["oracle"], "exhaustive_best", None)
        checks.require(exhaustive_best is not None,
                       "oracle.exhaustive_best is gone, so the unrounded oracle check cannot run")
        landscape = mods["landscape"]
        hold_range = landscape.HoldRange(0.0, p["dmax"], 0.025)
        model = landscape.symmetric_model(p["theta"], p["jstar"])
        for k in (1, 2, 3):
            got = exhaustive_best(hold_range, model, k, 41).best_area
            want = checks.enumerate_best(p["dmax"], p["theta"], p["jstar"], 41, k)
            checks.require(abs(got - want) <= 1e-12 * max(abs(want), 1.0),
                           f"exhaustive_best k={k}: {got!r}, plain enumeration {want!r}")
    else:
        p = w.params
        curve = [float(line.split(",")[1]) for line in Path(p["curve_csv"]).read_text().splitlines()[1:]]
        for (name, args), (rc, text, _) in zip(workloads.select_runs(w).items(), op.results):
            opt = dict(zip(args[::2], args[1::2]))
            trainer = opt.get("--trainer", "ideal")
            checks.check_run(
                text, rc,
                (op.out_dir / f"{name}_iterations.csv").read_text(),
                (op.out_dir / f"{name}_landscape.csv").read_text(),
                algo=opt["--algo"], dmax=float(opt["--dmax"]), resolution=float(opt["--resolution"]),
                theta=p["theta"], jstar=p["jstar"], budget=int(opt.get("--budget", 0)),
                trainer=trainer, eta=workloads.NOISE_ETA if trainer == "noisy" else 0.0, curve=curve,
            )


def check_all(w, ops: list, mods: dict) -> list[str]:
    """Check every op that did not fail; ops with byte-identical outputs to
    one already checked pass with it. Returns the failures found."""
    checked = set()
    problems = []
    for op in ops:
        if op.failed:
            continue
        key = _fingerprint(op)
        if key in checked:
            continue
        try:
            check_op(w, op, mods)
            checked.add(key)
        except AssertionError as exc:
            problems.append(f"op {op.index}: {exc}")
    return problems


# ---------------------------------------------------------------- main

def _metric(value, unit):
    return {"value": value, "unit": unit}


def probe_setups(args, count: int) -> list[float]:
    """setup_s of `count` fresh processes of this script that only set up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    setups = []
    for _ in range(count):
        try:
            probe = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                   timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: a set-up probe took over {PROBE_TIMEOUT_S} s")
        if probe.returncode != 0:
            raise SystemExit(f"error: a set-up probe failed:\n{probe.stderr}")
        setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
    return setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "temporal_transfer" / "__init__.py").is_file():
        print(f"error: no src/temporal_transfer package under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    problems = []
    try:
        mods = import_program()
        w = workloads.make(args.workload, args.seed, work)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        cli = mods["cli"]
        if args.trace == 0:
            # Probes before and after the timed ops, so that their median
            # spans the machine's speed over the whole run.
            setups = [setup_s, *probe_setups(args, SETUP_PROBES // 2)]
            ops, elapsed = run_for(cli, w, args.seconds, work, "op")
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups += probe_setups(args, SETUP_PROBES - SETUP_PROBES // 2)
            done = [op for op in ops if not op.failed]
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "ops_per_s": _metric(len(done) / elapsed, "1/s"),
                "op_p50_s": _metric(statistics.median(op.seconds for op in done) if done else 0.0, "s"),
                "peak_rss_mib": _metric(peak_mib, "MiB"),
            }
            print("# setup_s own=%r probes=%s" % (setup_s, " ".join(repr(s) for s in setups[1:])))
        else:
            import tracer as tracer_mod

            # Untraced ops for half the run, then the same ops again traced.
            plain, _ = run_for(cli, w, args.seconds / 2, work, "op")
            tracer = tracer_mod.Tracer(mods)
            tracer.install()
            try:
                traced = []
                for op in plain:
                    tracer.op = op.index
                    traced.append(run_op(cli, w, op.index, work / f"trace{op.index}"))
            finally:
                tracer.restore()
            problems += [f"tracer: {name} is gone from the program, so its metrics read 0"
                         for name in tracer.missing]
            ops = plain + traced
            values = tracer.metrics(len(traced))
            values["trace.overhead_ratio"] = (sum(op.seconds for op in traced)
                                              / sum(op.seconds for op in plain) - 1)
            units = {name: unit for name, unit, _ in tracer_mod.PER_LAYER}
            metrics = {name: _metric(values[name], units[name]) for name, _, _ in tracer_mod.PER_LAYER}
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        problems += check_all(w, ops, mods)
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)
        for op in ops:
            if op.failed:
                print(f"op {op.index} failed: {op.results}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import numpy

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
          f"blas_threads={BLAS_THREADS} numpy={numpy.__version__} cpus={os.cpu_count()}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
