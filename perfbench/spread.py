"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py

Runs run.py with tracing off for seeds 1-10 on every workload of
BENCHMARK.json, at its run_seconds, one run at a time. Prints each run's
metrics and comment lines, then for each metric the median, the quartiles
and the spread: the distance between the quartiles as a share of the
median, which BENCHMARK.json bounds. Also prints the failed share of
attempted ops.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workload_names = [w["name"] for w in bench["workloads"]]
    values = {w: {} for w in workload_names}
    attempted = dict.fromkeys(workload_names, 0)
    failed = dict.fromkeys(workload_names, 0)
    # Seeds outer, workloads inner: each workload's runs spread over the whole
    # set, so a slow spell of the machine does not fall on one workload only.
    for seed in SEEDS:
        for workload in workload_names:
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks\n{run.stderr}")
            attempted[workload] += result["attempted"]
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print("\n".join(line for line in lines if line.startswith("#")))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
    for workload in workload_names:
        print(f"{workload}: failed {failed[workload]}/{attempted[workload]}")
        for name, vals in values[workload].items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            print(f"{workload} {name}: median {q2:.5g} quartiles {q1:.5g} {q3:.5g} "
                  f"spread {spread:.4f} (bound {bounds[name]}, {spread / bounds[name]:.2f} of it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
