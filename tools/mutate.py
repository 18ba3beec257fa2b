"""Mutation check: does the test suite notice when the code is changed?

Makes one mutant of a module at a time and runs the given test files
against it. A mutant that some test fails on is killed; one that passes
them all survived, and is printed. The mutants are of four kinds:

- a flipped comparison: < and <= into each other, > and >= likewise,
  == and != likewise, `is` and `is not`, `in` and `not in`;
- + and - swapped;
- * and / swapped;
- a numeric constant plus 1.

The package is copied to a temporary directory and every mutant is written
there, so the working tree is never changed. A mutant that runs for longer
than ten times the unmutated run, and at least a minute, counts as killed.

Usage, from the repository root:

    python tools/mutate.py src/temporal_transfer/theory.py --tests tests/test_theory.py

Exit status: 0 when every mutant is killed or allowlisted, 1 otherwise, 2
when the tests already fail on the unmutated code.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}

# Mutants that no test can kill because they compute the same thing, keyed
# by (file name, source of the mutated expression, replacement), each with
# the reason it is equivalent.
EQUIVALENT = {
    ("theory.py", "k <= 2", "<"):  # ghost_cell_lower_bound
        "at k = 2 the anchor rule gives the same 0.75 * scale: i = 0 and no step short",
    ("oracle.py", "2001", "2002"):  # MAX_COARSE_CELLS
        "a limit that the tests read from the constant: one more accepted grid size changes no result",
    ("landscape.py", "1_000_000", "1000001"):  # MAX_CELLS
        "a limit that the tests read from the constant: one more accepted cell changes no result",
    ("landscape.py", "abs(cells - self.n_cells) > 1e-6 * max(cells, 1.0)", ">="):  # HoldRange
        "no float width lies exactly 1e-6 * cells from a whole count: none does at resolution 1 up to MAX_CELLS",
    ("landscape.py", "i < 0.0", "<="):  # nearest_index
        "at i = 0 both branches give round(0.0) = 0",
    ("landscape.py", "i > self.n_cells", ">="):  # nearest_index
        "at i = n_cells both branches give round(n_cells) = n_cells",
    ("landscape.py", "d < 0", "<="):  # gap
        "at d = 0 either finite slope times |d| is a zero gap",
    ("selectors.py", "1_000_000", "1000001"):  # MAX_BUDGET
        "a limit that the tests read from the constant: one more accepted training changes no result",
    ("selectors.py", "4_000_000_000", "4000000001"):  # MAX_MERGES
        "a limit that the tests read from the constant: one more accepted merge changes no result",
    ("selectors.py", "bisect_left(b, lo) - 1", "bisect_left(b, lo) - 2"):  # SegmentTable.after_transfer
        "rescores one more unchanged segment, which gives its table entry again at the same tolerance",
    ("selectors.py", "hi + 1", "hi + 2"):  # SegmentTable.after_transfer
        "rescores one more unchanged segment, which gives its table entry again at the same tolerance",
    ("selectors.py", "len(b) - 1", "+"):  # SegmentTable.after_transfer
        "the clamp only matters past the last segment, where both slices stop at the end of the list",
    ("selectors.py", "np.where(near, idx, -1)", "np.where(near, idx, -2)"):  # find_greedy_transfer_point
        "the best segment is always near, so the fill below every grid index never wins",
    ("selectors.py", "(len(plan) * hold_range.n_points, 0, MAX_MERGES)",
     "(len(plan) * hold_range.n_points, 1, MAX_MERGES)"):  # _run_plan
        "a plan has at least one index and a range at least two points, so the product is never below 2",
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every mutable node of a module, in one fixed order: (node, index of
    the comparison operator) for a comparison, (node, None) otherwise."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, j) for j, op in enumerate(node.ops) if type(op) in FLIPS]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((node, None))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
              and not isinstance(node.value, bool)):
            found.append((node, None))
    return found


def mutate(node: ast.AST, j: int | None) -> str:
    """Apply one mutation in place and name its replacement."""
    if isinstance(node, ast.Compare):
        node.ops[j] = FLIPS[type(node.ops[j])]()
        return SYMBOLS[type(node.ops[j])]
    if isinstance(node, ast.BinOp):
        node.op = SWAPS[type(node.op)]()
        return SYMBOLS[type(node.op)]
    node.value += 1
    return repr(node.value)


def mutants(source: str):
    """(line, mutated expression, replacement, mutated source) of each site.
    A constant inside an expression is named by that expression, before and
    after the change (`hi + 1 -> hi + 2`): a bare `1 -> 2` matches many sites."""
    for k in range(len(sites(ast.parse(source)))):
        tree = ast.parse(source)  # a fresh tree per mutant: one change at a time
        node, j = sites(tree)[k]
        parents = {child: p for p in ast.walk(tree) for child in ast.iter_child_nodes(p)}
        context = node
        while isinstance(context, (ast.Constant, ast.UnaryOp)) and isinstance(parents.get(context),
                                                                              (ast.expr, ast.keyword)):
            context = parents[context]
        expression = ast.get_source_segment(source, node) if context is node else ast.unparse(context)
        replacement = mutate(node, j)
        yield node.lineno, expression, replacement if context is node else ast.unparse(context), ast.unparse(tree)


def run_tests(tests: list[str], package_root: Path, timeout: float | None) -> bool | None:
    """Whether the tests pass with `package_root` first on the import path
    (None when they time out)."""
    env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="source files to mutate, inside a package")
    parser.add_argument("--tests", nargs="+", required=True, help="test files to run against each mutant")
    args = parser.parse_args(argv)
    package = Path(args.modules[0]).resolve().parent
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / package.name
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        start = time.monotonic()
        if not run_tests(args.tests, Path(scratch), None):
            print("the tests fail on the unmutated code", file=sys.stderr)
            return 2
        timeout = max(10 * (time.monotonic() - start), 60.0)
        any_survived = False
        for module in map(Path, args.modules):
            source = module.read_text()
            target = copy / module.name
            counts = {"killed": 0, "equivalent": 0, "survived": 0}
            for line, expression, replacement, mutated in mutants(source):
                target.write_text(mutated)
                if run_tests(args.tests, Path(scratch), timeout) is not True:
                    counts["killed"] += 1
                elif (module.name, expression, replacement) in EQUIVALENT:
                    counts["equivalent"] += 1
                else:
                    counts["survived"] += 1
                    print(f"{module.name}:{line}: {expression} -> {replacement}", flush=True)
            target.write_text(source)
            print(f"{module.name}: " + ", ".join(f"{n} {kind}" for kind, n in counts.items()), flush=True)
            any_survived = any_survived or counts["survived"] > 0
    return 1 if any_survived else 0


if __name__ == "__main__":
    sys.exit(main())
