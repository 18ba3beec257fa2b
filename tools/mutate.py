"""Mutation check: does the test suite notice when the code is changed?

Makes one mutant of a module at a time and runs the given test files
against it. A mutant that some test fails on is killed; one that passes
them all survived, and is printed with its line and its key in the
EQUIVALENT allowlist. The mutants are of four kinds:

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
# by (file name, *key of `mutants`), each with the reason it is equivalent.
EQUIVALENT = {
    ("theory.py", "ghost_cell_lower_bound", "k <= 2", "<", 1):
        "at k = 2 the anchor rule gives the same 0.75 * scale: i = 0 and no step short",
    ("oracle.py", "<module>", "2001", "2002", 1):  # MAX_COARSE_CELLS
        "a limit that the tests read from the constant: one more accepted grid size changes no result",
    ("landscape.py", "<module>", "1_000_000", "1000001", 1):  # MAX_CELLS
        "a limit that the tests read from the constant: one more accepted cell changes no result",
    ("landscape.py", "HoldRange.__post_init__", "abs(cells - self.n_cells) > 1e-6 * max(cells, 1.0)", ">=", 1):
        "no float width lies exactly 1e-6 * cells from a whole count: none does at resolution 1 up to MAX_CELLS",
    ("landscape.py", "HoldRange.nearest_index", "i < 0.0", "<=", 1):
        "at i = 0 both branches give round(0.0) = 0",
    ("landscape.py", "HoldRange.nearest_index", "i > self.n_cells", ">=", 1):
        "at i = n_cells both branches give round(n_cells) = n_cells",
    ("landscape.py", "gap", "d < 0", "<=", 1):
        "at d = 0 either finite slope times |d| is a zero gap",
    ("ringsim.py", "<module>", "2 ** 53", "3 ** 53", 1):  # MAX_SPEED_LEVELS
        "a limit that the tests read from the constant: more accepted levels change no result",
    ("ringsim.py", "<module>", "2 ** 53", "2 ** 54", 1):  # MAX_SPEED_LEVELS
        "a limit that the tests read from the constant: more accepted levels change no result",
    ("ringsim.py", "<module>", "720", "721", 1):  # MAX_ROLLOUTS
        "a limit that the tests read from the constant: one more accepted rollout changes no result",
    ("ringsim.py", "<module>", "100_000", "100001", 1):  # MAX_BATCH
        "a limit that the tests read from the constant: one more accepted row vehicle changes no result",
    ("ringsim.py", "LinearSpeedPolicy.commands", "np.rint(raw / limit * top) + 0.0", "-", 1):
        "np.maximum(raw, 0.0) returns its second operand, +0.0, for raw = -0.0, so rint never makes a -0.0 level",
    ("ringsim.py", "simulate_many", "gaps.min() > 0", "gaps.min() > 1", 1):
        "the test only decides whether to look row by row: rows leave at gaps <= 0, so gaps in (0, 1] stay",
    ("ringsim.py", "simulate_many", "(1, 0)", "(2, 0)", 1):
        "the key only puts the other rows after the linear rows' (0, hold steps); the stable sort keeps their order",
    ("ringsim.py", "simulate_many", "(1, 0)", "(1, 1)", 1):
        "the key only puts the other rows after the linear rows' (0, hold steps); the stable sort keeps their order",
    ("ringsim.py", "_search", "policy.commands(policy.params(), 0.0, 0.0, 0.0)",
     "policy.commands(policy.params(), 1.0, 0.0, 0.0)", 1):
        "the key is taken only at w1 = w2 = 0, where the command is the snapped w0 whatever the observation",
    ("ringsim.py", "_search", "policy.commands(policy.params(), 0.0, 0.0, 0.0)",
     "policy.commands(policy.params(), 0.0, 1.0, 0.0)", 1):
        "the key is taken only at w1 = w2 = 0, where the command is the snapped w0 whatever the observation",
    ("ringsim.py", "_search", "policy.commands(policy.params(), 0.0, 0.0, 0.0)",
     "policy.commands(policy.params(), 0.0, 0.0, 1.0)", 1):
        "the key is taken only at w1 = w2 = 0, where the command is the snapped w0 whatever the observation",
    ("ringsim.py", "load_ring_config", "line.split('#', 1)", "line.split('#', 2)", 1):
        "only the text before the first '#' is kept, however many pieces the rest is split into",
    ("selectors.py", "<module>", "1_000_000", "1000001", 1):  # MAX_BUDGET
        "a limit that the tests read from the constant: one more accepted training changes no result",
    ("selectors.py", "<module>", "4_000_000_000", "4000000001", 1):  # MAX_MERGES
        "a limit that the tests read from the constant: one more accepted merge changes no result",
    ("selectors.py", "SegmentTable.after_transfer", "bisect_left(self.bounds, lo) - 1",
     "bisect_left(self.bounds, lo) - 2", 1):
        "rescores one more unchanged segment, which gives its table entry again at the same tolerance",
    ("selectors.py", "SegmentTable.after_transfer", "hi + 1", "hi + 2", 1):
        "rescores one more unchanged segment, which gives its table entry again at the same tolerance",
    ("selectors.py", "find_greedy_transfer_point", "np.where(near, idx, -1)", "np.where(near, idx, -2)", 1):
        "the best segment is always near, so the fill below every grid index never wins",
    ("selectors.py", "_run_plan", "(len(plan) * hold_range.n_points, 0, MAX_MERGES)",
     "(len(plan) * hold_range.n_points, 1, MAX_MERGES)", 1):
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
    """Apply one mutation to the node, setting one of its fields to a new
    value, and name its replacement."""
    if isinstance(node, ast.Compare):
        node.ops = [FLIPS[type(op)]() if i == j else op for i, op in enumerate(node.ops)]
        return SYMBOLS[type(node.ops[j])]
    if isinstance(node, ast.BinOp):
        node.op = SWAPS[type(node.op)]()
        return SYMBOLS[type(node.op)]
    node.value += 1
    return repr(node.value)


def mutants(source: str):
    """(line, key, tree) of each site, the module's tree holding that one
    change until the next mutant is drawn. The key is (enclosing
    function, mutated expression, replacement, occurrence): the function's
    qualified name (`<module>` outside any); the replacement is the new
    operator, but the whole mutated text for a chained comparison, whose
    operators share one expression; and the occurrence counts the sites of
    that function with the same expression and replacement, from 1. A
    constant inside an expression is named by that expression, before and
    after the change (`hi + 1 -> hi + 2`): a bare `1 -> 2` matches many sites."""
    tree = ast.parse(source)
    parents = {child: p for p in ast.walk(tree) for child in ast.iter_child_nodes(p)}
    seen = {}
    for node, j in sites(tree):
        names, scope = [], parents.get(node)
        while scope is not None:
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.insert(0, scope.name)
            scope = parents.get(scope)
        context = node
        while isinstance(context, (ast.Constant, ast.UnaryOp)) and isinstance(parents.get(context),
                                                                              (ast.expr, ast.keyword)):
            context = parents[context]
        expression = ast.get_source_segment(source, node) if context is node else ast.unparse(context)
        field = "ops" if isinstance(node, ast.Compare) else "op" if isinstance(node, ast.BinOp) else "value"
        kept = getattr(node, field)
        replacement = mutate(node, j)
        if context is not node or isinstance(node, ast.Compare) and len(node.ops) > 1:
            replacement = ast.unparse(context)
        site = (".".join(names) or "<module>", expression, replacement)
        seen[site] = seen.get(site, 0) + 1
        yield node.lineno, (*site, seen[site]), tree
        setattr(node, field, kept)


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
            for line, key, tree in mutants(source):
                target.write_text(ast.unparse(tree))
                if run_tests(args.tests, Path(scratch), timeout) is not True:
                    counts["killed"] += 1
                elif (module.name, *key) in EQUIVALENT:
                    counts["equivalent"] += 1
                else:
                    counts["survived"] += 1
                    print(f"line {line}: {(module.name, *key)!r}", flush=True)
            target.write_text(source)
            print(f"{module.name}: " + ", ".join(f"{n} {kind}" for kind, n in counts.items()), flush=True)
            any_survived = any_survived or counts["survived"] > 0
    return 1 if any_survived else 0


if __name__ == "__main__":
    sys.exit(main())
