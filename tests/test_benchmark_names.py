"""The names the benchmark in perfbench/ reaches in the package.

perfbench/tracer.py rebinds functions and methods by name, and
perfbench/run.py and perfbench/checks.py call into `ringsim`, `oracle` and
`landscape`. A name deleted from the package would otherwise show up only
when the benchmark runs: as a `tracer: ... is gone` line, or as a check that
cannot run.
"""

import ast
import sys
from pathlib import Path

import pytest

from temporal_transfer import cli, landscape, oracle, ringsim, selectors, theory, trainers

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {"cli": cli, "landscape": landscape, "selectors": selectors, "theory": theory,
           "oracle": oracle, "trainers": trainers, "ringsim": ringsim}
CALLED = ("ringsim", "oracle", "landscape")


def names_used(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for each `module.attribute` and each
    `getattr(mods["module"], "attribute", ...)` in a source file, for the
    modules in CALLED."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in CALLED:
            used.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[0], ast.Subscript)
              and isinstance(node.args[1], ast.Constant)):
            module = node.args[0].slice
            if isinstance(module, ast.Constant) and module.value in CALLED:
                used.add((module.value, node.args[1].value))
    return used


@pytest.fixture
def perfbench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    sys.modules.pop("tracer", None)


def test_tracer_finds_every_traced_name(perfbench_on_path):
    import tracer

    traced = tracer.Tracer(MODULES)
    original = landscape.apply_transfer
    traced.install()
    try:
        assert traced.missing == []
        assert selectors.apply_transfer is not original
    finally:
        traced.restore()
    assert landscape.apply_transfer is original and selectors.apply_transfer is original


def test_every_name_run_and_checks_call_exists():
    used = names_used(PERFBENCH / "run.py") | names_used(PERFBENCH / "checks.py")
    # the scan finds the calls it is meant to find
    assert {("ringsim", "step"), ("ringsim", "RingState"), ("ringsim", "rollout_measure"),
            ("oracle", "exhaustive_best"), ("landscape", "HoldRange")} <= used
    gone = sorted(f"{module}.{name}" for module, name in used if not hasattr(MODULES[module], name))
    assert gone == []
