"""The mutation check's allowlist keys: each names exactly one mutant."""

import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

MODULES = sorted((ROOT / "src" / "temporal_transfer").glob("*.py"))


@functools.cache
def _keys(module: Path) -> list[tuple]:
    return [(module.name, *key) for _, key, _ in mutate.mutants(module.read_text())]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_two_mutants_of_a_module_share_a_key(module):
    keys = _keys(module)
    assert len(set(keys)) == len(keys)


def test_sites_of_the_same_text_get_their_own_keys():
    source = "def f(x, y):\n    if 0 <= x <= 1 and y is None:\n        return y is None\n"
    keys = [key for _, key, _ in mutate.mutants(source)]
    assert ("f", "0 <= x <= 1", "0 < x <= 1", 1) in keys
    assert ("f", "0 <= x <= 1", "0 <= x < 1", 1) in keys
    assert ("f", "y is None", "is not", 1) in keys
    assert ("f", "y is None", "is not", 2) in keys


def test_each_mutant_changes_only_its_own_site():
    source = "def f(x):\n    return x + 1 < 2\n"
    texts = [(key, mutate.ast.unparse(tree)) for _, key, tree in mutate.mutants(source)]
    assert texts == [
        (("f", "x + 1 < 2", "<=", 1), "def f(x):\n    return x + 1 <= 2"),
        (("f", "x + 1", "-", 1), "def f(x):\n    return x - 1 < 2"),
        (("f", "x + 1 < 2", "x + 1 < 3", 1), "def f(x):\n    return x + 1 < 3"),
        (("f", "x + 1", "x + 2", 1), "def f(x):\n    return x + 2 < 2"),
    ]


def test_every_allowlisted_mutant_exists():
    keys = {key for module in MODULES for key in _keys(module)}
    assert set(mutate.EQUIVALENT) - keys == set()
