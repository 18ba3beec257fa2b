"""Shared fixtures and helpers: the full-scale unguided ring baselines are
expensive enough to compute once per session, and the CLI subprocess tests
share one child-process environment."""

import os
from dataclasses import replace
from pathlib import Path

import pytest

import temporal_transfer
from temporal_transfer.ringsim import RingConfig, simulate_many

RING = RingConfig()
RING_UNGUIDED = replace(RING, n_guided=0)


def cli_env() -> dict[str, str]:
    """The environment for a CLI child process: this process's, with the
    directory holding the imported `temporal_transfer` package first on
    `PYTHONPATH`. An inherited relative entry such as `src` would resolve
    against the child's cwd, so the child would not find the package from
    a temp directory; the absolute path makes it import the same copy."""
    package_root = str(Path(temporal_transfer.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([package_root, inherited]) if inherited else package_root
    return env


@pytest.fixture(scope="session")
def ring_baselines():
    """Unguided full-scale rollouts of seeds 0-9, run as one batch."""
    return simulate_many(RING_UNGUIDED, range(10))
