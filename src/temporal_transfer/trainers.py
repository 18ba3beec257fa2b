"""Task-evaluator backends: train (or look up) a policy at one hold duration.

Every backend answers evaluate(delta) with the achieved performance and an
opaque policy id. The analytic backends realize the modeling assumptions
exactly (or controlled violations of them); the CSV backend replays an
exported performance curve; the ring backend runs a real micro-simulation
search (see ringsim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .landscape import HoldRange, check_bounds, check_overflow


class TrainingError(RuntimeError):
    """A backend failed to produce a policy for the requested duration."""


class CsvFormatError(ValueError):
    """Malformed performance CSV; message carries the offending line number."""


class MissingDataError(LookupError):
    """No stored row close enough to answer the requested duration."""


@dataclass(frozen=True)
class EvaluatorResult:
    delta: float
    achieved: float
    policy_id: str
    cost: float = 1.0

    def __post_init__(self):
        check_bounds(nonnegative={"achieved": self.achieved})


class IdealTrainer:
    """Always reaches the upper-bound performance, at every duration."""

    def __init__(self, j_star: float, hold_range: HoldRange):
        self.j_star = j_star
        self.hold_range = hold_range

    def _check(self, delta: float) -> None:
        if not self.hold_range.d_min <= delta <= self.hold_range.d_max:
            raise ValueError(f"delta {delta} outside [{self.hold_range.d_min}, {self.hold_range.d_max}]")

    def evaluate(self, delta: float) -> EvaluatorResult:
        self._check(delta)
        return EvaluatorResult(delta=delta, achieved=self.j_star, policy_id=f"ideal@{delta:.6g}")


class DecayingTrainer(IdealTrainer):
    """Upper bound falls linearly with duration: J*(1 - c*(d-d_min)/width)."""

    def __init__(self, j_star: float, hold_range: HoldRange, decay: float = 0.5):
        super().__init__(j_star, hold_range)
        check_bounds(nonnegative={"decay": decay})
        self.decay = decay

    def evaluate(self, delta: float) -> EvaluatorResult:
        self._check(delta)
        frac = (delta - self.hold_range.d_min) / self.hold_range.width
        achieved = max(self.j_star * (1 - self.decay * frac), 0.0)
        return EvaluatorResult(delta=delta, achieved=achieved, policy_id=f"decay@{delta:.6g}")


class NoisyTrainer(IdealTrainer):
    """Ideal plus seeded zero-mean uniform noise of amplitude eta, clamped at 0.

    The perturbation is a pure function of (seed, delta), so results are
    reproducible regardless of evaluation order. eta=0 is bit-identical to
    the ideal backend.
    """

    def __init__(self, j_star: float, hold_range: HoldRange, eta: float = 0.1, seed: int = 0):
        super().__init__(j_star, hold_range)
        check_bounds(nonnegative={"eta": eta, "2 * eta": 2 * eta}, counts={"seed": (seed, 0, math.inf)})
        self.eta = abs(eta)  # -0.0 as 0.0: the draw needs -eta <= eta
        check_overflow(hold_range, **{"(j_star + eta)": j_star + self.eta})  # its largest result
        self.seed = seed

    def evaluate(self, delta: float) -> EvaluatorResult:
        self._check(delta)
        bits = int(np.float64(delta).view(np.uint64))
        rng = np.random.default_rng(np.random.SeedSequence([int(self.seed), bits]))
        noise = rng.uniform(-self.eta, self.eta)
        achieved = max(self.j_star + noise, 0.0)
        return EvaluatorResult(delta=delta, achieved=achieved, policy_id=f"noisy@{delta:.6g}")


class CsvReplayTrainer:
    """Answers nearest-row lookups from a stored delta,performance table."""

    def __init__(self, deltas: np.ndarray, performances: np.ndarray, source: str = "<memory>"):
        self.deltas = np.asarray(deltas, dtype=float)
        self.performances = np.asarray(performances, dtype=float)
        self.source = source
        if len(self.deltas) >= 3:
            self.tolerance = 0.5 * float(np.median(np.diff(self.deltas)))
        else:
            # A single gap gives no meaningful spacing statistic; answer
            # exact-row queries only.
            self.tolerance = 0.0
        # Inclusive boundary, with float slack: a query exactly halfway
        # between two rows is still answerable.
        self._reach = self.tolerance + 1e-9 * max(self.tolerance, 1.0)

    def largest_answer(self, hold_range: HoldRange) -> float:
        """The largest performance that a query in [d_min, d_max] can read:
        the maximum over the rows within reach of the range, 0 when none is."""
        outside = np.maximum(hold_range.d_min - self.deltas, self.deltas - hold_range.d_max)
        return float(self.performances.max(initial=0.0, where=outside <= self._reach))

    def evaluate(self, delta: float) -> EvaluatorResult:
        idx = int(np.searchsorted(self.deltas, delta))
        best, best_dist = None, np.inf
        for j in (idx - 1, idx):
            if 0 <= j < len(self.deltas):
                dist = abs(float(self.deltas[j]) - delta)
                if dist < best_dist:
                    best, best_dist = j, dist
        if best is None or best_dist > self._reach:
            raise MissingDataError(
                f"no row within {self.tolerance:.6g} of delta={delta:.6g} in {self.source}"
            )
        return EvaluatorResult(
            delta=delta,
            achieved=float(self.performances[best]),
            policy_id=f"csv:{self.source}#{best}",
            cost=0.0,
        )


def load_csv_landscape(path) -> CsvReplayTrainer:
    """Parse a delta,performance CSV into a replay backend.

    Rejects malformed rows, non-finite fields, non-increasing deltas, and
    negative performance, reporting the 1-based line number.
    """
    deltas, performances = [], []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "delta,performance":
        raise CsvFormatError(f"{path}:1: expected header 'delta,performance'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"{path}:{lineno}: expected two comma-separated fields")
        try:
            d, p = float(parts[0]), float(parts[1])
        except ValueError:
            raise CsvFormatError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
        if not (math.isfinite(d) and math.isfinite(p)):
            raise CsvFormatError(f"{path}:{lineno}: non-finite field in {line!r}")
        if deltas and d <= deltas[-1]:
            raise CsvFormatError(f"{path}:{lineno}: deltas must be strictly increasing")
        if p < 0:
            raise CsvFormatError(f"{path}:{lineno}: negative performance {p}")
        deltas.append(d)
        performances.append(p)
    if not deltas:
        raise CsvFormatError(f"{path}: no data rows")
    return CsvReplayTrainer(np.array(deltas), np.array(performances), source=str(path))


class RingTrainer:
    """Trains a guidance policy in the ring micro-simulation at each duration.

    Selector-chosen durations are snapped to whole seconds (10 simulation
    steps), clamped below at one step, before training. A config, budget or
    seed the policy search cannot use is rejected here, before any training.
    """

    def __init__(self, config, search_budget: int = 24, seed: int = 0):
        from . import ringsim

        ringsim.check_search(config, search_budget)
        check_bounds(counts={"seed": (seed, 0, math.inf)})
        self.config = config
        self.search_budget = search_budget
        self.seed = seed

    def snap_delta(self, delta: float) -> float:
        return max(float(round(delta)), self.config.dt)

    def evaluate(self, delta: float) -> EvaluatorResult:
        from . import ringsim

        return ringsim.train_and_measure(self.config, delta, self.search_budget, self.seed)
