"""Single-lane circular-road micro-simulation with one guided vehicle.

Default-driven vehicles follow the standard intelligent-driver car-following
law. The guided vehicle (index 0) applies a zero-order-hold command: a raw
acceleration, or a target speed tracked through a relaxation law. Rollouts
are deterministic per seed; the mean speed of all vehicles over the scored
horizon is the task performance.

One integrator advances a batch of rings held as (rows, n_vehicles) arrays.
Each row has its own seed, hold length and policy; a row that collides
leaves the batch while the others run on. `step`, `simulate` and
`rollout_measure` are one-row calls of it. The integrator is elementwise
apart from reductions along single rows, so a row's numbers do not depend on
the batch it ran in.

The policy search advances all its hold durations in lockstep, and its
refinement is speculative: a proposal's random step does not depend on the
incumbent, so one batch scores the next rounds (at most 12) of every
duration around its current incumbent, and each duration keeps the rounds up
to its first improvement. That gives exactly the candidates and scores of
one round at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .trainers import EvaluatorResult, TrainingError


class CollisionError(RuntimeError):
    """Two vehicles overlapped; carries the follower index and the time."""

    def __init__(self, follower: int, leader: int, time: float):
        super().__init__(f"vehicle {follower} hit vehicle {leader} at t={time:.1f}s")
        self.pair = (follower, leader)
        self.time = time


@dataclass(frozen=True)
class IdmParams:
    a_max: float = 1.0          # m/s^2
    b_comfort: float = 1.5      # m/s^2
    v_desired: float = 30.0     # m/s
    s0: float = 2.0             # m
    time_headway: float = 1.0   # s
    exponent: float = 4.0

    def __post_init__(self):
        for name in ("a_max", "b_comfort", "v_desired", "s0", "time_headway", "exponent"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class GuidanceParams:
    mode: str = "speed"         # "speed" or "acceleration"
    hold: float = 1.0           # s, must be a positive multiple of dt
    alpha: float = 0.6          # 1/s, target-speed relaxation gain
    beta: float = 0.2           # 1/s, headway-rate coupling gain
    accel_cap: float = 2.5      # m/s^2
    n_speed_levels: int = 10

    def __post_init__(self):
        if self.mode not in ("speed", "acceleration"):
            raise ValueError(f"unknown guidance mode {self.mode!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("guidance gains must be >= 0")
        if self.hold <= 0:
            raise ValueError("hold duration must be positive")


@dataclass(frozen=True)
class RingConfig:
    circumference: float = 250.0
    n_vehicles: int = 22
    n_guided: int = 1
    vehicle_length: float = 5.0
    speed_limit: float = 10.0
    dt: float = 0.1
    warmup: float = 500.0
    horizon: float = 1000.0
    idm: IdmParams = field(default_factory=IdmParams)
    guidance: GuidanceParams = field(default_factory=GuidanceParams)

    def __post_init__(self):
        if self.n_guided not in (0, 1):
            raise ValueError(
                f"n_guided must be 0 or 1, got {self.n_guided}: the simulator guides vehicle 0 only"
            )
        if self.n_guided > self.n_vehicles:
            raise ValueError("n_guided exceeds n_vehicles")
        if self.circumference <= self.n_vehicles * self.vehicle_length:
            raise ValueError("vehicles do not fit on the ring")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise ValueError(f"warmup must be finite and >= 0, got {self.warmup}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        _hold_steps("hold", self.guidance.hold, self.dt)

    @property
    def hold_steps(self) -> int:
        return round(self.guidance.hold / self.dt)


def _hold_steps(name: str, seconds: float, dt: float) -> int:
    """Whole simulation steps in `seconds`, which must be a positive multiple of dt."""
    steps = seconds / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ValueError(f"{name} {seconds} is not a positive multiple of dt {dt}")
    return round(steps)


@dataclass
class RingState:
    """Unwrapped positions (monotone per vehicle) and speeds at time t."""

    positions: np.ndarray
    speeds: np.ndarray
    t: float = 0.0


def ring_gaps(positions: np.ndarray, config: RingConfig) -> np.ndarray:
    """Bumper-to-bumper gap to each vehicle's leader (index i+1, wrapping),
    along the last axis: one ring, or a (rows, n_vehicles) batch of them."""
    leaders = np.concatenate(
        (positions[..., 1:], positions[..., :1] + config.circumference), axis=-1
    )
    return leaders - positions - config.vehicle_length


def equilibrium_speed(config: RingConfig) -> float:
    """Uniform-flow speed: zero net acceleration at even spacing.

    Solved by bisection; the independent anchor for baseline expectations.
    """
    p = config.idm
    s_gap = config.circumference / config.n_vehicles - config.vehicle_length
    if s_gap <= p.s0:
        raise ValueError("ring too dense: equilibrium gap below minimum spacing")

    def residual(v: float) -> float:
        return 1 - (v / p.v_desired) ** p.exponent - ((p.s0 + v * p.time_headway) / s_gap) ** 2

    lo, hi = 0.0, p.v_desired
    if residual(lo) <= 0:
        return 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def idm_acceleration(speeds: np.ndarray, gaps: np.ndarray, lead_speeds: np.ndarray, p: IdmParams) -> np.ndarray:
    dv = speeds - lead_speeds
    s_star = p.s0 + speeds * p.time_headway + speeds * dv / (2 * math.sqrt(p.a_max * p.b_comfort))
    return p.a_max * (1 - (speeds / p.v_desired) ** p.exponent - (s_star / gaps) ** 2)


def _advance(
    positions: np.ndarray,
    speeds: np.ndarray,
    gaps: np.ndarray,
    config: RingConfig,
    commands: np.ndarray | None = None,
    guided: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integrator: one dt for every row of a (rows, n_vehicles) batch.

    `gaps` are the rows' current ring gaps. `commands` holds each row's held
    command for its guided vehicle (None: no row is guided); `guided` masks
    the rows it applies to (None: all of them). Semi-implicit: speeds update
    first, then positions. Speeds clamp to [0, v_desired] for default
    vehicles and [0, speed_limit] for a commanded guided vehicle. Returns
    the new positions, speeds and gaps; a row with a non-positive gap has
    collided.
    """
    lead_speeds = np.concatenate((speeds[:, 1:], speeds[:, :1]), axis=1)
    accel = idm_acceleration(speeds, gaps, lead_speeds, config.idm)
    caps = np.full(speeds.shape, config.idm.v_desired)
    if commands is not None:
        g = config.guidance
        if g.mode == "acceleration":
            raw = commands
        else:
            v0 = speeds[:, 0]
            raw = g.alpha * (commands - v0) + g.beta * (lead_speeds[:, 0] - v0)
        raw = np.minimum(np.maximum(raw, -g.accel_cap), g.accel_cap)
        if guided is None:
            accel[:, 0] = raw
            caps[:, 0] = config.speed_limit
        else:
            accel[:, 0] = np.where(guided, raw, accel[:, 0])
            caps[guided, 0] = config.speed_limit
    new_speeds = np.minimum(np.maximum(speeds + accel * config.dt, 0.0), caps)
    new_positions = positions + new_speeds * config.dt
    return new_positions, new_speeds, ring_gaps(new_positions, config)


def _collision(gaps: np.ndarray, time: float) -> CollisionError:
    """The error for one ring's gaps after a step that overlapped vehicles."""
    follower = int(np.argmin(gaps))
    return CollisionError(follower, (follower + 1) % len(gaps), time)


def step(state: RingState, config: RingConfig, command: float | None = None) -> RingState:
    """Advance one dt with the given held command on the guided vehicle.

    A one-row call of the batch integrator. A non-positive gap after the
    move raises CollisionError.
    """
    positions, speeds = state.positions[np.newaxis], state.speeds[np.newaxis]
    guided = command is not None and config.n_guided >= 1
    positions, speeds, gaps = _advance(
        positions, speeds, ring_gaps(positions, config), config,
        np.array([command], dtype=float) if guided else None,
    )
    t = state.t + config.dt
    if (gaps <= 0).any():
        raise _collision(gaps[0], t)
    return RingState(positions=positions[0], speeds=speeds[0], t=t)


def initial_state(config: RingConfig, seed: int) -> RingState:
    """Seeded jitter around uniform spacing at the equilibrium speed.

    Speeds +-10% around equilibrium, positions +-20% of the mean spacing:
    enough to excite stop-and-go in the unguided baseline.
    """
    rng = np.random.default_rng(seed)
    n = config.n_vehicles
    mean_spacing = config.circumference / n
    positions = mean_spacing * np.arange(n) + rng.uniform(-0.2, 0.2, n) * mean_spacing
    v_e = equilibrium_speed(config)
    speeds = v_e * (1 + rng.uniform(-0.1, 0.1, n))
    state = RingState(positions=positions, speeds=speeds)
    if np.any(ring_gaps(positions, config) <= 0):
        raise ValueError("initial jitter produced overlapping vehicles")
    return state


@dataclass
class RolloutResult:
    mean_speed: float           # -inf if the rollout collided
    speed_std: float            # time-mean of the across-vehicle speed std, scored window
    commands: list[float]       # one entry per hold boundary, simulation order
    speeds_log: np.ndarray | None = None     # (steps, n) when recorded
    positions_log: np.ndarray | None = None  # (steps, n), wrapped, when recorded
    commands_log: np.ndarray | None = None   # (steps,) applied command, nan if unguided
    collision: CollisionError | None = None  # what ended a collided rollout


def simulate_many(
    config: RingConfig, seeds, policies=None, holds=None, record: bool = False
) -> list[RolloutResult]:
    """Warmup-plus-horizon rollouts of a batch of rings, one row per seed.

    Row r starts from initial_state(config, seeds[r]). Its policy
    (policies[r]; None leaves the row unguided) is called at every boundary
    of its hold, holds[r] seconds (default: the config's hold), with the
    (ego speed, leader speed, headway) observed at that instant; the command
    is held until the row's next boundary. Guidance is active from t=0.

    A row that collides stops there and the others run on. Its result has
    mean_speed -inf, speed_std nan, the commands issued so far, NaN logs
    from the colliding step on, and the CollisionError that `simulate`
    raises for it.
    """
    n_rows = len(seeds)
    policies = [None] * n_rows if policies is None else list(policies)
    holds = [config.guidance.hold] * n_rows if holds is None else list(holds)
    if len(policies) != n_rows or len(holds) != n_rows:
        raise ValueError(
            f"{n_rows} seeds, {len(policies)} policies and {len(holds)} holds: one each per row"
        )
    if not n_rows:
        return []
    hold_steps = [_hold_steps("hold", hold, config.dt) for hold in holds]
    n_warm = round(config.warmup / config.dt)
    n_score = round(config.horizon / config.dt)
    if n_score < 1:
        raise ValueError(f"horizon {config.horizon} is shorter than one step of {config.dt}")
    total = n_warm + n_score
    starts = {seed: initial_state(config, seed) for seed in dict.fromkeys(seeds)}
    positions = np.array([starts[seed].positions for seed in seeds])
    speeds = np.array([starts[seed].speeds for seed in seeds])
    gaps = ring_gaps(positions, config)
    guided = np.array([p is not None and config.n_guided >= 1 for p in policies])
    commands = np.zeros(n_rows)         # held command of each live row
    issued: list[list[float]] = [[] for _ in range(n_rows)]
    collisions: list[CollisionError | None] = [None] * n_rows
    speed_sum = np.zeros(n_rows)
    std_sum = np.zeros(n_rows)
    if record:
        speeds_log = np.full((n_rows, total, config.n_vehicles), np.nan)
        positions_log = np.full((n_rows, total, config.n_vehicles), np.nan)
        commands_log = np.full((n_rows, total), np.nan)
    live = np.arange(n_rows)            # the row of each line of the arrays
    dropped = True                      # live changed: rebuild the policy schedule
    t = 0.0
    for i in range(total):
        if dropped:
            steer = guided[live]
            callers = [(line, live[line], hold_steps[live[line]]) for line in np.flatnonzero(steer)]
            mask = None if steer.all() else steer
            dropped = False
        for line, row, every in callers:
            if i % every == 0:
                command = float(policies[row]((speeds[line, 0], speeds[line, 1], gaps[line, 0])))
                commands[line] = command
                issued[row].append(command)
        positions, speeds, gaps = _advance(
            positions, speeds, gaps, config, commands if callers else None, mask
        )
        t += config.dt
        overlap = gaps <= 0
        if overlap.any():
            hit = overlap.any(axis=1)
            for line in np.flatnonzero(hit):
                collisions[live[line]] = _collision(gaps[line], t)
            keep = ~hit
            live, positions, speeds, gaps = live[keep], positions[keep], speeds[keep], gaps[keep]
            commands, speed_sum, std_sum = commands[keep], speed_sum[keep], std_sum[keep]
            dropped = True
            if not len(live):
                break
        if record:
            speeds_log[live, i] = speeds
            positions_log[live, i] = positions % config.circumference
            commands_log[live, i] = np.where(guided[live], commands, np.nan)
        if i >= n_warm:
            # Row-wise numpy mean and std, sharing the mean: the same
            # operations as speeds.mean(axis=1) and speeds.std(axis=1).
            mean = speeds.sum(axis=1, keepdims=True) / config.n_vehicles
            deviation = speeds - mean
            speed_sum += mean[:, 0]
            std_sum += np.sqrt((deviation * deviation).sum(axis=1) / config.n_vehicles)
    mean_speed = np.full(n_rows, -np.inf)
    speed_std = np.full(n_rows, np.nan)
    mean_speed[live] = speed_sum / n_score
    speed_std[live] = std_sum / n_score
    return [
        RolloutResult(
            mean_speed=float(mean_speed[row]),
            speed_std=float(speed_std[row]),
            commands=issued[row],
            speeds_log=speeds_log[row] if record else None,
            positions_log=positions_log[row] if record else None,
            commands_log=commands_log[row] if record else None,
            collision=collisions[row],
        )
        for row in range(n_rows)
    ]


def simulate(config: RingConfig, policy, seed: int, record: bool = False) -> RolloutResult:
    """Full warmup-plus-horizon rollout of one ring: a one-row simulate_many.

    Raises the rollout's CollisionError if it collides.
    """
    result = simulate_many(config, [seed], [policy], record=record)[0]
    if result.collision is not None:
        raise result.collision
    return result


def rollout_measure(config: RingConfig, policy, seed: int) -> float:
    """Mean speed of all vehicles over the scored horizon."""
    return simulate(config, policy, seed).mean_speed


class ConstantPolicy:
    """Holds one fixed command forever."""

    def __init__(self, value: float):
        self.value = value

    def __call__(self, obs) -> float:
        return self.value


class ScriptedPolicy:
    """Replays a recorded command sequence, one entry per boundary."""

    def __init__(self, commands):
        self.commands = list(commands)
        self.cursor = 0

    def __call__(self, obs) -> float:
        if self.cursor >= len(self.commands):
            raise IndexError("scripted command sequence exhausted")
        value = self.commands[self.cursor]
        self.cursor += 1
        return value


class LinearSpeedPolicy:
    """Three-parameter commanded-speed family, discretized to the action set.

    command = clamp(w0 + w1*(leader speed - ego speed)
                       + w2*(headway - s0 - T*ego speed), 0, speed_limit)
    snapped to n_speed_levels evenly spaced levels. At uniform equilibrium
    flow both feedback terms vanish, so w0 is the cruise target.
    """

    def __init__(self, w0: float, w1: float, w2: float, config: RingConfig):
        self.w = (w0, w1, w2)
        self.limit = config.speed_limit
        self.levels = config.guidance.n_speed_levels
        self.s0 = config.idm.s0
        self.headway_time = config.idm.time_headway

    def __call__(self, obs) -> float:
        ego, lead, headway = obs
        raw = (
            self.w[0]
            + self.w[1] * (lead - ego)
            + self.w[2] * (headway - self.s0 - self.headway_time * ego)
        )
        raw = min(max(raw, 0.0), self.limit)
        idx = round(raw / self.limit * (self.levels - 1))
        return idx / (self.levels - 1) * self.limit


# Deterministic first-phase lattice for the policy search: cruise targets
# crossed with none/mild/strong feedback gains.
_LATTICE_W0 = (2.0, 4.0, 6.0, 8.0)
_LATTICE_FEEDBACK = ((0.0, 0.0), (0.6, 0.1), (1.2, 0.2))
_PARAM_LO = np.array([0.0, 0.0, 0.0])
_PARAM_HI = np.array([10.0, 2.0, 1.0])
_REFINE_SCALE = np.array([1.2, 0.4, 0.15])


def check_search(config: RingConfig, search_budget: int) -> None:
    """Raise ValueError unless the policy search can run: a budget of at
    least one rollout, and one vehicle guided in speed mode."""
    if search_budget < 1:
        raise ValueError(f"search budget must be >= 1, got {search_budget}")
    mode = config.guidance.mode
    if mode != "speed":
        raise ValueError(
            f"the policy search emits target speeds; guidance mode {mode!r} is not supported"
        )
    if not config.n_guided:
        raise ValueError("the policy search needs a guided vehicle (n_guided = 1)")


def train_and_measure_many(
    config: RingConfig, deltas, search_budget: int, seed: int
) -> list[EvaluatorResult]:
    """Black-box policy search at each hold duration, all durations in lockstep.

    Per duration: a seeded uniform lattice over the three policy weights,
    then one refinement round per remaining unit of budget, each a Gaussian
    proposal around the incumbent. Every candidate is scored on the same
    seeded rollout (paired comparison); candidates that collide score -inf.
    Each batch holds the next rounds, at most 12, of every unfinished
    duration, so the first holds the lattice of every duration. Refinement is
    speculative: its rounds are all proposed around the current incumbent,
    and a duration keeps the rounds up to and including the first that beats
    the incumbent and discards the rest. Each duration draws its proposal steps
    from its own (seed, hold steps) generator and keeps its own incumbent, so
    its result is that of a one-round-at-a-time search at that duration
    alone. Returns the best achieved mean speed per duration; the first
    duration, in input order, whose candidates all collided raises
    TrainingError. The config and budget must pass check_search.
    """
    check_search(config, search_budget)
    deltas = list(deltas)
    generators = [
        np.random.default_rng(np.random.SeedSequence([seed, _hold_steps("delta", delta, config.dt)]))
        for delta in deltas
    ]

    def score(weights, holds) -> list[float]:
        policies = [LinearSpeedPolicy(w[0], w[1], w[2], config) for w in weights]
        return [r.mean_speed for r in simulate_many(config, [seed] * len(weights), policies, holds)]

    lattice = [np.array([w0, w1, w2]) for w0 in _LATTICE_W0 for (w1, w2) in _LATTICE_FEEDBACK]
    # Round i < len(lattice) scores lattice point i. Each later round scores a
    # Gaussian step around the incumbent, shrinking as the budget is spent;
    # the step does not depend on the incumbent, so each duration's steps are
    # drawn up front, in round order.
    noise = [[rng.normal(size=3) for _ in range(len(lattice), search_budget)] for rng in generators]
    candidates = [[] for _ in deltas]
    scores = [[] for _ in deltas]
    best = [0] * len(deltas)  # the first best candidate is the incumbent
    while True:
        # Each duration's next rounds, at most one lattice's worth, around its
        # current incumbent.
        batch = [
            (k, i, lattice[i] if i < len(lattice) else np.clip(
                c[best[k]] + noise[k][i - len(lattice)] * _REFINE_SCALE * 0.85 ** (i - len(lattice)),
                _PARAM_LO, _PARAM_HI,
            ))
            for k, c in enumerate(candidates)
            for i in range(len(c), min(len(c) + len(lattice), search_budget))
        ]
        if not batch:
            break
        values = score([proposal for _, _, proposal in batch], [deltas[k] for k, _, _ in batch])
        stale = [False] * len(deltas)
        for (k, i, proposal), value in zip(batch, values):
            # Refinement rounds after an improvement were proposed around a
            # stale incumbent: the next batch proposes them again.
            if stale[k]:
                continue
            candidates[k].append(proposal)
            scores[k].append(value)
            if value > scores[k][best[k]]:
                best[k] = i
                stale[k] = i >= len(lattice)
    results = []
    for delta, c, s, b in zip(deltas, candidates, scores, best):
        if not np.isfinite(s[b]):
            raise TrainingError(
                f"all {search_budget} candidate rollouts collided at delta={delta:.6g} "
                f"(seed={seed})"
            )
        w = c[b]
        results.append(EvaluatorResult(
            delta=delta,
            achieved=float(s[b]),
            policy_id=f"ring[w0={w[0]:.4g},w1={w[1]:.4g},w2={w[2]:.4g}]@{delta:.6g}s",
            cost=float(search_budget),
        ))
    return results


def train_and_measure(
    config: RingConfig, delta: float, search_budget: int, seed: int
) -> EvaluatorResult:
    """Black-box policy search at one hold duration (see train_and_measure_many)."""
    return train_and_measure_many(config, [delta], search_budget, seed)[0]


_CONFIG_KEYS = {
    "circumference": ("circumference", float),
    "total_number_of_vehicles": ("n_vehicles", int),
    "total_vehicles": ("n_vehicles", int),
    "n_vehicles": ("n_vehicles", int),
    "number_of_controlled_vehicles": ("n_guided", int),
    "controlled_vehicles": ("n_guided", int),
    "n_guided": ("n_guided", int),
    "vehicle_length": ("vehicle_length", float),
    "speed_limit": ("speed_limit", float),
    "simulation_step": ("dt", float),
    "dt": ("dt", float),
    "warmup": ("warmup", float),
    "horizon": ("horizon", float),
}
# Step counts, converted to seconds with the dt in force for the file.
_STEP_KEYS = {
    "warmup_steps": "warmup",
    "timestep_horizon": "horizon",
}
_IDM_KEYS = {
    "maximum_acceleration": ("a_max", float),
    "max_acceleration": ("a_max", float),
    "comfortable_deceleration": ("b_comfort", float),
    "desired_velocity": ("v_desired", float),
    "minimum_spacing": ("s0", float),
    "desired_time_headway": ("time_headway", float),
    "exponent": ("exponent", float),
}
_GUIDANCE_KEYS = {
    "guidance_mode": ("mode", str),
    "mode": ("mode", str),
    "hold": ("hold", float),
    "alpha": ("alpha", float),
    "beta": ("beta", float),
    "acceleration_capacity": ("accel_cap", float),
    "accel_cap": ("accel_cap", float),
    "number_of_discrete_action_space": ("n_speed_levels", int),
    "n_speed_levels": ("n_speed_levels", int),
}


def load_ring_config(path, base: RingConfig | None = None) -> RingConfig:
    """Plain key=value overrides (one per line, # comments) onto a base config.

    Durations are seconds, except the `*_steps`-style keys of _STEP_KEYS,
    which count simulation steps of the file's dt (or the base's). When a
    duration is set more than once, the last line wins.
    """
    base = base or RingConfig()
    cfg: dict = {}
    steps: dict = {}
    idm: dict = {}
    guidance: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            key = key.lower().replace(" ", "_")
            if key in _CONFIG_KEYS:
                name, cast = _CONFIG_KEYS[key]
                cfg[name] = cast(value)
                steps.pop(name, None)
            elif key in _STEP_KEYS:
                name = _STEP_KEYS[key]
                steps[name] = int(value)
                cfg.pop(name, None)
            elif key in _IDM_KEYS:
                name, cast = _IDM_KEYS[key]
                idm[name] = cast(value)
            elif key in _GUIDANCE_KEYS:
                name, cast = _GUIDANCE_KEYS[key]
                guidance[name] = cast(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
    dt = cfg.get("dt", base.dt)
    for name, count in steps.items():
        cfg[name] = count * dt
    return replace(
        base,
        idm=replace(base.idm, **idm),
        guidance=replace(base.guidance, **guidance),
        **cfg,
    )
