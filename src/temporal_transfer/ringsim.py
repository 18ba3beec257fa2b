"""Single-lane circular-road micro-simulation with one guided vehicle.

Default-driven vehicles follow the standard intelligent-driver car-following
law. The guided vehicle (index 0) applies a zero-order-hold command: a raw
acceleration, or a target speed tracked through a relaxation law. Rollouts
are deterministic per seed; the mean speed of all vehicles over the scored
horizon is the task performance. Every duration (the hold, the warmup and
the scored horizon) is a whole number of simulation steps: `_hold_steps` is
the one conversion from seconds, and it rejects any other duration.

One integrator advances a batch of rings held as (rows, n_vehicles) arrays.
Each row has its own seed, hold length and policy; a row that collides
leaves the batch while the others run on. `step`, `simulate` and
`rollout_measure` are one-row calls of it. The integrator is elementwise
apart from reductions along single rows, so a row's numbers do not depend on
the batch it ran in. At a hold boundary the due rows whose policy is a
LinearSpeedPolicy get their commands from one numpy expression,
`LinearSpeedPolicy.commands`, which its `__call__` also evaluates; any other
policy (a constant, a user callable, or a LinearSpeedPolicy subclass) is
called row by row and must return a finite command. The horizon's
across-vehicle mean and std are reduced a block of steps at a time and
summed in step order, so they are the numbers of a step-by-step loop.

The policy search advances all its hold durations in lockstep, and its
refinement is speculative: a proposal's random step does not depend on the
incumbent, so one batch scores the next rounds (at most 12) of every
duration around its current incumbent, and each duration keeps the rounds up
to its first improvement. That gives exactly the candidates and scores of
one round at a time. Every rollout of a search starts from its seed's ring,
so the search keeps one memo of the distinct rollouts it has run: the
unguided ring (the baseline that `sweep` reports), a candidate without
feedback by its speed level alone (it commands that level whatever its
hold), and any other candidate by its hold and weights. Each is simulated
once per search, and a batch simulates only the rollouts it does not know.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .landscape import check_bounds
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
        check_bounds(positive=vars(self))


# Most speed levels of a LinearSpeedPolicy: its snap rounds to a level index
# of at most levels - 1 in float64, which counts every integer up to 2**53.
MAX_SPEED_LEVELS = 2**53


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
        check_bounds(
            positive={"hold": self.hold, "accel_cap": self.accel_cap},
            nonnegative={"alpha": self.alpha, "beta": self.beta},
            counts={"n_speed_levels": (self.n_speed_levels, 2, MAX_SPEED_LEVELS)},
        )


# Most steps a rollout (warmup plus horizon) may take: far above the default
# 15,000, and under a minute for one ring at about 40 microseconds a step.
MAX_STEPS = 1_000_000
# Most rollouts of one policy search, durations times budget: one duration at
# the default config scores 12 a batch at about a second a batch.
MAX_ROLLOUTS = 720
# Most vehicles on the ring: `ring baseline` of its 10 default seeds over the
# default 15,000 steps takes under a minute at about 3 ms a step.
MAX_VEHICLES = 10_000
# Scored steps of a rollout whose across-vehicle mean and std are computed
# together: each step copies its speeds into the block, and a full block is
# reduced in a few numpy calls. A longer block reads a higher peak memory.
_SCORE_BLOCK = 16


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
        check_bounds(
            positive={name: getattr(self, name) for name in (
                "circumference", "n_vehicles", "vehicle_length", "speed_limit", "dt", "horizon"
            )},
            nonnegative={"warmup": self.warmup},
            counts={"n_guided": (self.n_guided, 0, 1)},  # the simulator guides vehicle 0 only
        )
        if self.circumference / self.vehicle_length <= self.n_vehicles:  # an int of any size compares
            raise ValueError("vehicles do not fit on the ring")
        warmup = _hold_steps("warmup", self.warmup, self.dt, least=0)
        steps = warmup + _hold_steps("horizon", self.horizon, self.dt)
        check_bounds(counts={"n_vehicles": (self.n_vehicles, 1, MAX_VEHICLES),
                             "warmup + horizon steps": (steps, 1, MAX_STEPS)})
        _hold_steps("hold", self.guidance.hold, self.dt)


def _hold_steps(name: str, seconds: float, dt: float, least: int = 1) -> int:
    """Whole simulation steps in `seconds`, which must be a multiple of dt of
    at least `least` steps: the one conversion of a duration to steps."""
    steps = seconds / dt
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < least:
        raise ValueError(f"{name} {seconds} is not a {'positive' if least else 'whole'} multiple of dt {dt}")
    return round(steps)


@dataclass
class RingState:
    """Unwrapped positions (monotone per vehicle) and speeds at time t."""

    positions: np.ndarray
    speeds: np.ndarray
    t: float = 0.0


@functools.cache
def _leaders(n_vehicles: int) -> np.ndarray:
    """The index of each vehicle's leader: i+1, and 0 for the last vehicle."""
    leaders = np.roll(np.arange(n_vehicles), -1)
    leaders.flags.writeable = False
    return leaders


def ring_gaps(positions: np.ndarray, config: RingConfig) -> np.ndarray:
    """Bumper-to-bumper gap to each vehicle's leader (index i+1, wrapping),
    along the last axis: one ring, or a (rows, n_vehicles) batch of them."""
    leaders = positions.take(_leaders(positions.shape[-1]), axis=-1)
    leaders[..., -1] += config.circumference
    return leaders - positions - config.vehicle_length


def equilibrium_speed(config: RingConfig) -> float:
    """Uniform-flow speed: zero net acceleration at even spacing.

    Solved by bisection; the independent anchor for baseline expectations.
    """
    p = config.idm
    s_gap = config.circumference / config.n_vehicles - config.vehicle_length
    if s_gap <= p.s0:
        raise ValueError("ring too dense: equilibrium gap below minimum spacing")
    ratio = (p.s0 + p.v_desired * p.time_headway) / s_gap  # the residual's largest headway term
    if ratio * ratio == math.inf:  # its square is not a float: the bisection would overflow
        raise ValueError(f"desired gap s0 + v_desired * time_headway = {ratio * s_gap:g} m overflows")

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


def _speed_caps(config: RingConfig, guided: np.ndarray) -> np.ndarray:
    """The speed cap of each vehicle of a batch whose rows `guided` masks:
    v_desired, and speed_limit for the guided vehicle of a guided row."""
    caps = np.full((len(guided), config.n_vehicles), config.idm.v_desired)
    caps[guided, 0] = config.speed_limit
    return caps


def _advance(
    positions: np.ndarray,
    speeds: np.ndarray,
    gaps: np.ndarray,
    config: RingConfig,
    caps: np.ndarray,
    commands: np.ndarray | None = None,
    guided: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integrator: one dt for every row of a (rows, n_vehicles) batch.

    `gaps` are the rows' current ring gaps and `caps` their speed caps
    (_speed_caps). `commands` holds each row's held command for its guided
    vehicle (None: no row is guided); `guided` masks the rows it applies to
    (None: all of them). Semi-implicit: speeds update first, then positions,
    and speeds clamp to [0, cap]. Returns the new positions, speeds and
    gaps; a row with a non-positive gap has collided.
    """
    lead_speeds = speeds.take(_leaders(speeds.shape[1]), axis=1)
    accel = idm_acceleration(speeds, gaps, lead_speeds, config.idm)
    if commands is not None:
        g = config.guidance
        if g.mode == "acceleration":
            raw = commands
        else:
            v0 = speeds[:, 0]
            raw = g.alpha * (commands - v0) + g.beta * (lead_speeds[:, 0] - v0)
        raw = np.minimum(np.maximum(raw, -g.accel_cap), g.accel_cap)
        accel[:, 0] = raw if guided is None else np.where(guided, raw, accel[:, 0])
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
        _speed_caps(config, np.array([guided])),
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
    The rows due at a boundary whose policy is a LinearSpeedPolicy are
    evaluated together, in one LinearSpeedPolicy.commands call; every other
    policy, including a LinearSpeedPolicy subclass, is called row by row,
    and a command from it that is not finite raises ValueError. With
    record=True, commands_log is the record of what a row commanded.

    A row that collides stops there and the others run on. Its result has
    mean_speed -inf, speed_std nan, NaN logs from the colliding step on,
    and the CollisionError that `simulate` raises for it.
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
    n_warm = _hold_steps("warmup", config.warmup, config.dt, least=0)
    n_score = _hold_steps("horizon", config.horizon, config.dt)
    total = n_warm + n_score
    n = config.n_vehicles
    guided = np.array([p is not None and config.n_guided >= 1 for p in policies])
    linear = [bool(g) and type(p) is LinearSpeedPolicy for p, g in zip(policies, guided)]
    # The lines of the arrays hold the linear rows first, by hold, then the
    # others: each hold's linear rows are one slice of lines, and a collided
    # row leaves without reordering the rest.
    live = np.array(sorted(range(n_rows), key=lambda row: (0, hold_steps[row]) if linear[row] else (1, 0)))
    starts = {seed: initial_state(config, seed) for seed in dict.fromkeys(seeds)}
    positions = np.array([starts[seeds[row]].positions for row in live])
    speeds = np.array([starts[seeds[row]].speeds for row in live])
    gaps = ring_gaps(positions, config)
    lead = _leaders(n)[0]  # the guided vehicle's leader
    params = np.zeros((n_rows, 7))      # LinearSpeedPolicy.params() of each linear row
    for row in np.flatnonzero(linear):
        params[row] = policies[row].params()
    line_hold = np.array([hold_steps[row] if linear[row] else 0 for row in live])  # 0: not linear
    commands = np.zeros(n_rows)         # held command of each live line
    collisions: list[CollisionError | None] = [None] * n_rows
    speed_sum = np.zeros(n_rows)
    std_sum = np.zeros(n_rows)
    block = np.empty((n_rows, _SCORE_BLOCK, n))  # the scored speeds of the current block
    if record:
        speeds_log = np.full((n_rows, total, n), np.nan)
        positions_log = np.full((n_rows, total, n), np.nan)
        commands_log = np.full((n_rows, total), np.nan)
    dropped = True                      # live changed: rebuild the policy schedule
    t = 0.0
    for i in range(total):
        if dropped:
            steer = guided[live]
            steered = steer.any()
            mask = None if steer.all() else steer
            caps = _speed_caps(config, steer)
            n_linear = np.count_nonzero(line_hold)
            groups = []                 # (hold steps, first line, end line, parameter columns)
            for every in dict.fromkeys(line_hold[:n_linear].tolist()):
                a, b = np.searchsorted(line_hold[:n_linear], [every, every + 1]).tolist()
                groups.append((every, a, b, params[live[a:b]].T))
            callers = [(line, live[line], hold_steps[live[line]])
                       for line in range(n_linear, len(live)) if steer[line]]
            dropped = False
        for every, a, b, columns in groups:
            if i % every == 0:
                commands[a:b] = LinearSpeedPolicy.commands(columns, speeds[a:b, 0], speeds[a:b, lead], gaps[a:b, 0])
        for line, row, every in callers:
            if i % every == 0:
                command = float(policies[row]((speeds[line, 0], speeds[line, lead], gaps[line, 0])))
                if not math.isfinite(command):
                    raise ValueError(f"the policy of row {row} commanded {command} at t={t:.6g}s")
                commands[line] = command
        positions, speeds, gaps = _advance(
            positions, speeds, gaps, config, caps, commands if steered else None, mask
        )
        t += config.dt
        if not gaps.min() > 0:  # a row overlapped (or a gap is NaN: look row by row)
            hit = (gaps <= 0).any(axis=1)
            for line in np.flatnonzero(hit):
                collisions[live[line]] = _collision(gaps[line], t)
            keep = ~hit
            live, positions, speeds, gaps = live[keep], positions[keep], speeds[keep], gaps[keep]
            commands, speed_sum, std_sum = commands[keep], speed_sum[keep], std_sum[keep]
            line_hold, block = line_hold[keep], block[keep]
            dropped = True
            if not len(live):
                break
        if record:
            speeds_log[live, i] = speeds
            positions_log[live, i] = positions % config.circumference
            commands_log[live, i] = np.where(guided[live], commands, np.nan)
        if i >= n_warm:
            slot = (i - n_warm) % _SCORE_BLOCK
            block[:, slot] = speeds
            if slot == _SCORE_BLOCK - 1 or i == total - 1:
                speed_sum, std_sum = _score_block(block[:, : slot + 1], speed_sum, std_sum)
    mean_speed = np.full(n_rows, -np.inf)
    speed_std = np.full(n_rows, np.nan)
    mean_speed[live] = speed_sum / n_score
    speed_std[live] = std_sum / n_score
    return [
        RolloutResult(
            mean_speed=float(mean_speed[row]),
            speed_std=float(speed_std[row]),
            speeds_log=speeds_log[row] if record else None,
            positions_log=positions_log[row] if record else None,
            commands_log=commands_log[row] if record else None,
            collision=collisions[row],
        )
        for row in range(n_rows)
    ]


def _score_block(speeds: np.ndarray, speed_sum: np.ndarray, std_sum: np.ndarray):
    """Add the across-vehicle mean and std of each step of a (rows, steps,
    n_vehicles) block to each row's running sums, one step after another: the
    numbers of speeds.mean(axis=1) and speeds.std(axis=1) per step, and of
    adding them to the sums step by step. Overwrites the block."""
    n = speeds.shape[2]
    mean = speeds.sum(axis=2, keepdims=True) / n
    deviation = np.subtract(speeds, mean, out=speeds)
    std = np.sqrt(np.multiply(deviation, deviation, out=deviation).sum(axis=2) / n)
    return (np.cumsum(np.column_stack([speed_sum, mean[:, :, 0]]), axis=1)[:, -1],
            np.cumsum(np.column_stack([std_sum, std]), axis=1)[:, -1])


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


class LinearSpeedPolicy:
    """Three-parameter commanded-speed family, discretized to the action set.

    command = clamp(w0 + w1*(leader speed - ego speed)
                       + w2*(headway - s0 - T*ego speed), 0, speed_limit)
    snapped to n_speed_levels evenly spaced levels. At uniform equilibrium
    flow both feedback terms vanish, so w0 is the cruise target.
    """

    def __init__(self, w0: float, w1: float, w2: float, config: RingConfig):
        if not all(math.isfinite(w) for w in (w0, w1, w2)):
            raise ValueError(f"policy weights must be finite, got {(w0, w1, w2)}")
        self.w = (w0, w1, w2)
        self.limit = config.speed_limit
        self.levels = config.guidance.n_speed_levels
        self.s0 = config.idm.s0
        self.headway_time = config.idm.time_headway

    def __call__(self, obs) -> float:
        return float(self.commands(self.params(), *obs))

    def params(self) -> tuple[float, ...]:
        """The policy as one row of `commands`' parameter table."""
        return (*self.w, self.s0, self.headway_time, self.limit, self.levels - 1)

    @staticmethod
    def commands(columns, ego, lead, headway) -> np.ndarray:
        """The commands of many policies at once: `columns` are the columns
        of their params() rows, the observations arrays (or one policy's
        params() and one observation)."""
        w0, w1, w2, s0, headway_time, limit, top = columns
        raw = w0 + w1 * (lead - ego) + w2 * (headway - s0 - headway_time * ego)
        raw = np.minimum(np.maximum(raw, 0.0), limit)
        # np.rint rounds half to even, and + 0.0 turns a -0.0 level into 0.0.
        return (np.rint(raw / limit * top) + 0.0) / top * limit


# Deterministic first-phase lattice for the policy search: cruise targets
# crossed with none/mild/strong feedback gains.
_LATTICE_W0 = (2.0, 4.0, 6.0, 8.0)
_LATTICE_FEEDBACK = ((0.0, 0.0), (0.6, 0.1), (1.2, 0.2))
_PARAM_LO = np.array([0.0, 0.0, 0.0])
_PARAM_HI = np.array([10.0, 2.0, 1.0])
_REFINE_SCALE = np.array([1.2, 0.4, 0.15])


def check_search(config: RingConfig, search_budget: int, durations: int = 1) -> None:
    """Raise ValueError unless the policy search can run: a budget of at
    least one rollout, at most MAX_ROLLOUTS rollouts over its `durations`,
    and one vehicle guided in speed mode."""
    check_bounds(counts={"search budget": (search_budget, 1, math.inf),
                         "durations * search budget": (durations * search_budget, 0, MAX_ROLLOUTS)})
    mode = config.guidance.mode
    if mode != "speed":
        raise ValueError(
            f"the policy search emits target speeds; guidance mode {mode!r} is not supported"
        )
    if not config.n_guided:
        raise ValueError("the policy search needs a guided vehicle (n_guided = 1)")


def _search(
    config: RingConfig, deltas, search_budget: int, seed: int, with_baseline: bool = False
) -> tuple[float | None, list[EvaluatorResult]]:
    """The lockstep policy search of train_and_measure_many and sweep. Returns
    the mean speed of the seed's unguided ring when `with_baseline` asks for
    it (None otherwise), and the result of each duration. The errors come in
    the order that sweep documents. The memo of rollouts is keyed None for
    the unguided ring, by the speed level (a float) of a candidate with
    w1 = w2 = 0, and by (hold steps, w0, w1, w2) for any other candidate:
    never by a row index, as 0.0 == 0. Each batch simulates the keys it does
    not know in one simulate_many call, and none when it knows them all."""
    deltas = list(deltas)
    check_search(config, search_budget, len(deltas))
    check_bounds(counts={"seed": (seed, 0, math.inf)})
    steps = [_hold_steps("delta", delta, config.dt) for delta in deltas]
    generators = [np.random.default_rng(np.random.SeedSequence([seed, every])) for every in steps]
    lattice = [np.array([w0, w1, w2]) for w0 in _LATTICE_W0 for (w1, w2) in _LATTICE_FEEDBACK]
    # Round i < len(lattice) scores lattice point i. Each later round scores a
    # Gaussian step around the incumbent, shrinking as the budget is spent;
    # the step does not depend on the incumbent, so each duration's steps are
    # drawn up front, in round order.
    noise = [[rng.normal(size=3) for _ in range(len(lattice), search_budget)] for rng in generators]
    done = [0] * len(deltas)            # the rounds each duration has scored
    incumbent = [None] * len(deltas)    # each duration's first best (weights, score)
    rollouts = {}                       # the memo: rollout key -> RolloutResult
    unknown = {None: (None, config.guidance.hold)} if with_baseline else {}  # key -> (policy, hold)
    while True:
        # Each duration's next rounds, at most one lattice's worth, around its
        # current incumbent.
        batch = []
        for k, (delta, every) in enumerate(zip(deltas, steps)):
            for i in range(done[k], min(done[k] + len(lattice), search_budget)):
                w = lattice[i] if i < len(lattice) else np.clip(
                    incumbent[k][0] + noise[k][i - len(lattice)] * _REFINE_SCALE * 0.85 ** (i - len(lattice)),
                    _PARAM_LO, _PARAM_HI,
                )
                policy = LinearSpeedPolicy(w[0], w[1], w[2], config)
                key = (float(policy.commands(policy.params(), 0.0, 0.0, 0.0)) if w[1] == w[2] == 0
                       else (every, *w.tolist()))
                batch.append((k, i, w, key))
                if key not in rollouts:
                    unknown.setdefault(key, (policy, delta))
        if unknown:
            policies, holds = zip(*unknown.values())
            rollouts.update(zip(unknown, simulate_many(config, [seed] * len(unknown), policies, holds)))
            if None in unknown and rollouts[None].collision is not None:
                raise rollouts[None].collision
            unknown = {}
        if not batch:
            break
        stale = [False] * len(deltas)
        for k, i, w, key in batch:
            # Refinement rounds after an improvement were proposed around a
            # stale incumbent: the next batch proposes them again.
            if stale[k]:
                continue
            score = rollouts[key].mean_speed
            done[k] += 1
            if i == 0 or score > incumbent[k][1]:
                incumbent[k] = (w, score)
                stale[k] = i >= len(lattice)
    results = []
    for delta, (w, score) in zip(deltas, incumbent):
        if not np.isfinite(score):
            raise TrainingError(
                f"all {search_budget} candidate rollouts collided at delta={delta:.6g} (seed={seed})"
            )
        results.append(EvaluatorResult(
            delta=delta,
            achieved=float(score),
            policy_id=f"ring[w0={w[0]:.4g},w1={w[1]:.4g},w2={w[2]:.4g}]@{delta:.6g}s",
            cost=float(search_budget),
        ))
    return rollouts[None].mean_speed if with_baseline else None, results


def train_and_measure_many(
    config: RingConfig, deltas, search_budget: int, seed: int
) -> list[EvaluatorResult]:
    """Black-box policy search at each hold duration, all durations in lockstep.

    Per duration: a seeded uniform lattice over the three policy weights,
    then one refinement round per remaining unit of budget, each a Gaussian
    proposal around the incumbent. Every candidate is scored on the same
    seeded rollout (paired comparison); candidates that collide score -inf.
    Each batch holds the next rounds, at most 12, of every unfinished
    duration, so the first holds the lattice of every duration. Refinement
    is speculative: its rounds are all proposed around the current
    incumbent, and a duration keeps the rounds up to and including the
    first that beats the incumbent and discards the rest. Each duration
    draws its proposal steps from its own (seed, hold steps) generator and
    keeps its own incumbent, so its result is that of a one-round-at-a-time
    search at that duration alone. A rollout that two candidates share, a
    constant command at any holds or a repeated duration's candidate, is
    simulated once and scores both. Returns the best achieved mean speed per
    duration; the first duration, in input order, whose candidates all
    collided raises TrainingError. The config, the budget and the number of
    durations must pass check_search, the seed must be >= 0, and every
    duration must be a positive multiple of dt; all are checked before any
    rollout.
    """
    return _search(config, deltas, search_budget, seed)[1]


def sweep(
    config: RingConfig, deltas, search_budget: int, seed: int
) -> tuple[float, list[EvaluatorResult]]:
    """train_and_measure_many, with the mean speed of the unguided ring of
    the same seed: the baseline the durations' results are compared with.
    It is one more rollout of the search's memo, simulated in the first
    batch, and it is the rollout that
    `rollout_measure(replace(config, n_guided=0), None, seed)` runs. An
    unguided ring that collides raises its CollisionError, before any
    TrainingError.
    """
    return _search(config, deltas, search_budget, seed, with_baseline=True)


def train_and_measure(
    config: RingConfig, delta: float, search_budget: int, seed: int
) -> EvaluatorResult:
    """Black-box policy search at one hold duration (see train_and_measure_many)."""
    return train_and_measure_many(config, [delta], search_budget, seed)[0]


# Each config-file key: (group, field, type). The group is "ring" for a
# RingConfig field, "idm" or "guidance" for one of theirs, and "steps" for a
# RingConfig duration counted in simulation steps of the file's dt.
_KEYS = {
    "circumference": ("ring", "circumference", float),
    "total_number_of_vehicles": ("ring", "n_vehicles", int),
    "total_vehicles": ("ring", "n_vehicles", int),
    "n_vehicles": ("ring", "n_vehicles", int),
    "number_of_controlled_vehicles": ("ring", "n_guided", int),
    "controlled_vehicles": ("ring", "n_guided", int),
    "n_guided": ("ring", "n_guided", int),
    "vehicle_length": ("ring", "vehicle_length", float),
    "speed_limit": ("ring", "speed_limit", float),
    "simulation_step": ("ring", "dt", float),
    "dt": ("ring", "dt", float),
    "warmup": ("ring", "warmup", float),
    "horizon": ("ring", "horizon", float),
    "warmup_steps": ("steps", "warmup", int),
    "timestep_horizon": ("steps", "horizon", int),
    "maximum_acceleration": ("idm", "a_max", float),
    "max_acceleration": ("idm", "a_max", float),
    "comfortable_deceleration": ("idm", "b_comfort", float),
    "desired_velocity": ("idm", "v_desired", float),
    "minimum_spacing": ("idm", "s0", float),
    "desired_time_headway": ("idm", "time_headway", float),
    "exponent": ("idm", "exponent", float),
    "guidance_mode": ("guidance", "mode", str),
    "mode": ("guidance", "mode", str),
    "alpha": ("guidance", "alpha", float),
    "beta": ("guidance", "beta", float),
    "acceleration_capacity": ("guidance", "accel_cap", float),
    "accel_cap": ("guidance", "accel_cap", float),
    "number_of_discrete_action_space": ("guidance", "n_speed_levels", int),
    "n_speed_levels": ("guidance", "n_speed_levels", int),
}


def load_ring_config(path) -> RingConfig:
    """Plain key=value overrides (one per line, # comments) of the default config.

    Durations are seconds, except under the "steps" keys of _KEYS, which
    count simulation steps of the file's dt (or the default's). When a
    duration is set more than once, the last line wins.
    """
    fields = {"ring": {}, "steps": {}, "idm": {}, "guidance": {}}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            key = key.lower().replace(" ", "_")
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
            group, name, cast = _KEYS[key]
            # A duration's last line wins, in seconds or in steps. No idm or
            # guidance field shares a RingConfig name, so for them this pops nothing.
            fields["steps" if group == "ring" else "ring"].pop(name, None)
            fields[group][name] = cast(value)
    ring = fields["ring"]
    dt = ring.get("dt", RingConfig.dt)
    ring.update({name: count * dt for name, count in fields["steps"].items()})
    return RingConfig(
        idm=IdmParams(**fields["idm"]), guidance=GuidanceParams(**fields["guidance"]), **ring
    )
