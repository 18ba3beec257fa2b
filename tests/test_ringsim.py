"""Ring micro-simulation: dynamics, guidance, determinism, search."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temporal_transfer import ringsim
from temporal_transfer.cli import main
from temporal_transfer.ringsim import (
    MAX_STEPS,
    CollisionError,
    GuidanceParams,
    IdmParams,
    LinearSpeedPolicy,
    RingConfig,
    RingState,
    equilibrium_speed,
    idm_acceleration,
    initial_state,
    load_ring_config,
    ring_gaps,
    rollout_measure,
    simulate,
    simulate_many,
    step,
    train_and_measure,
    train_and_measure_many,
)
from temporal_transfer.trainers import RingTrainer, TrainingError

# Short runs for unit tests; the acceptance suite exercises full scale.
FAST = RingConfig(warmup=20.0, horizon=40.0)
FAST_UNGUIDED = replace(FAST, n_guided=0)


def uniform_state(config, speed=None):
    n = config.n_vehicles
    spacing = config.circumference / n
    v = equilibrium_speed(config) if speed is None else speed
    return RingState(positions=spacing * np.arange(n), speeds=np.full(n, v))


class TestDynamics:
    def test_equilibrium_is_fixed_point(self):
        config = FAST_UNGUIDED
        state = uniform_state(config)
        gaps = ring_gaps(state.positions, config)
        accel = idm_acceleration(state.speeds, gaps, np.roll(state.speeds, -1), config.idm)
        assert np.max(np.abs(accel)) < 1e-9

    def test_free_road_acceleration_near_max(self):
        p = IdmParams()
        accel = idm_acceleration(
            np.array([0.0]), np.array([1e6]), np.array([0.0]), p
        )
        assert accel[0] == pytest.approx(p.a_max, abs=1e-6)

    def test_speed_command_zero_brakes_moving_vehicle(self):
        state = uniform_state(FAST)
        after = step(state, FAST, command=0.0)
        assert after.speeds[0] < state.speeds[0]

    def test_speed_command_fixed_point(self):
        # command equal to current speed with zero closing rate: no response
        state = uniform_state(FAST)
        g = FAST.guidance
        accel = g.alpha * (state.speeds[0] - state.speeds[0]) + g.beta * 0.0
        assert accel == 0.0
        after = step(state, FAST, command=float(state.speeds[0]))
        assert after.speeds[0] == pytest.approx(state.speeds[0], abs=1e-12)

    def test_acceleration_mode_clamps_command(self):
        config = replace(FAST, guidance=replace(FAST.guidance, mode="acceleration"))
        state = uniform_state(config)
        after = step(state, config, command=99.0)
        cap = config.guidance.accel_cap
        assert after.speeds[0] == pytest.approx(
            min(state.speeds[0] + cap * config.dt, config.speed_limit)
        )

    def test_collision_raises_with_pair(self):
        config = replace(FAST, guidance=replace(FAST.guidance, mode="acceleration"))
        state = uniform_state(config, speed=0.0)
        # leader stopped, guided vehicle floored into it
        with pytest.raises(CollisionError) as err:
            for _ in range(200):
                state = step(state, config, command=config.guidance.accel_cap)
        assert err.value.pair[0] == 0

    def test_ordering_conserved(self):
        config = FAST_UNGUIDED
        state = initial_state(config, seed=1)
        for _ in range(600):
            state = step(state, config)
        # single lane: same vehicle count, no reversing, no overtaking
        assert len(state.positions) == config.n_vehicles
        assert np.all(np.diff(state.positions) > config.vehicle_length)
        assert np.all(state.speeds >= 0.0)
        gaps = ring_gaps(state.positions, config)
        assert np.all(gaps > 0.0)

    def test_speed_caps(self):
        config = replace(FAST, guidance=replace(FAST.guidance, mode="acceleration"))
        state = uniform_state(config, speed=9.9)
        for _ in range(50):
            state = step(state, config, command=config.guidance.accel_cap)
            if state.speeds[0] == config.speed_limit:
                break
        assert state.speeds[0] <= config.speed_limit


class TestRollouts:
    def test_deterministic_per_seed(self):
        a = simulate(FAST_UNGUIDED, None, seed=3, record=True)
        b = simulate(FAST_UNGUIDED, None, seed=3, record=True)
        assert a.mean_speed == b.mean_speed
        np.testing.assert_array_equal(a.speeds_log, b.speeds_log)

    def test_different_seed_differs(self):
        a = simulate(FAST_UNGUIDED, None, seed=3, record=True)
        b = simulate(FAST_UNGUIDED, None, seed=4, record=True)
        assert not np.array_equal(a.speeds_log, b.speeds_log)

    def test_zero_order_hold_from_command_log(self):
        config = replace(FAST, guidance=replace(FAST.guidance, hold=2.0))
        result = simulate(config, lambda obs: 4.0, seed=0, record=True)
        hold_steps = round(config.guidance.hold / config.dt)
        commands = result.commands_log
        # constant within every window by construction of the log
        for start in range(0, len(commands), hold_steps):
            window = commands[start : start + hold_steps]
            assert np.all(window == window[0])

    def test_jam_policy_drains_speed(self):
        config = replace(FAST, warmup=50.0, horizon=150.0)
        mean = rollout_measure(config, lambda obs: 0.0, seed=0)
        assert mean < 1.0
        longer = rollout_measure(replace(config, horizon=300.0), lambda obs: 0.0, seed=0)
        assert longer <= mean + 1e-9

    def test_equilibrium_command_beats_baseline_paired(self, ring_baselines):
        # full scale, paired seeds: steady guidance absorbs the waves
        config = replace(RingConfig(), guidance=replace(RingConfig().guidance, hold=0.5))
        v_e = equilibrium_speed(config)
        seeds = range(len(ring_baselines))
        guided = simulate_many(config, seeds, [lambda obs: v_e] * len(seeds))
        for run, base in zip(guided, ring_baselines):
            assert run.mean_speed >= base.mean_speed

    def test_hold_refinement_replay_bit_exact(self):
        coarse_cfg = replace(FAST, guidance=replace(FAST.guidance, hold=2.0))
        fine_cfg = replace(FAST, guidance=replace(FAST.guidance, hold=1.0))
        policy = LinearSpeedPolicy(4.0, 0.6, 0.1, coarse_cfg)
        coarse = simulate(coarse_cfg, policy, seed=5, record=True)
        replay = iter(coarse.commands_log[::10].tolist())  # the command at each 1 s boundary
        fine = simulate(fine_cfg, lambda obs: next(replay), seed=5, record=True)
        np.testing.assert_array_equal(coarse.speeds_log, fine.speeds_log)
        np.testing.assert_array_equal(coarse.positions_log, fine.positions_log)


class TestTrainAndMeasure:
    def test_budget_one_returns_first_candidate(self):
        config = replace(FAST, warmup=50.0, horizon=100.0)
        result = train_and_measure(config, 1.0, search_budget=1, seed=0)
        assert result.achieved >= 0.0
        assert result.cost == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            train_and_measure(FAST, 1.0, search_budget=0, seed=0)
        with pytest.raises(ValueError):
            train_and_measure(FAST, 0.25, search_budget=2, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            simulate(replace(FAST, horizon=0.0), None, seed=0)

    def test_acceleration_mode_rejected(self):
        # LinearSpeedPolicy emits target speeds, not accelerations.
        config = replace(FAST, guidance=replace(FAST.guidance, mode="acceleration"))
        with pytest.raises(ValueError, match="'acceleration'"):
            train_and_measure(config, 1.0, search_budget=1, seed=0)

    def test_unguided_config_rejected(self):
        with pytest.raises(ValueError, match="needs a guided vehicle"):
            train_and_measure_many(FAST_UNGUIDED, [1.0], search_budget=1, seed=0)

    def test_deterministic(self):
        config = replace(FAST, warmup=50.0, horizon=100.0)
        a = train_and_measure(config, 2.0, search_budget=4, seed=1)
        b = train_and_measure(config, 2.0, search_budget=4, seed=1)
        assert a == b


class TestPolicies:
    def test_linear_policy_discretizes_to_levels(self):
        policy = LinearSpeedPolicy(4.0, 0.0, 0.0, FAST)
        command = policy((4.0, 4.0, 6.4))
        levels = FAST.guidance.n_speed_levels
        assert command == pytest.approx(round(4.0 / 10 * (levels - 1)) / (levels - 1) * 10)

    def test_linear_policy_feedback_terms(self):
        policy = LinearSpeedPolicy(4.0, 1.0, 0.0, FAST)
        slower = policy((5.0, 3.0, 6.4))
        faster = policy((3.0, 5.0, 6.4))
        assert slower < faster

    @pytest.mark.parametrize("weights", [(math.nan, 0.0, 0.0), (4.0, math.inf, 0.0), (4.0, 0.0, -math.inf)])
    def test_linear_policy_weights_must_be_finite(self, weights):
        with pytest.raises(ValueError, match="policy weights must be finite"):
            LinearSpeedPolicy(*weights, FAST)


# Every config-file key, the field it sets, a line's value and the field's
# value after it: aliases set the same field, step counts are steps of 0.1 s.
CONFIG_KEYS = [
    ("circumference", "circumference", "300", 300.0),
    *[(key, "n_vehicles", "20", 20) for key in ("total_number_of_vehicles", "total_vehicles", "n_vehicles")],
    *[(key, "n_guided", "0", 0) for key in ("number_of_controlled_vehicles", "controlled_vehicles", "n_guided")],
    ("vehicle_length", "vehicle_length", "4", 4.0),
    ("speed_limit", "speed_limit", "8", 8.0),
    *[(key, "dt", "0.2", 0.2) for key in ("simulation_step", "dt")],
    ("warmup", "warmup", "30", 30.0),
    ("horizon", "horizon", "60", 60.0),
    ("warmup_steps", "warmup", "30", 30 * 0.1),
    ("timestep_horizon", "horizon", "200", 200 * 0.1),
    *[(key, "idm.a_max", "1.2", 1.2) for key in ("maximum_acceleration", "max_acceleration")],
    ("comfortable_deceleration", "idm.b_comfort", "2", 2.0),
    ("desired_velocity", "idm.v_desired", "25", 25.0),
    ("minimum_spacing", "idm.s0", "1.5", 1.5),
    ("desired_time_headway", "idm.time_headway", "1.4", 1.4),
    ("exponent", "idm.exponent", "3", 3.0),
    *[(key, "guidance.mode", "acceleration", "acceleration") for key in ("guidance_mode", "mode")],
    ("alpha", "guidance.alpha", "0.5", 0.5),
    ("beta", "guidance.beta", "0.1", 0.1),
    *[(key, "guidance.accel_cap", "3", 3.0) for key in ("acceleration_capacity", "accel_cap")],
    *[(key, "guidance.n_speed_levels", "5", 5) for key in ("number_of_discrete_action_space", "n_speed_levels")],
]


class TestConfig:
    def test_hold_must_be_multiple_of_dt(self):
        with pytest.raises(ValueError):
            RingConfig(guidance=GuidanceParams(hold=0.25))

    def test_too_dense_ring_rejected(self):
        with pytest.raises(ValueError):
            RingConfig(circumference=100.0, n_vehicles=22)
        with pytest.raises(ValueError, match="vehicles do not fit on the ring"):
            RingConfig(n_vehicles=10**400)

    def test_step_limit(self):
        # warmup + horizon at most MAX_STEPS steps; the config is only built
        assert RingConfig(warmup=0.0, horizon=MAX_STEPS * 0.1).horizon == 100000.0
        assert RingConfig(warmup=50000.0, horizon=50000.0).warmup == 50000.0
        for warmup, horizon, dt in ((0.0, 100000.1, 0.1), (50000.0, 50000.1, 0.1), (500.0, 1000.0, 1e-300)):
            with pytest.raises(ValueError, match=f"warmup \\+ horizon steps = .* is above the limit of {MAX_STEPS:,}"):
                RingConfig(warmup=warmup, horizon=horizon, dt=dt)

    @pytest.mark.parametrize("n_guided", [-1, 2, 3])
    def test_guided_count_other_than_zero_or_one_rejected(self, n_guided):
        # Only vehicle 0 is ever guided.
        if n_guided < 0:
            message = f"n_guided must be >= 0, got {n_guided}"
        else:
            message = f"n_guided = {n_guided} is above the limit of 1"
        with pytest.raises(ValueError, match=message):
            RingConfig(n_guided=n_guided)

    def test_load_ring_config(self, tmp_path):
        path = tmp_path / "ring.cfg"
        path.write_text(
            "# overrides\n"
            "circumference = 300\n"
            "total_number_of_vehicles = 20\n"
            "warmup_steps = 100\n"
            "desired_time_headway = 1.4\n"
            "alpha = 0.5\n"
        )
        config = load_ring_config(path)
        assert config.circumference == 300.0
        assert config.n_vehicles == 20
        assert config.warmup == 10.0  # 100 steps of the default 0.1 s
        assert config.idm.time_headway == 1.4
        assert config.guidance.alpha == 0.5

    def test_step_keys_use_the_files_dt(self, tmp_path):
        path = tmp_path / "ring.cfg"
        path.write_text(
            "timestep_horizon = 50\n"
            "warmup_steps = 30\n"
            "warmup = 7\n"          # the last setting of a duration wins
            "simulation_step = 0.2\n"
        )
        config = load_ring_config(path)
        assert config.dt == 0.2
        assert config.horizon == 10.0
        assert config.warmup == 7.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wheelbase = 3\n")
        with pytest.raises(ValueError, match="wheelbase"):
            load_ring_config(path)

    @pytest.mark.parametrize("key, field, text, want", CONFIG_KEYS)
    def test_every_key_sets_its_field(self, key, field, text, want, tmp_path):
        path = tmp_path / "ring.cfg"
        path.write_text(f"{key} = {text}\n")
        got = load_ring_config(path)
        for name in field.split("."):
            got = getattr(got, name)
        assert (got, type(got)) == (want, type(want))

    def test_key_cases_cover_the_key_table(self):
        assert sorted(key for key, *_ in CONFIG_KEYS) == sorted(ringsim._KEYS)


class TestRingTrainer:
    def test_snap_delta(self):
        trainer = RingTrainer(FAST)
        assert trainer.snap_delta(33.33) == pytest.approx(33.0)
        assert trainer.snap_delta(0.4) == pytest.approx(FAST.dt)
        assert trainer.snap_delta(0.6) == pytest.approx(1.0)
        assert trainer.snap_delta(0.1) == pytest.approx(FAST.dt)

    def test_defaults(self):
        trainer = RingTrainer(FAST)
        assert (trainer.search_budget, trainer.seed) == (24, 0)

    @pytest.mark.parametrize(
        "config, budget, message",
        [
            (FAST_UNGUIDED, 2, "needs a guided vehicle"),
            (replace(FAST, guidance=replace(FAST.guidance, mode="acceleration")), 2, "'acceleration'"),
            (FAST, 0, "search budget must be >= 1, got 0"),
        ],
    )
    def test_unusable_search_rejected_before_training(self, config, budget, message):
        with pytest.raises(ValueError, match=message):
            RingTrainer(config, search_budget=budget)

    def test_evaluate_runs_search(self):
        config = replace(FAST, warmup=50.0, horizon=100.0)
        trainer = RingTrainer(config, search_budget=2, seed=0)
        result = trainer.evaluate(1.0)
        assert result.achieved >= 0.0
        assert "ring[" in result.policy_id


# ---------------------------------------------------------------------------
# The batch integrator against one-row calls and the scalar loop it replaced.

SHORT = RingConfig(warmup=10.0, horizon=30.0)
HOLDS = (0.1, 1.0, 5.0, 40.0)
LATTICE = [(w0, w1, w2) for w0 in (2.0, 4.0, 6.0, 8.0) for w1, w2 in ((0.0, 0.0), (0.6, 0.1), (1.2, 0.2))]
# 30 vehicles on 250 m: most guided candidates collide.
CRAMPED = RingConfig(n_vehicles=30, warmup=10.0, horizon=20.0)


def reference_rollout(config, policy, seed):
    """The one-ring loop on 1-D arrays that the batch integrator replaced.

    Returns (speeds_log, positions_log, commands, mean_speed, speed_std), or
    raises CollisionError. `commands` has one entry per hold boundary: the
    policy's command, or NaN when the ring is unguided."""
    state = initial_state(config, seed)
    positions, speeds, t = state.positions, state.speeds, 0.0
    g, n = config.guidance, config.n_vehicles
    n_warm = round(config.warmup / config.dt)
    n_score = round(config.horizon / config.dt)
    guided = policy is not None and config.n_guided >= 1

    def gaps_of(x):
        gaps = np.empty_like(x)
        gaps[:-1] = x[1:] - x[:-1] - config.vehicle_length
        gaps[-1] = x[0] + config.circumference - x[-1] - config.vehicle_length
        return gaps

    speeds_log, positions_log, commands = [], [], []
    speed_sum = std_sum = 0.0
    for i in range(n_warm + n_score):
        gaps = gaps_of(positions)
        if i % round(g.hold / config.dt) == 0:
            commands.append(float(policy((speeds[0], speeds[1], gaps[0]))) if guided else math.nan)
        lead = np.roll(speeds, -1)
        accel = idm_acceleration(speeds, gaps, lead, config.idm)
        caps = np.full(n, config.idm.v_desired)
        if guided:
            command = commands[-1]
            raw = command if g.mode == "acceleration" else (
                g.alpha * (command - speeds[0]) + g.beta * (lead[0] - speeds[0]))
            accel[0] = min(max(raw, -g.accel_cap), g.accel_cap)
            caps[0] = config.speed_limit
        speeds = np.clip(speeds + accel * config.dt, 0.0, caps)
        positions = positions + speeds * config.dt
        t += config.dt
        after = gaps_of(positions)
        if np.any(after <= 0):
            follower = int(np.argmin(after))
            raise CollisionError(follower, (follower + 1) % n, t)
        if i >= n_warm:
            speed_sum += float(speeds.mean())
            std_sum += float(speeds.std())
        speeds_log.append(speeds)
        positions_log.append(positions % config.circumference)
    return np.array(speeds_log), np.array(positions_log), commands, speed_sum / n_score, std_sum / n_score


def _policy_kinds(config):
    """Policy factories: a script is replayed through an iterator that is
    consumed as it runs, so each rollout needs a fresh one."""
    script = [float(v) for v in np.linspace(2.0, 6.0, 7)] * 60
    return [
        lambda: None,
        lambda: lambda obs: 4.0,
        lambda: lambda obs: 10.0,     # floors the guided car into its leader
        lambda: lambda obs, replay=iter(script): next(replay),
        *[lambda w=w: LinearSpeedPolicy(*w, config) for w in LATTICE[::3]],
        lambda: LinearSpeedPolicy(*LATTICE[-1], config),
    ]


def _policy_rows(config):
    """(seed, hold, policy factory) rows: mixed seeds, holds and policy kinds."""
    return [
        (seed, hold, kind)
        for k, kind in enumerate(_policy_kinds(config))
        for seed, hold in [((3 * k) % 7, HOLDS[k % 4]), (k % 5, HOLDS[(k + 1) % 4])]
    ]


class TestBatchedIntegrator:
    def test_rows_match_separate_simulate_calls(self):
        rows = _policy_rows(SHORT)
        batch = simulate_many(
            SHORT, [r[0] for r in rows], [r[2]() for r in rows], [r[1] for r in rows], record=True
        )
        collided = 0
        for (seed, hold, make), got in zip(rows, batch):
            config = replace(SHORT, guidance=replace(SHORT.guidance, hold=hold))
            if got.collision is not None:
                with pytest.raises(CollisionError) as err:
                    simulate(config, make(), seed, record=True)
                assert str(err.value) == str(got.collision)
                assert (err.value.pair, err.value.time) == (got.collision.pair, got.collision.time)
                assert got.mean_speed == -math.inf
                collided += 1
                continue
            one = simulate(config, make(), seed, record=True)
            assert np.array_equal(got.speeds_log, one.speeds_log)
            assert np.array_equal(got.positions_log, one.positions_log)
            assert np.array_equal(got.commands_log, one.commands_log, equal_nan=True)
            # each row holds its boundary commands for its own hold
            every = round(hold / SHORT.dt)
            held = np.repeat(got.commands_log[::every], every)[: len(got.commands_log)]
            assert np.array_equal(held, got.commands_log, equal_nan=True)
            assert got.mean_speed == one.mean_speed
            assert got.speed_std == one.speed_std
        # some rows collide mid-run while the others carry on
        assert 0 < collided < len(rows)
        assert any(0 < r.collision.time < SHORT.warmup + SHORT.horizon - 1 for r in batch if r.collision)

    def test_collided_row_stops_with_nan_logs(self):
        got, clean = simulate_many(
            SHORT, [0, 0], [lambda obs: 10.0, lambda obs: 4.0], record=True
        )
        hit = round(got.collision.time / SHORT.dt) - 1  # index of the colliding step
        assert np.isnan(got.speeds_log[hit:]).all() and not np.isnan(got.speeds_log[:hit]).any()
        assert math.isnan(got.speed_std)
        assert clean.collision is None and not np.isnan(clean.speeds_log).any()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_command_raises(self, value):
        # row 1 commands 4.0 at t = 0 s and 1 s, then the value at 2 s
        replay = iter([4.0, 4.0, value])
        with pytest.raises(ValueError, match=rf"^the policy of row 1 commanded {value} at t=2s$"):
            simulate_many(SHORT, [0, 0], [lambda obs: 4.0, lambda obs: next(replay)])

    # lattice, scripted, colliding lattice, colliding constant, unguided
    @pytest.mark.parametrize("seed, hold, kind", [(0, 0.1, 4), (5, 1.0, 3), (2, 5.0, 6), (1, 1.0, 2), (4, 40.0, 0)])
    def test_one_row_matches_reference_loop(self, seed, hold, kind):
        config = replace(SHORT, guidance=replace(SHORT.guidance, hold=hold))
        make = _policy_kinds(config)[kind]
        try:
            want = reference_rollout(config, make(), seed)
        except CollisionError as exc:
            with pytest.raises(CollisionError) as err:
                simulate(config, make(), seed, record=True)
            assert str(err.value) == str(exc)
            return
        got = simulate(config, make(), seed, record=True)
        speeds_log, positions_log, commands, mean_speed, speed_std = want
        assert np.array_equal(got.speeds_log, speeds_log)
        assert np.array_equal(got.positions_log, positions_log)
        assert [_bits(v) for v in got.commands_log[:: round(hold / config.dt)]] == [_bits(v) for v in commands]
        assert (got.mean_speed, got.speed_std) == (mean_speed, speed_std)

    def test_colliding_one_row_simulate_raises_todays_message(self):
        with pytest.raises(CollisionError, match=r"^vehicle 0 hit vehicle 1 at t=2\.1s$"):
            simulate(SHORT, lambda obs: 10.0, seed=0)

    def test_collision_heavy_batch_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = simulate_many(
                CRAMPED,
                [0] * 48,
                [LinearSpeedPolicy(*w, CRAMPED) for w in LATTICE] * 4,
                [h for h in HOLDS for _ in LATTICE],
            )
            with pytest.raises(TrainingError):
                train_and_measure_many(CRAMPED, HOLDS, 3, 0)
        assert sum(r.collision is not None for r in results) >= 40


class TestBlockScoring:
    """The horizon is scored in blocks of ringsim._SCORE_BLOCK steps, with
    the numbers of the per-step loop of reference_rollout, also where a row
    leaves the batch inside a block or on its last step."""

    # 22 and 130 vehicles (above numpy's pairwise-sum block of 128) at the
    # default spacing, and the cramped ring of 30, where most rows collide.
    @pytest.mark.parametrize("n_vehicles, circumference", [(22, 250.0), (30, 250.0), (130, 250.0 * 130 / 22)])
    def test_scores_match_the_per_step_reference(self, n_vehicles, circumference):
        # A 0.5 s warmup puts the first scored step 5 steps in, so the rows'
        # collisions (at steps 11 to 29) fall on every slot of the first
        # blocks; the 395 scored steps end in a partial block.
        config = RingConfig(n_vehicles=n_vehicles, circumference=circumference, warmup=0.5, horizon=39.5)
        rows = [(seed, 1.0, lambda obs: 10.0) for seed in range(6)]  # they floor into the leader
        rows += [(0, 1.0, None), (1, 1.0, None), (0, 0.1, lambda obs: 3.0), (1, 5.0, lambda obs: 2.0)]
        rows += [(seed, hold, LinearSpeedPolicy(*w, config))
                 for seed, hold, w in ((0, 0.1, (4.0, 0.6, 0.1)), (2, 1.0, (2.0, 1.2, 0.2)), (1, 40.0, (4.0, 0.0, 0.0)))]
        got = simulate_many(config, [r[0] for r in rows], [r[2] for r in rows], [r[1] for r in rows])
        n_warm, block = 5, ringsim._SCORE_BLOCK
        slots = set()
        for (seed, hold, policy), result in zip(rows, got):
            one = replace(config, guidance=replace(config.guidance, hold=hold))
            if result.collision is not None:
                with pytest.raises(CollisionError) as err:
                    reference_rollout(one, policy, seed)
                assert str(err.value) == str(result.collision)
                slots.add((round(result.collision.time / config.dt) - 1 - n_warm) % block)
                continue
            *_, mean_speed, speed_std = reference_rollout(one, policy, seed)
            assert (_bits(result.mean_speed), _bits(result.speed_std)) == (_bits(mean_speed), _bits(speed_std))
        # Rows leave on a block's last step and inside a block, and some run to the end.
        assert block - 1 in slots and slots & set(range(1, block - 1))
        assert any(r.collision is None for r in got)

    @pytest.mark.parametrize("w0", [0.0, 2.0, 3.1, 4.44])
    def test_constant_command_scores_the_same_at_every_hold(self, w0):
        # w1 = w2 = 0 issues one speed level at every boundary, so the hold
        # does not change the rollout; w0 = 0 is the level 0.0.
        holds = (0.1, 1.0, 5.0, 40.0)
        policy = LinearSpeedPolicy(w0, 0.0, 0.0, SHORT)
        results = simulate_many(SHORT, [3] * len(holds), [policy] * len(holds), holds, record=True)
        level = policy((0.0, 0.0, 0.0))
        for hold, result in zip(holds, results):
            issued = result.commands_log[:: round(hold / SHORT.dt)].tolist()
            assert issued == [level] * math.ceil((SHORT.warmup + SHORT.horizon) / hold - 1e-9)
            assert result.collision is None
            assert (_bits(result.mean_speed), _bits(result.speed_std)) == (
                _bits(results[0].mean_speed), _bits(results[0].speed_std))


def _bits(value) -> bytes:
    """A float's IEEE bytes: tells -0.0 from 0.0, which == does not."""
    return np.float64(value).tobytes()


# Half-level ties: with speed_limit 8 and 5 levels, raw / 8 * 4 is exactly
# k + 0.5 for the odd raw values, and round() and np.rint both go to even.
TIES = RingConfig(speed_limit=8.0, guidance=GuidanceParams(n_speed_levels=5))
_WEIGHT = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 3.0, 5.0, 7.0]),
    st.floats(-20.0, 20.0, allow_nan=False),
)
_POLICY_CONFIG = st.builds(
    lambda limit, levels, s0, headway_time: RingConfig(
        speed_limit=limit,
        idm=IdmParams(s0=s0, time_headway=headway_time),
        guidance=GuidanceParams(n_speed_levels=levels),
    ),
    st.sampled_from([8.0, 10.0, 7.3, 30.0]),
    st.integers(2, 12),
    st.sampled_from([2.0, 0.5, 3.7]),
    st.sampled_from([1.0, 0.6, 1.4]),
)
_ROW = st.tuples(
    _WEIGHT, _WEIGHT, _WEIGHT,
    st.one_of(st.just(TIES), _POLICY_CONFIG),
    st.floats(0.0, 30.0), st.floats(0.0, 30.0), st.floats(0.01, 200.0),
)


def reference_command(policy, obs):
    """The LinearSpeedPolicy formula for one policy on Python floats: the
    reference that `commands` and `__call__` match bit for bit. round()
    rounds half to even and gives the int 0 for -0.0, so it never returns
    -0.0."""
    ego, lead, headway = obs
    w0, w1, w2 = policy.w
    raw = w0 + w1 * (lead - ego) + w2 * (headway - policy.s0 - policy.headway_time * ego)
    raw = min(max(raw, 0.0), policy.limit)
    idx = round(raw / policy.limit * (policy.levels - 1))
    return idx / (policy.levels - 1) * policy.limit


class TestVectorisedLinearPolicy:
    """LinearSpeedPolicy.commands and __call__, and the batch that uses
    them, against the scalar reference formula bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ROW, min_size=1, max_size=8))
    @example([(w0, 0.0, 0.0, TIES, 4.0, 4.0, 6.0) for w0 in (1.0, 3.0, 5.0, 7.0)])
    @example([(-0.0, -0.0, -0.0, FAST, 3.0, 5.0, 9.0), (-0.0, 0.0, 0.0, FAST, 3.0, 3.0, 9.0)])
    def test_commands_match_call(self, rows):
        policies = [LinearSpeedPolicy(w0, w1, w2, config) for w0, w1, w2, config, *_ in rows]
        observations = [(ego, lead, headway) for *_, ego, lead, headway in rows]
        columns = np.array([p.params() for p in policies]).T
        ego, lead, headway = (np.array(column) for column in zip(*observations))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = LinearSpeedPolicy.commands(columns, ego, lead, headway)
            called = [p(obs) for p, obs in zip(policies, observations)]
        want = [_bits(reference_command(p, obs)) for p, obs in zip(policies, observations)]
        assert [_bits(v) for v in got] == want
        assert [_bits(v) for v in called] == want
        assert all(type(v) is float for v in called)
        assert not np.signbit(got).any()

    @staticmethod
    def _pair(config, policies, holds):
        """The batch run of `policies`, and the same batch with each policy
        wrapped in a plain callable, which the batch calls row by row."""
        seeds = [seed % 3 for seed in range(len(policies))]
        batch = simulate_many(config, seeds, policies, holds, record=True)
        wrapped = [lambda obs, p=p: p(obs) for p in policies]
        return batch, simulate_many(config, seeds, wrapped, holds, record=True)

    def _assert_same(self, batch, scalar):
        for got, want in zip(batch, scalar):
            assert got.commands_log.tobytes() == want.commands_log.tobytes()  # bit for bit
            assert np.array_equal(got.speeds_log, want.speeds_log, equal_nan=True)
            assert (got.mean_speed, str(got.collision)) == (want.mean_speed, str(want.collision))

    def test_batch_of_policies_from_mixed_configs(self):
        # Each row discretizes with its own policy's limit, levels and
        # spacing; the batch config caps the guided vehicle's speed.
        configs = [
            SHORT,
            replace(SHORT, speed_limit=6.5),
            replace(SHORT, guidance=replace(SHORT.guidance, n_speed_levels=3)),
            replace(SHORT, idm=replace(SHORT.idm, s0=4.0)),
            TIES,
        ]
        policies = [LinearSpeedPolicy(*w, c) for c in configs for w in LATTICE[::2]]
        holds = [HOLDS[k % len(HOLDS)] for k in range(len(policies))]
        batch, scalar = self._pair(SHORT, policies, holds)
        self._assert_same(batch, scalar)
        assert len({r.commands_log.tobytes() for r in batch}) > len(configs)

    def test_subclass_that_overrides_call_is_called(self):
        class Slower(LinearSpeedPolicy):
            calls = 0

            def __call__(self, obs):
                Slower.calls += 1
                return super().__call__(obs) / 2

        class Same(LinearSpeedPolicy):
            pass

        policies = [Slower(6.0, 1.2, 0.2, SHORT), Same(6.0, 1.2, 0.2, SHORT), LinearSpeedPolicy(6.0, 1.2, 0.2, SHORT)]
        batch = simulate_many(SHORT, [0, 0, 0], policies, [1.0, 1.0, 1.0], record=True)
        assert batch[0].collision is None
        assert Slower.calls == math.ceil(SHORT.warmup + SHORT.horizon)  # one call per 1 s boundary
        assert batch[0].commands_log[0] == batch[2].commands_log[0] / 2  # same ring, halved command
        assert batch[1].commands_log[::10].tobytes() == batch[2].commands_log[::10].tobytes()
        self._assert_same(*self._pair(SHORT, policies[:2], [1.0, 5.0]))

    def test_subclass_is_called_row_by_row_with_the_same_numbers(self):
        # Only rows whose policy is exactly a LinearSpeedPolicy are batched;
        # a subclass's __call__ reads params() at every boundary.
        class Counted(LinearSpeedPolicy):
            calls = 0

            def params(self):
                Counted.calls += 1
                return super().params()

        weights = [(6.0, 1.2, 0.2), (4.0, 0.6, 0.1)]
        policies = [Counted(*w, SHORT) for w in weights] + [LinearSpeedPolicy(*w, SHORT) for w in weights]
        batch = simulate_many(SHORT, [1] * 4, policies, [1.0, 5.0] * 2, record=True)
        assert batch[0].collision is None and batch[1].collision is None
        steps = round((SHORT.warmup + SHORT.horizon) / SHORT.dt)
        assert Counted.calls == math.ceil(steps / 10) + math.ceil(steps / 50)  # boundaries of 1 s and 5 s
        self._assert_same(batch[:2], batch[2:])


class TestLockstepSearch:
    DELTAS = (0.1, 1.0, 5.0, 15.0, 40.0)
    CONFIG = RingConfig(warmup=10.0, horizon=20.0)

    @pytest.mark.parametrize("budget", [1, 5, 12, 24])
    def test_matches_separate_searches(self, budget):
        many = train_and_measure_many(self.CONFIG, self.DELTAS, budget, 0)
        for delta, got in zip(self.DELTAS, many):
            one = train_and_measure(self.CONFIG, delta, budget, 0)
            assert got == one  # achieved, policy_id, delta and cost

    @pytest.mark.parametrize("deltas, failing", [((40.0, 5.0, 1.0, 0.1), 5), ((15.0, 1.0, 5.0), 1)])
    def test_first_failing_delta_in_input_order_raises(self, deltas, failing):
        with pytest.raises(TrainingError) as err:
            train_and_measure_many(CRAMPED, deltas, 3, 0)
        assert str(err.value) == f"all 3 candidate rollouts collided at delta={failing} (seed=0)"
        with pytest.raises(TrainingError) as one:
            train_and_measure(CRAMPED, float(failing), 3, 0)
        assert str(one.value) == str(err.value)


class TestSweepBaseline:
    """The sweep's unguided baseline is one more row of the search's first batch."""

    CONFIG = RingConfig(warmup=10.0, horizon=20.0)
    DELTAS = (0.1, 1.0, 40.0)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_baseline_is_the_unguided_rollout(self, seed, monkeypatch):
        unguided = []

        def recording(config, seeds, policies=None, holds=None, record=False):
            unguided.append(policies.count(None))
            return simulate_many(config, seeds, policies, holds, record)

        monkeypatch.setattr(ringsim, "simulate_many", recording)
        baseline, results = ringsim.sweep(self.CONFIG, self.DELTAS, 13, seed)
        assert unguided == [1, 0]
        monkeypatch.undo()
        assert baseline == rollout_measure(replace(self.CONFIG, n_guided=0), None, seed)
        assert results == train_and_measure_many(self.CONFIG, self.DELTAS, 13, seed)

    def test_collided_baseline_fails_the_sweep_only(self, monkeypatch):
        want = train_and_measure_many(self.CONFIG, self.DELTAS, 2, 0)
        crash = CollisionError(2, 3, 0.6)

        def colliding(config, seeds, policies=None, holds=None, record=False):
            results = simulate_many(config, seeds, policies, holds, record)
            for policy, result in zip(policies, results):
                if policy is None:
                    result.mean_speed, result.collision = -math.inf, crash
            return results

        monkeypatch.setattr(ringsim, "simulate_many", colliding)
        assert train_and_measure_many(self.CONFIG, self.DELTAS, 2, 0) == want
        assert RingTrainer(self.CONFIG, search_budget=2).evaluate(1.0) == want[1]
        with pytest.raises(CollisionError) as err:
            ringsim.sweep(self.CONFIG, self.DELTAS, 2, 0)
        assert err.value is crash


def reference_search(config, deltas, budget, seed):
    """The one-round-at-a-time refinement loop that speculative refinement
    replaced: after the lattice batch, each round is one batch with a row per
    duration.

    Returns the (achieved, policy_id) of each duration and how often each
    duration's incumbent improved during refinement, or raises TrainingError
    for the first all-collided duration in input order."""
    generators = [
        np.random.default_rng(np.random.SeedSequence([seed, ringsim._hold_steps("delta", d, config.dt)]))
        for d in deltas
    ]

    def score(weights, holds):
        policies = [LinearSpeedPolicy(*w, config) for w in weights]
        return [r.mean_speed for r in simulate_many(config, [seed] * len(weights), policies, holds)]

    lattice = [np.array(w) for w in LATTICE]
    first = lattice[:budget]
    flat = score(first * len(deltas), [d for d in deltas for _ in first])
    candidates = [list(first) for _ in deltas]
    scores = [flat[k * len(first) : (k + 1) * len(first)] for k in range(len(deltas))]
    best = [max(range(len(s)), key=s.__getitem__) for s in scores]
    improved = [0] * len(deltas)
    for i in range(len(first), budget):
        shrink = 0.85 ** (i - len(lattice))
        proposals = [
            np.clip(c[b] + rng.normal(size=3) * ringsim._REFINE_SCALE * shrink,
                    ringsim._PARAM_LO, ringsim._PARAM_HI)
            for c, b, rng in zip(candidates, best, generators)
        ]
        for k, value in enumerate(score(proposals, deltas)):
            candidates[k].append(proposals[k])
            scores[k].append(value)
            if value > scores[k][best[k]]:
                best[k] = i
                improved[k] += 1
    results = []
    for delta, c, s, b in zip(deltas, candidates, scores, best):
        if not np.isfinite(s[b]):
            raise TrainingError(
                f"all {budget} candidate rollouts collided at delta={delta:.6g} (seed={seed})"
            )
        w = c[b]
        results.append((float(s[b]), f"ring[w0={w[0]:.4g},w1={w[1]:.4g},w2={w[2]:.4g}]@{delta:.6g}s"))
    return results, improved


class TestSpeculativeRefinement:
    """Speculative refinement against the one-round-at-a-time reference loop."""

    DELTAS = (0.1, 1.0, 5.0, 15.0, 40.0)
    CONFIG = RingConfig(warmup=10.0, horizon=20.0)

    @staticmethod
    def _recorded_search(monkeypatch, config, deltas, budget, seed):
        """train_and_measure_many, and the holds of the candidate rows of each
        batch it scored. No batch carries an unguided row: only the sweep
        scores the baseline."""
        batches = []
        unguided = []

        def recording(config, seeds, policies=None, holds=None, record=False):
            batches.append([h for h, p in zip(holds, policies) if p is not None])
            unguided.append(policies.count(None))
            return simulate_many(config, seeds, policies, holds, record)

        monkeypatch.setattr(ringsim, "simulate_many", recording)
        results = train_and_measure_many(config, deltas, budget, seed)
        assert unguided == [0] * len(batches)
        return results, batches

    @pytest.mark.parametrize("budget", [1, 11, 12, 13, 24, 37])
    @pytest.mark.parametrize("deltas", [DELTAS, (1.0, 0.1, 1.0, 40.0)], ids=["distinct", "duplicate"])
    def test_matches_round_by_round_search(self, deltas, budget, monkeypatch):
        want, improved = reference_search(self.CONFIG, deltas, budget, 1)
        got, batches = self._recorded_search(monkeypatch, self.CONFIG, deltas, budget, 1)
        assert [(r.achieved, r.policy_id) for r in got] == want
        assert all(r.cost == budget for r in got)
        # No batch holds more than one lattice's worth of rows per duration.
        for holds in batches:
            assert all(holds.count(h) <= len(LATTICE) * deltas.count(h) for h in holds)
        # A duration needs one batch per improvement plus one per full window,
        # against one per round for the reference.
        rounds = max(budget - len(LATTICE), 0)
        assert len(batches) <= 1 + max(improved) + math.ceil(rounds / len(LATTICE))
        if budget >= 24:
            # Restarts are exercised: some incumbent moves more than once, so
            # rounds proposed around a stale incumbent were discarded.
            assert max(improved) >= 2

    def test_each_constant_level_is_simulated_once_per_search(self, monkeypatch):
        # A candidate with w1 = w2 = 0 rolls out its speed level alone: the
        # lattice's 4 such candidates per duration, and every constant
        # proposal of refinement, score from one rollout per level. Any other
        # candidate rolls out its hold and weights, also once per search.
        constants = []
        keys = []
        sizes = []

        def recording(config, seeds, policies=None, holds=None, record=False):
            constants.extend(p((0.0, 0.0, 0.0)) for p in policies if p is not None and p.w[1] == p.w[2] == 0)
            keys.extend(p((0.0, 0.0, 0.0)) if p.w[1] == p.w[2] == 0 else (round(h / config.dt), *p.w)
                        for p, h in zip(policies, holds) if p is not None)
            sizes.append(len(seeds))
            return simulate_many(config, seeds, policies, holds, record)

        monkeypatch.setattr(ringsim, "simulate_many", recording)
        train_and_measure_many(self.CONFIG, self.DELTAS, 37, 1)
        assert sorted(constants) == sorted(set(constants)) and len(constants) >= 4
        assert len(keys) == len(set(keys)) > len(constants)
        # The 13th round at 40 s proposes a level the lattice has simulated: its
        # batch knows every rollout and makes no call.
        sizes.clear()
        train_and_measure_many(self.CONFIG, (40.0,), 13, 1)
        assert sizes == [len(LATTICE)]

    def test_repeated_duration_is_simulated_once(self, monkeypatch, capsys):
        # A repeated duration proposes the same candidates as its first entry,
        # so it adds no rollout and prints the same row.
        batches = []  # per sweep, the rows of each simulate_many call

        def recording(config, seeds, policies=None, holds=None, record=False):
            batches[-1].append([(seed, hold, p and p.w) for seed, p, hold in zip(seeds, policies, holds)])
            return simulate_many(config, seeds, policies, holds, record)

        monkeypatch.setattr(ringsim, "simulate_many", recording)
        printed = []
        for deltas in ("1,0.1,1,40", "1,0.1,40"):
            batches.append([])
            assert main(["ring", "sweep", "--deltas", deltas, "--warmup", "10", "--horizon", "20",
                         "--budget", "24", "--seed", "1"]) == 0
            printed.append(capsys.readouterr().out.splitlines())
        assert batches[0] == batches[1]
        assert printed[0][1] == printed[0][3] == printed[1][1]
        assert printed[0][:3] + printed[0][4:] == printed[1]

    @pytest.mark.parametrize(
        "deltas, budget",
        [((0.1, 1.0, 5.0, 40.0), 13), ((40.0, 5.0, 1.0, 0.1), 13), ((0.1, 1.0, 5.0, 40.0), 16)],
    )
    def test_all_collided_duration_raises_like_the_reference(self, deltas, budget):
        # In the cramped ring some durations collide in every candidate while
        # refinement rescues others; the first failing one in input order raises.
        with pytest.raises(TrainingError) as want:
            reference_search(CRAMPED, deltas, budget, 0)
        with pytest.raises(TrainingError) as got:
            train_and_measure_many(CRAMPED, deltas, budget, 0)
        assert str(got.value) == str(want.value)


# Printed by the scalar simulator this batched one replaced.
SWEEP_GOLDEN = {
    "0": (
        "delta,achieved,baseline,policy_id\n"
        "0.1,4.46535,4.33998,ring[w0=4,w1=0,w2=0]@0.1s\n"
        "1,4.46535,4.33998,ring[w0=4,w1=0,w2=0]@1s\n"
        "5,4.46535,4.33998,ring[w0=4,w1=0,w2=0]@5s\n"
        "15,4.46535,4.33998,ring[w0=4,w1=0,w2=0]@15s\n"
        "40,4.46535,4.33998,ring[w0=4,w1=0,w2=0]@40s\n"
    ),
    "2024": (
        "delta,achieved,baseline,policy_id\n"
        "0.1,4.6007,4.35163,ring[w0=6.213,w1=1.104,w2=0.2269]@0.1s\n"
        "1,4.61524,4.35163,ring[w0=6,w1=1.2,w2=0.2]@1s\n"
        "5,4.46191,4.35163,ring[w0=4,w1=0,w2=0]@5s\n"
        "15,4.46191,4.35163,ring[w0=4,w1=0,w2=0]@15s\n"
        "40,4.46191,4.35163,ring[w0=4,w1=0,w2=0]@40s\n"
    ),
}


@pytest.mark.parametrize("seed", ["0", "2024"])
def test_sweep_stdout_is_pinned(seed, capsys):
    args = ["ring", "sweep", "--deltas", "0.1,1,5,15,40", "--warmup", "10", "--horizon", "40", "--seed", seed]
    assert main(args) == 0
    assert capsys.readouterr().out == SWEEP_GOLDEN[seed]


# The default config (warmup 500 s, horizon 1000 s), printed before each
# constant candidate was simulated once per search and before the horizon was
# scored in blocks; with 101 speed levels, policies with feedback win too.
SWEEP_DEFAULT_GOLDEN = {
    ("3", 10): (
        "delta,achieved,baseline,policy_id\n"
        "0.1,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@0.1s\n"
        "1,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@1s\n"
        "5,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@5s\n"
        "15,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@15s\n"
        "40,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@40s\n"
    ),
    ("7", 10): (
        "delta,achieved,baseline,policy_id\n"
        "0.1,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@0.1s\n"
        "1,4.52673,2.99419,ring[w0=5.098,w1=0,w2=0.03158]@1s\n"
        "5,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@5s\n"
        "15,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@15s\n"
        "40,4.44444,2.99419,ring[w0=4,w1=0,w2=0]@40s\n"
    ),
    ("7", 101): (
        "delta,achieved,baseline,policy_id\n"
        "0.1,4.43272,2.99419,ring[w0=4.578,w1=0.07424,w2=0.09047]@0.1s\n"
        "1,4.6484,2.99419,ring[w0=4.754,w1=0.8439,w2=0.01682]@1s\n"
        "5,4.30659,2.99419,ring[w0=4.308,w1=0.8956,w2=0.01282]@5s\n"
        "15,4.4,2.99419,ring[w0=4.402,w1=0,w2=0]@15s\n"
        "40,4.5,2.99419,ring[w0=4.483,w1=0,w2=0]@40s\n"
    ),
}


@pytest.mark.parametrize("seed, levels", list(SWEEP_DEFAULT_GOLDEN))
def test_default_config_sweep_stdout_is_pinned(seed, levels, tmp_path, capsys):
    config = tmp_path / "levels.cfg"
    config.write_text(f"n_speed_levels = {levels}\n")
    assert main(["ring", "sweep", "--deltas", "0.1,1,5,15,40", "--seed", seed, "--config", str(config)]) == 0
    assert capsys.readouterr().out == SWEEP_DEFAULT_GOLDEN[seed, levels]


def test_baseline_stdout_is_pinned(capsys):
    assert main(["ring", "baseline", "--seeds", "6", "--warmup", "20", "--horizon", "40"]) == 0
    assert capsys.readouterr().out == (
        "seed,mean_speed,speed_std\n"
        "0,4.3378,0.382062\n"
        "1,4.35931,0.139537\n"
        "2,4.35032,0.285159\n"
        "3,4.3506,0.288697\n"
        "4,4.35379,0.250314\n"
        "5,4.35387,0.21416\n"
    )
