"""Output checks for the benchmark workloads.

Every check works from the program's printed output and the workload inputs.
Expected values come from code written here, apart from the program: a
reference IDM integrator, a plain subset enumeration, the closed forms of
the selection bounds and a sequential max-of-tents landscape. A check raises
CheckError naming the first mismatch.

The CLI prints numbers at 6 significant digits, so comparisons against
printed values allow PRINT_REL of relative rounding on each side.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import replace

import numpy as np

PRINT_REL = 2e-5
STEP_REL = 1e-12


class CheckError(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(printed: float, expected: float, scale: float, what: str) -> None:
    require(
        abs(printed - expected) <= PRINT_REL * max(abs(expected), abs(scale)),
        f"{what}: printed {printed!r}, expected {expected!r}",
    )


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == header, f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:] if line]


# ---------------------------------------------------------------- closed forms

def ghost_cell(theta: float, width: float, k: int) -> float:
    """Ghost-cell coverage lower bound after k greedy steps (k >= 1)."""
    scale = theta * width**2
    if k <= 2:
        return 0.75 * scale
    i = 0
    while 2**i + 1 < k:
        i += 1
    return scale * (1 - 1 / 2 ** (i + 2) - ((2**i + 1) - k) / 2 ** (2 * i + 1))


def cttl_area(theta: float, width: float, k: int) -> float:
    return (1 - 1 / (4 * k)) * theta * width**2


def suboptimality(theta: float, width: float, k: int) -> float:
    n = k - 1
    scale = theta * width**2
    return scale / (4 * k * n) if n & (n - 1) == 0 else scale / (2 * n * n)


def enumerate_best(width: float, theta: float, jstar: float, cells: int, k: int) -> float:
    """Largest trapezoid area of the max-of-tents envelope over all k-subsets
    of a `cells`-point grid on [0, width], every source reaching jstar."""
    res = width / (cells - 1)
    grid = np.arange(cells) * res
    tents = np.maximum(jstar - theta * np.abs(grid[None, :] - grid[:, None]), 0.0)
    weights = np.full(cells, res)
    weights[0] = weights[-1] = res / 2
    best = -math.inf
    combos = itertools.combinations(range(cells), k)
    while True:
        chunk = list(itertools.islice(combos, 20000))
        if not chunk:
            return best
        env = tents[np.array(chunk)].max(axis=1)
        best = max(best, float((env @ weights).max()))


def subset_area(width: float, theta: float, jstar: float, cells: int, picks) -> float:
    res = width / (cells - 1)
    grid = np.arange(cells) * res
    env = np.zeros(cells)
    for i in picks:
        env = np.maximum(env, jstar - theta * np.abs(grid - grid[i]))
    env = np.maximum(env, 0.0)
    return float(res * (env.sum() - 0.5 * (env[0] + env[-1])))


# ---------------------------------------------------------------- ring sweep

LATTICE = {(w0, w1, w2) for w0 in (2.0, 4.0, 6.0, 8.0) for w1, w2 in ((0.0, 0.0), (0.6, 0.1), (1.2, 0.2))}
_POLICY_ID = re.compile(r"ring\[w0=([^,]+),w1=([^,]+),w2=([^\]]+)\]@(.+)s")


def parse_ring_sweep(text: str) -> list[dict]:
    rows = []
    for fields in _csv_rows(text, "delta,achieved,baseline,policy_id"):
        require(len(fields) >= 4, f"ring sweep row has {len(fields)} fields")
        # the policy id holds commas of its own
        fields = fields[:3] + [",".join(fields[3:])]
        m = _POLICY_ID.fullmatch(fields[3])
        require(m is not None, f"policy id {fields[3]!r} is malformed")
        rows.append({
            "delta": float(fields[0]), "delta_text": fields[0],
            "achieved": float(fields[1]), "achieved_text": fields[1],
            "baseline": float(fields[2]),
            "weights": tuple(float(m.group(i)) for i in (1, 2, 3)),
            "policy_delta": m.group(4),
        })
    return rows


def check_ring_sweep(text: str, deltas, speed_limit: float, v_desired: float, rollout=None) -> list[dict]:
    """One row per requested duration, in order, with speeds in range.

    `rollout(delta, weights)` re-scores a policy; where the printed weights
    are exact lattice values, it must reproduce the printed score.
    """
    rows = parse_ring_sweep(text)
    require(len(rows) == len(deltas), f"{len(rows)} rows for {len(deltas)} durations")
    for row, delta in zip(rows, deltas):
        require(row["delta_text"] == f"{delta:.6g}", f"row for {row['delta_text']}, expected {delta:g}")
        require(row["policy_delta"] == f"{delta:.6g}", f"policy trained at {row['policy_delta']}s, expected {delta:g}s")
        require(math.isfinite(row["achieved"]) and 0 <= row["achieved"] <= speed_limit,
                 f"achieved {row['achieved']} outside [0, {speed_limit}] at {delta:g}s")
        require(math.isfinite(row["baseline"]) and 0 <= row["baseline"] <= v_desired,
                 f"baseline {row['baseline']} outside [0, {v_desired}]")
        require(row["baseline"] == rows[0]["baseline"], "baseline differs between rows")
        if rollout is not None and row["weights"] in LATTICE:
            score = rollout(delta, row["weights"])
            require(f"{score:.6g}" == row["achieved_text"],
                     f"fresh rollout of {row['weights']} at {delta:g}s scores {score:.6g}, "
                     f"sweep printed {row['achieved_text']}")
    return rows


def reference_step(positions, speeds, config, command):
    """One semi-implicit IDM step on the ring, vehicle by vehicle.

    Returns (positions, speeds, collided)."""
    p, g = config.idm, config.guidance
    n = len(speeds)
    length, ring = config.vehicle_length, config.circumference
    new_speeds = []
    for i in range(n):
        lead = (i + 1) % n
        gap = positions[lead] - positions[i] - length + (ring if lead == 0 else 0.0)
        v, v_lead = speeds[i], speeds[lead]
        s_star = p.s0 + v * p.time_headway + v * (v - v_lead) / (2 * math.sqrt(p.a_max * p.b_comfort))
        accel = p.a_max * (1 - (v / p.v_desired) ** p.exponent - (s_star / gap) ** 2)
        cap = p.v_desired
        if i == 0 and command is not None and config.n_guided >= 1:
            raw = command if g.mode == "acceleration" else g.alpha * (command - v) + g.beta * (v_lead - v)
            accel = min(max(raw, -g.accel_cap), g.accel_cap)
            cap = config.speed_limit
        new_speeds.append(min(max(v + accel * config.dt, 0.0), cap))
    new_positions = [x + v * config.dt for x, v in zip(positions, new_speeds)]
    collided = any(
        new_positions[(i + 1) % n] - new_positions[i] - length + (ring if i == n - 1 else 0.0) <= 0
        for i in range(n)
    )
    return new_positions, new_speeds, collided


def reference_initial(config, seed: int):
    """Uniform spacing and speed with seeded jitter, as the ring starts."""
    rng = np.random.default_rng(seed)
    n = config.n_vehicles
    spacing = config.circumference / n
    positions = spacing * np.arange(n) + rng.uniform(-0.2, 0.2, n) * spacing
    speeds = 5.0 * (1 + rng.uniform(-0.1, 0.1, n))
    return positions, speeds


def check_step_agreement(ringsim, config, seed: int, n_steps: int, step=None) -> int:
    """Feed the same states to `step` (default ringsim.step) and to the
    reference integrator; both must agree to STEP_REL.

    The command switches between none, a held speed target and a held
    acceleration, so every branch of the law is compared. Returns the number
    of steps compared."""
    step = step or ringsim.step
    speed_cfg = replace(config, guidance=replace(config.guidance, mode="speed"))
    accel_cfg = replace(config, guidance=replace(config.guidance, mode="acceleration"))
    positions, speeds = reference_initial(config, seed)
    rng = np.random.default_rng([seed, 1])
    for i in range(n_steps):
        phase = (i // 50) % 3
        cfg = (config, speed_cfg, accel_cfg)[phase]
        command = None if phase == 0 else (
            float(rng.integers(0, 10)) if phase == 1 else float(rng.uniform(-0.5, 0.5)))
        ref_pos, ref_speeds, ref_collided = reference_step(list(positions), list(speeds), cfg, command)
        state = ringsim.RingState(positions=np.array(positions), speeds=np.array(speeds))
        try:
            out = step(state, cfg, command)
        except ringsim.CollisionError:
            require(ref_collided, f"step {i}: simulator reports a collision the reference does not")
            return i
        require(not ref_collided, f"step {i}: reference collides, simulator does not")
        for name, got, want in (("speed", out.speeds, ref_speeds), ("position", out.positions, ref_pos)):
            want = np.array(want)
            err = np.abs(got - want)
            bad = err > STEP_REL * np.maximum(np.abs(want), 1.0)
            require(not bad.any(), f"step {i}: {name} of vehicle {int(np.argmax(bad))} is "
                     f"{got[np.argmax(bad)]!r}, reference {want[np.argmax(bad)]!r}")
        positions, speeds = out.positions, out.speeds
    return n_steps


# ---------------------------------------------------------------- certify

VERIFY_HEADER = "claim,lhs,rhs,holds,slack"


def check_verify(text: str, rc: int, kmax: int = 9, grid: int = 41, enum_kmax: int = 4) -> None:
    """`verify` at its defaults: exit 0, every claim present and holding, and
    the closed-form sides equal to the ones recomputed here."""
    require(rc == 0, f"verify exited {rc}")
    rows = {}
    for fields in _csv_rows(text, VERIFY_HEADER):
        require(len(fields) == 5, f"verify row {fields!r}")
        require(fields[3] == "true", f"claim {fields[0]} does not hold: {fields!r}")
        rows[fields[0]] = (float(fields[1]), float(fields[2]))
    # L3 stops at K=6 today, whatever --kmax says; K up to kmax is accepted
    # too, for when verify honours the flag.
    l3_kmax = 6 if "L3-K6" in rows and "L3-K7" not in rows else kmax
    expected = (
        [f"T1-{n}" for n in ("first-pick", "first-area", "pos-trisection", "neg-trisection")]
        + [f"T2-anchor-k{2**i + 1}" for i in range(5)] + ["T2-steps-eps1_16", "T2-steps-eps1_64"]
        + [f"T4-gap-K{k}" for k in range(2, kmax + 1)]
        + [f"T4-identity-K{2**i + 1}" for i in range(5) if 2**i + 1 <= kmax]
        + [f"L2-k{k}" for k in range(1, kmax + 1)]
        + [f"L3-K{k}" for k in range(1, l3_kmax + 1)]
    )
    require(sorted(rows) == sorted(expected), f"verify claims {sorted(set(rows) ^ set(expected))} differ")
    # T2: each anchor and step count is an exact identity, so both sides are
    # 0; the anchor values themselves are printed as the L2 left sides.
    for claim in expected:
        if claim.startswith("T2"):
            require(rows[claim] == (0.0, 0.0), f"{claim}: {rows[claim]}, expected 0,0")
    # L3: the right side is one coarse cell; the left side the distance from
    # the exact optimum to the coarse-to-fine closed form.
    cell = 1.0 / (grid - 1)
    for k in range(1, l3_kmax + 1):
        lhs, rhs = rows[f"L3-K{k}"]
        _close(rhs, cell, cell, f"L3-K{k} rhs")
        if k <= enum_kmax:
            want = abs(enumerate_best(1.0, 1.0, 1.0, grid, k) - cttl_area(1.0, 1.0, k))
            _close(lhs, want, 1e-6, f"L3-K{k} lhs")
    # L2 and T4: the ghost-cell and suboptimality closed forms.
    for k in range(1, kmax + 1):
        _close(rows[f"L2-k{k}"][0], ghost_cell(1.0, 1.0, k), 1.0, f"L2-k{k} lhs")
    for k in range(2, kmax + 1):
        _close(rows[f"T4-gap-K{k}"][1], suboptimality(1.0, 1.0, k) + 1 / 2000, 1.0, f"T4-gap-K{k} rhs")
    # T4 identity: schedule area minus ghost-cell bound is the suboptimality
    # bound, exactly; the printed right side is a 1e-9 tolerance.
    for i in range(5):
        k = 2**i + 1
        if k <= kmax:
            require(abs(cttl_area(1.0, 1.0, k) - ghost_cell(1.0, 1.0, k) - suboptimality(1.0, 1.0, k)) < 1e-15,
                    f"T4 identity at K={k} fails for the closed forms")
            lhs, rhs = rows[f"T4-identity-K{k}"]
            require(lhs <= 1e-12 and rhs == 1e-9, f"T4-identity-K{k}: {lhs}, {rhs}")


ORACLE_HEADER = "k,best_area,gttl_area,cttl_area,bound,holds"


def check_oracle(text: str, rc: int, dmax: float, theta: float, jstar: float, grid: int,
                 kmax: int = 4, enum_kmax: int = 3) -> None:
    """`oracle` rows: the optimum beats both selectors and the evenly spaced
    subset, stays under W*j*, and equals a plain enumeration for small K."""
    require(rc == 0, f"oracle exited {rc}")
    rows = _csv_rows(text, ORACLE_HEADER)
    require([r[0] for r in rows] == [str(k) for k in range(1, kmax + 1)], f"oracle rows {[r[0] for r in rows]}")
    full = dmax * jstar
    cell = dmax / (grid - 1) * jstar
    for fields in rows:
        k = int(fields[0])
        best, gttl, cttl, bound = (float(x) for x in fields[1:5])
        require(fields[5] == "true", f"oracle k={k}: bound does not hold")
        slack = PRINT_REL * full
        require(best >= gttl - slack and best >= cttl - slack, f"oracle k={k}: best {best} below a selector")
        require(best <= full + slack, f"oracle k={k}: best {best} above W*j* = {full}")
        spaced = [round((2 * j + 1) / (2 * k) * (grid - 1)) for j in range(k)]
        feasible = subset_area(dmax, theta, jstar, grid, spaced)
        require(best >= feasible - slack, f"oracle k={k}: best {best} below the feasible subset {spaced} ({feasible})")
        _close(bound, (suboptimality(theta, dmax, k) if k >= 2 else 0.0) + cell, full, f"oracle k={k} bound")
        if k <= enum_kmax:
            _close(best, enumerate_best(dmax, theta, jstar, grid, k), full, f"oracle k={k} best_area")


# ---------------------------------------------------------------- select

def _landscape_rows(text: str):
    rows = _csv_rows(text, "delta,performance")
    return np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def check_run(stdout: str, rc: int, iterations_csv: str, landscape_csv: str, *, algo: str,
              dmax: float, resolution: float, theta: float, jstar: float, budget: int,
              trainer: str = "ideal", eta: float = 0.0, curve=None) -> None:
    """One `run`: the landscape equals a sequential max-of-tents rebuild from
    the iterations, every area its trapezoid sum, and the method's own
    guarantees hold under the ideal trainer."""
    require(rc == 0, f"run {algo} exited {rc}")
    n = round(dmax / resolution) + 1
    grid = np.arange(n) * resolution
    scale = max(jstar + eta, 1e-300)
    its = _csv_rows(iterations_csv, "iteration,delta,achieved,area")
    deltas, land = _landscape_rows(landscape_csv)
    require(len(deltas) == n, f"landscape has {len(deltas)} rows, grid has {n}")
    require(np.allclose(deltas, grid, rtol=PRINT_REL, atol=PRINT_REL * resolution), "landscape grid")
    values = np.zeros(n)
    picks = []
    areas = []
    for number, fields in enumerate(its, start=1):
        require(int(fields[0]) == number, f"iteration {fields[0]} out of order")
        d, achieved, area = float(fields[1]), float(fields[2]), float(fields[3])
        idx = round(d / resolution)
        require(0 <= idx < n and abs(grid[idx] - d) <= PRINT_REL * max(d, resolution), f"pick {d} is off the grid")
        picks.append(idx)
        values = np.maximum(values, np.maximum(achieved - theta * np.abs(grid - grid[idx]), 0.0))
        values[idx] = achieved
        trap = resolution * (values.sum() - 0.5 * (values[0] + values[-1]))
        _close(area, trap, scale * dmax, f"{algo} iteration {number} area")
        areas.append(area)
        if trainer == "ideal":
            require(achieved == jstar, f"{algo} iteration {number}: ideal trainer achieved {achieved}")
        elif trainer == "noisy":
            require(max(jstar - eta, 0) - PRINT_REL * scale <= achieved <= jstar + eta + PRINT_REL * scale,
                     f"{algo} iteration {number}: noisy achieved {achieved} outside j* +- eta")
        elif trainer == "csv":
            require(f"{curve[idx]:.6g}" == fields[2], f"{algo} iteration {number}: replayed {fields[2]}, curve has {curve[idx]:.6g}")
    err = np.abs(land - values)
    require(bool((err <= PRINT_REL * np.maximum(np.abs(values), scale)).all()),
             f"{algo}: landscape at {grid[int(np.argmax(err))]:.6g} is {land[int(np.argmax(err))]!r}, "
             f"rebuilt {values[int(np.argmax(err))]!r}")
    trap = resolution * (land.sum() - 0.5 * (land[0] + land[-1]))
    out = stdout.strip().split(",")
    require(len(out) == 4 and out[0] == algo and int(out[1]) == len(its), f"run summary {stdout!r}")
    _close(float(out[2]), areas[-1], scale * dmax, f"{algo} summary area")
    _close(float(out[2]), trap, scale * dmax, f"{algo} landscape trapezoid")
    _close(float(out[3]), float(land.mean()), scale, f"{algo} mean performance")
    if algo in ("gttl", "rttl", "exhaustive"):
        require(len(set(picks)) == len(picks), f"{algo} picked a grid point twice")
    if trainer != "ideal":
        return
    full = dmax * jstar
    tol = PRINT_REL * full
    require(all(b >= a - tol for a, b in zip(areas, areas[1:])), f"{algo}: area decreased")
    require(areas[-1] <= full + tol, f"{algo}: area {areas[-1]} above W*j* = {full}")
    if algo == "gttl":
        require(len(its) == budget, f"gttl made {len(its)} picks, budget {budget}")
        for k, area in enumerate(areas[:16], start=1):
            require(area >= ghost_cell(theta, dmax, k) - tol,
                     f"gttl k={k}: area {area} below the ghost-cell bound {ghost_cell(theta, dmax, k)}")
    elif algo == "cttl":
        require(abs(areas[-1] - cttl_area(theta, dmax, budget)) <= resolution * jstar + tol,
                 f"cttl area {areas[-1]} not within a cell of {cttl_area(theta, dmax, budget)}")
    elif algo == "rttl":
        require(len(its) == budget, f"rttl made {len(its)} picks, budget {budget}")
    elif algo == "exhaustive":
        require(len(its) == n and abs(areas[-1] - full) <= tol, f"exhaustive area {areas[-1]}, expected {full}")
