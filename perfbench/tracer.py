"""In-memory tracing of the program's layers, installed from outside.

`Tracer.install()` replaces each traced public function at every module
attribute (or class attribute, for methods) that binds it, so calls made
through those names are timed; `restore()` puts the originals back. No file
of the program changes. A function the program no longer has is listed in
`missing`; run.py reports each one and marks the run as not correct, since
its metrics would read 0.

Layer-boundary calls become spans: name, start, end, self time, parent span
and op id. Calls made many times per op (one simulation step, one policy
call, the landscape and closed-form functions that the selectors call once
per grid cell or segment) keep only per-op call counts and busy time, so a
traced op records hundreds of spans, not hundreds of thousands.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

_perf = time.perf_counter

# (module, attribute, span name, kind); kind is "span" or "count".
_FUNCTIONS = [
    ("cli", "main", "cli.main", "span"),
    *[("selectors", f, "selectors.run", "span")
      for f in ("run_selector", "run_gttl", "run_cttl", "run_rttl", "run_exhaustive")],
    ("selectors", "find_greedy_transfer_point", "selectors.pick", "span"),
    ("oracle", "exhaustive_best", "oracle.exhaustive_best", "span"),
    ("oracle", "best_marginal_cell", "oracle.best_marginal_cell", "span"),
    ("oracle", "greedy_vs_oracle", "oracle.greedy_vs_oracle", "span"),
    ("trainers", "load_csv_landscape", "trainers.csv_load", "span"),
    ("ringsim", "train_and_measure", "ringsim.train", "span"),
    ("ringsim", "simulate", "ringsim.rollout", "span"),
    ("ringsim", "step", "ringsim.step", "count"),
    *[("landscape", f, f"landscape.{f}", "count") for f in ("apply_transfer", "aggregate_area", "segments")],
    *[("theory", f, "theory", "count") for f in (
        "full_area", "split_point", "optimal_pick_and_gain", "ghost_cell_lower_bound",
        "steps_to_cover", "cttl_optimal_area", "suboptimality_bound", "bound_report")],
]
# (module, class, method, name, kind)
_METHODS = [
    *[("trainers", c, "evaluate", "trainers.evaluate", "span")
      for c in ("IdealTrainer", "DecayingTrainer", "NoisyTrainer", "CsvReplayTrainer", "RingTrainer")],
    ("ringsim", "LinearSpeedPolicy", "__call__", "ringsim.policy", "count"),
]
_MODULES = ("cli", "landscape", "selectors", "theory", "oracle", "trainers", "ringsim")

PER_LAYER = [
    ("cli.main_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("selectors.run_calls", "count", "lower"),
    ("selectors.run_s", "s", "lower"),
    ("selectors.pick_calls", "count", "lower"),
    ("selectors.pick_us", "us", "lower"),
    ("selectors.pick_apply_transfer_calls", "count", "lower"),
    ("landscape.apply_transfer_calls", "count", "lower"),
    ("landscape.apply_transfer_us", "us", "lower"),
    ("landscape.aggregate_area_calls", "count", "lower"),
    ("landscape.aggregate_area_us", "us", "lower"),
    ("landscape.segments_calls", "count", "lower"),
    ("landscape.segments_us", "us", "lower"),
    ("landscape.segments_per_call", "count", "lower"),
    ("theory.calls", "count", "lower"),
    ("theory.busy_s", "s", "lower"),
    ("oracle.exhaustive_best_calls", "count", "lower"),
    ("oracle.exhaustive_best_s", "s", "lower"),
    ("oracle.subsets_evaluated", "count", "lower"),
    ("oracle.best_marginal_cell_calls", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("trainers.evaluate_calls", "count", "lower"),
    ("trainers.evaluate_us", "us", "lower"),
    ("trainers.csv_load_s", "s", "lower"),
    ("ringsim.train_calls", "count", "lower"),
    ("ringsim.train_s", "s", "lower"),
    ("ringsim.rollouts", "count", "lower"),
    ("ringsim.rollout_s", "s", "lower"),
    ("ringsim.collided_rollouts", "count", "lower"),
    ("ringsim.useful_rollout_ratio", "ratio", "higher"),
    ("ringsim.steps", "count", "lower"),
    ("ringsim.step_us", "us", "lower"),
    ("ringsim.steps_per_s", "1/s", "higher"),
    ("ringsim.policy_calls", "count", "lower"),
    ("ringsim.policy_us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans_per_op", "count", "lower"),
]


class _Frame:
    __slots__ = ("span_id", "start", "child")

    def __init__(self, span_id, start):
        self.span_id = span_id
        self.start = start
        self.child = 0.0


class Tracer:
    """Spans and counters for the ops run between install() and restore()."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules
        self.op = None
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end, self_s, attrs)
        self.calls = defaultdict(int)        # name -> calls
        self.outer_calls = defaultdict(int)  # name -> calls not nested in the same name
        self.busy = defaultdict(float)       # name -> seconds of those outer calls
        self.layer_busy = defaultdict(float) # layer -> seconds not nested in the same layer
        self.extra = defaultdict(float)      # derived counters
        self._stack: list[_Frame] = []
        self._depth = defaultdict(int)       # name or layer -> open calls
        self._next_id = 0
        self._leaf_depth = 0
        self._patches: list[tuple] = []
        self.missing: list[str] = []  # traced functions the program no longer has
        self.t0 = _perf()

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, attrs_of=None):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._depth[name] == 0
            outer_layer = self._depth[layer] == 0
            self._depth[name] += 1
            self._depth[layer] += 1
            frame = _Frame(self._next_id, _perf())
            self._next_id += 1
            parent = self._stack[-1].span_id if self._stack else None
            self._stack.append(frame)
            attrs = {}
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            except BaseException as exc:
                attrs = {"raised": type(exc).__name__}
                raise
            finally:
                end = _perf()
                self._stack.pop()
                self._depth[name] -= 1
                self._depth[layer] -= 1
                dur = end - frame.start
                if self._stack:
                    self._stack[-1].child += dur
                self.calls[name] += 1
                if outermost:
                    self.outer_calls[name] += 1
                    self.busy[name] += dur
                if outer_layer:
                    self.layer_busy[layer] += dur
                self.spans.append((frame.span_id, parent, self.op, name, frame.start - self.t0,
                                   end - self.t0, dur - frame.child, attrs))
                if name == "ringsim.rollout" and attrs.get("raised") == "CollisionError":
                    self.extra["collided"] += 1
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = self._leaf_depth > 0
            self._leaf_depth += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - start
                self._leaf_depth -= 1
                self.calls[name] += 1
                if not nested:
                    self.busy[name] += dur
                    if self._stack:
                        self._stack[-1].child += dur
            if name == "landscape.segments":
                self.extra["segments_returned"] += len(result)
            elif name == "landscape.apply_transfer" and self._depth["selectors.pick"]:
                self.extra["pick_apply_transfer"] += 1
            return result
        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        attrs_of = {
            "oracle.exhaustive_best": lambda a, kw, r: {
                "k": a[2] if len(a) > 2 else kw.get("k"),
                "grid": a[3] if len(a) > 3 else kw.get("coarse_cells", 41),
                "subsets": getattr(r, "evaluated_count", 0),
            },
            "ringsim.train": lambda a, kw, r: {"delta": a[1]},
        }
        mods = [self.modules[m] for m in _MODULES]
        for mod_name, attr, name, kind in _FUNCTIONS:
            original = getattr(self.modules[mod_name], attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = (self._span(name, original, attrs_of.get(name)) if kind == "span"
                       else self._count(name, original))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, method, name, kind in _METHODS:
            cls = getattr(self.modules[mod_name], cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
                continue
            wrapper = self._span(name, original) if kind == "span" else self._count(name, original)
            self._patches.append((cls, method, original))
            setattr(cls, method, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict[str, float]:
        c, b, x = self.calls, self.busy, self.extra
        per = 1.0 / max(n_ops, 1)

        def us(name):
            return b[name] / c[name] * 1e6 if c[name] else 0.0

        cli_self = sum(s[6] for s in self.spans if s[3] == "cli.main")
        steps = c["ringsim.step"]
        rollouts = c["ringsim.rollout"]
        return {
            "cli.main_calls": c["cli.main"] * per,
            "cli.self_s": cli_self * per,
            "selectors.run_calls": self.outer_calls["selectors.run"] * per,
            "selectors.run_s": b["selectors.run"] * per,
            "selectors.pick_calls": c["selectors.pick"] * per,
            "selectors.pick_us": us("selectors.pick"),
            "selectors.pick_apply_transfer_calls": x["pick_apply_transfer"] * per,
            "landscape.apply_transfer_calls": c["landscape.apply_transfer"] * per,
            "landscape.apply_transfer_us": us("landscape.apply_transfer"),
            "landscape.aggregate_area_calls": c["landscape.aggregate_area"] * per,
            "landscape.aggregate_area_us": us("landscape.aggregate_area"),
            "landscape.segments_calls": c["landscape.segments"] * per,
            "landscape.segments_us": us("landscape.segments"),
            "landscape.segments_per_call": (x["segments_returned"] / c["landscape.segments"]
                                            if c["landscape.segments"] else 0.0),
            "theory.calls": c["theory"] * per,
            "theory.busy_s": b["theory"] * per,
            "oracle.exhaustive_best_calls": c["oracle.exhaustive_best"] * per,
            "oracle.exhaustive_best_s": b["oracle.exhaustive_best"] * per,
            "oracle.subsets_evaluated": sum(s[7].get("subsets", 0) for s in self.spans
                                            if s[3] == "oracle.exhaustive_best") * per,
            "oracle.best_marginal_cell_calls": c["oracle.best_marginal_cell"] * per,
            "oracle.busy_s": self.layer_busy["oracle"] * per,
            "trainers.evaluate_calls": c["trainers.evaluate"] * per,
            "trainers.evaluate_us": us("trainers.evaluate"),
            "trainers.csv_load_s": b["trainers.csv_load"] * per,
            "ringsim.train_calls": c["ringsim.train"] * per,
            "ringsim.train_s": b["ringsim.train"] * per,
            "ringsim.rollouts": rollouts * per,
            "ringsim.rollout_s": b["ringsim.rollout"] * per,
            "ringsim.collided_rollouts": x["collided"] * per,
            "ringsim.useful_rollout_ratio": (rollouts - x["collided"]) / rollouts if rollouts else 0.0,
            "ringsim.steps": steps * per,
            "ringsim.step_us": us("ringsim.step"),
            "ringsim.steps_per_s": steps / b["ringsim.rollout"] if b["ringsim.rollout"] else 0.0,
            "ringsim.policy_calls": c["ringsim.policy"] * per,
            "ringsim.policy_us": us("ringsim.policy"),
            "trace.spans_per_op": len(self.spans) * per,
        }

    def write_jsonl(self, path) -> None:
        """One JSON object per span, then one per counted function."""
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, end, self_s, attrs in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end, "self_s": self_s, **attrs}) + "\n")
            counted = {entry[-2] for entry in _FUNCTIONS + _METHODS if entry[-1] == "count"}
            for name in sorted(counted):
                fh.write(json.dumps({"counter": name, "calls": self.calls[name],
                                     "busy_s": self.busy[name]}) + "\n")
