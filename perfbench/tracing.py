"""Spans around the public functions of each gricsim layer.

The tracer wraps module attributes from outside the program: nothing
under src/ changes. Each span records its name, start, end, parent and
the key of the trial it belongs to; spans stay in memory until the run
ends. Constructions of geometry.Vec2 are counted against the innermost
open span rather than given spans of their own.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, KEY = range(5)

STEP_SPANS = {
    "gric_step": "routing.gric_step",
    "greedy_step": "baselines.greedy_step",
    "inertia_only_step": "baselines.inertia_only_step",
    "ltp_step": "baselines.ltp_step",
    "face_route": "baselines.face_route",
}
# Spans whose Vec2 constructions count as routing work, per hop.
HOP_SPANS = {"harness.run_trial", "routing.next_hop", *STEP_SPANS.values()}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.vec2: list[int] = []
        self.hops = 0
        self._stack: list[int] = []
        self._key = None

    def wrap(self, name, fn, *, on_enter=None, on_exit=None):
        spans, vec2, stack = self.spans, self.vec2, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            sid = len(spans)
            spans.append(None)
            vec2.append(0)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._key)
            if on_exit is not None:
                on_exit(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        from gricsim import baselines, geometry, harness, routing, worldgen

        def enter_trial(args):
            config, density, trial = args
            self._key = (config.algorithm.value, config.master_seed, density, trial)

        def exit_trial(outcome):
            self.hops += outcome.hops
            self._key = None

        def count_vec2(obj, x, y):
            if self._stack:
                self.vec2[self._stack[-1]] += 1
            vec2_init(obj, x, y)

        gabriel = worldgen.World.gabriel_edges

        def gabriel_edges(world):
            # Only a world's first call builds the subgraph; later calls
            # read the cache and get no span.
            if world._gabriel_edges is None:
                return traced_gabriel(world)
            return gabriel(world)

        traced_gabriel = self.wrap("worldgen.gabriel_edges", gabriel)
        patches = [
            (harness, "deploy", self.wrap("worldgen.deploy", harness.deploy)),
            (harness, "run_sweep", self.wrap("harness.run_sweep", harness.run_sweep)),
            (
                harness,
                "run_trial",
                self.wrap(
                    "harness.run_trial",
                    harness.run_trial,
                    on_enter=enter_trial,
                    on_exit=exit_trial,
                ),
            ),
            (routing, "next_hop", self.wrap("routing.next_hop", routing.next_hop)),
            (baselines, "next_hop", self.wrap("routing.next_hop", baselines.next_hop)),
            (worldgen.World, "gabriel_edges", gabriel_edges),
            (geometry.Vec2, "__init__", count_vec2),
        ]
        patches += [
            (harness, attr, self.wrap(name, getattr(harness, attr)))
            for attr, name in STEP_SPANS.items()
        ]
        vec2_init = geometry.Vec2.__init__
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)

    def durations(self) -> dict[str, dict[str, list[float]]]:
        """Inclusive and self durations in ms, keyed by span name."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out: dict[str, dict[str, list[float]]] = {}
        for s, kids in zip(self.spans, child_ns):
            d = out.setdefault(s[NAME], {"total": [], "self": []})
            d["total"].append((s[END] - s[START]) / 1e6)
            d["self"].append((s[END] - s[START] - kids) / 1e6)
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) per layer metric; 0 for a layer never called."""
        d = self.durations()

        def calls(name):
            return len(d.get(name, {"total": []})["total"])

        def mean(name, kind="total", scale=1.0):
            vals = d.get(name, {kind: []})[kind]
            return scale * statistics.fmean(vals) if vals else 0.0

        trial_ms = d.get("harness.run_trial", {"total": []})["total"]
        p = statistics.quantiles(trial_ms, n=10) if len(trial_ms) > 1 else [0.0] * 9
        hop_vec2 = sum(
            v for s, v in zip(self.spans, self.vec2) if s[NAME] in HOP_SPANS
        )
        return {
            "worldgen.deploy_calls": (calls("worldgen.deploy"), "count"),
            "worldgen.deploy_ms": (mean("worldgen.deploy"), "ms/world"),
            "worldgen.gabriel_calls": (calls("worldgen.gabriel_edges"), "count"),
            "worldgen.gabriel_ms": (mean("worldgen.gabriel_edges"), "ms/world"),
            "routing.gric_step_calls": (calls("routing.gric_step"), "count"),
            "routing.gric_step_us": (mean("routing.gric_step", scale=1e3), "us/call"),
            "routing.next_hop_us": (mean("routing.next_hop", scale=1e3), "us/call"),
            "geometry.vec2_per_hop": (
                hop_vec2 / self.hops if self.hops else 0.0,
                "count/hop",
            ),
            "baselines.inertia_only_step_us": (
                mean("baselines.inertia_only_step", scale=1e3),
                "us/call",
            ),
            "baselines.greedy_step_us": (mean("baselines.greedy_step", scale=1e3), "us/call"),
            "baselines.ltp_step_us": (mean("baselines.ltp_step", scale=1e3), "us/call"),
            "baselines.face_route_self_ms": (mean("baselines.face_route", "self"), "ms/call"),
            "harness.run_trial_ms.p50": (p[4], "ms"),
            "harness.run_trial_ms.p90": (p[8], "ms"),
            "harness.trial_loop_self_ms": (mean("harness.run_trial", "self"), "ms/trial"),
            "harness.run_sweep_self_ms": (mean("harness.run_sweep", "self"), "ms/run"),
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (s, v) in enumerate(zip(self.spans, self.vec2)):
                row = {
                    "id": sid,
                    "parent": s[PARENT],
                    "name": s[NAME],
                    "start_ns": s[START],
                    "end_ns": s[END],
                    "key": s[KEY],
                }
                if v:
                    row["vec2"] = v
                fh.write(json.dumps(row) + "\n")
