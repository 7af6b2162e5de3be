"""Monte-Carlo experiment machinery.

One trial = one seeded world + one message routed under one algorithm.
run_trial picks the algorithm's step function once per trial and hands
it to outcomes.walk, the one trial loop, which owns the success, border
(fail_oob), hop-budget (fail_ttl, the budget being n, the world's node
count, or three times the Gabriel edge count for face routing) and
fail_stuck rules for every router. An empty world ends the trial as
fail_no_nodes before any router runs.

Reproducibility contract: every trial derives its randomness from
(master_seed, density, trial_index, stream), with separate streams for
world generation and routing decisions. A world depends on
(master_seed, density, trial_index) alone, so a sweep builds each world
once and runs every requested router on it; no router changes the world
it runs on (the links and Gabriel links it wires on demand are caches).
Nothing depends on execution order, so sweeps can fan out to worker
processes and still produce byte-identical reports.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .baselines import (
    face_route,
    greedy_step,
    inertia_only_step,
    ltp_init,
    ltp_step,
)
from .geometry import Vec2
from .outcomes import TrialOutcome, TrialStatus, walk
from .routing import MessageState, RoutingParams, Uniforms, gric_step
from .worldgen import Region, World, deploy, make_obstacle, node_count

STANDARD_REGION = Region(-5.0, 25.0, -5.0, 25.0)
SOURCE_POINT = Vec2(0.0, 10.0)
DEST_POINT = Vec2(20.0, 10.0)

# Stream tags keeping world randomness and routing randomness disjoint.
WORLD_STREAM = 0
ROUTE_STREAM = 1


class Algorithm(Enum):
    GREEDY = "greedy"
    INERTIA = "inertia"
    GRIC_MINUS = "gric-"
    GRIC_PLUS = "gric+"
    LTP = "ltp"
    FACE = "face"


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: Algorithm
    obstacle: str = "none"
    densities: tuple[float, ...] = (5.0,)
    trials_per_point: int = 1000
    master_seed: int = 0
    params: RoutingParams = RoutingParams()
    disable_out_of_bounds: bool = False
    record_path: bool = False

    def __post_init__(self) -> None:
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be at least 1")
        if not self.densities:
            raise ValueError("at least one density is required")
        for density in self.densities:
            node_count(density, STANDARD_REGION)
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")


@dataclass
class SweepRow:
    algorithm: str
    obstacle: str
    density: float
    trials: int
    success_rate: float
    median_hops: float
    median_distance: float
    fail_ttl: int
    fail_oob: int
    fail_stuck: int
    fail_no_nodes: int


@dataclass
class SweepReport:
    rows: list[SweepRow] = field(default_factory=list)


def _density_key(density: float) -> int:
    return int(round(density * 1e6))


def trial_rng(
    master_seed: int, density: float, trial_index: int, stream: int
) -> np.random.Generator:
    """Counter-based generator for one (trial, stream) pair.

    The spawn key fully determines the stream, so any subset of trials
    can be run in any order, on any worker, with identical results.
    """
    ss = np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(_density_key(density), trial_index, stream),
    )
    return np.random.Generator(np.random.Philox(ss))


def build_trial_world(
    master_seed: int, density: float, trial_index: int, obstacle_name: str
) -> World:
    rng = trial_rng(master_seed, density, trial_index, WORLD_STREAM)
    return deploy(density, STANDARD_REGION, make_obstacle(obstacle_name), rng)


def source_node(world: World) -> int:
    """Node closest to SOURCE_POINT; ties go to the smallest id."""
    d = world.positions - np.array([SOURCE_POINT.x, SOURCE_POINT.y])
    return int(np.argmin(np.einsum("ij,ij->i", d, d)))


# One factory per step-function router: (world, source, params, rng) ->
# (step, state_key). state_key, given only to a router whose moves are a
# pure function of its state, returns that state beyond the current and
# previous nodes for outcomes.walk's cycle fast-forward: nothing for
# inertia, the flag for gric-. gric+ and ltp draw from the rng (gric+
# through routing.Uniforms, which draws its thinning uniforms in
# blocks), greedy cannot revisit a node, and face routing keeps its own
# budget. Each factory looks its step function up in this module at call
# time, so the module attributes stay the hook points for wrapping them.
def _greedy(world, source, params, rng):
    return (lambda cur: greedy_step(world, cur, DEST_POINT)), None


def _inertia(world, source, params, rng):
    state = MessageState(dest_pos=DEST_POINT)
    return (lambda cur: inertia_only_step(world, cur, state, params.beta)), lambda: None


def _gric(world, source, params, rng):
    state = MessageState(dest_pos=DEST_POINT)
    draws = None if rng is None else Uniforms(rng)
    key = (lambda: state.flag) if rng is None else None
    return (lambda cur: gric_step(world, cur, state, params, draws)), key


def _ltp(world, source, params, rng):
    state = ltp_init(source)
    return (lambda cur: ltp_step(world, cur, state, DEST_POINT, rng)), None


_STEPS = {
    Algorithm.GREEDY: _greedy,
    Algorithm.INERTIA: _inertia,
    Algorithm.GRIC_MINUS: _gric,
    Algorithm.GRIC_PLUS: _gric,
    Algorithm.LTP: _ltp,
}
# Routers handed the trial's routing rng; the others get None, which
# also keeps gric- from thinning neighbors.
_RANDOMIZED = {Algorithm.GRIC_PLUS, Algorithm.LTP}


def run_trial(
    config: ExperimentConfig,
    density: float,
    trial_index: int,
    *,
    world: World | None = None,
) -> TrialOutcome:
    """One seeded world, one message, one verdict.

    world, when given, must be this trial's world as build_trial_world
    makes it; it is read, never changed, so callers can share it across
    routers.
    """
    if world is None:
        world = build_trial_world(
            config.master_seed, density, trial_index, config.obstacle
        )
    if world.n == 0:
        return TrialOutcome(TrialStatus.FAIL_NO_NODES, 0, 0.0)
    source = source_node(world)
    rules = dict(
        enforce_oob=not config.disable_out_of_bounds,
        record_path=config.record_path,
    )
    if config.algorithm is Algorithm.FACE:
        return face_route(world, source, DEST_POINT, **rules)
    rng = None
    if config.algorithm in _RANDOMIZED:
        rng = trial_rng(config.master_seed, density, trial_index, ROUTE_STREAM)
    step, key = _STEPS[config.algorithm](world, source, config.params, rng)
    return walk(world, source, DEST_POINT, step, world.n, state_key=key, **rules)


def _world_key(config: ExperimentConfig) -> tuple:
    return (
        config.obstacle,
        config.densities,
        config.trials_per_point,
        config.master_seed,
    )


def _world_task(args: tuple) -> list[TrialOutcome]:
    """Every config's trial on one (density, trial) world, built once."""
    configs, density, trial_index = args
    first = configs[0]
    world = build_trial_world(first.master_seed, density, trial_index, first.obstacle)
    return [run_trial(config, density, trial_index, world=world) for config in configs]


def _sweep_row(
    config: ExperimentConfig, density: float, outcomes: list[TrialOutcome]
) -> SweepRow:
    """Aggregate one density's trial outcomes."""
    counts = Counter(o.status for o in outcomes)
    succ = [o for o in outcomes if o.succeeded]
    nan = float("nan")
    return SweepRow(
        algorithm=config.algorithm.value,
        obstacle=config.obstacle,
        density=density,
        trials=len(outcomes),
        success_rate=len(succ) / len(outcomes),
        median_hops=float(statistics.median(o.hops for o in succ)) if succ else nan,
        median_distance=float(statistics.median(o.distance for o in succ)) if succ else nan,
        fail_ttl=counts[TrialStatus.FAIL_TTL],
        fail_oob=counts[TrialStatus.FAIL_OOB],
        fail_stuck=counts[TrialStatus.FAIL_STUCK],
        fail_no_nodes=counts[TrialStatus.FAIL_NO_NODES],
    )


def run_sweeps(
    configs: list[ExperimentConfig], workers: int = 1
) -> list[SweepReport]:
    """One report per config, every config's trials run on shared worlds.

    The configs must agree on obstacle, densities, trials_per_point and
    master_seed, which fix the worlds; they may differ in algorithm,
    params, disable_out_of_bounds and record_path. One task is one
    (density, trial) world, built once for all configs. workers > 1 fans
    the tasks out to one process pool of at most one process per task and
    per CPU this process may run on, and a pool of one runs in this
    process; the reports are byte-identical regardless, because every
    trial is self-seeded and results are folded in (config, density,
    trial_index) order.
    """
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    if any(_world_key(config) != _world_key(first) for config in configs[1:]):
        raise ValueError(
            "run_sweeps configs must share obstacle, densities, "
            "trials_per_point and master_seed"
        )
    n = first.trials_per_point
    tasks = [(configs, d, t) for d in first.densities for t in range(n)]
    # More processes than worlds or CPUs would only sit idle.
    workers = min(workers, len(tasks), _cpus())
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 8))
        with multiprocessing.Pool(processes=workers) as pool:
            per_world = pool.map(_world_task, tasks, chunksize=chunk)
    else:
        per_world = [_world_task(t) for t in tasks]
    # Tasks, and so worlds, come in (density, trial) order, n per density.
    return [
        SweepReport(
            rows=[
                _sweep_row(config, d, [w[ci] for w in per_world[di * n:(di + 1) * n]])
                for di, d in enumerate(config.densities)
            ]
        )
        for ci, config in enumerate(configs)
    ]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_sweep(config: ExperimentConfig, workers: int = 1) -> SweepReport:
    """All densities, trials_per_point trials each, aggregated per density."""
    return run_sweeps([config], workers)[0]
