"""Experiment harness: seeding discipline, trial rules, aggregation."""

import gc
import hashlib
import math
import os
import statistics
from dataclasses import replace

import numpy as np
import pytest
from conftest import degenerate_worlds, lexsort_adjacency, make_world, record_pools
from hypothesis import given, settings
from hypothesis import strategies as st

import vec2_routers
from gricsim import baselines, harness, routing, worldgen
from gricsim.harness import (
    DEST_POINT,
    ROUTE_STREAM,
    SOURCE_POINT,
    STANDARD_REGION,
    WORLD_STREAM,
    Algorithm,
    ExperimentConfig,
    SweepReport,
    SweepRow,
    build_trial_world,
    run_sweep,
    run_sweeps,
    run_trial,
    source_node,
    trial_rng,
)
from gricsim.geometry import Vec2, ZeroVector
from gricsim.outcomes import TrialStatus, walk
from gricsim.routing import MessageState, RoutingParams, Uniforms, gric_step, next_hop
from gricsim.worldgen import (
    COMM_RADIUS,
    OBSTACLE_NAMES,
    Region,
    deploy,
    make_obstacle,
)
from vec2_geometry import distance


class TestExperimentFrame:
    def test_standard_geometry(self):
        assert STANDARD_REGION.width == 30.0
        assert STANDARD_REGION.height == 30.0
        assert (SOURCE_POINT.x, SOURCE_POINT.y) == (0.0, 10.0)
        assert (DEST_POINT.x, DEST_POINT.y) == (20.0, 10.0)

    def test_algorithm_names(self):
        assert [a.value for a in Algorithm] == [
            "greedy",
            "inertia",
            "gric-",
            "gric+",
            "ltp",
            "face",
        ]


class TestConfigValidation:
    def test_defaults_pass(self):
        ExperimentConfig(algorithm=Algorithm.GREEDY)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm=Algorithm.GREEDY, trials_per_point=0)

    def test_rejects_empty_densities(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm=Algorithm.GREEDY, densities=())

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm=Algorithm.GREEDY, densities=(-1.0,))

    @pytest.mark.parametrize("density", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_density(self, density):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm=Algorithm.GREEDY, densities=(2.0, density))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm=Algorithm.GREEDY, master_seed=-1)


class TestSeeding:
    def test_trial_rng_reproducible(self):
        a = trial_rng(0, 5.0, 3, ROUTE_STREAM).random(8)
        b = trial_rng(0, 5.0, 3, ROUTE_STREAM).random(8)
        assert np.array_equal(a, b)

    def test_streams_are_independent(self):
        a = trial_rng(0, 5.0, 3, WORLD_STREAM).random(8)
        b = trial_rng(0, 5.0, 3, ROUTE_STREAM).random(8)
        assert not np.array_equal(a, b)

    def test_trials_differ(self):
        a = trial_rng(0, 5.0, 3, WORLD_STREAM).random(8)
        b = trial_rng(0, 5.0, 4, WORLD_STREAM).random(8)
        assert not np.array_equal(a, b)

    def test_worlds_shared_across_algorithms(self):
        # The same (seed, density, trial) triple gives the same world no
        # matter which router later runs on it: paired comparisons.
        a = build_trial_world(0, 3.0, 7, "stripe")
        b = build_trial_world(0, 3.0, 7, "stripe")
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.edges.tobytes() == b.edges.tobytes()

    def test_worlds_differ_across_trials(self):
        a = build_trial_world(0, 3.0, 0, "none")
        b = build_trial_world(0, 3.0, 1, "none")
        assert a.positions.tobytes() != b.positions.tobytes()


class TestSourceNode:
    def test_nearest_to_source_point(self):
        w = build_trial_world(0, 2.0, 0, "none")
        got = source_node(w)
        dists = np.hypot(
            w.positions[:, 0] - SOURCE_POINT.x,
            w.positions[:, 1] - SOURCE_POINT.y,
        )
        assert got == int(np.argmin(dists))


class TestRunTrial:
    def config(self, algorithm, **kw):
        kw.setdefault("densities", (2.0,))
        kw.setdefault("trials_per_point", 1)
        return ExperimentConfig(algorithm=algorithm, **kw)

    def test_no_nodes_status(self):
        cfg = self.config(Algorithm.GREEDY, densities=(0.0,))
        out = run_trial(cfg, 0.0, 0)
        assert out.status is TrialStatus.FAIL_NO_NODES

    def test_deterministic_repeat(self):
        for algo in Algorithm:
            cfg = self.config(algo)
            a = run_trial(cfg, 2.0, 5)
            b = run_trial(cfg, 2.0, 5)
            assert a.status is b.status
            assert a.hops == b.hops
            assert a.distance == b.distance

    def test_path_recording_invariants(self):
        for algo in Algorithm:
            cfg = self.config(algo, record_path=True, densities=(4.0,))
            for trial in range(6):
                out = run_trial(cfg, 4.0, trial)
                if out.status is TrialStatus.FAIL_NO_NODES:
                    continue
                assert out.path is not None
                assert len(out.path) == out.hops + 1
                total = sum(
                    distance(out.path[i + 1], out.path[i])
                    for i in range(len(out.path) - 1)
                )
                assert total == pytest.approx(out.distance)

    def test_hop_length_bounded_by_radio_radius(self):
        cfg = self.config(Algorithm.GRIC_PLUS, record_path=True,
                          densities=(4.0,))
        out = run_trial(cfg, 4.0, 0)
        for i in range(len(out.path) - 1):
            assert distance(out.path[i + 1], out.path[i]) <= COMM_RADIUS + 1e-12

    def test_success_means_in_radio_range(self):
        cfg = self.config(Algorithm.GREEDY, record_path=True,
                          densities=(5.0,))
        done = 0
        for trial in range(10):
            out = run_trial(cfg, 5.0, trial)
            if out.succeeded:
                assert distance(out.path[-1], DEST_POINT) < COMM_RADIUS
                done += 1
        assert done > 0

    def test_ttl_budget_is_node_count(self):
        # A looping router on a sparse world must stop at n hops.
        cfg = self.config(Algorithm.INERTIA, densities=(2.0,))
        checked = 0
        for trial in range(20):
            out = run_trial(cfg, 2.0, trial)
            if out.status is TrialStatus.FAIL_TTL:
                w = build_trial_world(0, 2.0, trial, "none")
                assert out.hops == w.n + 1
                checked += 1
        assert checked > 0

    def test_coincident_nodes_give_a_defined_status(self):
        # Node 1 sits on the source node, so a router that hops there has
        # no travel direction left (a ZeroVector): that is fail_stuck,
        # never an exception that would end the whole sweep.
        world = make_world(
            [[0.0, 10.0], [0.0, 10.0], [-0.5, 10.0]],
            [(0, 1), (0, 2), (1, 2)],
            region=STANDARD_REGION,
        )
        for algo in Algorithm:
            out = run_trial(self.config(algo), 2.0, 0, world=world)
            assert out.status is TrialStatus.FAIL_STUCK, algo
        for algo in (Algorithm.INERTIA, Algorithm.GRIC_MINUS, Algorithm.GRIC_PLUS):
            assert run_trial(self.config(algo), 2.0, 0, world=world).hops == 1

    def test_shared_world_gives_fresh_world_outcomes(self):
        # Routers run one after another on one world must each see what
        # they would see on a freshly built world, in either order, and
        # leave the world as they found it.
        for trial, order in enumerate((list(Algorithm), list(reversed(Algorithm)))):
            world = build_trial_world(0, 4.0, trial, "concave1")
            positions = world.positions.tobytes()
            for algo in order:
                cfg = self.config(
                    algo, obstacle="concave1", densities=(4.0,), record_path=True
                )
                shared = run_trial(cfg, 4.0, trial, world=world)
                assert shared == run_trial(cfg, 4.0, trial), (algo, trial)
            assert world.positions.tobytes() == positions
            # The only cache writes: per-node neighbour and Gabriel lists,
            # which equal the whole-graph views of a fresh world.
            assert world._edges is None and world._gabriel_edges is None
            fresh = build_trial_world(0, 4.0, trial, "concave1")
            wired = [i for i in range(world.n) if world._neighbors[i] is not None]
            planar = [i for i in range(world.n) if world._gabriel[i] is not None]
            assert wired and planar
            links = lexsort_adjacency(fresh.n, fresh.edges)
            for i in wired:
                assert world._neighbors[i] == links[i].tolist()
            links = lexsort_adjacency(fresh.n, fresh.gabriel_edges())
            for i in planar:
                assert world._gabriel[i] == links[i].tolist()

    def test_epsilon_zero_collapses_randomized_variant(self):
        params = RoutingParams(epsilon=0.0)
        for trial in range(15):
            a = run_trial(
                self.config(Algorithm.GRIC_MINUS, params=params,
                            record_path=True, densities=(3.0,)),
                3.0, trial,
            )
            b = run_trial(
                self.config(Algorithm.GRIC_PLUS, params=params,
                            record_path=True, densities=(3.0,)),
                3.0, trial,
            )
            assert a.status is b.status
            assert a.hops == b.hops
            assert [(p.x, p.y) for p in a.path] == [
                (p.x, p.y) for p in b.path
            ]


# Hand-built worlds in the standard frame, source (0, 10) and destination
# (20, 10). CHAIN runs west from the source away from the destination:
# every router but greedy and ltp paces it back and forth forever. STAR
# hangs three dead ends, each closer to the destination than the source,
# off the source: ltp forwards into and backs out of each in turn.
CHAIN = ([(-0.9 * i, 10.0) for i in range(5)], [(i, i + 1) for i in range(4)])
STAR = ([(0, 10), (0.5, 10.6), (0.6, 10), (0.5, 9.4)], [(0, 1), (0, 2), (0, 3)])


class TestLoopRules:
    """The rules of outcomes.walk, as every router meets them."""

    @staticmethod
    def trial(algo, points, edges, **kw):
        world = make_world(points, edges, region=STANDARD_REGION)
        cfg = ExperimentConfig(algorithm=algo, densities=(2.0,), **kw)
        return world, run_trial(cfg, 2.0, 0, world=world)

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_source_in_delivery_range(self, algo):
        _, out = self.trial(algo, [(19.5, 10), (20.4, 10)], [(0, 1)])
        assert (out.status, out.hops) == (TrialStatus.SUCCESS, 0)

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_source_at_the_border(self, algo):
        # The source sits exactly COMM_RADIUS from the west border, which
        # the rule counts as contact.
        points, edges = [(-4.0, 10), (-4.0, 10.9)], [(0, 1)]
        _, out = self.trial(algo, points, edges)
        assert (out.status, out.hops) == (TrialStatus.FAIL_OOB, 0)
        _, out = self.trial(algo, points, edges, disable_out_of_bounds=True)
        assert out.status is not TrialStatus.FAIL_OOB

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_isolated_source(self, algo):
        _, out = self.trial(algo, [(0, 10), (0.5, 10)], [])
        assert (out.status, out.hops) == (TrialStatus.FAIL_STUCK, 0)

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_budget_exhausted(self, algo, monkeypatch):
        if algo is Algorithm.GREEDY:
            # Greedy only ever moves strictly closer, so it cannot outlast
            # a budget of n by itself; a pacing stand-in for its step
            # shows the loop applies the budget to greedy's trials too.
            monkeypatch.setattr(harness, "greedy_step", lambda w, cur, d: 1 - cur)
        if algo is Algorithm.FACE:
            # Face walks round the chain and ends stuck well within its
            # budget, 3E = 12 > n; a pacing stand-in shows that face_route
            # applies that budget, past n.
            monkeypatch.setattr(baselines, "face_step", lambda w, s, d: lambda cur: 1 - cur)
        world, out = self.trial(algo, *(STAR if algo is Algorithm.LTP else CHAIN))
        budget = world.n
        if algo is Algorithm.FACE:
            budget = 3 * len(world.gabriel_edges())
            assert budget > world.n
        assert (out.status, out.hops) == (TrialStatus.FAIL_TTL, budget + 1)


def plain_trial(config, world):
    """run_trial with the cycle fast-forward off: the same step function,
    walked by outcomes.walk with state_key=None. For the routers that take
    no rng (gric- and inertia)."""
    source = source_node(world)
    step, _ = harness._STEPS[config.algorithm](world, source, config.params, None)
    return walk(
        world, source, DEST_POINT, step, world.n,
        enforce_oob=not config.disable_out_of_bounds,
        record_path=config.record_path,
    )


def trail(out):
    return (out.status, out.hops, out.distance.hex(), out.path)


KEYED = (Algorithm.GRIC_MINUS, Algorithm.INERTIA)

# A ring the inertia router walks forever: source 0 -> 1 -> 2 -> 0 -> 1 ...
# with legs of two lengths. The message revisits its source with previous
# node 2, a state unlike the first visit's, which had none.
RING = ([(0.0, 10.0), (0.9, 10.0), (0.45, 10.7)], [(0, 1), (1, 2), (0, 2)])


class TestCycleFastForward:
    """walk's fast-forward against the plain walk it shortens."""

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_matches_the_plain_walk(self, obstacle):
        fired = {algo: 0 for algo in KEYED}
        for density in (2.0, 4.0, 8.0):
            for trial in range(2):
                world = build_trial_world(11, density, trial, obstacle)
                for algo in KEYED:
                    cfg = ExperimentConfig(
                        algorithm=algo, obstacle=obstacle, densities=(density,),
                        master_seed=11, record_path=True,
                    )
                    fast = run_trial(cfg, density, trial, world=world)
                    plain = plain_trial(cfg, world)
                    assert plain.cycle_start is plain.cycle_len is None
                    assert replace(fast, cycle_start=None, cycle_len=None) == plain
                    assert trail(fast) == trail(plain)
                    if fast.cycle_start is not None:
                        fired[algo] += 1
                        s, n = fast.cycle_start, fast.cycle_len
                        assert fast.status is TrialStatus.FAIL_TTL
                        assert plain.path[s:s + n] == plain.path[s + n:s + 2 * n]
        assert all(fired.values()), fired

    @pytest.mark.parametrize("algo", KEYED)
    def test_two_node_ping_pong(self, algo):
        world = make_world([(0.0, 10.0), (0.3, 10.0)], [(0, 1)], region=STANDARD_REGION)
        step, key = harness._STEPS[algo](world, 0, RoutingParams(), None)
        ttl = 10_001
        out = walk(world, 0, DEST_POINT, step, ttl, record_path=True, state_key=key)
        leg = distance(world.pos(1), world.pos(0))
        dist = 0.0
        for _ in range(ttl + 1):
            dist += leg
        assert (out.status, out.hops) == (TrialStatus.FAIL_TTL, ttl + 1)
        assert out.distance.hex() == dist.hex()
        assert out.path == [world.pos(h % 2) for h in range(ttl + 2)]
        assert out.cycle_len == 2

    @pytest.mark.parametrize("algo", KEYED)
    def test_cycle_through_the_source(self, algo):
        # Every budget from before the first repeat to well past it, so
        # the fast-forward ends at every phase of the cycle.
        world = make_world(*RING, region=STANDARD_REGION)
        for ttl in [*range(12), 1000, 1001, 1002]:
            runs = []
            for with_key in (True, False):
                step, key = harness._STEPS[algo](world, 0, RoutingParams(), None)
                runs.append(
                    walk(world, 0, DEST_POINT, step, ttl, record_path=True,
                         state_key=key if with_key else None)
                )
            fast, plain = runs
            assert trail(fast) == trail(plain), ttl
            assert (fast.status, fast.hops) == (TrialStatus.FAIL_TTL, ttl + 1)
        nodes = [world.positions.tolist().index([p.x, p.y]) for p in fast.path]
        assert 0 in nodes[1:]
        if algo is Algorithm.INERTIA:
            # (source, no previous node) never recurs: the first repeated
            # state is the one after it.
            assert nodes[:8] == [0, 1, 2, 0, 1, 2, 0, 1]
            assert (fast.cycle_start, fast.cycle_len) == (1, 3)


def assert_same_outcome(got, want, label):
    """Whole TrialOutcomes equal, the distance down to its bits."""
    assert got == want, label
    assert got.distance.hex() == want.distance.hex(), label


class TestFloatRouters:
    """The float step loop against the Vec2 routers kept in vec2_routers."""

    @staticmethod
    def config(algo, density=2.0, **kw):
        kw.setdefault("record_path", True)
        return ExperimentConfig(algorithm=algo, densities=(density,), **kw)

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_match_the_vec2_routers(self, obstacle):
        for density in (2.0, 4.0, 8.0):
            world = build_trial_world(13, density, 1, obstacle)
            for algo in Algorithm:
                cfg = self.config(algo, density, obstacle=obstacle, master_seed=13)
                got = run_trial(cfg, density, 1, world=world)
                want = vec2_routers.trial(cfg, density, 1, world)
                assert_same_outcome(got, want, (algo, density))

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_degenerate_worlds(self, algo):
        worlds = {
            # Node 1 sits on the source: a hop there leaves no travel
            # direction (ZeroVector), which ends the trial fail_stuck.
            "coincident": ([(0.0, 10.0), (0.0, 10.0), (-0.5, 10.0)],
                           [(0, 1), (0, 2), (1, 2)]),
            # The source has no link at all (Stuck).
            "isolated": ([(0.0, 10.0), (0.5, 10.0), (1.0, 10.0)], [(1, 2)]),
            # The source's one link, 1.1 long, leads to a node exactly at
            # the destination.
            "at destination": ([(18.9, 10.0), (20.0, 10.0), (20.5, 10.0)],
                               [(0, 1), (1, 2)]),
            # Nodes 1 and 2 project equally on the source's heading, which
            # is due east: the tie goes to the lower id.
            "tie": ([(0.0, 10.0), (0.5, 9.5), (0.5, 10.5), (-0.5, 10.0)],
                    [(0, 1), (0, 2), (0, 3)]),
        }
        for name, (points, edges) in worlds.items():
            world = make_world(points, edges, region=STANDARD_REGION)
            for enforce in (True, False):
                cfg = self.config(algo, disable_out_of_bounds=not enforce)
                got = run_trial(cfg, 2.0, 0, world=world)
                want = vec2_routers.trial(cfg, 2.0, 0, world)
                assert_same_outcome(got, want, (name, enforce))
        world = make_world(*worlds["tie"], region=STANDARD_REGION)
        assert next_hop(world, 0, 1.0, 0.0) == 1
        for draws in (None, Uniforms(np.random.default_rng(3))):
            state = MessageState(dest_pos=DEST_POINT)
            assert gric_step(world, 0, state, RoutingParams(epsilon=1e-9), draws) == 1

    def test_face_on_sparse_worlds(self):
        # Sparse worlds where the destination is often cut off, so face
        # walks restart their face and end stuck after a whole loop.
        region = Region(0.0, 10.0, 0.0, 10.0)
        dest = Vec2(9.5, 5.0)
        for k in range(40):
            density = 0.8 + 2.0 * (k % 20) / 19.0
            world = deploy(density, region, make_obstacle("none"), 50_000 + k)
            d = np.hypot(world.positions[:, 0] - 0.5, world.positions[:, 1] - 5.0)
            source = int(np.argmin(d))
            got = baselines.face_route(
                world, source, dest, enforce_oob=False, record_path=True
            )
            want = vec2_routers.walk(
                world, source, dest, vec2_routers.face_step(world, source, dest),
                3 * len(world.gabriel_edges()), enforce_oob=False, record_path=True,
            )
            assert_same_outcome(got, want, k)

    def test_face_budget_fallback(self):
        # Face walks this six-node cluster for 22 hops before it ends
        # stuck, more than three times its 5 Gabriel edges; twelve
        # isolated nodes make n = 18 > 3E. The first walk, with budget n,
        # runs past the bound the Gabriel lists it read give, so face_route
        # builds the whole Gabriel subgraph and walks again with budget 3E.
        cluster = [(1.2, 5.9), (2.1, 5.1), (1.8, 5.9), (1.9, 5.3), (1.8, 4.5), (2.8, 5.8)]
        isolated = [(5.0 + 1.5 * (i % 4), 1.0 + 1.5 * (i // 4)) for i in range(12)]
        positions = np.array(cluster + isolated)
        region = Region(0.0, 10.0, 0.0, 10.0)
        dest = Vec2(9.5, 5.0)
        for edges in (worldgen._wire(positions, ()), None):
            world = worldgen.World(region, make_obstacle("none"), positions, edges)
            got = baselines.face_route(
                world, 0, dest, enforce_oob=False, record_path=True
            )
            assert len(world.gabriel_edges()) == 5
            assert (got.status, got.hops) == (TrialStatus.FAIL_TTL, 3 * 5 + 1)
            want = vec2_routers.walk(
                world, 0, dest, vec2_routers.face_step(world, 0, dest),
                3 * 5, enforce_oob=False, record_path=True,
            )
            assert_same_outcome(got, want, edges is None)

    def test_face_budget_is_three_times_the_gabriel_edges(self):
        # Open field, d=1.5, border rule off, seed 3: n = 1350 on every
        # trial, and five of trials 0-39 walk more than n hops. Under a
        # budget of min(n, 3E) they ended fail_ttl (17 delivered, 18
        # stuck, 5 fail_ttl); with 3E alone one is delivered and four end
        # stuck after a whole face loop.
        cfg = self.config(Algorithm.FACE, 1.5, master_seed=3,
                          disable_out_of_bounds=True, record_path=False)
        statuses = []
        for trial in range(40):
            world = build_trial_world(3, 1.5, trial, "none")
            got = run_trial(cfg, 1.5, trial, world=world)
            assert_same_outcome(got, vec2_routers.trial(cfg, 1.5, trial, world), trial)
            if got.hops > world.n:
                assert (trial, got.status, got.hops) in {
                    (6, TrialStatus.SUCCESS, 1618),
                    (14, TrialStatus.FAIL_STUCK, 1629),
                    (20, TrialStatus.FAIL_STUCK, 1466),
                    (28, TrialStatus.FAIL_STUCK, 1748),
                    (29, TrialStatus.FAIL_STUCK, 1351),
                }
            statuses.append(got.status)
        assert statuses.count(TrialStatus.SUCCESS) == 18
        assert statuses.count(TrialStatus.FAIL_STUCK) == 22

    def test_steps_at_the_destination_raise_like_the_vec2_steps(self):
        world = make_world([(20.0, 10.0), (20.5, 10.0)], [(0, 1)], region=STANDARD_REGION)
        for prev in (None, (19.5, 10.0)):
            with pytest.raises(ZeroVector):
                gric_step(world, 0, MessageState(DEST_POINT, prev), RoutingParams())
            with pytest.raises(ZeroVector):
                baselines.inertia_only_step(world, 0, MessageState(DEST_POINT, prev), 0.2)
            old = vec2_routers.VecState(DEST_POINT, None if prev is None else Vec2(*prev))
            with pytest.raises(ZeroVector):
                vec2_routers.gric_step(world, 0, old, RoutingParams())
            with pytest.raises(ZeroVector):
                vec2_routers.inertia_only_step(world, 0, old, 0.2)


    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_no_vec2_per_hop_without_a_path(self, algo, monkeypatch):
        world = build_trial_world(13, 4.0, 0, "concave1")
        world.gabriel_edges()
        built = []
        init = Vec2.__init__
        monkeypatch.setattr(Vec2, "__init__", lambda v, x, y: built.append(1) or init(v, x, y))
        out = run_trial(self.config(algo, 4.0, obstacle="concave1", master_seed=13,
                                    record_path=False), 4.0, 0, world=world)
        assert out.hops > 0 and built == []


class TestTracerHooks:
    """perfbench/tracing.py wraps these module attributes from outside."""

    def test_hook_attributes_exist(self):
        assert callable(routing.__dict__["next_hop"])
        assert baselines.__dict__["next_hop"] is routing.next_hop
        for attr in ("deploy", "run_trial", "run_sweep", "gric_step", "greedy_step",
                     "inertia_only_step", "ltp_step", "face_route"):
            assert callable(harness.__dict__[attr]), attr
        assert callable(worldgen.World.__dict__["gabriel_edges"])
        assert build_trial_world(2, 2.0, 0, "stripe")._gabriel_edges is None

    @pytest.mark.parametrize("algo", [Algorithm.GRIC_PLUS, Algorithm.INERTIA])
    def test_every_hop_goes_through_the_wrapped_attributes(self, algo, monkeypatch):
        calls = {"step": 0, "next_hop": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        step = "gric_step" if algo is Algorithm.GRIC_PLUS else "inertia_only_step"
        module = routing if algo is Algorithm.GRIC_PLUS else baselines
        monkeypatch.setattr(harness, step, counted(getattr(harness, step), "step"))
        monkeypatch.setattr(module, "next_hop", counted(module.next_hop, "next_hop"))
        cfg = ExperimentConfig(algorithm=algo, densities=(4.0,), master_seed=2)
        out = run_trial(cfg, 4.0, 0)
        assert out.hops > 5 and out.cycle_start is None
        assert calls == {"step": out.hops, "next_hop": out.hops}


def test_a_trial_leaves_the_collector_little_to_track():
    # A world keeps its coordinates in two flat lists of floats, which the
    # garbage collector does not track: deploying a world and routing a
    # gric+ trial on it adds a few objects per node the trial wired, not
    # one per node of the world.
    cfg = ExperimentConfig(algorithm=Algorithm.GRIC_PLUS, densities=(3.0,))
    run_trial(cfg, 3.0, 1)  # first-call caches stay out of the count
    gc.collect()
    before = len(gc.get_objects())
    world = build_trial_world(cfg.master_seed, 3.0, 0, "none")
    out = run_trial(cfg, 3.0, 0, world=world)
    added = len(gc.get_objects()) - before
    assert out.hops > 10
    assert added < world.n / 4, (added, world.n)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(world=degenerate_worlds(), enforce_oob=st.booleans())
def test_degenerate_worlds_give_defined_outcomes(world, enforce_oob):
    for algo in Algorithm:
        cfg = ExperimentConfig(
            algorithm=algo, densities=(2.0,), record_path=True,
            disable_out_of_bounds=not enforce_oob,
        )
        out = run_trial(cfg, 2.0, 0, world=world)
        assert len(out.path) == out.hops + 1, algo
        legs = [distance(out.path[i + 1], out.path[i]) for i in range(out.hops)]
        assert out.distance == pytest.approx(sum(legs)), algo
        at_dest = distance(out.path[-1], DEST_POINT) < COMM_RADIUS
        assert out.succeeded == at_dest, algo
        if algo in KEYED:
            assert trail(out) == trail(plain_trial(cfg, world)), algo
        assert_same_outcome(out, vec2_routers.trial(cfg, 2.0, 0, world), algo)


class TestRunSweep:
    def test_row_shape_and_conservation(self):
        cfg = ExperimentConfig(
            algorithm=Algorithm.GREEDY,
            densities=(2.0, 3.0),
            trials_per_point=30,
        )
        report = run_sweep(cfg)
        assert [r.density for r in report.rows] == [2.0, 3.0]
        for row in report.rows:
            assert row.algorithm == "greedy"
            assert row.obstacle == "none"
            assert row.trials == 30
            successes = round(row.success_rate * row.trials)
            assert (
                successes
                + row.fail_ttl
                + row.fail_oob
                + row.fail_stuck
                + row.fail_no_nodes
                == row.trials
            )

    def test_matches_manual_trial_loop(self):
        cfg = ExperimentConfig(
            algorithm=Algorithm.GRIC_MINUS,
            densities=(2.5,),
            trials_per_point=25,
        )
        report = run_sweep(cfg)
        row = report.rows[0]
        outcomes = [run_trial(cfg, 2.5, t) for t in range(25)]
        wins = [o for o in outcomes if o.succeeded]
        assert row.success_rate == pytest.approx(len(wins) / 25)
        if wins:
            assert row.median_hops == statistics.median(o.hops for o in wins)
            assert row.median_distance == pytest.approx(
                statistics.median(o.distance for o in wins)
            )

    def test_nan_medians_without_successes(self):
        # Greedy cannot reach across the stripe wall at any density.
        cfg = ExperimentConfig(
            algorithm=Algorithm.GREEDY,
            obstacle="stripe",
            densities=(4.0,),
            trials_per_point=10,
        )
        row = run_sweep(cfg).rows[0]
        assert row.success_rate == 0.0
        assert math.isnan(row.median_hops)
        assert math.isnan(row.median_distance)

    def test_worker_count_does_not_change_results(self):
        cfg = ExperimentConfig(
            algorithm=Algorithm.GRIC_PLUS,
            densities=(2.0, 2.5),
            trials_per_point=20,
        )
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=2)
        assert serial.rows == parallel.rows

    def test_out_of_bounds_can_be_disabled(self):
        cfg = ExperimentConfig(
            algorithm=Algorithm.GREEDY,
            densities=(2.0,),
            trials_per_point=40,
            disable_out_of_bounds=True,
        )
        row = run_sweep(cfg).rows[0]
        assert row.fail_oob == 0


def rows_text(reports):
    """Every row of every report; repr keeps NaN medians comparable."""
    return [[repr(row) for row in rep.rows] for rep in reports]


def sweep_from_trials(config):
    """Reference report aggregated from run_trial alone, which builds
    each trial's world afresh."""
    rows = []
    for d in config.densities:
        outs = [run_trial(config, d, t) for t in range(config.trials_per_point)]
        wins = [o for o in outs if o.succeeded]
        statuses = [o.status for o in outs]
        rows.append(
            SweepRow(
                algorithm=config.algorithm.value,
                obstacle=config.obstacle,
                density=d,
                trials=len(outs),
                success_rate=len(wins) / len(outs),
                median_hops=(
                    float(statistics.median(o.hops for o in wins)) if wins else math.nan
                ),
                median_distance=(
                    float(statistics.median(o.distance for o in wins))
                    if wins
                    else math.nan
                ),
                fail_ttl=statuses.count(TrialStatus.FAIL_TTL),
                fail_oob=statuses.count(TrialStatus.FAIL_OOB),
                fail_stuck=statuses.count(TrialStatus.FAIL_STUCK),
                fail_no_nodes=statuses.count(TrialStatus.FAIL_NO_NODES),
            )
        )
    return SweepReport(rows=rows)


class TestRunSweeps:
    def configs(self, obstacle="none", **kw):
        # Density 0 puts no node down: every trial ends fail_no_nodes.
        kw.setdefault("densities", (0.0, 2.0, 3.0))
        kw.setdefault("trials_per_point", 2)
        kw.setdefault("master_seed", 5)
        return [
            ExperimentConfig(algorithm=algo, obstacle=obstacle, **kw)
            for algo in Algorithm
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_matches_separate_sweeps(self, obstacle, workers):
        configs = self.configs(obstacle)
        shared = run_sweeps(configs, workers=workers)
        separate = [run_sweep(cfg, workers=workers) for cfg in configs]
        assert rows_text(shared) == rows_text(separate)
        assert rows_text(shared) == rows_text(map(sweep_from_trials, configs))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_per_config_options_may_differ(self, workers):
        configs = [
            ExperimentConfig(algorithm=Algorithm.GREEDY, densities=(2.0,),
                             trials_per_point=20),
            ExperimentConfig(algorithm=Algorithm.GREEDY, densities=(2.0,),
                             trials_per_point=20, disable_out_of_bounds=True,
                             record_path=True),
            ExperimentConfig(algorithm=Algorithm.GRIC_PLUS, densities=(2.0,),
                             trials_per_point=20,
                             params=RoutingParams(epsilon=0.0)),
        ]
        # The record_path config's outcomes carry paths back from workers.
        shared = run_sweeps(configs, workers=workers)
        assert rows_text(shared) == rows_text(run_sweep(cfg) for cfg in configs)

    def test_empty_config_list(self):
        assert run_sweeps([]) == []

    @pytest.mark.parametrize(
        "trials, densities, workers, started",
        [
            (1, (5.0,), 5000, []),  # one world: no pool at all
            (3, (2.0,), 5000, [3]),  # at most one process per world
            (2, (2.0, 3.0), 3, [3]),
            (2, (2.0, 3.0), 2, [2]),
        ],
    )
    def test_pool_has_at_most_one_process_per_world(
        self, trials, densities, workers, started, monkeypatch
    ):
        # More CPUs than any case asks for, so only the worlds cap the pool.
        monkeypatch.setattr(harness, "_cpus", lambda: 64)
        sizes = record_pools(monkeypatch)
        configs = self.configs(densities=densities, trials_per_point=trials)[:3]
        got = run_sweeps(configs, workers=workers)
        assert sizes == started
        assert rows_text(got) == rows_text(map(sweep_from_trials, configs))

    @pytest.mark.parametrize(
        "cpus, workers, started",
        [
            (2, 5000, [2]),  # 6 worlds, 2 CPUs
            (4, 5000, [4]),
            (4, 3, [3]),
            (1, 5000, []),  # one CPU: no pool at all
        ],
    )
    def test_pool_has_at_most_one_process_per_cpu(self, cpus, workers, started, monkeypatch):
        monkeypatch.setattr(harness, "_cpus", lambda: cpus)
        sizes = record_pools(monkeypatch)
        configs = self.configs(densities=(2.0, 3.0), trials_per_point=3)[:3]
        got = run_sweeps(configs, workers=workers)
        assert sizes == started
        assert rows_text(got) == rows_text(map(sweep_from_trials, configs))

    def test_cpus_lie_between_one_and_the_machine_count(self):
        assert 1 <= harness._cpus() <= (os.cpu_count() or 1)

    def test_sweeps_build_no_whole_graph_view(self, monkeypatch):
        # Every router, face included, reads only the links and Gabriel
        # links of the nodes it visits, and gets what it would get on a
        # fresh world.
        worlds, outcomes = [], []
        build, trial = harness.build_trial_world, harness.run_trial
        monkeypatch.setattr(
            harness, "build_trial_world", lambda *a: worlds.append(build(*a)) or worlds[-1]
        )
        monkeypatch.setattr(
            harness, "run_trial",
            lambda cfg, d, t, **kw: outcomes.append((cfg, d, t, trial(cfg, d, t, **kw)))
            or outcomes[-1][-1],
        )
        configs = self.configs("stripe", densities=(2.0, 4.0))
        run_sweeps(configs)
        assert len(worlds) == 4 and len(outcomes) == 4 * len(Algorithm)
        for w in worlds:
            assert w._edges is None and w._gabriel_edges is None
        assert any(g is not None for w in worlds for g in w._gabriel)
        for cfg, d, t, out in outcomes:
            assert out == trial(cfg, d, t), (cfg.algorithm, d, t)

    @pytest.mark.parametrize(
        "change",
        [
            {"obstacle": "stripe"},
            {"densities": (2.0, 3.5)},
            {"trials_per_point": 3},
            {"master_seed": 6},
        ],
    )
    def test_rejects_mismatched_world_keys(self, change):
        base = dict(densities=(2.0, 3.0), trials_per_point=2, master_seed=5)
        configs = [
            ExperimentConfig(algorithm=Algorithm.GREEDY, **base),
            ExperimentConfig(algorithm=Algorithm.FACE, **{**base, **change}),
        ]
        with pytest.raises(ValueError):
            run_sweeps(configs)


def outcome_digest(outcomes):
    """sha256 over (status, hops, distance bits, path bits) of each trial."""
    h = hashlib.sha256()
    for out in outcomes:
        path = ";".join(f"{p.x.hex()},{p.y.hex()}" for p in out.path or ())
        h.update(f"{out.status.value} {out.hops} {out.distance.hex()} {path}\n".encode())
    return h.hexdigest()


# Digests of every router's trials 0-2 at densities 2 and 4 on each
# obstacle (master seed 11, paths recorded), in OBSTACLE_NAMES, density,
# trial order. Recorded while face routing still ran its own copy of the
# trial loop next to the one in run_trial, before both became
# outcomes.walk; a change here means some trial's status, hop count,
# distance or path moved.
PINNED_DIGESTS = {
    "face": "c06e4af6b1e5d56bb4200bca5b495465f385384496de529e2529b662759b3c7c",
    "greedy": "1c5be996378a12ce071b936a7f6fa2395d15961a1e34a42ceedc87e01fca20bb",
    "gric+": "e1544f2431faee2d0fdc8c2bcd311a227a3d25ce204f2e6ed6e6e97939aaf99f",
    "gric-": "e59afc5b52cae1ed36a2cc851a40b1551044e2633d7b938ed7fccf02c3c62a40",
    "inertia": "1c6073d5241acbd55541013bb1682d2d325ce6c223c95266a7053be4b2b566c9",
    "ltp": "521e161d39668f4eef1be41fed72fd6e80333c4a27701db880171a94a0cadbe9",
}


class TestPinnedOutcomes:
    def test_every_router_matches_its_recorded_trials(self):
        outcomes = {algo: [] for algo in Algorithm}
        for obstacle in OBSTACLE_NAMES:
            for density in (2.0, 4.0):
                for trial in range(3):
                    world = build_trial_world(11, density, trial, obstacle)
                    for algo in Algorithm:
                        cfg = ExperimentConfig(
                            algorithm=algo, obstacle=obstacle,
                            densities=(density,), master_seed=11,
                            record_path=True,
                        )
                        outcomes[algo].append(
                            run_trial(cfg, density, trial, world=world)
                        )
        got = {algo.value: outcome_digest(outs) for algo, outs in outcomes.items()}
        assert got == PINNED_DIGESTS
