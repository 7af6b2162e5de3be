"""Comparison routers: local rules checked on hand worlds, face routing
checked against a breadth-first reachability oracle."""

import math

import numpy as np
import pytest

import vec2_routers
from conftest import lexsort_adjacency, make_world
from gricsim.baselines import (
    LTP_BUDGET,
    LtpState,
    _first_edge_cw,
    face_route,
    greedy_step,
    inertia_only_step,
    ltp_init,
    ltp_step,
)
from gricsim.geometry import Vec2
from gricsim.outcomes import Stuck, TrialStatus
from gricsim.routing import MessageState
from gricsim.worldgen import (
    COMM_RADIUS,
    Region,
    deploy,
    make_obstacle,
)

SMALL = Region(0.0, 10.0, 0.0, 10.0)


def bfs_can_deliver(world, source, dest_pos):
    """Reachability oracle: does the source's Gabriel component contain a
    node within one radio radius of the destination point?"""
    links = lexsort_adjacency(world.n, world.gabriel_edges())
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in links[u].tolist():
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return any(
        (world.pos(i) - dest_pos).norm() < COMM_RADIUS for i in seen
    )


class TestGreedy:
    def test_picks_nearest_to_destination(self):
        w = make_world(
            [(0, 0), (1, 0), (0.5, 0.8), (-1, 0)],
            [(0, 1), (0, 2), (0, 3)],
        )
        assert greedy_step(w, 0, Vec2(5, 0)) == 1

    def test_tie_breaks_to_smallest_id(self):
        w = make_world(
            [(0, 0), (1, 0.5), (1, -0.5)], [(0, 1), (0, 2)]
        )
        assert greedy_step(w, 0, Vec2(3, 0)) == 1

    def test_local_minimum_is_stuck(self):
        # Both neighbors sit farther from the destination than current.
        w = make_world(
            [(0, 0), (-1, 0.2), (-1, -0.2)], [(0, 1), (0, 2)]
        )
        with pytest.raises(Stuck):
            greedy_step(w, 0, Vec2(5, 0))

    def test_isolated_node_is_stuck(self):
        w = make_world([(0, 0), (5, 5)], np.empty((0, 2), dtype=np.int64))
        with pytest.raises(Stuck):
            greedy_step(w, 0, Vec2(5, 0))

    def test_distance_strictly_decreases_along_walk(self):
        dest = Vec2(9.5, 5.0)
        for seed in range(5):
            w = deploy(3.0, SMALL, make_obstacle("none"), 400 + seed)
            dists = np.hypot(
                w.positions[:, 0] - 0.5, w.positions[:, 1] - 5.0
            )
            node = int(np.argmin(dists))
            last = (w.pos(node) - dest).norm()
            for _ in range(w.n):
                if last < COMM_RADIUS:
                    break
                try:
                    node = greedy_step(w, node, dest)
                except Stuck:
                    break
                d = (w.pos(node) - dest).norm()
                assert d < last
                last = d


def hypot_disagreements(count):
    """(a, b) pairs on which math.hypot and np.hypot differ in the last bit."""
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-25.0, 25.0, size=(2, 20_000))
    pairs = zip(a.tolist(), b.tolist(), np.hypot(a, b).tolist())
    return [(x, y) for x, y, h in pairs if math.hypot(x, y) != h][:count]


class TestPlainFloatDistances:
    """greedy_step and ltp_step measure a neighbor's distance as
    abs(complex(dx, dy)), which must be np.hypot bit for bit."""

    def test_complex_abs_is_np_hypot_bit_for_bit(self):
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -25.0,
                    math.inf, -math.inf, math.nan]
        a = [x for x in specials for _ in specials]
        b = specials * len(specials)
        rng = np.random.default_rng(2024)
        for scale in (1e-3, 1.0, 25.0, 1e8):
            xs, ys = rng.uniform(-scale, scale, size=(2, 250_000))
            # Half the pairs mix in a second scale, up to 10^4 either way.
            ys[::2] *= 10.0 ** rng.uniform(-4.0, 4.0, size=125_000)
            a += xs.tolist()
            b += ys.tolist()
        want = [h.hex() for h in np.hypot(a, b).tolist()]
        got = [abs(complex(x, y)).hex() for x, y in zip(a, b)]
        assert len(got) > 1_000_000
        assert [(x, y) for x, y, g, w in zip(a, b, got, want) if g != w] == []
        # math.hypot, Python's own algorithm, differs on some of them.
        assert any(math.hypot(x, y).hex() != w for x, y, w in zip(a, b, want))


class TestGreedyAndLtpReferences:
    """greedy_step and ltp_step against the numpy forms in vec2_routers."""

    @staticmethod
    def greedy(world, current, dest):
        """Both routers' greedy picks, None for Stuck."""
        picks = []
        for step in (greedy_step, vec2_routers.greedy_step):
            try:
                with np.errstate(over="ignore"):
                    picks.append(step(world, current, dest))
            except Stuck:
                picks.append(None)
        assert picks[0] == picks[1]
        return picks[0]

    @staticmethod
    def ltp(world, current, dest, tried=()):
        """The moves both ltp routers make from one fresh frame over 24
        seeded rngs, None for Stuck."""
        runs = []
        for step in (ltp_step, vec2_routers.ltp_step):
            moves = []
            for seed in range(24):
                state = LtpState(stack=[current], tried=[set(tried)], budget=1)
                try:
                    with np.errstate(over="ignore"):
                        moves.append(step(world, current, state, dest,
                                          np.random.default_rng(seed)))
                except Stuck:
                    moves.append(None)
            runs.append(moves)
        assert runs[0] == runs[1]
        return runs[0]

    def test_equal_distances_go_to_the_smallest_id(self):
        w = make_world(
            [(0, 0), (-1, 0), (1, 0.5), (1, -0.5), (1.5, 0.5), (1.5, -0.5)],
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
        )
        assert self.greedy(w, 0, Vec2(3, 0)) == 4
        assert set(self.ltp(w, 0, Vec2(3, 0))) == {2, 3, 4, 5}

    def test_a_neighbor_exactly_at_the_current_distance_is_not_closer(self):
        # (2, 4) and (2, -4) are exactly 5 from (5, 0), as node 0 is.
        w = make_world([(0, 0), (2, 4), (2, -4), (1, 0)], [(0, 1), (0, 2)])
        assert self.greedy(w, 0, Vec2(5, 0)) is None
        assert self.ltp(w, 0, Vec2(5, 0)) == [None] * 24
        w = make_world([(0, 0), (2, 4), (2, -4), (1, 0)], [(0, 1), (0, 2), (0, 3)])
        assert self.greedy(w, 0, Vec2(5, 0)) == 3
        assert self.ltp(w, 0, Vec2(5, 0)) == [3] * 24

    def test_all_neighbors_farther_is_stuck(self):
        w = make_world([(0, 0), (-1, 0.2), (-1, -0.2), (5, 5)], [(0, 1), (0, 2)])
        for node in (0, 3):
            with pytest.raises(Stuck):
                greedy_step(w, node, Vec2(5, 0))
            assert self.greedy(w, node, Vec2(5, 0)) is None
            assert self.ltp(w, node, Vec2(5, 0)) == [None] * 24

    def test_ltp_skips_the_children_already_tried(self):
        w = make_world(
            [(0, 0), (1, 0.3), (1, 0), (1, -0.3), (0.5, 0.5), (-1, 0)],
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
        )
        assert set(self.ltp(w, 0, Vec2(9, 0))) == {1, 2, 3, 4}
        assert set(self.ltp(w, 0, Vec2(9, 0), tried={2, 4})) == {1, 3}
        assert self.ltp(w, 0, Vec2(9, 0), tried={1, 2, 3, 4}) == [None] * 24

    def test_last_bit_disagreements_of_math_hypot(self):
        # Node 0 sits exactly at the larger of the two readings of a
        # neighbor's distance from the origin: np.hypot's reading decides
        # whether the neighbor is closer, and math.hypot's the opposite.
        verdicts = set()
        for a, b in hypot_disagreements(12):
            d = max(math.hypot(a, b), float(np.hypot(a, b)))
            w = make_world([(d, 0.0), (a, b)], [(0, 1)])
            pick = self.greedy(w, 0, Vec2(0, 0))
            assert self.ltp(w, 0, Vec2(0, 0)) == [pick] * 24
            verdicts.add(pick)
        assert verdicts == {1, None}

    def test_a_distance_past_the_float_range_is_never_closer(self):
        # Node 1 is about 3e308 from the destination: np.hypot says inf,
        # where abs(complex(...)) raises OverflowError.
        dest = Vec2(-0.5e308, -0.5e308)
        pts = [(0, 0), (1e308, 1e308), (-0.25e308, -0.25e308)]
        w = make_world(pts, [(0, 1), (0, 2)])
        assert self.greedy(w, 0, dest) == 2
        assert self.ltp(w, 0, dest) == [2] * 24
        w = make_world(pts, [(0, 1)])
        assert self.greedy(w, 0, dest) is None
        assert self.ltp(w, 0, dest) == [None] * 24
        # A destination that far from every node leaves no closer one.
        w = make_world([(0, 0), (1, 0)], [(0, 1)])
        dest = Vec2(-1.5e308, 1.5e308)
        assert self.greedy(w, 0, dest) is None
        assert self.ltp(w, 0, dest) == [None] * 24


class TestInertiaOnly:
    def test_bends_at_most_beta_pi(self):
        # Travelling east, destination due north: with beta = 1/6 the
        # ideal direction only tilts 30 degrees, so the east neighbor
        # still wins the projection.
        w = make_world(
            [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
            [(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        state = MessageState(dest_pos=Vec2(0, 3), prev_pos=(-1.0, 0.0))
        assert inertia_only_step(w, 0, state, beta=1.0 / 6.0) == 1
        assert state.prev_pos == (0.0, 0.0)

    def test_full_beta_aims_at_destination(self):
        w = make_world(
            [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)],
            [(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        state = MessageState(dest_pos=Vec2(0, 3), prev_pos=(-1.0, 0.0))
        assert inertia_only_step(w, 0, state, beta=1.0) == 2

    def test_source_heads_straight_for_destination(self):
        w = make_world(
            [(0, 0), (1, 0), (0, 1)], [(0, 1), (0, 2)]
        )
        state = MessageState(dest_pos=Vec2(5, 0))
        assert inertia_only_step(w, 0, state, beta=1.0 / 6.0) == 1


class TestLtp:
    def trap_world(self):
        # Node 0 has two closer children, both of them dead ends.
        return make_world(
            [(0, 0), (1, 0.5), (1, -0.5)], [(0, 1), (0, 2)]
        )

    def test_default_budget(self):
        assert ltp_init(3) == LtpState(stack=[3], tried=[set()], budget=LTP_BUDGET)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            LtpState(stack=[0], tried=[set()], budget=-1)

    def test_stack_top_must_match(self):
        w = self.trap_world()
        state = ltp_init(0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ltp_step(w, 1, state, Vec2(5, 0), rng)

    def test_uniform_choice_among_candidates(self):
        w = make_world(
            [(0, 0), (1, 0.3), (1, 0), (1, -0.3)],
            [(0, 1), (0, 2), (0, 3)],
        )
        rng = np.random.default_rng(41)
        counts = {1: 0, 2: 0, 3: 0}
        n = 3000
        for _ in range(n):
            state = ltp_init(0)
            counts[ltp_step(w, 0, state, Vec2(9, 0), rng)] += 1
        # Five sigma around the uniform expectation.
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        for c in counts.values():
            assert abs(c - n / 3) < 5 * sigma

    def test_never_retries_a_child_from_the_same_frame(self):
        w = self.trap_world()
        dest = Vec2(5, 0)
        rng = np.random.default_rng(42)
        state = ltp_init(0)
        first = ltp_step(w, 0, state, dest, rng)       # forward to a child
        assert first in (1, 2)
        back = ltp_step(w, first, state, dest, rng)    # dead end, pop
        assert back == 0
        second = ltp_step(w, 0, state, dest, rng)      # the other child
        assert second in (1, 2) and second != first
        back = ltp_step(w, second, state, dest, rng)
        assert back == 0
        # Both children spent: the source itself is a dead end now.
        with pytest.raises(Stuck, match="source"):
            ltp_step(w, 0, state, dest, rng)

    def test_budget_exhaustion(self):
        w = self.trap_world()
        dest = Vec2(5, 0)
        rng = np.random.default_rng(43)
        state = LtpState(stack=[0], tried=[set()], budget=1)
        a = ltp_step(w, 0, state, dest, rng)
        assert ltp_step(w, a, state, dest, rng) == 0   # spends the budget
        assert state.budget == 0
        b = ltp_step(w, 0, state, dest, rng)
        with pytest.raises(Stuck, match="budget"):
            ltp_step(w, b, state, dest, rng)

    def test_forward_moves_strictly_closer(self):
        dest = Vec2(9.5, 5.0)
        rng = np.random.default_rng(44)
        for seed in range(5):
            w = deploy(3.0, SMALL, make_obstacle("none"), 500 + seed)
            dists = np.hypot(
                w.positions[:, 0] - 0.5, w.positions[:, 1] - 5.0
            )
            node = int(np.argmin(dists))
            state = ltp_init(node)
            for _ in range(4 * w.n):
                if (w.pos(node) - dest).norm() < COMM_RADIUS:
                    break
                depth = len(state.stack)
                try:
                    nxt = ltp_step(w, node, state, dest, rng)
                except Stuck:
                    break
                if len(state.stack) > depth:
                    # Forward move: strictly closer than the frame it
                    # extended.
                    assert (w.pos(nxt) - dest).norm() < (
                        w.pos(node) - dest
                    ).norm()
                node = nxt


class TestFirstEdgeCw:
    def star(self):
        pts = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
        return make_world(pts, [(0, i) for i in range(1, 5)], region=SMALL)

    def test_sweeps_clockwise_from_reference(self):
        got = _first_edge_cw(self.star(), 0, math.pi / 4, None)
        assert got == 1  # east is the first spoke clockwise of northeast

    def test_exact_alignment_wins(self):
        got = _first_edge_cw(self.star(), 0, math.pi, None)
        assert got == 3

    def test_reverse_edge_deferred_to_full_turn(self):
        got = _first_edge_cw(self.star(), 0, 0.0, 1)
        assert got == 4  # south, a quarter turn clockwise of east

    def test_dead_end_spur_doubles_back(self):
        world = make_world([(0, 0), (1, 0)], [(0, 1)], region=SMALL)
        got = _first_edge_cw(world, 1, math.pi, 0)
        assert got == 0


class TestFaceRoute:
    def test_immediate_delivery(self):
        w = make_world([(0, 0), (1, 0)], [(0, 1)], region=SMALL)
        out = face_route(w, 0, Vec2(0.5, 0.5), enforce_oob=False)
        assert out.status is TrialStatus.SUCCESS
        assert out.hops == 0

    def test_isolated_source_is_stuck(self):
        w = make_world(
            [(5, 5), (9, 5)], np.empty((0, 2), dtype=np.int64), region=SMALL
        )
        out = face_route(w, 0, Vec2(9, 5), enforce_oob=False)
        assert out.status is TrialStatus.FAIL_STUCK

    def test_border_rule_fires_when_enforced(self):
        w = make_world([(0.5, 5), (1.4, 5)], [(0, 1)], region=SMALL)
        out = face_route(w, 0, Vec2(9, 5), enforce_oob=True)
        assert out.status is TrialStatus.FAIL_OOB
        out = face_route(w, 0, Vec2(9, 5), enforce_oob=False)
        assert out.status is not TrialStatus.FAIL_OOB

    def test_walks_a_chain(self):
        pts = [(float(i) * 0.9, 5.0) for i in range(8)]
        w = make_world(
            pts, [(i, i + 1) for i in range(7)], region=SMALL
        )
        dest = Vec2(0.9 * 7, 5.0)
        out = face_route(w, 0, dest, enforce_oob=False,
                         record_path=True)
        assert out.status is TrialStatus.SUCCESS
        assert out.hops == 6
        assert len(out.path) == out.hops + 1
        assert out.distance == pytest.approx(0.9 * 6)

    def test_matches_reachability_oracle(self):
        # The make-or-break property: delivery exactly when the Gabriel
        # component of the source holds a node in radio range of the
        # destination point. Low densities give plenty of both verdicts.
        dest = Vec2(9.5, 5.0)
        checked = delivered = 0
        for density in (1.0, 1.5, 2.0, 2.5, 3.0):
            for seed in range(12):
                w = deploy(
                    density, SMALL, make_obstacle("none"),
                    1000 + 17 * seed + int(density * 10),
                )
                if w.n == 0:
                    continue
                dists = np.hypot(
                    w.positions[:, 0] - 0.5, w.positions[:, 1] - 5.0
                )
                source = int(np.argmin(dists))
                out = face_route(w, source, dest, enforce_oob=False)
                want = bfs_can_deliver(w, source, dest)
                assert out.succeeded == want, (density, seed)
                checked += 1
                delivered += int(want)
        # Sanity on the mix: both outcomes must actually occur.
        assert 0 < delivered < checked

    def test_respects_traversal_cap(self):
        for seed in range(5):
            w = deploy(2.0, SMALL, make_obstacle("none"), 600 + seed)
            if w.n == 0:
                continue
            out = face_route(w, 0, Vec2(9.5, 9.5), enforce_oob=False)
            assert out.hops <= 3 * max(1, len(w.gabriel_edges())) + 1

    def test_stuck_when_destination_unreachable(self):
        # Two clusters with a gap: the traversal must terminate, not spin.
        pts = [(0.5, 5), (1.2, 5), (0.9, 5.6), (8.5, 5), (9.2, 5)]
        edges = [(0, 1), (0, 2), (1, 2), (3, 4)]
        w = make_world(pts, edges, region=SMALL)
        out = face_route(w, 0, Vec2(9.2, 5.0), enforce_oob=False)
        assert out.status is TrialStatus.FAIL_STUCK
