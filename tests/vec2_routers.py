"""Reference routers and trial loop written on Vec2 objects.

These are the step functions, face traversal and trial loop as they
were before the routers moved to plain floats over a World's per-node
lists: every position is a Vec2, every direction a Vec2 difference and
every turn an Angle (vec2_geometry). Neighbours are read as numpy arrays,
and face traversal walks a grouping of the whole Gabriel subgraph rather
than the world's on-demand lists. They are kept only as oracles for the
float versions in gricsim; trial() runs one trial the way
harness.run_trial does and must give the same TrialOutcome bit for bit,
path included.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable
from dataclasses import dataclass, replace

import numpy as np

from conftest import lexsort_adjacency
from gricsim.geometry import TWO_PI, Vec2
from gricsim.baselines import ltp_init
from gricsim.harness import DEST_POINT, ROUTE_STREAM, Algorithm, source_node, trial_rng
from gricsim.outcomes import Stuck, TrialOutcome, TrialStatus
from gricsim.routing import Flag, RoutingParams, clamp_turn, contour_turn
from gricsim.worldgen import COMM_RADIUS
from vec2_geometry import (
    CompassValue,
    angle_from_to,
    border_distance,
    compass_of,
    cross,
    distance,
    heading,
    is_zero,
    orient,
    rotate,
    sub,
)

NE, NW, SE, SW = CompassValue.NE, CompassValue.NW, CompassValue.SE, CompassValue.SW

FLAG_TABLE = {
    (Flag.DOWN, NE): Flag.DOWN,
    (Flag.DOWN, NW): Flag.DOWN,
    (Flag.DOWN, SE): Flag.UP_E,
    (Flag.DOWN, SW): Flag.UP_W,
    (Flag.UP_E, NE): Flag.DOWN,
    (Flag.UP_E, NW): Flag.UP_E,
    (Flag.UP_E, SE): Flag.UP_E,
    (Flag.UP_E, SW): Flag.UP_E,
    (Flag.UP_W, NE): Flag.UP_W,
    (Flag.UP_W, NW): Flag.DOWN,
    (Flag.UP_W, SE): Flag.UP_W,
    (Flag.UP_W, SW): Flag.UP_W,
}
CONTOUR_PAIRS = {(Flag.UP_E, NW), (Flag.UP_E, SW), (Flag.UP_W, NE), (Flag.UP_W, SE)}


@dataclass(frozen=True)
class VecState:
    dest_pos: Vec2
    prev_pos: Vec2 | None = None
    flag: Flag = Flag.DOWN


def out_links(world, node):
    return np.array(world.neighbors(node), dtype=np.int64)


def directions(state, current: Vec2) -> tuple[Vec2, Vec2]:
    """(v_prev, v_dest) at the current node: the travel direction to
    measure turns against and the destination bearing. Raises Stuck, as
    routing.travel_turn does, when either is the zero vector."""
    v_dest = sub(state.dest_pos, current)
    v_prev = v_dest if state.prev_pos is None else sub(current, state.prev_pos)
    if is_zero(v_prev) or is_zero(v_dest):
        raise Stuck("message has no usable travel direction")
    return v_prev, v_dest


def inertia_ideal(v_prev: Vec2, v_dest: Vec2, beta: float) -> Vec2:
    """Ideal forwarding direction in inertia mode."""
    alpha = angle_from_to(v_prev, v_dest)
    return rotate(v_prev, clamp_turn(alpha.radians, beta))


def next_hop(world, current, v_ideal: Vec2, params=RoutingParams(), rng=None) -> int:
    nbrs = out_links(world, current)
    if len(nbrs) == 0:
        raise Stuck(f"node {current} has no out-links")
    offs = world.positions[nbrs] - world.positions[current]
    if rng is not None and params.epsilon > 0.0:
        keep = rng.random(len(nbrs)) >= params.epsilon
        if keep.any():
            nbrs = nbrs[keep]
            offs = offs[keep]
    proj = offs[:, 0] * v_ideal.x + offs[:, 1] * v_ideal.y
    return int(nbrs[int(np.argmax(proj))])


def gric_step(world, current, state: VecState, params, rng=None):
    """One compass/flag decision: returns (next node, new state)."""
    p = world.pos(current)
    v_prev, v_dest = directions(state, p)
    alpha = angle_from_to(v_prev, v_dest)
    c = compass_of(alpha)
    flag = FLAG_TABLE[(state.flag, c)]
    if (flag, c) in CONTOUR_PAIRS:
        gamma = contour_turn(alpha.radians, params.beta)
    else:
        gamma = clamp_turn(alpha.radians, params.beta)
    nxt = next_hop(world, current, rotate(v_prev, gamma), params, rng)
    return nxt, replace(state, prev_pos=p, flag=flag)


def inertia_only_step(world, current, state: VecState, beta) -> int:
    v_prev, v_dest = directions(state, world.pos(current))
    return next_hop(world, current, inertia_ideal(v_prev, v_dest, beta))


def greedy_step(world, current, dest_pos: Vec2) -> int:
    nbrs = out_links(world, current)
    if len(nbrs) == 0:
        raise Stuck(f"node {current} has no out-links")
    p = world.positions[current]
    d_cur = math.hypot(p[0] - dest_pos.x, p[1] - dest_pos.y)
    offs = world.positions[nbrs]
    dists = np.hypot(offs[:, 0] - dest_pos.x, offs[:, 1] - dest_pos.y)
    closer = dists < d_cur
    if not closer.any():
        raise Stuck(f"node {current} is a local minimum")
    cand = nbrs[closer]
    return int(cand[int(np.argmin(dists[closer]))])


def ltp_step(world, current, state, dest_pos: Vec2, rng) -> int:
    """Limited-backtrack greedy on a gricsim LtpState."""
    nbrs = out_links(world, current)
    p = world.positions[current]
    d_cur = math.hypot(p[0] - dest_pos.x, p[1] - dest_pos.y)
    tried = state.tried[-1]
    candidates = []
    if len(nbrs) > 0:
        pts = world.positions[nbrs]
        dists = np.hypot(pts[:, 0] - dest_pos.x, pts[:, 1] - dest_pos.y)
        candidates = [
            int(v) for v, dv in zip(nbrs, dists) if dv < d_cur and int(v) not in tried
        ]
    if candidates:
        choice = candidates[int(rng.integers(len(candidates)))]
        tried.add(choice)
        state.stack.append(choice)
        state.tried.append(set())
        return choice
    state.stack.pop()
    state.tried.pop()
    if not state.stack:
        raise Stuck("dead end at the source node")
    if state.budget == 0:
        raise Stuck("backtrack budget exhausted")
    state.budget -= 1
    return state.stack[-1]


def first_edge_cw(positions, links, at, ref_theta, reverse_of) -> int:
    """Clockwise sweep over a list of per-node neighbour arrays."""
    best = -1
    best_delta = math.inf
    px, py = positions[at]
    for w in links[at]:
        theta = math.atan2(positions[w, 1] - py, positions[w, 0] - px)
        delta = (ref_theta - theta) % TWO_PI
        if w == reverse_of and delta == 0.0:
            delta = TWO_PI
        if delta < best_delta:
            best_delta = delta
            best = int(w)
    return best


def proper_crossing(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> Vec2 | None:
    o1, o2, o3, o4 = orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)
    if o1 * o2 >= 0 or o3 * o4 >= 0:
        return None
    ab = sub(b, a)
    cd = sub(d, c)
    t = cross(sub(c, a), cd) / cross(ab, cd)
    return Vec2(a.x + t * ab.x, a.y + t * ab.y)


def face_step(world, source, dest_pos: Vec2) -> Callable[[int], int]:
    positions = world.positions
    links = lexsort_adjacency(world.n, world.gabriel_edges())
    s_pos = world.pos(source)
    anchor_d = distance(s_pos, dest_pos)
    edge = face_start = None

    def step(current):
        nonlocal anchor_d, edge, face_start
        if edge is None:
            if len(links[source]) == 0:
                raise Stuck(f"node {source} has no Gabriel links")
            first = first_edge_cw(positions, links, source, heading(sub(dest_pos, s_pos)), None)
            edge = face_start = (source, first)
        else:
            u, v = edge
            ref = math.atan2(
                positions[u, 1] - positions[v, 1], positions[u, 0] - positions[v, 0]
            )
            edge = (v, first_edge_cw(positions, links, v, ref, u))
            if edge == face_start:
                raise Stuck("completed a face without a closer way out")
        while True:
            u, v = edge
            x = proper_crossing(world.pos(u), world.pos(v), s_pos, dest_pos)
            if x is None or distance(x, dest_pos) >= anchor_d:
                return v
            anchor_d = distance(x, dest_pos)
            if orient(world.pos(u), world.pos(v), dest_pos) > 0:
                face_start = edge
                return v
            ref = math.atan2(
                positions[v, 1] - positions[u, 1], positions[v, 0] - positions[u, 0]
            )
            edge = face_start = (u, first_edge_cw(positions, links, u, ref, v))

    return step


def walk(world, source, dest: Vec2, step, ttl, *, enforce_oob=True,
         record_path=False, state_key: Callable[[int], Hashable] | None = None):
    """The trial loop on Vec2 positions, cycle fast-forward included."""
    cur = source
    hops = 0
    dist = 0.0
    path = [world.pos(source)] if record_path else None
    seen: dict[Hashable, int] = {}
    legs: list[float] = []
    while True:
        p = world.pos(cur)
        if distance(p, dest) < COMM_RADIUS:
            return TrialOutcome(TrialStatus.SUCCESS, hops, dist, path)
        if enforce_oob and border_distance(world.region, p) <= COMM_RADIUS:
            return TrialOutcome(TrialStatus.FAIL_OOB, hops, dist, path)
        if hops > ttl:
            return TrialOutcome(TrialStatus.FAIL_TTL, hops, dist, path)
        if state_key is not None:
            start = seen.setdefault(state_key(cur), hops)
            if start < hops:
                period = hops - start
                for h in range(hops, ttl + 1):
                    dist += legs[start + (h - start) % period]
                    if path is not None:
                        path.append(path[-period])
                return TrialOutcome(TrialStatus.FAIL_TTL, ttl + 1, dist, path, start, period)
        try:
            nxt = step(cur)
        except Stuck:
            return TrialOutcome(TrialStatus.FAIL_STUCK, hops, dist, path)
        leg = distance(world.pos(nxt), p)
        dist += leg
        hops += 1
        cur = nxt
        if state_key is not None:
            legs.append(leg)
        if path is not None:
            path.append(world.pos(nxt))


def _inertia(world, params):
    state = VecState(DEST_POINT)
    prev = None

    def step(cur):
        nonlocal state, prev
        nxt = inertia_only_step(world, cur, state, params.beta)
        state = replace(state, prev_pos=world.pos(cur))
        prev = cur
        return nxt

    return step, lambda cur: (cur, prev)


def _gric(world, params, rng):
    state = VecState(DEST_POINT)
    prev = None

    def step(cur):
        nonlocal state, prev
        nxt, state = gric_step(world, cur, state, params, rng)
        prev = cur
        return nxt

    return step, (lambda cur: (cur, prev, state.flag)) if rng is None else None


def trial(config, density, trial_index, world) -> TrialOutcome:
    """harness.run_trial on the Vec2 routers, for a prebuilt world."""
    if world.n == 0:
        return TrialOutcome(TrialStatus.FAIL_NO_NODES, 0, 0.0)
    source = source_node(world)
    rules = dict(
        enforce_oob=not config.disable_out_of_bounds, record_path=config.record_path
    )
    if config.algorithm is Algorithm.FACE:
        budget = 3 * max(1, len(world.gabriel_edges()))
        return walk(world, source, DEST_POINT, face_step(world, source, DEST_POINT),
                    budget, **rules)
    rng = None
    if config.algorithm in (Algorithm.GRIC_PLUS, Algorithm.LTP):
        rng = trial_rng(config.master_seed, density, trial_index, ROUTE_STREAM)
    if config.algorithm is Algorithm.GREEDY:
        step, key = (lambda cur: greedy_step(world, cur, DEST_POINT)), None
    elif config.algorithm is Algorithm.LTP:
        state = ltp_init(source)
        step, key = (lambda cur: ltp_step(world, cur, state, DEST_POINT, rng)), None
    elif config.algorithm is Algorithm.INERTIA:
        step, key = _inertia(world, config.params)
    else:
        step, key = _gric(world, config.params, rng)
    return walk(world, source, DEST_POINT, step, world.n, state_key=key, **rules)
