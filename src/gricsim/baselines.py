"""Comparison routers: distance-greedy, inertia-only, limited-backtrack
randomized greedy, and face traversal on the Gabriel subgraph.

These exist to be raced against the compass/flag router under identical
worlds and identical success/failure rules: every router here is a step
function, and outcomes.walk alone decides delivery, border contact and
the hop budget. Greedy and inertia-only are stateless apart from the
previous position; the backtracking router carries a visited stack; face
routing's step keeps its anchor distance, current edge and face start.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI, Vec2, orient
from .outcomes import Stuck, TrialOutcome, walk
from .routing import MessageState, effective_prev_direction, inertia_ideal, next_hop
from .worldgen import World

# Backtrack allowance for the limited-backtrack router. Small on purpose:
# a handful of pops rescues the occasional routing hole, while a large
# allowance would turn the router into exhaustive search and mask the
# local-minimum pathology it is meant to exhibit.
DEFAULT_LTP_BUDGET = 5


def greedy_step(world: World, current: int, dest_pos: Vec2) -> int:
    """Forward to the neighbor nearest the destination, if that helps.

    Only neighbors strictly closer than the current node qualify; with
    none, the node is a local minimum and the router gives up. Ties on
    distance go to the smallest node id.
    """
    nbrs = world.out_links[current]
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


def inertia_only_step(
    world: World, current: int, state: MessageState, beta: float
) -> int:
    """One hop of the bend-toward-destination rule with no flag logic.

    The ideal direction is the previous travel direction rotated toward
    the destination by at most beta * pi; the neighbor maximizing the
    scalar product with it wins. The caller advances state.prev_pos.
    """
    p = world.pos(current)
    v_prev = effective_prev_direction(state, p)
    v_ideal = inertia_ideal(v_prev, state.dest_pos - p, beta)
    return next_hop(world, current, v_ideal)


@dataclass
class LtpState:
    """Search state of the limited-backtrack router.

    stack holds the forwarding chain, top = current node. tried runs
    parallel to stack and records which children each frame has already
    forwarded to, so a node is never tried twice from the same prefix.
    budget is the number of backtrack moves still allowed.
    """

    stack: list[int]
    tried: list[set[int]]
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("backtrack budget must be a natural number")


def ltp_init(source: int, budget: int | None = None) -> LtpState:
    if budget is None:
        budget = DEFAULT_LTP_BUDGET
    return LtpState(stack=[source], tried=[set()], budget=budget)


def ltp_step(
    world: World,
    current: int,
    state: LtpState,
    dest_pos: Vec2,
    rng: np.random.Generator,
) -> int:
    """One move of randomized greedy forwarding with backtracking.

    Forward case: pick uniformly at random among the neighbors strictly
    closer to the destination that this stack frame has not tried yet.
    Dead end: pop one frame and move back to the predecessor, spending
    one unit of budget. Stuck when the stack empties (dead end at the
    source) or the budget runs out. Returns the node the message moves
    to; a backtrack is recognizable by the stack having shrunk.
    """
    if not state.stack or state.stack[-1] != current:
        raise ValueError("stack top must be the current node")
    nbrs = world.out_links[current]
    p = world.positions[current]
    d_cur = math.hypot(p[0] - dest_pos.x, p[1] - dest_pos.y)
    tried = state.tried[-1]
    candidates: list[int] = []
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


def _first_edge_cw(
    positions: np.ndarray,
    links: list[np.ndarray],
    at: int,
    ref_theta: float,
    reverse_of: int | None,
) -> int:
    """Neighbor of `at` first encountered sweeping clockwise from ref_theta.

    That is the neighbor minimizing (ref_theta - theta_w) mod 2*pi. When
    reverse_of is given, that neighbor's zero angle counts as a full turn
    so the walk only doubles straight back on a dead-end spur. Angle ties
    break toward the smallest node id.
    """
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


def _proper_crossing(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> Vec2 | None:
    """Intersection point of segments a-b and c-d, interiors only.

    Returns None unless the two segments cross at a single interior
    point. Touching endpoints or collinear overlap do not count; faces
    are switched only on unambiguous crossings.
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 * o2 >= 0 or o3 * o4 >= 0:
        return None
    ab = b - a
    cd = d - c
    denom = ab.cross(cd)
    t = (c - a).cross(cd) / denom
    return Vec2(a.x + t * ab.x, a.y + t * ab.y)


def face_step(world: World, source: int, dest_pos: Vec2) -> Callable[[int], int]:
    """Face traversal over the Gabriel subgraph, as a step function.

    Walks the boundary of the face pierced by the source-destination
    line, keeping the face on the left of each directed edge. Whenever
    the edge about to be traversed properly crosses that line strictly
    closer to the destination than the current anchor, the walk switches
    to the adjacent face at the crossing without spending a hop.
    Completing a face loop with no crossing improvement means the
    destination is unreachable, and the step raises Stuck.
    """
    positions = world.positions
    links = world.gabriel_links
    s_pos = world.pos(source)
    anchor_d = (s_pos - dest_pos).norm()
    edge = face_start = None

    def step(current: int) -> int:
        nonlocal anchor_d, edge, face_start
        if edge is None:
            if len(links[source]) == 0:
                raise Stuck(f"node {source} has no Gabriel links")
            first = _first_edge_cw(
                positions, links, source, (dest_pos - s_pos).heading(), None
            )
            edge = face_start = (source, first)
        else:
            # The message just traversed edge u -> v and sits on v.
            u, v = edge
            ref = math.atan2(
                positions[u, 1] - positions[v, 1], positions[u, 0] - positions[v, 0]
            )
            edge = (v, _first_edge_cw(positions, links, v, ref, u))
            if edge == face_start:
                raise Stuck("completed a face without a closer way out")
        while True:
            u, v = edge
            x = _proper_crossing(world.pos(u), world.pos(v), s_pos, dest_pos)
            if x is None or (x - dest_pos).norm() >= anchor_d:
                return v
            # Strict improvement: continue in the face holding the rest of
            # the line, which is the side of edge (u, v) the destination
            # is on. The crossing predicate guarantees the destination is
            # strictly off the edge's line, so the sign is decisive. Each
            # switch strictly shrinks anchor_d, so this cannot recur
            # forever even in degenerate layouts.
            anchor_d = (x - dest_pos).norm()
            if orient(world.pos(u), world.pos(v), dest_pos) > 0:
                # The line presses on through the face already being
                # walked (it dipped into the adjacent face and came back):
                # restart this face's walk at the crossing edge.
                face_start = edge
                return v
            # The line leaves through the edge: enter the adjacent face.
            # The message stays on u; the next boundary edge is the
            # clockwise successor of the virtual arrival from v.
            ref = math.atan2(
                positions[v, 1] - positions[u, 1], positions[v, 0] - positions[u, 0]
            )
            edge = face_start = (u, _first_edge_cw(positions, links, u, ref, v))

    return step


def face_route(
    world: World,
    source: int,
    dest_pos: Vec2,
    ttl: int,
    *,
    enforce_oob: bool = True,
    record_path: bool = False,
) -> TrialOutcome:
    """Route by face traversal (face_step) through the trial loop.

    The hop budget is the lesser of ttl and three times the Gabriel
    edge count.
    """
    budget = min(ttl, 3 * max(1, len(world.gabriel_edges())))
    return walk(
        world,
        source,
        dest_pos,
        face_step(world, source, dest_pos),
        budget,
        enforce_oob=enforce_oob,
        record_path=record_path,
    )
