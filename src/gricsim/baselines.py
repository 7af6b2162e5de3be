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
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .geometry import COLLINEAR_EPS, TWO_PI, Vec2
from .outcomes import Stuck, TrialOutcome, TrialStatus, walk
from .routing import MessageState, clamp_turn, next_hop, travel_turn
from .worldgen import World

# Backtrack allowance for the limited-backtrack router. Small on purpose:
# a handful of pops rescues the occasional routing hole, while a large
# allowance would turn the router into exhaustive search and mask the
# local-minimum pathology it is meant to exhibit.
LTP_BUDGET = 5


def _closer(world: World, current: int, dest_pos: Vec2) -> Iterator[tuple[float, int]]:
    """(distance to dest_pos, v) for each neighbor v strictly closer than
    current. abs(complex(dx, dy)) is C's hypot, as in np.hypot, so these
    equal the numpy form's distances bit for bit, as math.hypot's do not.
    Where it overflows, np.hypot's inf would not be closer either."""
    xs, ys, tx, ty = world.xs, world.ys, dest_pos.x, dest_pos.y
    d_cur = math.hypot(xs[current] - tx, ys[current] - ty)
    for v in world.neighbors(current):
        try:
            d = abs(complex(xs[v] - tx, ys[v] - ty))
        except OverflowError:
            continue
        if d < d_cur:
            yield d, v


def greedy_step(world: World, current: int, dest_pos: Vec2) -> int:
    """Forward to the neighbor nearest the destination, if that helps.

    Only neighbors strictly closer than the current node qualify; with
    none (an isolated node has none), the node is a local minimum and
    the router gives up. Ties on distance go to the smallest node id.
    """
    best = min(_closer(world, current, dest_pos), default=None)
    if best is None:
        raise Stuck(f"node {current} is a local minimum")
    return best[1]


def inertia_only_step(
    world: World, current: int, state: MessageState, beta: float
) -> int:
    """One hop of the bend-toward-destination rule with no flag logic.

    The ideal direction is the previous travel direction rotated toward
    the destination by at most beta * pi; the neighbor maximizing the
    scalar product with it wins. state.prev_pos advances to this node.
    """
    x, y = world.xs[current], world.ys[current]
    vx, vy, alpha = travel_turn(state, x, y)
    gamma = clamp_turn(alpha, beta)
    cos_g, sin_g = math.cos(gamma), math.sin(gamma)
    nxt = next_hop(world, current, cos_g * vx - sin_g * vy, sin_g * vx + cos_g * vy)
    state.prev_pos = (x, y)
    return nxt


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


def ltp_init(source: int) -> LtpState:
    return LtpState(stack=[source], tried=[set()], budget=LTP_BUDGET)


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
    tried = state.tried[-1]
    candidates = [v for _, v in _closer(world, current, dest_pos) if v not in tried]
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


def _first_edge_cw(world: World, at: int, ref_theta: float, reverse_of: int | None) -> int:
    """Gabriel neighbor of `at` first encountered sweeping clockwise from
    ref_theta.

    The pick is the neighbor minimizing (ref_theta - theta_w) mod 2*pi.
    When reverse_of is given, that neighbor's zero angle counts as a full
    turn so the walk only doubles straight back on a dead-end spur. Angle
    ties break toward the smallest node id.
    """
    xs, ys = world.xs, world.ys
    x, y = xs[at], ys[at]
    best = -1
    best_delta = math.inf
    for w in world.gabriel_neighbors(at):
        delta = (ref_theta - math.atan2(ys[w] - y, xs[w] - x)) % TWO_PI
        if w == reverse_of and delta == 0.0:
            delta = TWO_PI
        if delta < best_delta:
            best_delta = delta
            best = w
    return best


def _orient(ax, ay, bx, by, cx, cy) -> int:
    """geometry.orient on the points (ax, ay), (bx, by), (cx, cy)."""
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > COLLINEAR_EPS) - (d < -COLLINEAR_EPS)


def _proper_crossing(ax, ay, bx, by, cx, cy, dx, dy) -> tuple[float, float] | None:
    """Intersection point of segments a-b and c-d, interiors only.

    Returns None unless the two segments cross at a single interior
    point. Touching endpoints or collinear overlap do not count; faces
    are switched only on unambiguous crossings.
    """
    if (
        _orient(ax, ay, bx, by, cx, cy) * _orient(ax, ay, bx, by, dx, dy) >= 0
        or _orient(cx, cy, dx, dy, ax, ay) * _orient(cx, cy, dx, dy, bx, by) >= 0
    ):
        return None
    abx, aby = bx - ax, by - ay
    cdx, cdy = dx - cx, dy - cy
    t = ((cx - ax) * cdy - (cy - ay) * cdx) / (abx * cdy - aby * cdx)
    return ax + t * abx, ay + t * aby


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
    xs, ys = world.xs, world.ys
    sx, sy = xs[source], ys[source]
    tx, ty = dest_pos.x, dest_pos.y
    anchor_d = math.hypot(sx - tx, sy - ty)
    edge = face_start = None

    def step(current: int) -> int:
        nonlocal anchor_d, edge, face_start
        if edge is None:
            if not world.gabriel_neighbors(source):
                raise Stuck(f"node {source} has no Gabriel links")
            first = _first_edge_cw(world, source, math.atan2(ty - sy, tx - sx), None)
            edge = face_start = (source, first)
        else:
            # The message just traversed edge u -> v and sits on v.
            u, v = edge
            ref = math.atan2(ys[u] - ys[v], xs[u] - xs[v])
            edge = (v, _first_edge_cw(world, v, ref, u))
            if edge == face_start:
                raise Stuck("completed a face without a closer way out")
        while True:
            u, v = edge
            x = _proper_crossing(xs[u], ys[u], xs[v], ys[v], sx, sy, tx, ty)
            x_d = math.inf if x is None else math.hypot(x[0] - tx, x[1] - ty)
            if x_d >= anchor_d:
                return v
            # Strict improvement: continue in the face holding the rest of
            # the line, which is the side of edge (u, v) the destination
            # is on. The crossing predicate guarantees the destination is
            # strictly off the edge's line, so the sign is decisive. Each
            # switch strictly shrinks anchor_d, so this cannot recur
            # forever even in degenerate layouts.
            anchor_d = x_d
            if _orient(xs[u], ys[u], xs[v], ys[v], tx, ty) > 0:
                # The line presses on through the face already being
                # walked (it dipped into the adjacent face and came back):
                # restart this face's walk at the crossing edge.
                face_start = edge
                return v
            # The line leaves through the edge: enter the adjacent face.
            # The message stays on u; the next boundary edge is the
            # clockwise successor of the virtual arrival from v.
            ref = math.atan2(ys[v] - ys[u], xs[v] - xs[u])
            edge = face_start = (u, _first_edge_cw(world, u, ref, v))

    return step


def face_route(
    world: World,
    source: int,
    dest_pos: Vec2,
    *,
    enforce_oob: bool = True,
    record_path: bool = False,
) -> TrialOutcome:
    """Route by face traversal (face_step) through the trial loop.

    The hop budget is three times the Gabriel edge count E, which a
    boundary walk needs and which may exceed the node count n. The walk
    runs with budget n first: a walk that ends within a budget takes the
    same course under any larger one, so its outcome stands when it ends
    short of n hops and within three times the lower bound on E from the
    Gabriel lists it read. Only a longer walk builds the whole Gabriel
    subgraph, for E, and walks again.
    """

    def run(budget: int) -> TrialOutcome:
        return walk(
            world,
            source,
            dest_pos,
            face_step(world, source, dest_pos),
            budget,
            enforce_oob=enforce_oob,
            record_path=record_path,
        )

    out = run(world.n)
    if out.status is TrialStatus.FAIL_TTL or out.hops > 3 * max(1, world.gabriel_edge_floor()):
        out = run(3 * max(1, len(world.gabriel_edges())))
    return out
