"""One reference per rule that builds a world or routes on its faces:
unit-disk pairs, links clear of walls, the Gabriel subgraph, edge
crossings and reachability over Gabriel links.

Each oracle returns its whole answer, so a test compares whole answers.
Each is written from its rule, with the test-side predicates of
vec2_geometry where a geometric test is needed. Nothing here comes from
gricsim.worldgen but its constants, so a fast path there is checked
against the rule, not against its own helpers.
"""

import math
from collections import deque
from types import SimpleNamespace

import numpy as np

from gricsim.geometry import Vec2
from gricsim.worldgen import COMM_RADIUS, GABRIEL_EPS
from vec2_geometry import segments_cross_interior, segments_properly_intersect

# Slack on the x windows that candidates come from: far above rounding,
# far below any distance that matters.
SLACK = 1e-6

# Candidate pairs tested at a time.
CHUNK = 1 << 18


def _windows(lo, hi):
    """(k, j) for every k and every j in lo[k]:hi[k], about CHUNK pairs
    at a time."""
    count = hi - lo
    done = np.cumsum(count)
    a = 0
    while a < len(count):
        b = max(a + 1, int(np.searchsorted(done, done[a] - count[a] + CHUNK, side="right")))
        run = count[a:b]
        k = np.repeat(np.arange(a, b), run)
        yield k, lo[k] + np.arange(len(k)) - np.repeat(np.cumsum(run) - run, run)
        a = b


def pairs(positions):
    """Every pair of nodes with dx*dx + dy*dy <= COMM_RADIUS**2, as
    sorted (u, v) rows with u < v.

    The candidates of a node are the nodes after it in x order up to
    COMM_RADIUS plus SLACK further in x.
    """
    order = np.argsort(positions[:, 0], kind="stable")
    x, y = positions[order].T
    lo = np.arange(1, len(x) + 1)
    hi = np.searchsorted(x, x + COMM_RADIUS + SLACK, side="right")
    found = [np.empty((0, 2), dtype=np.int64)]
    for i, j in _windows(lo, hi):
        dx, dy = x[i] - x[j], y[i] - y[j]
        near = np.flatnonzero(dx * dx + dy * dy <= COMM_RADIUS**2)
        u, v = order[i[near]], order[j[near]]
        found.append(np.column_stack([np.minimum(u, v), np.maximum(u, v)]))
    out = np.concatenate(found)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def blocked(p, q, wall):
    """Whether the closed link p -> q, two (x, y) pairs, touches the
    wall: segments_properly_intersect on a plain pair of points, since
    Segment refuses the zero-length link of two coincident nodes."""
    return segments_properly_intersect(SimpleNamespace(a=Vec2(*p), b=Vec2(*q)), wall)


def links(positions, walls):
    """pairs(positions) less every pair whose closed segment touches a
    wall (blocked, with the lower id first).

    Only a pair whose box meets the wall's, grown by 1e-9, is tested:
    the predicate's tolerance reaches far less than that.
    """
    found = pairs(positions)
    p, q = positions[found[:, 0]], positions[found[:, 1]]
    lo, hi = np.minimum(p, q) - 1e-9, np.maximum(p, q) + 1e-9
    cut = np.zeros(len(found), dtype=bool)
    for wall in walls:
        (x0, x1), (y0, y1) = sorted((wall.a.x, wall.b.x)), sorted((wall.a.y, wall.b.y))
        meet = (lo[:, 0] <= x1) & (hi[:, 0] >= x0) & (lo[:, 1] <= y1) & (hi[:, 1] >= y0)
        for k in np.flatnonzero(meet & ~cut).tolist():
            cut[k] = blocked(p[k].tolist(), q[k].tolist(), wall)
    return found[~cut]


def gabriel(positions, edges):
    """The rows of edges whose diameter disk holds no third node
    strictly inside.

    The disk of u-v has midpoint 0.5 * (u + v) and radius
    r = 0.5 * sqrt(dx*dx + dy*dy) of the difference u - v; a node w,
    neither u nor v, lies inside when its squared distance from the
    midpoint is below r*r - GABRIEL_EPS. The candidates are the nodes
    whose x lies within r plus SLACK of the midpoint's.
    """
    if len(edges) == 0:
        return edges.copy()
    pu, pv = positions[edges[:, 0]], positions[edges[:, 1]]
    mx, my = 0.5 * (pu + pv).T
    dx, dy = (pu - pv).T
    r = 0.5 * np.sqrt(dx * dx + dy * dy)
    threshold = r * r - GABRIEL_EPS
    # Nodes by x: j is a node's place in that order.
    order = np.argsort(positions[:, 0], kind="stable")
    x, y = positions[order].T
    place = np.empty(len(order), dtype=np.int64)
    place[order] = np.arange(len(order))
    ends = place[edges]
    lo = np.searchsorted(x, mx - r - SLACK)
    hi = np.searchsorted(x, mx + r + SLACK, side="right")
    keep = np.ones(len(edges), dtype=bool)
    for k, j in _windows(lo, hi):
        ex, ey = x[j] - mx[k], y[j] - my[k]
        inside = np.flatnonzero(ex * ex + ey * ey < threshold[k])
        k, j = k[inside], j[inside]
        keep[k[(j != ends[k, 0]) & (j != ends[k, 1])]] = False
    return edges[keep]


def crossings(positions, edges):
    """Every pair (e1, e2), e1 < e2, of edges that share no node and
    whose open segments cross or overlap (segments_cross_interior),
    ascending.

    The candidates are the pairs of edges whose boxes share a unit cell.
    A pair with both ends of one edge on one side of the other's line,
    by a cross product beyond 1e-9, cannot cross: those are dropped
    before the predicate runs.
    """
    xs, ys = positions[:, 0].tolist(), positions[:, 1].tolist()
    ends = edges.tolist()
    cells = {}
    for k, (u, v) in enumerate(ends):
        for cx in range(math.floor(min(xs[u], xs[v])), math.floor(max(xs[u], xs[v])) + 1):
            for cy in range(math.floor(min(ys[u], ys[v])), math.floor(max(ys[u], ys[v])) + 1):
                cells.setdefault((cx, cy), []).append(k)
    candidates = set()
    for bucket in cells.values():
        for i, e1 in enumerate(bucket):
            a, b = ends[e1]
            for e2 in bucket[i + 1:]:
                c, d = ends[e2]
                if c != a and c != b and d != a and d != b:
                    candidates.add((e1, e2))
    if not candidates:
        return []
    both = np.array(sorted(candidates), dtype=np.int64)
    a, b = positions[edges[both[:, 0]].T]
    c, d = positions[edges[both[:, 1]].T]

    def one_side(p, q, s, t):
        side = (q - p)[:, 0] * (s - p)[:, 1] - (q - p)[:, 1] * (s - p)[:, 0]
        other = (q - p)[:, 0] * (t - p)[:, 1] - (q - p)[:, 1] * (t - p)[:, 0]
        return ((side > 1e-9) & (other > 1e-9)) | ((side < -1e-9) & (other < -1e-9))

    apart = one_side(a, b, c, d) | one_side(c, d, a, b)
    points = [Vec2(x, y) for x, y in zip(xs, ys)]
    out = []
    for e1, e2 in both[~apart].tolist():
        (a, b), (c, d) = ends[e1], ends[e2]
        if segments_cross_interior(points[a], points[b], points[c], points[d]):
            out.append((e1, e2))
    return out


def gabriel_hops(world, source):
    """{node: hops} for every node that a breadth-first search from
    source reaches over world.gabriel_edges()."""
    adjacent = {}
    for u, v in world.gabriel_edges().tolist():
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    hops = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacent.get(u, ()):
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops
