"""Brute-force output oracle, independent of worldgen's kd-tree and wall test.

* Links: every pair at distance <= 1 by pairwise distance, minus the
  pairs whose closed segment touches a wall, by a scalar segment test.
* Gabriel edges: a link (u, v) is kept unless some node w sees it at an
  obtuse angle, (u - w) . (v - w) < 0, which is "w strictly inside the
  diameter disk" (with the program's 1e-12 slack on squared distance).
* Paths: every hop is a link (a Gabriel edge for face), no node before
  the last one meets a stopping rule, and the status agrees with where
  the path ends.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 256
GABRIEL_SLACK = 1e-12


def _orient(ax, ay, bx, by, cx, cy) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _between(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_touch(p, q, a, b) -> bool:
    """Whether closed segments p-q and a-b share at least one point."""
    o1 = _orient(*p, *q, *a)
    o2 = _orient(*p, *q, *b)
    o3 = _orient(*a, *b, *p)
    o4 = _orient(*a, *b, *q)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (
        (o1 == 0 and _between(*p, *q, *a))
        or (o2 == 0 and _between(*p, *q, *b))
        or (o3 == 0 and _between(*a, *b, *p))
        or (o4 == 0 and _between(*a, *b, *q))
    )


def brute_links(positions: np.ndarray, walls) -> set[tuple[int, int]]:
    """Unit-disk links that touch no wall, as (u, v) pairs with u < v."""
    x, y = positions[:, 0], positions[:, 1]
    n = len(positions)
    links = set()
    for i0 in range(0, n, CHUNK):
        dx = x[i0:i0 + CHUNK, None] - x[None, :]
        dy = y[i0:i0 + CHUNK, None] - y[None, :]
        ii, jj = np.nonzero(dx * dx + dy * dy <= 1.0)
        ii += i0
        keep = jj > ii
        links.update(zip(ii[keep].tolist(), jj[keep].tolist()))
    pairs = np.array(sorted(links), dtype=np.int64).reshape(-1, 2)
    px, py = x[pairs[:, 0]], y[pairs[:, 0]]
    qx, qy = x[pairs[:, 1]], y[pairs[:, 1]]
    for wall in walls:
        a, b = (wall.a.x, wall.a.y), (wall.b.x, wall.b.y)
        # Only links whose bounding box meets the wall's can touch it.
        near = (
            (np.maximum(px, qx) >= min(a[0], b[0]))
            & (np.minimum(px, qx) <= max(a[0], b[0]))
            & (np.maximum(py, qy) >= min(a[1], b[1]))
            & (np.minimum(py, qy) <= max(a[1], b[1]))
        )
        for u, v in pairs[near].tolist():
            if segments_touch(positions[u].tolist(), positions[v].tolist(), a, b):
                links.discard((u, v))
    return links


def brute_gabriel(positions: np.ndarray, links) -> set[tuple[int, int]]:
    """The links no third node sees at an obtuse angle."""
    edges = np.array(sorted(links), dtype=np.int64).reshape(-1, 2)
    x, y = positions[:, 0], positions[:, 1]
    keep = np.ones(len(edges), dtype=bool)
    for k0 in range(0, len(edges), CHUNK):
        u, v = edges[k0:k0 + CHUNK, 0], edges[k0:k0 + CHUNK, 1]
        dot = (x[u, None] - x[None, :]) * (x[v, None] - x[None, :]) + (
            y[u, None] - y[None, :]
        ) * (y[v, None] - y[None, :])
        keep[k0:k0 + CHUNK] = ~(dot < -GABRIEL_SLACK).any(axis=1)
    return {(int(u), int(v)) for u, v in edges[keep]}


def edge_set(edges: np.ndarray) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in edges.tolist()}


def check_path(world, algorithm, outcome, dest, edges, ttl_cap):
    """Problems with one replayed trial's path; empty when it holds."""
    index = {tuple(p): i for i, p in enumerate(world.positions.tolist())}
    nodes = [index.get((p.x, p.y)) for p in outcome.path]
    if None in nodes:
        return ["path visits a position that is no node"]
    problems = []
    if outcome.hops != len(nodes) - 1:
        problems.append(f"{outcome.hops} hops but {len(nodes) - 1} moves in the path")
    for u, v in zip(nodes, nodes[1:]):
        if (min(u, v), max(u, v)) not in edges:
            problems.append(f"hop {u}->{v} is not a link")
            break
    walked = sum(
        math.dist(world.positions[u], world.positions[v]) for u, v in zip(nodes, nodes[1:])
    )
    if not math.isclose(walked, outcome.distance, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"distance {outcome.distance} but the path is {walked} long")

    def to_dest(i):
        return math.dist(world.positions[i], (dest.x, dest.y))

    def to_border(i):
        x, y = world.positions[i]
        r = world.region
        return min(x - r.x_min, r.x_max - x, y - r.y_min, r.y_max - y)

    for i in nodes[:-1]:
        if to_dest(i) < 1.0 or to_border(i) <= 1.0:
            problems.append(f"node {i} meets a stopping rule before the path ends")
            break
    last = nodes[-1]
    status = outcome.status.value
    if status == "success" and not to_dest(last) < 1.0:
        problems.append("success, but the last node is not within 1 of the destination")
    if status == "fail_oob" and not to_border(last) <= 1.0:
        problems.append("fail_oob, but the last node is not within 1 of the border")
    if status == "fail_ttl" and outcome.hops != ttl_cap + 1:
        problems.append(f"fail_ttl after {outcome.hops} hops, budget {ttl_cap}")
    if status == "fail_stuck" and algorithm == "greedy":
        here = to_dest(last)
        if any(to_dest(w) < here for e in edges for w in e if last in e and w != last):
            problems.append("greedy stuck at a node with a closer neighbour")
    return [f"{algorithm}: {p}" for p in problems]
