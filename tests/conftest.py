"""Shared helpers for the test suite."""

import math
import shutil
import tempfile

import numpy as np
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from gricsim import harness
from gricsim.geometry import Segment, Vec2
from gricsim.harness import STANDARD_REGION
from gricsim.worldgen import COMM_RADIUS, Obstacle, Region, World, _wire, make_obstacle


def lexsort_adjacency(n, edges):
    """Neighbour arrays of node 0..n-1 from an undirected edge list: a
    lexsort of both directions of each link. The test-side grouping that
    a world's lists are checked against."""
    if len(edges) == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n)]
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    counts = np.bincount(both[:, 0], minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return [both[offsets[i]:offsets[i + 1], 1] for i in range(n)]


def make_world(points, edge_list, region=None, obstacle_name="none"):
    """Hand-built World for unit tests.

    points is a sequence of (x, y) pairs, edge_list a sequence of
    undirected (u, v) node id pairs. No geometry checks are applied, so
    tests can build configurations deploy() would never produce; World
    still refuses ids out of range, self-loops and repeated links. The
    world serves its neighbour lists from these edges.
    """
    positions = np.asarray(points, dtype=float).reshape(-1, 2)
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    return World(
        region=region or Region(-100.0, 100.0, -100.0, 100.0),
        obstacle=make_obstacle(obstacle_name),
        positions=positions,
        edges=edges,
    )


# Coordinates on a 0.5 lattice around the destination, plus the region's
# border lines (-5 and 25): drawn worlds are full of coincident nodes,
# collinear runs, nodes exactly 1 apart, nodes exactly on the border and
# isolated nodes.
XS = st.sampled_from([17.5 + 0.5 * i for i in range(8)] + [25.0])
YS = st.sampled_from([9.0, 9.5, 10.0, 10.5, 11.0, -5.0, 25.0])
# Walls either on the inner lattice or along the line through two drawn
# nodes in radio range, at multiples -1, 0, 1/2, 1 and 2 of their offset:
# drawn nodes sit exactly on walls and on their ends, and links run
# collinear with them.
LATTICE = st.tuples(
    st.sampled_from([17.5 + 0.5 * i for i in range(8)]),
    st.sampled_from([9.0, 9.5, 10.0, 10.5, 11.0]),
)
ALONG = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def degenerate_worlds(draw, wired=True, xs=XS, ys=YS):
    """Worlds of one to eight nodes with coordinates drawn from xs and ys
    and up to two walls, linked by the deployment rule.

    wired=True hands the world its links from _wire; wired=False leaves
    the world to wire itself on demand, as a deployed world does.
    """
    points = draw(st.lists(st.tuples(xs, ys), min_size=1, max_size=8))
    pairs = [
        (p, q) for p in points for q in points
        if p != q and math.dist(p, q) <= COMM_RADIUS
    ]
    walls = []
    for _ in range(draw(st.integers(0, 2))):
        if not pairs or draw(st.booleans()):
            a, b = draw(LATTICE), draw(LATTICE)
        else:
            (px, py), (qx, qy) = draw(st.sampled_from(pairs))
            a, b = ((px + k * (qx - px), py + k * (qy - py)) for k in (draw(ALONG), draw(ALONG)))
        if a != b:
            walls.append(Segment(Vec2(*a), Vec2(*b)))
    positions = np.array(points, dtype=float)
    return World(
        region=STANDARD_REGION,
        obstacle=Obstacle("drawn", tuple(walls)),
        positions=positions,
        edges=_wire(positions, tuple(walls)) if wired else None,
    )


def pytest_configure(config):
    """Keep hypothesis's on-disk caches out of the working tree.

    Its pytest plugin caches the constants of local modules at collection
    time, whatever a test's settings say.
    """
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


def record_pools(monkeypatch):
    """Swap in a stand-in multiprocessing.Pool that records its size and
    maps in this process, so no real process is started however large
    workers is. Returns the list of recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(harness.multiprocessing, "Pool", RecordingPool)
    return sizes
