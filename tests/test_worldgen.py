"""World generation checked against the reference constructions of
tests/oracles.py, and its two wiring engines against each other."""

import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import XS, YS, degenerate_worlds, lexsort_adjacency, make_world
from gricsim import worldgen
from gricsim.geometry import Segment, Vec2
from gricsim.harness import Algorithm, ExperimentConfig, build_trial_world, run_trial
from gricsim.worldgen import (
    COMM_RADIUS,
    GABRIEL_EPS,
    MAX_NODES,
    OBSTACLE_NAMES,
    Obstacle,
    Region,
    UnknownObstacle,
    World,
    _CELL_SCALE,
    _SIDE_MARGIN,
    _gabriel_disks,
    _gabriel_filter,
    _grid,
    _in_disk,
    _link_blocked,
    _pairs,
    _wall_terms,
    _wire,
    deploy,
    find_planarity_violation,
    interior_mean_degree,
    is_connected,
    make_obstacle,
    node_count,
    parse_world_text,
    world_to_text,
)
from vec2_geometry import (
    border_distance,
    orient,
    segments_properly_intersect,
)

SMALL = Region(0.0, 10.0, 0.0, 10.0)


def scalar_interior_mean_degree(world):
    """Reference for interior_mean_degree: one Vec2 per node."""
    links = lexsort_adjacency(world.n, world.edges)
    degrees = [
        len(links[i])
        for i in range(world.n)
        if border_distance(world.region, world.pos(i)) >= COMM_RADIUS
    ]
    if not degrees:
        return float("nan")
    return float(np.mean(degrees))


def collinear(positions, edges, pair):
    """Whether the two edges of a pair lie on one line."""
    a, b = (Vec2(*positions[v]) for v in edges[pair[0]])
    c, d = (Vec2(*positions[v]) for v in edges[pair[1]])
    return orient(a, b, c) == orient(a, b, d) == 0


def random_edge_sets(seed, cases):
    """(positions, edges) pairs of random edge sets: nodes on a quarter
    lattice, so edges share endpoints, run collinear and overlap, in every
    other case, and generic nodes in the rest."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        n = int(rng.integers(2, 30))
        if case % 2 == 0:
            positions = rng.integers(0, 9, (n, 2)) * 0.25
        else:
            positions = rng.uniform(0.0, 2.5, (n, 2))
        u, v = np.triu_indices(n, 1)
        d = np.hypot(*(positions[u] - positions[v]).T)
        ok = (d <= 1.0) & (d > 0.0)
        pick = rng.random(ok.sum()) < 0.4
        edges = np.column_stack([u[ok][pick], v[ok][pick]]).astype(np.int64)
        yield positions, edges[rng.permutation(len(edges))]


def edge_lists(n, edges):
    """Neighbour lists of node 0..n-1 from the test-side grouping."""
    return [b.tolist() for b in lexsort_adjacency(n, edges)]


def rows_sorted(rows):
    """(u, v) rows in ascending order, repeats kept."""
    return rows[np.lexsort((rows[:, 1], rows[:, 0]))]


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestRegion:
    def test_extent_validation(self):
        with pytest.raises(ValueError):
            Region(0, 0, 0, 1)
        with pytest.raises(ValueError):
            Region(0, 1, 3, 2)

    def test_measurements(self):
        r = Region(-5, 25, -5, 25)
        assert r.width == 30 and r.height == 30 and r.area == 900


class TestObstacleCatalogue:
    def test_names(self):
        assert OBSTACLE_NAMES == (
            "none",
            "stripe",
            "ushape",
            "concave1",
            "concave2",
        )

    def test_unknown_name(self):
        with pytest.raises(UnknownObstacle):
            make_obstacle("wall-of-text")

    def test_wall_counts(self):
        assert len(make_obstacle("none").walls) == 0
        assert len(make_obstacle("stripe").walls) == 1
        assert len(make_obstacle("ushape").walls) == 3
        assert len(make_obstacle("concave1").walls) == 5
        assert len(make_obstacle("concave2").walls) == 5

    def test_concave_layouts_extend_the_ushape(self):
        u = set(
            (w.a.x, w.a.y, w.b.x, w.b.y) for w in make_obstacle("ushape").walls
        )
        for name in ("concave1", "concave2"):
            walls = set(
                (w.a.x, w.a.y, w.b.x, w.b.y)
                for w in make_obstacle(name).walls
            )
            assert u < walls


class TestDeploy:
    def test_node_count_rounds(self):
        assert deploy(2.0, SMALL, make_obstacle("none"), 0).n == 200
        assert deploy(0.0, SMALL, make_obstacle("none"), 0).n == 0
        assert deploy(0.004, SMALL, make_obstacle("none"), 0).n == 0

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            deploy(-1.0, SMALL, make_obstacle("none"), 0)

    @pytest.mark.parametrize("density", [math.nan, math.inf, -math.inf])
    def test_non_finite_density_rejected(self, density):
        with pytest.raises(ValueError):
            deploy(density, SMALL, make_obstacle("none"), 0)

    def test_node_count_is_capped(self):
        assert node_count(MAX_NODES / SMALL.area, SMALL) == MAX_NODES
        # 1e6 on the standard 30 x 30 region would be 9e8 nodes, 13.4 GiB
        # of positions; node_count decides without allocating any.
        for density in (1e6, 1e300, sys.float_info.max):
            with pytest.raises(ValueError, match="at most"):
                node_count(density, SMALL)

    def test_deploy_rejects_too_many_nodes(self, monkeypatch):
        monkeypatch.setattr(worldgen, "MAX_NODES", 150)
        assert deploy(1.5, SMALL, make_obstacle("none"), 0).n == 150
        with pytest.raises(ValueError, match="at most 150"):
            deploy(1.51, SMALL, make_obstacle("none"), 0)

    def test_positions_inside_region(self):
        w = deploy(3.0, SMALL, make_obstacle("none"), 1)
        assert np.all(w.positions >= 0.0) and np.all(w.positions <= 10.0)

    def test_deterministic_from_seed(self):
        a = deploy(2.5, SMALL, make_obstacle("stripe"), 42)
        b = deploy(2.5, SMALL, make_obstacle("stripe"), 42)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.edges.tobytes() == b.edges.tobytes()

    def test_different_seeds_differ(self):
        a = deploy(2.5, SMALL, make_obstacle("none"), 0)
        b = deploy(2.5, SMALL, make_obstacle("none"), 1)
        assert a.positions.tobytes() != b.positions.tobytes()

    def test_links_match_brute_force(self):
        # Unit-disk wiring, no obstacle.
        w = deploy(2.0, SMALL, make_obstacle("none"), 7)
        assert_same_array(w.edges, oracles.links(w.positions, ()))

    def test_blocked_links_match_brute_force(self):
        # Same check with walls cutting the region.
        walls = [
            Segment(Vec2(5.0, 2.0), Vec2(5.0, 8.0)),
            Segment(Vec2(2.0, 5.0), Vec2(8.0, 5.0)),
        ]
        obstacle = make_obstacle("none")
        obstacle = type(obstacle)(name="cross", walls=tuple(walls))
        w = deploy(2.0, SMALL, obstacle, 8)
        assert_same_array(w.edges, oracles.links(w.positions, walls))

    def test_no_link_longer_than_radius(self):
        w = deploy(3.0, SMALL, make_obstacle("none"), 9)
        d = w.positions[w.edges[:, 0]] - w.positions[w.edges[:, 1]]
        assert np.all(np.einsum("ij,ij->i", d, d) <= COMM_RADIUS**2 + 1e-12)

    def test_no_link_crosses_stripe_wall(self):
        obstacle = make_obstacle("stripe")
        region = Region(-5.0, 25.0, -5.0, 25.0)
        w = deploy(1.0, region, obstacle, 3)
        wall = obstacle.walls[0]
        for u, v in w.edges:
            link = Segment(w.pos(int(u)), w.pos(int(v)))
            assert not segments_properly_intersect(link, wall)

    def test_out_links_mirror_edges(self):
        w = deploy(2.0, SMALL, make_obstacle("none"), 10)
        lists = [w.neighbors(i) for i in range(w.n)]
        assert all(nbrs == sorted(nbrs) for nbrs in lists)
        assert sum(map(len, lists)) == 2 * len(w.edges)
        for u, v in w.edges[:200].tolist():
            assert v in lists[u]
            assert u in lists[v]


class TestGabriel:
    def test_matches_brute_force(self):
        w = deploy(2.0, SMALL, make_obstacle("none"), 11)
        assert_same_array(w.gabriel_edges(), oracles.gabriel(w.positions, w.edges))

    def test_subset_of_links(self):
        w = deploy(2.5, SMALL, make_obstacle("stripe"), 12)
        links = set(map(tuple, w.edges))
        assert set(map(tuple, w.gabriel_edges())) <= links

    def test_midpoint_blocker_removes_edge(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.01]])
        edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        kept = _gabriel_filter(positions, edges)
        assert (0, 1) not in set(map(tuple, kept))
        assert (0, 2) in set(map(tuple, kept))

    def test_node_on_circle_keeps_edge(self):
        # (0.5, 0.5) sits exactly on the diameter circle of (0,0)-(1,0).
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        edges = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        kept = _gabriel_filter(positions, edges)
        assert (0, 1) in set(map(tuple, kept))
        assert_same_array(kept, oracles.gabriel(positions, edges))

    def test_planar_on_random_worlds(self):
        for seed in range(5):
            w = deploy(3.0, SMALL, make_obstacle("none"), 100 + seed)
            g = w.gabriel_edges()
            assert find_planarity_violation(w.positions, g) is None

    def test_gabriel_preserves_connectivity(self):
        # The Gabriel filter never disconnects a connected unit-disk graph
        # when there are no walls: any removed edge has a two-hop detour.
        for seed in range(3):
            w = deploy(4.0, SMALL, make_obstacle("none"), 200 + seed)
            if is_connected(w):
                assert is_connected(World(SMALL, w.obstacle, w.positions, w.gabriel_edges()))


class TestPlanarityCheck:
    def test_detects_crossing(self):
        positions = np.array(
            [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
        )
        edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
        assert find_planarity_violation(positions, edges) == (0, 1)

    def test_shared_vertex_allowed(self):
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        assert find_planarity_violation(positions, edges) is None

    def test_disjoint_edges_allowed(self):
        positions = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        )
        edges = np.array([[0, 1], [2, 3]], dtype=np.int64)
        assert find_planarity_violation(positions, edges) is None

    def test_matches_the_bucket_loop_on_random_edge_sets(self):
        found = overlaps = 0
        for case, (positions, edges) in enumerate(random_edge_sets(41, 60)):
            every = oracles.crossings(positions, edges)
            assert find_planarity_violation(positions, edges) == min(every, default=None), case
            found += bool(every)
            overlaps += any(collinear(positions, edges, pair) for pair in every)
        assert found >= 20 and overlaps >= 1, (found, overlaps)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_small_chunks_keep_the_smallest_pair(self, chunk, monkeypatch):
        # A chunk ends only between entries, so chunk=1 also covers a
        # chunk holding more pairs than its size.
        cases = list(random_edge_sets(43, 30))
        w = deploy(2.0, SMALL, make_obstacle("stripe"), 3)
        cases += [(w.positions, w.edges), (w.positions, w.gabriel_edges())]
        want = [min(oracles.crossings(p, e), default=None) for p, e in cases]
        monkeypatch.setattr(worldgen, "_PAIR_CHUNK", chunk)
        assert [find_planarity_violation(p, e) for p, e in cases] == want
        found = len(want) - want.count(None)
        assert found >= 10 and want[-2] is not None and want[-1] is None

    def test_collinear_overlap_and_touching_tips(self):
        positions = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [1.5, 0.0], [2.5, 0.0], [1.0, 0.0]]
        )
        # 0-1 and 2-3 overlap on [0.5, 1]. 5-3 and 3-4 share node 3, and
        # 0-1 and 5-3 only touch tips at x = 1, on two distinct nodes.
        edges = np.array([[3, 4], [0, 1], [2, 3], [5, 3]], dtype=np.int64)
        assert find_planarity_violation(positions, edges) == (1, 2)
        assert find_planarity_violation(positions, edges[[0, 1, 3]]) is None
        # The smallest pair wins, wherever the cells put it.
        positions = np.array(
            [[0.2, 0.2], [0.8, 0.8], [0.2, 0.8], [0.8, 0.2],
             [3.2, 3.2], [3.8, 3.8], [3.2, 3.8], [3.8, 3.2]]
        )
        edges = np.array([[4, 5], [0, 1], [6, 7], [2, 3]], dtype=np.int64)
        assert find_planarity_violation(positions, edges) == (0, 2)

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_matches_the_bucket_loop_on_worlds(self, obstacle):
        w = build_trial_world(3, 3.0, 0, obstacle)
        assert find_planarity_violation(w.positions, w.gabriel_edges()) is None
        assert oracles.crossings(w.positions, w.gabriel_edges()) == []
        # The unit-disk graph itself crosses.
        every = oracles.crossings(w.positions, w.edges)
        assert every and find_planarity_violation(w.positions, w.edges) == min(every)


class TestConnectivity:
    SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_empty_graph(self):
        assert is_connected(make_world([], []))

    def test_singleton(self):
        assert is_connected(make_world([(0.0, 0.0)], []))

    def test_two_components(self):
        assert not is_connected(make_world(self.SQUARE, [(0, 1), (2, 3)]))
        # A deployed world searches its lists wired on demand.
        assert not is_connected(deploy(0.5, SMALL, make_obstacle("none"), 1))

    def test_path_graph(self):
        assert is_connected(make_world(self.SQUARE, [(0, 1), (2, 1), (3, 2)]))
        w = deploy(6.0, Region(0, 3, 0, 3), make_obstacle("none"), 2)
        assert is_connected(w) and w._edges is None


class TestInteriorDegree:
    def test_matches_pi_density(self):
        region = Region(-5.0, 25.0, -5.0, 25.0)
        for seed in range(3):
            w = deploy(4.5, region, make_obstacle("none"), 300 + seed)
            got = interior_mean_degree(w)
            want = math.pi * 4.5
            assert abs(got - want) / want < 0.05

    def test_nan_when_no_interior(self):
        w = deploy(2.0, Region(0, 1.5, 0, 1.5), make_obstacle("none"), 0)
        assert math.isnan(interior_mean_degree(w))

    def test_bit_identical_to_per_node_loop(self):
        worlds = [build_trial_world(5, d, 0, o) for o in OBSTACLE_NAMES for d in (2.0, 5.0)]
        worlds += [
            deploy(2.0, Region(0, 1.5, 0, 1.5), make_obstacle("none"), 0),
            deploy(3.0, Region(0, 3, 0, 4), make_obstacle("none"), 1),
            deploy(0.0, SMALL, make_obstacle("none"), 0),
            # Node 0 sits exactly one radio radius from the border.
            make_world(
                [(1.0, 2.0), (1.5, 1.5), (0.5, 0.5), (2.0, 2.0)],
                [(0, 1), (0, 2), (0, 3), (1, 3)],
                region=Region(0, 3, 0, 3),
            ),
        ]
        for w in worlds:
            got = interior_mean_degree(w)
            want = scalar_interior_mean_degree(w)
            assert math.isnan(got) == math.isnan(want)
            if not math.isnan(want):
                assert got.hex() == want.hex()


class TestWorldText:
    def test_round_trip_exact(self):
        w = deploy(2.0, SMALL, make_obstacle("stripe"), 13)
        positions, edges = parse_world_text(world_to_text(w))
        assert positions.tobytes() == w.positions.tobytes()
        assert edges.tobytes() == w.edges.tobytes()

    def test_header_line(self):
        w = deploy(0.1, SMALL, make_obstacle("none"), 0)
        assert world_to_text(w).splitlines()[0] == "worldv1"

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            parse_world_text("0 1.0 2.0\n")

    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError):
            parse_world_text("worldv1\n0 1.0 2.0 extra junk\n")

    def test_rejects_gapped_ids(self):
        with pytest.raises(ValueError):
            parse_world_text("worldv1\n0 1.0 2.0\n2 3.0 4.0\n")

    # Three nodes and the link 0-1; each test adds one bad link row.
    THREE = "worldv1\n0 0.0 0.0\n1 0.5 0.0\n2 1.0 0.0\n0 1\n"

    def rejects(self, row, match):
        with pytest.raises(ValueError, match=match):
            parse_world_text(self.THREE + row + "\n")
        positions, edges = parse_world_text(self.THREE)
        bad = np.vstack([edges, [[int(v) for v in row.split()]]])
        with pytest.raises(ValueError, match=match):
            World(SMALL, make_obstacle("none"), positions, bad)

    def test_rejects_an_id_out_of_range(self):
        self.rejects("0 7", r"edge row 1 \(0, 7\): node ids must lie in 0\.\.2")
        self.rejects("-1 2", r"edge row 1 \(-1, 2\): node ids must lie in 0\.\.2")

    def test_rejects_a_self_loop(self):
        self.rejects("1 1", r"edge row 1 \(1, 1\): a node cannot link to itself")

    def test_rejects_a_repeated_link(self):
        self.rejects("0 1", r"edge row 1 \(0, 1\): repeats the link of row 0")
        self.rejects("1 0", r"edge row 1 \(1, 0\): repeats the link of row 0")

    @pytest.mark.parametrize("coords", ["nan 1", "0 inf", "-inf 0", "1e400 0", "0 -NaN"])
    def test_rejects_a_non_finite_coordinate(self, coords):
        # 1e400 reads as inf. Node 0's row is named, not the link row.
        text = f"worldv1\n0 {coords}\n1 0 0\n0 1\n"
        match = re.escape(f"non-finite coordinate in worldv1 line: '0 {coords}'")
        with pytest.raises(ValueError, match=match):
            parse_world_text(text)

    def test_empty_world(self):
        positions, edges = parse_world_text("worldv1\n")
        assert positions.shape == (0, 2)
        assert edges.shape == (0, 2)


def _edges(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _all_pairs(n):
    return _edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def _on_threshold(offset):
    """Edge (0,1) of radius 0.35 and a node whose squared distance from the
    midpoint is the Gabriel threshold plus about offset."""
    r2 = 0.35 * 0.35
    y = math.sqrt(r2 - GABRIEL_EPS + offset)
    return np.array([[0.0, 0.0], [0.7, 0.0], [0.35, y]])


def _endpoint_nearest_the_midpoint(offset):
    """Edge (0,1) of radius 0.35, node 2 offset from its circle in squared
    distance from the midpoint, and node 3 outside."""
    r2 = 0.35 * 0.35
    return np.array([[0.0, 0.0], [0.7, 0.0], [0.35, math.sqrt(r2 + offset)], [0.35, -0.5]])


COCIRCULAR_SQUARE = np.array([[0.0, 0.0], [0.6, 0.0], [0.6, 0.6], [0.0, 0.6]])

COINCIDENT_LAYOUTS = [
    # A third node on the midpoint of two coincident ones.
    [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)],
    # Coincident endpoints with a node beside them.
    [(0.2, 0.2), (0.2, 0.2), (0.6, 0.2)],
    # Two nodes stacked on the midpoint of a third pair.
    [(0.0, 0.0), (0.8, 0.0), (0.4, 0.0), (0.4, 0.0)],
    # A node stacked on an endpoint.
    [(0.0, 0.0), (0.8, 0.0), (0.0, 0.0), (0.4, 0.5)],
]


def gabriel_checked(positions, edges):
    """_gabriel_filter's output, after checking it against the Gabriel
    oracle, byte for byte."""
    got = _gabriel_filter(positions, edges)
    assert_same_array(got, oracles.gabriel(positions, edges))
    return got


def past_the_grid(positions, edges):
    """Mask of the edges whose diameter disk has a bounding box reaching
    cells past the grid of _grid(positions)."""
    _, _, starts, rows = _grid(positions)
    shape = np.array([(len(starts) - 1) // rows, rows])
    origin = np.floor(positions.min(axis=0) * _CELL_SCALE) - 1
    pu, pv = positions[edges[:, 0]], positions[edges[:, 1]]
    mids = 0.5 * (pu + pv)
    r = 0.5 * np.hypot(*(pu - pv).T)[:, None]
    lo = np.floor((mids - r) * _CELL_SCALE) - origin
    hi = np.floor((mids + r) * _CELL_SCALE) - origin
    return ((lo < 0) | (hi >= shape)).any(axis=1)


def long_edge_sets(seed, cases):
    """(positions, edges) pairs of explicit edge sets with edges up to 6
    long, in boxes of 0.5 to 5 on a side: their diameter disks span many
    grid cells, and many reach past the grid's outer cells. Nodes sit on
    a lattice, so some lie exactly on a disk's circle, in every other
    case."""
    rng = np.random.default_rng(seed)
    for case in range(cases):
        n = int(rng.integers(2, 25))
        size = rng.uniform(0.5, 5.0, 2)
        if case % 2 == 0:
            positions = rng.integers(0, (4 * size).astype(int) + 1, (n, 2)) * 0.25
        else:
            positions = rng.uniform(0.0, 1.0, (n, 2)) * size
        u, v = np.triu_indices(n, 1)
        d = np.hypot(*(positions[u] - positions[v]).T)
        pick = (rng.random(len(u)) < 0.5) & (d <= 6.0)
        edges = np.column_stack([u[pick], v[pick]]).astype(np.int64)
        yield positions, edges[rng.permutation(len(edges))]


class TestFastGabriel:
    """The whole-graph filter against the Gabriel oracle."""

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_matches_scalar_loop_on_random_worlds(self, obstacle):
        for density in (2.0, 5.0, 8.0):
            w = build_trial_world(5, density, 0, obstacle)
            gabriel_checked(w.positions, w.edges)

    @pytest.mark.parametrize(
        "points,edges",
        [
            ([], []),
            ([(0.0, 0.0)], []),
            ([(0.0, 0.0), (0.5, 0.5)], []),
            ([(0.0, 0.0), (0.5, 0.5)], [(0, 1)]),
            ([(0.3, 0.3), (0.3, 0.3)], [(0, 1)]),
        ],
    )
    def test_tiny_worlds(self, points, edges):
        positions = np.array(points, dtype=float).reshape(-1, 2)
        e = _edges(edges)
        assert_same_array(gabriel_checked(positions, e), e)

    def test_memory_follows_the_nodes_not_the_area(self):
        # Three nodes spanning 3,000 units: a grid array over their
        # bounding box would hold nine million cells, about 137 MB.
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [3000.0, 3000.0]])
        edges = _edges([(0, 1), (1, 2)])
        tracemalloc.start()
        try:
            kept = _gabriel_filter(positions, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak
        assert_same_array(kept, oracles.gabriel(positions, edges))

    @pytest.mark.parametrize("points", COINCIDENT_LAYOUTS)
    def test_coincident_nodes(self, points):
        positions = np.array(points, dtype=float)
        gabriel_checked(positions, _all_pairs(len(positions)))

    @pytest.mark.parametrize("offset", [-1e-8, -1e-11, -1e-13, 1e-13, 1e-11, 1e-8])
    def test_node_next_to_the_threshold(self, offset):
        got = gabriel_checked(_on_threshold(offset), _all_pairs(3))
        # Far enough from the threshold, the offset alone decides.
        if abs(offset) > 1e-12:
            assert ((0, 1) in set(map(tuple, got.tolist()))) == (offset > 0)

    def test_nodes_straddling_the_threshold(self):
        # Two nodes straddle the threshold of edge (0, 1), 1e-13 inside and
        # outside: the inner one removes it, though the outer one lies
        # nearer the midpoint.
        inner = math.sqrt(0.35 * 0.35 - GABRIEL_EPS - 1e-13)
        outer = math.sqrt(0.35 * 0.35 - GABRIEL_EPS + 1e-13)
        positions = np.array([[0.0, 0.0], [0.7, 0.0], [0.35, inner], [0.35, -outer]])
        assert len(gabriel_checked(positions, _edges([(0, 1)]))) == 0

    @pytest.mark.parametrize("offset", [-1e-13, 0.0, 1e-13, 1e-8])
    @pytest.mark.parametrize("all_pairs", [False, True])
    def test_endpoint_nearest_the_midpoint(self, offset, all_pairs):
        # Node 2 lies offset from the circle of edge (0, 1), in squared
        # distance from its midpoint, so an endpoint is the midpoint's
        # nearest node or within rounding of it: the edge is kept, alone
        # or among all the pairs of the four nodes.
        positions = _endpoint_nearest_the_midpoint(offset)
        e = _all_pairs(4) if all_pairs else _edges([(0, 1)])
        got = gabriel_checked(positions, e)
        assert (0, 1) in set(map(tuple, got.tolist()))

    def test_cocircular_square_keeps_both_diagonals(self):
        e = _all_pairs(4)
        assert_same_array(gabriel_checked(COCIRCULAR_SQUARE, e), e)

    def test_long_explicit_edges(self):
        # Disks up to 3 in radius, some of them reaching past the grid.
        removed = past = 0
        for positions, edges in long_edge_sets(47, 60):
            got = gabriel_checked(positions, edges)
            removed += len(edges) - len(got)
            past += int(past_the_grid(positions, edges).sum())
        assert removed > 100 and past > 50, (removed, past)

    def test_far_from_the_origin(self):
        # Near 1e8 a coordinate's ulp is 1.5e-8, so an endpoint of a link
        # rounds strictly inside the link's own circle, by more than
        # GABRIEL_EPS, as often as not: the filter must skip endpoints.
        rng = np.random.default_rng(3)
        inside = 0
        for _ in range(5):
            positions = 1e8 + rng.uniform(0.0, 3.0, (30, 2))
            u, v = np.triu_indices(30, 1)
            near = np.hypot(*(positions[u] - positions[v]).T) <= 1.0
            e = np.column_stack([u[near], v[near]]).astype(np.int64)
            gabriel_checked(positions, e)
            mids, _, threshold = _gabriel_disks(positions[e[:, 0]], positions[e[:, 1]])
            ends = positions[e[:, 0]] - mids
            inside += int(_in_disk(ends[:, 0], ends[:, 1], threshold).sum())
        assert inside > 50, inside

    def test_disks_past_the_outer_cells(self):
        # The four sides of a 2.9 x 2.9 square: their disks, of radius
        # 1.45, reach past the grid, which holds the square and one cell
        # around it. A node inside near the bottom and one near the right
        # side remove those two sides. The diagonal's disk stays in the
        # grid.
        positions = np.array(
            [[0.0, 0.0], [2.9, 0.0], [2.9, 2.9], [0.0, 2.9], [1.45, 0.3], [2.6, 1.45]]
        )
        e = _edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert past_the_grid(positions, e).tolist() == [True] * 4 + [False]
        got = gabriel_checked(positions, e)
        assert got.tolist() == [[2, 3], [0, 3]]


# Walls of the pruning checks: a horizontal one (degenerate bounding box)
# and a slanted one.
FLAT = Segment(Vec2(0.0, 0.0), Vec2(2.0, 0.0))
SLANT = Segment(Vec2(4.0, 4.0), Vec2(6.0, 5.0))


class TestWallPruning:
    @pytest.mark.parametrize(
        "points",
        [
            # A node exactly on the wall, linked across and along it.
            [(1.0, 0.0), (1.0, 0.5), (1.0, -0.5), (0.5, 0.3), (1.6, 0.0)],
            # Links collinear with the wall: overlapping it, past its end,
            # and touching its end.
            [(1.5, 0.0), (2.3, 0.0), (2.5, 0.0), (3.2, 0.0), (-0.9, 0.0), (0.0, 0.0)],
            # A link ending exactly at each wall endpoint.
            [(2.5, 0.5), (2.0, 0.0), (-0.6, -0.6), (0.0, 0.0), (3.3, 4.5), (4.0, 4.0)],
            # Lower-id endpoints exactly COMM_RADIUS outside a corner of
            # each wall's bounding box, linked to the corner or past it.
            [(3.0, 4.0), (4.0, 4.0), (7.0, 5.0), (6.0, 5.0), (-1.0, 0.0), (0.0, 0.0)],
            [(3.0, 4.0), (3.9, 4.4), (7.0, 5.0), (6.05, 4.4), (3.0, 3.0), (4.0, 4.0)],
            [(6.0, 6.0), (6.0, 5.0), (2.0, 1.0), (2.0, 0.0), (0.0, -1.0), (0.0, 0.0)],
        ],
    )
    def test_matches_unpruned_wall_test(self, points):
        positions = np.array(points, dtype=float)
        want = oracles.links(positions, (FLAT, SLANT))
        assert_same_array(_wire(positions, (FLAT, SLANT)), want)
        # Every case blocks something, so each exercises the wall test.
        assert len(want) < len(oracles.pairs(positions))

    def test_matches_on_nodes_snapped_to_walls(self):
        rng = np.random.default_rng(5)
        walls = make_obstacle("concave2").walls
        on_walls = []
        for wall in walls:
            t = rng.choice([0.0, 0.25, 0.5, 1.0], size=20)
            on_walls.append(
                np.column_stack(
                    [wall.a.x + t * (wall.b.x - wall.a.x), wall.a.y + t * (wall.b.y - wall.a.y)]
                )
            )
        positions = np.concatenate(on_walls + [rng.uniform(4.0, 16.0, (1500, 2))])
        positions = positions[rng.permutation(len(positions))]
        assert_same_array(_wire(positions, walls), oracles.links(positions, walls))

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_deploy_matches_unpruned_wall_test(self, obstacle):
        w = build_trial_world(5, 4.0, 0, obstacle)
        assert_same_array(w.edges, oracles.links(w.positions, w.obstacle.walls))


class TestOneSortAdjacency:
    """A world's per-node lists against the lexsort grouping of its edges."""

    def test_matches_lexsort(self):
        # Explicit edges in any order and either orientation.
        rng = np.random.default_rng(9)
        for n, m in [(1, 0), (5, 3), (50, 200), (400, 3000)]:
            pairs = rng.integers(0, n, size=(m, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            _, first = np.unique(np.sort(pairs, axis=1), axis=0, return_index=True)
            edges = pairs[np.sort(first)].astype(np.int64)
            w = make_world(rng.uniform(0, 10, (n, 2)), edges)
            for i, b in enumerate(lexsort_adjacency(n, edges)):
                assert_same_array(np.array(w.neighbors(i), dtype=np.int64), b)

    def test_matches_lexsort_on_worlds(self):
        for obstacle in OBSTACLE_NAMES:
            w = build_trial_world(5, 3.0, 1, obstacle)
            for lists, edges in (
                ([w.neighbors(i) for i in range(w.n)], w.edges),
                ([w.gabriel_neighbors(i) for i in range(w.n)], w.gabriel_edges()),
            ):
                for i, b in enumerate(lexsort_adjacency(w.n, edges)):
                    assert_same_array(np.array(lists[i], dtype=np.int64), b)


# Wall ends on a quarter lattice, so that a wall's midpoint is exact.
QUARTER = st.integers(0, 16).map(lambda k: k / 4)

# Offsets off a wall's line and past its ends, in units of the side
# margin m: on the line, inside and outside the margin, and on its edge.
MARGINS = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


def near_wall(draw, wall, t):
    """The point t of the way along wall, moved a drawn number of side
    margins off its line and along it."""
    (ax, ay), (bx, by) = (wall.a.x, wall.a.y), (wall.b.x, wall.b.y)
    length = math.hypot(bx - ax, by - ay)
    ux, uy = (bx - ax) / length, (by - ay) / length
    off, along = draw(MARGINS) * _SIDE_MARGIN, draw(MARGINS) * _SIDE_MARGIN
    return (
        ax + t * (bx - ax) + along * ux - off * uy,
        ay + t * (by - ay) + along * uy + off * ux,
    )


@st.composite
def snapped_worlds(draw):
    """Unwired worlds of up to 40 random nodes in a 4 x 4 box and up to
    two walls, the second often starting where the first ends (a
    corner), plus copies of drawn nodes, partners 1 to their east or
    north, the pair 2.0 and 1 - 2**-53 (linked, but two unit cells
    apart), nodes snapped onto the walls (on their ends, on their
    midpoints and at drawn points along them) and nodes near the walls:
    up to 2 side margins off their lines and past or short of their
    ends."""
    coord = st.floats(0.0, 4.0)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    walls = []
    for _ in range(draw(st.integers(0, 2))):
        a, b = (draw(QUARTER), draw(QUARTER)), (draw(QUARTER), draw(QUARTER))
        if walls and draw(st.booleans()):
            a = (walls[-1].b.x, walls[-1].b.y)
        if a != b:
            walls.append(Segment(Vec2(*a), Vec2(*b)))
    extra = []
    for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=4)):
        x, y = points[i]
        extra.append(draw(st.sampled_from([(x, y), (x + 1.0, y), (x, y + 1.0)])))
    if draw(st.booleans()):
        extra += [(2.0, 0.5), (float(np.nextafter(1.0, 0.0)), 0.5)]
    along = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    for w in walls:
        for t in draw(st.lists(along, max_size=3)):
            extra.append((w.a.x + t * (w.b.x - w.a.x), w.a.y + t * (w.b.y - w.a.y)))
        for t in draw(st.lists(along, max_size=6)):
            extra.append(near_wall(draw, w, t))
    return World(
        Region(-1.0, 6.0, -1.0, 6.0), Obstacle("drawn", tuple(walls)), np.array(points + extra)
    )


@st.composite
def wall_links(draw):
    """A wall on the quarter lattice and up to 30 links p -> q of any
    length: ends drawn at random, on the wall, on its line past its ends
    (collinear overlaps), at its ends, and within a few side margins of
    its line and ends."""
    a = (draw(QUARTER), draw(QUARTER))
    b = draw(st.tuples(QUARTER, QUARTER).filter(lambda b: b != a))
    wall = Segment(Vec2(*a), Vec2(*b))
    coord = st.floats(-1.0, 5.0)
    t = st.sampled_from([0.0, 1.0, 0.5, -0.5, 1.5]) | st.floats(-0.5, 1.5)
    ends = []
    for _ in range(2 * draw(st.integers(1, 15))):
        kind = draw(st.sampled_from(["free", "line", "near"]))
        if kind == "free":
            ends.append((draw(coord), draw(coord)))
        elif kind == "line":
            k = draw(t)
            ends.append((a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1])))
        else:
            ends.append(near_wall(draw, wall, draw(t)))
    return wall, np.array(ends[0::2]), np.array(ends[1::2])


class TestWireOracles:
    """_pairs and _wire, which decides walls by side codes and
    _link_blocked, against the pairing and link oracles."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(world=snapped_worlds())
    def test_matches_on_snapped_worlds(self, world):
        positions, walls = world.positions, world.obstacle.walls
        assert_same_array(_wire(positions, walls), oracles.links(positions, walls))

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_matches_on_catalogue_worlds(self, obstacle):
        for density in (1.5, 4.0, 10.0):
            w = build_trial_world(7, density, 0, obstacle)
            got = _wire(w.positions, w.obstacle.walls)
            assert_same_array(got, oracles.links(w.positions, w.obstacle.walls))


class TestVectorizedBlocking:
    """_wire's batch wall decision, side codes over every pair near a
    wall, on links that touch the wall or come close."""

    def test_touch_cases(self):
        # A link ending on the wall, one clear of it, and one collinear
        # past its end, each as a two-node world.
        cases = [
            ((1.0, 0.0), (1.0, 1.0), True),
            ((1.0, 1.0), (1.0, 2.0), False),
            ((3.0, 0.0), (4.0, 0.0), False),
        ]
        terms = _wall_terms(FLAT)
        for p, q, blocked in cases:
            positions = np.array([p, q])
            want = np.empty((0, 2), dtype=np.int64) if blocked else np.array([[0, 1]])
            assert_same_array(_wire(positions, (FLAT,)), want)
            assert_same_array(oracles.links(positions, (FLAT,)), want)
            assert _link_blocked(*p, *q, terms) is blocked, (p, q)


class TestWallsPerNode:
    """On-demand wiring decides walls per wired node: side codes settle
    most links, _link_blocked the rest, against the scalar wall test."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(case=wall_links())
    def test_one_link_test_matches_the_scalar_predicate(self, case):
        wall, p, q = case
        terms = _wall_terms(wall)
        for a, b in zip(p.tolist(), q.tolist()):
            assert _link_blocked(*a, *b, terms) == oracles.blocked(a, b, wall), (a, b)

    def test_one_link_test_on_random_links(self):
        rng = np.random.default_rng(31)
        wall = Segment(Vec2(4.0, 3.0), Vec2(6.0, 7.0))
        terms = _wall_terms(wall)
        p = rng.uniform(0, 10, (4000, 2))
        q = p + rng.uniform(-1, 1, (4000, 2))
        for a, b in zip(p.tolist(), q.tolist()):
            assert _link_blocked(*a, *b, terms) == oracles.blocked(a, b, wall), (a, b)

    def test_one_link_test_touch_cases(self):
        # A link ending on the wall, one ending just off it, one collinear
        # past its end, one collinear overlapping it, one touching its far
        # end, which the test reaches as c + cd, and one collinear starting
        # past that end by less than COLLINEAR_EPS.
        terms = _wall_terms(FLAT)
        cases = [
            ((1.0, 0.0), (1.0, 1.0), True),
            ((1.0, 1e-9), (1.0, 1.0), False),
            ((3.0, 0.0), (4.0, 0.0), False),
            ((1.5, 0.0), (2.5, 0.0), True),
            ((2.0, 0.0), (2.5, 0.5), True),
            ((2.0 + 5e-13, 0.0), (3.0, 0.0), True),
        ]
        for (p, q, blocked) in cases:
            assert _link_blocked(*p, *q, terms) is blocked, (p, q)
            assert oracles.blocked(p, q, FLAT) is blocked, (p, q)

    # Pairs of nodes on either side of FLAT, (0, 0) -> (2, 0), in side
    # margins m: across its middle 2m off the line (settled by the sides
    # alone), across it inside the margin, across within m of an end
    # (past it, and short of it), and on one side.
    M = _SIDE_MARGIN

    @pytest.mark.parametrize(
        "p, q, blocked",
        [
            ((1.0, 2 * M), (1.0, -2 * M), True),
            ((1.0, M / 2), (1.0, -2 * M), True),
            ((1.0, 0.0), (1.0, 2 * M), True),
            ((2.0 + M / 2, 2 * M), (2.0 + M / 2, -2 * M), False),
            ((2.0 - M / 2, 2 * M), (2.0 - M / 2, -2 * M), True),
            ((-M / 2, 0.5), (-M / 2, -0.5), False),
            ((M / 2, 0.5), (M / 2, -0.5), True),
            ((1.0, 2 * M), (1.5, 0.5), False),
            ((1.2, 2 * M), (2.0 + M, 2 * M), False),
        ],
    )
    def test_links_at_the_margins(self, p, q, blocked):
        positions = np.array([p, q])
        w = World(SMALL, Obstacle("flat", (FLAT,)), positions)
        assert [w.neighbors(0), w.neighbors(1)] == ([[], []] if blocked else [[1], [0]])
        assert len(_wire(positions, (FLAT,))) == (0 if blocked else 1)

    # A link that passes a wall's start about COLLINEAR_EPS away, so that
    # its wall test depends on which end is p (found by a random search).
    SKEW = (
        (-0.07438426581220985, 1.2061232758076972),
        (0.3064730994833283, 1.5498556363305358),
        Segment(Vec2(0.3010481474919775, 1.544959494828157),
                Vec2(-0.633343759542721, 3.3132670936548037)),
    )

    def test_the_exact_test_takes_the_lower_id_first(self):
        p, q, wall = self.SKEW
        terms = _wall_terms(wall)
        assert _link_blocked(*p, *q, terms) != _link_blocked(*q, *p, terms)
        for points in ([p, q], [q, p]):
            positions = np.array(points)
            w = World(Region(-1.0, 6.0, -1.0, 6.0), Obstacle("skew", (wall,)), positions)
            assert [w.neighbors(0), w.neighbors(1)] == edge_lists(2, _wire(positions, (wall,)))

    def test_sides_settle_most_walled_links(self, monkeypatch):
        # Every node of a concave2 world wired on demand, then the whole
        # world by _wire, with the one-link tests of each counted: they
        # are few next to the links beside a wall.
        exact = []
        monkeypatch.setattr(
            worldgen, "_link_blocked", lambda *a: exact.append(1) or _link_blocked(*a)
        )
        w = build_trial_world(7, 8.0, 0, "concave2")
        got = [w.neighbors(i) for i in range(w.n)]
        on_demand = len(exact)
        assert got == edge_lists(w.n, _wire(w.positions, w.obstacle.walls))
        whole = len(exact) - on_demand
        beside = sum(
            1 for codes, _ in w._local.walls for u in codes for v in got[u] if v in codes
        )
        assert 0 < on_demand < beside / 10, (on_demand, beside)
        assert 0 < whole < beside / 10, (whole, beside)


class TestLinksOnDemand:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(world=snapped_worlds())
    def test_list_wiring_matches_the_edge_grouping(self, world):
        positions, walls = world.positions, world.obstacle.walls
        got = [world.neighbors(i) for i in range(world.n)]
        assert world._edges is None, "wired on demand"
        assert got == edge_lists(world.n, _wire(positions, walls))
        assert got == edge_lists(world.n, oracles.links(positions, walls))

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_match_the_batch_wiring(self, obstacle):
        for density in (1.5, 4.0, 8.0):
            w = build_trial_world(7, density, 0, obstacle)
            got = [w.neighbors(i) for i in range(w.n)]
            assert w._edges is None, "wired on demand"
            assert got == edge_lists(w.n, _wire(w.positions, w.obstacle.walls))

    def test_whole_graph_views_are_built_on_first_use(self):
        w = deploy(3.0, SMALL, make_obstacle("stripe"), 4)
        first = [w.neighbors(i) for i in range(0, w.n, 2)]
        assert w._edges is None
        assert w.edges.tobytes() == _wire(w.positions, w.obstacle.walls).tobytes()
        # Once the edges exist, the rest are still wired on demand.
        assert w._neighbors[1::2] == [None] * len(w._neighbors[1::2])
        rest = [w.neighbors(i) for i in range(1, w.n, 2)]
        want = edge_lists(w.n, w.edges)
        assert first == want[0::2] and rest == want[1::2]

    def test_explicit_edges_are_served_as_given(self):
        w = make_world([(0.0, 0.0), (5.0, 0.0), (0.5, 0.0)], [(1, 0), (0, 2)])
        assert [w.neighbors(i) for i in range(3)] == [[1, 2], [0], [0]]

    def test_rounding_cannot_hide_a_link_two_cells_away(self):
        # 2 - (1 - 2**-53) rounds to exactly 1, so the rule links the
        # pair; unit cells would put the two nodes two cells apart.
        positions = np.array([[2.0, 0.5], [np.nextafter(1.0, 0.0), 0.5]])
        assert _wire(positions, ()).tolist() == [[0, 1]]
        w = World(SMALL, make_obstacle("none"), positions)
        assert [w.neighbors(0), w.neighbors(1)] == [[1], [0]]

    @pytest.mark.parametrize("view", ["neighbors", "gabriel_neighbors", "edges", "gabriel_edges"])
    def test_a_hand_built_world_spanning_3000_units_stays_small(self, view):
        # A world built from explicit edges takes its lists from them and
        # never builds the grid, whose cells over these nodes' bounding
        # box would take about 137 MiB.
        w = make_world([(0.0, 0.0), (0.5, 0.0), (0.25, 0.4), (3000.0, 3000.0)],
                       [(0, 1), (0, 2), (1, 2)])
        tracemalloc.start()
        try:
            if view == "edges":
                got = w.edges.tolist()
            elif view == "gabriel_edges":
                got = w.gabriel_edges().tolist()
            else:
                got = [getattr(w, view)(i) for i in range(w.n)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak
        assert w._local is None
        assert got in ([[1, 2], [0, 2], [0, 1], []], [[0, 1], [0, 2], [1, 2]])


class TestWorldIdentity:
    """Worlds compare and hash by identity; the repr shows what a failing
    hypothesis example needs."""

    def test_equal_seed_worlds_compare_unequal(self):
        a = deploy(2.0, SMALL, make_obstacle("stripe"), 42)
        b = deploy(2.0, SMALL, make_obstacle("stripe"), 42)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert (a == b) is False and a != b
        assert a == a

    def test_worlds_hash(self):
        a = deploy(2.0, SMALL, make_obstacle("none"), 1)
        b = deploy(2.0, SMALL, make_obstacle("none"), 1)
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)

    def test_repr_shows_region_obstacle_and_positions(self):
        w = make_world([(0.5, 1.5), (2.0, 3.0)], [(0, 1)], region=SMALL)
        assert repr(w) == (
            f"World(region={SMALL!r}, obstacle={make_obstacle('none')!r}, "
            f"positions={w.positions!r})"
        )


def on_demand_checked(positions):
    """Every node's on-demand Gabriel list of a world built without
    explicit edges, after checking the lists against _gabriel_filter and
    the Gabriel oracle. Each node is filtered twice, on two fresh
    worlds: right after its own links are wired, so the scan of its
    range is reused, and after every node is wired, so that it is
    scanned anew."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    lo, hi = positions.min(axis=0) - 2.0, positions.max(axis=0) + 2.0
    region = Region(lo[0], hi[0], lo[1], hi[1])

    def world():
        return World(region, make_obstacle("none"), positions)

    fresh = world()
    reused = [fresh.gabriel_neighbors(i) for i in range(fresh.n)]
    rescanned = world()
    for i in range(rescanned.n):
        rescanned.neighbors(i)
    again = [rescanned.gabriel_neighbors(i) for i in range(rescanned.n)]
    assert fresh._edges is None and rescanned._edges is None, "wired on demand"
    edges = _wire(positions, ())
    want = _gabriel_filter(positions, edges)
    assert_same_array(want, oracles.gabriel(positions, edges))
    assert reused == again == edge_lists(len(positions), want)
    return reused


class TestGabrielOnDemand:
    """On-demand Gabriel lists against the whole-graph filter and the
    Gabriel oracle, on deployed worlds and on the adversarial layouts of
    TestFastGabriel, with the layouts at the sorted scan's stopping rule
    added."""

    @pytest.mark.parametrize("offset", [-1e-8, -1e-11, -1e-13, 1e-13, 1e-11, 1e-8])
    def test_node_next_to_the_threshold(self, offset):
        got = on_demand_checked(_on_threshold(offset))
        if abs(offset) > 1e-12:
            assert (1 in got[0]) == (offset > 0)

    def test_cocircular_square_keeps_both_diagonals(self):
        assert on_demand_checked(COCIRCULAR_SQUARE) == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]

    @pytest.mark.parametrize("points", COINCIDENT_LAYOUTS)
    def test_coincident_nodes(self, points):
        on_demand_checked(points)

    @pytest.mark.parametrize("offset", [-1e-13, 0.0, 1e-13, 1e-8])
    def test_endpoint_nearest_the_midpoint(self, offset):
        assert 1 in on_demand_checked(_endpoint_nearest_the_midpoint(offset))[0]

    def test_node_as_far_as_the_far_end(self):
        # Nodes 2 and 3 lie exactly 0.625 from node 0, as node 1 does (a
        # 3-4-5 triangle in eighths): the scan for link 0-1 reaches its
        # stopping rule on a tie. Node 4, just inside the disk of 0-1 and
        # nearer to 0, removes that link.
        points = [(0.0, 0.0), (0.625, 0.0), (0.375, 0.5), (0.375, -0.5), (0.3125, 0.3)]
        got = on_demand_checked(points)
        assert 1 not in got[0]
        got = on_demand_checked(points[:4])
        assert got[0] == [1, 2, 3]

    def test_witness_just_nearer_than_the_far_end(self):
        # Node 2 lies 1.3e-12 inside the threshold of link 0-1, 4e-7 from
        # node 1, and only 2.8e-12 nearer to node 0 than node 1 is, in
        # squared distance: the nearest to the far end a witness can be.
        # A scan stopping even a relative 2e-11 short of the far end
        # misses it.
        points = [(0.0, 0.0), (0.5, 0.0), (0.5 - 3e-12, 4e-7)]
        d2, d1 = 0.5**2, (0.5 - 3e-12) ** 2 + 4e-7**2
        assert d2 * (1 - 2e-11) < d1 < d2 - 2 * GABRIEL_EPS
        got = on_demand_checked(points)
        assert got[0] == [2] and 1 not in got[0]

    def test_node_on_the_far_end(self):
        # Node 2 sits on node 1: on the circle of link 0-1, not inside it,
        # and the scan meets it at the far end's own distance. Node 3, on
        # the links' midpoint, removes both.
        points = [(0.0, 0.0), (0.5, 0.25), (0.5, 0.25), (0.25, 0.125)]
        assert on_demand_checked(points[:3]) == [[1, 2], [0, 2], [0, 1]]
        assert on_demand_checked(points)[0] == [3]

    def test_zero_length_link(self):
        # Nodes 0 and 1 coincide: their link's disk has a negative
        # threshold, so nothing removes it, not even node 2 on top of both.
        got = on_demand_checked([(0.2, 0.2), (0.2, 0.2), (0.2, 0.2), (0.5, 0.2), (0.2, 0.6)])
        assert got[0][:2] == [1, 2] and got[1][:2] == [0, 2]

    def test_witness_past_the_far_end_far_from_the_origin(self):
        # Near 1e8 the rounded midpoint of link 0-1 moves its disk past
        # node 1: node 2, farther from node 0 than node 1 is by 5e-9 in
        # squared distance, tests inside it. A scan that stops at node 1
        # would keep the link; the whole-graph filter removes it.
        u, v = (100000001.94879092, 100000000.46727195), (100000001.77447155, 99999999.9402297)
        w = (100000001.77447145, 99999999.94022973)
        d = [(p[0] - u[0]) ** 2 + (p[1] - u[1]) ** 2 for p in (v, w)]
        assert d[1] > d[0] * (1 + 1e-9)
        assert 1 not in on_demand_checked([u, v, w])[0]

    @pytest.mark.parametrize("offset", [1000.0, 1e4, 1e8])
    def test_far_from_the_origin(self, offset):
        # At 1000 the sorted scan still applies; farther out, where a
        # midpoint rounds by more than GABRIEL_EPS allows for, every node
        # of the block is tested.
        rng = np.random.default_rng(5)
        for _ in range(3):
            on_demand_checked(offset + rng.uniform(0.0, 2.0, (40, 2)))

    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_match_the_batch_subgraph(self, obstacle):
        for density in (1.5, 4.0, 8.0):
            w = build_trial_world(7, density, 0, obstacle)
            got = [w.gabriel_neighbors(i) for i in range(w.n)]
            assert w._edges is None and w._gabriel_edges is None, "wired on demand"
            edges = _wire(w.positions, w.obstacle.walls)
            assert got == edge_lists(w.n, _gabriel_filter(w.positions, edges))
            assert w.gabriel_edge_floor() == len(_gabriel_filter(w.positions, edges))

    def test_whole_graph_views_leave_the_rest_on_demand(self):
        w = deploy(3.0, SMALL, make_obstacle("concave2"), 4)
        first = [w.gabriel_neighbors(i) for i in range(0, w.n, 2)]
        assert w._edges is None and w._gabriel_edges is None
        # Once the whole subgraph exists, the rest are still filtered on
        # demand, and agree with it.
        want = edge_lists(w.n, w.gabriel_edges())
        assert w._gabriel[1::2] == [None] * len(w._gabriel[1::2])
        rest = [w.gabriel_neighbors(i) for i in range(1, w.n, 2)]
        assert first == want[0::2] and rest == want[1::2]

    def test_explicit_edges_are_filtered_as_a_whole(self):
        # The link 0-1 is 2 long, beyond any grid block: a world built from
        # explicit edges takes its Gabriel lists from the batch filter,
        # where node 2 on the link's midpoint removes it.
        w = make_world([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)], [(0, 1), (0, 2)])
        assert [w.gabriel_neighbors(i) for i in range(3)] == [[2], [], [0]]

    def test_edge_floor_bounds_the_edge_count(self):
        w = build_trial_world(3, 4.0, 0, "stripe")
        total = len(_gabriel_filter(w.positions, _wire(w.positions, w.obstacle.walls)))
        assert w.gabriel_edge_floor() == 0
        seen = 0
        for i in range(0, w.n, 7):
            seen += len(w.gabriel_neighbors(i))
            w.gabriel_neighbors(i)  # a cached list counts once
            assert w.gabriel_edge_floor() == (seen + 1) // 2 <= total


class TestGrid:
    @pytest.mark.parametrize("obstacle", ["none", "concave2"])
    def test_16_bit_order_equals_the_int64_sort(self, obstacle):
        for density in (1.5, 4.0, 10.0):
            w = build_trial_world(7, density, 0, obstacle)
            cell, order, starts, _ = _grid(w.positions)
            assert len(starts) - 1 <= 1 << 16, "the 16-bit keys are used"
            assert_same_array(order, np.argsort(cell, kind="stable"))

    @pytest.mark.parametrize("span, wide", [(253.9, False), (254.5, True)])
    def test_wide_grids_sort_the_int64_ids(self, span, wide):
        # 253.9 spans 256 x 256 cells, the most 16-bit keys number; 254.5
        # spans 257 x 257. The far node's cell id then exceeds 2**16 - 1
        # and would wrap below node 1's if it were cast.
        positions = np.array([[span, span], [0.0, 0.0], [0.5, 0.2], [span, span - 0.5]])
        cell, order, starts, _ = _grid(positions)
        assert (len(starts) - 1 > 1 << 16) == wide
        assert (cell[0] > 0xFFFF) == wide
        assert_same_array(order, np.argsort(cell, kind="stable"))
        w = World(Region(-1.0, 300.0, -1.0, 300.0), make_obstacle("none"), positions)
        assert [w.neighbors(i) for i in range(4)] == [[3], [2], [1], [0]]


class TestGridPairs:
    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_match_the_kd_tree(self, obstacle):
        # The name is kept from the kd-tree query this was first checked
        # against; the reference is now oracles.pairs, a sort on x.
        for density in (1.5, 4.0, 10.0):
            w = build_trial_world(7, density, 0, obstacle)
            assert_same_array(rows_sorted(_pairs(w.positions)), oracles.pairs(w.positions))

    @pytest.mark.parametrize(
        "points",
        [
            [],
            [(0.0, 0.0)],
            [(0.0, 0.0), (0.0, 0.0)],
            [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
            [(2.0, 0.5), (np.nextafter(1.0, 0.0), 0.5)],
            [(-3.0, -7.5), (-2.0, -7.5), (-2.0, -6.5), (40.0, 3.0)],
        ],
    )
    def test_small_sets(self, points):
        positions = np.array(points, dtype=float).reshape(-1, 2)
        assert_same_array(rows_sorted(_pairs(positions)), oracles.pairs(positions))


# Coordinates on the boundaries of the on-demand wiring's grid cells, and
# a hair below them, next to the degenerate lattice.
CELL_XS = st.sampled_from(
    [k / _CELL_SCALE for k in (18, 19, 20)] + [np.nextafter(19 / _CELL_SCALE, 0.0)]
)
CELL_YS = st.sampled_from(
    [k / _CELL_SCALE for k in (9, 10, 11)] + [np.nextafter(10 / _CELL_SCALE, 0.0)]
)


@st.composite
def unwired_worlds(draw):
    """Degenerate worlds left to wire on demand, with up to three extra
    copies of drawn nodes."""
    w = draw(degenerate_worlds(wired=False, xs=XS | CELL_XS, ys=YS | CELL_YS))
    copies = draw(st.lists(st.integers(0, w.n - 1), max_size=3))
    return World(w.region, w.obstacle, np.concatenate([w.positions, w.positions[copies]]))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(world=unwired_worlds())
def test_links_on_demand_on_degenerate_worlds(world):
    walls = world.obstacle.walls
    unwired = World(world.region, world.obstacle, world.positions)
    wired = World(world.region, world.obstacle, world.positions, _wire(world.positions, walls))
    got = [world.neighbors(i) for i in range(world.n)]
    assert world._edges is None
    assert got == edge_lists(world.n, wired.edges)
    assert got == edge_lists(world.n, oracles.links(world.positions, walls))
    # Every router sees the same world either way.
    for algo in Algorithm:
        cfg = ExperimentConfig(algorithm=algo, densities=(2.0,), record_path=True)
        want = run_trial(cfg, 2.0, 0, world=wired)
        assert run_trial(cfg, 2.0, 0, world=unwired) == want, algo


@st.composite
def circle_worlds(draw):
    """Unwired degenerate worlds with up to two nodes added on the
    diameter circle of a pair of drawn nodes, a quarter turn from its
    ends: exactly on it, as all coordinates are dyadic."""
    w = draw(unwired_worlds())
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, w.n - 1)), draw(st.integers(0, w.n - 1))
        (px, py), (qx, qy) = w.positions[i], w.positions[j]
        turn = draw(st.sampled_from([1.0, -1.0]))
        extra.append(((px + qx) / 2 - turn * (qy - py) / 2, (py + qy) / 2 + turn * (qx - px) / 2))
    positions = np.concatenate([w.positions, np.array(extra).reshape(-1, 2)])
    return World(w.region, w.obstacle, positions)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(world=circle_worlds())
def test_gabriel_on_demand_on_degenerate_worlds(world):
    positions, walls = world.positions, world.obstacle.walls
    got = [world.gabriel_neighbors(i) for i in range(world.n)]
    assert world._edges is None
    edges = _wire(positions, walls)
    assert got == edge_lists(world.n, _gabriel_filter(positions, edges))
    assert got == edge_lists(world.n, oracles.gabriel(positions, oracles.links(positions, walls)))
    assert_same_array(rows_sorted(_pairs(positions)), oracles.pairs(positions))


# sha256 of edges.tobytes(), of every node's neighbour list concatenated
# as int64 (what were the bytes of the CSR indices array) and of
# gabriel_edges().tobytes() for
# trial 0 of master seed 11, recorded with the per-edge Python Gabriel
# loop, full-list wall pruning and the lexsort adjacency. A change here means some world's link set, neighbour arrays
# or Gabriel subgraph moved by at least one byte.
PINNED_WORLDS = {
    ("none", 4.0): (
        "3b9978604a0fad22e6bdd0e3e4b9b99a88622009d940cbf12d894b93defcadfd",
        "99077e3fed8586f41da4a9f3475db7e44532b97b5d822ad313b9a2acb3203027",
        "e47eeaa0d242833fb62514702096a8c80d769e36a5db2a043eb60b0cbcbb7f58",
    ),
    ("none", 8.0): (
        "3274aa262ede48fa9fa7ef058a4359f93ad85a86a207cac3ac9cf31ec703a4a1",
        "e4927bda6f57fa78e67a05b7552da45b43d0916d916a629f9c04efc7f67587a4",
        "2ed16cadf521cb9da725b8e9501045ea24b3b9d7143b575a56bf87acca5d3d0e",
    ),
    ("stripe", 4.0): (
        "0cca8bce8296c40a7b93c24f7a3630654fccc9fbae307c0477cd715c8432226b",
        "737fa364c687e176a2789e6cc2703281860eb92cef015c06755b1cf836cbf3b2",
        "26e5cb69b31dc8b61963a639f5d9dc2182ab54e585e43f6256257d39ed13babc",
    ),
    ("stripe", 8.0): (
        "7c9fa170fa7b6c977c81054855c31d8f721c89abde750b3d1e9a5921f60f6d70",
        "8cac834b235dc2b00674719ef2ef2ecd37dde28becc9c42c8c91089a52a0eeaf",
        "67ace4527bae67ebdb790e5f59c662bfc32159e2967e0f05d508c3d3efc32936",
    ),
    ("ushape", 4.0): (
        "c68f91d1ba0d596e442f95b317df93d21679379bbf71e22e735a87e8ffe77af8",
        "af2e2004bd380e6901e0c298fe1295e84cdfc92559fe73cdb147d822c1305d15",
        "64815109a99c8f644953de9b8351f96bd763fc736cb7ccf2a696f4956d5606bc",
    ),
    ("ushape", 8.0): (
        "117fd9726daa3214f7dcd21fe812e41e6279e9fb3d385c8fb750c6aa71686d86",
        "68ab7d5abaeac937b2293205b651d34e4c8044da5e188fb2c1c8801c53c70b87",
        "075b2f239888e64cf6c77d40437bd1c074048fca609fe710581f47f250638c71",
    ),
    ("concave1", 4.0): (
        "61b5799d4082aaf48eea2bb57a55ae13630fa8f4c686352aab907404eb3e644e",
        "4b0325f3deedcdf21604861fe75b552f4e4573523efe4002491b37498159befc",
        "a6f9548e8ee12e50657ea3f1ed860f6cdc7bcd0671dca212a277dc800dcff1b7",
    ),
    ("concave1", 8.0): (
        "073ef72aa57ccb67f6369699fa5e89013d54141841374c5c81071f7634551bcb",
        "a3f89aa694671a54f3be0f2202331b3bc5878b944094945dbf2e1c0b3b8d5e4f",
        "84f5eef8de086d7981040609cb6588ccd41a3f046262f2f4673677e27bf96867",
    ),
    ("concave2", 4.0): (
        "a60c117e7b0ac3e545e0ecf899bf2dc4faf65068ada185750ffe7a2ed9cea1cd",
        "ffed1416b64f0f29fe8bae46d683dd298d036d425d0706d50db075b8faa6e5ad",
        "619588b74f835a146880ec18a451ff667febca92eee25c356f21eeed6bd9757b",
    ),
    ("concave2", 8.0): (
        "8862aef5a00152938c4b81b6235127a11ecbbe72297cb862edd26e5a264a6243",
        "c6f38bbbc2fdd6bdd9ae00b34a0b15e57c26426e3068872763686179be6c0390",
        "f905226978293b9f852cb933e062f8df6aa53179025fba6d78b00f582c918462",
    ),
}


def _sha(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TestPinnedWorlds:
    @pytest.mark.parametrize("obstacle", OBSTACLE_NAMES)
    def test_world_bytes_match_recorded_digests(self, obstacle):
        for density in (4.0, 8.0):
            w = build_trial_world(11, density, 0, obstacle)
            assert w.edges.dtype == np.int64
            lists = np.array([v for i in range(w.n) for v in w.neighbors(i)], dtype=np.int64)
            got = (
                _sha(w.edges),
                _sha(lists),
                _sha(w.gabriel_edges()),
            )
            assert got == PINNED_WORLDS[(obstacle, density)], (obstacle, density)
