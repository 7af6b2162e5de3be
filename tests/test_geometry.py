"""Geometry primitives: oracles worked out by hand, then bulk properties."""

import math

import numpy as np
import pytest

from gricsim.geometry import (
    COLLINEAR_EPS,
    Segment,
    Vec2,
    orient,
    quadrant,
    wrap_angle,
)
from gricsim.routing import MessageState, travel_turn
from gricsim.worldgen import find_planarity_violation
from vec2_geometry import (
    COMPASS,
    Angle,
    CompassValue,
    ZeroVector,
    angle_from_to,
    compass_of,
    cross,
    distance,
    heading,
    is_zero,
    norm,
    rotate,
    segments_cross_interior,
    segments_properly_intersect,
    sub,
)
from vec2_geometry import orient as vec2_orient

N_RANDOM = 100_000


def seg(ax, ay, bx, by):
    return Segment(Vec2(ax, ay), Vec2(bx, by))


class TestVec2:
    def test_arithmetic(self):
        v = Vec2(3.0, 4.0)
        w = Vec2(-1.0, 2.0)
        assert sub(v, w) == Vec2(4.0, 2.0)
        assert cross(v, w) == 10.0
        assert norm(v) == 5.0
        assert distance(v, w) == math.hypot(4.0, 2.0)

    def test_zero_checks(self):
        assert is_zero(Vec2(0.0, 0.0))
        assert not is_zero(Vec2(1e-9, 0.0))

    def test_heading(self):
        assert heading(Vec2(1.0, 1.0)) == pytest.approx(math.pi / 4)
        with pytest.raises(ZeroVector):
            heading(Vec2(0.0, 0.0))


class TestWrapAngle:
    def test_half_open_interval(self):
        # pi itself folds to -pi: the interval is [-pi, pi).
        assert wrap_angle(math.pi) == -math.pi
        assert wrap_angle(-math.pi) == -math.pi
        assert wrap_angle(3 * math.pi) == -math.pi
        assert wrap_angle(0.0) == 0.0

    def test_random_range_and_congruence(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-50.0, 50.0, N_RANDOM)
        for x in xs[:2000]:
            r = wrap_angle(float(x))
            assert -math.pi <= r < math.pi
            assert math.isclose(math.sin(r), math.sin(x), abs_tol=1e-9)
            assert math.isclose(math.cos(r), math.cos(x), abs_tol=1e-9)


class TestAngle:
    def test_normalizes_on_construction(self):
        assert Angle(3 * math.pi).radians == -math.pi
        assert Angle(-math.pi / 2).radians == -math.pi / 2

    def test_arithmetic_wraps(self):
        a = Angle(3 * math.pi / 4)
        b = Angle(math.pi / 2)
        assert (a + b).radians == pytest.approx(-3 * math.pi / 4)
        assert (a - b).radians == pytest.approx(math.pi / 4)
        assert (-a).radians == pytest.approx(-3 * math.pi / 4)


class TestAngleFromTo:
    def test_oracle_quarter_turns(self):
        assert angle_from_to(Vec2(1, 0), Vec2(0, 1)).radians == pytest.approx(
            math.pi / 2
        )
        assert angle_from_to(Vec2(0, 1), Vec2(1, 0)).radians == pytest.approx(
            -math.pi / 2
        )

    def test_oracle_diagonal(self):
        # Hand value: atan2(-1, -1) = -3*pi/4, minus heading 0.
        a = angle_from_to(Vec2(1, 0), Vec2(-1, -1))
        assert a.radians == pytest.approx(-3 * math.pi / 4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            angle_from_to(Vec2(0, 0), Vec2(1, 0))
        with pytest.raises(ZeroVector):
            angle_from_to(Vec2(1, 0), Vec2(0, 0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            v = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            w = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if is_zero(v) or is_zero(w):
                continue
            a1 = angle_from_to(v, w).radians
            a2 = angle_from_to(
                Vec2(3.0 * v.x, 3.0 * v.y), Vec2(0.25 * w.x, 0.25 * w.y)
            ).radians
            assert a1 == pytest.approx(a2)


class TestRotate:
    def test_oracle_thirty_degrees(self):
        r = rotate(Vec2(1, 0), math.pi / 6)
        assert r.x == pytest.approx(0.8660254037844387)
        assert r.y == pytest.approx(0.5)

    def test_oracle_quarter_turn(self):
        r = rotate(Vec2(1, 2), math.pi / 2)
        assert r.x == pytest.approx(-2.0)
        assert r.y == pytest.approx(1.0)

    def test_accepts_angle_objects(self):
        r = rotate(Vec2(1, 0), Angle(math.pi))
        assert r.x == pytest.approx(-1.0)
        assert r.y == pytest.approx(0.0, abs=1e-12)

    def test_isometry_bulk(self):
        # Criterion-level property: rotation preserves the norm.
        rng = np.random.default_rng(13)
        data = rng.uniform(-10, 10, (N_RANDOM, 3))
        for x, y, g in data[:5000]:
            v = Vec2(x, y)
            assert norm(rotate(v, g)) == pytest.approx(norm(v))
        # Vectorized form for the full count.
        c, s = np.cos(data[:, 2]), np.sin(data[:, 2])
        rx = c * data[:, 0] - s * data[:, 1]
        ry = s * data[:, 0] + c * data[:, 1]
        np.testing.assert_allclose(
            np.hypot(rx, ry), np.hypot(data[:, 0], data[:, 1]), rtol=1e-9
        )

    def test_composition_bulk(self):
        rng = np.random.default_rng(14)
        for _ in range(5000):
            v = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            a = rng.uniform(-7, 7)
            b = rng.uniform(-7, 7)
            lhs = rotate(rotate(v, a), b)
            rhs = rotate(v, a + b)
            assert lhs.x == pytest.approx(rhs.x, abs=1e-9)
            assert lhs.y == pytest.approx(rhs.y, abs=1e-9)


class TestCompass:
    def test_quadrant_boundaries(self):
        assert compass_of(Angle(0.0)) is CompassValue.NE
        assert compass_of(Angle(math.pi / 2)) is CompassValue.SE
        assert compass_of(Angle(-math.pi / 2)) is CompassValue.NW
        assert compass_of(Angle(-math.pi)) is CompassValue.SW
        assert compass_of(Angle(math.pi)) is CompassValue.SW  # pi wraps to -pi

    # The router's own reading: the quadrant of travel_turn's alpha.
    def test_oracle_positions(self):
        # Arrived at (1,0) from the origin, destination at (1,-1): the
        # destination sits a quarter turn to the right, reading NW.
        _, _, alpha = travel_turn(MessageState(Vec2(1, -1), (0.0, 0.0)), 1.0, 0.0)
        assert COMPASS[quadrant(alpha)] is CompassValue.NW

    def test_source_convention_reads_ne(self):
        # A message with v_prev equal to the destination bearing has
        # alpha 0, which the half-open partition files under NE; so does
        # a message still on its source.
        for prev in ((0.0, 0.0), None):
            _, _, alpha = travel_turn(MessageState(Vec2(10, 10), prev), 5.0, 5.0)
            assert COMPASS[quadrant(alpha)] is CompassValue.NE

    def test_partition_bulk(self):
        # Every angle lands in exactly one quadrant and the quadrant
        # matches the interval arithmetic definition.
        rng = np.random.default_rng(15)
        alphas = rng.uniform(-math.pi, math.pi, N_RANDOM)
        half = math.pi / 2
        for a in alphas[:5000]:
            got = compass_of(Angle(float(a)))
            if a < -half:
                assert got is CompassValue.SW
            elif a < 0:
                assert got is CompassValue.NW
            elif a < half:
                assert got is CompassValue.NE
            else:
                assert got is CompassValue.SE
        # Vectorized cross-check of the same partition over the full count.
        buckets = np.digitize(alphas, [-half, 0.0, half])
        expected = np.array(["SW", "NW", "NE", "SE"])[buckets]
        got_all = np.array(
            [compass_of(Angle(float(a))).value for a in alphas[::37]]
        )
        np.testing.assert_array_equal(got_all, expected[::37])


class TestOrient:
    def test_signs(self):
        assert orient(0.0, 0.0, 1.0, 0.0, 0.5, 1.0) == 1
        assert orient(0.0, 0.0, 1.0, 0.0, 0.5, -1.0) == -1
        assert orient(0.0, 0.0, 1.0, 0.0, 2.0, 0.0) == 0
        # A cross product at the tolerance is flat; twice it is not.
        assert orient(0.0, 0.0, 1.0, 0.0, 0.5, COLLINEAR_EPS) == 0
        assert orient(0.0, 0.0, 1.0, 0.0, 0.5, -COLLINEAR_EPS) == 0
        assert orient(0.0, 0.0, 1.0, 0.0, 0.5, 2 * COLLINEAR_EPS) == 1
        assert orient(0.0, 0.0, 1.0, 0.0, 0.5, -2 * COLLINEAR_EPS) == -1
        assert type(orient(0.0, 0.0, 1.0, 0.0, 0.5, 1.0)) is int

    @staticmethod
    def triples():
        """20,000 triples as arrays of six coordinates. Lattice points
        are often exactly collinear; a third of the triples sit a few
        tolerances off a line, around the threshold."""
        rng = np.random.default_rng(25)
        for k in range(20_000):
            if k % 3 == 0:
                pts = rng.integers(0, 5, 6) * 0.25
            elif k % 3 == 1:
                pts = rng.uniform(-3.0, 3.0, 6)
            else:
                pts = rng.uniform(-3.0, 3.0, 6)
                t = rng.uniform(-1.0, 2.0)
                pts[4:] = pts[:2] + t * (pts[2:4] - pts[:2])
                pts[5] += rng.uniform(-3.0, 3.0) * COLLINEAR_EPS
            yield pts

    def test_matches_the_vec2_oracle(self):
        for pts in self.triples():
            xs = pts.tolist()
            a, b, c = (Vec2(*xs[i : i + 2]) for i in (0, 2, 4))
            assert orient(*xs) == vec2_orient(a, b, c), xs

    def test_numpy_floats_give_the_same_ints(self):
        # np.float64 is a float subclass, and its comparisons give numpy
        # booleans, which cannot be subtracted.
        assert orient(*map(np.float64, (0, 0, 1, 0, 0.5, 1))) == 1
        for pts in self.triples():
            got = orient(*pts)
            assert type(got) is int and got == orient(*pts.tolist()), pts


class TestSegmentIntersection:
    def test_segment_rejects_degenerate(self):
        with pytest.raises(ValueError):
            seg(1, 1, 1, 1)

    def test_proper_crossing(self):
        assert segments_properly_intersect(seg(0, 0, 2, 2), seg(0, 2, 2, 0))

    def test_clear_miss(self):
        assert not segments_properly_intersect(seg(0, 0, 1, 0), seg(0, 1, 1, 1))

    def test_endpoint_touch_blocks(self):
        # Radio semantics: grazing the wall tip still blocks the link.
        assert segments_properly_intersect(seg(0, 0, 1, 1), seg(1, 1, 2, 0))

    def test_t_junction_blocks(self):
        assert segments_properly_intersect(seg(0, 0, 2, 0), seg(1, -1, 1, 0))

    def test_collinear_overlap_blocks(self):
        assert segments_properly_intersect(seg(0, 0, 2, 0), seg(1, 0, 3, 0))

    def test_collinear_apart(self):
        assert not segments_properly_intersect(seg(0, 0, 1, 0), seg(2, 0, 3, 0))

    def test_near_miss(self):
        assert not segments_properly_intersect(
            seg(0, 0, 1, 0), seg(0.5, 1e-6, 1.5, 1.0)
        )


# Edges 0-1 and 2-3, on four distinct nodes.
APART = np.array([[0, 1], [2, 3]], dtype=np.int64)


def crosses(a, b, c, d):
    """segments_cross_interior on four points, after checking that
    find_planarity_violation on edges 0-1 and 2-3 of four distinct nodes
    at those points reads the same."""
    want = segments_cross_interior(Vec2(*a), Vec2(*b), Vec2(*c), Vec2(*d))
    got = find_planarity_violation(np.array([a, b, c, d], dtype=float), APART)
    assert got == ((0, 1) if want else None), (a, b, c, d)
    return want


class TestCrossInterior:
    def test_proper_crossing_counts(self):
        assert crosses((0, 0), (2, 2), (0, 2), (2, 0))

    def test_shared_endpoint_allowed(self):
        # Planarity semantics: edges may meet at a common vertex, here two
        # nodes at one point (TestPlanarityCheck covers one shared node).
        assert not crosses((0, 0), (1, 1), (1, 1), (2, 0))

    def test_collinear_tip_touch_allowed(self):
        assert not crosses((0, 0), (1, 0), (1, 0), (2, 0))
        assert not crosses((0, 0), (0, 1), (0, 1), (0, 2))
        assert not crosses((0, 0), (1, 1), (1, 1), (2, 2))

    def test_collinear_overlap_counts(self):
        assert crosses((0, 0), (2, 0), (1, 0), (3, 0))
        # Vertical overlap exercises the other projection axis.
        assert crosses((0, 0), (0, 2), (0, 1), (0, 3))
        assert crosses((0, 2), (0, 0), (0, 3), (0, 1))

    def test_collinear_apart(self):
        assert not crosses((0, 0), (1, 0), (2, 0), (3, 0))
        assert not crosses((0, 0), (0, 1), (0, 2), (0, 3))

    def test_agreement_with_closed_predicate(self):
        # Wherever the open predicate says cross, the closed one must too.
        rng = np.random.default_rng(16)
        for _ in range(3000):
            pts = rng.uniform(0, 4, 8)
            a, b = Vec2(pts[0], pts[1]), Vec2(pts[2], pts[3])
            c, d = Vec2(pts[4], pts[5]), Vec2(pts[6], pts[7])
            if is_zero(sub(a, b)) or is_zero(sub(c, d)):
                continue
            if segments_cross_interior(a, b, c, d):
                assert segments_properly_intersect(
                    Segment(a, b), Segment(c, d)
                )

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_collinear_overlap_counts_above_the_tolerance(self, axis):
        def pt(s):
            return (s, 0.0) if axis == "x" else (0.0, s)

        # Overlaps of 5e-13 and exactly 0 do not count; 2e-12 does.
        assert not crosses(pt(0.0), pt(1.0), pt(1.0 - 5e-13), pt(2.0))
        assert not crosses(pt(0.0), pt(1.0), pt(1.0), pt(2.0))
        assert crosses(pt(0.0), pt(1.0), pt(1.0 - 2e-12), pt(2.0))
        assert crosses(pt(1.0), pt(0.0), pt(2.0), pt(1.0 - 2e-12))

    def test_a_45_degree_pair_projects_on_x(self):
        # Four points collinear within the tolerance on a 45-degree line,
        # where the first edge's x and y extents tie. Projected on x the
        # overlap is 1.3e-12, on y 0.9e-12: x decides, either way round.
        a, b, d = (0.0, 0.0), (1.0, 1.0), (2.0, 2.0)
        assert crosses(a, b, (1.0 - 1.3e-12, 1.0 - 0.9e-12), d)
        assert not crosses(a, b, (1.0 - 0.9e-12, 1.0 - 1.3e-12), d)

    def test_edges_sharing_a_node_never_count(self):
        # 0-2 and 0-1 overlap on [0, 1] but meet at node 0.
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        edges = np.array([[0, 2], [0, 1]], dtype=np.int64)
        assert find_planarity_violation(positions, edges) is None
        # On a second node at node 0's point, the overlap counts.
        assert crosses((0.0, 0.0), (2.0, 0.0), (0.0, 0.0), (1.0, 0.0))
