"""Planar primitives: vectors, wrapped angles, rotations, compass quadrants,
and segment intersection tests.

Everything here works in plain float64. Coordinates in this package stay
within a few tens of units, so double precision leaves a wide margin and the
collinearity tolerance below is far above rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi

# Cross products with magnitude at or below this count as collinear.
COLLINEAR_EPS = 1e-12


class ZeroVector(ValueError):
    """A direction was requested from a (near-)zero-length vector."""


@dataclass(frozen=True)
class Vec2:
    """Immutable 2D point / direction."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite component in ({self.x!r}, {self.y!r})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scale: float) -> "Vec2":
        return Vec2(self.x * scale, self.y * scale)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def is_zero(self) -> bool:
        return self.x == 0.0 and self.y == 0.0

    def heading(self) -> float:
        """Angle of this vector from the +x axis, in (-pi, pi].

        Raises ZeroVector for the zero vector, which has no direction.
        """
        if self.is_zero():
            raise ZeroVector("zero vector has no heading")
        return math.atan2(self.y, self.x)


def wrap_angle(radians: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    r = (radians + math.pi) % TWO_PI - math.pi
    # The float modulo can return exactly +pi when radians is a hair below
    # an odd multiple of pi; fold that back onto the closed lower end.
    if r >= math.pi:
        r = -math.pi
    return r


@dataclass(frozen=True)
class Angle:
    """An angle normalized to [-pi, pi) on construction and arithmetic."""

    radians: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radians):
            raise ValueError(f"non-finite angle: {self.radians!r}")
        object.__setattr__(self, "radians", wrap_angle(float(self.radians)))

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.radians + other.radians)

    def __sub__(self, other: "Angle") -> "Angle":
        return Angle(self.radians - other.radians)

    def __neg__(self) -> "Angle":
        return Angle(-self.radians)

    def __float__(self) -> float:
        return self.radians


@dataclass(frozen=True)
class Segment:
    """Closed line segment with distinct endpoints."""

    a: Vec2
    b: Vec2

    def __post_init__(self) -> None:
        if self.a.x == self.b.x and self.a.y == self.b.y:
            raise ValueError("degenerate segment: endpoints coincide")


class CompassValue(Enum):
    """Quadrant of the signed turn from travel direction to destination.

    The quadrant names treat the destination bearing as north: NE and NW
    mean the destination is less than a quarter turn off the current
    heading (to the left or right), SE and SW mean it is behind.
    """

    NE = "NE"
    NW = "NW"
    SE = "SE"
    SW = "SW"


# The readings in quadrant() order: the per-hop router works with the
# small int and indexes its tables by it.
COMPASS = tuple(CompassValue)


def angle_from_to(v_from: Vec2, v_to: Vec2) -> Angle:
    """Signed turn carrying the direction of v_from onto v_to.

    Positive angles are counterclockwise. Both vectors must be nonzero.
    """
    if v_from.is_zero() or v_to.is_zero():
        raise ZeroVector("cannot measure a turn involving a zero vector")
    return Angle(math.atan2(v_to.y, v_to.x) - math.atan2(v_from.y, v_from.x))


def rotate(v: Vec2, gamma: Angle | float) -> Vec2:
    """Rotate v counterclockwise by gamma. Preserves the norm."""
    g = float(gamma)
    c = math.cos(g)
    s = math.sin(g)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


def quadrant(r: float) -> int:
    """Index in COMPASS of the quadrant of a wrapped turn angle r.

    The partition is half-open so every angle lands in exactly one
    quadrant: SW is [-pi, -pi/2), NW is [-pi/2, 0), NE is [0, pi/2),
    SE is [pi/2, pi).
    """
    if r < -math.pi / 2:
        return 3
    if r < 0.0:
        return 1
    if r < math.pi / 2:
        return 0
    return 2


def compass_of(alpha: Angle) -> CompassValue:
    """Classify a turn angle into its compass quadrant (see quadrant)."""
    return COMPASS[quadrant(alpha.radians)]


def compass(p: Vec2, p_prev: Vec2, p_dest: Vec2) -> CompassValue:
    """Compass reading at p for a message that arrived from p_prev.

    Measures the turn from the arrival direction (p - p_prev) to the
    destination direction (p_dest - p) and classifies its quadrant.
    """
    return compass_of(angle_from_to(p - p_prev, p_dest - p))


def orient(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Sign of the (a, b, c) triangle orientation: +1 ccw, -1 cw, 0 flat."""
    d = (b - a).cross(c - a)
    if d > COLLINEAR_EPS:
        return 1
    if d < -COLLINEAR_EPS:
        return -1
    return 0


def _on_segment(a: Vec2, b: Vec2, p: Vec2) -> bool:
    """Whether p, already known collinear with a-b, lies within the box."""
    return (
        min(a.x, b.x) - COLLINEAR_EPS <= p.x <= max(a.x, b.x) + COLLINEAR_EPS
        and min(a.y, b.y) - COLLINEAR_EPS <= p.y <= max(a.y, b.y) + COLLINEAR_EPS
    )


def segments_properly_intersect(s1: Segment, s2: Segment) -> bool:
    """Whether two closed segments share at least one point.

    Endpoint contact and collinear overlap both count. This is the
    conservative reading used for radio obstruction: a link that so much
    as grazes a wall is considered blocked.
    """
    a, b = s1.a, s1.b
    c, d = s2.a, s2.b
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    # Degenerate branches: some triple is collinear.
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def segments_cross_interior(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> bool:
    """Whether open segments a-b and c-d cross or overlap.

    Unlike segments_properly_intersect, contact at a shared endpoint does
    not count. Used for planarity checking, where edges of an embedded
    graph are allowed to meet at common vertices.
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # All collinear: overlap of positive length counts, touching tips
        # do not. Project onto the dominant axis and compare intervals.
        if abs(b.x - a.x) >= abs(b.y - a.y):
            lo1, hi1 = sorted((a.x, b.x))
            lo2, hi2 = sorted((c.x, d.x))
        else:
            lo1, hi1 = sorted((a.y, b.y))
            lo2, hi2 = sorted((c.y, d.y))
        return min(hi1, hi2) - max(lo1, lo2) > COLLINEAR_EPS
    return False
