"""The planar API the routers and wiring were first written on: Vec2
differences, cross products and norms, wrapped Angle objects, turns
between Vec2 directions, rotations, the compass enum, the orientation
test, the open and closed segment tests, and the flag and mode rules as
functions. gricsim works on floats, arrays and tables now; these are
kept only as oracles for it and for the Vec2 routers in vec2_routers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from gricsim.geometry import (
    COLLINEAR_EPS,
    Segment,
    Vec2,
    ZeroVector,
    quadrant,
    wrap_angle,
)
from gricsim.routing import CONTOUR_TABLE, FLAG_TABLE, Flag


def sub(a: Vec2, b: Vec2) -> Vec2:
    """The vector a - b."""
    return Vec2(a.x - b.x, a.y - b.y)


def cross(u: Vec2, v: Vec2) -> float:
    return u.x * v.y - u.y * v.x


def norm(v: Vec2) -> float:
    return math.hypot(v.x, v.y)


def distance(a: Vec2, b: Vec2) -> float:
    """Euclidean distance from a to b: the norm of a - b."""
    return norm(sub(a, b))


def is_zero(v: Vec2) -> bool:
    return v.x == 0.0 and v.y == 0.0


def heading(v: Vec2) -> float:
    """Angle of v from the +x axis, in (-pi, pi].

    Raises ZeroVector for the zero vector, which has no direction.
    """
    if is_zero(v):
        raise ZeroVector("zero vector has no heading")
    return math.atan2(v.y, v.x)


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


def angle_from_to(v_from: Vec2, v_to: Vec2) -> Angle:
    """Signed turn carrying the direction of v_from onto v_to.

    Positive angles are counterclockwise. Both vectors must be nonzero.
    """
    if is_zero(v_from) or is_zero(v_to):
        raise ZeroVector("cannot measure a turn involving a zero vector")
    return Angle(math.atan2(v_to.y, v_to.x) - math.atan2(v_from.y, v_from.x))


def rotate(v: Vec2, gamma: Angle | float) -> Vec2:
    """Rotate v counterclockwise by gamma. Preserves the norm."""
    g = float(gamma)
    c = math.cos(g)
    s = math.sin(g)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


def border_distance(region, p: Vec2) -> float:
    """Distance from p to region's nearest side; negative outside it."""
    return min(
        p.x - region.x_min,
        region.x_max - p.x,
        p.y - region.y_min,
        region.y_max - p.y,
    )


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


# The readings in quadrant() order: the router's tables are indexed by
# COMPASS.index(c).
COMPASS = tuple(CompassValue)


def compass_of(alpha: Angle) -> CompassValue:
    """Classify a turn angle into its compass quadrant (see quadrant)."""
    return COMPASS[quadrant(alpha.radians)]


def orient(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Sign of the (a, b, c) triangle orientation: +1 ccw, -1 cw, 0 flat."""
    d = cross(sub(b, a), sub(c, a))
    if d > COLLINEAR_EPS:
        return 1
    if d < -COLLINEAR_EPS:
        return -1
    return 0


def segments_cross_interior(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> bool:
    """Whether open segments a-b and c-d cross or overlap.

    Contact at a shared endpoint does not count. Used for planarity
    checking, where edges of an embedded graph are allowed to meet at
    common vertices.
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


class Mode(Enum):
    INERTIA = "inertia"
    CONTOUR = "contour"


def update_flag(flag: Flag, c: CompassValue) -> Flag:
    """The flag after reading compass c."""
    return FLAG_TABLE[flag][COMPASS.index(c)]


def mode_selector(flag: Flag, c: CompassValue) -> Mode:
    """The forwarding mood for a (flag, compass) pair."""
    return Mode.CONTOUR if CONTOUR_TABLE[flag][COMPASS.index(c)] else Mode.INERTIA
