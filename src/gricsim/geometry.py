"""Planar primitives: points, wrapped angles, compass quadrants, wall
segments and the orientation test that planarity checks rest on.

The routers and the wiring work on plain floats; Vec2 carries the fixed
points of an experiment (source, destination, wall ends) and the trial
loop's recorded path.

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


def wrap_angle(radians: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    r = (radians + math.pi) % TWO_PI - math.pi
    # The float modulo can return exactly +pi when radians is a hair below
    # an odd multiple of pi; fold that back onto the closed lower end.
    if r >= math.pi:
        r = -math.pi
    return r


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


def orient(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Sign of the (a, b, c) triangle orientation: +1 ccw, -1 cw, 0 flat."""
    d = (b - a).cross(c - a)
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
