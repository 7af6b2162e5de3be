"""Planar primitives: points, wrapped angles, compass quadrants, wall
segments and the orientation test that face routing rests on.

The routers and the wiring work on plain floats; Vec2 carries the fixed
points of an experiment (source, destination, wall ends) and the trial
loop's recorded path, and has no arithmetic. worldgen's planarity check
applies orient's rule to arrays. tests/vec2_geometry.py keeps the Vec2
crossing test and the compass enum as oracles.

Everything here works in plain float64. Coordinates in this package stay
within a few tens of units, so double precision leaves a wide margin and the
collinearity tolerance below is far above rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# Cross products with magnitude at or below this count as collinear.
COLLINEAR_EPS = 1e-12


@dataclass(frozen=True)
class Vec2:
    """Immutable 2D point / direction."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite component in ({self.x!r}, {self.y!r})")


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


def quadrant(r: float) -> int:
    """Compass quadrant of a wrapped turn angle r, by the index the
    router's tables use: 0 NE, 1 NW, 2 SE, 3 SW.

    The names treat the destination bearing as north: NE and NW mean it
    is less than a quarter turn off the heading, SE and SW behind. The
    half-open partition puts every angle in exactly one quadrant: SW is
    [-pi, -pi/2), NW [-pi/2, 0), NE [0, pi/2), SE [pi/2, pi).
    """
    if r < -math.pi / 2:
        return 3
    if r < 0.0:
        return 1
    if r < math.pi / 2:
        return 0
    return 2


def orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Sign of the (a, b, c) triangle orientation: +1 ccw, -1 cw, 0 flat."""
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return 1 if d > COLLINEAR_EPS else -1 if d < -COLLINEAR_EPS else 0
