"""The compass/flag geographic router.

Forwarding has two moods. In inertia mode the message tries to keep
flying straight while gently bending toward the destination: the turn it
would need is clamped to at most beta * pi per hop. In contour mode the
message has decided it is walking around an obstacle, so it bends the
long way around instead: the complementary reflex angle of the turn,
scaled by the same beta, which makes it hug the obstacle with a hand
rule rather than cut toward the destination.

Mode selection is driven by a compass reading (quadrant of the turn
toward the destination) and a one-bit-plus-tag flag carried on the
message. The flag goes up when the compass points south (the message is
moving away from its goal, hence presumably circumnavigating), tagged W
or E by which side it turned; it comes down once the compass swings back
to the matching northern quadrant. Both rules are tables indexed by the
flag and geometry.quadrant's reading: FLAG_TABLE and CONTOUR_TABLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from .geometry import TWO_PI, Vec2, quadrant, wrap_angle
from .outcomes import Stuck
from .worldgen import World


class Flag(IntEnum):
    """The message's flag; its int value indexes the routing tables."""

    DOWN = 0
    UP_E = 1
    UP_W = 2

    # A plain IntEnum prints as its int ("0") since Python 3.11; Enum's
    # __str__ keeps "Flag.DOWN" in printed values and in test ids such as
    # test_update_flag_table[Flag.DOWN-CompassValue.NE-Flag.DOWN].
    __str__ = Enum.__str__


@dataclass(frozen=True)
class RoutingParams:
    """Tunables for the router.

    beta is the inertia-conservation parameter in [0, 1]: the fraction of
    the needed turn actually applied per hop. epsilon is the per-neighbor
    drop probability of the randomized variant; it only matters when the
    router is handed uniform draws (Uniforms).
    """

    beta: float = 1.0 / 6.0
    epsilon: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")


@dataclass
class MessageState:
    """Per-message routing state carried hop to hop.

    prev_pos, the (x, y) of the node the message arrived from, is None
    exactly while the message still sits on its source node; the router
    then pretends the message arrived flying straight at the destination,
    which reads as compass NE with a zero turn. The step functions
    advance prev_pos and flag in place.

    decisions is gric_step's memo, for both variants. A message has one
    world, one destination and one params, so gric_step's decision at a
    node is a function of (current, prev_pos, flag) alone; decisions
    maps each such state met so far to _decide's tuple. The neighbour
    list in it is the world's cached one. Hand a state only to steps on
    one world with one params.
    """

    dest_pos: Vec2
    prev_pos: tuple[float, float] | None = None
    flag: Flag = Flag.DOWN
    decisions: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def travel_turn(state: MessageState, x: float, y: float) -> tuple[float, float, float]:
    """(vx, vy, alpha) at the node (x, y): the travel direction to
    measure turns against, and the wrapped turn alpha carrying it onto
    the destination bearing.

    Raises Stuck when either direction is the zero vector.
    """
    wx = state.dest_pos.x - x
    wy = state.dest_pos.y - y
    if state.prev_pos is None:
        vx, vy = wx, wy
    else:
        vx = x - state.prev_pos[0]
        vy = y - state.prev_pos[1]
    if (vx == 0.0 and vy == 0.0) or (wx == 0.0 and wy == 0.0):
        raise Stuck("message has no usable travel direction")
    return vx, vy, wrap_angle(math.atan2(wy, wx) - math.atan2(vy, vx))


# Flag after the compass reading, indexed [flag][quadrant]: up (tagged by
# side) on a southern reading while down, down again on the northern
# reading of the flag's own side, otherwise unchanged.
FLAG_TABLE = (
    # NE         NW         SE         SW
    (Flag.DOWN, Flag.DOWN, Flag.UP_E, Flag.UP_W),  # DOWN
    (Flag.DOWN, Flag.UP_E, Flag.UP_E, Flag.UP_E),  # UP_E
    (Flag.UP_W, Flag.DOWN, Flag.UP_W, Flag.UP_W),  # UP_W
)

# Contour mode, indexed [flag][quadrant], engages only when the raised
# flag's tag and the compass disagree east/west; that is the signature
# of a message partway around an obstacle. Everything else is inertia.
CONTOUR_TABLE = (
    # NE     NW     SE     SW
    (False, False, False, False),  # DOWN
    (False, True, False, True),  # UP_E
    (True, False, True, False),  # UP_W
)


def clamp_turn(alpha: float, beta: float) -> float:
    """Inertia-mode turn: alpha clamped to the band [-beta*pi, beta*pi]."""
    bound = beta * math.pi
    if alpha < -bound:
        return -bound
    if alpha > bound:
        return bound
    return alpha


def contour_turn(alpha: float, beta: float) -> float:
    """Contour-mode turn: beta times the reflex complement of alpha.

    The complement -sign(alpha) * (2*pi - |alpha|) points the long way
    around the circle, so rotating by the full complement would reach the
    destination bearing from the other side. Scaling by beta bends only
    part of the way per hop, which traces along the obstacle. The result
    is a raw turn in [-2*pi*beta, 2*pi*beta]; it is NOT wrapped, since
    wrapping would flip the intended turning side.
    """
    sign = -1.0 if alpha >= 0.0 else 1.0
    return beta * sign * (TWO_PI - abs(alpha))


class Uniforms:
    """A Generator's uniform doubles, drawn BLOCK at a time.

    take(k) returns the next k doubles of the sequence that calling
    rng.random(k) hop by hop would give: the Generator makes each double
    from one draw of its bit stream, so drawing ahead in blocks changes
    no value and no order. The Generator ends up ahead of the doubles
    taken, so nothing else may draw from it.
    """

    BLOCK = 1024

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.buf: list[float] = []
        self.at = 0

    def take(self, k: int) -> list[float]:
        at, end = self.at, self.at + k
        if end > len(self.buf):
            rest = self.buf[at:]
            self.buf = rest + self.rng.random(max(self.BLOCK, k - len(rest))).tolist()
            at, end = 0, k
        self.at = end
        return self.buf[at:end]


def rank(world: World, current: int, ix: float, iy: float) -> tuple[list[int], int, list]:
    """(nbrs, best, projs): current's neighbours, ascending by id, the
    scalar product of each one's offset with (ix, iy), and the index in
    nbrs of the largest. list.index finds the first maximum, so ties go
    to the smallest node id.

    Raises Stuck when current has no neighbour.
    """
    nbrs = world.neighbors(current)
    if not nbrs:
        raise Stuck(f"node {current} has no out-links")
    xs, ys = world.xs, world.ys
    x, y = xs[current], ys[current]
    projs = [(xs[v] - x) * ix + (ys[v] - y) * iy for v in nbrs]
    return nbrs, projs.index(max(projs)), projs


def next_hop(
    world: World,
    current: int,
    ix: float,
    iy: float,
    params: RoutingParams = RoutingParams(),
    draws: Uniforms | None = None,
    ranked: tuple[list[int], int, list[float]] | None = None,
) -> int:
    """Neighbor whose offset has the largest scalar product with (ix, iy).

    ranked is rank(world, current, ix, iy), passed when the caller has
    it already; without it next_hop ranks the neighbours itself. Ties
    on the scalar product go to the smallest node id.

    Given draws (the randomized variant), it first thins the neighbor
    set, keeping each neighbor independently with probability
    1 - epsilon, one uniform per neighbor in id order, and falls back to
    the full set when the thinning empties it. A dropped best gives way
    to the first maximum of rank's products over the kept neighbours.
    """
    nbrs, best, projs = ranked or rank(world, current, ix, iy)
    if draws is not None and params.epsilon > 0.0:
        eps = params.epsilon
        us = draws.take(len(nbrs))
        if us[best] < eps:
            kept = [k for k, u in enumerate(us) if u >= eps]
            if kept:
                return nbrs[max(kept, key=projs.__getitem__)]
    return nbrs[best]


def _decide(
    world: World, current: int, state: MessageState, params: RoutingParams
) -> tuple:
    """gric_step's decision at current for state's prev_pos and flag:
    (current's position, the new flag, ix, iy, rank(world, current, ix,
    iy)), where (ix, iy) is the bent travel direction."""
    x, y = world.xs[current], world.ys[current]
    vx, vy, alpha = travel_turn(state, x, y)
    c = quadrant(alpha)
    flag = FLAG_TABLE[state.flag][c]
    if CONTOUR_TABLE[flag][c]:
        gamma = contour_turn(alpha, params.beta)
    else:
        gamma = clamp_turn(alpha, params.beta)
    cos_g, sin_g = math.cos(gamma), math.sin(gamma)
    ix, iy = cos_g * vx - sin_g * vy, sin_g * vx + cos_g * vy
    return (x, y), flag, ix, iy, rank(world, current, ix, iy)


def gric_step(
    world: World,
    current: int,
    state: MessageState,
    params: RoutingParams,
    draws: Uniforms | None = None,
) -> int:
    """One forwarding decision: returns the next node.

    Order of business: read the compass, update the flag, select the
    mode, bend the travel direction by the mode's turn, then rank the
    neighbours along the bent direction (_decide) and hand them to
    next_hop. All of that but next_hop's pick depends on (current,
    prev_pos, flag) alone, so it is worked out once per state and kept
    in state.decisions: a state met again reuses it, and only the pick,
    with gric+'s thinning uniforms, runs each hop. state gets the new
    flag and prev_pos advanced to this node. Delivery, border and budget
    are the trial loop's.
    """
    key = (current, state.prev_pos, state.flag)
    decision = state.decisions.get(key)
    if decision is None:
        decision = state.decisions[key] = _decide(world, current, state, params)
    pos, flag, ix, iy, ranked = decision
    nxt = next_hop(world, current, ix, iy, params, draws, ranked)
    state.prev_pos = pos
    state.flag = flag
    return nxt
