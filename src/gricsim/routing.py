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
to the matching northern quadrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .geometry import (
    TWO_PI,
    Angle,
    CompassValue,
    Vec2,
    ZeroVector,
    angle_from_to,
    compass_of,
    rotate,
)
from .outcomes import Stuck
from .worldgen import World


class Flag(Enum):
    DOWN = "down"
    UP_E = "up_e"
    UP_W = "up_w"


class Mode(Enum):
    INERTIA = "inertia"
    CONTOUR = "contour"


@dataclass(frozen=True)
class RoutingParams:
    """Tunables for the router.

    beta is the inertia-conservation parameter in [0, 1]: the fraction of
    the needed turn actually applied per hop. epsilon is the per-neighbor
    drop probability of the randomized variant; it only matters when the
    router is handed an rng.
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

    prev_pos is None exactly while the message still sits on its source
    node; the router then pretends the message arrived flying straight
    at the destination, which reads as compass NE with a zero turn.
    """

    dest_pos: Vec2
    prev_pos: Vec2 | None = None
    flag: Flag = Flag.DOWN


def effective_prev_direction(state: MessageState, current: Vec2) -> Vec2:
    """Travel direction to measure turns against at the current node."""
    if state.prev_pos is None:
        v = state.dest_pos - current
    else:
        v = current - state.prev_pos
    if v.is_zero():
        raise ZeroVector("message has no usable travel direction")
    return v


# Flag after the compass reading, for every (flag, compass) pair: up
# (tagged by side) on a southern reading while down, down again on the
# northern reading of the flag's own side, otherwise unchanged.
_FLAG_TABLE = {
    (Flag.DOWN, CompassValue.NE): Flag.DOWN,
    (Flag.DOWN, CompassValue.NW): Flag.DOWN,
    (Flag.DOWN, CompassValue.SE): Flag.UP_E,
    (Flag.DOWN, CompassValue.SW): Flag.UP_W,
    (Flag.UP_E, CompassValue.NE): Flag.DOWN,
    (Flag.UP_E, CompassValue.NW): Flag.UP_E,
    (Flag.UP_E, CompassValue.SE): Flag.UP_E,
    (Flag.UP_E, CompassValue.SW): Flag.UP_E,
    (Flag.UP_W, CompassValue.NE): Flag.UP_W,
    (Flag.UP_W, CompassValue.NW): Flag.DOWN,
    (Flag.UP_W, CompassValue.SE): Flag.UP_W,
    (Flag.UP_W, CompassValue.SW): Flag.UP_W,
}

# Contour mode engages only when the raised flag's tag and the compass
# disagree east/west; that is the signature of a message partway around
# an obstacle. Everything else is inertia.
_CONTOUR_PAIRS = {
    (Flag.UP_E, CompassValue.NW),
    (Flag.UP_E, CompassValue.SW),
    (Flag.UP_W, CompassValue.NE),
    (Flag.UP_W, CompassValue.SE),
}


def update_flag(flag: Flag, c: CompassValue) -> Flag:
    """The flag after reading compass c."""
    return _FLAG_TABLE[(flag, c)]


def mode_selector(flag: Flag, c: CompassValue) -> Mode:
    """The forwarding mood for a (flag, compass) pair."""
    return Mode.CONTOUR if (flag, c) in _CONTOUR_PAIRS else Mode.INERTIA


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


def inertia_ideal(v_prev: Vec2, v_dest: Vec2, beta: float) -> Vec2:
    """Ideal forwarding direction in inertia mode."""
    alpha = angle_from_to(v_prev, v_dest)
    return rotate(v_prev, clamp_turn(alpha.radians, beta))


def next_hop(
    world: World,
    current: int,
    v_ideal: Vec2,
    params: RoutingParams = RoutingParams(),
    rng: np.random.Generator | None = None,
) -> int:
    """Neighbor whose offset has the largest scalar product with v_ideal.

    Given an rng (the randomized variant), it first thins the neighbor
    set, keeping each neighbor independently with probability
    1 - epsilon, and falls back to the full set when the thinning empties
    it. Ties on the scalar product go to the smallest node id.
    """
    nbrs = world.out_links[current]
    if len(nbrs) == 0:
        raise Stuck(f"node {current} has no out-links")
    offs = world.positions[nbrs] - world.positions[current]
    if rng is not None and params.epsilon > 0.0:
        keep = rng.random(len(nbrs)) >= params.epsilon
        if keep.any():
            nbrs = nbrs[keep]
            offs = offs[keep]
    proj = offs[:, 0] * v_ideal.x + offs[:, 1] * v_ideal.y
    # argmax returns the first maximum and nbrs is sorted ascending, so
    # ties resolve to the smallest node id without extra work.
    return int(nbrs[int(np.argmax(proj))])


def gric_step(
    world: World,
    current: int,
    state: MessageState,
    params: RoutingParams,
    rng: np.random.Generator | None = None,
) -> tuple[int, MessageState]:
    """One forwarding decision: returns (next node, updated state).

    Order of business: read the compass, update the flag, select the
    mode, bend the travel direction by the mode's turn, then hand the
    bent direction to next_hop. The returned state has prev_pos advanced
    and the new flag. Delivery, border and budget are the trial loop's.
    """
    p = world.pos(current)
    v_prev = effective_prev_direction(state, p)
    v_dest = state.dest_pos - p
    if v_dest.is_zero():
        raise ZeroVector("message is exactly at the destination point")
    alpha = angle_from_to(v_prev, v_dest)
    c = compass_of(alpha)
    flag = update_flag(state.flag, c)
    mode = mode_selector(flag, c)
    if mode is Mode.INERTIA:
        gamma = clamp_turn(alpha.radians, params.beta)
    else:
        gamma = contour_turn(alpha.radians, params.beta)
    v_ideal = rotate(v_prev, gamma)
    nxt = next_hop(world, current, v_ideal, params, rng)
    return nxt, replace(state, prev_pos=p, flag=flag)
