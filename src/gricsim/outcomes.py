"""The one trial loop, its outcome records and its routing signals.

Every router, face routing included, moves a message through walk(),
which owns the rules all routers are judged by:

* success   -- the message occupies a node at distance < COMM_RADIUS
               from the destination point
* fail_oob  -- the occupied node is within COMM_RADIUS of the region
               border (inclusive), when the border rule is enforced;
               checked at the source and after every hop
* fail_ttl  -- the hop counter exceeds the hop budget; a deterministic
               router whose state repeats is fast-forwarded to this
               end (see walk)
* fail_stuck -- the router has no move left: it signals Stuck, or its
               geometry degenerates (two nodes at one position leave no
               travel direction, a ZeroVector)

A router is only a step function, current node in, next node out; it
never checks delivery, the border or the budget itself. Kept apart from
the routers and the experiment harness so both can import it without a
cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Callable, Hashable
from itertools import cycle, islice

import numpy as np

from .geometry import Vec2, ZeroVector
from .worldgen import COMM_RADIUS, World


class Stuck(Exception):
    """Raised when a router has no admissible next hop."""


class TrialStatus(Enum):
    SUCCESS = "success"
    FAIL_TTL = "fail_ttl"
    FAIL_OOB = "fail_oob"
    FAIL_STUCK = "fail_stuck"
    FAIL_NO_NODES = "fail_no_nodes"


@dataclass
class TrialOutcome:
    """Result of routing one message through one world.

    hops counts every move of the message, backtracking moves included.
    distance is the total Euclidean length travelled. path holds the
    sequence of visited node positions when path recording was requested,
    else None. cycle_start and cycle_len are set only when walk
    fast-forwarded a repeated router state: the hop at which the cycle's
    state was first seen, and the cycle's length in hops.
    """

    status: TrialStatus
    hops: int
    distance: float
    path: list[Vec2] | None = field(default=None)
    cycle_start: int | None = None
    cycle_len: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.status is TrialStatus.SUCCESS


def walk(
    world: World,
    source: int,
    dest: Vec2,
    step: Callable[[int], int],
    ttl: int,
    *,
    enforce_oob: bool = True,
    record_path: bool = False,
    state_key: Callable[[int], Hashable] | None = None,
) -> TrialOutcome:
    """Move a message from source by step() until a rule ends the trial.

    step(current) returns the next node or raises Stuck; it is called
    once per hop and keeps whatever state its router needs.

    state_key(current), given only for a router whose next move and next
    state are a pure function of its state, names that state just before
    each step. Once a key repeats, the walk is periodic, and every node
    on the cycle has already passed the delivery and border checks, so
    the trial must end fail_ttl at ttl + 1 hops. walk finishes it from
    the cycle's recorded hop lengths, added to the distance one at a
    time in walking order by one np.add.accumulate, so the outcome
    equals that of the full walk bit for bit.

    The loop reads node positions as plain floats from world.xs and
    world.ys; the path, when recorded, is the only Vec2 it builds.
    """
    xs, ys = world.xs, world.ys
    r = world.region
    dx, dy = dest.x, dest.y
    cur = source
    hops = 0
    dist = 0.0
    path = [world.pos(source)] if record_path else None
    seen: dict[Hashable, int] = {}
    legs: list[float] = []
    x, y = xs[cur], ys[cur]
    while True:
        if math.hypot(x - dx, y - dy) < COMM_RADIUS:
            return TrialOutcome(TrialStatus.SUCCESS, hops, dist, path)
        border = min(x - r.x_min, r.x_max - x, y - r.y_min, r.y_max - y)
        if enforce_oob and border <= COMM_RADIUS:
            return TrialOutcome(TrialStatus.FAIL_OOB, hops, dist, path)
        if hops > ttl:
            return TrialOutcome(TrialStatus.FAIL_TTL, hops, dist, path)
        if state_key is not None:
            start = seen.setdefault(state_key(cur), hops)
            if start < hops:
                period = hops - start
                count = ttl + 1 - hops
                # np.add.accumulate adds strictly left to right, the
                # order of the hop-by-hop walk; sum() would not.
                tail = np.resize(np.array(legs[start:], dtype=float), count)
                dist = float(np.add.accumulate(np.concatenate(([dist], tail)))[-1])
                if path is not None:
                    path += islice(cycle(path[-period:]), count)
                return TrialOutcome(
                    TrialStatus.FAIL_TTL, ttl + 1, dist, path, start, period
                )
        try:
            cur = step(cur)
        except (Stuck, ZeroVector):
            return TrialOutcome(TrialStatus.FAIL_STUCK, hops, dist, path)
        nx, ny = xs[cur], ys[cur]
        leg = math.hypot(nx - x, ny - y)
        dist += leg
        hops += 1
        x, y = nx, ny
        if state_key is not None:
            legs.append(leg)
        if path is not None:
            path.append(Vec2(x, y))
