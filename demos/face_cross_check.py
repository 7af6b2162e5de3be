"""Face routing as a connectivity oracle, demonstrated live.

On a planar subgraph, face traversal is not a heuristic: it delivers
exactly when a path exists. This script builds sparse worlds where
connectivity is genuinely in doubt, answers the question both ways
(graph search versus face walk), and counts agreements.
"""

import math

import numpy as np

from gricsim.baselines import face_route
from gricsim.geometry import Vec2
from gricsim.worldgen import COMM_RADIUS, Region, deploy, make_obstacle

REGION = Region(0.0, 10.0, 0.0, 10.0)
DEST = Vec2(9.5, 5.0)


def component_reaches(world, source) -> bool:
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in world.gabriel_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return any(
        math.dist((world.xs[i], world.ys[i]), (DEST.x, DEST.y)) < COMM_RADIUS
        for i in seen
    )


def main() -> None:
    agree = deliverable = 0
    total = 60
    for k in range(total):
        density = 1.0 + 1.5 * (k % 12) / 11.0
        world = deploy(density, REGION, make_obstacle("none"), 7000 + k)
        dists = np.hypot(
            world.positions[:, 0] - 0.5, world.positions[:, 1] - 5.0
        )
        source = int(np.argmin(dists))
        walk = face_route(
            world, source, DEST, enforce_oob=False
        )
        truth = component_reaches(world, source)
        agree += int(walk.succeeded == truth)
        deliverable += int(truth)
    print(f"{total} sparse worlds, {deliverable} actually connected")
    print(f"face walk agreed with graph search on {agree}/{total}")
    print("\nNo randomness in the walk and no tolerance in the check:")
    print("the two answers must be identical, every single time.")


if __name__ == "__main__":
    main()
