"""Walk through the router's decision machinery by hand, no network.

Prints the compass partition, the full flag transition and mode tables,
and the two turn laws evaluated at a spread of headings. Run it to get a
feel for when the router hugs its momentum and when it swings the long
way around.
"""

import math

from gricsim.geometry import quadrant
from gricsim.routing import CONTOUR_TABLE, FLAG_TABLE, Flag, clamp_turn, contour_turn

BETA = 1.0 / 6.0

# Compass labels in quadrant() order.
COMPASS = ("NE", "NW", "SE", "SW")


def main() -> None:
    print("compass partition (alpha = bearing of destination relative")
    print("to the current travel direction):")
    for alpha in (-math.pi, -2.0, -1.0, -0.2, 0.0, 0.7, 1.6, 3.0):
        c = COMPASS[quadrant(alpha)]
        print(f"  alpha {alpha:+.2f} rad -> {c}")

    print("\nflag transitions (rows: flag before, columns: compass):")
    header = "        " + "".join(f"{c:>8s}" for c in COMPASS)
    print(header)
    for flag in Flag:
        cells = "".join(f"{f.name.lower():>8s}" for f in FLAG_TABLE[flag])
        print(f"  {flag.name.lower():<6s}{cells}")

    print("\nmode selection (same axes):")
    print(header)
    for flag in Flag:
        cells = "".join(
            f"{'contour' if contour else 'inertia':>8s}" for contour in CONTOUR_TABLE[flag]
        )
        print(f"  {flag.name.lower():<6s}{cells}")

    print(f"\nturn laws at beta = 1/6 (inertia cap {BETA * math.pi:.3f} rad,")
    print(f"contour cap {2 * math.pi * BETA:.3f} rad):")
    print("  alpha     inertia turn   contour turn")
    for alpha in (-3.0, -2.0, -1.0, -0.3, 0.3, 1.0, 2.0, 3.0):
        print(
            f"  {alpha:+.2f}       {clamp_turn(alpha, BETA):+.3f}"
            f"         {contour_turn(alpha, BETA):+.3f}"
        )
    print("\nNote the signs: the inertia turn chases the destination, the")
    print("contour turn deliberately rotates the other way around, which")
    print("is what walks a message along a wall instead of into it.")


if __name__ == "__main__":
    main()
