"""Geographic routing laboratory.

Simulates stateless-ish geographic routing on random unit-disk sensor
networks with communication-blocking wall obstacles. The package provides:

* ``geometry``  -- points, angle wrapping, compass quadrants, walls and the
                 orientation test (the Vec2 forms live in tests/)
* ``worldgen``  -- random node deployment, link pruning, Gabriel subgraph
* ``routing``   -- the compass/flag router with inertia and contour modes
* ``baselines`` -- greedy, inertia-only, limited-backtrack, and face routing
* ``harness``   -- reproducible Monte-Carlo trial and sweep machinery
* ``cli``       -- the ``gricsim`` command line front end
"""

__version__ = "0.1.0"
