"""Shared helpers for the test suite."""

import shutil
import tempfile

import numpy as np
from hypothesis.configuration import set_hypothesis_home_dir

from gricsim.worldgen import Region, World, make_obstacle


def make_world(points, edge_list, region=None, obstacle_name="none"):
    """Hand-built World for unit tests.

    points is a sequence of (x, y) pairs, edge_list a sequence of
    undirected (u, v) node id pairs. No geometry checks are applied, so
    tests can build configurations deploy() would never produce. World
    builds the CSR adjacency from the edges as it does for deploy().
    """
    positions = np.asarray(points, dtype=float).reshape(-1, 2)
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    return World(
        region=region or Region(-100.0, 100.0, -100.0, 100.0),
        obstacle=make_obstacle(obstacle_name),
        positions=positions,
        edges=edges,
    )


def pytest_configure(config):
    """Keep hypothesis's on-disk caches out of the working tree.

    Its pytest plugin caches the constants of local modules at collection
    time, whatever a test's settings say.
    """
    home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
