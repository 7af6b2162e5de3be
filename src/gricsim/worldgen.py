"""Random sensor-network worlds.

A world is a batch of nodes dropped uniformly at random into a rectangle,
wired with the unit-disk rule (nodes at distance at most 1 hear each
other), and then un-wired wherever a link would pass through a wall.
Walls are pure radio obstructions: nodes may sit anywhere, links may not
touch a wall segment.

A world keeps its links as per-node lists, each wired when a router
first asks for it; the whole edge list and the Gabriel subgraph are
built only for whole-graph checks, dumps and face routing's rare long
walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COLLINEAR_EPS, Segment, Vec2

# Squared-distance slack for the "strictly inside the diameter disk" test
# of the Gabriel rule; keeps boundary nodes from flickering in and out.
GABRIEL_EPS = 1e-12

COMM_RADIUS = 1.0

# Slack on a distance for the boxes a search is confined to, far above
# rounding and far below any distance that matters.
_SLACK = 1e-6

# The radio range with that slack: the reach of near-wall boxes.
_REACH = COMM_RADIUS + _SLACK

# Nodes more than this off a wall's line, and along it from its ends,
# have their links across or beside it decided by their sides alone
# (_LocalLinks).
_SIDE_MARGIN = 1e-4

# Worlds whose coordinates all lie within this of the origin take the
# sorted Gabriel scan of _LocalLinks.gabriel, whose proof needs the
# rounding of a midpoint far below GABRIEL_EPS.
_SORTED_SCAN_SPAN = 2.0**10

# Most nodes deploy places. 10**7 positions take 160 MB; a density that
# asks for more is a typo, and numpy would die trying to allocate it.
MAX_NODES = 10**7

# Edge pairs find_planarity_violation tests at a time: a few tens of MB.
_PAIR_CHUNK = 1 << 18

# Grid cell indices are floor(coordinate * _CELL_SCALE): cells a hair
# wider than the radio range, so that no rounding in a coordinate
# difference puts two linked nodes more than one cell apart.
_CELL_SCALE = 1.0 - 2.0**-20


class UnknownObstacle(ValueError):
    """Obstacle name not in the built-in catalogue."""


@dataclass(frozen=True)
class Region:
    """Axis-aligned deployment rectangle."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("region must have positive extent on both axes")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class Obstacle:
    """A named set of radio-blocking wall segments."""

    name: str
    walls: tuple[Segment, ...]


def _seg(ax: float, ay: float, bx: float, by: float) -> Segment:
    return Segment(Vec2(ax, ay), Vec2(bx, by))


# Wall layouts are expressed in the standard experiment frame where the
# source sits near (0, 10) and the destination near (20, 10).
#
#   stripe    a single vertical wall between the endpoints
#   ushape    three walls forming a box open toward the source
#   concave1  the ushape with short lips angled inward at the mouth
#   concave2  the ushape with long lips leaving only a narrow throat
_CATALOGUE: dict[str, tuple[Segment, ...]] = {
    "none": (),
    "stripe": (_seg(10, 6.5, 10, 13.5),),
    "ushape": (
        _seg(6, 5, 14, 5),
        _seg(14, 5, 14, 15),
        _seg(6, 15, 14, 15),
    ),
    "concave1": (
        _seg(6, 5, 14, 5),
        _seg(14, 5, 14, 15),
        _seg(6, 15, 14, 15),
        _seg(6, 5, 6.5, 5.5),
        _seg(6, 15, 6.5, 14.5),
    ),
    "concave2": (
        _seg(6, 5, 14, 5),
        _seg(14, 5, 14, 15),
        _seg(6, 15, 14, 15),
        _seg(6, 5, 7.6, 7.4),
        _seg(6, 15, 7.6, 12.6),
    ),
}

OBSTACLE_NAMES = tuple(_CATALOGUE)


def make_obstacle(name: str) -> Obstacle:
    """Look up one of the built-in obstacle layouts by name."""
    try:
        walls = _CATALOGUE[name]
    except KeyError:
        raise UnknownObstacle(
            f"unknown obstacle {name!r}; expected one of {', '.join(OBSTACLE_NAMES)}"
        ) from None
    return Obstacle(name=name, walls=walls)


def _wall_terms(wall: Segment) -> tuple[float, float, float, float, float, float]:
    """(cx, cy, cdx, cdy, ex, ey): the wall's start c, its offset cd to
    the far end, and the far end e = c + cd, the floats _link_blocked
    and _side_codes test against."""
    cx, cy = float(wall.a.x), float(wall.a.y)
    cdx, cdy = float(wall.b.x - wall.a.x), float(wall.b.y - wall.a.y)
    return cx, cy, cdx, cdy, cx + cdx, cy + cdy


def _link_blocked(
    px: float, py: float, qx: float, qy: float, wall: tuple[float, ...]
) -> bool:
    """Whether the closed link p -> q touches the wall whose terms are
    _wall_terms(wall): a proper crossing by the four orientation signs
    (geometry.orient's tolerance), or a collinear endpoint of either
    segment inside the other's box grown by COLLINEAR_EPS, so endpoint
    contact and collinear overlap block. It is the one wall test; a pair
    of nodes is tested lower id first, since within COLLINEAR_EPS of a
    wall end the answer can depend on the order."""
    cx, cy, cdx, cdy, ex, ey = wall
    pqx, pqy = qx - px, qy - py
    eps = COLLINEAR_EPS
    c1 = pqx * (cy - py) - pqy * (cx - px)
    c2 = pqx * (ey - py) - pqy * (ex - px)
    c3 = cdx * (py - cy) - cdy * (px - cx)
    c4 = cdx * (qy - cy) - cdy * (qx - cx)
    s1 = (c1 > eps) - (c1 < -eps)
    s2 = (c2 > eps) - (c2 < -eps)
    s3 = (c3 > eps) - (c3 < -eps)
    s4 = (c4 > eps) - (c4 < -eps)
    if s1 * s2 < 0 and s3 * s4 < 0:
        return True
    return (
        (s1 == 0 and _within(px, py, qx, qy, cx, cy))
        or (s2 == 0 and _within(px, py, qx, qy, ex, ey))
        or (s3 == 0 and _within(cx, cy, ex, ey, px, py))
        or (s4 == 0 and _within(cx, cy, ex, ey, qx, qy))
    )


def _within(ax: float, ay: float, bx: float, by: float, x: float, y: float) -> bool:
    """Whether (x, y) lies in the box of a and b grown by COLLINEAR_EPS."""
    eps = COLLINEAR_EPS
    return (
        min(ax, bx) - eps <= x <= max(ax, bx) + eps
        and min(ay, by) - eps <= y <= max(ay, by) + eps
    )


def _in_range(dx, dy):
    """The unit-disk rule on coordinate differences, for floats or arrays.

    _pairs calls it for the whole world, and _LocalLinks.near writes
    the same expression out on plain floats, so the two never disagree.
    """
    return dx * dx + dy * dy <= COMM_RADIUS * COMM_RADIUS


def _gabriel_disks(
    pu: np.ndarray, pv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mids, radii, thresholds) of the diameter disks of the links
    pu[k] - pv[k], for _in_disk. Either end may come first: the floats
    are the same.

    Midpoint 0.5 * (u + v), radius 0.5 * sqrt(dx * dx + dy * dy) of the
    difference u - v, threshold radius * radius - GABRIEL_EPS: the same
    expressions _LocalLinks.gabriel writes out on plain floats, so the
    whole-graph filter and the per-node test decide every link alike.
    """
    mids = 0.5 * (pu + pv)
    dx, dy = (pu - pv).T
    radii = 0.5 * np.sqrt(dx * dx + dy * dy)
    return mids, radii, radii * radii - GABRIEL_EPS


def _in_disk(dx, dy, threshold):
    """The Gabriel rule's test of a node at (dx, dy) from a disk's centre:
    strictly inside, with the GABRIEL_EPS slack on squared distance, so a
    node exactly on the circle does not count.

    _gabriel_filter calls it on _gabriel_disks' floats, and
    _LocalLinks.gabriel writes both out on plain floats, so the two
    decide every Gabriel edge alike.
    """
    return dx * dx + dy * dy < threshold


def _grid(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The nodes bucketed by grid cell: (cell, order, starts, rows).

    Cells are a hair wider than the radio range (_CELL_SCALE) and a
    margin of empty cells surrounds the occupied ones, so a node's linked
    nodes all lie in its own cell and the eight around it, and those nine
    cells always exist. The grid spans the nodes' bounding box, cols by
    rows cells. cell[i] = column * rows + row is node i's cell, so each
    column's cells are one run of the grid order; order lists the nodes
    by cell, ascending by id within one, and the nodes of cell c are
    order[starts[c]:starts[c + 1]]. starts has an entry per cell of the
    bounding box, so it suits deployed worlds, whose nodes fill a region.
    """
    # Column by column: numpy reduces an (n, 2) array along its long
    # axis several times slower than two columns.
    cx = np.floor(positions[:, 0] * _CELL_SCALE).astype(np.int64)
    cy = np.floor(positions[:, 1] * _CELL_SCALE).astype(np.int64)
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    cols, rows = int(cx.max()) + 2, int(cy.max()) + 2
    cell = cx * rows + cy
    # numpy's stable sort of 16-bit keys is a radix sort: the same order,
    # several times faster than sorting the int64 ids.
    key = cell.astype(np.uint16) if cols * rows <= 1 << 16 else cell
    order = np.argsort(key, kind="stable")
    starts = np.zeros(cols * rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=cols * rows), out=starts[1:])
    return cell, order, starts, rows


def _pairs(positions: np.ndarray) -> np.ndarray:
    """(u, v), u < v, of every pair of nodes that _in_range links.

    Linked nodes share a grid cell or lie in adjacent ones. Each node is
    paired with the nodes after it in the grid order up to the end of the
    cell above its own, and with the three cells of the next column, so
    every pair of cells that touch is searched once.
    """
    if len(positions) < 2:
        return np.empty((0, 2), dtype=np.int64)
    cell, order, starts, rows = _grid(positions)
    c = cell[order]
    k = np.arange(len(order))
    lo = np.concatenate([k + 1, starts[c + rows - 1]])
    hi = np.concatenate([starts[c + 2], starts[c + rows + 2]])
    count = hi - lo
    first = np.repeat(np.concatenate([k, k]), count)
    second = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(len(first))
    # Positions in grid order keep the gathers close together.
    p = positions[order]
    x, y = p[:, 0], p[:, 1]
    linked = np.flatnonzero(_in_range(x[first] - x[second], y[first] - y[second]))
    u, v = order[first[linked]], order[second[linked]]
    return np.column_stack([np.minimum(u, v), np.maximum(u, v)])


def _near(positions: np.ndarray, wall: Segment) -> np.ndarray:
    """Mask of the nodes in the wall's bounding box grown by _REACH.

    Both endpoints of a link that touches the wall lie in it.
    """
    x, y = positions[:, 0], positions[:, 1]
    return (
        (x >= min(wall.a.x, wall.b.x) - _REACH)
        & (x <= max(wall.a.x, wall.b.x) + _REACH)
        & (y >= min(wall.a.y, wall.b.y) - _REACH)
        & (y <= max(wall.a.y, wall.b.y) + _REACH)
    )


def _side_codes(positions: np.ndarray, wall: Segment) -> tuple[np.ndarray, np.ndarray]:
    """(ids, codes): the nodes near the wall (_near), ascending, and
    their side codes for it, as _LocalLinks defines them."""
    m = _SIDE_MARGIN
    cx, cy, cdx, cdy = _wall_terms(wall)[:4]
    ids = np.flatnonzero(_near(positions, wall))
    dx, dy = positions[ids, 0] - cx, positions[ids, 1] - cy
    off = cdx * dy - cdy * dx
    along = cdx * dx + cdy * dy
    length2 = cdx * cdx + cdy * cdy
    length = math.sqrt(length2)
    side = np.where(np.abs(off) > m * max(length, 2 * m), np.sign(off), 0.0)
    inside = (along > m * length) & (along < length2 - m * length)
    return ids, (side * (1 + inside)).astype(np.int64)


class _LocalLinks:
    """What wiring one node of a world on demand needs: the nodes bucketed
    by grid cell (_grid), and per wall the side codes of the nodes near
    it (_side_codes). Walls are decided per wired node: no pass over the
    world's links is made.

    A node's code for a wall c -> d of length L comes from off, the
    wall test's own cross product cd x (node - c), which is L times the
    node's signed distance f from the wall's line. The code is 0 when
    |off| <= m * max(L, 2m), with m = _SIDE_MARGIN, so a nonzero code
    puts the node more than m off the line and makes |off| > 2m^2. It is
    otherwise the sign of off, doubled when the node's foot on the line
    also lies more than m inside both ends. A link between two nodes near
    the wall is settled by their codes a and b, in links() and in _wire
    alike, writing p, q for the link's ends and e = COLLINEAR_EPS:

    * a * b > 0, both strictly on one side: not blocked. The wall test's
      s3 and s4 are then one nonzero sign, so the link neither crosses
      the wall nor ends on it. Contact at a wall end, c say, needs s1 = 0
      and c in the link's box grown by e, which put c within
      sqrt(2) * (e + sqrt(e)) of the segment pq. f exceeds m on that
      segment and is 0 at c, and f changes no faster than distance.
    * a * b = -4, on opposite sides with both feet inside the ends by m:
      blocked. s3 * s4 < 0 as above. The link meets the wall's line at a
      point X between the two feet, so more than m from either end. With
      theta the angle between link and wall, |pq| sin(theta) =
      |f(p)| + |f(q)| > 2m, so s1's cross product pq x (c - p) =
      pq x (c - X) exceeds 2m^2 in size, and s2's has the other sign:
      a proper crossing.
    * Anything else gets the one-link test _link_blocked.

    The cross products these rules rest on exceed 2m^2 = 2e-8, far above
    e and any rounding, so they agree with _link_blocked. A partner
    outside the wall's near box is never blocked by it (_near).

    The coordinates are the world's own xs and ys lists, and the grid
    order is an int list, so wiring a node runs on plain Python values.
    The last node wired keeps its scan, the nodes in range with walls
    ignored, for the Gabriel test that usually follows it.
    """

    def __init__(self, world: World) -> None:
        positions, walls = world.positions, world.obstacle.walls
        self.xs, self.ys = world.xs, world.ys
        self.cell, order, starts, self.rows = _grid(positions)
        self.order = order.tolist()
        self.starts = starts.tolist()
        # Per wall, ({near node: code}, the wall's terms for _link_blocked).
        self.walls: list[tuple[dict[int, int], tuple[float, ...]]] = []
        for wall in walls:
            ids, codes = _side_codes(positions, wall)
            self.walls.append((dict(zip(ids.tolist(), codes.tolist())), _wall_terms(wall)))
        self.sorted_scan = float(np.abs(positions).max(initial=0.0)) <= _SORTED_SCAN_SPAN
        self.last, self.last_near = -1, []

    def block(self, node: int) -> list[int]:
        """The nodes in node's grid cell and the eight around it, node
        included."""
        c, r, s, order = int(self.cell[node]), self.rows, self.starts, self.order
        return (
            order[s[c - r - 1]:s[c - r + 2]]
            + order[s[c - 1]:s[c + 2]]
            + order[s[c + r - 1]:s[c + r + 2]]
        )

    def near(self, node: int) -> list[int]:
        """The nodes in radio range of node, walls ignored, ascending by
        id, node itself left out."""
        if node == self.last:
            return self.last_near
        xs, ys = self.xs, self.ys
        x, y = xs[node], ys[node]
        r2 = COMM_RADIUS * COMM_RADIUS
        # _in_range's expression, written out: a call per candidate would
        # cost more than the test.
        out = [
            v
            for v in self.block(node)
            if (dx := xs[v] - x) * dx + (dy := ys[v] - y) * dy <= r2
        ]
        out.sort()
        out.remove(node)
        self.last, self.last_near = node, out
        return out

    def links(self, node: int) -> list[int]:
        """The nodes linked to node, ascending by id."""
        out = self.near(node)
        for codes, wall in self.walls:
            a = codes.get(node)
            if a is not None:
                out = [
                    v
                    for v in out
                    if (b := codes.get(v)) is None
                    or a * b > 0
                    or (a * b != -4 and not self._exact(node, v, wall))
                ]
        return out

    def _exact(self, u: int, v: int, wall: tuple[float, ...]) -> bool:
        """_link_blocked for the link of u and v, oriented as _wire's
        pairs are: the smaller id first."""
        if v < u:
            u, v = v, u
        xs, ys = self.xs, self.ys
        return _link_blocked(xs[u], ys[u], xs[v], ys[v], wall)

    def gabriel(self, node: int, links: list[int]) -> list[int]:
        """The links of node, given ascending, that _gabriel_filter keeps.

        Walls are ignored. Each link node -> v is tested with _in_disk's
        expression on _gabriel_disks' floats, written out, against the
        nodes in range of node (near) in order of squared distance from
        node, up to the first witness or the first node farther than v
        by a relative margin of 1e-9.

        No witness lies past that point. Write u for node, m and r for
        the link's midpoint and radius, and D = 4r^2 = |uv|^2. For any
        point w, |wu|^2 + |wv|^2 = 2|wm|^2 + 2r^2. A node strictly inside
        the disk with the GABRIEL_EPS slack has |wm|^2 < r^2 - GABRIEL_EPS,
        so |wu|^2 < D - 2 * GABRIEL_EPS: it is nearer to u than v is, by
        2e-12 in squared distance. The floats stray from these exact
        values by a few units in the last place of the coordinates, most
        of it from rounding the midpoint 0.5 * (u + v): under 4e-13 for
        coordinates within _SORTED_SCAN_SPAN of the origin. So a
        witness's computed squared distance from u stays below v's: the
        witness is in range of u, as v is, and the scan meets it before
        it stops; the 1e-9 margin is more than the proof needs. Worlds
        reaching farther out test every node of node's block instead,
        which holds every node that can disqualify a link.
        """
        if not links:
            return []
        xs, ys = self.xs, self.ys
        x, y = xs[node], ys[node]
        sorted_scan = self.sorted_scan
        if sorted_scan:
            near = self.near(node)
        else:
            near = self.block(node)
            near.remove(node)
        ranked = sorted([((dx := xs[w] - x) * dx + (dy := ys[w] - y) * dy, w) for w in near])
        out = []
        for v in links:
            vx, vy = xs[v], ys[v]
            dx, dy = x - vx, y - vy
            length2 = dx * dx + dy * dy
            r = 0.5 * math.sqrt(length2)
            threshold = r * r - GABRIEL_EPS
            mx, my = 0.5 * (x + vx), 0.5 * (y + vy)
            stop = length2 * (1.0 + 1e-9) if sorted_scan else math.inf
            for d, w in ranked:
                if d > stop:
                    out.append(v)
                    break
                if (ex := xs[w] - mx) * ex + (ey := ys[w] - my) * ey < threshold and w != v:
                    break
            else:
                out.append(v)
        return out


class World:
    """One deployed network: node positions plus usable links.

    Per-node lists, ascending by id, are the world's one adjacency form.
    A world made by deploy wires them on demand. The first neighbors(i)
    call gathers the nodes in i's grid cell and the eight around it,
    keeps those the unit-disk rule links to i, drops i's wall-blocked
    partners, decided by the two ends' sides of each wall near i and,
    where those do not settle it, by the wall test for that one link,
    and caches the result; a router that visits a few hundred nodes of
    thousands wires only those, and no wall is tested against the links
    of the rest. Face routing's Gabriel links come the same way: the
    first gabriel_neighbors(i) call tests i's links against the nodes in
    range of i, nearest first. The whole-graph views are built on first
    use with the same rules: edges (_wire: the unit-disk rule on the
    grid's pairs, then the side codes and the wall test) and the Gabriel
    subgraph (_gabriel_filter: the disk test against the nodes in each
    disk's bounding box); a deployed world's lists stay on demand once
    they exist. A world built from an explicit edge list takes its neighbour
    lists from those edges and its Gabriel lists from gabriel_edges().
    xs and ys hold the positions' two columns as flat lists of Python
    floats, for the per-hop router loops and on-demand wiring: two
    lists, not one per node, so a world adds next to nothing for the
    garbage collector to track. Worlds compare and hash by identity.
    """

    def __init__(
        self,
        region: Region,
        obstacle: Obstacle,
        positions: np.ndarray,
        edges: np.ndarray | None = None,
    ) -> None:
        """edges, (u, v) rows, fixes the links; without it the world is
        wired by the deployment rule: distance <= 1, touching no wall.

        Raises ValueError, naming the row, for an edge with a node id
        outside 0..n-1, a self-loop or a link given twice.
        """
        n = len(positions)
        self.region = region
        self.obstacle = obstacle
        self.positions = positions
        self.xs = positions[:, 0].tolist()
        self.ys = positions[:, 1].tolist()
        self._edges = edges
        self._explicit = edges is not None
        self._gabriel_edges = self._local = None
        self._neighbors = [None] * n if edges is None else _lists(n, _checked(n, edges))
        self._gabriel = [None] * n
        self._gabriel_degrees = 0

    def __repr__(self) -> str:
        return (
            f"World(region={self.region!r}, obstacle={self.obstacle!r}, "
            f"positions={self.positions!r})"
        )

    @property
    def n(self) -> int:
        return len(self.positions)

    def pos(self, node: int) -> Vec2:
        return Vec2(self.xs[node], self.ys[node])

    def neighbors(self, node: int) -> list[int]:
        """The nodes linked to node, ascending by id.

        The list is cached and handed to every caller: do not change it.
        """
        nbrs = self._neighbors[node]
        if nbrs is None:
            nbrs = self._neighbors[node] = self._local_links().links(node)
        return nbrs

    def gabriel_neighbors(self, node: int) -> list[int]:
        """The nodes joined to node in the Gabriel subgraph, ascending by id.

        The list is cached and handed to every caller: do not change it.
        """
        nbrs = self._gabriel[node]
        if nbrs is None and self._explicit:
            self._gabriel = _lists(self.n, self.gabriel_edges())
            self._gabriel_degrees = 2 * len(self._gabriel_edges)
            nbrs = self._gabriel[node]
        elif nbrs is None:
            nbrs = self._gabriel[node] = self._local_links().gabriel(node, self.neighbors(node))
            self._gabriel_degrees += len(nbrs)
        return nbrs

    def gabriel_edge_floor(self) -> int:
        """A lower bound on the Gabriel edge count: half the degree sum of
        the nodes whose Gabriel lists are cached, rounded up, since each
        edge adds at most 2 to it."""
        return -(-self._gabriel_degrees // 2)

    def _local_links(self) -> _LocalLinks:
        if self._local is None:
            self._local = _LocalLinks(self)
        return self._local

    @property
    def edges(self) -> np.ndarray:
        """Every link once, as sorted (u, v) rows with u < v."""
        if self._edges is None:
            self._edges = _wire(self.positions, self.obstacle.walls)
        return self._edges

    def gabriel_edges(self) -> np.ndarray:
        """The rows of edges that the Gabriel rule keeps."""
        if self._gabriel_edges is None:
            self._gabriel_edges = _gabriel_filter(self.positions, self.edges)
        return self._gabriel_edges


def _checked(n: int, edges: np.ndarray) -> np.ndarray:
    """edges, after checking that each row links two distinct nodes of
    0..n-1 and that no link is given twice, in either order.

    Raises ValueError naming the first bad row.
    """
    seen: dict[tuple[int, int], int] = {}
    for k, (u, v) in enumerate(edges.tolist()):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge row {k} ({u}, {v}): node ids must lie in 0..{n - 1}")
        if u == v:
            raise ValueError(f"edge row {k} ({u}, {v}): a node cannot link to itself")
        first = seen.setdefault((min(u, v), max(u, v)), k)
        if first != k:
            raise ValueError(f"edge row {k} ({u}, {v}): repeats the link of row {first}")
    return edges


def _lists(n: int, edges: np.ndarray) -> list[list[int]]:
    """Per-node lists of an undirected edge list, each ascending by id."""
    lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        lists[u].append(v)
        lists[v].append(u)
    for nbrs in lists:
        nbrs.sort()
    return lists


def _gabriel_filter(positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Keep the edges whose diameter disk contains no third node (_in_disk).

    Any node inside the disk counts, neighbour or not. The nodes are
    sorted by column, columns as wide as grid cells (_grid), and by y
    within one. Each edge is tested against the nodes of each column
    that meets its disk's bounding box grown by _SLACK, clamped to the
    nodes' columns, whose y lies in the box too: one run of that order
    per column, found in keys of column and y rank. That holds every
    node inside the disk: 1 or 2 columns for a link no longer than the
    radio range, and more for the longer links of a world built from
    explicit edges. Memory grows with the node and edge counts, not with
    the area the nodes span. The (edge, node) tests are made about
    _PAIR_CHUNK at a time.
    """
    m, n = len(edges), len(positions)
    if m == 0:
        return edges.copy()
    mids, radii, threshold = _gabriel_disks(positions[edges[:, 0]], positions[edges[:, 1]])
    reach = radii + _SLACK
    # Node i's key is its column times n plus its rank by y.
    origin = np.floor(positions[:, 0].min() * _CELL_SCALE)
    col = (np.floor(positions[:, 0] * _CELL_SCALE) - origin).astype(np.int64)
    by_y = np.argsort(positions[:, 1])
    rank = np.empty(n, dtype=np.int64)
    rank[by_y] = np.arange(n)
    key = col * n + rank
    order = np.argsort(key)
    keys = key[order]
    # Each box's columns, and the y ranks of its bottom and top.
    lo = np.floor((mids[:, 0] - reach) * _CELL_SCALE) - origin
    hi = np.floor((mids[:, 0] + reach) * _CELL_SCALE) - origin
    lo = np.maximum(lo, 0).astype(np.int64)
    hi = np.minimum(hi, col.max()).astype(np.int64)
    ys = positions[by_y, 1]
    bottom = np.searchsorted(ys, mids[:, 1] - reach)
    top = np.searchsorted(ys, mids[:, 1] + reach, side="right")
    # One run of the order per column of each box: its edge, first place
    # and length, and the edge's disk.
    span = hi - lo + 1
    edge = np.repeat(np.arange(m), span)
    base = (lo[edge] + np.arange(len(edge)) - np.repeat(np.cumsum(span) - span, span)) * n
    first = np.searchsorted(keys, base + bottom[edge])
    count = np.searchsorted(keys, base + top[edge]) - first
    mx, my, limit = mids[edge, 0], mids[edge, 1], threshold[edge]
    # Test t, counted over all runs, of run k is of the node at place
    # t + shift[k] of the order; positions in that order put each run's
    # nodes side by side.
    done = np.cumsum(count)
    shift = first - (done - count)
    p = positions[order]
    x, y = p[:, 0], p[:, 1]
    keep = np.ones(m, dtype=bool)
    a = 0
    while a < len(count):
        b = max(a + 1, int(np.searchsorted(done, done[a] - count[a] + _PAIR_CHUNK, side="right")))
        r = np.repeat(np.arange(a, b), count[a:b])
        at = np.arange(done[a] - count[a], done[b - 1]) + shift[r]
        inside = np.flatnonzero(_in_disk(x[at] - mx[r], y[at] - my[r], limit[r]))
        # Only a node inside the disk can be an endpoint to skip.
        e, w = edge[r[inside]], order[at[inside]]
        keep[e[(w != edges[e, 0]) & (w != edges[e, 1])]] = False
        a = b
    return edges[keep]


def node_count(density: float, region: Region) -> int:
    """round(density * area), the number of nodes deploy drops.

    Raises ValueError for a density that is not finite and nonnegative,
    or that would drop more than MAX_NODES nodes.
    """
    if not (math.isfinite(density) and density >= 0):
        raise ValueError(f"density must be finite and nonnegative, got {density}")
    count = density * region.area
    if count > MAX_NODES + 0.5:  # round(count) > MAX_NODES, inf included
        raise ValueError(
            f"density {density:g} would drop {count:.4g} nodes on an area of "
            f"{region.area:g}; at most {MAX_NODES} are allowed"
        )
    return int(round(count))


def deploy(
    density: float,
    region: Region,
    obstacle: Obstacle,
    rng_seed,
) -> World:
    """Drop round(density * area) nodes uniformly into region.

    rng_seed may be an integer, a numpy SeedSequence, or a prepared
    Generator; identical seeds give byte-identical worlds. Links join
    every pair at distance <= 1 whose segment touches no wall; the world
    wires them on demand.
    """
    n = node_count(density, region)
    if isinstance(rng_seed, np.random.Generator):
        rng = rng_seed
    else:
        rng = np.random.Generator(np.random.Philox(rng_seed))
    positions = rng.uniform(
        low=(region.x_min, region.y_min),
        high=(region.x_max, region.y_max),
        size=(n, 2),
    )
    return World(region, obstacle, positions)


def _wire(positions: np.ndarray, walls: tuple[Segment, ...]) -> np.ndarray:
    """Sorted (u, v), u < v, of every pair at distance <= 1 touching no wall.

    Walls are decided as on-demand wiring decides them (_LocalLinks): a
    pair of nodes both near a wall is settled by their side codes where
    those settle it, and by _link_blocked otherwise.
    """
    n = len(positions)
    pairs = _pairs(positions)
    keep = np.ones(len(pairs), dtype=bool)
    code = np.zeros(n, dtype=np.int64)
    for wall in walls:
        ids, codes = _side_codes(positions, wall)
        near = np.zeros(n, dtype=bool)
        near[ids] = True
        code[ids] = codes
        k = np.flatnonzero(keep & near[pairs[:, 0]] & near[pairs[:, 1]])
        ab = code[pairs[k, 0]] * code[pairs[k, 1]]
        keep[k[ab == -4]] = False
        exact = k[(ab <= 0) & (ab != -4)]
        ends = np.column_stack([positions[pairs[exact, 0]], positions[pairs[exact, 1]]])
        terms = _wall_terms(wall)
        keep[exact] = [not _link_blocked(*e, terms) for e in ends.tolist()]
    pairs = pairs[keep]
    # Canonical (u, v) ordering keeps serialization reproducible: one sort
    # of the keys u * n + v.
    key = np.sort(pairs[:, 0] * n + pairs[:, 1])
    u = key // n
    return np.column_stack([u, key - u * n])


def interior_mean_degree(world: World) -> float:
    """Mean out-degree over nodes at least one radio radius from the border.

    Interior nodes see the full communication disk, so with no obstacle
    their expected degree is pi * density. Returns nan when no node
    qualifies.
    """
    r, x, y = world.region, world.positions[:, 0], world.positions[:, 1]
    border = np.minimum.reduce([x - r.x_min, r.x_max - x, y - r.y_min, r.y_max - y])
    degree = np.bincount(world.edges.ravel(), minlength=world.n)
    interior = degree[border >= COMM_RADIUS]
    if len(interior) == 0:
        return float("nan")
    return float(np.mean(interior))


def is_connected(world: World) -> bool:
    """Whether the world's graph has a single component: a search from
    node 0 over the neighbour lists reaches every node."""
    if world.n == 0:
        return True
    seen = [False] * world.n
    seen[0] = True
    stack = [0]
    while stack:
        for v in world.neighbors(stack.pop()):
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def _orient_signs(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """geometry.orient over rows: sign of (b - a) x (c - a), with its
    collinearity tolerance."""
    bx, by = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    cross = bx * (c[:, 1] - a[:, 1]) - by * (c[:, 0] - a[:, 0])
    return (cross > COLLINEAR_EPS).astype(np.int8) - (cross < -COLLINEAR_EPS)


def _cross_interior(
    positions: np.ndarray, edges: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> np.ndarray:
    """Whether the open segments of each edge pair (e1[k], e2[k]) cross
    or overlap; False for pairs sharing a vertex. Four collinear points
    (degenerate layouts only) are projected on the first segment's main
    axis, x on a tie, and count when the two extents overlap by more
    than COLLINEAR_EPS, so touching tips do not."""
    (ia, ib), (ic, id_) = edges[e1].T, edges[e2].T
    apart = (ia != ic) & (ia != id_) & (ib != ic) & (ib != id_)
    a, b, c, d = (positions[i] for i in (ia, ib, ic, id_))
    o1, o2 = _orient_signs(a, b, c), _orient_signs(a, b, d)
    o3, o4 = _orient_signs(c, d, a), _orient_signs(c, d, b)
    hit = apart & (o1 * o2 < 0) & (o3 * o4 < 0)
    flat = np.flatnonzero(apart & (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0))
    ab = np.abs(b[flat] - a[flat])
    axis = (ab[:, 0] < ab[:, 1]).astype(np.intp)
    pa, pb, pc, pd = (p[flat, axis] for p in (a, b, c, d))
    lo = np.maximum(np.minimum(pa, pb), np.minimum(pc, pd))
    hi = np.minimum(np.maximum(pa, pb), np.maximum(pc, pd))
    hit[flat] = hi - lo > COLLINEAR_EPS
    return hit


def find_planarity_violation(
    positions: np.ndarray, edges: np.ndarray
) -> tuple[int, int] | None:
    """Search an embedded edge set for two edges whose interiors cross.

    Returns the smallest pair (e1, e2), e1 < e2, of edge indices whose
    open segments cross or overlap (_cross_interior), or None if the
    embedding is planar. Edges sharing a vertex are allowed to touch
    there. Only edges whose bounding boxes share a unit cell are
    compared, which two edges meeting at a point always do. The pairs
    are tested about _PAIR_CHUNK at a time, so the memory taken stays
    bounded even on a dense non-planar edge set.
    """
    m = len(edges)
    if m < 2:
        return None
    pa, pb = positions[edges[:, 0]], positions[edges[:, 1]]
    lo = np.floor(np.minimum(pa, pb)).astype(np.int64)
    span = np.floor(np.maximum(pa, pb)).astype(np.int64) - lo + 1
    # One (cell, edge) entry per unit cell of each edge's bounding box,
    # grouped by cell with the edges ascending in each group.
    count = span[:, 0] * span[:, 1]
    edge = np.repeat(np.arange(m), count)
    k = np.arange(len(edge)) - np.repeat(np.cumsum(count) - count, count)
    cx, cy = lo[edge, 0] + k // span[edge, 1], lo[edge, 1] + k % span[edge, 1]
    cell = (cx - cx.min()) * (cy.max() - cy.min() + 1) + (cy - cy.min())
    order = np.argsort(cell, kind="stable")
    edge, cell = edge[order], cell[order]
    # Each entry pairs with the later, higher-id entries of its cell; a
    # chunk is a run of entries whose pairs number about _PAIR_CHUNK.
    later = np.searchsorted(cell, cell, side="right") - np.arange(len(cell)) - 1
    done = np.cumsum(later)
    best = None
    lo = 0
    while lo < len(cell):
        end = done[lo] - later[lo] + _PAIR_CHUNK
        hi = max(lo + 1, int(np.searchsorted(done, end, side="right")))
        count = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), count)
        skip = np.repeat(np.cumsum(count) - count, count)
        e1, e2 = edge[first], edge[first + 1 + np.arange(len(first)) - skip]
        hit = np.flatnonzero(_cross_interior(positions, edges, e1, e2))
        if len(hit):
            key = int((e1[hit] * m + e2[hit]).min())
            best = key if best is None else min(best, key)
        lo = hi
    return None if best is None else divmod(best, m)


def world_to_text(world: World) -> str:
    """Serialize nodes and links to the plain 'worldv1' text format.

    Line 1 is the literal header. Node lines are 'id x y' with full float
    repr; link lines are 'u v' with u < v. The format carries only the
    graph, not the region or obstacle.
    """
    lines = ["worldv1"]
    for i in range(world.n):
        x, y = world.positions[i]
        lines.append(f"{i} {float(x)!r} {float(y)!r}")
    for u, v in world.edges:
        lines.append(f"{int(u)} {int(v)}")
    return "\n".join(lines) + "\n"


def parse_world_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a 'worldv1' dump back into (positions, edges) arrays.

    Raises ValueError for a malformed dump and, naming the row, for a
    non-finite coordinate, a link off 0..n-1, a self-loop or a repeat.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "worldv1":
        raise ValueError("not a worldv1 dump: missing header")
    node_rows: list[tuple[int, float, float]] = []
    edge_rows: list[tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 3:
            node_rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
            if not all(map(math.isfinite, node_rows[-1][1:])):
                raise ValueError(f"non-finite coordinate in worldv1 line: {ln!r}")
        elif len(parts) == 2:
            edge_rows.append((int(parts[0]), int(parts[1])))
        else:
            raise ValueError(f"unparseable worldv1 line: {ln!r}")
    node_rows.sort()
    if [i for i, _, _ in node_rows] != list(range(len(node_rows))):
        raise ValueError("worldv1 node ids must be 0..n-1")
    positions = np.array([[x, y] for _, x, y in node_rows], dtype=float).reshape(
        len(node_rows), 2
    )
    edges = np.array(edge_rows, dtype=np.int64).reshape(len(edge_rows), 2)
    return positions, _checked(len(positions), edges)
