"""Random sensor-network worlds.

A world is a batch of nodes dropped uniformly at random into a rectangle,
wired with the unit-disk rule (nodes at distance at most 1 hear each
other), and then un-wired wherever a link would pass through a wall.
Walls are pure radio obstructions: nodes may sit anywhere, links may not
touch a wall segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import COLLINEAR_EPS, Segment, Vec2, segments_cross_interior

# Squared-distance slack for the "strictly inside the diameter disk" test
# of the Gabriel rule; keeps boundary nodes from flickering in and out.
GABRIEL_EPS = 1e-12

# Squared-distance band above the Gabriel threshold inside which the
# nearest-node test is not trusted and the whole disk is searched.
_GABRIEL_TIE = 1e-9

COMM_RADIUS = 1.0

# Slack on the radio range for near-wall boxes, far above rounding and
# far below any distance that matters.
_REACH = COMM_RADIUS + 1e-6

# Nodes more than this off a wall's line, and along it from its ends,
# have their links across or beside it decided by their sides alone
# (_LocalLinks).
_SIDE_MARGIN = 1e-4

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

    def contains(self, p: Vec2) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max

    def border_distance(self, p: Vec2) -> float:
        """Distance from p to the nearest side; negative outside the box."""
        return min(
            p.x - self.x_min,
            self.x_max - p.x,
            p.y - self.y_min,
            self.y_max - p.y,
        )


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


def _sign_eps(x: np.ndarray) -> np.ndarray:
    """Orientation sign with the collinearity tolerance applied."""
    s = np.zeros(x.shape, dtype=np.int8)
    s[x > COLLINEAR_EPS] = 1
    s[x < -COLLINEAR_EPS] = -1
    return s


def _links_blocked_by_wall(
    p: np.ndarray, q: np.ndarray, c: Vec2, d: Vec2
) -> np.ndarray:
    """Vectorized closed-segment intersection of many links with one wall.

    p and q are (m, 2) arrays of link endpoints. Mirrors the scalar
    predicate in geometry.segments_properly_intersect, endpoint contact
    and collinear overlap included.
    """
    cd = np.array([d.x - c.x, d.y - c.y])
    cp = np.array([c.x, c.y])
    pq = q - p

    def cross(v: np.ndarray, w: np.ndarray) -> np.ndarray:
        return v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]

    s1 = _sign_eps(cross(pq, cp - p))                    # wall start vs link
    s2 = _sign_eps(cross(pq, (cp + cd) - p))             # wall end vs link
    s3 = _sign_eps(cd[0] * (p[:, 1] - c.y) - cd[1] * (p[:, 0] - c.x))
    s4 = _sign_eps(cd[0] * (q[:, 1] - c.y) - cd[1] * (q[:, 0] - c.x))

    proper = (s1 * s2 < 0) & (s3 * s4 < 0)
    # Contact needs a zero sign, which few links have: only their rows
    # get the bounding-box tests.
    k = np.flatnonzero((s1 == 0) | (s2 == 0) | (s3 == 0) | (s4 == 0))
    p, q, s1, s2, s3, s4 = p[k], q[k], s1[k], s2[k], s3[k], s4[k]

    def within(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        lo = np.minimum(a, b) - COLLINEAR_EPS
        hi = np.maximum(a, b) + COLLINEAR_EPS
        return (lo[:, 0] <= x[:, 0]) & (x[:, 0] <= hi[:, 0]) & (
            lo[:, 1] <= x[:, 1]
        ) & (x[:, 1] <= hi[:, 1])

    cpt = np.broadcast_to(cp, p.shape)
    dpt = np.broadcast_to(cp + cd, p.shape)
    touch = (
        ((s1 == 0) & within(p, q, cpt))
        | ((s2 == 0) & within(p, q, dpt))
        | ((s3 == 0) & within(cpt, dpt, p))
        | ((s4 == 0) & within(cpt, dpt, q))
    )
    proper[k] |= touch
    return proper


def _wall_terms(wall: Segment) -> tuple[float, float, float, float, float, float]:
    """(cx, cy, cdx, cdy, ex, ey): the wall's start c, its offset cd to
    the far end, and the far end e = c + cd, as _links_blocked_by_wall
    computes them."""
    cx, cy = float(wall.a.x), float(wall.a.y)
    cdx, cdy = float(wall.b.x - wall.a.x), float(wall.b.y - wall.a.y)
    return cx, cy, cdx, cdy, cx + cdx, cy + cdy


def _link_blocked(
    px: float, py: float, qx: float, qy: float, wall: tuple[float, ...]
) -> bool:
    """_links_blocked_by_wall for the one link p -> q, with its float
    expressions; wall is _wall_terms(wall)."""
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


def _adjacency(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR form (indptr, indices) of an undirected edge list.

    The neighbours of node i are indices[indptr[i]:indptr[i + 1]], in
    ascending id order.
    """
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    # One sort of the keys src * n + dst orders the directed links by
    # source, then destination; each key less its source's share is the
    # destination.
    degree = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.sort(src * n + dst) - np.repeat(np.arange(n, dtype=np.int64) * n, degree)
    return indptr, indices


def _in_range(dx, dy):
    """The unit-disk rule on coordinate differences, for floats or arrays.

    Every link, whether wired for the whole world or for one node, is
    decided by this one expression, so the two can never disagree.
    """
    return dx * dx + dy * dy <= COMM_RADIUS * COMM_RADIUS


def _grid(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The nodes bucketed by grid cell: (cell, order, starts, rows).

    Cells are a hair wider than the radio range (_CELL_SCALE) and a
    margin of empty cells surrounds the occupied ones, so a node's linked
    nodes all lie in its own cell and the eight around it, and those nine
    cells always exist. cell[i] = column * rows + row is node i's cell, so
    each column's cells are one run of the grid order; order lists the
    nodes by cell, ascending by id within one, and the nodes of cell c
    are order[starts[c]:starts[c + 1]]. The grid spans the nodes'
    bounding box.
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


def _blocked(
    positions: np.ndarray, pairs: np.ndarray, walls: tuple[Segment, ...]
) -> np.ndarray:
    """Mask of the pairs (u, v) whose segment touches a wall.

    Only the pairs whose u lies near a wall get that wall's exact test.
    """
    blocked = np.zeros(len(pairs), dtype=bool)
    for wall in walls:
        tested = np.flatnonzero(_near(positions, wall)[pairs[:, 0]] & ~blocked)
        blocked[tested] = _links_blocked_by_wall(
            positions[pairs[tested, 0]], positions[pairs[tested, 1]], wall.a, wall.b
        )
    return blocked


class _LocalLinks:
    """What wiring one node of a world on demand needs: the nodes bucketed
    by grid cell (_grid), and per wall the side codes of the nodes near
    it (_near). Walls are decided per wired node: no pass over the
    world's links is made.

    A node's code for a wall c -> d of length L comes from off, the
    wall test's own cross product cd x (node - c), which is L times the
    node's signed distance f from the wall's line. The code is 0 when
    |off| <= m * max(L, 2m), with m = _SIDE_MARGIN, so a nonzero code
    puts the node more than m off the line and makes |off| > 2m^2. It is
    otherwise the sign of off, doubled when the node's foot on the line
    also lies more than m inside both ends. links() settles a link to a
    partner near the wall by the two codes a and b, writing p, q for the
    link's ends and e = COLLINEAR_EPS:

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
    e and any rounding, so they agree with _links_blocked_by_wall. A
    partner outside the wall's near box is never blocked by it (_near).

    The coordinates are the world's own xs and ys lists, and the grid
    order is an int list, so wiring a node runs on plain Python values.
    """

    def __init__(self, world: World) -> None:
        positions, walls = world.positions, world.obstacle.walls
        self.positions, self.xs, self.ys = positions, world.xs, world.ys
        self.cell, order, starts, self.rows = _grid(positions)
        self.order = order.tolist()
        self.starts = starts.tolist()
        # Per wall, ({near node: code}, the wall's terms for _link_blocked).
        self.walls: list[tuple[dict[int, int], tuple[float, ...]]] = []
        m = _SIDE_MARGIN
        for wall in walls:
            terms = _wall_terms(wall)
            cx, cy, cdx, cdy = terms[:4]
            ids = np.flatnonzero(_near(positions, wall))
            dx, dy = positions[ids, 0] - cx, positions[ids, 1] - cy
            off = cdx * dy - cdy * dx
            along = cdx * dx + cdy * dy
            length2 = cdx * cdx + cdy * cdy
            length = math.sqrt(length2)
            side = np.where(np.abs(off) > m * max(length, 2 * m), np.sign(off), 0.0)
            inside = (along > m * length) & (along < length2 - m * length)
            code = (side * (1 + inside)).astype(np.int64)
            self.walls.append((dict(zip(ids.tolist(), code.tolist())), terms))

    def block(self, node: int) -> list[int]:
        """The nodes in node's grid cell and the eight around it, node
        included."""
        c, r, s, order = int(self.cell[node]), self.rows, self.starts, self.order
        return (
            order[s[c - r - 1]:s[c - r + 2]]
            + order[s[c - 1]:s[c + 2]]
            + order[s[c + r - 1]:s[c + r + 2]]
        )

    def links(self, node: int) -> list[int]:
        """The nodes linked to node, ascending by id."""
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

        Walls are ignored, and each link is tested with the filter's own
        float expressions against every node of node's block. A node
        inside a link's diameter disk is nearer to both ends than they are
        to each other, so within radio range of node: the block holds
        every node that can disqualify the link.
        """
        if not links:
            return []
        p = self.positions
        other = np.array(links)
        pu, pv = p[np.minimum(other, node)], p[np.maximum(other, node)]
        mids = 0.5 * (pu + pv)
        diffs = pu - pv
        radii = 0.5 * np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        threshold = radii * radii - GABRIEL_EPS
        w = np.array(self.block(node))
        dx = p[w, 0] - mids[:, 0:1]
        dy = p[w, 1] - mids[:, 1:2]
        inside = (dx * dx + dy * dy < threshold[:, None]) & (w != node) & (w != other[:, None])
        return [v for v, hit in zip(links, inside.any(axis=1).tolist()) if not hit]


@dataclass(init=False)
class World:
    """One deployed network: node positions plus usable links.

    A world made by deploy wires its links on demand. The first
    neighbors(i) call gathers the nodes in i's grid cell and the eight
    around it, keeps those the unit-disk rule links to i, drops i's
    wall-blocked partners, decided by the two ends' sides of each wall
    near i and, where those do not settle it, by the wall test for that
    one link, and caches the result; a router that visits a few hundred
    nodes of thousands wires only those, and no wall is tested against
    the links of the rest. Face routing's
    Gabriel links come the same way: the first gabriel_neighbors(i) call
    tests i's links against the nodes of the same nine cells. The
    whole-graph views are built on first use by the batch code: edges
    (_wire), the CSR arrays indptr and indices (_adjacency), where the
    neighbours of node i are indices[indptr[i]:indptr[i + 1]], and the
    Gabriel subgraph (_gabriel_filter). A world built from an explicit
    edge list, and a deployed world once its edges exist, serve both
    kinds of list from CSR slices; both ways give the same ascending-id
    lists. xs and ys hold the positions' two columns as flat lists of
    Python floats, for the per-hop router loops and on-demand wiring:
    two lists, not one per node, so a world adds next to nothing for
    the garbage collector to track.
    """

    region: Region
    obstacle: Obstacle
    positions: np.ndarray
    xs: list[float] = field(repr=False)
    ys: list[float] = field(repr=False)
    _edges: np.ndarray | None = field(default=None, repr=False)
    _csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _gabriel_edges: np.ndarray | None = field(default=None, repr=False)
    _gabriel_csr: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _local: _LocalLinks | None = field(default=None, repr=False)
    _neighbors: list[list[int] | None] = field(repr=False)
    _gabriel: list[list[int] | None] = field(repr=False)
    _gabriel_degrees: int = field(default=0, repr=False)

    def __init__(
        self,
        region: Region,
        obstacle: Obstacle,
        positions: np.ndarray,
        edges: np.ndarray | None = None,
    ) -> None:
        """edges, (u, v) rows, fixes the links; without it the world is
        wired by the deployment rule: distance <= 1, touching no wall."""
        self.region = region
        self.obstacle = obstacle
        self.positions = positions
        self.xs = positions[:, 0].tolist()
        self.ys = positions[:, 1].tolist()
        self._edges = edges
        self._csr = self._gabriel_edges = self._gabriel_csr = self._local = None
        self._neighbors = [None] * len(positions)
        self._gabriel = [None] * len(positions)
        self._gabriel_degrees = 0

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
            if self._edges is None:
                nbrs = self._local_links().links(node)
            else:
                indptr, indices = self.csr
                nbrs = indices[indptr[node]:indptr[node + 1]].tolist()
            self._neighbors[node] = nbrs
        return nbrs

    def gabriel_neighbors(self, node: int) -> list[int]:
        """The nodes joined to node in the Gabriel subgraph, ascending by id.

        The list is cached and handed to every caller: do not change it.
        """
        nbrs = self._gabriel[node]
        if nbrs is None:
            if self._edges is None:
                nbrs = self._local_links().gabriel(node, self.neighbors(node))
            else:
                indptr, indices = self.gabriel_csr
                nbrs = indices[indptr[node]:indptr[node + 1]].tolist()
            self._gabriel[node] = nbrs
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

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the whole graph."""
        if self._csr is None:
            self._csr = _adjacency(self.n, self.edges)
        return self._csr

    @property
    def indptr(self) -> np.ndarray:
        return self.csr[0]

    @property
    def indices(self) -> np.ndarray:
        return self.csr[1]

    def gabriel_edges(self) -> np.ndarray:
        if self._gabriel_edges is None:
            self._gabriel_edges = _gabriel_filter(self.positions, self.edges)
        return self._gabriel_edges

    @property
    def gabriel_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the Gabriel subgraph."""
        if self._gabriel_csr is None:
            self._gabriel_csr = _adjacency(self.n, self.gabriel_edges())
        return self._gabriel_csr


def _gabriel_filter(positions: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Keep the edges whose diameter disk contains no third node.

    "Contains" is strict interior with the GABRIEL_EPS slack on squared
    distance, so a node sitting exactly on the circle does not disqualify
    the edge. Any node inside the disk counts, neighbor or not, and the
    disk holds one exactly when it holds the node nearest its center that
    is neither endpoint, so one kd-tree query per edge decides it. When
    the node nearest the center is an endpoint, every third node lies at
    least the radius away up to rounding, far below GABRIEL_EPS, and the
    edge is kept. Otherwise that node is tested: one found inside settles
    the edge. One found less than _GABRIEL_TIE outside does not: a
    kd-tree whose distances round differently from this test may have
    ranked a node inside behind it, so every node in the disk is tested.
    """
    from scipy.spatial import cKDTree  # only whole-graph views need scipy

    if len(edges) == 0:
        return edges.copy()
    tree = cKDTree(positions)
    pu = positions[edges[:, 0]]
    pv = positions[edges[:, 1]]
    mids = 0.5 * (pu + pv)
    diffs = pu - pv
    radii = 0.5 * np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    _, w = tree.query(mids, k=1)
    third = (w != edges[:, 0]) & (w != edges[:, 1])
    dx = positions[w, 0] - mids[:, 0]
    dy = positions[w, 1] - mids[:, 1]
    d2 = dx * dx + dy * dy
    threshold = radii * radii - GABRIEL_EPS
    keep = ~(third & (d2 < threshold))
    tie = np.flatnonzero(third & keep & (d2 - threshold < _GABRIEL_TIE))
    for k, candidates in zip(tie, tree.query_ball_point(mids[tie], radii[tie])):
        u, v = edges[k]
        r2 = radii[k] * radii[k]
        for w in candidates:
            if w == u or w == v:
                continue
            dx = positions[w, 0] - mids[k, 0]
            dy = positions[w, 1] - mids[k, 1]
            if dx * dx + dy * dy < r2 - GABRIEL_EPS:
                keep[k] = False
                break
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
    """Sorted (u, v), u < v, of every pair at distance <= 1 touching no wall."""
    n = len(positions)
    pairs = _pairs(positions)
    pairs = pairs[~_blocked(positions, pairs, walls)]
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
    interior = np.diff(world.indptr)[border >= COMM_RADIUS]
    if len(interior) == 0:
        return float("nan")
    return float(np.mean(interior))


def is_connected(n: int, csr: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the graph with CSR adjacency (indptr, indices) has a single
    component."""
    if n == 0:
        return True
    indptr, indices = csr
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        nbrs = indices[indptr[u]:indptr[u + 1]]
        nbrs = nbrs[~seen[nbrs]]
        seen[nbrs] = True
        stack.extend(nbrs.tolist())
    return bool(seen.all())


def _orient_signs(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """geometry.orient over rows: sign of (b - a) x (c - a), with its
    collinearity tolerance."""
    bx, by = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    return _sign_eps(bx * (c[:, 1] - a[:, 1]) - by * (c[:, 0] - a[:, 0]))


def _cross_interior(
    positions: np.ndarray, edges: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> np.ndarray:
    """geometry.segments_cross_interior for each edge pair (e1[k], e2[k]),
    False for pairs sharing a vertex."""
    (ia, ib), (ic, id_) = edges[e1].T, edges[e2].T
    apart = (ia != ic) & (ia != id_) & (ib != ic) & (ib != id_)
    a, b, c, d = (positions[i] for i in (ia, ib, ic, id_))
    o1, o2 = _orient_signs(a, b, c), _orient_signs(a, b, d)
    o3, o4 = _orient_signs(c, d, a), _orient_signs(c, d, b)
    hit = apart & (o1 * o2 < 0) & (o3 * o4 < 0)
    # Four collinear points, which only degenerate layouts have: the
    # scalar rule decides whether the two segments overlap.
    for k in np.flatnonzero(apart & (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)):
        hit[k] = segments_cross_interior(*(Vec2(*p[k]) for p in (a, b, c, d)))
    return hit


def find_planarity_violation(
    positions: np.ndarray, edges: np.ndarray
) -> tuple[int, int] | None:
    """Search an embedded edge set for two edges whose interiors cross.

    Returns the smallest pair (e1, e2), e1 < e2, of edge indices whose
    open segments cross or overlap (geometry.segments_cross_interior),
    or None if the embedding is planar. Edges sharing a vertex are
    allowed to touch there. Only edges whose bounding boxes share a unit
    cell are compared, which two edges meeting at a point always do. The
    pairs are tested about _PAIR_CHUNK at a time, so the memory taken
    stays bounded even on a dense non-planar edge set.
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
    """Read a 'worldv1' dump back into (positions, edges) arrays."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "worldv1":
        raise ValueError("not a worldv1 dump: missing header")
    node_rows: list[tuple[int, float, float]] = []
    edge_rows: list[tuple[int, int]] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) == 3:
            node_rows.append((int(parts[0]), float(parts[1]), float(parts[2])))
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
    return positions, edges
