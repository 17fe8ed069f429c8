"""Weighted-graph neighbor oracles, metric balls, regions and cutoffs.

Infinite graphs are represented by a neighbor oracle ``x -> [(y, w), ...]``
and are never materialized globally; only combinatorial balls are turned
into concrete :class:`Region` objects.  Vertex ids are hashable values with
a per-generator total order (integer coordinate tuples for lattices and
products, file insertion order for custom graphs), which fixes every
summation order and makes runs bitwise reproducible.

Degrees are always those of the full graph, so boundary vertices of a
truncated region carry the same weighted degree ``d_w(x)`` as in the
infinite graph.

On ``Z^N`` a ball is the l1 ball, enumerated in closed form with numpy;
it keeps its integer coordinates, from which its edge arrays are found by
integer-key lookup.  Both follow the generator's sorted table of unit
offsets, which also orders the oracle's neighbor lists.  The ring BFS
serves products, custom graphs and distance queries, and every other
region takes the oracle loop for its edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

import numpy as np


class UnknownVertexError(ValueError):
    """Raised when a vertex id is not valid for the generator."""


class GraphError(ValueError):
    """Raised for malformed graph descriptions (asymmetry, self loops, ...)."""


class GraphGenerator:
    """Lazily enumerable weighted graph given by a neighbor oracle.

    Parameters
    ----------
    neighbor_fn : callable
        Maps a vertex id to a list of ``(neighbor, weight)`` pairs in a
        deterministic order.  Weights must be strictly positive and
        symmetric; the oracle must raise :class:`UnknownVertexError` for
        ids outside the vertex set.
    name : str
        Descriptive name, used in reports.
    dimension : int, optional
        Lattice dimension when meaningful (number of unbounded directions).
    sort_key : callable, optional
        Total order on vertex ids; defaults to the identity (works for
        coordinate tuples).

    ``unit_offsets`` is the sorted ``(2N, N)`` table of unit offsets on the
    unit-weight lattice ``Z^N`` (set by :func:`lattice_generator`), which
    selects the closed-form ball and the array edge build; ``None`` on
    every other graph.
    """

    unit_offsets = None

    def __init__(self, neighbor_fn, name, dimension=None, sort_key=None):
        self._neighbor_fn = neighbor_fn
        self.name = name
        self.dimension = dimension
        self._sort_key = sort_key if sort_key is not None else lambda v: v

    def neighbors(self, x):
        """Neighbor list ``[(y, w), ...]`` of ``x`` with positive weights."""
        return self._neighbor_fn(x)

    def degree(self, x):
        """Weighted degree ``d_w(x)``, the sum of incident edge weights."""
        d = 0.0
        for _, w in self._neighbor_fn(x):
            d += w
        if d <= 0.0:
            raise GraphError(f"vertex {x!r} has nonpositive degree {d}")
        return d

    def sort_key(self, x):
        return self._sort_key(x)

    def __repr__(self):
        return f"GraphGenerator({self.name!r})"


@dataclass
class Region:
    """Finite materialized vertex set with oracle degrees cached.

    ``vertices`` are in canonical order; ``distances`` holds combinatorial
    distances from ``center`` when the region is a ball, else ``None``.
    ``coords`` is the ``(n, N)`` int64 coordinate array of a ball built by
    :func:`ball` on ``Z^N`` whose padded bounding box has int64 keys, which
    selects the key-lookup edge build; ``None`` on every other region.
    """

    generator: GraphGenerator
    vertices: tuple
    degrees: np.ndarray
    center: object = None
    radius: int | None = None
    distances: np.ndarray | None = None
    index: dict = field(default=None, repr=False)
    coords: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.index is None:
            self.index = {v: i for i, v in enumerate(self.vertices)}

    @property
    def measure(self):
        """Weighted measure ``mu_w`` = sum of degrees over the region."""
        return float(self.degrees.sum())

    def __len__(self):
        return len(self.vertices)

    def __contains__(self, x):
        return x in self.index


def region_from_vertices(g, vertices):
    """Region over an explicit vertex collection, canonically ordered."""
    verts = tuple(sorted(set(vertices), key=g.sort_key))
    if not verts:
        raise ValueError("empty vertex set")
    degs = np.array([g.degree(v) for v in verts])
    return Region(g, verts, degs)


def rings(g, x0, r_max=None):
    """Breadth-first rings around ``x0``: yields the vertices at distance 0, 1, 2, ...

    Each ring is a list in discovery order; the search stops after ring
    ``r_max`` (when given) or when the component is exhausted.
    """
    g.degree(x0)  # validates the id
    seen = {x0}
    ring = [x0]
    r = 0
    while ring:
        yield ring
        if r == r_max:
            return
        nxt = []
        for x in ring:
            for y, _ in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        ring = nxt
        r += 1


# coordinates and box keys of the array paths on Z^N stay below this bound
_KEY_LIMIT = 2 ** 62


def ball(g, x0, R):
    """Combinatorial ball ``B_R(x0)`` as a :class:`Region`.

    On ``Z^N`` the l1 ball ``|x - x0|_1 <= R`` in closed form, elsewhere a
    BFS from ``x0`` truncated at radius ``R``; degrees are those of the
    full graph, not the truncation.
    """
    if R < 0 or int(R) != R:
        raise ValueError(f"radius must be a nonnegative integer, got {R}")
    if g.unit_offsets is not None:
        g.degree(x0)  # validates the id
        if max(map(abs, x0)) + R < _KEY_LIMIT:
            return _lattice_ball(g, x0, int(R))
    dist = {v: d for d, ring in enumerate(rings(g, x0, int(R))) for v in ring}
    verts = sorted(dist, key=g.sort_key)
    degs = np.array([g.degree(v) for v in verts])
    dists = np.array([dist[v] for v in verts], dtype=np.int64)
    return Region(g, tuple(verts), degs, center=x0, radius=int(R), distances=dists)


def _lattice_ball(g, x0, R):
    # B_R(x0) on Z^N in lexicographic order, one coordinate at a time: a
    # prefix with l1 budget b left takes the values -b..b, in order, next
    offs = np.zeros((1, 0), dtype=np.int64)
    left = np.array([R], dtype=np.int64)
    for _ in range(g.dimension):
        width = 2 * left + 1
        parent = np.repeat(np.arange(len(left)), width)
        c = np.arange(len(parent)) - (np.cumsum(width) - width + left)[parent]
        offs = np.column_stack([offs[parent], c])
        left = left[parent] - np.abs(c)
    coords = offs + np.array(x0, dtype=np.int64)
    region = Region(g, tuple(zip(*coords.T.tolist())),
                    np.full(len(coords), float(len(g.unit_offsets))),
                    center=x0, radius=R, distances=R - left)
    if (2 * R + 3) ** g.dimension < _KEY_LIMIT:   # the padded box has int64 keys
        region.coords = coords
    return region


def distance(g, x, y, r_max):
    """Combinatorial distance from ``x`` to ``y``, or ``None`` beyond ``r_max``.

    ``None`` (unreachable within ``r_max``) is a regular outcome, not an
    error; BFS never explores past the cap.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    g.degree(y)  # validates the target id
    for d, ring in enumerate(rings(g, x, r_max)):
        if y in ring:
            return d
    return None


def distances_within(g, region, x0):
    """Graph distances from ``x0`` to every vertex of ``region``.

    Distances are measured in the full graph (paths may leave the region).
    ``x0`` must itself belong to the region.
    """
    if x0 not in region:
        raise ValueError(f"{x0!r} is not in the region")
    if region.center is not None and x0 == region.center and region.distances is not None:
        return region.distances
    # a ball B_radius(center) lies within radius + d(x0, center) of x0
    if region.distances is not None:
        cap = region.radius + int(region.distances[region.index[x0]])
    else:
        cap = 2 * len(region)
    dist = {v: d for d, ring in enumerate(rings(g, x0, cap)) for v in ring}
    missing = [v for v in region.vertices if v not in dist]
    if missing:
        raise GraphError(f"could not reach {len(missing)} region vertices from {x0!r}")
    return np.array([dist[v] for v in region.vertices], dtype=np.int64)


def ball_measure_profile(g, x0, R_max):
    """Cumulative measures ``mu_w(B_r(x0))`` for ``r = 0..R_max``."""
    per_radius = np.zeros(int(R_max) + 1)
    for d, ring in enumerate(rings(g, x0, int(R_max))):
        per_radius[d] = sum(g.degree(v) for v in ring)
    return np.cumsum(per_radius)


def _odd_power(p):
    # s -> |s|^(p-2) s, exact and cheaper at the two integer exponents in use
    if p == 3.0:
        return lambda s: np.abs(s) * s
    if p == 4.0:
        return lambda s: s * s * s
    pm2 = p - 2.0
    return lambda s: np.abs(s) ** pm2 * s


@dataclass
class RegionEdges:
    """Edge arrays of a region: internal pairs (i < j) and outgoing stubs.

    This is the edge-flux kernel of the region: every sum over edges
    (p-Laplacian, Dirichlet energy, edge-flux integrals) goes through
    :meth:`divergence` or :meth:`power_sum`.  Stubs see the zero exterior
    value of a Dirichlet truncation.
    """

    ei: np.ndarray        # internal edge tail indices
    ej: np.ndarray        # internal edge head indices, ej > ei
    w: np.ndarray         # internal edge weights
    bi: np.ndarray        # region-side indices of edges leaving the region
    bw: np.ndarray        # their weights
    n: int                # number of region vertices

    def divergence(self, p):
        """Kernel ``u -> sum_y w(x,y) |u(y)-u(x)|^(p-2) (u(y)-u(x))`` over the region.

        Built once per exponent; the returned function maps a state of
        length ``n`` to the unnormalized p-Laplacian (stubs included).
        """
        ei, ej, w, bi, bw, n = self.ei, self.ej, self.w, self.bi, self.bw, self.n
        odd_power = _odd_power(p)

        def div(u):
            flux = w * odd_power(u[ej] - u[ei])
            return (np.bincount(ei, flux, n) - np.bincount(ej, flux, n)
                    - np.bincount(bi, bw * odd_power(u[bi]), n))

        return div

    def power_sum(self, F, a):
        """``sum w |F(y)-F(x)|^a`` over internal edges plus ``bw |F(x)|^a`` over stubs.

        Each undirected edge counts once; ``F`` may carry leading batch
        axes, which the result keeps.
        """
        return (np.abs(F[..., self.ej] - F[..., self.ei]) ** a @ self.w
                + np.abs(F[..., self.bi]) ** a @ self.bw)

    def restrict(self, keep):
        """Edge arrays of the sub-region ``keep`` (increasing region indices).

        Vertex order and the order of the surviving internal edges are
        preserved; an internal edge with one end outside ``keep`` becomes a
        stub of the end inside, so the sub-region sees a zero exterior
        there.  A ``keep`` that covers the region returns ``self``.
        """
        if len(keep) == self.n:
            return self
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[keep] = np.arange(len(keep))
        pi, pj, pb = pos[self.ei], pos[self.ej], pos[self.bi]
        inner = (pi >= 0) & (pj >= 0)
        cut_i = (pi >= 0) & (pj < 0)
        cut_j = (pj >= 0) & (pi < 0)
        stub = pb >= 0
        return RegionEdges(
            pi[inner], pj[inner], self.w[inner],
            np.concatenate([pb[stub], pi[cut_i], pj[cut_j]]),
            np.concatenate([self.bw[stub], self.w[cut_i], self.w[cut_j]]),
            len(keep))


def region_edges(g, region):
    """Materialize the edge structure of a region against the full graph.

    Internal edges and stubs come in the order of a loop over the region's
    vertices and, per vertex, over its oracle neighbors.  For a ball built
    by :func:`ball` on ``Z^N`` the neighbors are found by integer-key lookup
    on ``region.coords`` instead of oracle calls.
    """
    if g.unit_offsets is not None and region.coords is not None:
        return _lattice_edges(g.unit_offsets, region.coords)
    ei, ej, w, bi, bw = [], [], [], [], []
    for i, x in enumerate(region.vertices):
        for y, wt in g.neighbors(x):
            j = region.index.get(y)
            if j is None:
                bi.append(i)
                bw.append(wt)
            elif j > i:
                ei.append(i)
                ej.append(j)
                w.append(wt)
    return RegionEdges(
        np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64),
        np.array(w, dtype=np.float64),
        np.array(bi, dtype=np.int64), np.array(bw, dtype=np.float64), len(region))


def _lattice_edges(offsets, coords):
    # mixed-radix keys over the region's bounding box padded by one layer,
    # last coordinate fastest, so a unit offset shifts a key by a constant
    n, deg = len(coords), len(offsets)
    lo = coords.min(axis=0) - 1
    span = coords.max(axis=0) + 2 - lo
    stride = np.append(np.cumprod(span[:0:-1])[::-1], 1)
    keys = (coords - lo) @ stride
    order = np.argsort(keys, kind="stable")
    nbr = (keys[:, None] + offsets @ stride).ravel()   # oracle loop order
    at = np.minimum(np.searchsorted(keys, nbr, sorter=order), n - 1)
    j = order[at]
    found = keys[j] == nbr
    i = np.repeat(np.arange(n), deg)
    inner = found & (j > i)
    out = ~found
    return RegionEdges(i[inner], j[inner], np.ones(np.count_nonzero(inner)),
                       i[out], np.ones(np.count_nonzero(out)), n)


@dataclass
class Cutoff:
    """Radial cutoff: 1 on ``B_{R1}``, 0 outside ``B_{R2}``, linear between.

    Satisfies the edge-Lipschitz bound ``|z(y) - z(x)| <= 1/(R2 - R1)``
    for every edge ``x ~ y``.
    """

    generator: GraphGenerator
    center: object
    R1: int
    R2: int
    _dist: dict = field(default=None, repr=False)

    def __post_init__(self):
        if self.R1 < 0:
            raise ValueError("R1 must be >= 0")
        if self.R2 <= self.R1:
            raise ValueError(f"need R2 >= R1 + 1, got R1={self.R1}, R2={self.R2}")
        if self._dist is None:
            self._dist = {v: d for d, ring in enumerate(
                rings(self.generator, self.center, self.R2)) for v in ring}

    def value(self, x):
        d = self._dist.get(x)
        if d is None:
            return 0.0
        if d <= self.R1:
            return 1.0
        return (self.R2 - d) / (self.R2 - self.R1)


# ----------------------------------------------------------------------
# graph families


def lattice_generator(N):
    """Standard integer lattice in ``N`` dimensions with unit edge weights."""
    if N < 1 or int(N) != N:
        raise ValueError(f"lattice dimension must be a positive integer, got {N}")
    N = int(N)
    # x + d sorts as d does, so the neighbor lists come out sorted
    offsets = sorted(tuple(s * (i == k) for i in range(N))
                     for k in range(N) for s in (-1, 1))

    def nbrs(x):
        if not (isinstance(x, tuple) and len(x) == N
                and all(isinstance(c, int) for c in x)):
            raise UnknownVertexError(f"not a {N}-tuple of ints: {x!r}")
        return [(tuple(map(add, x, d)), 1.0) for d in offsets]

    g = GraphGenerator(nbrs, name=f"Z^{N}", dimension=N)
    g.unit_offsets = np.array(offsets, dtype=np.int64)
    return g


class FiniteGraph:
    """Small finite weighted graph (adjacency kept in insertion order)."""

    def __init__(self, edges, name="finite"):
        self.name = name
        self.nodes = []
        self._node_pos = {}
        self.adj = {}
        for u, v, w in edges:
            w = float(w)
            if u == v:
                raise GraphError(f"self loop at {u!r}")
            if w <= 0:
                raise GraphError(f"nonpositive weight {w} on edge {u!r}-{v!r}")
            for z in (u, v):
                if z not in self._node_pos:
                    self._node_pos[z] = len(self.nodes)
                    self.nodes.append(z)
                    self.adj[z] = []
            if any(y == v for y, _ in self.adj[u]):
                raise GraphError(f"duplicate edge {u!r}-{v!r}")
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))
        if not self.nodes:
            raise GraphError("graph has no edges")

    def node_position(self, u):
        return self._node_pos[u]

    def is_connected(self):
        g = GraphGenerator(self.adj.__getitem__, self.name)
        return sum(map(len, rings(g, self.nodes[0]))) == len(self.nodes)


def complete_graph(k, name=None):
    """Unit-weight complete graph on ``k`` vertices labeled ``0..k-1``."""
    if k < 2:
        raise ValueError("need at least 2 vertices")
    edges = [(i, j, 1.0) for i in range(k) for j in range(i + 1, k)]
    return FiniteGraph(edges, name=name or f"K_{k}")


def product_generator(H: FiniteGraph, N):
    """Product of a finite connected graph with the ``N``-dim unit lattice.

    Vertices are tuples ``(h, x_1, ..., x_N)`` where ``h`` indexes the
    finite factor in insertion order; two vertices are adjacent iff they
    differ in exactly one factor by one edge of that factor.
    """
    if not isinstance(H, FiniteGraph):
        raise TypeError("H must be a FiniteGraph")
    if not H.is_connected():
        raise GraphError("finite factor must be connected")
    if N < 1 or int(N) != N:
        raise ValueError(f"lattice dimension must be a positive integer, got {N}")
    N = int(N)
    nH = len(H.nodes)
    # adjacency of the finite factor by node position
    adj_idx = [
        sorted((H.node_position(v), w) for v, w in H.adj[u])
        for u in H.nodes
    ]

    def nbrs(x):
        if not (isinstance(x, tuple) and len(x) == N + 1
                and all(isinstance(c, int) for c in x)
                and 0 <= x[0] < nH):
            raise UnknownVertexError(f"not a valid product vertex: {x!r}")
        out = [((j,) + x[1:], w) for j, w in adj_idx[x[0]]]
        for k in range(1, N + 1):
            for s in (-1, 1):
                y = x[:k] + (x[k] + s,) + x[k + 1:]
                out.append((y, 1.0))
        out.sort(key=lambda e: e[0])
        return out

    return GraphGenerator(nbrs, name=f"{H.name} x Z^{N}", dimension=N)


def generator_from_edges(edges, name="custom"):
    """Finite oracle graph from a ``(u, v, w)`` edge list with string ids.

    The canonical vertex order is file/insertion order.  Connectivity is
    only checked here, on the materialized graph; oracle-defined graphs in
    general admit only probe-wise connectivity checks.
    """
    G = FiniteGraph(edges, name=name)
    if not G.is_connected():
        raise GraphError("custom graph is not connected")

    def nbrs(x):
        if x not in G.adj:
            raise UnknownVertexError(f"unknown vertex id {x!r}")
        return list(G.adj[x])

    return GraphGenerator(nbrs, name=name, dimension=None,
                          sort_key=G.node_position)


def generator_from_file(path, name=None):
    """Load a custom graph from a text file, one edge per line: ``x y weight``."""
    edges = []
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise GraphError(f"{path}:{ln}: expected 'x y weight', got {line!r}")
            u, v, w = parts[0], parts[1], float(parts[2])
            edges.append((u, v, w))
    return generator_from_edges(edges, name=name or str(path))
