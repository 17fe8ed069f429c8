"""Weighted-graph neighbor oracles, metric balls, regions and cutoffs.

Infinite graphs are represented by a neighbor oracle ``x -> [(y, w), ...]``
and are never materialized globally; only combinatorial balls are turned
into concrete :class:`Region` objects.  Vertex ids are hashable values with
a per-generator total order (integer coordinate tuples for lattices and
products, file insertion order for custom graphs).  A ball lists its
vertices ring by ring, in that order within a ring, so ``B_r`` is the
first ``|B_r|`` vertices of every larger ball about the same center.
This fixes every summation order and makes runs bitwise reproducible.

Degrees are always those of the full graph, so boundary vertices of a
truncated region carry the same weighted degree ``d_w(x)`` as in the
infinite graph.

On ``Z^N`` a ball is a :class:`LatticeBall`, the l1 ball in closed form,
whose per-vertex arrays are enumerated with numpy on first read; its
neighbour table is filled from the coordinates by integer-key lookup, in
the order of the generator's sorted unit offsets (the oracle's neighbor
order), and its :class:`OrbitQuotient` is built from the orbits' keys.
Vertex ids on ``Z^N`` are checked and held as int64 coordinate arrays
(:func:`lattice_coords`), so data need no search there.  The ring BFS
serves products, custom graphs and distance queries, and every other
region fills its table by one loop over the oracle.

Every solve's kernel is a :class:`NeighbourTable`, built once per ball by
:func:`region_edges` and sliced for the sub-balls and stacked copies a
step runs on.  It is the one edge structure: the edge arrays of the power
sums are read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    selects the closed-form ball and the key-lookup table build; ``None``
    on every other graph.
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


def _ring_prefixes(N, lo, hi):
    """The rings ``lo..hi`` of ``Z^N`` but for the last coordinate, in ring order.

    Ring by ring, each in lexicographic order: the first ``N - 1``
    coordinates, one int64 column each, and the l1 budget ``b`` they leave.
    A prefix with budget ``b`` takes the values ``-b..b``, in order, next;
    the last coordinate takes ``-b`` and ``b`` (``0`` once), so a prefix
    stands for ``1 + (b > 0)`` vertices.
    """
    left, cols = np.arange(lo, hi + 1), []
    for _ in range(N - 1):
        width = 2 * left + 1
        parent = np.repeat(np.arange(len(left)), width)
        c = np.arange(len(parent)) - (np.cumsum(width) - width + left)[parent]
        cols = [col[parent] for col in cols] + [c]
        left = left[parent] - np.abs(c)
    return cols, left


@dataclass
class Region:
    """Finite materialized vertex set with oracle degrees cached.

    ``vertices`` are in canonical order, ring order on a ball, whose
    ``distances`` from ``center`` are then nondecreasing (``None`` on any
    other region).  ``index`` maps each vertex to its position, built on
    first use.  A ball on ``Z^N`` is a :class:`LatticeBall`, the one
    region that is ``keyed`` and has ``coords``.
    """

    generator: GraphGenerator
    vertices: tuple
    degrees: np.ndarray
    center: object = None
    radius: int | None = None
    distances: np.ndarray | None = None
    keyed = False
    coords = None

    @cached_property
    def index(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def measure(self):
        """Weighted measure ``mu_w`` = sum of degrees over the region."""
        return float(self.degrees.sum())

    def __len__(self):
        return len(self.degrees)

    def __contains__(self, x):
        return x in self.index


class LatticeBall(Region):
    """The l1 ball ``B_R(center)`` of ``Z^N``, from ``(N, center, R)`` alone.

    Its length is the closed form ``|B_R|``.  ``coords`` (``(n, N)`` int64,
    which select the key-lookup table build), ``vertices`` and ``index``,
    ``degrees`` (all ``2N``) and ``distances`` are each built on first read;
    a solve on its orbits (:class:`OrbitQuotient`) reads none of them.
    """

    keyed = True

    def __init__(self, generator, center, radius):
        self.generator, self.center, self.radius = generator, center, radius

    def __len__(self):   # 2^k C(N, k) C(R, k) vertices with k nonzero coordinates
        N, R = self.generator.dimension, self.radius
        return sum(2 ** k * math.comb(N, k) * math.comb(R, k) for k in range(min(N, R) + 1))

    @cached_property
    def coords(self):
        cols, left = _ring_prefixes(self.generator.dimension, 0, self.radius)
        width = 1 + (left > 0)
        parent, last = np.repeat(np.arange(len(left)), width), np.repeat(left, width)
        last[np.cumsum(width) - width] *= -1   # -b first
        return np.column_stack([col[parent] for col in cols] + [last]) + np.array(self.center)

    @cached_property
    def vertices(self):
        return tuple(zip(*self.coords.T.tolist()))

    @cached_property
    def degrees(self):
        return np.full(len(self), float(len(self.generator.unit_offsets)))

    @cached_property
    def distances(self):
        return np.abs(self.coords - np.array(self.center)).sum(axis=1)

    def bare(self):
        """The same ball as a plain :class:`Region`: its tuples, no ``coords``."""
        return Region(self.generator, self.vertices, self.degrees, self.center, self.radius,
                      self.distances)


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


def lattice_coords(g, ids):
    """The vertex ids ``ids`` of ``g`` on ``Z^N`` as an ``(s, N)`` int64 array, else ``None``.

    ``None`` also where a coordinate reaches ``2^62 / 2N``, so that l1 norms of
    differences fit int64.  Other ids are checked by the oracle (:class:`UnknownVertexError`).
    """
    ids, N = list(ids), g.dimension
    if g.unit_offsets is not None:
        try:
            a = np.array(ids or np.empty((0, N), dtype=np.int64))
        except ValueError:   # ids of different lengths
            a = np.empty(0)
        bound = _KEY_LIMIT // (2 * N)
        if (a.shape == (len(ids), N) and a.dtype == np.int64
                and -bound < a.min(initial=0) and a.max(initial=0) < bound):
            return a
    for v in ids:
        g.degree(v)   # validates the id
    return None


def ball(g, x0, R):
    """Combinatorial ball ``B_R(x0)`` as a :class:`Region`.

    On ``Z^N`` the l1 ball ``|x - x0|_1 <= R``, a :class:`LatticeBall`;
    elsewhere a BFS from ``x0`` truncated at radius ``R``.  Degrees are
    those of the full graph, not the truncation.  The vertices come in ring
    order, by distance and then by ``g.sort_key``.
    """
    if R < 0 or int(R) != R:
        raise ValueError(f"radius must be a nonnegative integer, got {R}")
    if g.unit_offsets is not None:
        g.degree(x0)  # validates the id
        if max(map(abs, x0)) + R < _KEY_LIMIT:
            region = LatticeBall(g, x0, int(R))   # bare if its padded box has no int64 keys
            return region if (2 * R + 3) ** g.dimension < _KEY_LIMIT else region.bare()
    verts, dists = [], []
    for d, ring in enumerate(rings(g, x0, int(R))):
        verts += sorted(ring, key=g.sort_key)
        dists += [d] * len(ring)
    degs = np.array([g.degree(v) for v in verts])
    return Region(g, tuple(verts), degs, center=x0, radius=int(R),
                  distances=np.array(dists, dtype=np.int64))


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
    if region.center is not None and x0 == region.center and region.distances is not None:
        return region.distances   # without building the region's index
    if x0 not in region:
        raise ValueError(f"{x0!r} is not in the region")
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


@dataclass
class NeighbourTable:
    """A region's ``(k, n)`` neighbour table, the edge-flux kernel of every solve.

    Column ``x`` lists the entries of vertex ``x``: a neighbour inside the
    region, or the zero slot ``n`` for a stub (the zero exterior of a
    Dirichlet truncation), at weight ``W``.  A short column is padded with
    ``x`` itself at weight 0, whose difference is exactly 0 (a pad at the
    zero slot would give ``|u|^(p-1) * 0``, a NaN once that overflows).
    Both arrays are C-contiguous, as are those of every table made from
    them: a strided table is several times slower to gather through.

    The edge arrays ``ei, ej, w, bi, bw`` are read off the table on first
    use, column by column in entry order: the internal entries
    ``x < y < n``, each edge once, then the stubs, which see a zero
    exterior.  They give the edge power sums of energies and flux integrals.
    """

    nbr: np.ndarray       # (k, n) entry indices, n for a stub
    W: np.ndarray         # (k, n) entry weights, 0 for a pad
    unit: bool = field(init=False)   # every weight 1 or a pad's 0: decided once, from W

    def __post_init__(self):
        self.unit = bool(((self.W == 1.0) | (self.W == 0.0)).all())

    @property
    def n(self):
        return self.nbr.shape[1]

    def divergence(self, p, degrees=None):
        """Kernel ``u -> sum_y w(x,y) |u(y)-u(x)|^(p-2) (u(y)-u(x))`` over the region.

        Divided by ``degrees`` when they are given (``Delta_p u``).  The
        returned function ``div(u, out=None)`` maps a state of length ``n``
        to ``out``, or to a fresh array without it: it copies the state
        into a buffer whose slot ``n`` stays 0, gathers it through the
        table, subtracts the state, applies the odd power (``d |d|`` at
        p = 3, ``d (d d)`` at p = 4) and the weights in place and sums down
        each column in entry order.  The buffer's first ``n`` slots are
        ``div.input``: a state written there is read in place, with no
        copy.  On a unit table (every weight 1, or 0 at a pad, whose
        difference is exactly +0) the weight multiply is skipped:
        ``x * 1.0 == x``, so the sums are the same bits.  A table of two
        entries per column (every ``Z^1`` table) sums them with one add:
        the reduction's bits, but for a column of two -0 terms, which the
        reduction, starting from +0, sums to +0.  The solver adds each
        stage to a state that is never -0, so its rows are the same bits.
        """
        n, nbr, W, unit = self.n, self.nbr, self.W, self.unit
        ext = np.zeros(n + 1)   # ext[n] is the zero exterior of every stub
        head, absolute, pm2 = ext[:n], np.abs, p - 2.0
        plus, reduce, two = np.add, np.add.reduce, len(nbr) == 2

        def div(u, out=None):
            if u is not head:
                head[...] = u
            d = ext[nbr]
            d -= u
            if p == 3.0:
                d *= absolute(d)
            elif p == 4.0:
                d *= d * d
            else:
                d *= absolute(d) ** pm2
            if not unit:
                d *= W
            out = plus(d[0], d[1], out=out) if two else reduce(d, axis=0, out=out)
            if degrees is not None:
                out /= degrees
            return out

        div.input = head
        return div

    def restrict(self, m):
        """The table of the sub-region of the first ``m`` vertices.

        On a ball, the ball ``B_r`` of size ``m``.  Each entry keeps its
        place; one at ``m`` or past it points at the zero slot ``m``.  So on
        a state that is 0 from vertex ``m`` on, the whole table's first
        ``m`` sums are bitwise these.  ``m = n`` returns ``self``.
        """
        if m == self.n:
            return self
        return NeighbourTable(np.minimum(self.nbr[:, :m], m),
                              np.ascontiguousarray(self.W[:, :m]))

    def stacked(self, k):
        """The table of ``k`` disjoint copies of the region.

        Copy ``b`` holds vertices ``b n`` to ``(b + 1) n - 1``, so ``k``
        states stacked block by block are a state of the copies.  The table
        is block-diagonal, every copy's stubs at one zero slot ``k n``, each
        column in its region column's order: each block's sums round as in
        a call on the block alone.  ``k = 1`` returns ``self``.
        """
        if k == 1:
            return self
        n = self.n
        shifted = self.nbr[:, None] + n * np.arange(k)[:, None]
        nbr = np.where(self.nbr[:, None] == n, k * n, shifted)
        return NeighbourTable(nbr.reshape(len(nbr), k * n), np.tile(self.W, k))

    def edge_count(self, sizes):
        """Internal edges (once each) plus stubs of the vertices the columns stand for.

        ``sizes`` counts them per column: ``|O|`` on an orbit quotient, 1 on
        the vertices.
        """
        # an internal entry is half an edge, a stub a whole one; pads weigh 0
        halves = np.count_nonzero(self.W, axis=0) + np.count_nonzero(self.nbr == self.n, axis=0)
        return int((halves * sizes).sum()) // 2

    @cached_property
    def _arrays(self):
        n, nbr, W = self.n, self.nbr.T, self.W.T   # vertex by vertex
        x = np.broadcast_to(np.arange(n)[:, None], nbr.shape)
        inner, stub = (x < nbr) & (nbr < n), nbr == n
        return x[inner], nbr[inner], W[inner], x[stub], W[stub]

    ei = property(lambda self: self._arrays[0], doc="internal edge tail indices")
    ej = property(lambda self: self._arrays[1], doc="internal edge head indices, ej > ei")
    w = property(lambda self: self._arrays[2], doc="internal edge weights")
    bi = property(lambda self: self._arrays[3], doc="region-side ends of the stubs")
    bw = property(lambda self: self._arrays[4], doc="stub weights")

    def power_sum(self, F, a):
        """``sum w |F(y)-F(x)|^a`` over internal edges plus ``bw |F(x)|^a`` over stubs.

        Each undirected edge counts once; ``F`` may carry leading batch
        axes, which the result keeps.
        """
        return (np.abs(F[..., self.ej] - F[..., self.ei]) ** a @ self.w
                + np.abs(F[..., self.bi]) ** a @ self.bw)


def region_edges(g, region):
    """The :class:`NeighbourTable` of a region, against the full graph.

    On a ball built by :func:`ball` on ``Z^N`` one box-key lookup on
    ``region.coords`` fills the table in unit-offset order at weight 1;
    elsewhere one oracle loop fills it in neighbor order, a short column
    padded with the vertex itself at weight 0.  A stable sort per column
    then lists the neighbors above ``x`` in neighbor order, those below it
    by index, the stubs and the pads: the order the sums have always
    rounded in (offset order alone moves step sizes at rounding level).
    """
    if g.unit_offsets is not None and region.keyed:
        # mixed-radix keys over the ball's box padded by one layer (2R + 3 wide
        # on each axis), last coordinate fastest: a unit offset shifts a key by a constant
        n, R = len(region), region.radius
        stride = (2 * R + 3) ** np.arange(g.dimension)[::-1]
        keys = (region.coords - region.center + R + 1) @ stride
        order = np.argsort(keys, kind="stable")
        nbr = keys + (g.unit_offsets @ stride)[:, None]   # (2N, n), unit-offset order
        j = order[np.minimum(np.searchsorted(keys, nbr, sorter=order), n - 1)]
        nbr, W = np.where(keys[j] == nbr, j, n), np.ones(nbr.shape)
    else:
        n, index = len(region), region.index
        cols = [g.neighbors(x) for x in region.vertices]
        filled = np.arange(max(map(len, cols)))[:, None] < [len(c) for c in cols]
        nbr, W = np.tile(np.arange(n), (len(filled), 1)), np.zeros(filled.shape)
        nbr.T[filled.T] = [index.get(y, n) for c in cols for y, _ in c]
        W.T[filled.T] = [w for c in cols for _, w in c]
    x = np.arange(n)
    key = np.where(nbr < x, nbr + 1, np.where((x < nbr) & (nbr < n), 0, n + 1))
    order = np.argsort(key, axis=0, kind="stable")   # ties keep the fill order
    return NeighbourTable(np.take_along_axis(nbr, order, axis=0),
                          np.take_along_axis(W, order, axis=0))


def _orbit_sizes(parts):
    """Orbit sizes from sorted ``(N, k)`` key parts: multinomials times ``2^(parts > 0)``."""
    sizes, run = np.ones(parts.shape[1], dtype=np.int64), np.ones(parts.shape[1], dtype=np.int64)
    for i in range(1, len(parts)):
        run = np.where(parts[i] == parts[i - 1], run + 1, 1)
        sizes = sizes * (i + 1) // run
    return sizes << (parts > 0).sum(axis=0)


def _sorted_key(cols, stride):
    """The mixed-radix key of each row's absolute values sorted ascending.

    ``cols`` holds one integer column per coordinate; an odd-even
    transposition network of ``minimum``/``maximum`` pairs sorts them.
    """
    a = [np.abs(c) for c in cols]
    for sweep in range(len(a)):
        for i in range(sweep % 2, len(a) - 1, 2):
            a[i], a[i + 1] = np.minimum(a[i], a[i + 1]), np.maximum(a[i], a[i + 1])
    key = a[-1] * stride[-1]
    for col, s in zip(a[:-1], stride[:-1]):
        key += col * s
    return key


class OrbitQuotient:
    """A ``Z^N`` ball ``B_R(center)`` modulo the signed coordinate permutations about its center.

    Built from the orbits' keys, with no vertex read: an orbit's key is the
    sorted absolute offset of its vertices from the center, a partition of
    its ring ``d <= R`` into at most ``N`` parts.  ``keys`` holds one row
    per orbit, descending; the orbit's first vertex in the ring-ordered ball
    is ``center - key``.  Orbits are numbered by their first vertices, ring
    by ring and each ring in lexicographic order, so each lies on one ring
    and the orbits of a smaller concentric ball are a prefix.  ``dist`` is
    each orbit's ring, ``sizes`` its vertex count (:func:`_orbit_sizes`),
    ``ends`` their running sum (``ends[m - 1]`` vertices make up the first
    ``m`` orbits) and ``degree`` the lattice degree ``2N``.

    ``table`` is the quotient's :class:`NeighbourTable`: column ``O`` lists
    the orbits of the first vertex's ``2N`` neighbours in unit-offset order
    (the zero slot past the radius), at weight 1, looked up by key.  The
    group acts transitively on each orbit, so a state constant on orbits
    has the first vertex's sum at every vertex of ``O`` and evolves as its
    orbit values do.  ``|O| w(O, O')``, ``w(O, O')`` the entries of ``O``
    in ``O'``, counts the edges between the orbits, so ``sum |O| d(O) u(O)``
    is conserved.

    ``lift(n)`` is the orbit of each of the ball's first ``n`` vertices,
    built ring by ring as far as it is read and kept, and ``orbit_of`` that
    of any offset inside the ball.
    """

    def __init__(self, region):
        offsets, R = region.generator.unit_offsets, region.radius
        self.N = N = offsets.shape[1]
        self.degree = float(2 * N)
        # ring by ring, each part from min(the last part, the budget) down
        # to the least that leaves the later parts no larger; the last part
        # is what is left
        left, parts = np.arange(R + 1), []
        for i in range(N - 1):
            hi = left if i == 0 else np.minimum(parts[-1], left)
            width = hi - -(-left // (N - i)) + 1
            parent = np.repeat(np.arange(len(left)), width)
            part = (hi + np.cumsum(width) - width)[parent] - np.arange(len(parent))
            parts = [c[parent] for c in parts] + [part]
            left = left[parent] - part
        parts = np.stack([*parts, left])   # (N, k): part i of each key
        self.keys, self.dist, k = parts.T, parts.sum(axis=0), len(left)
        self.sizes = _orbit_sizes(parts)
        self.ends = np.cumsum(self.sizes)
        self._ring_ends = self.ends[np.searchsorted(self.dist, np.arange(R + 1), side="right") - 1]
        # a dense table over the ascending keys: part i of N is at most R // (N - i)
        bounds = R // np.arange(N, 0, -1) + 1
        self._stride = np.append(np.cumprod(bounds[:0:-1])[::-1], 1)
        self._lookup = np.empty(int(np.prod(bounds)), dtype=np.int64)
        self._lookup[_sorted_key(parts, self._stride)] = np.arange(k)
        # the neighbours of each first vertex -key: offset (j, s) makes part
        # j |s - key_j|; the orbit of their key inside the ball, else a stub
        axis, sign = np.nonzero(offsets)[1], offsets.sum(axis=1)
        near = np.repeat(parts[:, None], 2 * N, axis=1)   # (N, 2N, k)
        near[axis, np.arange(2 * N)] = np.abs(parts[axis] - sign[:, None])
        key = _sorted_key(near.reshape(N, -1), self._stride).reshape(2 * N, k)
        nbr = np.where(near.sum(axis=0) <= R, self._lookup.take(key, mode="clip"), k)
        self.table = NeighbourTable(nbr, np.ones((2 * N, k)))
        self._lift, self._ring = np.empty(0, dtype=np.int64), -1

    def lift(self, n=None):
        """The orbit of each of the ball's first ``n`` vertices (default: all), ring order."""
        n = int(self.ends[-1]) if n is None else n
        if n > len(self._lift):
            r = int(np.searchsorted(self._ring_ends, n))   # the ring of vertex n - 1
            cols, left = _ring_prefixes(self.N, self._ring + 1, r)
            # the last coordinate's two signs are one orbit
            orbit = self.orbit_of([*cols, left])
            self._lift = np.concatenate([self._lift, np.repeat(orbit, 1 + (left > 0))])
            self._ring = r
        return self._lift[:n]

    def orbit_of(self, cols):
        """The orbit of each offset from the center inside the ball, given as ``N`` columns."""
        return self._lookup[_sorted_key(cols, self._stride)]


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
    _dist: dict = field(init=False, repr=False)

    def __post_init__(self):
        if self.R1 < 0:
            raise ValueError("R1 must be >= 0")
        if self.R2 <= self.R1:
            raise ValueError(f"need R2 >= R1 + 1, got R1={self.R1}, R2={self.R2}")
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
            if not 0 < w < np.inf:   # NaN too
                raise GraphError(f"weight {w} on edge {u!r}-{v!r} is not positive "
                                 f"and finite")
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


def complete_graph(k):
    """Unit-weight complete graph ``K_k`` on ``k`` vertices labeled ``0..k-1``."""
    if k < 2:
        raise ValueError("need at least 2 vertices")
    edges = [(i, j, 1.0) for i in range(k) for j in range(i + 1, k)]
    return FiniteGraph(edges, name=f"K_{k}")


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


def generator_from_file(path):
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
    return generator_from_edges(edges, name=str(path))
