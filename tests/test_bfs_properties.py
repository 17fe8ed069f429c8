"""Property tests of the ring BFS behind every distance, ball and radius query.

On Z^N graph distance is the l1 norm; on small random finite graphs the
reference is an all-pairs Bellman-Ford relaxation over the edge list.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflow as gf
from graphflow.estimates import l1_sphere_count

SETTINGS = settings(max_examples=40, deadline=None)

coords = st.integers(-3, 3)


@st.composite
def lattice_case(draw):
    N = draw(st.integers(1, 3))
    x0 = tuple(draw(st.lists(coords, min_size=N, max_size=N)))
    support = draw(st.lists(st.lists(coords, min_size=N, max_size=N).map(tuple),
                            min_size=1, max_size=5))
    return N, x0, support


def l1(x, y):
    return sum(abs(a - b) for a, b in zip(x, y))


@SETTINGS
@given(lattice_case(), st.integers(0, 4))
def test_lattice_bfs_is_l1(case, R):
    N, x0, support = case
    g = gf.lattice_generator(N)
    for v in support:
        d = l1(x0, v)
        assert gf.distance(g, x0, v, d) == d
        if d:
            assert gf.distance(g, x0, v, d - 1) is None
    b = gf.ball(g, x0, R)
    box = itertools.product(*[range(c - R, c + R + 1) for c in x0])
    # ring order: by distance, then lexicographically within a ring
    inside = sorted((v for v in box if l1(x0, v) <= R), key=lambda v: (l1(x0, v), v))
    assert list(b.vertices) == inside
    assert list(b.distances) == [l1(x0, v) for v in inside]
    f = gf.Field(g, {v: 1.0 for v in support})
    assert f.support_radius(x0) == max(l1(x0, v) for v in support)
    # the l1 norm of the offsets is the radius a BFS finds on the same
    # oracle without the unit-offset table
    bfs = gf.GraphGenerator(g.neighbors, g.name, dimension=N)
    assert gf.Field(bfs, f.values).coords is None
    assert gf.Field(bfs, f.values).support_radius(x0) == f.support_radius(x0)


@SETTINGS
@given(st.integers(1, 3), st.floats(0.5, 3000.0))
def test_lattice_ball_radius_inverse(N, v):
    # the minimal R with mu_w(B_R) >= v: a sorted search in the ball measures
    g = gf.lattice_generator(N)
    x0 = (0,) * N
    measure = lambda r: 2 * N * sum(l1_sphere_count(N, k) for k in range(r + 1))
    cap = 1
    while measure(cap) < v:
        cap *= 2
    R = int(np.searchsorted(gf.ball_measure_profile(g, x0, cap), v))
    assert measure(R) >= v
    assert R == 0 or measure(R - 1) < v


@st.composite
def finite_graph(draw, connected=True):
    n = draw(st.integers(2, 8))
    names = [f"v{i}" for i in range(n)]
    pairs = set()
    if connected:   # random spanning tree, then extra edges
        pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=10))
    pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    if not pairs:
        pairs = {(0, 1)}
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=len(pairs),
                            max_size=len(pairs)))
    return [(names[a], names[b], w) for (a, b), w in zip(sorted(pairs), weights)]


def all_pairs_hops(edges):
    nodes = sorted({u for e in edges for u in e[:2]})
    dist = {(u, v): (0 if u == v else np.inf) for u in nodes for v in nodes}
    for _ in nodes:
        for u, v, _w in edges:
            for a, b in ((u, v), (v, u)):
                for s in nodes:
                    dist[s, b] = min(dist[s, b], dist[s, a] + 1)
    return nodes, dist


@SETTINGS
@given(finite_graph(), st.integers(0, 7), st.floats(0.1, 60.0))
def test_finite_graph_bfs_against_bellman_ford(edges, R, v):
    g = gf.generator_from_edges(edges)
    nodes, dist = all_pairs_hops(edges)
    x0 = nodes[0]
    for y in nodes:
        assert gf.distance(g, x0, y, len(nodes)) == dist[x0, y]
    b = gf.ball(g, x0, R)
    assert set(b.vertices) == {y for y in nodes if dist[x0, y] <= R}
    assert all(d == dist[x0, y] for y, d in zip(b.vertices, b.distances))
    f = gf.Field(g, {y: 1.0 for y in nodes[1:]})
    assert f.support_radius(x0) == max(dist[x0, y] for y in nodes[1:])
    measure = lambda r: sum(g.degree(y) for y in nodes if dist[x0, y] <= r)
    measures = gf.ball_measure_profile(g, x0, len(nodes))
    assert np.allclose(measures, [measure(r) for r in range(len(nodes) + 1)], rtol=1e-12)
    if measure(len(nodes)) >= v:
        R_inv = int(np.searchsorted(measures, v))
        assert measure(R_inv) >= v and (R_inv == 0 or measure(R_inv - 1) < v)


@SETTINGS
@given(finite_graph(connected=False))
def test_is_connected_against_bellman_ford(edges):
    nodes, dist = all_pairs_hops(edges)
    assert gf.FiniteGraph(edges).is_connected() == all(
        dist[nodes[0], y] < np.inf for y in nodes)
