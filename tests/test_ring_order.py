"""Balls list their vertices ring by ring, so a smaller ball is a prefix.

``ball(g, c, r)`` is the first ``|B_r|`` vertices of ``ball(g, c, R)`` for
every ``R >= r``: vertices, distances, degrees and, where set, the lattice
coordinates.  The neighbour table of ``B_R`` restricted to that prefix
lists the entries of ``B_r``'s, the cut edges becoming stubs of their tails.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflow as gf
from graphflow.graphs import region_edges

SETTINGS = settings(max_examples=60, deadline=None)

# a 4 x 3 grid with one diagonal, its edges listed out of reading order so
# that the insertion order of the ids is not their lexicographic order
_GRID = [(f"{i}{j}", f"{i + 1}{j}", 1.0 + 0.25 * ((i + j) % 3))
         for i in range(3) for j in range(3)]
_GRID += [(f"{i}{j}", f"{i}{j + 1}", 0.5 + 0.5 * (i % 2))
          for i in range(4) for j in range(2)]
_GRID += [("11", "22", 2.0)]
CUSTOM = gf.generator_from_edges(_GRID[::-1], name="grid")
NODES = sorted({u for u, _, _ in _GRID} | {v for _, v, _ in _GRID})

GRAPHS = {
    "Z^1": gf.lattice_generator(1),
    "Z^2": gf.lattice_generator(2),
    "Z^3": gf.lattice_generator(3),
    "K_3 x Z^1": gf.product_generator(gf.complete_graph(3), 1),
    "custom": CUSTOM,
}


@st.composite
def concentric_balls(draw):
    """A graph, a center and two radii ``r <= R``."""
    name = draw(st.sampled_from(sorted(GRAPHS)))
    g = GRAPHS[name]
    if name == "custom":
        center = draw(st.sampled_from(NODES))
    elif name == "K_3 x Z^1":
        center = (draw(st.integers(0, 2)), draw(st.integers(-5, 5)))
    else:
        center = tuple(draw(st.lists(st.integers(-5, 5), min_size=g.dimension,
                                     max_size=g.dimension)))
    R = draw(st.integers(0, 7 if name == "Z^3" else 9))
    return g, center, draw(st.integers(0, R)), R


def _entries(table):
    """Each column's ``(entry, weight)`` pairs, sorted, pads (weight 0) left out."""
    return [sorted((j, w) for j, w in zip(nbr, W) if w != 0.0)
            for nbr, W in zip(table.nbr.T.tolist(), table.W.T.tolist())]


@SETTINGS
@given(concentric_balls())
def test_smaller_ball_is_a_prefix_of_the_larger(case):
    g, center, r, R = case
    small, big = gf.ball(g, center, r), gf.ball(g, center, R)
    m = len(small)
    assert m <= len(big)
    assert big.vertices[:m] == small.vertices
    for name in ("distances", "degrees"):
        a, b = getattr(small, name), getattr(big, name)
        assert a.dtype == b.dtype and np.array_equal(b[:m], a), name
    if small.coords is not None and big.coords is not None:
        assert np.array_equal(big.coords[:m], small.coords)
    assert (np.diff(big.distances) >= 0).all()
    assert big.distances[0] == 0 and big.vertices[0] == center


@SETTINGS
@given(concentric_balls())
def test_restricted_edges_are_the_edges_of_the_smaller_ball(case):
    g, center, r, R = case
    small, big = gf.ball(g, center, r), gf.ball(g, center, R)
    table, ref = region_edges(g, big), region_edges(g, small)
    for e in (table, ref, region_edges(g, gf.region_from_vertices(g, big.vertices))):
        assert (e.ei < e.ej).all()
    m = len(small)
    sub = table.restrict(m)
    assert sub.n == ref.n == m
    assert sub.nbr.flags.c_contiguous and sub.W.flags.c_contiguous
    # each entry keeps its place; one past the smaller ball is a stub there
    inside = table.nbr[:, :m] < m
    assert np.array_equal(sub.nbr[inside], table.nbr[:, :m][inside])
    assert (sub.nbr[~inside] == m).all() and np.array_equal(sub.W, table.W[:, :m])
    assert _entries(sub) == _entries(ref)
    # the history's edge count, read from the table
    assert sub.edge_count(1) == len(ref.ei) + len(ref.bi)
    assert table.restrict(len(big)) is table
