"""The direct neighbour-table build against the edge-list sort build, the reference.

The reference lists a region's edges in a loop over its vertices and, per
vertex, over its oracle neighbors, then sorts the entries into columns:
column ``x`` lists the edges where ``x`` is the tail, then those where it
is the head, then its stubs, each in edge order, then pads at ``x`` with
weight 0.  ``region_edges`` must give that table and those edge arrays bit
for bit, since the kernel's sums and the power sums round in that order.
"""

import random

import numpy as np
import pytest

import graphflow as gf
from graphflow.graphs import NeighbourTable, region_edges

ARRAYS = ("ei", "ej", "w", "bi", "bw")


def reference_edges(g, region):
    """The oracle loop's edge arrays: internal pairs ``i < j``, then stubs."""
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
    return dict(ei=np.array(ei, dtype=np.int64), ej=np.array(ej, dtype=np.int64),
                w=np.array(w, dtype=np.float64), bi=np.array(bi, dtype=np.int64),
                bw=np.array(bw, dtype=np.float64))


def sort_table(e, n):
    """The table of edge arrays ``e``, its entries sorted stably by vertex."""
    src = np.concatenate([e["ei"], e["ej"], e["bi"]])
    counts = np.bincount(src, minlength=n)
    k = int(counts.max(initial=0))
    pad = np.repeat(np.arange(n), k - counts)
    order = np.argsort(np.concatenate([src, pad]), kind="stable")
    nbr = np.concatenate([e["ej"], e["ei"], np.full(len(e["bi"]), n), pad])[order]
    W = np.concatenate([e["w"], e["w"], e["bw"], np.zeros(len(pad))])[order]
    return NeighbourTable(np.ascontiguousarray(nbr.reshape(n, k).T),
                          np.ascontiguousarray(W.reshape(n, k).T))


def assert_same_table(got, want):
    for name in ("nbr", "W"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.flags.c_contiguous and np.array_equal(a, b), name
    assert got.unit == want.unit


def assert_direct_is_sort_build(g, region):
    edges = region_edges(g, region)
    want = reference_edges(g, region)
    assert edges.n == len(region)
    for name in ARRAYS:
        a, b = getattr(edges, name), want[name]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    table = sort_table(want, len(region))
    assert_same_table(edges, table)
    for m in sorted({1, len(region) // 3, len(region) // 2, len(region) - 1}):
        if m >= 1:
            assert_same_table(edges.restrict(m), table.restrict(m))


@pytest.mark.parametrize("N, radii", [(1, [0, 1, 5, 30]), (2, [0, 1, 4, 9]),
                                      (3, [0, 2, 5]), (4, [0, 1, 3])])
@pytest.mark.parametrize("shift", [0, 3, -7])
def test_lattice_balls_keyed_and_bare(N, radii, shift):
    g = gf.lattice_generator(N)
    center = tuple(shift + i for i in range(N))
    for radius in radii:
        region = gf.ball(g, center, radius)
        assert region.coords is not None
        bare = region.bare()   # no coords: the oracle loop
        assert bare.coords is None
        for r in (region, bare):
            assert_direct_is_sort_build(g, r)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("radius", [0, 1, 3, 6])
def test_products_with_a_complete_graph(k, radius):
    g = gf.product_generator(gf.complete_graph(k), 1)
    assert_direct_is_sort_build(g, gf.ball(g, (0, 0), radius))
    assert_direct_is_sort_build(g, gf.ball(g, (k - 1, 4), radius))


def test_weighted_custom_graph_with_pads():
    # B_1(o) = {o, v, c}: stubs of different weights, weighted internal
    # edges, and columns of different lengths
    g = gf.generator_from_edges([("o", "v", 1.5), ("o", "c", 0.75), ("v", "a", 0.5),
                                 ("v", "b", 3.0), ("c", "a", 2.0), ("a", "b", 1.25)])
    for radius in (0, 1, 2):
        region = gf.ball(g, "o", radius)
        assert_direct_is_sort_build(g, region)
    table = region_edges(g, gf.ball(g, "o", 1))
    assert (table.W == 0.0).any() and not table.unit


@pytest.mark.parametrize("seed", range(6))
def test_random_subsets_of_the_plane(seed):
    g = gf.lattice_generator(2)
    rnd = random.Random(seed)
    pool = gf.ball(g, (rnd.randint(-5, 5), rnd.randint(-5, 5)), 6).vertices
    subset = rnd.sample(pool, rnd.randint(1, len(pool)))
    assert_direct_is_sort_build(g, gf.region_from_vertices(g, subset))
