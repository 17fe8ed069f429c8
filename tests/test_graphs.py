import numpy as np
import pytest

import graphflow as gf
from graphflow.graphs import GraphError, region_edges


@pytest.fixture(scope="module")
def z1():
    return gf.lattice_generator(1)


@pytest.fixture(scope="module")
def z2():
    return gf.lattice_generator(2)


@pytest.fixture(scope="module")
def k2z1():
    return gf.product_generator(gf.complete_graph(2), 1)


def test_lattice_neighbors_1d(z1):
    assert z1.neighbors((0,)) == [((-1,), 1.0), ((1,), 1.0)]
    assert z1.degree((5,)) == 2.0


def test_lattice_neighbors_2d(z2):
    nbrs = z2.neighbors((0, 0))
    assert len(nbrs) == 4
    assert all(w == 1.0 for _, w in nbrs)
    assert z2.degree((3, -7)) == 4.0


def test_product_k2_neighbors(k2z1):
    # hand enumeration: one finite-factor edge plus the two lattice steps
    assert k2z1.neighbors((0, 5)) == [((0, 4), 1.0), ((0, 6), 1.0), ((1, 5), 1.0)]
    assert k2z1.degree((1, -2)) == 3.0


def test_lattice_rejects_bad_vertex(z1, z2):
    with pytest.raises(gf.UnknownVertexError):
        z1.neighbors((0, 0))
    with pytest.raises(gf.UnknownVertexError):
        z2.degree("x")


def test_product_rejects_disconnected_factor():
    H = gf.FiniteGraph([("a", "b", 1.0), ("c", "d", 1.0)])
    with pytest.raises(GraphError):
        gf.product_generator(H, 1)


def test_distance_basics(z1, z2):
    assert gf.distance(z1, (0,), (0,), 5) == 0
    assert gf.distance(z1, (0,), (-4,), 10) == 4
    assert gf.distance(z2, (0, 0), (2, 3), 10) == 5
    assert gf.distance(z1, (0,), (7,), 3) is None  # beyond the cap, not an error


def test_distance_matches_l1_norm(z2):
    # BFS against the closed form on the nearest-neighbor lattice
    for x in range(-6, 7):
        for y in range(-6, 7):
            if abs(x) + abs(y) <= 6:
                assert gf.distance(z2, (0, 0), (x, y), 20) == abs(x) + abs(y)


def test_distance_matches_l1_norm_3d_sample():
    z3 = gf.lattice_generator(3)
    rng = np.random.default_rng(3)
    for _ in range(25):
        v = tuple(int(c) for c in rng.integers(-6, 7, 3))
        d = sum(abs(c) for c in v)
        if d <= 20:
            assert gf.distance(z3, (0, 0, 0), v, 20) == d


def test_ball_z1(z1):
    b = gf.ball(z1, (0,), 2)
    assert len(b) == 5
    assert b.measure == 10.0
    assert b.vertices == ((0,), (-1,), (1,), (-2,), (2,))
    assert list(b.distances) == [0, 1, 1, 2, 2]


def test_ball_z2_r1(z2):
    b = gf.ball(z2, (0, 0), 1)
    assert len(b) == 5
    assert b.measure == 20.0


def test_ball_r0(z2):
    b = gf.ball(z2, (1, 1), 0)
    assert b.vertices == ((1, 1),)
    assert b.measure == z2.degree((1, 1))


def test_ball_measure_formula_z1(z1):
    profile = gf.ball_measure_profile(z1, (0,), 50)
    for R in range(51):
        assert profile[R] == 2 * (2 * R + 1)


def test_ball_rejects_negative_radius(z1):
    with pytest.raises(ValueError):
        gf.ball(z1, (0,), -1)


@pytest.mark.parametrize("maker", [
    lambda: (gf.lattice_generator(2), (0, 0)),
    lambda: (gf.product_generator(gf.complete_graph(3), 1), (0, 0)),
])
def test_weight_symmetry_exact(maker):
    g, x0 = maker()
    region = gf.ball(g, x0, 3)
    residual = 0.0
    for x in region.vertices:
        for y, w in g.neighbors(x):
            back = dict(g.neighbors(y))
            assert x in back
            residual += w - back[x]
    assert residual == 0.0


def test_cutoff_values(z1):
    c = gf.Cutoff(z1, (0,), 2, 4)
    assert c.value((1,)) == 1.0
    assert c.value((3,)) == 0.5  # (R2 - d)/(R2 - R1)
    assert c.value((5,)) == 0.0
    assert c.value((-7,)) == 0.0


@pytest.mark.parametrize("dim,R1,R2", [(1, 2, 5), (2, 1, 4)])
def test_cutoff_edge_lipschitz_exhaustive(dim, R1, R2):
    g = gf.lattice_generator(dim)
    x0 = (0,) * dim
    c = gf.Cutoff(g, x0, R1, R2)
    bound = 1.0 / (R2 - R1)
    region = gf.ball(g, x0, R2 + 1)
    for x in region.vertices:
        for y, _ in g.neighbors(x):
            assert abs(c.value(y) - c.value(x)) <= bound + 1e-15


def test_cutoff_rejects_bad_radii(z1):
    with pytest.raises(ValueError):
        gf.Cutoff(z1, (0,), 3, 3)
    with pytest.raises(ValueError):
        gf.Cutoff(z1, (0,), 4, 2)


def test_custom_graph_from_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# triangle with a tail\na b 1.0\nb c 2.0\nc a 0.5\nc d 1.5\n")
    g = gf.generator_from_file(path)
    assert g.degree("c") == 4.0
    assert dict(g.neighbors("a")) == {"b": 1.0, "c": 0.5}
    assert gf.distance(g, "a", "d", 5) == 2
    # canonical order is file insertion order
    b = gf.ball(g, "a", 2)
    assert b.vertices == ("a", "b", "c", "d")


def test_custom_graph_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\n")
    with pytest.raises(GraphError):
        gf.generator_from_file(bad)
    with pytest.raises(GraphError):
        gf.generator_from_edges([("a", "a", 1.0)])
    with pytest.raises(GraphError):
        gf.generator_from_edges([("a", "b", 1.0), ("a", "b", 2.0)])
    with pytest.raises(GraphError):
        gf.generator_from_edges([("a", "b", -1.0)])
    with pytest.raises(GraphError):  # disconnected
        gf.generator_from_edges([("a", "b", 1.0), ("c", "d", 1.0)])
    g = gf.generator_from_edges([("a", "b", 1.0)])
    with pytest.raises(gf.UnknownVertexError):
        g.neighbors("zz")


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0"])
def test_custom_graph_rejects_a_weight_that_is_not_positive_and_finite(tmp_path, weight):
    # NaN fails both w <= 0 and w > 0, so only a test for 0 < w < inf catches it
    path = tmp_path / "g.txt"
    path.write_text(f"a b 1\nb c {weight}\n")
    with pytest.raises(GraphError, match=f"weight {float(weight)} on edge 'b'-'c'"):
        gf.generator_from_file(path)
    with pytest.raises(GraphError, match="not positive and finite"):
        gf.FiniteGraph([("a", "b", float(weight))])


def test_region_from_vertices_canonical(z1):
    r = gf.region_from_vertices(z1, [(3,), (0,), (1,)])
    assert r.vertices == ((0,), (1,), (3,))
    assert r.measure == 6.0
    assert (2,) not in r
    assert (1,) in r


def test_region_degrees_come_from_full_oracle(z2):
    # boundary vertices of a truncation keep the infinite-graph degree
    b = gf.ball(z2, (0, 0), 2)
    assert set(b.degrees) == {4.0}


@pytest.mark.parametrize("graph", ["Z^2", "K_3 x Z^1"])
def test_restrict_matches_edges_of_the_sub_ball(graph):
    g = (gf.lattice_generator(2) if graph == "Z^2"
         else gf.product_generator(gf.complete_graph(3), 1))
    center = (0, 0)
    big = gf.ball(g, center, 6)
    table = region_edges(g, big)
    small = gf.ball(g, center, 3)
    m = len(small)
    assert big.vertices[:m] == small.vertices
    sub = table.restrict(m)
    ref = region_edges(g, small)
    # every entry keeps its place; cut edges become stubs of their inside end
    assert sub.n == ref.n == m
    inside = table.nbr[:, :m] < m
    assert np.array_equal(sub.nbr[inside], table.nbr[:, :m][inside])
    assert (sub.nbr[~inside] == m).all() and np.array_equal(sub.W, table.W[:, :m])
    # each column lists the entries of the sub-ball's own column
    for col in range(m):
        assert sorted(zip(sub.nbr[:, col].tolist(), sub.W[:, col].tolist())) == \
            sorted(zip(ref.nbr[:, col].tolist(), ref.W[:, col].tolist())), col
    assert table.restrict(len(big)) is table
