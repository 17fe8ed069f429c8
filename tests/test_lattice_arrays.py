"""The closed-form ``Z^N`` ball and key-lookup edge arrays against the BFS oracle.

The reference is a plain :class:`GraphGenerator` over the lattice's own
neighbor function: it carries no unit-offset table, so ``ball`` and
``region_edges`` take the ring BFS and the oracle loop on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflow as gf
from graphflow.graphs import Region, region_edges

SETTINGS = settings(max_examples=40, deadline=None)

LATTICES = {N: gf.lattice_generator(N) for N in (1, 2, 3)}


def reference(g):
    return gf.GraphGenerator(g.neighbors, g.name, dimension=g.dimension)


@st.composite
def lattice_ball(draw):
    N = draw(st.integers(1, 3))
    x0 = tuple(draw(st.lists(st.integers(-40, 40), min_size=N, max_size=N)))
    return LATTICES[N], x0, draw(st.integers(0, 8))


def assert_same_ball(a, b):
    assert a.vertices == b.vertices
    assert a.center == b.center and a.radius == b.radius
    for x, y in ((a.degrees, b.degrees), (a.distances, b.distances)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def assert_same_edges(g, region):
    got, want = region_edges(g, region), region_edges(reference(g), region)
    assert got.n == want.n == len(region)
    for name in ("ei", "ej", "w", "bi", "bw"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def outcome(fn, *args):
    try:
        fn(*args)
    except Exception as e:   # the error itself is the outcome
        return type(e), str(e)
    return None


@SETTINGS
@given(lattice_ball())
def test_closed_form_ball_matches_bfs(case):
    g, x0, R = case
    assert g.neighbors(x0) == sorted(g.neighbors(x0))   # canonical neighbor order
    assert_same_ball(gf.ball(g, x0, R), gf.ball(reference(g), x0, R))


@SETTINGS
@given(lattice_ball(), st.randoms(use_true_random=False),
       st.lists(st.integers(-50, 50), min_size=3, max_size=9))
def test_key_lookup_edges_match_the_oracle_loop(case, rnd, far):
    g, x0, R = case
    b = gf.ball(g, x0, R)
    assert_same_edges(g, b)
    # a random subset, with a few vertices off the ball, canonically ordered
    N = g.dimension
    extra = [tuple(far[k:k + N]) for k in range(0, len(far) - N + 1, N)]
    subset = rnd.sample(b.vertices, rnd.randint(1, len(b))) + extra
    assert_same_edges(g, gf.region_from_vertices(g, subset))
    # the ball in shuffled order
    shuffled = list(b.vertices)
    rnd.shuffle(shuffled)
    assert_same_edges(g, Region(g, tuple(shuffled), b.degrees))


@pytest.mark.parametrize("N, x0", [
    (1, (0.5,)), (1, (0, 0)), (2, (0,)), (1, (np.int64(0),)), (2, (0, np.int32(1))),
    (1, "x"),
])
def test_invalid_ids_raise_as_on_the_oracle_path(N, x0):
    g = LATTICES[N]
    for fn, args in ((gf.ball, (x0, 2)),
                     (region_edges, (Region(g, ((0,) * N, x0), np.ones(2)),))):
        got = outcome(fn, g, *args)
        assert got is not None and got == outcome(fn, reference(g), *args)


@pytest.mark.parametrize("R", [-1, 2.5])
def test_invalid_radii_raise_as_on_the_oracle_path(R):
    g = LATTICES[2]
    got = outcome(gf.ball, g, (0, 0), R)
    assert got is not None and got == outcome(gf.ball, reference(g), (0, 0), R)


def test_coordinates_beyond_int64_keys_take_the_oracle_paths():
    g = LATTICES[2]
    far = (2 ** 70, -3)
    assert_same_ball(gf.ball(g, far, 2), gf.ball(reference(g), far, 2))
    assert_same_edges(g, gf.ball(g, far, 2))
    # each coordinate fits int64, but the bounding box does not
    assert_same_edges(g, gf.region_from_vertices(g, [(0, 0), (2 ** 40, 2 ** 40)]))


def test_ball_whose_box_exceeds_int64_keys_takes_the_oracle_loop():
    # Z^32, R = 1: 65 vertices in a padded box of 5^32 ~ 2.3e22 keys
    g = gf.lattice_generator(32)
    b = gf.ball(g, (7,) * 32, 1)
    assert len(b) == 65 and b.coords is None
    assert_same_ball(b, gf.ball(reference(g), (7,) * 32, 1))
    assert_same_edges(g, b)


class Unreadable:
    """Stands in for a vertex tuple that must not be read."""

    def _fail(self, *args):
        raise AssertionError("region.vertices was read")

    __iter__ = __len__ = __getitem__ = __contains__ = _fail


def test_lattice_ball_edges_come_from_its_coordinates():
    g = LATTICES[3]
    b = gf.ball(g, (2, 0, -5), 6)
    want = region_edges(reference(g), b)
    b.vertices = Unreadable()
    got = region_edges(g, b)
    for name in ("ei", "ej", "w", "bi", "bw"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.n == want.n


def test_lattice_ball_and_edges_skip_the_oracle(monkeypatch):
    g = gf.lattice_generator(3)
    calls = []
    oracle = g._neighbor_fn

    def counted(x):
        calls.append(x)
        return oracle(x)
    monkeypatch.setattr(g, "_neighbor_fn", counted)
    b = gf.ball(g, (1, -2, 3), 16)
    edges = region_edges(g, b)
    assert len(b) == 6017 and 2 * len(edges.ei) + len(edges.bi) == 6 * len(b)
    assert calls == [(1, -2, 3)]   # validating the center only
