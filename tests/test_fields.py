import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflow as gf
from graphflow.fields import vertex_from_str, vertex_to_str
from oracles import lq_norm


@pytest.fixture(scope="module")
def z1():
    return gf.lattice_generator(1)


def test_norms_on_known_field(z1):
    f = gf.Field(z1, {(0,): 2.0})
    assert f.sup_norm() == 2.0
    assert lq_norm(f, 2) == math.sqrt(8.0)
    assert lq_norm(f, 1) == 4.0   # the mass


def test_off_support_reads_are_zero(z1):
    f = gf.Field(z1, {(0,): 1.0})
    assert f[(17,)] == 0.0
    assert len(f) == 1


def test_zero_values_dropped(z1):
    f = gf.Field(z1, {(0,): 1.0, (1,): 0.0})
    assert len(f) == 1


def test_nonfinite_rejected(z1):
    with pytest.raises(ValueError):
        gf.Field(z1, {(0,): float("nan")})
    with pytest.raises(ValueError):
        gf.Field(z1, {(0,): float("inf")})


def test_support_in_canonical_order(z1):
    f = gf.Field(z1, {(4,): 1.0, (-2,): 1.0, (0,): 1.0})
    assert f.support() == [(-2,), (0,), (4,)]


def test_dominates_and_scaled(z1):
    f = gf.Field(z1, {(0,): 2.0, (1,): 1.0})
    h = gf.Field(z1, {(0,): 1.0})
    assert f.dominates(h)
    assert not h.dominates(f)
    assert gf.Field(z1, {v: 0.5 * x for v, x in f.values.items()})[(0,)] == 1.0


def test_vertex_str_round_trip(z1):
    z2 = gf.lattice_generator(2)
    assert vertex_from_str(vertex_to_str((1, -2)), z2) == (1, -2)
    assert vertex_from_str(vertex_to_str((0,)), z1) == (0,)
    product = gf.product_generator(gf.complete_graph(3), 1)
    assert vertex_from_str(vertex_to_str((2, -5)), product) == (2, -5)
    # a custom graph's ids are text, numerals too: a tuple only where the graph has it
    custom = gf.graphs.generator_from_edges([("1", "node_a", 1.0), ("node_a", "2:3", 1.0)])
    for v in ("node_a", "1", "2:3"):
        assert vertex_from_str(vertex_to_str(v), custom) == v
    # text that is no vertex stays text, for the field to refuse
    assert vertex_from_str("node_a", z1) == "node_a"
    assert vertex_from_str("1:2", z1) == "1:2"
    with pytest.raises(gf.graphs.UnknownVertexError):
        gf.Field(z1, {vertex_from_str("1:2", z1): 1.0})


def test_csv_rejects_a_repeated_vertex(z1):
    # 01 and 1 are both the vertex (1,) of Z^1
    twice = r"vertex id '1' is listed twice \(the second time as '01'\)"
    with pytest.raises(ValueError, match=twice):
        gf.Field.from_csv_text(z1, "vertex_id,value\n1,1.0\n0,2.0\n01,3.0\n")
    with pytest.raises(ValueError, match="vertex id 'a' is listed twice"):
        custom = gf.graphs.generator_from_edges([("a", "b", 1.0)])
        gf.Field.from_csv_text(custom, "vertex_id,value\na,1.0\na,1.0\n")


@pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, 1e-300, -1.2345678901234567e300,
                                   7.062513617503984e-17])
def test_csv_round_trip_bit_exact(z1, value):
    f = gf.Field(z1, {(0,): value, (-3,): -value})
    g = gf.Field.from_csv_text(z1, f.to_csv_text())
    assert g.values == f.values


def test_csv_rejects_missing_header(z1):
    with pytest.raises(ValueError):
        gf.Field.from_csv_text(z1, "0,1.0\n")


def test_constructors(z1):
    d = gf.delta_field(z1, (0,), 3.0)
    assert d.values == {(0,): 3.0}
    ind = gf.ball_indicator_field(z1, (0,), 1, 2.0)
    assert ind.values == {(-1,): 2.0, (0,): 2.0, (1,): 2.0}


def test_support_radius(z1):
    f = gf.Field(z1, {(0,): 1.0, (5,): 1.0, (-3,): 2.0})
    assert f.support_radius((0,)) == 5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3) | st.floats(-1e-9, 1e-9), min_size=1, max_size=25),
       st.integers(0, 2 ** 32))
def test_norms_do_not_depend_on_the_order_of_the_support(values, seed):
    # math.fsum rounds the exact sum once, so the dict order cannot move a bit
    z2 = gf.lattice_generator(2)
    pairs = list(zip(gf.ball(z2, (0, 0), 3).vertices, values))
    shuffled = random.Random(seed).sample(pairs, len(pairs))
    f, g = gf.Field(z2, dict(pairs)), gf.Field(z2, dict(shuffled))
    for q in (1.0, 1.5, 2.0, 4.0):
        assert lq_norm(f, q).hex() == lq_norm(g, q).hex()
