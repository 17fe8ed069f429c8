import numpy as np
import pytest

import graphflow as gf
from graphflow.operators import monotonicity_gamma, phi


@pytest.fixture(scope="module")
def z1():
    return gf.lattice_generator(1)


@pytest.fixture(scope="module")
def z2():
    return gf.lattice_generator(2)


def random_field(g, region, rng, scale=1.0):
    return gf.Field(g, {v: float(x) for v, x in
                        zip(region.vertices, scale * rng.standard_normal(len(region)))})


def test_odd_power_at_zero():
    assert phi(0.0, 2.5) == 0.0
    assert phi(-2.0, 3.0) == -4.0


def test_plaplacian_constant_field_vanishes(z2):
    region = gf.ball(z2, (0, 0), 2)
    u = gf.Field(z2, {v: 3.7 for v in region.vertices})
    # interior vertices: all neighbors carry the same value
    for x in [(0, 0), (1, 0), (0, -1)]:
        assert gf.apply_plaplacian(z2, u, 3, x) == 0.0


def test_plaplacian_point_mass_hand_values(z1):
    u = gf.delta_field(z1, (0,))
    assert gf.apply_plaplacian(z1, u, 3, (0,)) == -1.0
    assert gf.apply_plaplacian(z1, u, 3, (1,)) == 0.5


def test_plaplacian_rejects_small_p(z1):
    u = gf.delta_field(z1, (0,))
    with pytest.raises(ValueError):
        gf.apply_plaplacian(z1, u, 2.0, (0,))


def test_dirichlet_energy_point_mass(z1):
    region = gf.region_from_vertices(z1, [(0,)])
    f = gf.Field(z1, {(0,): 1.0})
    # two incident edges, each counted twice as ordered pairs
    assert gf.dirichlet_energy(z1, f, 3, region) == 4.0


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_dirichlet_energy_adjacent_pair(z1, p):
    region = gf.region_from_vertices(z1, [(0,), (1,)])
    f = gf.Field(z1, {(0,): 1.0, (1,): 1.0})
    # only the two boundary edges contribute, doubled
    assert gf.dirichlet_energy(z1, f, p, region) == 4.0


def test_dirichlet_energy_zero_field(z1):
    region = gf.region_from_vertices(z1, [(0,), (1,)])
    assert gf.dirichlet_energy(z1, gf.Field(z1, {}), 3, region) == 0.0


def test_dirichlet_energy_rejects_outside_support(z1):
    region = gf.region_from_vertices(z1, [(0,)])
    f = gf.Field(z1, {(2,): 1.0})
    with pytest.raises(ValueError):
        gf.dirichlet_energy(z1, f, 3, region)


def test_dirichlet_energy_homogeneous(z2):
    rng = np.random.default_rng(5)
    region = gf.ball(z2, (0, 0), 2)
    f = random_field(z2, region, rng)
    for p in (2.5, 3.0, 4.0):
        e1 = gf.dirichlet_energy(z2, f, p, region)
        lam = 1.7
        e2 = gf.dirichlet_energy(z2, f.scaled(lam), p, region)
        assert abs(e2 - abs(lam) ** p * e1) <= 1e-12 * e2


def test_sbp_zero_test_function_is_exact_zero(z2):
    rng = np.random.default_rng(1)
    region = gf.ball(z2, (0, 0), 3)
    u = random_field(z2, region, rng)
    assert gf.summation_by_parts_residual(z2, u, gf.Field(z2, {}), 3) == 0.0


def test_sbp_residual_random_pairs(z2):
    rng = np.random.default_rng(2)
    region = gf.ball(z2, (0, 0), 3)
    for _ in range(20):
        u = random_field(z2, region, rng)
        f = random_field(z2, region, rng)
        assert gf.summation_by_parts_residual(z2, u, f, 3, relative=True) <= 1e-12


def test_sbp_with_ball_indicator(z2):
    # f = indicator of B_n turns the identity into the exact boundary-flux
    # balance; the residual stays at roundoff level
    rng = np.random.default_rng(3)
    region = gf.ball(z2, (0, 0), 4)
    u = random_field(z2, region, rng)
    f = gf.ball_indicator_field(z2, (0, 0), 2)
    assert gf.summation_by_parts_residual(z2, u, f, 3, relative=True) <= 1e-12


def test_monotonicity_hand_example():
    # q=1, p=3: both sides equal (a-b)^p, gamma = 1
    assert monotonicity_gamma(1, 3) == 1.0
    assert gf.monotonicity_check(2.0, 1.0, 1.0, 3.0)


def test_monotonicity_near_equal_arguments():
    assert gf.monotonicity_check(1.0 + 1e-9, 1.0, 2.0, 3.0)


def test_monotonicity_random_sweep():
    rng = np.random.default_rng(4)
    count = 0
    while count < 2000:
        lo, hi = np.sort(rng.uniform(0.0, 10.0, 2))
        if lo <= 0.0 or lo == hi:
            continue
        q = float(rng.uniform(1e-6, 5.0))
        p = float(rng.uniform(2.0 + 1e-9, 6.0))
        assert gf.monotonicity_check(float(hi), float(lo), q, p)
        count += 1


def test_monotonicity_rejects_bad_domain():
    with pytest.raises(ValueError):
        gf.monotonicity_check(1.0, 2.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        gf.monotonicity_check(2.0, 1.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        gf.monotonicity_check(2.0, 1.0, 1.0, 2.0)


def _ball_edges(g, x0, R):
    from graphflow.graphs import region_edges
    region = gf.ball(g, x0, R)
    return g, region, region_edges(g, region)


def _weighted_ball_edges():
    # B_1(o) = {o, v, c}: v has two stubs of different weights (to a and b),
    # c one stub (to a), and the internal edges have weights of their own
    g = gf.generator_from_edges([("o", "v", 1.5), ("o", "c", 0.75), ("v", "a", 0.5),
                                 ("v", "b", 3.0), ("c", "a", 2.0), ("a", "b", 1.25)])
    g, region, edges = _ball_edges(g, "o", 1)
    v = region.index["v"]
    assert sorted(edges.bw[edges.bi == v].tolist()) == [0.5, 3.0]
    return g, region, edges


def _sub_ball_edges(g, x0, R, r):
    # B_r cut out of B_R's edge arrays: the cut edges become stubs of B_r
    g, region, edges = _ball_edges(g, x0, R)
    keep = np.flatnonzero(region.distances <= r)
    sub = gf.region_from_vertices(g, [region.vertices[i] for i in keep])
    assert list(sub.vertices) == [region.vertices[i] for i in keep]
    return g, sub, edges.restrict(keep)


# every maker is a lambda, so the case ids stay <lambda>0, <lambda>1, ...
@pytest.mark.parametrize("maker", [
    lambda: _ball_edges(gf.lattice_generator(1), (0,), 4),
    lambda: _ball_edges(gf.lattice_generator(2), (0, 0), 3),
    lambda: _ball_edges(gf.product_generator(gf.complete_graph(2), 1), (0, 0), 3),
    lambda: _weighted_ball_edges(),
    lambda: _ball_edges(gf.lattice_generator(2), (0, 0), 0),   # no internal edges
    lambda: _sub_ball_edges(gf.lattice_generator(2), (0, 0), 4, 2),
])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_edge_kernel_matches_pointwise_oracle(maker, p):
    # the vectorized kernel (solver RHS, eigenvalue gradient, energies)
    # against the dict-based operators, boundary stubs included
    from graphflow.solver import _make_rhs
    g, region, edges = maker()
    assert len(edges.bi) > 0
    rng = np.random.default_rng(12)
    for _ in range(5):
        vals = rng.standard_normal(len(region))
        u = gf.Field(g, dict(zip(region.vertices, vals.tolist())))
        div = edges.divergence(p)(vals)
        assert div.dtype == np.float64
        lap = div / region.degrees
        oracle = np.array([gf.apply_plaplacian(g, u, p, x) for x in region.vertices])
        scale = np.abs(vals).max() ** (p - 1.0)
        assert np.abs(lap - oracle).max() <= 1e-12 * scale
        assert np.array_equal(_make_rhs(edges, region.degrees, p)(0.0, vals), lap)
        energy = gf.dirichlet_energy(g, u, p, region)
        assert abs(2.0 * edges.power_sum(vals, p) - energy) <= 1e-12 * energy
