import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflow as gf
from graphflow.operators import monotonicity_gamma, phi
from test_bfs_properties import finite_graph   # random connected weighted graphs

exponents = st.sampled_from([2.5, 3.0, 4.0])


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
    # the ball and its neighbour table twice: as the edge arrays (the oracles'
    # input) and as the kernel, the two roles _sub_ball_edges splits
    from graphflow.graphs import region_edges
    region = gf.ball(g, x0, R)
    table = region_edges(g, region)
    return g, region, table, table


def _weighted_ball_edges():
    # B_1(o) = {o, v, c}: v has two stubs of different weights (to a and b),
    # c one stub (to a), and the internal edges have weights of their own
    g = gf.generator_from_edges([("o", "v", 1.5), ("o", "c", 0.75), ("v", "a", 0.5),
                                 ("v", "b", 3.0), ("c", "a", 2.0), ("a", "b", 1.25)])
    g, region, edges, table = _ball_edges(g, "o", 1)
    v = region.index["v"]
    assert sorted(edges.bw[edges.bi == v].tolist()) == [0.5, 3.0]
    return g, region, edges, table


def _sub_ball_edges(g, x0, R, r):
    # B_r with its own edge arrays and the table of B_R restricted to its
    # first |B_r| vertices, which B_r is: the cut edges become stubs of B_r
    g, region, _, table = _ball_edges(g, x0, R)
    sub = gf.ball(g, x0, r)
    assert region.vertices[:len(sub)] == sub.vertices
    return g, sub, gf.graphs.region_edges(g, sub), table.restrict(len(sub))


def _has_stubs(table):
    return bool((table.nbr == table.n).any())


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
    g, region, edges, table = maker()
    assert len(edges.bi) > 0 and _has_stubs(table)
    rng = np.random.default_rng(12)
    for _ in range(5):
        vals = rng.standard_normal(len(region))
        u = gf.Field(g, dict(zip(region.vertices, vals.tolist())))
        div = table.divergence(p)(vals)
        assert div.dtype == np.float64
        lap = div / region.degrees
        oracle = np.array([gf.apply_plaplacian(g, u, p, x) for x in region.vertices])
        scale = np.abs(vals).max() ** (p - 1.0)
        assert np.abs(lap - oracle).max() <= 1e-12 * scale
        assert np.array_equal(_make_rhs(table, region.degrees, p)(0.0, vals), lap)
        energy = gf.dirichlet_energy(g, u, p, region)
        assert abs(2.0 * edges.power_sum(vals, p) - energy) <= 1e-12 * energy


# ----------------------------------------------------------------------
# the neighbour-table kernel against a bincount oracle

def _odd_power(s, p):   # as the kernel, NeighbourTable.divergence, rounds it
    if p == 3.0:
        return s * np.abs(s)
    if p == 4.0:
        return s * (s * s)
    return s * np.abs(s) ** (p - 2.0)


def bincount_divergence(edges, p, u):
    """Each internal flux once, added at its tail and taken from its head,
    minus the stub term; also the per-vertex sum of the terms' sizes."""
    n = edges.n
    f = _odd_power(u[edges.ej] - u[edges.ei], p) * edges.w
    stub = _odd_power(u[edges.bi], p) * edges.bw
    # an empty index array makes bincount return int64 zeros
    out = np.bincount(edges.ei, f, n).astype(np.float64) - np.bincount(edges.ej, f, n)
    out -= np.bincount(edges.bi, stub, n)
    size = (np.bincount(edges.ei, np.abs(f), n) + np.bincount(edges.ej, np.abs(f), n)
            + np.bincount(edges.bi, np.abs(stub), n))
    return out, size


def _state(seed, n):
    # random signs and magnitudes, with exact zeros as on an active ball's rim
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    u[rng.random(n) < 0.3] = 0.0
    return u


def _assert_agrees(edges, table, p, seed, rtol=1e-13):
    u = _state(seed, edges.n)
    want, size = bincount_divergence(edges, p, u)
    got = table.divergence(p)(u)
    assert got.dtype == np.float64 and got.shape == (edges.n,)
    assert np.all(np.abs(got - want) <= rtol * size)


@settings(max_examples=60, deadline=None)
@given(st.integers(-20, 20), st.integers(0, 12), st.data(), exponents,
       st.integers(0, 2 ** 32 - 1))
def test_edge_table_is_bitwise_the_bincount_formula_on_z1(x0, R, data, p, seed):
    # every column has two terms, f(x -> x+1) and -f(x-1 -> x) or a stub's
    r = data.draw(st.integers(0, R))
    _, _, edges, table = _sub_ball_edges(gf.lattice_generator(1), (x0,), R, r)
    u = _state(seed, edges.n)
    assert np.array_equal(table.divergence(p)(u), bincount_divergence(edges, p, u)[0])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["Z^2", "Z^3", "K_3 x Z^1"]), st.data(), exponents,
       st.integers(0, 2 ** 32 - 1))
def test_edge_table_agrees_with_the_bincount_formula(graph, data, p, seed):
    g, x0, R_max = {"Z^2": (gf.lattice_generator(2), (1, -2), 6),
                    "Z^3": (gf.lattice_generator(3), (0, 0, 0), 4),
                    "K_3 x Z^1": (gf.product_generator(gf.complete_graph(3), 1),
                                  (1, 0), 5)}[graph]
    R = data.draw(st.integers(0, R_max))   # R = 0: stubs only, no internal edges
    _assert_agrees(*_sub_ball_edges(g, x0, R, data.draw(st.integers(0, R)))[2:], p, seed)


@settings(max_examples=60, deadline=None)
@given(finite_graph(), st.integers(0, 3), exponents, st.integers(0, 2 ** 32 - 1))
def test_edge_table_on_random_weighted_graphs(edge_list, R, p, seed):
    # irregular degrees: short columns are padded, and a small ball has stubs
    g = gf.generator_from_edges(edge_list)
    _assert_agrees(*_ball_edges(g, edge_list[0][0], R)[2:], p, seed)
    _, _, whole, table = _ball_edges(g, edge_list[0][0], 8)   # covers the graph
    assert len(whole.bi) == 0 and not _has_stubs(table)
    u = _state(seed, whole.n)
    _, size = bincount_divergence(whole, p, u)
    # every flux leaves one end and enters the other
    assert abs(np.add.reduce(table.divergence(p)(u))) <= 1e-13 * size.sum()


def test_short_columns_pad_with_the_vertex_itself():
    # vertex 1 joined to 0, 2 and 3: columns of 3 and of 1 entries.  Padding
    # with the zero exterior slot instead would compute (0 - 1e120)^3 * 0,
    # an overflow and a NaN, where every difference is exactly 0
    g = gf.generator_from_edges([("0", "1", 1.0), ("1", "2", 2.0), ("1", "3", 1.0)])
    _, _, edges, table = _ball_edges(g, "1", 1)
    assert edges.n == 4 and len(edges.bi) == 0
    pads = table.W == 0.0   # two at each leaf, pointing at the leaf itself
    assert table.nbr.shape == (3, 4) and np.count_nonzero(pads) == 6
    assert np.array_equal(table.nbr[pads], np.nonzero(pads)[1])
    assert np.array_equal(table.divergence(4.0)(np.full(4, 1e120)), np.zeros(4))
    # K_4 has no short column: the same result as the bincount formula
    k4 = gf.generator_from_edges([(a, b, 1.0 + i) for i, (a, b) in enumerate(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])])
    _, _, edges, table = _ball_edges(k4, "a", 1)
    const = np.full(4, 1e120)
    assert np.array_equal(table.divergence(4.0)(const), np.zeros(4))
    assert np.array_equal(bincount_divergence(edges, 4.0, const)[0], np.zeros(4))
    for seed in range(5):
        _assert_agrees(edges, table, 4.0, seed)


def test_edge_table_returns_a_fresh_array():
    # _initial_step keeps f0 while it evaluates f1
    table = _ball_edges(gf.lattice_generator(2), (0, 0), 4)[3]
    div = table.divergence(3.0)
    u0, u1 = _state(1, table.n), _state(2, table.n)
    f0 = div(u0)
    f0_copy = f0.copy()
    f1 = div(u1)
    assert not np.shares_memory(f0, f1)
    assert np.array_equal(f0, f0_copy)
    assert np.array_equal(div(u0), f0)


def _random_tree_edges(seed, weighted):
    # a random tree about "0" in B_3, 1 to 3 children a vertex and one child
    # past the ball at each vertex of ring 3: every column lists its
    # children, then its one parent, then at most one stub, so it sums as
    # the bincount formula does, bit for bit.  Irregular degrees pad the
    # short columns; the weights are random or all 1
    rng = np.random.default_rng(seed)
    edges, ring = [], ["0"]
    for depth in range(4):
        below = []
        for v in ring:
            for _ in range(1 if depth == 3 else int(rng.integers(1, 4))):
                below.append(str(len(edges) + 1))
                w = float(rng.uniform(0.25, 4.0)) if weighted else 1.0
                edges.append((v, below[-1], w))
        ring = below
    return _ball_edges(gf.generator_from_edges(edges), "0", 3)


KERNEL = {   # each table and whether its weight multiply is skipped
    "Z^1": (lambda: _ball_edges(gf.lattice_generator(1), (0,), 6), True),
    "weighted tree": (lambda: _random_tree_edges(3, weighted=True), False),
    "unit tree": (lambda: _random_tree_edges(3, weighted=False), True),
}


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("case", sorted(KERNEL))
def test_the_right_hand_side_is_bitwise_the_bincount_formula(case, p, K):
    # the unit tables skip the weight multiply (x * 1.0 == x, and a pad's
    # difference is exactly +0): still the formula's bits, per block
    from graphflow.solver import _make_rhs
    maker, unit = KERNEL[case]
    _, region, edges, table = maker()
    assert table.unit is unit and _has_stubs(table)
    assert (table.W == 0.0).any() == (case != "Z^1")   # the trees have pads
    blocks = [_state(10 * K + b, table.n) for b in range(K)]
    rhs = _make_rhs(table.stacked(K), np.tile(region.degrees, K), p)
    want = [bincount_divergence(edges, p, u)[0] / region.degrees for u in blocks]
    assert np.array_equal(rhs(0.0, np.concatenate(blocks)), np.concatenate(want))


def test_every_table_decides_unit_from_its_own_weights():
    quotient = gf.graphs.OrbitQuotient(gf.ball(gf.lattice_generator(2), (0, 0), 5)).table
    tables = [(KERNEL[case][0]()[3], unit) for case, (_, unit) in KERNEL.items()]
    # a weight-2 edge past the center's: the first column alone is all 1s
    g = gf.generator_from_edges([("o", "a", 1.0), ("a", "b", 2.0), ("b", "c", 1.0)])
    path = _ball_edges(g, "o", 3)[3]
    for table, unit in [*tables, (quotient, True), (path, False)]:
        assert table.unit is unit
        for t in (table.restrict(table.n - 2), table.restrict(1), table.stacked(3),
                  table.restrict(2).stacked(2)):
            assert t.unit is (set(np.unique(t.W)) <= {0.0, 1.0})
    assert path.restrict(1).unit and not path.restrict(2).stacked(2).unit


# ----------------------------------------------------------------------
# K states stacked block by block: the kernel of K disjoint copies

STACKED = {
    "Z^1": lambda: _sub_ball_edges(gf.lattice_generator(1), (0,), 9, 6),
    "Z^2": lambda: _sub_ball_edges(gf.lattice_generator(2), (1, -2), 6, 4),
    "Z^3": lambda: _sub_ball_edges(gf.lattice_generator(3), (0, 0, 0), 4, 3),
    "K_3 x Z^1": lambda: _sub_ball_edges(gf.product_generator(gf.complete_graph(3), 1),
                                         (1, 0), 5, 2),
    # degrees 2 and 3, so the short columns are padded, and weighted stubs
    "weighted": _weighted_ball_edges,
}


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
@pytest.mark.parametrize("case", sorted(STACKED))
def test_stacked_blocks_are_bitwise_their_own_calls(case, p, K):
    # a solver step evaluates the rows of a lockstep run as one state of K
    # blocks; each block must round as the call on it alone
    g, region, _, table = STACKED[case]()
    assert _has_stubs(table)
    blocks = [_state(100 * K + b, table.n) for b in range(K)]
    blocks[1][:] = 0.0   # a zero row next to nonzero ones
    blocks[-1] *= 1e-150   # and one near underflow
    stacked = table.stacked(K)
    assert stacked.n == K * table.n and table.stacked(1) is table
    got = stacked.divergence(p)(np.concatenate(blocks))
    want = np.concatenate([table.divergence(p)(u) for u in blocks])
    assert got.dtype == np.float64 and np.array_equal(got, want)
    # the solver's right-hand side divides each block by its degrees
    from graphflow.solver import _make_rhs
    rhs = _make_rhs(stacked, np.tile(region.degrees, K), p)
    one = _make_rhs(table, region.degrees, p)
    assert np.array_equal(rhs(0.0, np.concatenate(blocks)),
                          np.concatenate([one(0.0, u) for u in blocks]))


RESTRICTED = {"Z^1": (gf.lattice_generator(1), (3,), 12),
              "Z^2": (gf.lattice_generator(2), (1, -2), 7),
              "Z^3": (gf.lattice_generator(3), (0, 0, 0), 5),
              "K_3 x Z^1": (gf.product_generator(gf.complete_graph(3), 1), (1, 0), 6),
              "weighted": (gf.generator_from_edges(
                  [("o", "v", 1.5), ("o", "c", 0.75), ("v", "a", 0.5), ("v", "b", 3.0),
                   ("c", "a", 2.0), ("a", "b", 1.25), ("b", "d", 0.5)]), "o", 3)}


@pytest.mark.parametrize("case", sorted(RESTRICTED))
def test_restricted_and_stacked_tables_are_c_contiguous(case):
    # a strided table is several times slower to gather through
    table = _ball_edges(*RESTRICTED[case])[3]
    for t in (table, table.restrict(table.n - 1), table.restrict(1), table.stacked(3),
              table.restrict(2).stacked(2)):
        assert t.nbr.flags.c_contiguous and t.W.flags.c_contiguous
        assert t.nbr.shape == t.W.shape and t.nbr.dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(RESTRICTED)), st.data(), exponents, st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_a_restricted_table_is_bitwise_the_whole_table(graph, data, p, K, seed):
    # the active ball B_r of a step: its state vanishes from ring r + 1 on,
    # where the whole table reads the zeros the restricted one reads at its
    # zero slot, each entry in its place
    g, x0, R = RESTRICTED[graph]
    region, _, table = _ball_edges(g, x0, R)[1:]
    r = data.draw(st.integers(0, R))
    m = int(np.count_nonzero(region.distances <= r))
    blocks = [_state(seed + b, len(region)) for b in range(K)]
    for u in blocks:
        u[m:] = 0.0
    want = np.concatenate([table.divergence(p)(u)[:m] for u in blocks])
    got = table.restrict(m).stacked(K).divergence(p)(np.concatenate([u[:m] for u in blocks]))
    assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# the kernel's input buffer, its out= and its two-entry sum

def _z1_vertex_table(R):
    _, region, _, table = _ball_edges(gf.lattice_generator(1), (2,), R)
    return table, region.degrees


def _z1_orbit_table(R):
    # the quotient of a centred Z^1 ball: orbit 0 meets orbit 1 twice
    orbits = gf.graphs.OrbitQuotient(gf.ball(gf.lattice_generator(1), (0,), R))
    return orbits.table, np.full(orbits.table.n, orbits.degree)


def _weighted_cycle_table(R):
    # a ball on a cycle with weights 0.25 to 2: two weighted entries a column
    g = gf.generator_from_edges([(str(k), str((k + 1) % 8), 0.25 * (k + 1))
                                 for k in range(8)])
    region, _, table = _ball_edges(g, "0", R)[1:]
    return table, region.degrees


TWO_ENTRY = {
    "Z^1 vertices": _z1_vertex_table,
    "Z^1 orbits": _z1_orbit_table,
    "weighted cycle": _weighted_cycle_table,
}


def reduced_divergence(table, p, u, degrees=None):
    """The kernel's terms summed down each column by ``np.add.reduce``, and
    the columns whose terms are all -0: the reduction starts from +0, so it
    sums them to +0 where one add of two -0 terms gives -0."""
    d = _odd_power(np.append(u, 0.0)[table.nbr] - u, p) * table.W
    out = np.add.reduce(d, axis=0)
    negative_zeros = ((d == 0.0) & np.signbit(d)).all(axis=0)
    return (out if degrees is None else out / degrees), negative_zeros


def _assert_the_reduction(got, want, negative_zeros):
    # bit for bit, NaNs too, but -0 for the reduction's +0 on a column of -0 terms
    assert got.tobytes() == np.where(negative_zeros, -0.0, want).tobytes()


def _wide_state(seed, n, low):
    # magnitudes 10^low to 10^(low + 40) with random signs and exact zeros
    rng = np.random.default_rng(seed)
    u = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, low + 40.0, n)
    u[rng.random(n) < 0.2] = 0.0
    return u


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(TWO_ENTRY)), st.integers(0, 9), st.data(), exponents,
       st.floats(-200.0, 80.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_the_two_entry_sum_is_the_reduction_in_place_or_not(case, R, data, p, low, divide,
                                                            seed):
    # the stage loop's call (the state in the kernel's input, the value
    # into out) and a call on a copy give the same bits, and one add of two
    # entries is np.add.reduce's sum of them; subnormal and infinite terms too
    table, degrees = TWO_ENTRY[case](R)
    table = table.restrict(data.draw(st.integers(1, table.n)))
    degrees = degrees[:table.n] if divide else None
    assert len(table.nbr) == 2
    u = _wide_state(seed, table.n, low)
    div = table.divergence(p, degrees)
    with np.errstate(over="ignore", invalid="ignore"):   # (1e120)^3 is inf
        want = reduced_divergence(table, p, u, degrees)
        div.input[...] = u
        _assert_the_reduction(div(div.input), *want)
        assert div.input.tobytes() == u.tobytes()
        out = np.empty(table.n)
        assert div(u, out=out) is out
        _assert_the_reduction(out, *want)
        _assert_the_reduction(div(u.copy()), *want)


@pytest.mark.parametrize("case", sorted(TWO_ENTRY))
def test_subnormal_fluxes_sum_as_the_reduction(case):
    # differences of 1e-160 to 1e-154 square below the normal range at p = 3
    table, degrees = TWO_ENTRY[case](6)
    u = _state(5, table.n) * 1e-157
    got = table.divergence(3.0, degrees)(u)
    tiny = np.finfo(float).tiny
    assert ((got != 0.0) & (np.abs(got) < tiny)).any()
    _assert_the_reduction(got, *reduced_divergence(table, 3.0, u, degrees))
    # 0 between two values of -1e-170: both terms underflow to -0
    u = np.full(table.n, -1e-170)
    u[0] = 0.0
    got = table.divergence(3.0, degrees)(u)
    want, negative_zeros = reduced_divergence(table, 3.0, u, degrees)
    assert negative_zeros[0] and np.signbit(got[0]) and not np.signbit(want[0])
    _assert_the_reduction(got, want, negative_zeros)
