"""Centred lattice data are solved with one unknown per symmetry orbit.

The signed coordinate permutations about a ``Z^N`` center fix each ring
and commute with ``Delta_p``, so data constant on their orbits stay so.
``solve_truncated`` then integrates one unknown per orbit, on a neighbour
table whose column ``O`` lists the orbits of its first vertex's ``2N``
neighbours, with error norms summed over the lifted state, and keeps the
orbit rows, which ``values`` lifts to the vertices of the last ball.  The
sums run in another order, so the lifted solve equals the solve on the
vertices up to rounding, with the same steps; any other datum takes the vertex path
unchanged.  The table's entries count the directed weights
``w(O, O') = sum_{x in O, y in O'} w(x, y) / |O|`` exactly as the sums over
the vertex edge arrays give them, and the trajectory's functionals sum
over the orbits.
"""

import json
import tracemalloc
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphflow as gf
from graphflow import cli, estimates, solver
from graphflow.graphs import NeighbourTable, OrbitQuotient, region_edges
from dirichlet import kept_on
from test_integration_error import sup_gaps

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _both(g, data, cfg, center, partners=()):
    """The solve as shipped and the same solve with the quotient switched off."""
    u0 = gf.Field(g, data)
    traj = gf.solve_cauchy(g, u0, cfg, center=center, partners=partners)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_ORBIT_QUOTIENT", False)
        full = gf.solve_cauchy(g, u0, cfg, center=center, partners=partners)
    return traj, full


def _orbit_data(g, center, radius, values):
    """The datum on ``B_radius(center)`` with ``values[k]`` on its ``k``-th orbit."""
    region = gf.ball(g, center, radius)
    orbit_of = OrbitQuotient(region).lift()
    return {v: values[orbit_of[i]] for i, v in enumerate(region.vertices)}


def first_vertices(orbits):
    """The index of each orbit's first vertex in its ball, read off the whole lift."""
    # orbits are numbered in the order their first vertices come
    return np.searchsorted(np.maximum.accumulate(orbits.lift()), np.arange(len(orbits.keys)))


def unique_quotient(region):
    """The orbit quotient by ``np.unique`` over the ball's vertices: the oracle.

    Orbits are keyed by the sorted absolute offsets of the vertices from
    the center and numbered by their first vertex.  Returns the orbit of
    each vertex, the first vertex of each orbit and the quotient's table:
    column ``O`` lists the orbits of the first vertex's ``2N`` neighbours in
    unit-offset order (the zero slot past the radius), at weight 1.
    """
    coords = region.coords if region.coords is not None else np.array(region.vertices)
    center, offsets = np.array(region.center), region.generator.unit_offsets
    R = region.radius

    def keys_of(rel):
        return np.sort(np.abs(rel), axis=1)

    known, first, inverse = np.unique(keys_of(coords - center), axis=0,
                                      return_index=True, return_inverse=True)
    order = np.argsort(first)                 # the orbits by first vertex
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    orbit_of, first, k = rank[inverse.ravel()], first[order], len(order)
    rel = coords[first, None] - center + offsets
    inside = np.abs(rel).sum(axis=2) <= R
    _, at = np.unique(np.concatenate([known, keys_of(rel[inside])]), axis=0,
                      return_inverse=True)
    nbr = np.full((k, len(offsets)), k)
    nbr[inside] = rank[at.ravel()[k:]]
    return orbit_of, first, NeighbourTable(np.ascontiguousarray(nbr.T),
                                           np.ones((len(offsets), k)))


# The two solves take their steps on error estimates that round apart; where
# an estimate is mostly rounding noise (the first, tiny steps) the step size
# controller turns that into step sizes a fraction of a percent apart, and
# the values then differ by a fraction of the integration error.  Measured
# over 700 random data like these at rtol 1e-8: at most 0.076 of the vertex
# solve's integration error, up to 2.9e-10 ||u0||_inf; the step totals
# were equal in each.
REFINEMENT_SHARE = 0.25


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.sampled_from([2.5, 3.0, 4.0]), st.integers(-3, 3),
       st.integers(0, 2), st.data())
def test_the_quotient_solve_is_the_vertex_solve(N, p, shift, radius, data):
    g = gf.lattice_generator(N)
    center = (shift,) * N
    region = gf.ball(g, center, radius)
    k = OrbitQuotient(region).table.n
    value = st.sampled_from([0.0, 0.5, -1.0, 2.0]) | st.floats(-2.0, 2.0)
    values = data.draw(st.lists(value, min_size=k, max_size=k))
    if not any(values):
        values[0] = 1.0
    u0 = _orbit_data(g, center, radius, values)
    cfg = gf.SolverConfig(p=p, instants=gf.log_instants(0.01, 2.0, 6))
    traj, full = _both(g, u0, cfg, center)
    assert traj.history[-1]["unknowns"] < traj.history[-1]["active_vertices"]
    for key in ("accepted", "rejected"):
        assert traj.diagnostics[key][-1] == full.diagnostics[key][-1], key
    # the integration error of the vertex solve, measured by refinement
    fine_cfg = gf.SolverConfig(p=p, instants=cfg.instants, rtol=cfg.rtol / 100,
                               atol=cfg.atol / 100)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_ORBIT_QUOTIENT", False)
        fine = gf.solve_cauchy(g, gf.Field(g, u0), fine_cfg, center=center)
    error = sup_gaps(full.values, fine.values).max()
    assert traj.values.shape == full.values.shape
    gap = np.abs(traj.values - full.values).max()
    assert gap <= max(1e-10 * max(map(abs, values)), REFINEMENT_SHARE * error)
    # the certificate carries over: an orbit is 0 iff each of its vertices is
    assert traj.certified_radius == full.certified_radius
    for t in (traj, full):
        assert not t.values[:, t.region.distances == t.certified_radius].any()


def _quotient_calls(monkeypatch):
    calls = []
    build = solver.OrbitQuotient

    def counted(region):
        calls.append(len(region))
        return build(region)
    monkeypatch.setattr(solver, "OrbitQuotient", counted)
    return calls


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_asymmetric_data_take_the_vertex_path_bit_for_bit(monkeypatch):
    z2 = gf.lattice_generator(2)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                          rtol=1e-10, atol=1e-14, n0=10)
    calls = _quotient_calls(monkeypatch)
    # symmetric under the reflections, not under the swap of coordinates
    u0 = {(1, 0): 1.0, (-1, 0): 1.0, (0, 0): 2.0}
    traj, full = _both(z2, u0, cfg, (0, 0))
    # the first ball's quotient, which the orbit test reads, is the only one built
    assert calls == [traj.history[0]["vertices"]] and traj.orbits is None
    assert _same_bits(traj.values, full.values)
    # one asymmetric row of a lockstep call puts every row on the vertices
    sym = _orbit_data(z2, (0, 0), 1, [2.0, 1.0])
    partner = gf.Field(z2, {**sym, (0, 1): 0.5})
    calls.clear()
    traj, full = _both(z2, sym, cfg, (0, 0), partners=(partner,))
    assert calls == [traj.history[0]["vertices"]] and traj.orbits is None
    for a, b in [(traj, full), (traj.partners[0], full.partners[0])]:
        assert _same_bits(a.values, b.values)
        assert a.history == b.history
    # the symmetric datum alone takes the quotient, built once on each ball
    # it grows through
    calls.clear()
    traj, _ = _both(z2, sym, cfg, (0, 0))
    assert calls == [h["vertices"] for h in traj.history]


def walk_orbit_constant(values, center):
    """Whether a ``vertex -> value`` dict on ``Z^N`` is constant on orbits: the oracle.

    The dict walk the solver once ran: a vertex and its image under each
    generator of the signed coordinate permutations about ``center``
    (negating the first offset, swapping the first two, shifting them
    cyclically) carry equal values, and off the support both are 0.
    """
    moves = [lambda d: (-d[0], *d[1:]), lambda d: (d[1], d[0], *d[2:]),
             lambda d: (*d[1:], d[0])][:1 if len(center) == 1 else 3]
    for v, x in values.items():
        d = tuple(a - c for a, c in zip(v, center))
        if any(values.get(tuple(map(add, center, move(d)))) != x for move in moves):
            return False
    return True


def placed(region, data):
    """``solver._rows`` of ``data`` dicts on ``region``, and the same on the vertices."""
    fields = [gf.Field(region.generator, d) for d in data]
    rows, orbits = solver._rows(region, fields)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_ORBIT_QUOTIENT", False)
        vertex, none = solver._rows(region, fields)
    assert none is None and vertex.shape == (len(data), len(region))
    # orbit rows lifted to the vertices are the vertex placement, bit for bit
    assert _same_bits(vertex if orbits is None else rows[:, orbits.lift()], vertex)
    return rows, orbits


def constant_on_orbits(g, values, center):
    """The solver's orbit test of ``values`` on the ball about ``center`` that holds them."""
    radius = gf.Field(g, values).support_radius(center)
    return placed(gf.ball(g, center, radius), [values])[1] is not None


def test_orbit_constant_is_exact():
    z3 = gf.lattice_generator(3)
    center = (1, -2, 0)
    values = _orbit_data(z3, center, 2, [1.0, -0.5, 0.25, 0.25, 2.0])

    def test(data, at):   # the solver's test, which the dict walk agrees with
        got = constant_on_orbits(z3, data, at)
        assert got == walk_orbit_constant(data, at)
        return got
    assert test(values, center)
    assert not test(values, (0, 0, 0))
    for v in set(values) - {center}:   # a change or a removal at any other vertex breaks it
        assert not test({**values, v: np.nextafter(values[v], 9.0)}, center)
        assert not test({w: x for w, x in values.items() if w != v}, center)
    # a datum invariant under the reflections and the swap of the first two
    # coordinates, not under the cyclic shift
    assert not test({(0, 0, 1): 1.0, (0, 0, -1): 1.0}, (0, 0, 0))
    assert test({}, center)


def test_rows_of_a_lockstep_call():
    # one asymmetric datum puts every row on the vertices; the zero field is
    # constant on orbits
    z2 = gf.lattice_generator(2)
    region = gf.ball(z2, (0, 0), 3)
    sym = _orbit_data(z2, (0, 0), 1, [2.0, 1.0])
    rows, orbits = placed(region, [sym, {**sym, (0, 1): 0.5}])
    assert orbits is None and rows.shape == (2, len(region))
    rows, orbits = placed(region, [sym, {}, sym])
    assert orbits is not None and rows.shape == (3, len(orbits.keys))
    assert not rows[1].any() and _same_bits(rows[0], rows[2])
    # off Z^N, or on a ball with no int64 keys, the rows lie on the vertices
    for region in (region.bare(), gf.ball(gf.product_generator(gf.complete_graph(2), 1),
                                          (0, 0), 2)):
        rows, orbits = solver._rows(region, [gf.Field(region.generator, {})])
        assert orbits is None and rows.shape == (1, len(region)) and not rows.any()


@pytest.mark.parametrize("quotient", [True, False])
def test_rows_refuse_support_past_the_ball(monkeypatch, quotient):
    # the same message whether the data would lie on orbits or on the vertices
    monkeypatch.setattr(solver, "_ORBIT_QUOTIENT", quotient)
    z2 = gf.lattice_generator(2)
    region = gf.ball(z2, (0, 0), 1)
    sym = _orbit_data(z2, (0, 0), 2, [2.0, 1.0, 0.5, 0.5])
    for r in (region, region.bare()):
        for data in ([sym], [{(0, 0): 1.0}, {(0, 0): 1.0, (2, 0): 1.0, (0, -2): 1.0}]):
            with pytest.raises(ValueError, match=r"support at \(-2, 0\)|support at \(0, -2\)"):
                solver._rows(r, [gf.Field(z2, d) for d in data])
    message = r"^data support at \(0, -2\) lies outside B_1\(\(0, 0\)\)$"
    with pytest.raises(ValueError, match=message):
        solver._rows(region, [gf.Field(z2, {(0, -2): 1.0, (2, 0): 1.0})])


@st.composite
def orbit_cases(draw):
    """Data on ``Z^1``-``Z^4`` about a shifted center, as ``(N, center, radius, data)``.

    Whole orbits of ``B_radius``, then perhaps an orbit cut short, one value
    an ulp off, a vertex or an orbit past the ball, another center or no data.
    """
    N = draw(st.integers(1, 4))
    center = tuple(draw(st.lists(st.integers(-3, 3), min_size=N, max_size=N)))
    radius = draw(st.integers(0, 5 - N // 2))
    g = gf.lattice_generator(N)
    k = OrbitQuotient(gf.ball(g, center, radius)).table.n
    values = draw(st.lists(st.sampled_from([0.0, 1.0, -0.5, 2.0]) | st.floats(-2.0, 2.0),
                           min_size=k, max_size=k))
    data = {v: x for v, x in _orbit_data(g, center, radius, values).items() if x != 0.0}
    support = sorted(data)
    change = draw(st.sampled_from(["none", "cut", "ulp", "past", "moved", "empty"]))
    if change in ("cut", "ulp") and support:
        v = draw(st.sampled_from(support))
        data = ({w: x for w, x in data.items() if w != v} if change == "cut"
                else {**data, v: np.nextafter(data[v], 9.0)})
    elif change == "past":   # a whole orbit of the next ring, or one vertex of it
        far = _orbit_data(g, center, radius + 1, [0.0] * k + [1.0] * 99)
        far = {v: x for v, x in far.items() if x and v not in data}
        data.update(far if draw(st.booleans()) else dict([min(far.items())]))
    elif change == "moved":
        center = tuple(c + draw(st.integers(-1, 1)) for c in center)
    elif change == "empty":
        data = {}
    return N, center, radius, data


@settings(max_examples=150, deadline=None)
@given(orbit_cases())
@example((3, (1, -2, 0), 2, _orbit_data(gf.lattice_generator(3), (1, -2, 0), 2,
                                        [1.0, -0.5, 0.25, 0.25, 2.0])))
@example((3, (0, 0, 0), 2, _orbit_data(gf.lattice_generator(3), (1, -2, 0), 2,
                                       [1.0, -0.5, 0.25, 0.25, 2.0])))
@example((3, (0, 0, 0), 1, {(0, 0, 1): 1.0, (0, 0, -1): 1.0}))
@example((3, (1, -2, 0), 2, {}))
def test_the_array_orbit_test_is_the_dict_walk(case):
    # the solver's decision on the ball that holds the support, and on the
    # keyed ball B_radius: the same decision when it holds the support,
    # else the support-outside error
    N, center, radius, data = case
    g = gf.lattice_generator(N)
    want = walk_orbit_constant(data, center)
    assert constant_on_orbits(g, data, center) == want
    region = gf.ball(g, center, radius)
    if gf.Field(g, data).support_radius(center) <= radius:
        assert (placed(region, [data])[1] is not None) == want
    else:
        with pytest.raises(ValueError, match="lies outside"):
            solver._rows(region, [gf.Field(g, data)])


@pytest.mark.parametrize("N, radius", [(1, 5), (2, 6), (3, 5)])
def test_the_quotient_of_a_ball(N, radius):
    g = gf.lattice_generator(N)
    center = (2,) * N
    region = gf.ball(g, center, radius)
    table = region_edges(g, region)
    q = OrbitQuotient(region)
    orbit_of, first, e = q.lift(), first_vertices(q), q.table
    distances, degrees = region.distances[first], region.degrees[first]
    sizes = np.bincount(orbit_of)
    assert _same_bits(sizes, q.sizes) and _same_bits(distances, q.dist)
    assert (degrees == q.degree).all()
    # each orbit is numbered by its first vertex
    assert np.array_equal(first, np.unique(orbit_of, return_index=True)[1])
    # orbits lie on one ring, in ring order, and a smaller ball's are a prefix
    assert np.array_equal(region.distances, distances[orbit_of])
    assert (np.diff(distances) >= 0).all()
    smaller = gf.ball(g, center, radius - 2)
    assert np.array_equal(OrbitQuotient(smaller).lift(), orbit_of[:len(smaller)])
    assert np.array_equal(degrees, region.degrees[:len(sizes)])
    # a ball too large for int64 box keys has no coords: keyed by its vertex tuples
    bare = region.bare()
    assert bare.coords is None
    assert np.array_equal(OrbitQuotient(bare).lift(), orbit_of)
    # |O| w(O, O') is the edge weight between the two orbits, both ways
    d = _directed(e)
    assert np.array_equal(sizes[d["ei"]] * d["w"], sizes[d["ej"]] * d["wj"])
    assert np.array_equal(sizes[d["bi"]] * d["bw"],
                          np.bincount(orbit_of[table.bi], table.bw)[d["bi"]])
    # a state constant on orbits: the lifted quotient divergence is the
    # vertex divergence, on the ball and on its sub-balls
    u = np.random.default_rng(N).standard_normal(len(sizes))
    for m in (len(sizes), int(np.count_nonzero(distances <= radius - 3))):
        n = int(sizes[:m].sum())   # the vertices of those orbits, a prefix
        full = table.restrict(n).divergence(3.0)(u[orbit_of[:n]])
        lifted = e.restrict(m).divergence(3.0)(u[:m])[orbit_of[:n]]
        assert np.abs(full - lifted).max() <= 1e-13 * np.abs(u).max() ** 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10), st.lists(st.integers(-4, 4), min_size=4,
                                                       max_size=4), st.booleans())
def test_the_key_build_is_the_unique_build(N, radius, shift, bare):
    # the orbits built from their keys are the np.unique build's, bit for
    # bit, on keyed and bare balls, each lift read whole or ring by ring
    g = gf.lattice_generator(N)
    center = tuple(shift[:N])
    region = gf.ball(g, center, radius)
    if bare:
        region = region.bare()
    orbit_of, first, table = unique_quotient(region)
    q = OrbitQuotient(region)
    if radius > 1:   # a prefix first, then the rest
        assert _same_bits(q.lift(len(gf.ball(g, center, radius // 2)) + 1),
                          orbit_of[:len(gf.ball(g, center, radius // 2)) + 1])
    for got, want in [(q.lift(), orbit_of), (first_vertices(q), first), (q.table.nbr, table.nbr),
                      (q.table.W, table.W), (q.sizes, np.bincount(orbit_of)),
                      (q.dist, region.distances[first]), (q.ends, np.cumsum(q.sizes))]:
        assert got.dtype == want.dtype and _same_bits(got, want)
    assert q.table.nbr.flags.c_contiguous and q.table.W.flags.c_contiguous
    assert q.degree == 2 * N and (region.degrees == q.degree).all()
    # an orbit's first vertex is the center minus its key, the key's
    # parts descending: the lexicographically least vertex of the orbit
    keys = q.keys
    assert (np.diff(keys, axis=1) <= 0).all() and (keys >= 0).all()
    assert _same_bits(np.array(region.vertices)[first], np.array(center) - keys)
    assert _same_bits(keys.sum(axis=1), q.dist)


@pytest.mark.parametrize("name", ["lattice1d_p3_propagation", "lattice2d_p3_decay"])
def test_shipped_config_on_the_quotient(monkeypatch, name):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    g = cli.build_generator(cfg["graph"])
    u0, center = cli.build_initial_field(g, cfg["initial_data"])
    scfg = cli.build_solver_config(cfg["solver"])
    calls = _quotient_calls(monkeypatch)
    traj, full = _both(g, u0.values, scfg, center)
    assert calls
    assert traj.certified_radius == full.certified_radius
    # the same balls and steps; steps taken on sums that round apart grow
    # the ball at times that agree to rounding
    keys = ("n", "accepted", "rejected", "rhs_evals", "redone", "active_vertices")
    assert [[h[k] for k in keys] for h in traj.history] == \
        [[h[k] for k in keys] for h in full.history]
    assert np.allclose([h["t"] for h in traj.history], [h["t"] for h in full.history],
                       rtol=1e-9, atol=0.0)
    assert np.abs(traj.values - full.values).max() <= 1e-12 * u0.sup_norm()
    m0 = traj.masses[0]
    assert np.abs(traj.masses - m0).max() <= 1e-12 * m0


def _pair_sums(region, edges):
    """The quotient's directed weights summed over the vertex edge arrays: the oracle.

    ``w(O, O') = sum_{x in O, y in O'} w(x, y) / |O|``, one entry per pair
    of orbits with an edge between them, lower orbit first (``ei``, ``ej``),
    in the order of ``np.unique``, with ``wj = w(O', O)``; stubs summed per
    orbit the same way (``bi``, ``bw``).
    """
    orbit_of = unique_quotient(region)[0]
    k = int(orbit_of.max()) + 1
    sizes = np.bincount(orbit_of)
    a, b = orbit_of[edges.ei], orbit_of[edges.ej]
    cross = a != b
    pair, at = np.unique(np.minimum(a, b)[cross] * k + np.maximum(a, b)[cross],
                         return_inverse=True)
    total = np.bincount(at, edges.w[cross])
    oi, oj = pair // k, pair % k
    stub = np.bincount(orbit_of[edges.bi], edges.bw, minlength=k)
    bi = np.flatnonzero(stub)
    return {"ei": oi, "ej": oj, "w": total / sizes[oi], "wj": total / sizes[oj],
            "bi": bi, "bw": stub[bi] / sizes[bi]}


def _directed(table):
    """A quotient table's entries summed per orbit pair, laid out as :func:`_pair_sums`."""
    k = table.n
    weights = np.zeros((k, k + 1))   # column k: the stubs
    np.add.at(weights, (np.broadcast_to(np.arange(k), table.nbr.shape), table.nbr), table.W)
    oi, oj = np.nonzero(np.triu(weights[:, :k], 1))
    bi = np.flatnonzero(weights[:, k])
    return {"ei": oi, "ej": oj, "w": weights[oi, oj], "wj": weights[oj, oi],
            "bi": bi, "bw": weights[bi, k]}


@pytest.mark.parametrize("N, radii", [(1, [0, 1, 2, 7, 40]), (2, [0, 1, 2, 9]),
                                      (3, [0, 1, 3, 8]), (4, [0, 1, 2, 5])])
@pytest.mark.parametrize("shift", [0, 3, -2])
def test_the_representative_build_is_the_pair_sum_build(N, radii, shift):
    # each orbit's weights are counted from its first vertex's 2N neighbours
    g = gf.lattice_generator(N)
    center = tuple(shift + i for i in range(N))
    for radius in radii:
        region = gf.ball(g, center, radius)
        for r in (region, region.bare()):   # int64 keys, vertex tuples
            table = OrbitQuotient(r).table
            got, want = _directed(table), _pair_sums(region, region_edges(g, region))
            assert table.nbr.shape == (2 * N, len(OrbitQuotient(r).keys))
            assert (table.W == 1.0).all() and table.nbr.flags.c_contiguous
            for name in ("ei", "ej", "w", "wj", "bi", "bw"):
                a, b = got[name], want[name]
                assert a.dtype == b.dtype and _same_bits(a, b), (radius, name)



@pytest.mark.parametrize("N, radius", [(1, 9), (2, 7), (3, 5), (4, 4)])
@pytest.mark.parametrize("shift", [0, 3, -2])
def test_the_quotient_table_is_the_vertex_table_at_first_vertices(N, radius, shift):
    # on a state constant on orbits, the kernel at orbit O is the vertex
    # kernel at its first vertex: the same 2N terms, summed in offset order
    # on the quotient.  On Z^1 two terms, so bitwise
    g = gf.lattice_generator(N)
    region = gf.ball(g, tuple(shift + i for i in range(N)), radius)
    q = OrbitQuotient(region)
    orbit_of, first, table = q.lift(), first_vertices(q), q.table
    vertex = region_edges(g, region)
    rng = np.random.default_rng(N * 10 + shift)
    for p in (2.5, 3.0, 4.0):
        u = rng.standard_normal(table.n) * 10.0 ** rng.uniform(-3.0, 3.0, table.n)
        u[rng.random(table.n) < 0.3] = 0.0
        got = table.divergence(p)(u)
        want = vertex.divergence(p)(u[orbit_of])[first]
        if N == 1:
            assert _same_bits(got, want)
            continue
        ext = np.append(u[orbit_of], 0.0)
        terms = np.abs(ext[vertex.nbr] - u[orbit_of]) ** (p - 1.0) * vertex.W
        assert np.all(np.abs(got - want) <= 1e-13 * terms.sum(axis=0)[first])


def test_a_centred_solve_stays_on_its_orbits(monkeypatch):
    # no vertex edge arrays are built; the functionals sum over orbits and
    # agree with their sums over the vertices
    z3 = gf.lattice_generator(3)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.01, 3.0, 9), n0=6)
    calls = []
    build = solver.region_edges

    def counted(g, region):
        calls.append(len(region))
        return build(g, region)
    monkeypatch.setattr(solver, "region_edges", counted)
    traj = gf.solve_cauchy(z3, gf.delta_field(z3, (0, 0, 0), 30.0), cfg)
    assert calls == [] and traj.orbits is not None and len(traj.history) > 1
    edges = build(z3, traj.region)
    for name in ("ei", "ej", "w", "bi", "bw"):
        assert _same_bits(getattr(traj.edges, name), getattr(edges, name)), name
    assert calls == [len(traj.region)]
    # the history counts the vertex edges of each ball from the orbits
    for h in traj.history:
        e = build(z3, gf.ball(z3, (0, 0, 0), h["n"]))
        assert h["edges"] == len(e.ei) + len(e.bi)
    vertex = solver.Trajectory(cfg, traj.region, traj.times, traj.values,
                               traj.diagnostics)
    assert _same_bits(traj.sup_norms, vertex.sup_norms)
    for eps in (0.5, 0.1, 1e-3):
        assert _same_bits(solver.mass_radius(traj, eps), solver.mass_radius(vertex, eps))
    lq = [(traj.lq_norms(q), vertex.lq_norms(q)) for q in (1.5, 2.0, 4.0)]
    for ours, theirs in [(traj.masses, vertex.masses), *lq]:
        assert np.abs(ours - theirs).max() <= 1e-14 * np.abs(theirs).max()
    # the moment sums over the vertices; so does mass_radius about another
    # vertex, whose distances are not constant on the orbits
    assert _same_bits(solver.moment(traj, 0.5), solver.moment(vertex, 0.5))
    x0 = (1, 0, 0)
    assert _same_bits(solver.mass_radius(traj, 0.5, x0=x0),
                      solver.mass_radius(vertex, 0.5, x0=x0))
    # kept on B_3 the solution reaches the ring: the orbit columns on ring 3
    # read the ring's sups, and the quotient rows there are the vertex rows
    # up to rounding
    u0 = gf.delta_field(z3, (0, 0, 0), 30.0)
    leaky = kept_on(z3, u0, cfg, (0, 0, 0), [3])
    ring = leaky.region.distances == 3
    assert leaky.orbits is not None and leaky.values[1:, ring].any()
    rows, _, dists = solver.Trajectory(cfg, leaky.region, leaky.times,
                                       leaky.values[:, first_vertices(leaky.orbits)],
                                       leaky.diagnostics, orbits=leaky.orbits).summands()
    assert _same_bits(np.abs(rows[:, dists == 3]).max(axis=1),
                      np.abs(leaky.values[:, ring]).max(axis=1))
    monkeypatch.setattr(solver, "_ORBIT_QUOTIENT", False)
    vertex = kept_on(z3, u0, cfg, (0, 0, 0), [3])
    assert vertex.orbits is None
    assert leaky.diagnostics["accepted"][-1] == vertex.diagnostics["accepted"][-1]
    assert np.abs(leaky.values[:, ring] - vertex.values[:, ring]).max() <= 1e-10 * 30.0


@pytest.mark.parametrize("data", [{(0, 0): 2.0, (1, 0): 1.0, (0, 1): 1.0, (-1, 0): 1.0,
                                   (0, -1): 1.0},
                                  {(0, 0): 2.0, (1, 0): 1.0}])
def test_a_stored_trajectory_is_read_on_the_same_orbits(tmp_path, data):
    z2 = gf.lattice_generator(2)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10.0, 9), n0=8)
    traj = gf.solve_cauchy(z2, gf.Field(z2, data), cfg, center=(0, 0))
    cli.export_trajectory(traj, tmp_path, snapshots=True)
    manifest = {"config": {"solver": {"p": 3.0, "t_min": 0.1, "t_max": 10.0,
                                      "num_instants": 9, "n0": 8}},
                "center": "0:0", "certified": traj.certified,
                "certified_radius": traj.certified_radius}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    again = cli.load_trajectory(tmp_path, z2)
    assert _same_bits(again.values, traj.values)
    assert (traj.orbits is not None) == walk_orbit_constant(data, (0, 0))
    if traj.orbits is None:   # asymmetric data: the vertices, both times
        assert again.orbits is None
    else:
        assert _same_bits(again.orbits.lift(), traj.orbits.lift())
        assert _same_bits(first_vertices(again.orbits), first_vertices(traj.orbits))
        assert again.rows.flags.f_contiguous and traj.rows.flags.f_contiguous
    assert _same_bits(again.rows, traj.rows)
    # the moment's vertex sum rounds by the layout of the lifted rows
    assert _same_bits(solver.moment(again, 0.5), solver.moment(traj, 0.5))
    for name in ("masses", "sup_norms"):
        assert _same_bits(getattr(again, name), getattr(traj, name)), name
    assert _same_bits(again.lq_norms(2.0), traj.lq_norms(2.0))


def test_orbit_rows_are_lifted_on_each_read():
    # the trajectory keeps the rows it was solved on; values lifts them on
    # every read, in the layout of the lift the solve made before
    z2 = gf.lattice_generator(2)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10.0, 9), n0=8)
    traj = gf.solve_cauchy(z2, gf.delta_field(z2, (0, 0), 5.0), cfg)
    lift, first = traj.orbits.lift(), first_vertices(traj.orbits)
    assert traj.rows.shape == (len(traj.times), len(first)) and traj.rows.flags.f_contiguous
    values = traj.values
    assert traj.values is not values and "values" not in vars(traj)
    assert values.flags.f_contiguous and _same_bits(values, traj.rows[:, lift])
    assert _same_bits(values[:, first], traj.rows)
    for k, t in enumerate(traj.times):
        assert _same_bits(traj.row(k), values[k])
        assert traj.field_at(t).values == {v: x for v, x in zip(traj.region.vertices,
                                                                values[k]) if x != 0.0}


CENTRED_Z3 = {
    "graph": {"family": "lattice", "N": 3},
    "initial_data": {"kind": "delta", "center": [0, 0, 0], "amplitude": 30.0},
    "solver": {"p": 3.0, "t_min": 0.01, "t_max": 30.0, "num_instants": 50, "n0": 8},
    "profile": {"kind": "lattice", "c0": 1.0},
    "checks": [{"type": "decay_fit", "window": [1, 30]},
               {"type": "propagation_fit", "window": [1, 30]},
               {"type": "sup_bound", "window": [1, 30]},
               {"type": "lower_bound"},
               {"type": "moment_bound", "alpha": 0.5, "window": [1, 30]},
               {"type": "entropy_bound", "window": [1, 30]}],
}


PER_VERTEX = {"coords", "degrees", "distances", "vertices", "index"}


def test_a_centred_run_builds_no_vertex_tuples(monkeypatch, tmp_path):
    # the quotient solve and the checks before the moment read the orbits:
    # until the moment's vertex sum no ball holds a per-vertex array, and
    # the lift reaches only the rings the error norms read.  The vertex
    # reads after it (the moment, the entropy's edge arrays) build
    # coordinates, distances and degrees, and none of them the tuples
    built, rings, before = [], [], []

    def recorded(g, x0, R):
        built.append(gf.ball(g, x0, R))
        return built[-1]
    prefixes = gf.graphs._ring_prefixes

    def ring_prefixes(N, lo, hi):
        rings.append(hi)
        return prefixes(N, lo, hi)
    vertex_sum = estimates.moment

    def moment(traj, *args, **kwargs):
        before.append((traj.region.radius, max(rings),
                       [PER_VERTEX & set(vars(region)) for region in built]))
        return vertex_sum(traj, *args, **kwargs)
    monkeypatch.setattr(solver, "ball", recorded)
    monkeypatch.setattr(gf.graphs, "_ring_prefixes", ring_prefixes)
    monkeypatch.setattr(estimates, "moment", moment)
    report = cli.run(CENTRED_Z3, tmp_path)
    assert report["certified"] and len(report["checks"]) == 6 and len(built) > 1
    [(radius, lifted, held)] = before
    assert lifted < radius and not any(held)
    for region in built:
        assert region.keyed
        assert "vertices" not in vars(region) and "index" not in vars(region)
    assert {"coords", "degrees", "distances"} <= set(vars(built[-1]))


def test_a_centred_power_law_solve_sets_up_on_arrays(monkeypatch):
    # Z^2 power-law data on B_20 (841 vertices) with n0 unset: the support
    # radius, the orbit test and the placement read the support's offsets,
    # so up to the integration the oracle is asked about the center only and
    # no ball holds a per-vertex array
    z2 = gf.lattice_generator(2)
    u0 = estimates.PowerLawSpec(2, 1.0).field(z2, 20)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.01, 1.0, 5))
    asked, built, seen = [], [], []
    oracle = z2._neighbor_fn
    monkeypatch.setattr(z2, "_neighbor_fn", lambda x: asked.append(x) or oracle(x))

    def recorded(g, x0, R):
        built.append(gf.ball(g, x0, R))
        return built[-1]
    integrate = solver._integrate

    def entered(*args, **kwargs):
        seen.append((list(asked), [PER_VERTEX & set(vars(region)) for region in built]))
        return integrate(*args, **kwargs)
    monkeypatch.setattr(solver, "ball", recorded)
    monkeypatch.setattr(solver, "_integrate", entered)
    traj = gf.solve_cauchy(z2, u0, cfg, center=(0, 0))
    [(before, held)] = seen
    assert traj.orbits is not None and traj.history[0]["n"] == 28
    assert set(before) == {(0, 0)} and len(before) <= 2 and not any(held)


def test_a_centred_solve_holds_its_orbit_rows_not_vertex_rows():
    # Z^3 B_24: 19,649 vertices in 575 orbits.  What the trajectory holds
    # after the solve is its orbit rows, the orbits and the part of the lift
    # the error norms read; its 64 rows lifted would take 9.6 MiB, its
    # vertex tuples about 2 MiB
    z3 = gf.lattice_generator(3)
    u0 = gf.delta_field(z3, (0, 0, 0), 30.0)
    gf.solve_cauchy(z3, u0, gf.SolverConfig(p=3.0, instants=[0.01, 1.0], n0=4))   # warm
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.01, 300.0, 63), n0=16)
    tracemalloc.start()
    try:
        traj = gf.solve_cauchy(z3, u0, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    region = traj.region
    assert region.radius == 24 and len(region) == 19_649 and traj.rows.shape == (64, 575)
    # the ball holds no per-vertex array, and the lift reaches the largest
    # active ball only
    assert not PER_VERTEX & set(vars(region))
    lift = traj.orbits.lift(traj.history[-1]["active_vertices"])
    assert len(lift) < len(region)
    assert held <= traj.rows.nbytes + lift.nbytes + 2 ** 18
    assert held < traj.values.nbytes / 8


def test_the_lower_bound_reads_the_orbits_as_the_vertices(monkeypatch):
    # the ball measures (exact integers) and the support radius read off
    # the orbit rows are the vertex sums' bit for bit
    z3 = gf.lattice_generator(3)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.01, 300.0, 20), n0=6)
    u0 = _orbit_data(z3, (1, 0, -1), 1, [3.0, 0.5])
    traj = gf.solve_cauchy(z3, gf.Field(z3, u0), cfg, center=(1, 0, -1))
    assert traj.orbits is not None
    vertex = solver.Trajectory(cfg, traj.region, traj.times, traj.values,
                               traj.diagnostics)
    profile = gf.FkProfile.lattice(3, 3.0)
    ours, theirs = gf.check_lower_bound(traj, profile), gf.check_lower_bound(vertex, profile)
    for name in ("lhs", "rhs", "ratio"):
        assert _same_bits(getattr(ours, name), getattr(theirs, name)), name
    assert ours.verdict == theirs.verdict
    for name in ("radii", "excluded", "scaled_ratio"):
        assert _same_bits(ours.extra[name], theirs.extra[name]), name
    assert ours.extra["excluded"].any() and not ours.extra["excluded"].all()
