"""Property tests of the flow's exact invariances on random data.

Mass ``sum u d_w`` is conserved on a finite graph that fits inside the
ball, since every edge flux leaves one end and enters the other; and the
flow preserves order, ``u01 >= u02`` implies ``u1 >= u2`` at all times.
The bounds are those of the benchmark's mass guard and comparison
ensemble: 1e-12 relative to the initial mass, and a worst gap of
``-1e-8 ||u01||_inf``.

The flow is also invariant under amplitude-time scaling: ``Delta_p`` is
homogeneous of degree ``p - 1``, so ``lam u(x, lam^(p-2) t)`` solves it
with data ``lam u0``.  The two solves take different steps (the starting
step is not scale-covariant), so they agree to the integration
tolerance, not to round-off.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graphflow as gf
from test_bfs_properties import finite_graph   # random connected weighted graphs

MASS_RTOL = 1e-12
GAP_RTOL = 1e-8

exponents = st.sampled_from([2.5, 3.0, 4.0])


@settings(max_examples=50, deadline=None)
@given(finite_graph(), exponents, st.data())
def test_mass_is_conserved_on_a_finite_graph_inside_the_ball(edges, p, data):
    g = gf.generator_from_edges(edges)
    nodes = sorted({v for e in edges for v in e[:2]})
    n = len(nodes)
    values = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    if not any(values):
        values[0] = 1.0
    u0 = gf.Field(g, dict(zip(nodes, values)))
    cfg = gf.SolverConfig(p=p, instants=gf.log_instants(0.01, 10.0, 8))
    traj = gf.solve_truncated(g, u0, cfg, n, center=nodes[0])
    assert len(traj.region) == n and len(traj.edges.bi) == 0   # no stubs
    m0 = traj.masses[0]
    assert np.abs(traj.masses - m0).max() <= MASS_RTOL * m0


COMPARISON_CFG = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                                 rtol=1e-10, atol=1e-14, n0=10)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["k2xz1", "z2"]), st.data())
def test_comparison_principle_on_random_ordered_pairs(graph, data):
    if graph == "k2xz1":
        g, center = gf.product_generator(gf.complete_graph(2), 1), (0, 0)
    else:
        g, center = gf.lattice_generator(2), (0, 0)
    support = gf.ball(g, center, 2).vertices
    k = len(support)
    base = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k))
    bump = data.draw(st.lists(st.floats(0.0, 0.5), min_size=k, max_size=k))
    u02 = gf.Field(g, dict(zip(support, base)))
    u01 = gf.Field(g, {v: x + b for v, x, b in zip(support, base, bump)})
    assume(u01.values)
    gap = gf.comparison_check(g, u01, u02, COMPARISON_CFG, center=center)
    assert gap >= -GAP_RTOL * u01.sup_norm()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]), exponents, st.floats(0.1, 10.0), st.data())
def test_amplitude_time_scaling(N, p, lam, data):
    g, center = gf.lattice_generator(N), (0,) * N
    support = gf.ball(g, center, 2 if N == 1 else 1).vertices
    values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(support),
                                max_size=len(support)))
    u0 = gf.Field(g, dict(zip(support, values)))
    assume(u0.values)
    v0 = gf.Field(g, {x: lam * y for x, y in u0.values.items()})
    times = gf.log_instants(0.01, 10.0, 9)
    rtol, atol = 1e-8, 1e-12
    # u is read at lam^(p-2) t; the error norms of v are lam times those of u
    u = gf.solve_cauchy(g, u0, gf.SolverConfig(p=p, instants=lam ** (p - 2) * times,
                                               rtol=rtol, atol=atol, n0=8), center=center)
    v = gf.solve_cauchy(g, v0, gf.SolverConfig(p=p, instants=times, rtol=rtol,
                                               atol=lam * atol, n0=8), center=center)
    # both certified balls hold the solution and one is a prefix of the other
    small, large = sorted((u.values.shape[1], v.values.shape[1]))
    assert u.region.vertices[:small] == v.region.vertices[:small]
    lam_u = np.pad(lam * u.values, ((0, 0), (0, large - u.values.shape[1])))
    v_vals = np.pad(v.values, ((0, 0), (0, large - v.values.shape[1])))
    # one local error of at most rtol (relative to the sup norm, which does
    # not grow) per accepted step of either solve; the flow contracts the
    # sup distance of two solutions, so it does not amplify them
    steps = int(u.diagnostics["accepted"][-1] + v.diagnostics["accepted"][-1])
    bound = steps * (rtol * lam * u0.sup_norm() + lam * atol)
    assert np.abs(lam_u - v_vals).max() <= bound
