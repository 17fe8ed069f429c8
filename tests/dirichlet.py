"""A zero-Dirichlet ball reference for the tests.

The solver has one mode: its ball grows before the solution could reach
the ring, so every solve is one of the Cauchy problem.  A test that needs
the flow kept on a ball, whose ring the solution may reach and leak
through, calls :func:`kept_on`: ``_integrate`` with the callbacks of
``solve_truncated``, except that the last ball is never left.
"""
from typing import NamedTuple

import numpy as np

import graphflow as gf
from graphflow import solver
from graphflow.graphs import OrbitQuotient, region_edges


class Kept(NamedTuple):
    """The rows of a run kept on its last ball, with the fields of a Trajectory."""

    region: object
    times: np.ndarray
    values: np.ndarray
    diagnostics: dict
    history: list
    orbits: object


def kept_on(g, u0, cfg, center, radii):
    """``_integrate`` growing through the balls ``radii`` and then kept on the last.

    The growth callbacks are those of ``solve_truncated``, except that the
    last ball is never left: the run goes on there with zero Dirichlet
    values outside, as on a fixed ball, and may leak through its ring.  One
    radius is the fixed-ball solve.  The error norms divide by ``|B_n0|``
    for ``n0 = first_radius``, counted in the first ball.  The solver's own
    ``_rows`` puts the data on the orbit quotient (unless ``_ORBIT_QUOTIENT``
    is off) or on the vertices, as there, and orbit rows are lifted to the
    last ball.  The history has one record per ball, with the keys of
    ``solve_truncated``'s.
    """
    regions = [gf.ball(g, center, n) for n in radii]
    [y0], orbits = solver._rows(regions[0], [u0])

    def on(region, orbits):   # the ball's unknowns, as in solve_truncated
        if orbits is not None:
            table, sizes, dist = orbits.table, orbits.sizes, orbits.dist
            degrees = np.full(len(dist), orbits.degree)
        else:
            table, sizes = region_edges(g, region), 1
            dist, degrees = region.distances, region.degrees

        def rhs_on(m):   # through the module attribute, which tests may wrap
            return solver._make_rhs(table.restrict(m), degrees[:m], cfg.p)
        balls.append((region, table.edge_count(sizes), orbits))
        return dist, rhs_on, orbits

    def grow(t):
        region = regions[len(balls)]
        dist, rhs_on, orbits = on(region, None if balls[-1][2] is None else OrbitQuotient(region))
        # report no ring on the last ball, so that it is never left
        return dist, rhs_on, len(balls) < len(regions), orbits

    balls = []
    dist, rhs_on, orbits = on(regions[0], orbits)
    n0 = solver.first_radius(u0, cfg, center)
    Y, diag = solver._integrate(
        rhs_on, dist, y0, float(cfg.instants[-1]), cfg.instants, cfg.rtol, cfg.atol,
        solver.MAX_STEPS, grow=grow if len(regions) > 1 else None,
        norm_size=int(np.count_nonzero(regions[0].distances <= n0)), orbits=orbits)
    region, _, orbits = balls[-1]
    history = [{"n": reg.radius, "vertices": len(reg), "edges": count, **counts}
               for (reg, count, *_), counts in zip(balls, diag["balls"])]
    return Kept(region, np.concatenate([[0.0], cfg.instants]),
                Y if orbits is None else Y[:, orbits.lift()],
                {name: diag[name] for name in solver.ROW_DIAGNOSTICS.names},
                history, orbits)
