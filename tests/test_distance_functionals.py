"""Distance functionals over whole trajectories against per-instant references.

The references recompute every quantity one stored time at a time, from
the l1 distance on the lattice and plain Python sums over ``field_at(t)``.
"""
import numpy as np
import pytest

import graphflow as gf
from graphflow import graphs


def _l1(x, y):
    return sum(abs(a - b) for a, b in zip(x, y))


def _reference_mass_radius(traj, t, eps, x0):
    u = traj.field_at(t)
    g = traj.generator
    target = (1.0 - eps) * traj.masses[0]
    by_radius = {}
    for v, val in u.values.items():
        d = _l1(v, x0)
        by_radius[d] = by_radius.get(d, 0.0) + abs(val) * g.degree(v)
    held = 0.0
    for R in range(max(by_radius) + 1):
        held += by_radius.get(R, 0.0)
        if held >= target:
            return R
    raise AssertionError("reference radius not reached")


def _reference_moment(traj, t, alpha, x0):
    u = traj.field_at(t)
    return sum(_l1(v, x0) ** alpha * val * traj.generator.degree(v)
               for v, val in u.values.items())


def _reference_ball_measure(traj, R, x0):
    return sum(traj.generator.degree(v) for v in traj.region.vertices
               if _l1(v, x0) <= R)


@pytest.fixture(scope="module")
def z1_run():
    z1 = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1e2, 41))
    return gf.solve_cauchy(z1, gf.delta_field(z1, (0,), 10.0), cfg)


@pytest.fixture(scope="module")
def z2_run():
    z2 = gf.lattice_generator(2)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1e2, 61), n0=16)
    return gf.solve_cauchy(z2, gf.delta_field(z2, (0, 0), 10.0), cfg)


# at x0 = 20 the balls B_R(x0) reach past the truncation radius 32, so their
# measures within the region differ from those of balls around the center
@pytest.mark.parametrize("run,x0", [("z1_run", None), ("z1_run", (2,)),
                                    ("z1_run", (20,)), ("z2_run", None),
                                    ("z2_run", (1, 0))])
def test_functionals_match_per_instant_reference(request, run, x0):
    traj = request.getfixturevalue(run)
    assert traj.certified
    point = traj.region.center if x0 is None else x0
    radii = gf.mass_radius(traj, 0.5, x0=x0)
    tight = gf.mass_radius(traj, 0.01, x0=x0)
    moments = gf.moment(traj, 0.5, x0=x0)
    assert radii.shape == moments.shape == traj.times.shape
    for k, t in enumerate(traj.times):
        assert radii[k] == _reference_mass_radius(traj, t, 0.5, point)
        assert tight[k] == _reference_mass_radius(traj, t, 0.01, point)
        ref = _reference_moment(traj, t, 0.5, point)
        assert moments[k] == pytest.approx(ref, rel=1e-12, abs=1e-300)
    chk = gf.check_lower_bound(traj, gf.FkProfile.lattice(traj.generator.dimension, 3.0),
                               x0=x0)
    assert (chk.extra["radii"] == radii[1:]).all()
    measures = chk.lhs / (2.0 * traj.sup_norms[1:])
    for R, measure in zip(chk.extra["radii"], measures):
        assert measure == pytest.approx(_reference_ball_measure(traj, R, point),
                                        rel=1e-12)


@pytest.fixture
def bfs_runs(monkeypatch):
    calls = []
    real = graphs.rings

    def counting(g, x0, r_max=None):
        calls.append(x0)
        return real(g, x0, r_max)

    monkeypatch.setattr(graphs, "rings", counting)
    return calls


@pytest.mark.parametrize("check", ["lower", "moment"])
def test_checks_run_at_most_two_bfs(z2_run, bfs_runs, check):
    lat = gf.FkProfile.lattice(2, 3.0)
    run_check = {
        "lower": lambda x0: gf.check_lower_bound(z2_run, lat, x0=x0),
        "moment": lambda x0: gf.check_moment_bound(z2_run, 0.5, lat, x0=x0),
    }[check]
    run_check(None)
    assert bfs_runs == []
    run_check((1, 0))
    assert 1 <= len(bfs_runs) <= 2


def test_lower_bound_support_hypothesis_is_measured_from_x0(z1_run):
    # data at 0 sits 3 away from x0 = 3, and every half-mass radius around
    # x0 stays below 6, so every instant violates s0 <= R // 2
    chk = gf.check_lower_bound(z1_run, gf.FkProfile.lattice(1, 3.0), x0=(3,))
    assert (chk.extra["radii"] < 6).all()
    assert chk.extra["excluded"].all()
    centered = gf.check_lower_bound(z1_run, gf.FkProfile.lattice(1, 3.0))
    assert not centered.extra["excluded"].any()
