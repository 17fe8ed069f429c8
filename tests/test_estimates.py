import json

import numpy as np
import pytest

import graphflow as gf
from graphflow import cli
from graphflow.estimates import (balance_time_exponent, check_sup_bound,
                                 l1_sphere_count)
from oracles import lq_norm


@pytest.fixture(scope="module")
def z1():
    return gf.lattice_generator(1)


@pytest.fixture(scope="module")
def lat1():
    return gf.FkProfile.lattice(1, 3.0, 1.0)


@pytest.fixture(scope="module")
def medium_run(z1):
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 200.0, 61))
    return gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)


def test_exponent_helpers():
    assert gf.decay_exponent(1, 3) == 0.25
    assert gf.decay_exponent(2, 3) == 0.4
    assert abs(gf.decay_exponent(1, 4) - 1 / 6) <= 1e-15
    assert gf.propagation_exponent(1, 3) == 0.25
    assert abs(gf.slow_decay_exponent(0.5, 3) - 1 / 7) <= 1e-15
    assert balance_time_exponent(0.5, 3) == 3.5


def test_fit_loglog_recovers_exact_power_law():
    ts = np.geomspace(1.0, 1e4, 60)
    ys = 2.7 * ts ** -0.37
    fit = gf.fit_loglog(ts, ys, (1.0, 1e4))
    assert abs(fit.slope + 0.37) <= 1e-12
    assert abs(fit.r2 - 1.0) <= 1e-12
    assert fit.stderr <= 1e-12


def test_fit_loglog_window_needs_points():
    ts = np.geomspace(1, 100, 30)
    with pytest.raises(ValueError):
        gf.fit_loglog(ts, ts, (1000.0, 2000.0))


def test_fit_pass_logic():
    ts = np.geomspace(1, 100, 30)
    fit = gf.fit_loglog(ts, ts ** 0.5, (1, 100), theoretical=0.5, tolerance=0.01)
    assert fit.passed
    fit2 = gf.fit_loglog(ts, ts ** 0.5, (1, 100), theoretical=0.4, tolerance=0.01)
    assert not fit2.passed


def test_decay_fit_on_run(medium_run):
    fit = gf.fit_decay_exponent(medium_run, (5.0, 200.0),
                                theoretical=-0.25, tolerance=0.06)
    assert fit.passed
    assert fit.n_points >= 10
    assert fit.r2 > 0.999


def test_propagation_fit_on_run(z1):
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 200.0, 61), n0=48)
    traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,), 300.0), cfg)
    fit = gf.fit_propagation_exponent(traj, 0.5, (5.0, 200.0),
                                      theoretical=0.25, tolerance=0.06)
    assert fit.passed


def test_sup_bound_check(medium_run, lat1):
    chk = check_sup_bound(medium_run, lat1, (1.0, 200.0))
    assert np.isfinite(chk.verdict)
    assert chk.tag == "sup_decay_upper"
    assert (chk.ratio > 0).all()
    assert chk.stability((20.0, 200.0)) < 0.3


def test_checks_require_certified_trajectory(z1, lat1, tmp_path):
    # every solve is certified; the one way other rows become a Trajectory
    # is a run directory, and load_trajectory refuses one whose manifest
    # is not certified, so no bound check ever sees such a run
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10.0, 9))
    traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)
    cli.export_trajectory(traj, tmp_path, snapshots=True)
    manifest = {"config": {"solver": {"p": 3.0, "t_min": 0.1, "t_max": 10.0,
                                      "num_instants": 9}},
                "center": "0", "certified_radius": traj.certified_radius}
    for certified in (False, None, 1, "true"):
        (tmp_path / "manifest.json").write_text(json.dumps({**manifest,
                                                            "certified": certified}))
        with pytest.raises(cli.ConfigError, match="not of a certified run"):
            cli.load_trajectory(tmp_path, z1)
    (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "certified": True}))
    loaded = cli.load_trajectory(tmp_path, z1)
    assert check_sup_bound(loaded, lat1, (0.1, 10.0)).verdict == \
        check_sup_bound(traj, lat1, (0.1, 10.0)).verdict
    assert gf.check_lower_bound(loaded, lat1).verdict == gf.check_lower_bound(traj, lat1).verdict


def test_sup_bound_rejects_broken_profile(medium_run):
    vs = np.geomspace(1e-2, 1e4, 120)
    pairs = [(v, v ** -3.0) for v in vs]
    pairs[60] = (vs[60], vs[60] ** -3.0 * 4.0)
    broken = gf.FkProfile.tabulated(pairs, 3.0, 1)
    with pytest.raises(ValueError):
        check_sup_bound(medium_run, broken, (1.0, 200.0))


def test_lower_bound_check(medium_run, lat1):
    chk = gf.check_lower_bound(medium_run, lat1)
    assert chk.extra["holds_everywhere"]
    assert chk.verdict >= 1.0
    assert chk.extra["fitted_gamma0"] > 0
    assert not chk.extra["excluded"].any()  # point data never violates support


def test_moment_bound_check(medium_run, lat1):
    chk = gf.check_moment_bound(medium_run, 0.5, lat1, window=(1.0, 200.0))
    assert np.isfinite(chk.verdict)
    assert chk.extra["alpha"] == 0.5
    with pytest.raises(ValueError):
        gf.check_moment_bound(medium_run, 1.5, lat1, window=(1.0, 200.0))


def test_entropy_bound_check(medium_run, lat1):
    chk = gf.check_entropy_bound(medium_run, lat1, (1.0, 200.0))
    assert np.isfinite(chk.verdict)
    assert (np.diff(chk.lhs) >= 0).all()
    assert (np.diff(chk.rhs) >= 0).all()


# ----------------------------------------------------------------------
# slow decay machinery


def brute_sphere_count(N, r):
    from itertools import product
    return sum(1 for v in product(range(-r, r + 1), repeat=N)
               if sum(abs(c) for c in v) == r)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_sphere_count_against_enumeration(N):
    for r in range(0, 6):
        assert l1_sphere_count(N, r) == brute_sphere_count(N, r)


def test_power_law_spec_validation():
    with pytest.raises(ValueError):
        gf.PowerLawSpec(1, 1.5)          # alpha >= N
    with pytest.raises(ValueError):
        gf.PowerLawSpec(1, 0.5, center_value=0.0)
    spec3 = gf.PowerLawSpec(3, 0.5)
    with pytest.raises(ValueError):
        spec3.lq_tail(10, 8.0)           # analytic tail only for N <= 2
    spec = gf.PowerLawSpec(1, 0.5)
    with pytest.raises(ValueError):
        spec.lq_tail(10, 1.5)            # q <= N/alpha diverges


def test_partial_mass_matches_field_mass(z1):
    spec = gf.PowerLawSpec(1, 0.5)
    f = spec.field(z1, 30)
    assert abs(spec.partial_mass(30) - lq_norm(f, 1)) <= 1e-12 * lq_norm(f, 1)
    assert f[(0,)] == 1.0
    assert f[(9,)] == 9.0 ** -0.5


def test_partial_mass_2d_matches_field_mass():
    z2 = gf.lattice_generator(2)
    spec = gf.PowerLawSpec(2, 1.2)
    f = spec.field(z2, 10)
    assert abs(spec.partial_mass(10) - lq_norm(f, 1)) <= 1e-12 * lq_norm(f, 1)


def test_lq_tail_against_direct_summation():
    spec = gf.PowerLawSpec(1, 0.5)
    q = 4.0
    value, err = spec.lq_tail(20, q)
    # direct oracle: sum far past the analytic cutoff
    rs = np.arange(21, 500001)
    direct = float(2.0 * 2.0 * (rs.astype(float) ** (-0.5 * q)).sum())
    assert err <= 0.01 * value
    assert abs(value - direct) <= err + 1e-9 * direct


def test_slow_decay_T_monotone_and_divergent(lat1):
    spec = gf.PowerLawSpec(1, 0.5)
    Rs = [2, 5, 10, 30, 100, 300, 1000]
    Ts = [gf.slow_decay_T(spec, 4.0, R, lat1) for R in Rs]
    assert all(b > a for a, b in zip(Ts, Ts[1:]))
    assert Ts[-1] > 1e6 * Ts[0] ** 0  # grows without bound on this range


def test_slow_decay_T_oracle_agreement(lat1):
    spec = gf.PowerLawSpec(1, 0.5)
    for R in (10, 50, 200):
        t_default = gf.slow_decay_T(spec, 4.0, R, lat1)
        t_oracle = gf.slow_decay_T(spec, 4.0, R, lat1, annulus_radius=4 * max(R, 100))
        assert abs(t_default - t_oracle) <= 0.01 * t_oracle


def test_balance_time_slope(lat1):
    spec = gf.PowerLawSpec(1, 0.5)
    Rs = np.unique(np.geomspace(100, 1e4, 30).astype(int)).astype(float)
    Ts = np.array([gf.slow_decay_T(spec, 4.0, int(R), lat1) for R in Rs])
    fit = gf.fit_loglog(Rs, Ts, (100, 1e4),
                        theoretical=balance_time_exponent(0.5, 3.0), tolerance=0.1)
    assert fit.passed


def test_minimal_balance_radius(lat1):
    spec = gf.PowerLawSpec(1, 0.5)
    t = 1e4
    R = gf.minimal_balance_radius(spec, 4.0, t, lat1, 500)
    assert gf.slow_decay_T(spec, 4.0, R, lat1) >= t
    if R > 0:
        assert gf.slow_decay_T(spec, 4.0, R - 1, lat1) < t
    with pytest.raises(ValueError):
        gf.minimal_balance_radius(spec, 4.0, 1e30, lat1, 50)


def test_minimal_balance_radius_array_matches_linear_scan(lat1):
    spec = gf.PowerLawSpec(1, 0.5)
    R_cap = 120
    T = [gf.slow_decay_T(spec, 4.0, R, lat1) for R in range(R_cap + 1)]
    # instants below T(0), on table values, between them and at T(R_cap)
    ts = np.sort(np.concatenate([[0.5 * T[0], T[0], T[37], T[R_cap]],
                                 np.geomspace(T[0], T[R_cap], 60)]))
    radii = gf.minimal_balance_radius(spec, 4.0, ts, lat1, R_cap)
    scan = [next(R for R in range(R_cap + 1) if T[R] >= t) for t in ts]
    assert radii.tolist() == scan
    assert [gf.minimal_balance_radius(spec, 4.0, t, lat1, R_cap) for t in ts] == scan
    with pytest.raises(ValueError, match="exceeds the cap"):
        gf.minimal_balance_radius(spec, 4.0, np.append(ts, 2.0 * T[R_cap]), lat1, R_cap)


def test_check_slow_decay_structure(z1, lat1):
    spec = gf.PowerLawSpec(1, 0.5)
    u0 = spec.field(z1, 60)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1e3, 64),
                          n0=96, rtol=1e-9, atol=1e-13)
    traj = gf.solve_cauchy(z1, u0, cfg)
    chk, fit = gf.check_slow_decay(traj, spec, 4.0, lat1, (10.0, 1e3),
                                   tolerance=0.1)
    assert np.isfinite(chk.verdict)
    assert fit.passed
    assert (np.diff(chk.extra["radii"]) >= 0).all()
    # about the origin the solve keeps orbit rows, and the support radius
    # read off them is the vertex read's
    traj = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    vertex = gf.Trajectory(cfg, traj.region, traj.times, traj.values, traj.diagnostics)
    assert traj.orbits is not None and vertex.orbits is None
    ours, _ = gf.check_slow_decay(traj, spec, 4.0, lat1, (10.0, 1e3), tolerance=0.1)
    theirs, _ = gf.check_slow_decay(vertex, spec, 4.0, lat1, (10.0, 1e3), tolerance=0.1)
    assert np.array_equal(ours.extra["radii"], theirs.extra["radii"])
    assert ours.verdict == theirs.verdict and np.array_equal(ours.rhs, theirs.rhs)
