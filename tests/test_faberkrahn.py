import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphflow as gf

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# minimum of the Rayleigh quotient over the 3-vertex path in Z^1 at p=3,
# frozen from the exhaustive grid oracle (step 1e-3)
PATH3_P3_GRID = 0.3860168889080854


@pytest.fixture(scope="module")
def z1():
    return gf.lattice_generator(1)


@pytest.fixture(scope="module")
def lat1():
    return gf.FkProfile.lattice(1, 3.0, 1.0)


def test_rayleigh_singleton_is_two(z1):
    region = gf.region_from_vertices(z1, [(0,)])
    f = gf.Field(z1, {(0,): 1.0})
    assert gf.rayleigh_quotient(z1, region, f, 3) == 2.0


def test_rayleigh_scale_invariant(z1):
    region = gf.region_from_vertices(z1, [(0,), (1,), (2,)])
    f = gf.Field(z1, {(0,): 0.3, (1,): 1.0, (2,): 0.4})
    q1 = gf.rayleigh_quotient(z1, region, f, 3)
    q2 = gf.rayleigh_quotient(z1, region, f.scaled(2.5), 3)
    assert abs(q1 - q2) <= 1e-13 * q1


def test_rayleigh_pair(z1):
    region = gf.region_from_vertices(z1, [(0,), (1,)])
    f = gf.Field(z1, {(0,): 1.0, (1,): 1.0})
    assert gf.rayleigh_quotient(z1, region, f, 3) == 1.0


def test_rayleigh_rejects_zero_field(z1):
    region = gf.region_from_vertices(z1, [(0,)])
    with pytest.raises(ValueError):
        gf.rayleigh_quotient(z1, region, gf.Field(z1, {}), 3)


def test_singleton_eigenvalue_exact(z1):
    gp = gf.product_generator(gf.complete_graph(2), 1)
    for g, x in [(z1, (0,)), (gp, (1, 3))]:
        region = gf.region_from_vertices(g, [x])
        assert gf.dirichlet_p_eigenvalue(g, region, 2.5, seed=0) == 2.0


@pytest.mark.parametrize("verts", [
    [(0,), (1,)],
    [(0,), (1,), (2,)],
    [(-1,), (0,), (1,)],
])
def test_descent_matches_grid_oracle(z1, verts):
    region = gf.region_from_vertices(z1, verts)
    lam = gf.dirichlet_p_eigenvalue(z1, region, 3, seed=7)
    oracle = gf.eigenvalue_grid_oracle(z1, region, 3)
    assert abs(lam - oracle) <= 1e-4


def test_path3_frozen_value(z1):
    region = gf.region_from_vertices(z1, [(0,), (1,), (2,)])
    assert abs(gf.eigenvalue_grid_oracle(z1, region, 3) - PATH3_P3_GRID) <= 1e-12


def test_eigenvalue_monotone_in_domain(z1):
    small = gf.region_from_vertices(z1, [(0,), (1,)])
    large = gf.region_from_vertices(z1, [(0,), (1,), (2,), (3,)])
    lam_small = gf.dirichlet_p_eigenvalue(z1, small, 3, seed=1)
    lam_large = gf.dirichlet_p_eigenvalue(z1, large, 3, seed=1)
    assert lam_large <= lam_small + 1e-12


def test_grid_oracle_size_cap(z1):
    region = gf.ball(z1, (0,), 2)
    with pytest.raises(ValueError):
        gf.eigenvalue_grid_oracle(z1, region, 3)


def test_connected_subsets_z1(z1):
    subs = list(gf.connected_subsets_containing(z1, (0,), 3))
    # intervals through the origin: 1 + 2 + 3
    assert len(subs) == 6
    assert len(set(subs)) == 6
    assert all((0,) in s for s in subs)


def test_connected_subsets_z2_unique_and_connected():
    z2 = gf.lattice_generator(2)
    subs = list(gf.connected_subsets_containing(z2, (0, 0), 3))
    assert len(subs) == len(set(subs))
    for s in subs:
        assert (0, 0) in s
        if len(s) > 1:  # connectivity probe: BFS within the subset
            seen = {s[0]}
            frontier = [s[0]]
            inside = set(s)
            while frontier:
                x = frontier.pop()
                for y, _ in z2.neighbors(x):
                    if y in inside and y not in seen:
                        seen.add(y)
                        frontier.append(y)
            assert seen == inside
    # rooted counts: 1 singleton, 4 dominoes, 18 triominoes through the origin
    assert sum(1 for s in subs if len(s) == 3) == 18


def test_bruteforce_profile_singleton(z1):
    prof = gf.fk_profile_bruteforce(z1, (0,), 1, 3.0)
    assert list(prof.table_v) == [2.0]
    assert list(prof.table_lam) == [2.0]


def test_bruteforce_profile_size3(z1):
    prof = gf.fk_profile_bruteforce(z1, (0,), 3, 3.0, seed=0)
    assert list(prof.table_v) == [2.0, 4.0, 6.0]
    assert prof.table_lam[0] == 2.0
    assert prof.table_lam[1] == 1.0
    assert abs(prof.table_lam[2] - PATH3_P3_GRID) <= 1e-4
    assert (np.diff(prof.table_lam) <= 0).all()  # nonincreasing envelope


def test_bruteforce_size_cap_guard(z1):
    with pytest.raises(ValueError):
        gf.fk_profile_bruteforce(z1, (0,), 9, 3.0)


def test_bruteforce_table_bounds_sampled_quotients(z1):
    # the table entry at measure v is a certified lower bound for the
    # Rayleigh quotient of every admissible field on a set of measure v
    prof = gf.fk_profile_bruteforce(z1, (0,), 3, 3.0, seed=5)
    table = dict(zip(prof.table_v, prof.table_lam))
    rng = np.random.default_rng(55)
    for verts in gf.connected_subsets_containing(z1, (0,), 3):
        region = gf.region_from_vertices(z1, verts)
        for _ in range(10):
            f = gf.Field(z1, {v: float(abs(x) + 0.01) for v, x in
                              zip(verts, rng.standard_normal(len(verts)))})
            q = gf.rayleigh_quotient(z1, region, f, 3)
            assert table[round(region.measure, 9)] <= q * (1 + 1e-6)


# ----------------------------------------------------------------------
# profiles and psi


def test_lattice_profile_values(lat1):
    assert lat1.lambda_value(8.0) == 1.0 / 512.0
    assert lat1.lambda_inverse(2.0) == (2.0) ** (-1 / 3.0)


def test_psi_closed_form(lat1):
    # N=1, p=3, c0=1: psi_1(s) = s^4
    assert gf.psi(lat1, 1, 2.0) == 16.0
    assert abs(gf.psi_inverse(lat1, 1, 16.0) - 2.0) <= 1e-13
    # general order: exponent (N(p-2)+p r)/(N r)
    prof = gf.FkProfile.lattice(2, 3.0, 1.0)
    s = 1.7
    assert abs(gf.psi(prof, 2, s) - s ** ((2 + 6) / 4)) <= 1e-14


def test_psi_increasing_on_grid(lat1):
    ss = np.geomspace(1e-4, 1e4, 300)
    vals = [gf.psi(lat1, 1.5, s) for s in ss]
    assert (np.diff(vals) > 0).all()


@pytest.mark.parametrize("make_profile", [
    lambda: gf.FkProfile.lattice(1, 3.0, 1.0),
    lambda: gf.FkProfile.tabulated(
        [(v, v ** -3.0) for v in np.geomspace(1e-3, 1e6, 200)], 3.0, 1),
])
def test_psi_round_trip(make_profile):
    profile = make_profile()
    rng = np.random.default_rng(9)
    for y in rng.uniform(1e-5, 1e5, 200):
        s = gf.psi_inverse(profile, 1, float(y))
        assert abs(gf.psi(profile, 1, s) - y) <= 1e-13 * y


def _power_table(lo, hi, n):
    return gf.FkProfile.tabulated(
        [(v, v ** -3.0) for v in np.geomspace(lo, hi, n)], 3.0, 1)


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_tabulated_psi_inverse_round_trips_everywhere(r):
    # knots at s = 1/v in [1e-2, 1e3]: probe below, inside and above them
    profile = _power_table(1e-3, 1e2, 40)
    for s in np.geomspace(1e-5, 1e5, 101):
        y = gf.psi(profile, r, s)
        back = gf.psi_inverse(profile, r, y)
        assert abs(back - s) <= 1e-13 * s
        assert abs(gf.psi(profile, r, back) - y) <= 1e-13 * y


def test_psi_inverse_array_matches_scalar_calls(lat1):
    ys = np.geomspace(1e-6, 1e6, 57)
    for profile in (lat1, _power_table(1e-3, 1e2, 40)):
        out = gf.psi_inverse(profile, 1, ys)
        assert isinstance(out, np.ndarray) and out.shape == ys.shape
        scalars = np.array([gf.psi_inverse(profile, 1, float(y)) for y in ys])
        assert np.allclose(out, scalars, rtol=1e-15, atol=0.0)
        assert isinstance(gf.psi_inverse(profile, 1, 3.0), float)
        values = gf.psi(profile, 1, out)
        assert np.allclose(values, [gf.psi(profile, 1, float(s)) for s in out],
                           rtol=1e-15, atol=0.0)


def test_psi_inverse_rejects_decreasing_table():
    # Lambda rising faster than v^((p-2)/r) between two knots makes psi_r drop
    bad = gf.FkProfile.tabulated([(1.0, 1.0), (2.0, 10.0)], 3.0, 1)
    with pytest.raises(ValueError, match="not increasing"):
        gf.psi_inverse(bad, 1, 0.5)


def test_lambda_inverse_is_exact_on_a_table():
    profile = _power_table(1e-3, 1e2, 40)
    vs = np.geomspace(2e-3, 50.0, 31)
    back = profile.lambda_inverse(profile.lambda_value(vs))
    assert np.allclose(back, vs, rtol=1e-13, atol=0.0)
    scalars = [profile.lambda_inverse(float(y)) for y in profile.lambda_value(vs)]
    assert np.allclose(back, scalars, rtol=1e-15, atol=0.0)
    with pytest.raises(gf.faberkrahn.ConvergenceError):
        profile.lambda_inverse(profile.table_lam[-1])       # never drops below
    with pytest.raises(gf.faberkrahn.ConvergenceError):
        profile.lambda_inverse(2.0 * profile.table_lam[0])  # never reached


def test_lambda_inverse_returns_right_end_of_plateau():
    # two branches at the base: the heavy one gives a larger set with a
    # larger eigenvalue, so the lower envelope is flat from 3.002 to 13
    g = gf.generator_from_edges([("a", "b", 1.0), ("b", "e", 0.001), ("a", "c", 1.0),
                                 ("c", "f", 10.0), ("f", "h", 1.0)])
    prof = gf.fk_profile_bruteforce(g, "a", size_cap=3, p=3.0, seed=1)
    vs, lams = prof.table_v, prof.table_lam
    k = int(np.flatnonzero(vs == 13.0)[0])
    assert lams[k - 1] == lams[k] > lams[k + 1]
    assert abs(prof.lambda_inverse(lams[k]) - 13.0) <= 1e-13 * 13.0
    # just above the plateau the crossing lies on the segment before it
    v = prof.lambda_inverse(lams[k] * (1 + 1e-9))
    assert vs[k - 2] < v < vs[k - 1]
    # a table that is not monotone: the last knot with Lambda >= y wins
    bumpy = gf.FkProfile.tabulated([(1.0, 4.0), (2.0, 1.0), (3.0, 2.0), (4.0, 0.5)],
                                   3.0, 1)
    v = bumpy.lambda_inverse(1.5)
    assert 3.0 < v < 4.0 and abs(bumpy.lambda_value(v) - 1.5) <= 1e-13 * 1.5


def test_psi_rejects_bad_arguments(lat1):
    with pytest.raises(ValueError):
        gf.psi(lat1, 0.5, 1.0)
    with pytest.raises(ValueError):
        gf.psi(lat1, 1, 0.0)
    with pytest.raises(ValueError):
        gf.psi_inverse(lat1, 1, -1.0)
    with pytest.raises(ValueError):
        gf.psi_inverse(lat1, 0.5, 1.0)
    with pytest.raises(ValueError):
        gf.psi(lat1, 1, np.array([1.0, 0.0]))


def test_tabulated_extrapolation_flagged():
    prof = gf.FkProfile.tabulated([(2.0, 2.0), (6.0, 0.5)], 3.0, 1)
    assert prof.lambda_value(1.0) == 2.0   # constant continuation below
    assert prof.lambda_value(100.0) == 0.5
    lam = prof.lambda_value(np.array([1.0, 2.0, 3.0, 100.0]))
    assert lam[0] == 2.0 and lam[3] == 0.5 and 0.5 < lam[2] < 2.0


def test_profile_validation():
    with pytest.raises(ValueError):
        gf.FkProfile.lattice(1, 2.0)          # p <= 2
    with pytest.raises(ValueError):
        gf.FkProfile.lattice(1, 3.0, c0=0.0)
    with pytest.raises(ValueError):
        gf.FkProfile.tabulated([(1.0, -1.0)], 3.0, 1)
    for table in ([(1.0, 1.0), (1.0, 2.0)], [(4.0, 1.0), (2.0, 2.0), (4.0, 0.5)]):
        with pytest.raises(ValueError, match="duplicate measures"):
            gf.FkProfile.tabulated(table, 3.0, 1)


def test_fk_build_does_not_import_numpy_ma(tmp_path):
    # numpy.ma is a sizeable import that nothing in an fk build needs
    script = (
        "import json, sys\n"
        "from graphflow import cli\n"
        f"cli.run_fk(json.loads(open({str(CONFIGS / 'fk_lattice1d.json')!r}).read()), "
        f"{str(tmp_path / 'fk')!r})\n"
        "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False"]


# ----------------------------------------------------------------------
# radius inverse and structural checks


def test_ball_radius_inverse(z1):
    assert gf.ball_radius_inverse(z1, (0,), 10.0) == 2
    assert gf.ball_radius_inverse(z1, (0,), 1.0) == 0
    radii = [gf.ball_radius_inverse(z1, (0,), v) for v in (1, 5, 10, 30, 100)]
    assert radii == sorted(radii)


def test_ball_radius_inverse_finite_graph_exhausts():
    g = gf.generator_from_edges([("a", "b", 1.0), ("b", "c", 1.0)])
    with pytest.raises(ValueError):
        gf.ball_radius_inverse(g, "a", 100.0)


def test_check_assumptions_lattice_pass(lat1):
    report = gf.check_assumptions(lat1, np.geomspace(1e-3, 1e6, 150))
    assert report.all_ok
    # the power law meets the growth comparison with equality
    assert report.worst["nd"][0] <= 1e-11


def test_check_assumptions_bump_fails():
    vs = np.geomspace(1e-2, 1e4, 120)
    pairs = [(v, v ** -3.0) for v in vs]
    pairs[60] = (vs[60], vs[60] ** -3.0 * 4.0)   # artificial bump
    prof = gf.FkProfile.tabulated(pairs, 3.0, 1)
    report = gf.check_assumptions(prof, vs)
    assert not report.nd_ok
    magnitude, location = report.worst["nd"]
    assert magnitude > 0.1
    assert location == vs[60]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_a_power_law_passes_its_assumptions_at_every_exponent(N):
    # v^(p/N) and pairwise ratios of Lambda leave float range on the grid
    # from p/N of about 26; the check compares logarithms
    for p in [x * N for x in (0.75, 1.5, 3.0, 25.0, 26.0, 51.4, 77.1, 100.0) if x * N > 2]:
        for c0 in (1e-6, 1e-3, 1.0, 16.0, 1e9):
            report = gf.FkProfile.lattice(N, p, c0).assumptions
            assert report.all_ok, (N, p, c0, report.worst)


def test_check_assumptions_needs_dense_grid(lat1):
    with pytest.raises(ValueError):
        gf.check_assumptions(lat1, np.geomspace(1, 10, 20))


def test_psi_scaling_monotone(lat1):
    ok, drop, nu = gf.check_psi_scaling_monotone(lat1, 1.0,
                                                 np.geomspace(0.1, 1e4, 120))
    assert ok
    assert abs(nu - 0.125) <= 1e-15  # N(p-2)/((N(p-2)+p)(p-1)) at N=1, p=3


def test_ball_measure_bound_stable(z1):
    lat = gf.FkProfile.lattice(1, 3.0, 1.0)
    res = gf.check_ball_measure_bound(z1, (0,), lat, 2.0,
                                      np.geomspace(6.3e4, 6.3e6, 15))
    assert res["spread"] <= 0.1
    assert res["R"].min() >= 15


def test_linf_lq_nesting(z1):
    prof = gf.fk_profile_bruteforce(z1, (0,), 2, 3.0)
    rng = np.random.default_rng(6)
    for _ in range(20):
        vals = {(int(k),): float(x) for k, x in
                zip(rng.integers(-8, 9, 6), rng.standard_normal(6)) if x != 0.0}
        if not vals:
            continue
        f = gf.Field(z1, vals)
        ok, lhs, rhs = gf.linf_lq_bound(prof, f, 2.0)
        assert ok and lhs <= rhs * (1 + 1e-12)
