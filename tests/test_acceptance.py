"""Acceptance gate: every shipped guarantee, one test per criterion.

The expensive trajectories are shared session fixtures; each criterion
records a PASS/FAIL line (printed in the terminal summary) and asserts at
its stated tolerance.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import graphflow as gf
from graphflow import cli
from graphflow.estimates import balance_time_exponent
from graphflow.graphs import region_edges
from lemmas import check_ball_measure_bound, check_psi_scaling_monotone, monotonicity_check
from oracles import eigenvalue_grid_oracle, summation_by_parts_defect

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

RESULTS = []


def report(criterion, ok, detail):
    line = f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def run_config(name, **solver_overrides):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg["solver"].update(solver_overrides)
    g = cli.build_generator(cfg["graph"])
    u0, center = cli.build_initial_field(g, cfg["initial_data"])
    scfg = cli.build_solver_config(cfg["solver"])
    traj = gf.solve_cauchy(g, u0, scfg, center=center)
    return g, traj


@pytest.fixture(scope="session")
def run_a():
    return run_config("lattice1d_p3_decay.json")


@pytest.fixture(scope="session")
def run_b():
    return run_config("lattice1d_p3_propagation.json")


@pytest.fixture(scope="session")
def run_c():
    return run_config("lattice1d_p4_decay.json")


@pytest.fixture(scope="session")
def run_d():
    return run_config("lattice2d_p3_decay.json")


@pytest.fixture(scope="session")
def run_e():
    return run_config("lattice1d_p3_slow_decay.json")


@pytest.fixture(scope="session")
def lat13():
    return gf.FkProfile.lattice(1, 3.0, 1.0)


def test_criterion_01_exact_identities():
    # on the kernel, whose table of B_10 has stubs on the ring
    z2 = gf.lattice_generator(2)
    table = region_edges(z2, gf.ball(z2, (0, 0), 10))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        u, f = rng.standard_normal((2, table.n))
        defect, scale = summation_by_parts_defect(table, table, u, f, 3.0)
        worst = max(worst, defect / scale)
    graphs = [gf.lattice_generator(1), z2,
              gf.product_generator(gf.complete_graph(2), 1)]
    centers = [(0,), (0, 0), (0, 0)]
    exact = True
    for g, x in zip(graphs, centers):
        for p in (2.5, 3.0, 4.0):
            reg = gf.region_from_vertices(g, [x])
            lam = gf.dirichlet_p_eigenvalue(g, reg, p)
            exact = exact and (lam == 2.0)
    report(1, worst <= 1e-12 and exact,
           f"summation-by-parts worst rel residual {worst:.2e} (<=1e-12); "
           f"singleton eigenvalues exactly 2: {exact}")


def test_criterion_02_conservation_and_monotonicity(run_a):
    _, traj = run_a
    m0 = traj.masses[0]
    drift = float(np.abs(traj.masses - m0).max() / m0)
    monotone = True
    for q in (1.5, 2.0, 4.0):
        monotone = monotone and bool((np.diff(traj.lq_norms(q)[1:]) <= 0).all())
    monotone = monotone and bool((np.diff(traj.sup_norms[1:]) <= 0).all())
    report(2, drift <= 1e-6 and monotone,
           f"mass drift {drift:.2e} (<=1e-6); lq/sup norms nonincreasing: {monotone}")


def test_criterion_03_decay_exponents(run_a, run_c, run_d):
    fits = []
    for (g, traj), N, window, tol in [
            (run_a, 1, (10.0, 1e3), 0.05),
            (run_c, 1, (10.0, 1e3), 0.05),
            (run_d, 2, (10.0, 300.0), 0.07)]:
        theo = -gf.decay_exponent(N, traj.p)
        fits.append(gf.fit_decay_exponent(traj, window, theo, tol))
    ok = all(f.passed for f in fits)
    detail = "; ".join(
        f"{name}: slope {fit.slope:+.4f} vs {fit.theoretical:+.4f} (tol {fit.tolerance})"
        for name, fit in zip(["N=1 p=3", "N=1 p=4", "N=2 p=3"], fits))
    report(3, ok, detail)


def test_criterion_04_propagation_exponent(run_b):
    _, traj = run_b
    fit = gf.fit_propagation_exponent(traj, 0.5, (10.0, 1e3),
                                      theoretical=0.25, tolerance=0.05)
    report(4, fit.passed,
           f"half-mass radius slope {fit.slope:+.4f} vs +0.2500 (tol 0.05)")


def test_criterion_05_constant_free_lower_bound(run_a, run_c, run_d):
    ok = True
    worst = np.inf
    for (g, traj) in (run_a, run_c, run_d):
        prof = gf.FkProfile.lattice(g.dimension, traj.p, 1.0)
        chk = gf.check_lower_bound(traj, prof)
        ok = ok and chk.extra["holds_everywhere"]
        worst = min(worst, chk.verdict)
    report(5, ok, f"sup * 2 mu(B_R) >= m0 at all instants; worst ratio {worst:.4f}")


def test_criterion_06_comparison_principle():
    rng = np.random.default_rng(606)
    worst_rel = 0.0
    for g, center, supp in [
            (gf.lattice_generator(1), (0,), [(k,) for k in range(-4, 5)]),
            (gf.lattice_generator(2), (0, 0),
             [v for v in gf.ball(gf.lattice_generator(2), (0, 0), 2).vertices])]:
        cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                              rtol=1e-10, atol=1e-14, n0=10)
        for _ in range(25):
            base = {v: float(x) for v, x in zip(supp, rng.uniform(0, 1, len(supp)))}
            bump = {v: float(x) for v, x in zip(supp, rng.uniform(0, 0.5, len(supp)))}
            u02 = gf.Field(g, base)
            u01 = gf.Field(g, {v: base[v] + bump[v] for v in base})
            gap = gf.comparison_check(g, u01, u02, cfg, center=center)
            worst_rel = min(worst_rel, gap / u01.sup_norm())
    report(6, worst_rel >= -1e-8,
           f"worst signed gap {worst_rel:.2e} x ||u01||_inf (>= -1e-8)")


def test_criterion_07_fk_oracle_equivalence():
    z1 = gf.lattice_generator(1)
    prof = gf.fk_profile_bruteforce(z1, (0,), 3, 3.0)
    table = dict(zip(prof.table_v, prof.table_lam))
    worst_table = 0.0
    worst_descent = 0.0
    per_measure_oracle = {}
    for verts in gf.connected_subsets_containing(z1, (0,), 3):
        region = gf.region_from_vertices(z1, verts)
        oracle = eigenvalue_grid_oracle(z1, region, 3)
        descent = gf.dirichlet_p_eigenvalue(z1, region, 3)
        worst_descent = max(worst_descent, abs(descent - oracle))
        v = round(region.measure, 9)
        per_measure_oracle[v] = min(per_measure_oracle.get(v, np.inf), oracle)
    for v, lam in table.items():
        worst_table = max(worst_table, abs(lam - per_measure_oracle[v]))
    report(7, worst_table <= 1e-4 and worst_descent <= 1e-4,
           f"brute-force table vs grid oracle {worst_table:.2e}; "
           f"descent vs oracle {worst_descent:.2e} (<=1e-4)")


def test_criterion_08_monotonicity_sweep():
    rng = np.random.default_rng(808)
    violations = 0
    count = 0
    while count < 10_000:
        lo, hi = np.sort(rng.uniform(0.0, 10.0, 2))
        if lo <= 0.0 or lo == hi:
            continue
        q = float(rng.uniform(1e-6, 5.0))
        p = float(rng.uniform(2.0 + 1e-9, 6.0))
        if not monotonicity_check(float(hi), float(lo), q, p):
            violations += 1
        count += 1
    report(8, violations == 0, f"{violations} violations in 10^4 samples")


def test_criterion_09_psi_machinery(lat13):
    rng = np.random.default_rng(909)
    z1 = gf.lattice_generator(1)
    z2 = gf.lattice_generator(2)
    tab = gf.FkProfile.tabulated(
        [(v, v ** -3.0) for v in np.geomspace(1e-4, 1e7, 220)], 3.0, 1)
    worst_rt = 0.0
    for profile in (lat13, tab):
        for y in rng.uniform(1e-5, 1e5, 1000):
            s = gf.psi_inverse(profile, 1, float(y))
            worst_rt = max(worst_rt, abs(gf.psi(profile, 1, s) - y) / y)
    mono_ok = True
    for profile in (lat13, tab, gf.FkProfile.lattice(2, 3.0, 1.0)):
        ok, _, _ = check_psi_scaling_monotone(profile, 1.0, np.geomspace(0.1, 1e4, 120))
        mono_ok = mono_ok and ok
    spread1, _ = check_ball_measure_bound(z1, (0,), lat13, 2.0, np.geomspace(6.3e4, 6.3e6, 21))
    spread2, _ = check_ball_measure_bound(z2, (0, 0), gf.FkProfile.lattice(2, 3.0, 1.0), 2.0,
                                          np.geomspace(3.2e7, 3.2e9, 21))
    report(9, worst_rt <= 1e-13 and mono_ok and spread1 <= 0.1 and spread2 <= 0.1,
           f"psi round-trip worst {worst_rt:.2e} (<=1e-13); scaling check {mono_ok}; "
           f"ball-measure constant spread Z1 {spread1:.3f}, Z2 {spread2:.3f} (<=0.1)")


def test_criterion_10_slow_decay(run_e, lat13):
    g, traj = run_e
    spec = gf.PowerLawSpec(1, 0.5)
    chk, fit = gf.check_slow_decay(traj, spec, 4.0, lat13, (1e2, 1e4),
                                   tolerance=0.05)
    Rs = np.unique(np.geomspace(100, 1e4, 40).astype(int)).astype(float)
    Ts = np.array([gf.slow_decay_T(spec, 4.0, int(R), lat13) for R in Rs])
    # balance-time growth exponent alpha(p-2)+p = 3.5 at alpha=1/2, p=3
    t_fit = gf.fit_loglog(Rs, Ts, (100.0, 1e4),
                          theoretical=balance_time_exponent(0.5, 3.0),
                          tolerance=0.1)
    worst_oracle = 0.0
    for R in (100, 400, 1600, 6400):
        t_def = gf.slow_decay_T(spec, 4.0, R, lat13)
        t_orc = gf.slow_decay_T(spec, 4.0, R, lat13, annulus_radius=4 * R)
        worst_oracle = max(worst_oracle, abs(t_def - t_orc) / t_orc)
    ok = fit.passed and t_fit.passed and worst_oracle <= 0.01 \
        and np.isfinite(chk.verdict)
    report(10, ok,
           f"decay slope {fit.slope:+.4f} vs {fit.theoretical:+.4f} (tol 0.05); "
           f"balance-time slope {t_fit.slope:.4f} vs 3.5 (tol 0.1); "
           f"doubled-annulus agreement {worst_oracle:.2e} (<=0.01)")


def test_criterion_11_bound_ratio_stability(run_a, lat13):
    _, traj = run_a
    sup_chk = gf.check_sup_bound(traj, lat13, (10.0, 1e3))
    mom_chk = gf.check_moment_bound(traj, 0.5, lat13, window=(10.0, 1e3))
    ent_chk = gf.check_entropy_bound(traj, lat13, (10.0, 1e3))
    upper = (100.0, 1e3)
    stats = {c.tag: (c.verdict, c.stability(upper))
             for c in (sup_chk, mom_chk, ent_chk)}
    finite = all(np.isfinite(v) for v, _ in stats.values())
    stable = all(s < 0.30 for _, s in stats.values())
    detail = "; ".join(f"{tag}: sup-ratio {v:.3f}, upper-decade variation {s * 100:.1f}%"
                       for tag, (v, s) in stats.items())
    report(11, finite and stable, detail)
