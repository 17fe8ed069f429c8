import math
import re

import numpy as np
import pytest

import graphflow as gf
from graphflow.solver import (NonFiniteStateError, SolverError,
                              StepSizeUnderflowError, TruncationConvergenceError,
                              TruncationDeficitError, _integrate)


@pytest.fixture(scope="module")
def z1():
    return gf.lattice_generator(1)


@pytest.fixture(scope="module")
def short_cfg():
    return gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57))


@pytest.fixture(scope="module")
def delta_run(z1, short_cfg):
    return gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), short_cfg)


def test_config_validation():
    good = gf.log_instants(0.1, 10, 5)
    with pytest.raises(ValueError):
        gf.SolverConfig(p=2.0, instants=good)
    with pytest.raises(ValueError):
        gf.SolverConfig(p=3.0, instants=np.array([]))
    with pytest.raises(ValueError):
        gf.SolverConfig(p=3.0, instants=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        gf.SolverConfig(p=3.0, instants=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        gf.SolverConfig(p=3.0, instants=good, rtol=0.0)
    for name in ("delta_boundary", "eps_trunc"):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=name):
                gf.SolverConfig(p=3.0, instants=good, **{name: bad})
    with pytest.raises(ValueError):
        gf.SolverConfig(p=3.0, instants=good, n0=0)
    with pytest.raises(ValueError):
        gf.log_instants(1.0, 0.1, 5)


def test_stepper_against_exact_solution():
    # y' = -y^3  =>  y(t) = (1 + 2t)^(-1/2)
    t_eval = np.geomspace(0.01, 100.0, 30)
    Y, diag = _integrate(lambda t, y: -y ** 3, np.array([1.0]), 100.0, t_eval,
                         1e-10, 1e-14, 10 ** 6)
    exact = (1.0 + 2.0 * t_eval) ** -0.5
    assert np.abs(Y[:, 0] - exact).max() <= 1e-8
    assert diag["total_accepted"] > 0
    assert (np.diff(diag["accepted"]) >= 0).all()


def test_stepper_underflow_reported():
    # an ODE the controller cannot satisfy at an absurd tolerance budget
    def stiff(t, y):
        return np.array([-1e12 * y[0] + math.sin(1e9 * t)])
    with pytest.raises(StepSizeUnderflowError):
        _integrate(stiff, np.array([1.0]), 10.0, np.array([10.0]),
                   1e-13, 1e-18, 3000)


def test_stepper_nonfinite_rhs_is_a_typed_failure():
    # a NaN error estimate must reject the step, never be accepted
    def turns_nan(t, y):
        return np.full_like(y, np.nan) if t > 0.5 else -y
    with pytest.raises(NonFiniteStateError) as info:
        _integrate(turns_nan, np.ones(3), 1.0, np.array([0.25, 1.0]),
                   1e-8, 1e-12, 10 ** 6)
    assert 0.4 < info.value.t <= 0.5
    with pytest.raises(NonFiniteStateError):
        _integrate(lambda t, y: np.full_like(y, np.inf), np.ones(2), 1.0, np.array([1.0]),
                   1e-8, 1e-12, 10 ** 6)
    with pytest.raises(SolverError, match="step budget"):
        _integrate(lambda t, y: -y, np.ones(2), 1.0, np.array([1.0]),
                   1e-8, 1e-12, 3)


def test_stepper_short_horizon_is_a_typed_failure():
    # output instants past t_end are never reached: a solver failure (exit 3)
    with pytest.raises(SolverError, match="before the last output instant"):
        _integrate(lambda t, y: -y, np.ones(2), 1.0, np.array([0.5, 2.0]),
                   1e-8, 1e-12, 10 ** 6)


def test_zero_data_stays_zero(z1, short_cfg):
    traj = gf.solve_cauchy(z1, gf.Field(z1, {}), short_cfg, center=(0,))
    assert traj.certified
    assert float(np.abs(traj.values).max()) == 0.0


def test_mass_conservation_and_monotone_norms(delta_run):
    traj = delta_run
    assert traj.certified
    assert traj.masses[0] == 2.0
    m0 = traj.masses[0]
    drift = float(np.abs(traj.masses - m0).max() / m0)
    assert drift <= 1e-8
    assert (np.diff(traj.sup_norms) <= 0).all()
    for q in (1.5, 2.0, 4.0):
        assert (np.diff(traj.lq_norms(q)) <= 0).all()


def test_first_step_consistency_first_order(z1):
    # (u(t1) - u0)/t1 approaches the generator value with observed order >= 1
    u0 = gf.delta_field(z1, (0,))
    target = gf.apply_plaplacian(z1, u0, 3, (0,))
    errs = []
    for t1 in (1e-3, 5e-4, 2.5e-4):
        cfg = gf.SolverConfig(p=3.0, instants=np.array([t1]))
        traj = gf.solve_truncated(z1, u0, cfg, 8)
        rate = (traj.values[1][traj.region.index[(0,)]] - 1.0) / t1
        errs.append(abs(rate - target))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_solution_nonnegative_with_clamp_logged(delta_run):
    assert float(delta_run.values.min()) >= 0.0
    assert (delta_run.diagnostics["clamped"] <= 1e-12).all()


def test_truncated_support_violation(z1, short_cfg):
    u0 = gf.delta_field(z1, (30,))
    with pytest.raises(ValueError):
        gf.solve_truncated(z1, u0, short_cfg, 4, center=(0,))


def test_boundary_leak_triggers_expansion(z1, short_cfg):
    cfg = gf.SolverConfig(p=3.0, instants=short_cfg.instants, n0=2)
    traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)
    assert traj.history[0]["expanded"] == "boundary_leak"
    assert traj.certified
    assert traj.certified_radius > 2
    # the leaking stage stopped early, after fewer steps than a full solve
    assert traj.history[0]["stopped_at"] < cfg.instants[-1]
    full = gf.solve_truncated(z1, gf.delta_field(z1, (0,)), cfg, 2)
    assert traj.history[0]["accepted"] < full.diagnostics["accepted"][-1]
    assert traj.history[-1]["stopped_at"] is None


def test_truncation_convergence_failure(z1):
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10.0, 9),
                          eps_trunc=1e-300, max_expansions=2)
    with pytest.raises(TruncationConvergenceError):
        gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)


def test_locate_rejects_off_grid(delta_run):
    with pytest.raises(ValueError):
        delta_run.locate(0.12345)
    with pytest.raises(ValueError):
        delta_run.field_at(0.12345)


def test_comparison_with_zero_gives_nonnegativity(z1):
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                          rtol=1e-10, atol=1e-14)
    u01 = gf.Field(z1, {(0,): 1.0, (1,): 0.5})
    gap = gf.comparison_check(z1, u01, gf.Field(z1, {}), cfg)
    assert gap >= -1e-8


def test_comparison_scaled_pair(z1):
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                          rtol=1e-10, atol=1e-14)
    u02 = gf.Field(z1, {(0,): 0.5, (2,): 0.25})
    gap = gf.comparison_check(z1, u02.scaled(2.0), u02, cfg)
    assert gap >= -1e-8 * 1.0


def test_comparison_precondition_enforced(z1, short_cfg):
    u01 = gf.Field(z1, {(0,): 1.0})
    u02 = gf.Field(z1, {(1,): 1.0})
    with pytest.raises(ValueError):
        gf.comparison_check(z1, u01, u02, short_cfg)


def test_mass_radius_basics(delta_run):
    wide = gf.mass_radius(delta_run, 0.5)
    tight = gf.mass_radius(delta_run, 0.01)
    assert wide.shape == tight.shape == delta_run.times.shape
    assert wide[delta_run.locate(0.0)] == 0
    assert tight[delta_run.locate(0.0)] == 0
    r_wide = wide[delta_run.locate(100.0)]
    r_tight = tight[delta_run.locate(100.0)]
    assert r_wide <= r_tight


def test_mass_radius_eps_validation(delta_run):
    with pytest.raises(ValueError):
        gf.mass_radius(delta_run, 0.0)
    # 1 - eps rounds to 1: the whole initial mass could never be met
    with pytest.raises(ValueError):
        gf.mass_radius(delta_run, 2.0 ** -54)
    assert gf.mass_radius(delta_run, 2.0 ** -52)[0] == 0


def test_mass_radius_truncation_deficit(z1):
    # a tiny absorbing ball loses most of the mass by t = 100
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 100.0, 9))
    traj = gf.solve_truncated(z1, gf.delta_field(z1, (0,)), cfg, 2)
    assert traj.masses[traj.locate(100.0)] < 0.5 * traj.masses[0]
    with pytest.raises(TruncationDeficitError) as info:
        gf.mass_radius(traj, 0.5)
    # the message prints both sides and the shortfall to full precision
    held, target, short = map(float, re.search(
        r"holds (\S+) < (\S+) .*short by (\S+)\)", str(info.value)).groups())
    assert target == 0.5 * traj.masses[0]
    assert held < target and short == target - held


def test_moment_basics(z1, delta_run):
    assert gf.moment(delta_run, 0.5)[delta_run.locate(0.0)] == 0.0
    with pytest.raises(ValueError):
        gf.moment(delta_run, 1.5)
    # data supported outside B_1: moment nondecreasing in alpha
    ring = gf.Field(z1, {(2,): 1.0, (-2,): 1.0, (3,): 0.5})
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 1.0, 5))
    traj = gf.solve_cauchy(z1, ring, cfg, center=(0,))
    alphas = (0.2, 0.5, 0.8)
    moments = [gf.moment(traj, a, x0=(0,)) for a in alphas]
    for t in (0.0, 1.0):
        vals = [m[traj.locate(t)] for m in moments]
        assert vals == sorted(vals)


def test_entropy_integral(delta_run):
    series = delta_run.flux_integrals
    assert series[0] == 0.0 and series[1] > 0
    assert (np.diff(series) >= 0).all()


def test_entropy_needs_dense_grid(z1):
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 1.0, 5))
    traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)
    with pytest.raises(ValueError):
        traj.flux_integrals


def test_determinism_bitwise(z1, short_cfg):
    t1 = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), short_cfg)
    t2 = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), short_cfg)
    assert np.array_equal(t1.values, t2.values)
    assert t1.certified_radius == t2.certified_radius


def test_finite_graph_fully_covered_has_no_boundary():
    # a ball that swallows the whole finite graph leaves nothing to leak;
    # mass is then conserved exactly by the antisymmetric flux
    g = gf.generator_from_edges([("a", "b", 1.0), ("b", "c", 1.0),
                                 ("c", "d", 1.0), ("d", "a", 1.0)])
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 20.0, 9), n0=2,
                          max_expansions=3)
    traj = gf.solve_cauchy(g, gf.delta_field(g, "a"), cfg)
    assert traj.certified
    assert (traj.boundary_sups == 0.0).all()
    m0 = traj.masses[0]
    assert np.abs(traj.masses - m0).max() <= 1e-12 * m0
    # the flow relaxes toward the constant state on a finite graph
    assert traj.sup_norms[traj.locate(20.0)] < 0.5


def test_truncation_differences_decrease(z1):
    # with leak-driven expansion disabled, successive-radius differences are
    # truncation-dominated and shrink monotonically along the schedule
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57),
                          n0=4, eps_trunc=1e-9, delta_boundary=1.0)
    traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)
    diffs = [h["diff_prev"] for h in traj.history if h["diff_prev"] is not None]
    assert len(diffs) >= 2
    assert all(b <= a for a, b in zip(diffs, diffs[1:]))
