import gc
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphflow as gf
from graphflow import cli, solver
from graphflow.solver import (ROW_DIAGNOSTICS, NonFiniteStateError, SolverError,
                              StepSizeUnderflowError, TruncationConvergenceError,
                              TruncationDeficitError, _integrate)
from dirichlet import kept_on
from oracles import apply_plaplacian


def _integrate_ode(rhs, y0, *args, **kwargs):
    """``_integrate`` on a plain ODE: no center distances, every component active."""
    return _integrate(lambda keep: rhs, np.zeros(len(y0), dtype=np.int64), y0,
                      *args, **kwargs)


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
    with pytest.raises(ValueError):
        gf.SolverConfig(p=3.0, instants=good, n0=0)
    with pytest.raises(ValueError):
        gf.log_instants(1.0, 0.1, 5)


@pytest.mark.parametrize("p", [math.inf, math.nan, 2.0])
def test_the_exponent_is_finite_and_above_2(z1, p):
    # inf > 2 holds, yet the flow, a profile and an eigenvalue need a finite
    # p: unchecked, a solve kept every sup norm at 1, a lattice profile read
    # Lambda = 0 and an eigenvalue came out as 1.0 with a RuntimeWarning
    words = "exponent p must satisfy 2 < p < inf"
    with pytest.raises(ValueError, match=words):
        gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), gf.SolverConfig(p=p, instants=[1.0]))
    with pytest.raises(ValueError, match=words):
        gf.FkProfile.lattice(1, p).lambda_value(2.0)
    with pytest.raises(ValueError, match=words):
        gf.dirichlet_p_eigenvalue(z1, gf.region_from_vertices(z1, [(0,), (1,)]), p)


@pytest.mark.parametrize("kwargs, words", [
    ({"instants": [1.0, math.inf]}, "instants must be finite"),
    ({"instants": [1.0, math.nan]}, "instants must be finite"),
    ({"atol": math.inf}, "tolerances must be positive and finite"),
    ({"rtol": math.nan}, "tolerances must be positive and finite"),
], ids=["inf_instant", "nan_instant", "inf_atol", "nan_rtol"])
def test_config_rejects_non_finite_values(kwargs, words):
    # a solve would take each: an infinite instant never ends, a NaN one runs
    # through every ball to a TruncationConvergenceError, an infinite atol
    # switches error control off and a NaN rtol fails late, on the first step
    with pytest.raises(ValueError, match=words):
        gf.SolverConfig(**{"p": 3.0, "instants": gf.log_instants(0.1, 10, 5), **kwargs})


@pytest.mark.parametrize("max_expansions", [0, 2.5])
def test_config_rejects_a_ball_cap_solve_cauchy_cannot_use(max_expansions):
    with pytest.raises(ValueError, match="max_expansions must be a positive integer"):
        gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10, 5),
                        max_expansions=max_expansions)


@pytest.mark.parametrize("name", ["n0", "max_expansions"])
def test_config_rejects_a_bool_ball_count(name):
    # True would read as 1: a one-ball cap, or a first ball of radius 1
    with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
        gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10, 5), **{name: True})


def test_stepper_against_exact_solution():
    # y' = -y^3  =>  y(t) = (1 + 2t)^(-1/2)
    t_eval = np.geomspace(0.01, 100.0, 30)
    Y, diag = _integrate_ode(lambda t, y: -y ** 3, np.array([1.0]), 100.0, t_eval,
                             1e-10, 1e-14, 10 ** 6)
    exact = (1.0 + 2.0 * t_eval) ** -0.5
    assert Y[0, 0] == 1.0 and len(Y) == len(t_eval) + 1   # the t = 0 row first
    assert np.abs(Y[1:, 0] - exact).max() <= 1e-8
    assert diag["balls"][-1]["accepted"] > 0
    assert (np.diff(diag["accepted"]) >= 0).all()


def test_stepper_underflow_reported():
    # an ODE the controller cannot satisfy at an absurd tolerance budget
    def stiff(t, y):
        return np.array([-1e12 * y[0] + math.sin(1e9 * t)])
    with pytest.raises(StepSizeUnderflowError):
        _integrate_ode(stiff, np.array([1.0]), 10.0, np.array([10.0]),
                       1e-13, 1e-18, 3000)


def test_stepper_nonfinite_rhs_is_a_typed_failure():
    # a NaN error estimate must reject the step, never be accepted
    def turns_nan(t, y):
        return np.full_like(y, np.nan) if t > 0.5 else -y
    with pytest.raises(NonFiniteStateError) as info:
        _integrate_ode(turns_nan, np.ones(3), 1.0, np.array([0.25, 1.0]),
                       1e-8, 1e-12, 10 ** 6)
    assert 0.4 < info.value.t <= 0.5
    with pytest.raises(NonFiniteStateError):
        _integrate_ode(lambda t, y: np.full_like(y, np.inf), np.ones(2), 1.0,
                       np.array([1.0]), 1e-8, 1e-12, 10 ** 6)
    with pytest.raises(SolverError, match="step budget"):
        _integrate_ode(lambda t, y: -y, np.ones(2), 1.0, np.array([1.0]),
                       1e-8, 1e-12, 3)


def test_growth_after_a_voided_attempt_never_shrinks_the_active_ball():
    # A path with one vertex per ring and data on ring 5 of B_12, two
    # rings short of the growth rule's reach.  The first attempt's first
    # stage touches ring 9, the active ball's edge: it is voided and redone
    # on the whole ball B_12.  From t = 0.01 the support reaches ring 6 and
    # the ball grows; the active ball B_{6+4} = B_10 would be smaller than
    # the state it has to hold.
    calls = []

    def rhs_on(m):
        def rhs(t, y):
            calls.append(m)
            f = np.zeros(m)
            if len(calls) == 3:   # after the two that size the first step
                f[-1] = 1e-300
            elif t >= 0.01:
                f[6] = 1e-300
            return f
        return rhs

    y0 = np.zeros(13)
    y0[5] = 1.0
    Y, diag = _integrate(rhs_on, np.arange(13), y0, 1.0, np.array([1.0]), 1e-8, 1e-12,
                         10 ** 6, grow=lambda t: (np.arange(19), rhs_on, True))
    first, grown = diag["balls"]
    assert first["redone"] == 1 and first["active_vertices"] == 13
    assert grown["active_vertices"] == 13 and Y.shape == (2, 19) and Y[-1, 6] > 0.0


def test_stepper_short_horizon_is_a_typed_failure():
    # output instants past t_end are never reached: a solver failure (exit 3)
    with pytest.raises(SolverError, match="before the last output instant"):
        _integrate_ode(lambda t, y: -y, np.ones(2), 1.0, np.array([0.5, 2.0]),
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
    target = apply_plaplacian(z1, u0, 3, (0,))
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


def test_no_undershoot_is_logged_as_positive_zero(delta_run, tmp_path):
    assert not np.signbit(delta_run.diagnostics["clamped"]).any()
    cli.export_trajectory(delta_run, tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert not any("-0" in line.split(",") for line in lines[1:])


def test_diagnostics_have_one_entry_per_stored_row(z1, tmp_path):
    u0 = gf.delta_field(z1, (0,), 5.0)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=4)
    bare = gf.solve_truncated(z1, u0, cfg, 8)
    grown = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    assert grown.history[-1]["t"] > 0.0
    outdir = tmp_path / "run"
    cli.export_trajectory(grown, outdir, snapshots=True)
    manifest = {
        "config": {"solver": {"p": 3.0, "t_min": 1e-2, "t_max": 100.0,
                              "num_instants": 57}},
        "center": "0",
        "certified": grown.certified,
        "certified_radius": grown.certified_radius,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    loaded = cli.load_trajectory(outdir, z1)
    for traj in (bare, grown, loaded):
        assert traj.diagnostics.keys() == set(ROW_DIAGNOSTICS.names)
        for key, arr in traj.diagnostics.items():
            assert len(arr) == len(traj.times) and arr[0] == 0, key
    # the step counts grow from row to row, and the last one is the solve's
    for traj in (bare, grown):
        assert (np.diff(traj.diagnostics["accepted"]) >= 0).all()
        assert traj.diagnostics["accepted"][-1] == traj.history[-1]["accepted"]


def test_truncated_support_violation(z1, short_cfg):
    u0 = gf.delta_field(z1, (30,))
    with pytest.raises(ValueError):
        gf.solve_truncated(z1, u0, short_cfg, 4, center=(0,))


def test_boundary_leak_triggers_expansion(z1, short_cfg):
    cfg = gf.SolverConfig(p=3.0, instants=short_cfg.instants, n0=2)
    traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)
    assert traj.certified
    assert traj.certified_radius > 2
    # the first step could already reach ring 2, so B_2 is left at t = 0;
    # some later ball is left part way through the run
    assert traj.history[1]["t"] == 0.0
    assert any(0.0 < h["t"] < cfg.instants[-1] for h in traj.history)
    # B_2 kept to the end leaks through its ring; the grown solve's last ball does not
    full = kept_on(z1, gf.delta_field(z1, (0,)), cfg, (0,), [2])
    assert full.values[1:, full.region.distances == 2].any()
    assert not traj.values[:, traj.region.distances == traj.certified_radius].any()


def test_truncation_convergence_failure(z1):
    # the default first ball, B_8, is too small to hold the solution to t = 10
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10.0, 9),
                          max_expansions=1)
    with pytest.raises(TruncationConvergenceError, match="each of 1 balls"):
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
    u01 = gf.Field(z1, {v: 2.0 * x for v, x in u02.values.items()})
    gap = gf.comparison_check(z1, u01, u02, cfg)
    assert gap >= -1e-8 * 1.0


def test_comparison_partner_that_outgrows_u01_is_certified(z1):
    # the partner shares u01's growing ball, which follows the union of the
    # supports: a far larger negative datum spreads past u01's own ball,
    # and the shared ball grows with it, so its gap holds no truncation error
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                          rtol=1e-10, atol=1e-14)
    u01 = gf.delta_field(z1, (0,), 1.0)
    assert gf.comparison_check(z1, u01, gf.delta_field(z1, (0,), -1.0), cfg) >= -1e-8
    u02 = gf.delta_field(z1, (0,), -1000.0)
    solo = gf.solve_cauchy(z1, u01, cfg)
    traj = gf.solve_cauchy(z1, u01, cfg, partners=(u02,))
    [partner] = traj.partners
    assert partner.certified
    assert not partner.values[:, partner.region.distances == partner.certified_radius].any()
    assert partner.certified_radius == traj.certified_radius > solo.certified_radius
    assert gf.comparison_check(z1, u01, u02, cfg) >= -1e-8 * u01.sup_norm()


def test_a_solve_takes_each_support_radius_once(z1, monkeypatch, tmp_path):
    # with n0 unset the first ball is the data's support radius plus 8:
    # one search per datum and solve, on the vertex path and on the orbits
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7))
    calls = []
    search = gf.Field.support_radius

    def counted(field, x0):
        calls.append(field)
        return search(field, x0)
    monkeypatch.setattr(gf.Field, "support_radius", counted)
    u01, u02 = gf.Field(z1, {(0,): 1.0, (3,): 0.5}), gf.Field(z1, {(0,): 0.5})
    traj = gf.solve_cauchy(z1, u01, cfg, center=(0,), partners=(u02,))
    assert traj.orbits is None and calls == [u01, u02]
    assert traj.history[0]["n"] == 3 + 8
    calls.clear()
    traj = gf.solve_cauchy(z1, u02, cfg)
    assert traj.orbits is not None and calls == [u02]
    # a run searches once, in its set-up, whose radius the propagation eps
    # rule and the solve both read; on a product graph the search is a BFS
    calls.clear()
    cfg = {"graph": {"family": "product", "N": 1, "H": {"edges": [["a", "b", 1.0]]}},
           "initial_data": {"kind": "ball_indicator", "center": [0, 0], "radius": 2},
           "solver": {"p": 3.0, "t_min": 0.01, "t_max": 5.0, "num_instants": 20},
           "checks": [{"type": "propagation_fit", "window": [0.1, 5.0]}]}
    report = cli.run(cfg, tmp_path / "run")
    assert report["certified"] and len(calls) == 1 and calls[0].coords is None


def test_comparison_partner_supported_outside_u01_ball(z1):
    # ordered data whose smaller datum lies far past u01's support: the
    # shared first ball covers both supports (radius 40 + 8), where a solve
    # of u01 alone ends on B_18 and leaves the partner's datum outside
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                          rtol=1e-10, atol=1e-14)
    u01 = gf.delta_field(z1, (0,), 1.0)
    u02 = gf.Field(z1, {(0,): 0.5, (40,): -0.5})
    assert u01.dominates(u02)
    assert gf.comparison_check(z1, u01, u02, cfg) >= -1e-8 * u01.sup_norm()
    traj = gf.solve_cauchy(z1, u01, cfg, partners=(u02,))
    assert traj.history[0]["n"] == 48 and traj.partners[0].certified


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
    with pytest.raises(ValueError):
        gf.mass_radius(delta_run, 1.0)
    # 1 - eps rounds to 1: the whole initial mass could never be met
    with pytest.raises(ValueError):
        gf.mass_radius(delta_run, 2.0 ** -54)
    # at or below len(region) * 2^-53 the target lies within the rounding of
    # the mass sums, so round-off alone would decide whether it is met
    floor = len(delta_run.region) * 2.0 ** -53
    assert 2.0 ** -52 < floor
    for eps in (2.0 ** -52, floor):
        with pytest.raises(ValueError, match="rounding of a mass sum"):
            gf.mass_radius(delta_run, eps)
    assert gf.mass_radius(delta_run, np.nextafter(floor, 1.0))[0] == 0


def test_mass_radius_truncation_deficit(z1):
    # a tiny absorbing ball loses most of the mass by t = 100
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 100.0, 9))
    kept = kept_on(z1, gf.delta_field(z1, (0,)), cfg, (0,), [2])
    traj = gf.Trajectory(cfg, kept.region, kept.times, kept.values, kept.diagnostics)
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
    # no ring to reach, so the first ball is never left and is certified
    assert [h["n"] for h in traj.history] == [2]
    assert len(traj.edges.bi) == 0
    m0 = traj.masses[0]
    assert np.abs(traj.masses - m0).max() <= 1e-12 * m0
    # the flow relaxes toward the constant state on a finite graph
    assert traj.sup_norms[traj.locate(20.0)] < 0.5


def test_finite_graph_covered_after_growth_is_never_left():
    # a 20-cycle: B_2, B_3, B_5 and B_8 have stubs, B_12 holds the whole cycle
    g = gf.generator_from_edges([(k, (k + 1) % 20, 1.0) for k in range(20)])
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 200.0, 9), n0=2)
    traj = gf.solve_cauchy(g, gf.delta_field(g, 0), cfg)
    assert traj.certified and [h["n"] for h in traj.history] == [2, 3, 5, 8, 12]
    assert len(traj.edges.bi) == 0 and len(traj.region) == 20
    m0 = traj.masses[0]
    assert np.abs(traj.masses - m0).max() <= 1e-12 * m0


def test_a_growing_solve_leaves_no_reference_cycles(z1):
    # every ball's region and edge arrays would outlive the solve until the
    # next full collection, which numpy allocations do not trigger
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=4)
    gc.collect()
    gc.disable()
    try:
        traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,), 5.0), cfg)
        assert len(traj.history) > 2
        del traj
        assert gc.collect() == 0
    finally:
        gc.enable()


def _shipped(name):
    # the graph, data, center and solver config of a shipped config's run
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    return cli._setup(json.loads(path.read_text()))[:4]


@pytest.mark.parametrize("name", ["lattice1d_p3_decay", "lattice2d_p3_decay"])
def test_stages_are_evaluated_in_place(monkeypatch, name):
    # a one-row solve writes each stage input into the kernel's own buffer
    # and each stage into its row of the stage buffer: no copy either way
    g, u0, center, cfg = _shipped(name)
    divergence = gf.graphs.NeighbourTable.divergence
    calls = []   # per kernel call: whether it read its input in place, the stage row of out

    def recorded(table, p, degrees=None):
        div = divergence(table, p, degrees)

        def call(u, out=None):
            row = None
            if out is not None:   # a row of the (1, 7, m) stage buffer
                m = len(u)
                assert out.shape == (m,) and out.base.shape == (1, 7, m)
                assert out.flags.c_contiguous
                row, rest = divmod(out.ctypes.data - out.base.ctypes.data, 8 * m)
                assert rest == 0
            calls.append((u is div.input, row))
            return div(u, out)
        call.input = div.input
        return call
    monkeypatch.setattr(gf.graphs.NeighbourTable, "divergence", recorded)
    traj = gf.solve_cauchy(g, u0, cfg, center=center)
    evals = sum(h["rhs_evals"] for h in traj.history)
    assert len(traj.history) > 1 and len(calls) == evals
    # the first step is sized on K[0] = f(y), written to its row, and on one
    # more value; every later call is a stage of an attempt
    assert calls[:2] == [(False, 0), (False, None)]
    assert calls[2:] == [(True, i) for i in range(1, 7)] * ((evals - 2) // 6)


@pytest.mark.parametrize("name", ["lattice1d_p3_decay", "lattice2d_p3_decay"])
def test_a_plain_rhs_solves_as_the_kernel_does(monkeypatch, name):
    # _integrate adapts an rhs(t, u) without an input buffer or out, as the
    # bench tracer wraps _make_rhs: the same bits, and every evaluation made
    g, u0, center, cfg = _shipped(name)
    want = gf.solve_cauchy(g, u0, cfg, center=center)
    make_rhs, calls = solver._make_rhs, [0]

    def plain(table, degrees, p):
        rhs = make_rhs(table, degrees, p)

        def call(t, u):
            calls[0] += 1
            return rhs(t, u)
        return call
    monkeypatch.setattr(solver, "_make_rhs", plain)
    got = gf.solve_cauchy(g, u0, cfg, center=center)
    assert calls[0] == sum(h["rhs_evals"] for h in got.history)
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.history == want.history
    for key, values in want.diagnostics.items():
        assert got.diagnostics[key].tobytes() == values.tobytes()


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_the_two_entry_sum_solves_as_the_reduction(monkeypatch, z1, p):
    # one add of a Z^1 column's two terms is np.add.reduce's sum but for a
    # column of two -0 terms (-0, where the reduction gives +0), such as at
    # the bump of 1e-170 below.  A stage only enters sums and is added to a
    # state that is never -0, so the rows are those of a kernel that
    # reduces, bit for bit
    from test_operators import _assert_the_reduction, reduced_divergence
    u0 = gf.Field(z1, {(0,): 1.0, (1,): 0.5, (6,): 1e-170})
    cfg = gf.SolverConfig(p=p, instants=gf.log_instants(0.01, 5.0, 12))
    want = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    divergence, differ = gf.graphs.NeighbourTable.divergence, [0]

    def reducing(table, p, degrees=None):
        div = divergence(table, p, degrees)

        def call(u, out=None):
            got = div(u, out)
            reduced, negative_zeros = reduced_divergence(table, p, u, degrees)
            _assert_the_reduction(got, reduced, negative_zeros)
            differ[0] += int(np.count_nonzero(got.view(np.int64) != reduced.view(np.int64)))
            got[...] = reduced
            return got
        call.input = div.input
        return call
    monkeypatch.setattr(gf.graphs.NeighbourTable, "divergence", reducing)
    got = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    assert differ[0] > 0 and want.orbits is None
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.history == want.history
    assert not np.signbit(want.rows).any()


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_the_path_body_solves_as_the_table_body(monkeypatch, z1, p):
    # a centred Z^1 solve runs on its orbit quotient, a path: each edge's
    # flux once.  Beside a plateau, a forward flux that underflows to -0
    # gives -0 where the gathered column's two terms give +0 (the outer
    # edge of the 1e-170 bump below).  A stage only enters sums and is
    # added to a state that is never -0, so the rows, history and
    # diagnostics are those of the table body, bit for bit
    from test_operators import _assert_same_but_zero_signs, table_body
    u0 = gf.Field(z1, {**{(k,): 1.0 for k in range(-2, 3)},
                       **{(k,): 1e-170 for k in (-6, -5, 5, 6)}})
    cfg = gf.SolverConfig(p=p, instants=gf.log_instants(0.01, 5.0, 12))
    want = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    divergence, differ = gf.graphs.NeighbourTable.divergence, [0, 0]

    def gathering(table, p, degrees=None):
        div = divergence(table, p, degrees)
        if not table.path:
            return div
        gather = divergence(table_body(table), p, degrees)

        def call(u, out=None):
            reference = gather(u)
            got = div(u, out)
            _assert_same_but_zero_signs(got, reference)
            differ[0] += 1
            differ[1] += int(np.count_nonzero(got.view(np.int64) != reference.view(np.int64)))
            got[...] = reference
            return got
        call.input = div.input
        return call
    monkeypatch.setattr(gf.graphs.NeighbourTable, "divergence", gathering)
    got = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    assert want.orbits is not None and differ[0] == sum(h["rhs_evals"] for h in got.history)
    assert differ[1] > 0
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.history == want.history
    for key, values in want.diagnostics.items():
        assert got.diagnostics[key].tobytes() == values.tobytes()
    assert not np.signbit(want.rows).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 700), st.integers(2, 4), st.integers(-310, 100), st.integers(-310, 100),
       st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
@example(1, 3, 0, 0, 0.5, 0)   # ndarray.dot gives 0.2 * -0 = -0 for stage 1 at m = 1
def test_dot_and_matmul_stage_products_agree(m, k, lo, hi, zeros, seed):
    # an attempt on one row forms its stage sums and its step and error with
    # ndarray.dot, one on k rows with a broadcast np.matmul (solver._times).
    # Both make the same BLAS call, so each row of a k-row product is
    # bitwise its one-row product, and np.matmul's: at magnitudes from
    # 1e-310 to 1e100, with exact zeros of either sign
    rng = np.random.default_rng(seed)
    lo, hi = sorted((lo, hi))
    S = rng.choice([-1.0, 1.0], (k, 7, m)) * 10.0 ** rng.uniform(lo, hi, (k, 7, m))
    S[rng.random(S.shape) < zeros] = 0.0
    S[rng.random(S.shape) < zeros / 2] = -0.0
    products = [(a, S[:, :i]) for i, a in enumerate(solver._DP_A) if i]
    for w, heads in [*products, (solver._DP_BE, S)]:
        lead = w.shape[:-1]   # () for a stage sum, (2,) for the step and the error
        stacked = np.empty((*lead, k, m))   # as _integrate's k-row outputs
        solver._times(w, k, m)(heads, out=np.moveaxis(stacked, -2, 0))
        for r in range(k):
            one, ref = np.empty((*lead, m)), np.empty((*lead, m))
            solver._times(w, 1, m)(heads[r], out=one)
            np.matmul(w, heads[r], out=ref)
            assert np.array_equal(one.view(np.int64), ref.view(np.int64))
            assert np.array_equal(one.view(np.int64), stacked[..., r, :].view(np.int64))
