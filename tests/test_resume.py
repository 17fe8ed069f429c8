"""A growing solve resumes on each larger ball where it left the smaller one.

Before a step whose stage inputs could reach the boundary ring of ``B_R``,
the solve moves onto ``B_ceil(RADIUS_GROWTH * R)``: the state, the FSAL
value and the stored rows are widened by zeros and stepping goes on with
the same integrator state.  So the rows written before a growth are the
rows of the same run kept on the smaller ball (``dirichlet.kept_on``), and
a solve that never grows is that run kept on its one ball, bit for bit.
"""
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import graphflow as gf
from graphflow import cli
from graphflow.graphs import region_edges
from graphflow.solver import RADIUS_GROWTH, TruncationConvergenceError, _integrate, _make_rhs
from dirichlet import kept_on

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (N, data, center, SolverConfig arguments)
CASES = {
    "z1_delta": (1, {(0,): 5.0}, (0,),
                 dict(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=4)),
    "z2_delta": (2, {(0, 0): 30.0}, (0, 0),
                 dict(p=3.0, instants=gf.log_instants(1e-2, 30.0, 31), n0=8)),
    # instants from 1e-5, so that rows are written before the growth at 5.5e-5
    "z1_signed_dipole": (1, {(1,): -2.0, (-1,): 1.0}, (0,),
                         dict(p=3.0, instants=gf.log_instants(1e-5, 10.0, 41), n0=3)),
}


def _case(name):
    N, data, center, kw = CASES[name]
    g = gf.lattice_generator(N)
    return g, gf.Field(g, data), gf.SolverConfig(**kw), center


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_resumed_rows_are_the_previous_rows_widened_by_zeros(case):
    g, u0, cfg, center = _case(case)
    traj = gf.solve_cauchy(g, u0, cfg, center=center)
    radii = [h["n"] for h in traj.history]
    assert len(radii) > 1
    written = 0
    for k, after in enumerate(traj.history[1:], start=1):
        # the same run kept on ball k - 1 instead of moving onto ball k
        kept = kept_on(g, u0, cfg, center, radii[:k])
        m = int(np.count_nonzero(traj.times <= after["t"] * (1 + 1e-15)))
        # each ball is the first vertices of the next
        assert traj.region.vertices[:len(kept.region)] == kept.region.vertices
        widened = np.zeros((m, len(traj.region)))
        widened[:, :len(kept.region)] = kept.values[:m]
        assert _same_bits(traj.values[:m], widened)
        for key, arr in traj.diagnostics.items():
            assert _same_bits(arr[:m], kept.diagnostics[key][:m]), key
        written = max(written, m - 1)
    assert written > 0   # some growth came after rows had been written
    # kept on the solve's own last ball, which it never left, the run is
    # the solve: the reference takes the solver's callbacks, bit for bit
    kept = kept_on(g, u0, cfg, center, radii)
    assert kept.history == traj.history and (kept.orbits is None) == (traj.orbits is None)
    assert _same_bits(kept.values, traj.values)


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_stage_resumes_where_the_stage_before_it_stopped(case):
    g, u0, cfg, center = _case(case)
    traj = gf.solve_cauchy(g, u0, cfg, center=center)
    assert traj.history[0]["t"] == 0.0
    # each ball is about the solve's center, RADIUS_GROWTH times the last,
    # rounded up
    assert traj.region.center == center
    assert traj.certified_radius == traj.history[-1]["n"]
    for k, (h, after) in enumerate(zip(traj.history, traj.history[1:]), start=1):
        assert after["n"] == math.ceil(RADIUS_GROWTH * h["n"])
        assert h["t"] <= after["t"] < cfg.instants[-1]
        assert h["accepted"] <= after["accepted"] and h["rejected"] <= after["rejected"]
        # a solve allowed only k balls gives up exactly where this one moved on
        capped = gf.SolverConfig(**{**CASES[case][3], "max_expansions": k})
        with pytest.raises(TruncationConvergenceError,
                           match=re.escape(f"radius {h['n']}, at t={after['t']!r})")):
            gf.solve_cauchy(g, u0, capped, center=center)


def test_resume_needs_a_smaller_ball_about_the_same_center():
    # the solve resumes only on a larger ball about its own center, whose
    # first vertices are the ball it leaves, at the same distances
    z1 = gf.lattice_generator(1)
    u0 = gf.delta_field(z1, (0,))
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1.0, 5), n0=2)
    for center in [(0,), (1,)]:
        traj = gf.solve_cauchy(z1, u0, cfg, center=center)
        assert traj.region.center == center and len(traj.history) > 1
        for h, after in zip(traj.history, traj.history[1:]):
            small, large = gf.ball(z1, center, h["n"]), gf.ball(z1, center, after["n"])
            m = len(small)
            assert large.vertices[:m] == small.vertices and m < len(large)
            assert (large.distances[:m] == small.distances).all()
        assert traj.values[0, traj.region.index[(0,)]] == 1.0
    with pytest.raises(ValueError, match="outside"):
        gf.solve_truncated(z1, u0, cfg, 2, center=(5,))


def test_a_solve_that_never_grows_is_the_fixed_ball_solve():
    z1 = gf.lattice_generator(1)
    u0 = gf.delta_field(z1, (0,), 1.0)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 10.0, 31), n0=24)
    fixed = kept_on(z1, u0, cfg, (0,), [24])
    # the support stays 7 layers inside ring 24, so no step could reach it
    assert not fixed.values[:, fixed.region.distances > 24 - 7].any()
    grown = gf.solve_truncated(z1, u0, cfg, 24, center=(0,))
    assert [h["n"] for h in grown.history] == [24] and grown.certified
    assert grown.history == fixed.history
    for traj in (grown, gf.solve_cauchy(z1, u0, cfg, center=(0,))):
        assert _same_bits(traj.values, fixed.values)
        assert _same_bits(traj.times, fixed.times)
        for key, arr in fixed.diagnostics.items():
            assert _same_bits(traj.diagnostics[key], arr), key


@pytest.mark.parametrize("case", sorted(CASES))
def test_resumed_solve_matches_a_fresh_solve(case):
    g, u0, cfg, center = _case(case)
    traj = gf.solve_cauchy(g, u0, cfg, center=center)
    assert any(h["t"] > 0.0 for h in traj.history)
    fresh = gf.solve_truncated(g, u0, cfg, traj.certified_radius, center=center)
    assert len(fresh.history) == 1
    # the same steps: the error norms of both divide by |B_n0|
    assert fresh.diagnostics["accepted"][-1] == traj.diagnostics["accepted"][-1]
    assert fresh.diagnostics["rejected"][-1] == traj.diagnostics["rejected"][-1]
    # measured: 2.2e-16, 3.0e-17 and 0 ||u0|| on Z^1, Z^2 and the dipole (sums
    # over the balls of different length round differently); margin 45x
    gap = np.abs(traj.values - fresh.values).max()
    assert gap <= 1e-14 * u0.sup_norm()


def test_first_ball_within_reach_of_the_data_is_left_before_any_work():
    z1 = gf.lattice_generator(1)
    kw = dict(p=3.0, instants=gf.log_instants(0.1, 5.0, 7), rtol=1e-10, atol=1e-14)
    # support radius 4 on B_10: the first step could reach ring 10, and a
    # delta on B_2, B_3 and B_5 could reach theirs
    for u0, radii in [(gf.Field(z1, {(k,): 1.0 + 0.1 * k for k in range(-4, 5)}), [10, 15]),
                      (gf.delta_field(z1, (0,)), [2, 3, 5, 8])]:
        *left, n = radii
        cfg = gf.SolverConfig(**kw, n0=left[0])
        traj = gf.solve_cauchy(z1, u0, cfg, center=(0,))
        assert [h["n"] for h in traj.history[:len(radii)]] == radii
        assert [(h["rhs_evals"], h["accepted"]) for h in traj.history[:len(left)]] == \
            [(0, 0)] * len(left)
        # the same solve started on B_n, its error norms divided by |B_n0|
        same = gf.solve_truncated(z1, u0, cfg, n, center=(0,))
        assert same.history[0]["n"] == n and same.history[0]["t"] == 0.0
        assert traj.history[len(left):] == same.history
        assert _same_bits(traj.values, same.values)
        for key, arr in same.diagnostics.items():
            assert _same_bits(traj.diagnostics[key], arr), key


def test_propagation_config_grows_after_rows_were_written():
    cfg = json.loads((CONFIGS / "lattice1d_p3_propagation.json").read_text())
    g = cli.build_generator(cfg["graph"])
    u0, center = cli.build_initial_field(g, cfg["initial_data"])
    scfg = cli.build_solver_config(cfg["solver"])
    traj = gf.solve_cauchy(g, u0, scfg, center=center)
    first, after = traj.history
    assert 0.0 < after["t"] < scfg.instants[-1]
    # the fixed solve on the first ball takes the same steps up to the growth,
    # and more after it
    fixed = kept_on(g, u0, scfg, center, [first["n"]])
    assert first["accepted"] < fixed.history[0]["accepted"]
    m = int(np.count_nonzero(traj.times <= after["t"] * (1 + 1e-15)))
    assert m > 1
    assert traj.region.vertices[:len(fixed.region)] == fixed.region.vertices
    widened = np.zeros((m, len(traj.region)))
    widened[:, :len(fixed.region)] = fixed.values[:m]
    assert _same_bits(traj.values[:m], widened)
    for key, arr in fixed.diagnostics.items():
        assert _same_bits(traj.diagnostics[key][:m], arr[:m]), key
    assert traj.diagnostics["accepted"][m - 1] <= first["accepted"]


def _delta_on_ball(radius, amplitude, t_eval):
    """``_integrate`` arguments for a Z^1 delta at p = 3 on ``B_radius``."""
    z1 = gf.lattice_generator(1)
    region = gf.ball(z1, (0,), radius)
    table = region_edges(z1, region)

    def rhs_on(m):
        return _make_rhs(table.restrict(m), region.degrees[:m], 3.0)
    y0 = np.zeros(len(region))
    y0[region.index[(0,)]] = amplitude
    return (rhs_on, region.distances, y0, float(t_eval[-1]), t_eval, 1e-8, 1e-12, 10 ** 6)


def test_integrate_rows_before_a_growth_are_the_fixed_run_rows():
    t_eval = gf.log_instants(1e-3, 50.0, 40)
    args = _delta_on_ball(16, 5.0, t_eval)
    rhs_on, dist = _delta_on_ball(32, 5.0, t_eval)[:2]
    m = len(args[2])   # B_16 is the first m vertices of B_32
    grown_at = []

    def grow(t):   # onto B_32, reported without a ring: it is never left
        grown_at.append(t)
        return dist, rhs_on, False
    fixed, fixed_diag = _integrate(*args)
    Y, diag = _integrate(*args, grow=grow)
    [t] = grown_at
    assert 0.0 < t < 50.0 and [b["t"] for b in diag["balls"]] == [0.0, t]
    k = int(np.count_nonzero(t_eval <= t * (1 + 1e-15)))
    assert 0 < k < len(t_eval)
    assert _same_bits(Y[:k + 1, :m], fixed[:k + 1]) and _same_bits(Y[0, :m], args[2])
    assert not Y[:k + 1, m:].any()
    for key in ("accepted", "rejected", "max_scaled_error"):
        assert _same_bits(diag[key][:k + 1], fixed_diag[key][:k + 1]), key
    assert diag["balls"][0]["accepted"] < fixed_diag["balls"][0]["accepted"]


def test_integrate_with_a_growth_that_never_fires_is_the_fixed_run():
    # the support of a unit delta stays 7 layers inside ring 24 up to t = 10
    args = _delta_on_ball(24, 1.0, gf.log_instants(1e-2, 10.0, 31))

    def grow(t):
        raise AssertionError("grew")
    fixed, fixed_diag = _integrate(*args)
    Y, diag = _integrate(*args, grow=grow)
    assert _same_bits(Y, fixed) and len(Y) == 32 and len(diag["accepted"]) == 32
    assert diag["balls"] == fixed_diag["balls"] and len(diag["balls"]) == 1
