"""A truncation stage stops before its first step that could reach its ring.

The certificate rule is "certify the first stage whose every step kept
every stage input exactly 0 on its boundary ring", so once a step cannot
promise that, the rest of the stage cannot change the schedule.  The
reference below integrates every stage to t_max, each resuming from the
previous full stage, and certifies the first stage whose resume point is
t_max; the early-stopping solver must give the same stages and the same
certified trajectory bit for bit.  A stopped stage ends at its resume
point, so the stage after it starts from the same state either way.
"""
import json
from pathlib import Path

import numpy as np

import graphflow as gf
from graphflow import cli
from graphflow.graphs import region_edges
from graphflow.solver import RADIUS_GROWTH, _integrate, _make_rhs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def reference_cauchy(g, u0, cfg, center):
    """The expansion loop with every stage integrated to t_max.

    Returns the certified trajectory and every stage's full trajectory.
    Every stage after the first resumes from the full stage before it.
    """
    n, last, stages = int(cfg.n0), None, []
    for _ in range(cfg.max_expansions):
        traj = last = gf.solve_truncated(g, u0, cfg, n, center=center, resume=last)
        stages.append(traj)
        point = traj.resume_point
        if point is not None and point["t"] == cfg.instants[-1]:
            return traj, stages
        n *= RADIUS_GROWTH
    raise AssertionError("reference schedule did not certify")


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(g, u0, cfg, center):
    ref, stages = reference_cauchy(g, u0, cfg, center)
    traj = gf.solve_cauchy(g, u0, cfg, center=center)
    assert traj.certified and traj.certified_radius == ref.region.radius
    assert _same_bits(traj.values, ref.values)
    assert _same_bits(traj.times, ref.times)
    assert traj.diagnostics.keys() == ref.diagnostics.keys()
    for key, arr in ref.diagnostics.items():
        assert _same_bits(traj.diagnostics[key], arr), key
    assert [h["n"] for h in traj.history] == [s.region.radius for s in stages]
    assert any(h["resumed_at"] is not None for h in traj.history)
    assert all(h["boundary_leak"] == 0.0 for h in traj.history)
    for i, (h, full) in enumerate(zip(traj.history, stages)):
        assert h["resumed_at"] == full.history[0]["resumed_at"]
        if full is ref:
            assert h["stopped_at"] is None
            continue
        # a stopped stage ends where its leading boundary-free steps end
        point = full.resume_point
        k = 0 if point is None else point["k_out"]
        assert h["stopped_at"] == (0.0 if point is None else point["t"])
        assert h["accepted"] == (0 if point is None else point["accepted"])
        assert h["rejected"] == (0 if point is None else point["rejected"])
        # the stopped stage is the bitwise prefix of the full one
        resume = stages[i - 1] if i else None
        stopped = gf.solve_truncated(g, u0, cfg, full.region.radius, center=center,
                                     stop_at_ring=True, resume=resume)
        assert _same_bits(stopped.values, full.values[:k + 1])
        assert _same_bits(stopped.times, full.times[:k + 1])
        for key, arr in full.diagnostics.items():
            assert _same_bits(stopped.diagnostics[key], arr[:k + 1]), key
    return traj, stages


def test_propagation_config_matches_full_stages():
    cfg = json.loads((CONFIGS / "lattice1d_p3_propagation.json").read_text())
    g = cli.build_generator(cfg["graph"])
    u0, center = cli.build_initial_field(g, cfg["initial_data"])
    scfg = cli.build_solver_config(cfg["solver"])
    traj, stages = assert_matches_reference(g, u0, scfg, center)
    # the first stage reaches its ring and stops well before t_max
    assert traj.history[0]["stopped_at"] < scfg.instants[-1]
    assert traj.history[0]["accepted"] < stages[0].diagnostics["accepted"][-1]


def test_small_first_ball_matches_full_stages():
    z1 = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=2)
    traj, stages = assert_matches_reference(z1, gf.delta_field(z1, (0,)), cfg, (0,))
    assert sum(h["stopped_at"] is not None for h in traj.history) >= 2


def test_signed_dipole_matches_full_stages():
    # the stop tests exact zeros, so the negative lobe counts as much as the
    # positive one
    z1 = gf.lattice_generator(1)
    u0 = gf.Field(z1, {(1,): -2.0, (-1,): 1.0})
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-3, 10.0, 41), n0=3)
    traj, stages = assert_matches_reference(z1, u0, cfg, (0,))
    assert (traj.values < 0).any() and (traj.values > 0).any()
    assert any(h["stopped_at"] for h in traj.history)   # a stage stopped after t = 0


def _delta_on_ball(radius, amplitude, t_eval):
    """``_integrate`` arguments for a Z^1 delta at p = 3 on ``B_radius``."""
    z1 = gf.lattice_generator(1)
    region = gf.ball(z1, (0,), radius)
    edges = region_edges(z1, region)

    def rhs_on(keep):
        return _make_rhs(edges.restrict(keep), region.degrees[keep], 3.0)
    y0 = np.zeros(len(region))
    y0[region.index[(0,)]] = amplitude
    return (rhs_on, region.distances, y0, float(t_eval[-1]), t_eval, 1e-8, 1e-12, 10 ** 6)


def test_integrate_stop_returns_bitwise_prefix():
    args = _delta_on_ball(16, 5.0, gf.log_instants(1e-3, 50.0, 40))
    full, full_diag = _integrate(*args)
    Y, diag = _integrate(*args, stop_at_ring=True)
    assert full_diag["stopped_at"] is None
    point = full_diag["resume"]
    k = point["k_out"]
    assert 0 < k < len(args[4])
    assert 0.0 < diag["stopped_at"] == point["t"] < 50.0
    assert _same_bits(Y, full[:k + 1]) and _same_bits(Y[0], args[2])
    for key in ("accepted", "rejected", "max_scaled_error"):
        assert _same_bits(diag[key], full_diag[key][:k + 1]), key
    assert diag["total_accepted"] == point["accepted"] < full_diag["total_accepted"]
    assert diag["resume"]["t"] == point["t"]


def test_integrate_with_a_stop_that_never_fires_runs_to_the_end():
    # the support of a unit delta stays 7 layers inside ring 24 up to t = 10
    args = _delta_on_ball(24, 1.0, gf.log_instants(1e-2, 10.0, 31))
    full, _ = _integrate(*args)
    Y, diag = _integrate(*args, stop_at_ring=True)
    assert diag["stopped_at"] is None and diag["resume"]["t"] == 10.0
    assert _same_bits(Y, full) and len(Y) == 32 and len(diag["accepted"]) == 32
