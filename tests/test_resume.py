"""Each certification stage resumes from the previous stage's resume point.

A stage's resume point is its integrator state after the leading steps
that started with the support at least 7 layers inside its boundary ring,
so that every stage input of those steps was exactly 0 there.  On a larger
ball those steps compute the same values, and their error norm is smaller,
so a stage on the larger ball takes them over with their rows instead of
integrating them again.
"""
import numpy as np
import pytest

import graphflow as gf
from graphflow.solver import RADIUS_GROWTH, _positions

# (N, data, center, SolverConfig arguments)
CASES = {
    "z1_delta": (1, {(0,): 5.0}, (0,),
                 dict(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=4)),
    "z2_delta": (2, {(0, 0): 30.0}, (0, 0),
                 dict(p=3.0, instants=gf.log_instants(1e-2, 30.0, 31), n0=8)),
    # instants from 1e-5, so that rows before the resume point at 5.5e-5 are taken over
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
    prev, n, copied = None, cfg.n0, 0
    while n <= traj.certified_radius:   # the stages of solve_cauchy, by hand
        stage = gf.solve_truncated(g, u0, cfg, n, center=center, stop_at_ring=True,
                                   resume=prev)
        if prev is None or prev.resume_point is None:
            assert stage.history[0]["resumed_at"] is None
        else:
            t, k = prev.resume_point["t"], prev.resume_point["k_out"]
            assert stage.history[0]["resumed_at"] == t > 0.0
            assert (stage.times[:k + 1] <= t * (1 + 1e-15)).all()
            widened = np.zeros((k + 1, len(stage.region)))
            widened[:, _positions(stage.region, prev.region)] = prev.values[:k + 1]
            assert _same_bits(stage.values[:k + 1], widened)
            for key, arr in prev.diagnostics.items():
                assert _same_bits(stage.diagnostics[key][:k + 1], arr[:k + 1]), key
            copied = max(copied, k)
        prev = stage
        n *= RADIUS_GROWTH
    assert _same_bits(stage.values, traj.values)
    assert copied > 0   # some stage took over output rows, not only steps


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_stage_resumes_where_the_stage_before_it_stopped(case):
    g, u0, cfg, center = _case(case)
    traj = gf.solve_cauchy(g, u0, cfg, center=center)
    assert traj.history[-1]["stopped_at"] is None
    for h, after in zip(traj.history, traj.history[1:]):
        # a stage stopped before its first step leaves the next one to start at t = 0
        assert h["stopped_at"] is not None
        assert after["resumed_at"] == (h["stopped_at"] or None)


def test_stage_resumed_from_a_boundary_free_stage_repeats_it_exactly():
    z1 = gf.lattice_generator(1)
    u0 = gf.delta_field(z1, (0,), 1.0)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 10.0, 31), n0=24)
    first = gf.solve_truncated(z1, u0, cfg, 24, center=(0,))
    # the support stays 7 layers inside ring 24: every step is taken over
    assert not first.values[:, first.region.distances > 24 - 7].any()
    assert first.resume_point["t"] == cfg.instants[-1]
    again = gf.solve_truncated(z1, u0, cfg, 48, center=(0,), stop_at_ring=True,
                               resume=first)
    assert again.history[0]["resumed_at"] == cfg.instants[-1]
    assert again.history[0]["rhs_evals"] == 0 and again.history[0]["stopped_at"] is None
    widened = np.zeros_like(again.values)
    widened[:, _positions(again.region, first.region)] = first.values
    assert _same_bits(again.values, widened)
    # so such a stage is certified, with no second stage to confirm it
    traj = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    assert [h["n"] for h in traj.history] == [24]
    assert traj.certified and _same_bits(traj.values, first.values)


@pytest.mark.parametrize("case", sorted(CASES))
def test_resumed_solve_matches_a_fresh_solve(case):
    g, u0, cfg, center = _case(case)
    traj = gf.solve_cauchy(g, u0, cfg, center=center)
    assert any(h["resumed_at"] is not None for h in traj.history)
    fresh = gf.solve_truncated(g, u0, cfg, traj.certified_radius, center=center)
    assert fresh.history[0]["resumed_at"] is None
    # measured: 0.05, 0.22 and 0.17 rtol * ||u0|| on Z^1, Z^2 and the dipole
    gap = np.abs(traj.values - fresh.values).max()
    assert gap <= 10 * cfg.rtol * u0.sup_norm()


def test_resume_needs_a_smaller_ball_about_the_same_center():
    z1 = gf.lattice_generator(1)
    u0 = gf.delta_field(z1, (0,))
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1.0, 5))
    small = gf.solve_truncated(z1, u0, cfg, 16, center=(0,))
    with pytest.raises(ValueError, match="cannot resume"):
        gf.solve_truncated(z1, u0, cfg, 8, center=(0,), resume=small)
    with pytest.raises(ValueError, match="cannot resume"):
        gf.solve_truncated(z1, u0, cfg, 32, center=(1,), resume=small)
