"""A growing solve leaves a ball before its first step that could reach its ring.

The growth rule tests exact zeros within 7 layers of the ring, so the
negative lobe of signed data counts as much as the positive one.  Each
ball the solve left, kept from t = 0 to the end (a full stage), holds
nonzeros within 7 layers of its ring, and the returned ball's ring holds
none.
"""
import numpy as np

import graphflow as gf
from dirichlet import kept_on


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_signed_dipole_matches_full_stages():
    z1 = gf.lattice_generator(1)
    u0 = gf.Field(z1, {(1,): -2.0, (-1,): 1.0})
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-3, 10.0, 41), n0=3)
    traj = gf.solve_cauchy(z1, u0, cfg, center=(0,))
    assert traj.certified and (traj.values < 0).any() and (traj.values > 0).any()
    assert any(h["t"] > 0.0 for h in traj.history)   # a ball left after t = 0
    assert not traj.values[:, traj.region.distances == traj.certified_radius].any()
    # every ball the solve left comes within a step's reach of its ring
    # when it is kept to the end
    for h in traj.history[:-1]:
        full = kept_on(z1, u0, cfg, (0,), [h["n"]])
        assert full.values[:, full.region.distances > h["n"] - 7].any(), h["n"]
    # the returned ball's full stage stays within the integration tolerance
    full = kept_on(z1, u0, cfg, (0,), [traj.certified_radius])
    assert np.abs(traj.values - full.values).max() <= 10 * cfg.rtol * u0.sup_norm()
    # the balls left at t = 0 cost nothing: starting on the first ball that
    # took a step, with the error norms still divided by |B_n0|, gives the
    # same solve bit for bit
    worked = next(k for k, h in enumerate(traj.history) if h["rhs_evals"])
    assert all(h["t"] == 0.0 for h in traj.history[:worked + 1])
    same = gf.solve_truncated(z1, u0, cfg, traj.history[worked]["n"], center=(0,))
    assert same.history == traj.history[worked:]
    assert _same_bits(same.values, traj.values)
    for key, arr in traj.diagnostics.items():
        assert _same_bits(same.diagnostics[key], arr), key
