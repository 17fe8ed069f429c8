"""Error control does not depend on the ball a solve runs on.

Every RMS error norm of a solve divides by ``|B_n0|``, the size of the
first ball of :func:`solve_cauchy` (``n0 = first_radius``), for the whole
run, and sums the squares over the ball in whole-ball order.  So the
steps of a fixed-ball solve do not depend on its radius, and those of a
growing solve do not depend on how far each growth goes.  Sums over
arrays of different length may round differently, so the values agree to
round-off, not bit for bit.
"""
import numpy as np
import pytest

import graphflow as gf
from graphflow import solver
from graphflow.solver import TruncationConvergenceError
from dirichlet import kept_on
from test_resume import CASES, _case


def _steps(traj):
    return (int(traj.diagnostics["accepted"][-1]), int(traj.diagnostics["rejected"][-1]))


# (N, data, center, n0, t_max): the support stays 7 layers inside ring n0
FIXED = {
    "z1": (1, {(0,): 5.0}, (0,), 20, 5.0),
    "z2": (2, {(0, 0): 30.0}, (0, 0), 20, 1.0),
}


@pytest.mark.parametrize("case", sorted(FIXED))
def test_fixed_balls_take_the_same_steps(case):
    N, data, center, n0, t_max = FIXED[case]
    g = gf.lattice_generator(N)
    u0 = gf.Field(g, data)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, t_max, 21), n0=n0)
    first, *larger = [kept_on(g, u0, cfg, center, [k * n0]) for k in (1, 2, 4)]
    assert not first.values[:, first.region.distances > n0 - 7].any()
    assert not first.values[:, first.region.distances == n0].any()
    for traj in larger:
        assert _steps(traj) == _steps(first)
        m = len(first.region)   # B_n0 is the first m vertices of the larger ball
        assert traj.region.vertices[:m] == first.region.vertices
        assert np.abs(traj.values[:, :m] - first.values).max() <= 1e-12 * u0.sup_norm()
        assert not traj.values[:, m:].any()


@pytest.mark.parametrize("case", sorted(CASES))
def test_growth_factor_does_not_change_the_steps(case, monkeypatch):
    g, u0, cfg, center = _case(case)
    runs = {}
    for factor in (2, 1.5):
        monkeypatch.setattr(solver, "RADIUS_GROWTH", factor)
        traj = gf.solve_cauchy(g, u0, cfg, center=center)
        assert traj.certified
        assert not traj.values[:, traj.region.distances == traj.certified_radius].any()
        runs[factor] = traj
    doubled, default = runs[2], runs[1.5]
    assert len(default.history) > len(doubled.history) > 1
    assert default.certified_radius <= doubled.certified_radius
    assert _steps(default) == _steps(doubled)
    assert sum(h["rhs_evals"] for h in default.history) == \
        sum(h["rhs_evals"] for h in doubled.history)
    m = len(default.region)
    assert doubled.region.vertices[:m] == default.region.vertices
    assert np.abs(doubled.values[:, :m] - default.values).max() <= 1e-12 * u0.sup_norm()


def test_default_ball_cap_reaches_as_far_as_eight_doublings(monkeypatch):
    # 13 balls grown by 3/2 from n0 end on a radius of at least 1.5^12 n0,
    # not less than the 8th ball of the former doubling schedule, 2^7 n0
    assert gf.SolverConfig(p=3.0, instants=[1.0]).max_expansions == 13
    z1 = gf.lattice_generator(1)
    u0 = gf.delta_field(z1, (0,), 1e4)
    kw = dict(p=3.0, instants=gf.log_instants(1e-3, 100.0, 9), n0=1)
    monkeypatch.setattr(solver, "RADIUS_GROWTH", 2)
    doubled = gf.solve_cauchy(z1, u0, gf.SolverConfig(**kw, max_expansions=8))
    assert [h["n"] for h in doubled.history] == [2 ** k for k in range(8)]
    monkeypatch.undo()
    # 8 balls grown by 3/2 from B_1 end on B_27, short of the solution's reach ...
    with pytest.raises(TruncationConvergenceError, match="radius 27,"):
        gf.solve_cauchy(z1, u0, gf.SolverConfig(**kw, max_expansions=8))
    # ... and the default cap certifies the solve
    default = gf.solve_cauchy(z1, u0, gf.SolverConfig(**kw))
    assert default.certified and len(default.history) <= 13
    assert _steps(default) == _steps(doubled)
