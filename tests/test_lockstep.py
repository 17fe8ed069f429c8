"""Rows integrated in lockstep are the rows of their own solves.

``solve_cauchy(..., partners=...)`` and ``comparison_check`` integrate
several data as one stacked state: one loop iteration is one attempt for
every row, each row with its own step size, controller and error norm,
on one ball that follows the union of the supports.  A row's stage
products, kernel sums and error sums round as in a run of that row
alone, so each row is bitwise its own solve, up to the lengths of the
error sums, which follow the ball schedule.  Rows reject and finish at
different attempts; a finished row leaves the stack.
"""
import numpy as np
import pytest

import graphflow as gf
from graphflow.solver import _integrate

ENSEMBLE_CFG = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                               rtol=1e-10, atol=1e-14, n0=10)


def _pair(N, seed, scale):
    # u01 = u02 + bump on the radius-2 ball (Z^2) or 9 vertices (Z^1), as in
    # the comparison ensemble; scale shrinks u02, down to the zero field
    g = gf.lattice_generator(N)
    support = ([(k,) for k in range(-4, 5)] if N == 1
               else sorted(gf.ball(g, (0, 0), 2).vertices))
    rng = np.random.default_rng(seed)
    base = dict(zip(support, (scale * rng.uniform(0.0, 1.0, len(support))).tolist()))
    bump = rng.uniform(0.0, 0.5, len(support)).tolist()
    u01 = gf.Field(g, {v: base[v] + b for v, b in zip(support, bump)})
    return g, (0,) * N, u01, gf.Field(g, base)


PAIRS = {f"z{N}_{name}": (N, seed, scale) for N in (1, 2)
         for name, seed, scale in [("ordered", 1, 1.0), ("small", 2, 0.1), ("zero", 3, 0.0)]}


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _counts(traj):
    return [(h["n"], h["t"], h["accepted"], h["rejected"]) for h in traj.history]


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_u01_row_is_its_solo_solve(case):
    g, center, u01, u02 = _pair(*PAIRS[case])
    solo = gf.solve_cauchy(g, u01, ENSEMBLE_CFG, center=center)
    pair = gf.solve_cauchy(g, u01, ENSEMBLE_CFG, center=center, partners=(u02,))
    assert pair.certified and pair.certified_radius == solo.certified_radius
    assert _same(pair.values, solo.values)
    for name, column in solo.diagnostics.items():
        assert _same(pair.diagnostics[name], column), name
    # the balls follow u01, whose support leads: the same radii, growth
    # times and per-ball step counts
    assert _counts(pair) == _counts(solo)


@pytest.mark.parametrize("case", sorted(PAIRS))
def test_partner_row_is_a_one_row_solve_with_the_pair_divisor(case):
    g, center, u01, u02 = _pair(*PAIRS[case])
    pair = gf.solve_cauchy(g, u01, ENSEMBLE_CFG, center=center, partners=(u02,))
    [partner] = pair.partners
    assert partner.certified and partner.region is pair.region
    assert not partner.values[:, partner.region.distances == partner.certified_radius].any()
    # one row from the pair's first ball B_10, growing by the same rule;
    # the error norm divides by |B_10| in both
    n0 = ENSEMBLE_CFG.n0
    alone = gf.solve_truncated(g, u02, ENSEMBLE_CFG, n0, center=center)
    assert [h["n"] for h in alone.history] == [h["n"] for h in pair.history][:len(alone.history)]
    last, mine = alone.history[-1], partner.history[-1]
    assert (mine["accepted"], mine["rejected"]) == (last["accepted"], last["rejected"])
    m = len(alone.region)
    assert _same(partner.values[:, :m], alone.values)
    assert not partner.values[:, m:].any()
    for name, column in alone.diagnostics.items():
        assert _same(partner.diagnostics[name], column), name
    # the rows finish after different numbers of attempts, except where
    # the data are alike
    if PAIRS[case][2] < 1.0:
        assert mine["accepted"] + mine["rejected"] < \
            pair.history[-1]["accepted"] + pair.history[-1]["rejected"]


@pytest.mark.parametrize("bump", [{(0,): 0.5}, {(3,): 0.5}, {(0,): 2.0, (2,): 1.0}],
                         ids=["center", "outside", "two"])
def test_signed_rows_reject_at_their_own_attempts(bump):
    # signed data at p = 2.5 make the controller reject: the rows reject at
    # different attempts, so an attempt accepts one row and redoes the other
    g = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=2.5, instants=gf.log_instants(1e-2, 30.0, 7), n0=6)
    u02 = gf.Field(g, {(0,): 5.0, (2,): -3.0, (-1,): 1.0})
    u01 = gf.Field(g, {**u02.values, **{v: u02.values.get(v, 0.0) + x
                                         for v, x in bump.items()}})
    pair = gf.solve_cauchy(g, u01, cfg, center=(0,), partners=(u02,))
    rejected = []
    for row, u in [(pair, u01), (pair.partners[0], u02)]:
        alone = gf.solve_cauchy(g, u, cfg, center=(0,))
        m = len(alone.region)
        assert _same(row.values[:, :m], alone.values) and not row.values[:, m:].any()
        for name, column in alone.diagnostics.items():
            assert _same(row.diagnostics[name], column), name
        rejected.append(row.history[-1]["rejected"])
    assert rejected[0] != rejected[1] and min(rejected) > 0
    assert gf.comparison_check(g, u01, u02, cfg, center=(0,)) >= -1e-8 * u01.sup_norm()


def test_rows_of_a_plain_ode_are_their_one_row_runs():
    # y' = -y^3 row by row; a zero row is done in few attempts and leaves
    # the stack while the others go on
    def rhs_on(m, k=1):
        return lambda t, y: -y ** 3
    dist = np.zeros(3, dtype=np.int64)
    t_eval = np.geomspace(0.01, 100.0, 12)
    y0 = np.array([[1.0, 0.5, 2.0], [0.0, 0.0, 0.0], [10.0, -3.0, 0.0]])
    rows = _integrate(rhs_on, dist, y0, 100.0, t_eval, 1e-10, 1e-14, 10 ** 6)
    attempts = []
    for y, (Y, diag) in zip(y0, rows):
        Y1, diag1 = _integrate(rhs_on, dist, y, 100.0, t_eval, 1e-10, 1e-14, 10 ** 6)
        assert _same(Y, Y1)
        for name in ("accepted", "rejected", "max_scaled_error", "clamped"):
            assert _same(diag[name], diag1[name]), name
        last = diag1["balls"][-1]
        assert (diag["balls"][-1]["accepted"], diag["balls"][-1]["rejected"]) == \
            (last["accepted"], last["rejected"])
        attempts.append(last["accepted"] + last["rejected"])
    assert len(set(attempts)) == 3
    exact = (1.0 + 2.0 * t_eval[:, None] * y0[0] ** 2) ** -0.5 * y0[0]
    assert np.abs(rows[0][0][1:] - exact).max() <= 1e-8
