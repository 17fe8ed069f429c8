"""Steps on the active ball are exact, and each ball reports its work.

The solver integrates only the ball ``dist <= r`` with ``r`` 4 layers
past the farthest nonzero state entry, and voids and redoes on a larger
ball an attempt whose stages reached ring ``r``.  The wrapped right-hand
sides below assert the invariant that makes this exact: every input of
every attempt that counts is exactly 0 on the sub-ball's stub vertices;
only a voided attempt may see a nonzero there.  The same runs with the
active ball forced to the whole region must give the same step counts,
the same growth times and the same values up to rounding, with six RHS
evaluations per voided attempt more.  They also assert the invariant that
makes the truncation itself exact: every input of every step of
``solve_cauchy`` is exactly 0 on the stub vertices of the ball the step
ran on, so no flux crosses the truncation.
"""
import json
from pathlib import Path

import numpy as np
import pytest

import graphflow as gf
from graphflow import cli, solver
from dirichlet import kept_on

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

WHOLE_REGION = 10 ** 6   # a margin that makes every active ball the whole region
TIGHT = 2   # the least margin: the active ball's last two rings must be 0


def _stub_columns(table):
    """The vertices (columns) with a stub entry, in order."""
    return np.flatnonzero((table.nbr == table.n).any(axis=0))


class CheckedRhs:
    """Replacement for ``solver._make_rhs`` that checks the stub invariant.

    The checked right-hand side forwards the kernel's ``input`` and
    ``out``, so a checked solve takes the in-place stage path of an
    unchecked one.  Counts every RHS evaluation and records the size of
    each sub-ball it was built on, and the time and stub flag of each call
    to it.  ``partial`` tells whether the table it is handed next belongs
    to a sub-ball smaller than the region: the stubs of the whole region
    are its own boundary, where the solution may be nonzero.  ``ring`` holds the
    positions, in that sub-ball, of the region's own stub vertices, where
    every input is checked to be exactly 0.  A growing solve restricts the
    table of each new ball, so the ring follows it.
    """

    def __init__(self, make_rhs):
        self.make_rhs = make_rhs
        self.calls = 0
        self.sizes = []
        self.builds = []   # per RHS built: (time, nonzero on a stub) per call
        self.checked = 0
        self.ring_checked = 0
        self.partial = True
        self.ring = np.empty(0, dtype=np.int64)

    def __call__(self, table, degrees, p):
        rhs = self.make_rhs(table, degrees, p)
        self.sizes.append(len(degrees))
        stubs = _stub_columns(table) if self.partial else None
        ring = self.ring
        calls = []
        self.builds.append(calls)

        def checked(t, u, out=None):
            self.calls += 1
            calls.append((t, stubs is not None and bool(u[stubs].any())))
            if stubs is not None:
                self.checked += 1
            if len(ring):
                assert not u[ring].any(), "nonzero input on the stage's ring"
                self.ring_checked += 1
            return rhs(t, u, out)
        checked.input = rhs.input
        return checked

    def voided(self):
        """Indices of the RHS builds whose last attempt was voided.

        A voided attempt is redone first thing on the next, larger active
        ball, at the same ``t`` with the same ``h``: its six stage times are
        the first six of the next build.
        """
        return [k for k, (calls, after) in enumerate(zip(self.builds, self.builds[1:]))
                if [t for t, _ in calls[-6:]] == [t for t, _ in after[:6]]]

    def verify(self, redone):
        """Only the ``redone`` voided attempts saw a nonzero stub input."""
        voided = self.voided()
        assert len(voided) == redone
        for k, calls in enumerate(self.builds):
            counted = calls[:-6] if k in voided else calls
            assert not any(nonzero for _, nonzero in counted), \
                "nonzero input on a stub vertex"
        for k in voided:
            assert self.sizes[k] < self.sizes[k + 1]


def _redone(traj):
    """The voided attempts on each ball of ``traj.history``."""
    return np.diff([0] + [h["redone"] for h in traj.history]).tolist()


def _solve(monkeypatch, g, u0, cfg, center, margin=None):
    checked = CheckedRhs(solver._make_rhs)
    with monkeypatch.context() as m:
        m.setattr(solver, "_make_rhs", checked)
        if margin is not None:
            m.setattr(solver, "_ACTIVE_MARGIN", margin)
        original_restrict = gf.graphs.NeighbourTable.restrict

        def restrict(table, m):   # the sub-ball of the first m vertices
            checked.partial = m < table.n
            stubs = _stub_columns(table)
            checked.ring = stubs[stubs < m]
            return original_restrict(table, m)
        m.setattr(gf.graphs.NeighbourTable, "restrict", restrict)
        traj = gf.solve_cauchy(g, u0, cfg, center=center)
    checked.verify(traj.history[-1]["redone"])
    return traj, checked


# (N, data, center, SolverConfig arguments); p close to 2 underflows slowest,
# so one step there spreads the most representable layers
CASES = {
    "z1_delta": (1, {(0,): 5.0}, (0,),
                 dict(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=4)),
    "z1_delta_p2.5": (1, {(0,): 1.0}, (0,),
                      dict(p=2.5, instants=gf.log_instants(1e-2, 30.0, 31), n0=8)),
    "z2_delta": (2, {(0, 0): 30.0}, (0, 0),
                 dict(p=3.0, instants=gf.log_instants(1e-2, 30.0, 31), n0=8)),
    "z1_signed_dipole": (1, {(1,): -2.0, (-1,): 1.0}, (0,),
                         dict(p=3.0, instants=gf.log_instants(1e-3, 10.0, 41), n0=3)),
    # random data on the radius-2 ball of Z^2, as in the comparison ensemble
    "z2_random": (2, dict(zip(gf.ball(gf.lattice_generator(2), (0, 0), 2).vertices,
                              np.random.default_rng(7).uniform(0.0, 1.5, 13).tolist())),
                  (0, 0), dict(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                               rtol=1e-10, atol=1e-14, n0=10)),
}


@pytest.mark.parametrize("margin", [TIGHT, None], ids=["tight", "default"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_active_ball_matches_whole_region(monkeypatch, case, margin):
    N, data, center, kw = CASES[case]
    g = gf.lattice_generator(N)
    u0 = gf.Field(g, data)
    cfg = gf.SolverConfig(**kw)
    traj, checked = _solve(monkeypatch, g, u0, cfg, center, margin=margin)
    whole, whole_checked = _solve(monkeypatch, g, u0, cfg, center, margin=WHOLE_REGION)
    # the active ball was smaller than the region, so the stub check had work
    assert checked.checked > 0 and min(checked.sizes) < max(checked.sizes)
    assert whole_checked.checked == 0 and sum(_redone(whole)) == 0
    # each case voids an attempt, and only voided attempts saw a stub nonzero
    assert sum(_redone(traj)) > 0
    assert traj.certified and traj.certified_radius == whole.certified_radius
    keys = ("n", "vertices", "edges", "accepted", "rejected", "t")
    assert [[h[k] for k in keys] for h in traj.history] == \
        [[h[k] for k in keys] for h in whole.history]
    # a voided attempt costs its six evaluations and changes nothing else
    assert [h["rhs_evals"] - 6 * k for h, k in zip(traj.history, _redone(traj))] == \
        [h["rhs_evals"] for h in whole.history]
    assert [h["active_vertices"] for h in whole.history] == \
        [h["vertices"] for h in whole.history]
    assert traj.values.shape == whole.values.shape
    assert np.abs(traj.values - whole.values).max() <= 1e-12 * u0.sup_norm()


@pytest.mark.parametrize("case", [*sorted(CASES), "k3_x_z1"])
def test_every_stage_input_is_zero_on_the_stage_ring(monkeypatch, case):
    if case == "k3_x_z1":
        g = gf.product_generator(
            gf.FiniteGraph([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)]), 1)
        u0, center = gf.delta_field(g, (0, 0), 5.0), (0, 0)
        cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 41), n0=4)
    else:
        N, data, center, kw = CASES[case]
        g = gf.lattice_generator(N)
        u0, cfg = gf.Field(g, data), gf.SolverConfig(**kw)
    for margin in (None, WHOLE_REGION):
        traj, checked = _solve(monkeypatch, g, u0, cfg, center, margin=margin)
        # the solve had to leave some ball, and never let a step reach a ring
        assert traj.certified and len(traj.history) > 1
        assert not traj.values[:, traj.region.distances == traj.certified_radius].any()
    # an active ball short of the ring leaves exact zeros there; the whole
    # region holds the ring, so each of its inputs was checked
    assert checked.ring_checked == checked.calls > 0


def test_stage_telemetry_counts_every_rhs_call(monkeypatch):
    z1 = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=4)
    u0 = gf.delta_field(z1, (0,), 5.0)
    traj, checked = _solve(monkeypatch, z1, u0, cfg, (0,))
    assert len(traj.history) > 2 and traj.history[-1]["t"] > 0.0
    assert sum(h["rhs_evals"] for h in traj.history) == checked.calls
    # the first step is sized on the last ball the solve moved onto at t = 0
    sized = max(k for k, h in enumerate(traj.history) if h["t"] == 0.0)
    steps = 0
    for k, h in enumerate(traj.history):
        region = gf.ball(z1, (0,), h["n"])
        edges = gf.graphs.region_edges(z1, region)
        assert h["vertices"] == len(region)
        assert h["edges"] == len(edges.ei) + len(edges.bi)
        assert 0 < h["active_vertices"] <= h["vertices"]
        # two evaluations size the first step, then six per attempt, voided
        # ones included
        start = 2 if k == sized else 0
        attempts = h["accepted"] + h["rejected"] + h["redone"]
        assert h["rhs_evals"] == start + 6 * (attempts - steps)
        steps = attempts
    # a fixed ball: its count is the calls made while it ran (counted only)
    checked = CheckedRhs(solver._make_rhs)
    checked.partial = False
    monkeypatch.setattr(solver, "_make_rhs", checked)
    fixed = kept_on(z1, gf.delta_field(z1, (0,), 5.0), cfg, (0,), [16])
    assert fixed.history[0]["rhs_evals"] == checked.calls
    # the delta is solved on orbits {0}, {-1, 1}, ...: a right-hand side has
    # one entry per orbit, and B_r has r + 1 orbits and 2r + 1 vertices
    assert fixed.history[0]["unknowns"] == max(checked.sizes)
    assert fixed.history[0]["active_vertices"] == 2 * max(checked.sizes) - 1


@pytest.mark.parametrize("data,n0", [
    ({(k,): 1.0 + 0.1 * k for k in range(-4, 5)}, 10),   # left at t = 0: B_10
    ({(0,): 1.0}, 2),                                    # left at t = 0: B_2, B_4
], ids=["support9_n0_10", "delta_n0_2"])
def test_every_rhs_built_is_evaluated(monkeypatch, data, n0):
    # an RHS is built right before the first attempt on an active ball, so a
    # ball the solve leaves at t = 0 builds none
    z1 = gf.lattice_generator(1)
    builds = []   # [vertices, calls] of each RHS built
    make_rhs = solver._make_rhs

    def counted(edges, degrees, p):
        rhs, build = make_rhs(edges, degrees, p), [len(degrees), 0]
        builds.append(build)

        def call(t, u):
            build[1] += 1
            return rhs(t, u)
        return call
    monkeypatch.setattr(solver, "_make_rhs", counted)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                          rtol=1e-10, atol=1e-14, n0=n0)
    traj = gf.solve_cauchy(z1, gf.Field(z1, data), cfg, center=(0,))
    assert traj.history[0]["t"] == 0.0 and traj.history[0]["rhs_evals"] == 0
    assert all(calls > 0 for _, calls in builds), builds
    assert sum(calls for _, calls in builds) == sum(h["rhs_evals"] for h in traj.history)


def test_active_ball_smaller_than_the_2d_stage():
    cfg = json.loads((CONFIGS / "lattice2d_p3_decay.json").read_text())
    g = cli.build_generator(cfg["graph"])
    u0, center = cli.build_initial_field(g, cfg["initial_data"])
    traj = gf.solve_cauchy(g, u0, cli.build_solver_config(cfg["solver"]), center=center)
    stage = next(h for h in traj.history if h["n"] == 36)
    assert stage["active_vertices"] < stage["vertices"] == len(gf.ball(g, center, 36))


def test_manifest_records_stage_telemetry(tmp_path):
    cfg = json.loads((CONFIGS / "lattice1d_p3_decay.json").read_text())
    cli.run(cfg, tmp_path)
    history = json.loads((tmp_path / "manifest.json").read_text())["expansion_history"]
    assert history
    for h in history:
        assert {"vertices", "edges", "rhs_evals", "redone", "active_vertices"} <= h.keys()
        assert 0 < h["active_vertices"] <= h["vertices"] < h["edges"]


SHIPPED = ("lattice1d_p3_decay", "lattice1d_p3_propagation", "lattice1d_p3_slow_decay",
           "lattice1d_p4_decay", "lattice2d_p3_decay")


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_matches_the_whole_region(monkeypatch, name):
    # bit for bit on the vertices.  On the orbit quotient a BLAS product
    # rounds its last few entries apart, and there they can be nonzero
    # orbits, so the same steps and values up to rounding
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    g = cli.build_generator(cfg["graph"])
    u0, center = cli.build_initial_field(g, cfg["initial_data"])
    scfg = cli.build_solver_config(cfg["solver"])
    margin = solver._ACTIVE_MARGIN
    for quotient in (False, True):
        monkeypatch.setattr(solver, "_ORBIT_QUOTIENT", quotient)
        monkeypatch.setattr(solver, "_ACTIVE_MARGIN", margin)
        traj = gf.solve_cauchy(g, u0, scfg, center=center)
        monkeypatch.setattr(solver, "_ACTIVE_MARGIN", WHOLE_REGION)
        whole = gf.solve_cauchy(g, u0, scfg, center=center)
        assert traj.certified_radius == whole.certified_radius
        assert [(h["n"], h["t"], h["accepted"], h["rejected"]) for h in traj.history] == \
            [(h["n"], h["t"], h["accepted"], h["rejected"]) for h in whole.history]
        if quotient:
            assert np.abs(traj.values - whole.values).max() <= 1e-12 * u0.sup_norm()
            continue
        assert np.array_equal(traj.values, whole.values)
        for key, arr in whole.diagnostics.items():
            assert np.array_equal(traj.diagnostics[key], arr), key
