"""A leaking truncation stage stops at its first leaking output instant.

The expansion rule is "expand iff the stored boundary sup exceeds the leak
threshold at some instant t > 0", so instants after the first leaking one
cannot change a stage's verdict.  The reference below integrates every
stage to t_max and applies that rule; the early-stopping solver must give
the same stages, verdicts and certified trajectory bit for bit.
"""
import json
from pathlib import Path

import numpy as np

import graphflow as gf
from graphflow import cli
from graphflow.graphs import region_edges
from graphflow.solver import RADIUS_GROWTH, _integrate, _make_rhs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _threshold(u0, cfg):
    return cfg.delta_boundary if cfg.delta_boundary is not None else 1e-10 * u0.sup_norm()


def reference_cauchy(g, u0, cfg, center):
    """The expansion loop with every stage integrated to t_max.

    Returns the certified trajectory and, per stage, ``(n, traj, leaking)``
    where ``leaking[k]`` tells whether instant ``k`` (t > 0) leaks.
    """
    delta = _threshold(u0, cfg)
    eps = cfg.eps_trunc if cfg.eps_trunc is not None else 1e-8 * u0.sup_norm()
    n, prev, stages = int(cfg.n0), None, []
    for _ in range(cfg.max_expansions):
        traj = gf.solve_truncated(g, u0, cfg, n, center=center)
        leaking = traj.boundary_sups[1:] > delta
        stages.append((n, traj, leaking))
        if leaking.any():
            prev = None
        elif prev is not None:
            gather = np.array([traj.region.index[v] for v in prev.region.vertices])
            if np.abs(traj.values[:, gather] - prev.values).max() <= eps:
                return traj, stages
            prev = traj
        else:
            prev = traj
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
    # same radii and verdicts; a leaking stage ends at its first leaking instant
    assert [h["n"] for h in traj.history] == [n for n, _, _ in stages]
    assert [h.get("expanded") == "boundary_leak" for h in traj.history] == \
        [bool(leaking.any()) for _, _, leaking in stages]
    delta = _threshold(u0, cfg)
    for h, (n, full, leaking) in zip(traj.history, stages):
        last = int(np.argmax(leaking)) if leaking.any() else len(leaking) - 1
        assert h["accepted"] == full.diagnostics["accepted"][last]
        assert h["rejected"] == full.diagnostics["rejected"][last]
        if not leaking.any():
            assert h["stopped_at"] is None
            continue
        assert h["stopped_at"] == full.times[last + 1]
        assert h["boundary_leak"] == full.boundary_sups[last + 1]
        # the stopped stage is the bitwise prefix of the full one
        stopped = gf.solve_truncated(g, u0, cfg, n, center=center, delta=delta)
        assert _same_bits(stopped.values, full.values[:last + 2])
        assert _same_bits(stopped.times, full.times[:last + 2])
        for key, arr in full.diagnostics.items():
            assert _same_bits(stopped.diagnostics[key], arr[:last + 1]), key
    return traj, stages


def test_propagation_config_matches_full_stages():
    cfg = json.loads((CONFIGS / "lattice1d_p3_propagation.json").read_text())
    g = cli.build_generator(cfg["graph"])
    u0, center = cli.build_initial_field(g, cfg["initial_data"])
    scfg = cli.build_solver_config(cfg["solver"])
    traj, stages = assert_matches_reference(g, u0, scfg, center)
    # the first stage leaks and stops well before t_max
    assert traj.history[0]["stopped_at"] < scfg.instants[-1]
    assert traj.history[0]["accepted"] < stages[0][1].diagnostics["accepted"][-1]


def test_small_first_ball_matches_full_stages():
    z1 = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=2)
    traj, stages = assert_matches_reference(z1, gf.delta_field(z1, (0,)), cfg, (0,))
    assert sum(bool(leaking.any()) for _, _, leaking in stages) >= 2


def test_signed_dipole_matches_full_stages():
    # the larger negative lobe reaches the ring first, so only the absolute
    # boundary value stops the stage at its first leaking instant
    z1 = gf.lattice_generator(1)
    u0 = gf.Field(z1, {(1,): -2.0, (-1,): 1.0})
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-3, 10.0, 41), n0=3,
                          delta_boundary=1e-5)
    traj, stages = assert_matches_reference(z1, u0, cfg, (0,))
    n, full, leaking = stages[0]
    first = int(np.argmax(leaking)) + 1
    assert leaking.any() and full.values[first, full.edges.bi].min() < -_threshold(u0, cfg)
    assert full.values[first, full.edges.bi].max() <= _threshold(u0, cfg)


def test_integrate_stop_returns_bitwise_prefix():
    z1 = gf.lattice_generator(1)
    region = gf.ball(z1, (0,), 6)
    edges = region_edges(z1, region)
    rhs = _make_rhs(edges, region.degrees, 3.0)
    y0 = np.zeros(len(region))
    y0[region.index[(0,)]] = 5.0
    t_eval = gf.log_instants(1e-3, 50.0, 40)
    edge_vertex = region.index[(6,)]
    full, full_diag = _integrate(rhs, y0, 50.0, t_eval, 1e-8, 1e-12, 10 ** 6)
    reached = np.nonzero(full[:, edge_vertex] > 1e-3)[0]
    assert 0 < reached[0] < len(t_eval) - 1
    k = reached[0] + 1
    calls = []

    def stop(row):
        calls.append(row.copy())
        return row[edge_vertex] > 1e-3
    Y, diag = _integrate(rhs, y0, 50.0, t_eval, 1e-8, 1e-12, 10 ** 6, stop=stop)
    assert _same_bits(Y, full[:k])
    for key in ("accepted", "rejected", "max_scaled_error"):
        assert _same_bits(diag[key], full_diag[key][:k]), key
    assert diag["total_accepted"] < full_diag["total_accepted"]
    # the predicate saw every row it was handed, in order, and stopped at once
    assert len(calls) == k and _same_bits(np.array(calls), Y)


def test_integrate_with_a_stop_that_never_fires_runs_to_the_end():
    t_eval = np.geomspace(0.01, 2.0, 9)
    full, _ = _integrate(lambda t, y: -y ** 3, np.ones(2), 2.0, t_eval,
                         1e-8, 1e-12, 10 ** 6)
    Y, diag = _integrate(lambda t, y: -y ** 3, np.ones(2), 2.0, t_eval,
                         1e-8, 1e-12, 10 ** 6, stop=lambda row: False)
    assert _same_bits(Y, full) and len(diag["accepted"]) == 9
