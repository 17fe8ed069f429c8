"""The benchmark's tracer wraps graphflow functions by name; every name must resolve.

``bench/spans.py`` replaces module attributes to record spans and counts,
so renaming or deleting one of them breaks the benchmark without failing
any other test.  The tracer also wraps ``solver._make_rhs`` to time each
RHS call.  Likewise ``bench/workloads.py`` calls graphflow with fixed
argument shapes and the tracer reads fixed result fields: a signature or
field change would turn benchmark operations into failures, so both are
pinned here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import graphflow as gf

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Tracer.install looks each traced module up in sys.modules, and
    # ``import graphflow`` does not import all of them
    for name, _ in {*module.SPANNED, *module.COUNTED}:
        importlib.import_module(f"graphflow.{name}")
    return module


def _hooks():
    spans = _spans_module()
    return sorted({*spans.SPANNED, *spans.COUNTED, ("solver", "_make_rhs")})


@pytest.mark.parametrize("module, attr", _hooks())
def test_traced_name_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(f"graphflow.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# the call shapes of bench/workloads.py, bound against the current signatures
CALL_SHAPES = {
    "cli.run": (("cfg", "out"), {}),
    "cli.run_fk": (("cfg", "out"), {"seed": 0}),
    "cli.build_profile": (("cfg", "g"), {}),
    "solver.SolverConfig": ((), {"p": 3.0, "instants": None, "rtol": 1e-10,
                                 "atol": 1e-14, "n0": 10}),
    "solver.comparison_check": (("g", "u01", "u02", "cfg"), {"center": (0,)}),
}


@pytest.mark.parametrize("name", sorted(CALL_SHAPES))
def test_benchmark_call_shape_binds(name):
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"graphflow.{module}"), attr)
    args, kwargs = CALL_SHAPES[name]
    inspect.signature(fn).bind(*args, **kwargs)


def test_fields_the_tracer_reads():
    z1 = gf.lattice_generator(1)
    u0 = gf.delta_field(z1, (0,))
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 1.0, 3))
    diag = gf.solve_truncated(z1, u0, cfg, 8).diagnostics
    assert int(diag["accepted"][-1]) > 0 and int(diag["rejected"][-1]) >= 0
    traj = gf.solve_cauchy(z1, u0, cfg)
    assert traj.certified is True and len(traj.region) > 0
    # the graphs.edges count reads the edge arrays region_edges returns
    region = gf.ball(z1, (0,), 3)
    edges = gf.graphs.region_edges(z1, region)
    assert isinstance(edges.ei, np.ndarray) and isinstance(edges.bi, np.ndarray)
    assert len(edges.ei) + len(edges.bi) == 8   # 6 internal edges and 2 stubs
    # the timed right-hand side calls _make_rhs(table, degrees, p) by position
    # and counts len(degrees) vertices per call
    args = (edges, region.degrees, 3.0)
    inspect.signature(gf.solver._make_rhs).bind(*args)
    assert gf.solver._make_rhs(*args)(0.0, np.ones(len(region))).shape == (len(region),)


def test_a_growing_cauchy_solve_is_one_truncated_solve():
    # the tracer reads a solve's totals from the one solve_truncated call
    # under solve_cauchy, so a growth must not add calls
    z1 = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 100.0, 57), n0=4)
    tracer = _spans_module().Tracer()
    tracer.install()
    try:
        traj = gf.solver.solve_cauchy(z1, gf.delta_field(z1, (0,), 5.0), cfg)
    finally:
        tracer.uninstall()
    assert len(traj.history) > 2 and traj.history[-1]["t"] > 0.0
    calls = [s.name for s in tracer.spans]
    assert calls.count("solver.solve_truncated") == calls.count("solver.integrate") == 1
    [span] = [s for s in tracer.spans if s.name == "solver.solve_truncated"]
    assert span.info == {"evals": sum(h["rhs_evals"] for h in traj.history),
                         "accepted": traj.history[-1]["accepted"],
                         "rejected": traj.history[-1]["rejected"]}


def test_a_comparison_pair_is_one_cauchy_solve_through_the_module():
    # bench/workloads.py's mass guard rebinds solver.solve_cauchy and checks
    # the masses of the 2-d values it returns, u01's; the tracer reads each
    # pair's work from one solve_truncated and one integrate span
    z1 = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 5.0, 7),
                          rtol=1e-10, atol=1e-14, n0=10)
    pairs = [(gf.Field(z1, {(0,): 1.0, (2,): 0.5}), gf.Field(z1, {(0,): 0.5})),
             (gf.Field(z1, {(0,): 1.0}), gf.Field(z1, {(0,): 0.5, (6,): -0.5}))]
    spans = _spans_module()
    original = gf.solver.solve_cauchy
    shapes = []

    def guarded(*args, **kwargs):
        traj = original(*args, **kwargs)
        shapes.append((traj.values.shape, len(traj.region)))
        return traj
    undo = spans.rebind(original, guarded)
    tracer = spans.Tracer()
    tracer.install()
    try:
        gaps = [gf.solver.comparison_check(z1, u01, u02, cfg, center=(0,))
                for u01, u02 in pairs]
    finally:
        tracer.uninstall()
        undo()
    assert min(gaps) >= -1e-8
    # one solve per pair, 2-d values: a row per stored time, a column per vertex
    assert len(shapes) == len(pairs)
    assert [shape for shape, _ in shapes] == [(len(cfg.instants) + 1, n) for _, n in shapes]
    calls = [s.name for s in tracer.spans]
    for name in ("solver.comparison_check", "solver.solve_cauchy",
                 "solver.solve_truncated", "solver.integrate"):
        assert calls.count(name) == len(pairs), name


def test_a_centred_lattice_solve_keeps_the_guard_and_the_tracer_whole(monkeypatch):
    # a centred Z^3 delta is solved on the orbit quotient; the mass guard of
    # bench/workloads.py reads the lifted values against the ball's degrees,
    # and the tracer counts len(degrees) per RHS call, one per orbit
    z3 = gf.lattice_generator(3)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.01, 3.0, 9), n0=6)
    spans = _spans_module()
    sizes = []
    make_rhs = gf.solver._make_rhs

    def recorded(edges, degrees, p):
        sizes.append(len(degrees))
        return make_rhs(edges, degrees, p)
    monkeypatch.setattr(gf.solver, "_make_rhs", recorded)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traj = gf.solver.solve_cauchy(z3, gf.delta_field(z3, (0, 0, 0), 30.0), cfg)
    finally:
        tracer.uninstall()
    assert len(traj.history) > 1
    assert traj.values.shape == (len(cfg.instants) + 1, len(traj.region))
    masses = np.abs(traj.values) @ traj.region.degrees
    assert np.all(np.abs(masses - masses[0]) <= 1e-12 * masses[0])
    # one entry per orbit of an active ball B_r: the sorted offsets a <= b <= c
    # with a + b + c <= r
    orbits = [sum(1 for c in range(r + 1) for b in range(c + 1) for a in range(b + 1)
                  if a + b + c <= r) for r in range(traj.region.radius + 1)]
    assert sizes and set(sizes) <= set(orbits)
    last = traj.history[-1]
    assert max(sizes) == last["unknowns"] < last["active_vertices"] <= last["vertices"]
    r = orbits.index(last["unknowns"])
    assert last["active_vertices"] == len(gf.ball(z3, (0, 0, 0), r))
    assert tracer.counts["solver.rhs_evals"] == sum(h["rhs_evals"] for h in traj.history)
