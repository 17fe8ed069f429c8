"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _traced_passes(workload, n, tmp_path):
    guard = workloads.MassGuard()
    guard.install()
    tracer = spans.Tracer()
    runner = run.Runner(workload, guard, tmp_path)
    per_pass = []
    try:
        for _ in range(n):
            mark = tracer.mark()
            tracer.install()
            try:
                with tracer.span("bench.pass"):
                    runner.run(tracer)
            finally:
                tracer.uninstall()
            per_pass.append((mark[0], spans.layer_metrics(tracer, mark)))
    finally:
        guard.uninstall()
    assert not runner.failures
    return tracer, per_pass


@pytest.fixture(scope="module")
def shipped_trace(tmp_path_factory):
    return _traced_passes(workloads.ShippedConfigs(0), 2, tmp_path_factory.mktemp("work"))


def test_counters_repeat_exactly(shipped_trace):
    _, ((_, first), (_, second)) = shipped_trace
    for key in ("solver.rhs_evals", "solver.steps_accepted", "solver.steps_rejected",
                "solver.stages", "graphs.vertices", "graphs.edges",
                "estimates.sphere_count_calls", "estimates.mass_radius_calls",
                "faberkrahn.psi_inverse_calls", "faberkrahn.eigen_solves"):
        assert first[key] == second[key] > 0, key


def test_self_times_add_up_to_the_root(shipped_trace):
    tracer, per_pass = shipped_trace
    bounds = [lo for lo, _ in per_pass] + [len(tracer.spans)]
    for lo, hi in zip(bounds, bounds[1:]):
        root = tracer.spans[lo]
        assert root.name == "bench.pass"
        selfs = tracer.self_times(lo, hi)
        assert min(selfs) >= -1e-9
        assert sum(selfs) == pytest.approx(root.duration, rel=1e-9, abs=1e-9)


def test_every_layer_module_is_traced(shipped_trace):
    tracer, _ = shipped_trace
    names = {s.name for s in tracer.spans}
    for module in ("graphs", "fields", "solver", "estimates", "faberkrahn", "cli"):
        assert any(n.startswith(module + ".") for n in names), module
    assert set(spans.SPANNED.values()) - names <= {"solver.comparison_check"}


def _bound(module, attr):
    owner, name = spans._lookup(module, attr)
    return vars(owner)[name]


def test_install_rebinds_every_name_and_uninstall_restores():
    names = [*spans.SPANNED, *spans.COUNTED, ("solver", "_make_rhs")]
    originals = {key: _bound(*key) for key in names}
    ids = {id(f) for f in originals.values()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_bound(*key) is not originals[key] for key in names)
        leftovers = [(m.__name__, attr) for m in spans._graphflow_modules()
                     for attr, value in vars(m).items() if id(value) in ids]
        assert leftovers == []
    finally:
        tracer.uninstall()
    assert all(_bound(*key) is originals[key] for key in names)


def test_useful_work_counts_returned_stages(tmp_path):
    workload = workloads.ComparisonEnsemble(3)
    workload.pairs = workload.pairs[:2]
    _, [(_, m)] = _traced_passes(workload, 1, tmp_path)
    assert m["solver.stages"] == 6          # two stages plus the partner solve, per pair
    assert 0 < m["solver.useful_frac"] < 1


def test_failures_are_counted_not_fatal(tmp_path):
    guard = workloads.MassGuard()
    guard.install()
    try:
        cfg = json.loads((ROOT / "configs" / "lattice1d_p3_decay.json").read_text())
        strict = dict(cfg, checks=[dict(cfg["checks"][0], tolerance=1e-9)])
        res = workloads.PassResult()
        workloads._simulate(res, "strict", strict, tmp_path / "a", guard, spans.NullTracer())
        assert (res.attempted, len(res.failures)) == (1, 1)
        starved = dict(cfg, solver=dict(cfg["solver"], max_expansions=1))
        workloads._simulate(res, "starved", starved, tmp_path / "b", guard,
                            spans.NullTracer())
        assert res.attempted == 1 + len(cfg["checks"])
        assert len(res.failures) == res.attempted
        assert "TruncationConvergenceError" in res.failures[-1]
    finally:
        guard.uninstall()


def _last_json(out):
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace, capsys):
    assert run.main(["--workload", "shipped_configs", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert declared[name]["better"] in ("lower", "higher")
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_matches_the_declarations():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shipped_configs",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
