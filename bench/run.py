"""Benchmark of graphflow: time to a verified result, by workload and by layer.

Run from the repository root::

    python3 bench/run.py --workload shipped_configs --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched into
the program but the mass check on ``solve_cauchy``.  ``run_norm_s`` is
the median over passes of a pass's wall time divided by the time of a
fixed calibration kernel run right before and after it, in units of the
kernel's time on a quiet reference machine (see ``calibration.py``): on
a shared machine whose speed drifts, it is what the pass would take at
reference speed.  ``setup_s`` is the set-up time in fresh interpreters,
normalized the same way, ``peak_rss_mb`` the peak resident memory of this
process and ``pass_frac`` the share of operations that passed.

There is no separate warm-up pass: building the workload has already
imported graphflow and validated every config, graphflow keeps no caches,
and first passes measured no slower than later ones (2-core VM, Python
3.11).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, taken from spans recorded around the calls into each
graphflow module (see ``spans.py``), with the raw wall time of the
untraced passes as ``run.wall_s``.  The spans of the last traced run of
each workload go to ``.bench_traces/<workload>.json``.

Every line but the last is for people; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``python3 bench/run.py --write-spec`` rewrites ``BENCHMARK.json`` from the
declarations below.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RUN_SECONDS = 15
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# why each workload is here, and which ROADMAP items it is meant to judge
WORKLOADS = {
    "shipped_configs": "5 shipped configs, fk build, verify round trip: estimates, "
                       "faberkrahn, fields, cli show here. Judges ROADMAP 2, 3, and 4 "
                       "(psi inverse, ring sums)",
    "lattice3d_large_ball": "Z^3 radius-32 ball, 45k vertices: graph build and per-vertex "
                            "RHS cost and memory show here. Judges ROADMAP 4 (one BFS)",
    "lattice1d_long_horizon": "Z^1 to t=1e5, 230k RHS calls: per-step cost and step count "
                              "show, graph or check changes must not. Judges ROADMAP 2, 3",
    "comparison_ensemble": "50 seeded comparison pairs, 150 tiny solves through "
                           "comparison_check. Judges ROADMAP 3 (ensemble batching)",
}

END_TO_END = [
    {"name": "run_norm_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "pass_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]

_S, _N, _R = "s", "count", "ratio"
PER_LAYER = [
    ("graphs.ball_s", _S, "lower"), ("graphs.ball_calls", _N, "lower"),
    ("graphs.region_edges_s", _S, "lower"), ("graphs.vertices", _N, "lower"),
    ("graphs.edges", _N, "lower"), ("graphs.us_per_vertex", "us", "lower"),
    ("solver.stages", _N, "lower"), ("solver.rhs_evals", _N, "lower"),
    ("solver.steps_accepted", _N, "lower"), ("solver.steps_rejected", _N, "lower"),
    ("solver.reject_frac", _R, "lower"), ("solver.useful_frac", _R, "higher"),
    ("solver.rhs_s", _S, "lower"), ("solver.rhs_us_per_call", "us", "lower"),
    ("solver.rhs_ns_per_vertex", "ns", "lower"), ("solver.step_overhead_s", _S, "lower"),
    ("solver.certify_s", _S, "lower"), ("solver.certified_vertices", _N, "lower"),
    ("solver.comparison_p50_ms", "ms", "lower"), ("solver.comparison_p80_ms", "ms", "lower"),
    ("estimates.checks_s", _S, "lower"),
    *[(f"estimates.{c}_s", _S, "lower") for c in (
        "decay_fit", "propagation_fit", "sup_bound", "lower_bound", "moment_bound",
        "entropy_bound", "slow_decay")],
    ("estimates.mass_radius_calls", _N, "lower"),
    ("estimates.sphere_count_calls", _N, "lower"),
    ("estimates.fit_dev_max", "exponent", "lower"),
    ("faberkrahn.psi_inverse_calls", _N, "lower"), ("faberkrahn.psi_inverse_s", _S, "lower"),
    ("faberkrahn.check_assumptions_s", _S, "lower"),
    ("faberkrahn.profile_build_s", _S, "lower"), ("faberkrahn.eigen_solves", _N, "lower"),
    ("fields.serialize_s", _S, "lower"), ("fields.parse_s", _S, "lower"),
    ("cli.validate_s", _S, "lower"), ("cli.export_s", _S, "lower"),
    ("cli.export_bytes", "bytes", "lower"), ("cli.load_s", _S, "lower"),
    ("run.wall_s", _S, "lower"), ("run.calibration_ms", "ms", "lower"),
    ("trace.overhead_frac", _R, "lower"), ("trace.passes", _N, "higher"),
]


def spec():
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def measure_setup(workload, seed):
    """Median normalized set-up time over fresh interpreters (each times itself)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        setup, cal = map(float, out.stdout.split()[-2:])
        times.append(setup / cal * calibration.REFERENCE_S)
    return statistics.median(times)


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Runner:
    """Runs passes of one workload in fresh directories under ``work``."""

    def __init__(self, workload, guard, work):
        self.workload = workload
        self.guard = guard
        self.work = work
        self.passes = 0
        self.attempted = 0
        self.failures = []

    def run(self, tracer, sampler=None):
        """One pass; returns (seconds, PassResult, bytes written)."""
        work = self.work / f"pass{self.passes}"
        self.passes += 1
        work.mkdir(parents=True)
        with sampler or contextlib.nullcontext():
            t0 = perf_counter()
            res = self.workload.run_pass(work, self.guard, tracer)
            elapsed = perf_counter() - t0
        written = _dir_bytes(work)
        shutil.rmtree(work)
        self.attempted += res.attempted
        self.failures.extend(res.failures)
        return elapsed, res, written


def untraced_metrics(runner, seconds, null):
    """Each pass is normalized by the calibration kernel sampled during it."""
    normalized, wall, cal = [], [], []
    deadline = perf_counter() + seconds
    while not wall or perf_counter() < deadline:
        sampler = calibration.Sampler()
        elapsed = runner.run(null, sampler)[0]
        wall.append(elapsed - sampler.spent)
        normalized.append(sampler.normalize(elapsed))
        cal.extend(sampler.samples)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"wall seconds per pass: median {statistics.median(wall):.4f}; calibration "
          f"kernel: median {1e3 * statistics.median(cal):.3f} ms over {len(cal)} samples")
    return ({"run_norm_s": statistics.median(normalized), "peak_rss_mb": rss_kb / 1024.0},
            len(wall))


def traced_metrics(runner, seconds, null, spans, trace_path):
    """Untraced and traced passes alternate, each normalized like ``run_norm_s``.

    The tracer reads the sampler's clock, so the calibration samples taken
    inside a traced pass stay out of its spans.
    """
    tracer = spans.Tracer()
    plain, traced, layers, cals = [], [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        sampler = calibration.Sampler()
        elapsed = runner.run(null, sampler)[0]
        plain.append((elapsed - sampler.spent, sampler.normalize(elapsed)))
        cals.extend(sampler.samples)
        mark = tracer.mark()
        sampler = calibration.Sampler()
        tracer.clock = sampler.clock
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                elapsed, res, export_bytes = runner.run(tracer, sampler)
        finally:
            tracer.uninstall()
        traced.append(sampler.normalize(elapsed))
        cals.extend(sampler.samples)
        layers.append(spans.layer_metrics(tracer, mark))
    trace_path.parent.mkdir(exist_ok=True)
    tracer.dump(trace_path)
    metrics = {}
    for k in layers[0]:
        values = [m[k] for m in layers]
        # counters repeat exactly; keep them as the integers they are
        metrics[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    comparison_ms = [1e3 * s.duration for s in tracer.spans
                     if s.name == "solver.comparison_check"]
    deciles = (statistics.quantiles(comparison_ms, n=10, method="inclusive")
               if len(comparison_ms) >= 2 else [0.0] * 9)
    metrics.update({
        "solver.comparison_p50_ms": deciles[4],
        "solver.comparison_p80_ms": deciles[7],
        "estimates.fit_dev_max": res.fit_dev_max,
        "cli.export_bytes": export_bytes,
        "run.wall_s": statistics.median(wall for wall, _ in plain),
        "run.calibration_ms": 1e3 * statistics.median(cals),
        "trace.overhead_frac": (statistics.median(traced)
                                / statistics.median(norm for _, norm in plain) - 1.0),
        "trace.passes": len(traced),
    })
    return metrics, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "graphflow" / "__init__.py").is_file():
        print(f"error: no graphflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    import spans
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    guard = workloads.MassGuard()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    guard.install()
    try:
        runner = Runner(workload, guard, work)
        null = spans.NullTracer()
        if args.trace == 0:
            metrics, samples = untraced_metrics(runner, args.seconds, null)
            attempted = runner.attempted
            metrics["setup_s"] = setup_s
            metrics["pass_frac"] = (attempted - len(runner.failures)) / attempted
            declared = END_TO_END
        else:
            trace_path = ROOT / ".bench_traces" / f"{args.workload}.json"
            metrics, samples = traced_metrics(runner, args.seconds, null, spans, trace_path)
            declared = [{"name": n, "unit": u} for n, u, _ in PER_LAYER]
    finally:
        guard.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    for f in runner.failures:
        print(f"FAILED {f}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {samples} timed "
          f"passes, {runner.passes} passes in all, {runner.attempted} operations, "
          f"{len(runner.failures)} failed, {guard.checked} trajectories mass-checked")
    for m in declared:
        print(f"  {m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']}")
    result = {
        "correct": not runner.failures and guard.checked > 0,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
