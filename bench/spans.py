"""Spans and counters around calls into graphflow, recorded from outside it.

Modules bind functions by name (``from .graphs import ball``), so a
wrapper has to replace every binding or the calls through the others go
untraced.  :func:`rebind` swaps every graphflow module attribute that
*is* the original function.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent span and the id of the benchmark step it belongs to.  Spans stay in
memory; :meth:`Tracer.dump` writes them out.  A span's self time is its
duration minus the time its child spans cover.  Hot functions get a call
counter instead of a span, and the RHS callables the solver builds are
counted and timed per call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _graphflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphflow" or name.startswith("graphflow."))]


def rebind(original, replacement):
    """Point every graphflow binding of ``original`` at ``replacement``.

    Returns a function that undoes the swap.
    """
    names = [(m, attr) for m in _graphflow_modules()
             for attr, val in list(vars(m).items()) if val is original]
    for m, attr in names:
        setattr(m, attr, replacement)
    if not names:
        raise LookupError(f"{original!r} is not bound in any graphflow module")

    def undo():
        for m, attr in names:
            setattr(m, attr, original)
    return undo


# (module, attribute) -> span name; methods are given as "Class.method"
SPANNED = {
    ("graphs", "ball"): "graphs.ball",
    ("graphs", "region_edges"): "graphs.region_edges",
    ("fields", "Field.to_csv_text"): "fields.serialize",
    ("fields", "Field.from_csv_text"): "fields.parse",
    ("solver", "solve_cauchy"): "solver.solve_cauchy",
    ("solver", "solve_truncated"): "solver.solve_truncated",
    ("solver", "comparison_check"): "solver.comparison_check",
    ("solver", "_integrate"): "solver.integrate",
    ("estimates", "fit_decay_exponent"): "estimates.decay_fit",
    ("estimates", "fit_propagation_exponent"): "estimates.propagation_fit",
    ("estimates", "check_sup_bound"): "estimates.sup_bound",
    ("estimates", "check_lower_bound"): "estimates.lower_bound",
    ("estimates", "check_moment_bound"): "estimates.moment_bound",
    ("estimates", "check_entropy_bound"): "estimates.entropy_bound",
    ("estimates", "check_slow_decay"): "estimates.slow_decay",
    ("faberkrahn", "psi_inverse"): "faberkrahn.psi_inverse",
    ("faberkrahn", "check_assumptions"): "faberkrahn.check_assumptions",
    ("faberkrahn", "fk_profile_bruteforce"): "faberkrahn.profile_build",
    ("cli", "validate_config"): "cli.validate",
    ("cli", "export_trajectory"): "cli.export",
    ("cli", "load_trajectory"): "cli.load",
    ("cli", "run"): "cli.run",
    ("cli", "run_fk"): "cli.run_fk",
    ("cli", "main"): "cli.main",
}

# called too often for a span each; counted only
COUNTED = {
    ("estimates", "l1_sphere_count"): "estimates.sphere_count_calls",
    ("solver", "mass_radius"): "estimates.mass_radius_calls",
    ("faberkrahn", "dirichlet_p_eigenvalue"): "faberkrahn.eigen_solves",
}


def _lookup(module, attr):
    mod = sys.modules[f"graphflow.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "info")

    def __init__(self, name, start, parent, step):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.step = step
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class NullTracer:
    """Stand-in for untraced passes: steps cost one context manager each."""

    @contextlib.contextmanager
    def step(self, label):
        yield


class Tracer:
    """Records spans and counters while installed (see :meth:`install`).

    ``clock`` reads seconds; a clock that stops while something else runs
    in the middle of a pass (see ``calibration.Sampler.clock``) keeps that
    time out of every span.
    """

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []
        self.steps = []          # step id -> label
        self.counts = Counter()
        self.rhs_s = 0.0
        self.rhs_vertex_evals = 0
        self._stack = []
        self._step = -1
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent, self._step))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def step(self, label):
        """One benchmark step; every span inside it carries its id."""
        outer = self._step
        self._step = len(self.steps)
        self.steps.append(label)
        try:
            with self.span("bench.step"):
                yield
        finally:
            self._step = outer

    def _spanned(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            evals0 = tracer.counts["solver.rhs_evals"]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._annotate(tracer.spans[idx], result, evals0)
            return result
        return traced

    def _annotate(self, span, result, evals0):
        # per-span facts the metrics need, taken from the returned values
        name = span.name
        if name == "graphs.ball":
            span.info = len(result)
        elif name == "graphs.region_edges":
            span.info = len(result.ei) + len(result.bi)
        elif name == "solver.solve_truncated":
            diag = result.diagnostics
            span.info = {"evals": self.counts["solver.rhs_evals"] - evals0,
                         "accepted": int(diag["accepted"][-1]),
                         "rejected": int(diag["rejected"][-1])}
        elif name == "solver.solve_cauchy":
            span.info = {"certified": bool(result.certified),
                         "vertices": len(result.region)}

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed_rhs_factory(self, make_rhs):
        tracer = self

        @functools.wraps(make_rhs)
        def make_counted_rhs(edges, degrees, p):
            rhs = make_rhs(edges, degrees, p)
            n = len(degrees)

            def counted_rhs(t, u):
                t0 = tracer.clock()
                out = rhs(t, u)
                tracer.rhs_s += tracer.clock() - t0
                tracer.counts["solver.rhs_evals"] += 1
                tracer.rhs_vertex_evals += n
                return out
            return counted_rhs
        return make_counted_rhs

    # -- installation ----------------------------------------------------

    def _wrap(self, module, attr, make):
        owner, name = _lookup(module, attr)
        if owner is not sys.modules[f"graphflow.{module}"]:
            # a method: classmethods are unwrapped and rewrapped
            raw = vars(owner)[name]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = make(fn)
            setattr(owner, name, classmethod(wrapped) if is_cm else wrapped)
            self._undo.append(lambda: setattr(owner, name, raw))
        else:
            fn = getattr(owner, name)
            self._undo.append(rebind(fn, make(fn)))

    def install(self):
        for (module, attr), name in SPANNED.items():
            self._wrap(module, attr, lambda fn, name=name: self._spanned(fn, name))
        for (module, attr), key in COUNTED.items():
            self._wrap(module, attr, lambda fn, key=key: self._counted(fn, key))
        self._wrap("solver", "_make_rhs", self._timed_rhs_factory)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------------

    def mark(self):
        """Where the next pass starts, for :func:`layer_metrics`."""
        return len(self.spans), self.counts.copy(), self.rhs_s, self.rhs_vertex_evals

    def self_times(self, lo=0, hi=None):
        """Self time of every span in ``spans[lo:hi]`` (a closed tree)."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= lo:
                child[s.parent - lo] += s.duration
        return [s.duration - c for s, c in zip(spans, child)]

    def dump(self, path):
        """Write every span as JSON: name, start, end, parent, step, self time."""
        t0 = self.spans[0].start if self.spans else 0.0
        selfs = self.self_times()
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "step": s.step,
                 "step_label": self.steps[s.step] if s.step >= 0 else None,
                 "self": st}
                for s, st in zip(self.spans, selfs)]
        with open(path, "w") as f:
            json.dump({"spans": rows, "counts": dict(self.counts)}, f)


def layer_metrics(tracer, mark):
    """Per-layer metrics of one traced pass: everything recorded since ``mark``."""
    lo, counts_before, rhs_s_before, rhs_ve_before = mark
    spans = tracer.spans[lo:]
    selfs = tracer.self_times(lo)
    self_s = defaultdict(float)
    calls = Counter()
    for s, st in zip(spans, selfs):
        self_s[s.name] += st
        calls[s.name] += 1
    counts = tracer.counts - counts_before
    rhs_s = tracer.rhs_s - rhs_s_before
    rhs_evals = counts["solver.rhs_evals"]
    vertex_evals = tracer.rhs_vertex_evals - rhs_ve_before

    # a call that raised has no info: it returned nothing to count
    stages = [s for s in spans if s.name == "solver.solve_truncated" and s.info]
    cauchy = [s for s in spans if s.name == "solver.solve_cauchy" and s.info]
    useful = 0
    last_stage = {}          # solve_cauchy span -> evals of its last stage
    for s in stages:
        parent = spans[s.parent - lo] if s.parent >= lo else None
        if parent is not None and parent.name == "solver.solve_cauchy":
            last_stage[s.parent] = s.info["evals"]   # the stage it returns
        else:
            useful += s.info["evals"]                # called directly: a result
    useful += sum(last_stage.values())
    accepted = sum(s.info["accepted"] for s in stages)
    rejected = sum(s.info["rejected"] for s in stages)
    vertices = sum(s.info or 0 for s in spans if s.name == "graphs.ball")
    graphs_s = self_s["graphs.ball"] + self_s["graphs.region_edges"]

    checks = ("decay_fit", "propagation_fit", "sup_bound", "lower_bound",
              "moment_bound", "entropy_bound", "slow_decay")
    m = {
        "graphs.ball_s": self_s["graphs.ball"],
        "graphs.ball_calls": calls["graphs.ball"],
        "graphs.region_edges_s": self_s["graphs.region_edges"],
        "graphs.vertices": vertices,
        "graphs.edges": sum(s.info or 0 for s in spans if s.name == "graphs.region_edges"),
        "graphs.us_per_vertex": 1e6 * graphs_s / vertices if vertices else 0.0,
        "solver.stages": len(stages),
        "solver.rhs_evals": rhs_evals,
        "solver.steps_accepted": accepted,
        "solver.steps_rejected": rejected,
        "solver.reject_frac": rejected / (accepted + rejected) if stages else 0.0,
        "solver.useful_frac": useful / rhs_evals if rhs_evals else 0.0,
        "solver.rhs_s": rhs_s,
        "solver.rhs_us_per_call": 1e6 * rhs_s / rhs_evals if rhs_evals else 0.0,
        "solver.rhs_ns_per_vertex": 1e9 * rhs_s / vertex_evals if vertex_evals else 0.0,
        "solver.step_overhead_s": self_s["solver.integrate"] - rhs_s,
        "solver.certify_s": self_s["solver.solve_cauchy"],
        "solver.certified_vertices": sum(c.info["vertices"] for c in cauchy
                                         if c.info["certified"]),
        "estimates.checks_s": sum(self_s[f"estimates.{c}"] for c in checks),
        **{f"estimates.{c}_s": self_s[f"estimates.{c}"] for c in checks},
        "estimates.mass_radius_calls": counts["estimates.mass_radius_calls"],
        "estimates.sphere_count_calls": counts["estimates.sphere_count_calls"],
        "faberkrahn.psi_inverse_calls": calls["faberkrahn.psi_inverse"],
        "faberkrahn.psi_inverse_s": self_s["faberkrahn.psi_inverse"],
        "faberkrahn.check_assumptions_s": self_s["faberkrahn.check_assumptions"],
        "faberkrahn.profile_build_s": self_s["faberkrahn.profile_build"],
        "faberkrahn.eigen_solves": counts["faberkrahn.eigen_solves"],
        "fields.serialize_s": self_s["fields.serialize"],
        "fields.parse_s": self_s["fields.parse"],
        "cli.validate_s": self_s["cli.validate"],
        "cli.export_s": self_s["cli.export"],
        "cli.load_s": self_s["cli.load"],
    }
    return m
