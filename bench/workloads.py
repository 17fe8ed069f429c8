"""The four workloads of the graphflow benchmark and their output checks.

Building a workload object is the set-up the benchmark times as
``setup_s``: it validates the configs and builds the graphs, initial
fields, solver configs and profiles, with no solve.  ``run_pass`` is one
pass of the workload: every solve, check, export and read-back.  It
returns the operations it attempted and which of them failed.

An operation is one configured check, one ``verify``, one fk build or one
comparison pair.  It fails when it raises, when its ``pass`` is false,
when its trajectory is uncertified or when an output check fails:

* every simulate report passes and is certified;
* the ``verify`` round trip writes the same check JSON as the direct run;
* the mass of every certified trajectory equals ``m0`` to 1e-12 relative;
* every comparison gap is at least ``-1e-8 * ||u01||_inf``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"


def import_graphflow():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "graphflow" / "__init__.py").is_file():
        raise ImportError(f"no graphflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import graphflow
    if Path(graphflow.__file__).resolve().parent != SRC / "graphflow":
        raise ImportError(f"graphflow was imported from {graphflow.__file__}, not {SRC}")
    return graphflow


gf = import_graphflow()
import numpy as np  # noqa: E402  (graphflow pulls numpy in first)
from graphflow import cli, solver  # noqa: E402
from spans import rebind  # noqa: E402

SHIPPED = ("lattice1d_p3_decay", "lattice1d_p3_propagation", "lattice1d_p3_slow_decay",
           "lattice1d_p4_decay", "lattice2d_p3_decay")
FK_CONFIG = "fk_lattice1d"
ROUND_TRIP = "lattice1d_p3_decay"

LATTICE3D_LARGE_BALL = {
    "graph": {"family": "lattice", "N": 3},
    "initial_data": {"kind": "delta", "center": [0, 0, 0], "amplitude": 30.0},
    "solver": {"p": 3.0, "t_min": 0.01, "t_max": 300.0, "num_instants": 63,
               "rtol": 1e-8, "atol": 1e-12, "n0": 16},
    "profile": {"kind": "lattice", "c0": 1.0},
    "checks": [
        {"type": "decay_fit", "window": [10, 300],
         "theoretical_slope": -0.5, "tolerance": 0.07},
        {"type": "lower_bound"},
    ],
}

LATTICE1D_LONG_HORIZON = {
    "graph": {"family": "lattice", "N": 1},
    "initial_data": {"kind": "delta", "center": [0], "amplitude": 1000.0},
    "solver": {"p": 3.0, "t_min": 0.01, "t_max": 1e5, "num_instants": 71,
               "rtol": 1e-8, "atol": 1e-12, "n0": 64},
    "profile": {"kind": "lattice", "c0": 1.0},
    "checks": [
        {"type": "decay_fit", "window": [1e2, 1e5],
         "theoretical_slope": -0.25, "tolerance": 0.05},
        {"type": "lower_bound"},
    ],
}

MASS_RTOL = 1e-12
GAP_RTOL = 1e-8
PAIRS_PER_GRAPH = 25


@dataclass
class PassResult:
    """Outcome of one pass: operations attempted, failures, fit accuracy."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    fit_devs: list = field(default_factory=list)

    def op(self, label, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {why}" if why else label)

    @property
    def fit_dev_max(self):
        return max(self.fit_devs, default=0.0)


class MassGuard:
    """Checks mass conservation of every trajectory ``solve_cauchy`` returns.

    Installed by rebinding ``solve_cauchy`` wherever graphflow looks it up;
    ``violations`` counts trajectories whose mass left ``m0`` by more than
    ``MASS_RTOL`` relative, and ``checked`` counts all of them.
    """

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self._undo = None

    def install(self):
        original = solver.solve_cauchy

        @functools.wraps(original)
        def guarded(*args, **kwargs):
            traj = original(*args, **kwargs)
            masses = np.abs(traj.values) @ traj.region.degrees
            m0 = masses[0]
            self.checked += 1
            if not (m0 > 0 and np.all(np.abs(masses - m0) <= MASS_RTOL * m0)):
                self.violations += 1
            return traj

        self._undo = rebind(original, guarded)

    def uninstall(self):
        if self._undo is not None:
            self._undo()
            self._undo = None


def _load(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _validated(cfg):
    errors = cli.validate_config(cfg)
    if errors:
        raise cli.ConfigError("; ".join(errors))
    return cfg


def _build_inputs(cfg):
    """Validate a simulate config and build everything a solve needs."""
    g = cli.build_generator(_validated(cfg)["graph"])
    u0, center = cli.build_initial_field(
        g, cfg.get("initial_data", {"kind": "delta", "center": None}))
    return g, u0, center, cli.build_solver_config(cfg["solver"]), cli.build_profile(cfg, g)


def _fit_devs(report):
    devs = []
    for chk in report["checks"]:
        fit = chk.get("fit", chk)
        if fit.get("theoretical") is not None and "slope" in fit:
            devs.append(abs(fit["slope"] - fit["theoretical"]))
    return devs


def _simulate(res, label, cfg, out, guard, tracer):
    """One ``cli.run``; every configured check is one operation."""
    n_checks = len(cfg.get("checks", []))
    before = guard.violations
    try:
        with tracer.step(label):
            report = cli.run(cfg, out)
    except Exception as e:  # noqa: BLE001 - a failing solve is counted, never fatal
        for chk in cfg.get("checks", []):
            res.op(f"{label}/{chk['type']}", False, f"{type(e).__name__}: {e}")
        return None
    mass_ok = guard.violations == before
    for chk in report["checks"]:
        ok = bool(chk.get("pass", True)) and report["certified"] and mass_ok
        why = ("mass not conserved" if not mass_ok else
               "uncertified" if not report["certified"] else "check failed")
        res.op(f"{label}/{chk['tag']}", ok, "" if ok else why)
    for _ in range(n_checks - len(report["checks"])):
        res.op(f"{label}/missing", False, "check result missing from report")
    res.fit_devs.extend(_fit_devs(report))
    return report


def _check_jsons(run_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(run_dir).glob("check_*.json"))}


class ShippedConfigs:
    """The five shipped simulate configs, the fk build and a verify round trip."""

    def __init__(self, seed):
        self.seed = seed
        self.configs = {name: _load(name) for name in SHIPPED}
        self.inputs = {name: _build_inputs(cfg) for name, cfg in self.configs.items()}
        # the fk profile itself is built by the pass: it is an operation
        self.fk = _validated(_load(FK_CONFIG))
        self.inputs[FK_CONFIG] = cli.build_generator(self.fk["graph"])
        self.round_trip = dict(self.configs[ROUND_TRIP], snapshots=True)

    def run_pass(self, work, guard, tracer):
        res = PassResult()
        for name, cfg in self.configs.items():
            _simulate(res, name, cfg, work / name, guard, tracer)
        try:
            with tracer.step("fk"):
                report = cli.run_fk(self.fk, work / "fk", seed=self.seed)
            table = np.array(report["table"], dtype=float)
            ok = (len(table) >= 2 and np.isfinite(table).all() and (table > 0).all()
                  and (np.diff(table[:, 0]) > 0).all() and (np.diff(table[:, 1]) <= 0).all())
            res.op("fk", ok, "" if ok else "profile table not positive and nonincreasing")
        except Exception as e:  # noqa: BLE001
            res.op("fk", False, f"{type(e).__name__}: {e}")
        snap = work / "round_trip"
        if _simulate(res, "round_trip", self.round_trip, snap, guard, tracer) is not None:
            cfg_path = work / "round_trip.json"
            cfg_path.write_text(json.dumps(self.configs[ROUND_TRIP]))
            try:
                with tracer.step("verify"):
                    code = cli.main(["verify", "--config", str(cfg_path),
                                     "--traj-dir", str(snap), "--out", str(work / "verify")])
                direct = _check_jsons(work / ROUND_TRIP)
                same = bool(direct) and _check_jsons(work / "verify") == direct
                res.op("verify", code == 0 and same,
                       f"exit {code}" if code else "check JSON differs from the direct run")
            except Exception as e:  # noqa: BLE001
                res.op("verify", False, f"{type(e).__name__}: {e}")
        else:
            res.op("verify", False, "no snapshot run to verify")
        return res


class SingleConfig:
    """One large simulate config run through ``cli.run``."""

    def __init__(self, name, cfg):
        self.name = name
        self.cfg = cfg
        self.inputs = _build_inputs(cfg)

    def run_pass(self, work, guard, tracer):
        res = PassResult()
        _simulate(res, self.name, self.cfg, work / self.name, guard, tracer)
        return res


class ComparisonEnsemble:
    """Ordered pairs ``u01 >= u02`` drawn from the seed, solved by ``comparison_check``.

    25 pairs on Z^1 with a support of 9 vertices and 25 on the radius-2
    ball of Z^2, as in acceptance criterion 6, but drawn from the
    workload seed.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.cfg = solver.SolverConfig(p=3.0, instants=solver.log_instants(0.1, 5.0, 7),
                                       rtol=1e-10, atol=1e-14, n0=10)
        z1, z2 = gf.lattice_generator(1), gf.lattice_generator(2)
        self.pairs = []
        for g, center, supp in [(z1, (0,), [(k,) for k in range(-4, 5)]),
                                (z2, (0, 0), list(gf.ball(z2, (0, 0), 2).vertices))]:
            for _ in range(PAIRS_PER_GRAPH):
                base = dict(zip(supp, rng.uniform(0.0, 1.0, len(supp)).tolist()))
                bump = dict(zip(supp, rng.uniform(0.0, 0.5, len(supp)).tolist()))
                u01 = gf.Field(g, {v: base[v] + bump[v] for v in supp})
                self.pairs.append((g, center, u01, gf.Field(g, base)))

    def run_pass(self, work, guard, tracer):
        res = PassResult()
        for k, (g, center, u01, u02) in enumerate(self.pairs):
            label = f"pair{k:02d}"
            before = guard.violations
            try:
                with tracer.step(label):
                    gap = solver.comparison_check(g, u01, u02, self.cfg, center=center)
            except Exception as e:  # noqa: BLE001
                res.op(label, False, f"{type(e).__name__}: {e}")
                continue
            bound = -GAP_RTOL * u01.sup_norm()
            if guard.violations != before:
                res.op(label, False, "mass not conserved")
            else:
                res.op(label, math.isfinite(gap) and gap >= bound,
                       f"gap {gap:.3e} below {bound:.3e}")
        return res


WORKLOADS = {
    "shipped_configs": ShippedConfigs,
    "lattice3d_large_ball": lambda seed: SingleConfig("lattice3d_large_ball",
                                                      LATTICE3D_LARGE_BALL),
    "lattice1d_long_horizon": lambda seed: SingleConfig("lattice1d_long_horizon",
                                                        LATTICE1D_LONG_HORIZON),
    "comparison_ensemble": ComparisonEnsemble,
}
