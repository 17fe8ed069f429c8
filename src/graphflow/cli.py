"""Batch experiment runner: config ingestion, orchestration, reports.

Configs are JSON documents validated against :data:`CONFIG_SCHEMA`
(unknown keys are rejected).  A run writes, under the output directory:

* ``manifest.json``    -- config hash, package/library versions, certified
  truncation radius, solve diagnostics (for reproducibility);
* ``trajectory.csv``   -- per-instant summary series;
* ``fields/``          -- optional full snapshots, one CSV per instant;
* ``check_<tag>.csv``  -- the (t, lhs, rhs, ratio) block of each check;
* ``check_<tag>.json`` -- its verdict;
* ``plotdata.csv``     -- plot-ready columns;
* ``report.json``      -- aggregated verdicts.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config error,
3 solver failure.  Identical (config, seed) pairs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import jsonschema

from . import estimates, faberkrahn, solver
from .fields import Field, ball_indicator_field, delta_field, vertex_from_str, vertex_to_str
from .graphs import (FiniteGraph, ball, generator_from_file, lattice_generator,
                     product_generator, region_edges)

__version__ = "0.1.0"

_WINDOW_SCHEMA = {
    "type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
    "minItems": 2, "maxItems": 2,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["graph", "solver"],
    "properties": {
        "graph": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["lattice", "product", "custom"]},
                "N": {"type": "integer", "minimum": 1},
                "H": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["edges"],
                    "properties": {
                        "edges": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "prefixItems": [
                                    {"type": ["string", "integer"]},
                                    {"type": ["string", "integer"]},
                                    {"type": "number", "exclusiveMinimum": 0},
                                ],
                                "minItems": 3, "maxItems": 3,
                            },
                            "minItems": 1,
                        },
                    },
                },
                "adjacency_file": {"type": "string"},
            },
        },
        "initial_data": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["delta", "ball_indicator", "power_law", "file"]},
                "center": {"type": ["array", "string"]},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "integer", "minimum": 0},
                "alpha": {"type": "number", "exclusiveMinimum": 0},
                "truncation_radius": {"type": "integer", "minimum": 1},
                "center_value": {"type": "number", "exclusiveMinimum": 0},
                "path": {"type": "string"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "required": ["p", "t_min", "t_max", "num_instants"],
            "properties": {
                "p": {"type": "number", "exclusiveMinimum": 2},
                "t_min": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "num_instants": {"type": "integer", "minimum": 2},
                "rtol": {"type": "number", "exclusiveMinimum": 0},
                "atol": {"type": "number", "exclusiveMinimum": 0},
                "n0": {"type": "integer", "minimum": 1},
                "max_expansions": {"type": "integer", "minimum": 1},
                "delta_boundary": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "eps_trunc": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
        },
        "profile": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["lattice", "tabulated", "bruteforce"]},
                "c0": {"type": "number", "exclusiveMinimum": 0},
                "path": {"type": "string"},
                "omega_exp": {"type": "number", "exclusiveMinimum": 0},
                "size_cap": {"type": "integer", "minimum": 1, "maximum": 8},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["type"],
                "properties": {
                    "type": {"enum": ["decay_fit", "propagation_fit", "sup_bound",
                                      "lower_bound", "moment_bound", "entropy_bound",
                                      "slow_decay"]},
                    "window": _WINDOW_SCHEMA,
                    "theoretical_slope": {"type": "number"},
                    "tolerance": {"type": "number", "exclusiveMinimum": 0},
                    "eps": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "q": {"type": "number", "exclusiveMinimum": 1},
                    "max_stability": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "snapshots": {"type": "boolean"},
        "output_dir": {"type": "string"},
    },
}


class ConfigError(ValueError):
    pass


def validate_config(cfg):
    """Schema-validate a config dict; returns a list of error strings."""
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = []
    for err in sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path)):
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        errors.append(f"{where}: {err.message}")
    if errors:
        return errors
    # cross-field rules the schema cannot express
    fam = cfg["graph"]["family"]
    if fam in ("lattice", "product") and "N" not in cfg["graph"]:
        errors.append("graph: family requires N")
    if fam == "product" and "H" not in cfg["graph"]:
        errors.append("graph: product family requires H")
    if fam == "custom" and "adjacency_file" not in cfg["graph"]:
        errors.append("graph: custom family requires adjacency_file")
    if cfg["solver"]["t_min"] >= cfg["solver"]["t_max"]:
        errors.append("solver: need t_min < t_max")
    prof = cfg.get("profile", {})
    randomized = prof.get("kind") == "bruteforce"
    if randomized and "seed" not in cfg:
        errors.append("seed: mandatory when a randomized operation is requested")
    data = cfg.get("initial_data")
    if fam != "lattice" and "center" not in (data or {}):
        # the default center is the lattice origin
        errors.append(f"initial_data: the {fam} family requires a center")
    if data:
        kind = data["kind"]
        needs = {"delta": ["center"], "ball_indicator": ["center", "radius"],
                 "power_law": ["alpha", "truncation_radius"], "file": ["path"]}
        for key in needs[kind]:
            if key not in data:
                errors.append(f"initial_data: kind {kind!r} requires {key!r}")
    for chk in cfg.get("checks", []):
        if chk["type"] == "slow_decay":
            if "q" not in chk:
                errors.append("checks: slow_decay requires q")
            if not data or data.get("kind") != "power_law":
                errors.append("checks: slow_decay requires power_law initial data")
            if fam != "lattice":
                errors.append("checks: slow_decay analytic tails require the lattice family")
        if chk["type"] == "moment_bound" and "alpha" not in chk:
            errors.append("checks: moment_bound requires alpha")
        if chk["type"] == "propagation_fit" and 1.0 - chk.get("eps", 0.5) == 1.0:
            errors.append("checks: propagation_fit eps is below float resolution "
                          "(1 - eps == 1)")
    slow = any(c["type"] == "slow_decay" for c in cfg.get("checks", []))
    if slow and not errors and not randomized:
        # a brute-forced profile is too costly to build here: run() tests it once built
        try:
            g = build_generator(cfg["graph"])
            errors += _slow_decay_horizon_errors(cfg, g, build_profile(cfg, g))
        except (ValueError, OSError) as e:
            errors.append(f"checks: slow_decay: {e}")
    return errors


def _slow_decay_horizon_errors(cfg, g, profile):
    """Errors for slow_decay checks whose horizon is past the data's balance time.

    The check calibrates its envelope at each instant t by the smallest
    radius R with ``T(R) >= t`` inside the data's support, so ``t_max``
    must not exceed T at the truncation radius.
    """
    errors = []
    for chk in cfg.get("checks", []):
        if chk["type"] == "slow_decay":
            data = cfg["initial_data"]   # power-law data, as validated
            spec = estimates.PowerLawSpec(g.dimension, data["alpha"],
                                          center_value=data.get("center_value", 1.0))
            R, t_max = data["truncation_radius"], cfg["solver"]["t_max"]
            T = estimates.slow_decay_T(spec, chk["q"], R, profile)
            if t_max > T:
                errors.append(f"checks: slow_decay needs t_max <= T({R}) = {T:.6g}, the "
                              f"balance time at the truncation radius (t_max = {t_max:g})")
    return errors


def config_hash(cfg):
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# builders


def build_generator(graph_cfg):
    fam = graph_cfg["family"]
    if fam == "lattice":
        return lattice_generator(graph_cfg["N"])
    if fam == "product":
        H = FiniteGraph([tuple(e) for e in graph_cfg["H"]["edges"]], name="H")
        return product_generator(H, graph_cfg["N"])
    return generator_from_file(graph_cfg["adjacency_file"])


def _parse_center(raw, g):
    if raw is None:
        dim = g.dimension or 1
        return (0,) * dim
    if isinstance(raw, str):
        return vertex_from_str(raw)
    return tuple(raw)


def build_initial_field(g, data_cfg):
    kind = data_cfg["kind"]
    center = _parse_center(data_cfg.get("center"), g)
    if kind == "delta":
        return delta_field(g, center, data_cfg.get("amplitude", 1.0)), center
    if kind == "ball_indicator":
        return ball_indicator_field(g, center, data_cfg["radius"],
                                    data_cfg.get("amplitude", 1.0)), center
    if kind == "power_law":
        spec = estimates.PowerLawSpec(g.dimension, data_cfg["alpha"],
                                      center=center,
                                      center_value=data_cfg.get("center_value", 1.0))
        return spec.field(g, data_cfg["truncation_radius"]), center
    with open(data_cfg["path"]) as f:
        return Field.from_csv_text(g, f.read()), center


def build_solver_config(solver_cfg):
    instants = solver.log_instants(solver_cfg["t_min"], solver_cfg["t_max"],
                                   solver_cfg["num_instants"])
    keys = ("rtol", "atol", "n0", "max_expansions", "delta_boundary", "eps_trunc")
    kwargs = {k: solver_cfg[k] for k in keys if k in solver_cfg}
    return solver.SolverConfig(p=solver_cfg["p"], instants=instants, **kwargs)


def build_profile(cfg, g, seed=0):
    prof = cfg.get("profile", {"kind": "lattice"})
    p = cfg["solver"]["p"]
    if prof["kind"] == "lattice":
        N = g.dimension
        if N is None:
            raise ConfigError("lattice profile needs a graph with a dimension")
        return faberkrahn.FkProfile.lattice(N, p, prof.get("c0", 1.0))
    if prof["kind"] == "tabulated":
        with open(prof["path"]) as f:
            return faberkrahn.FkProfile.from_csv_text(
                f.read(), p, g.dimension or 1, omega_exp=prof.get("omega_exp"))
    center = _parse_center(cfg.get("initial_data", {}).get("center"), g)
    return faberkrahn.fk_profile_bruteforce(g, center, prof["size_cap"], p,
                                            seed=seed)


# checks whose bounds rest on the profile's structural assumptions
_PROFILE_CHECKS = {"sup_bound", "moment_bound", "entropy_bound", "slow_decay"}


def _profile_for_checks(cfg, g, seed):
    """Build the profile and vet it before the solve.

    A profile that fails the structural assumptions a configured check
    needs is rejected here; the checks read the same cached report.  A
    brute-forced profile also gets the slow-decay horizon test that
    :func:`validate_config` leaves to this point.
    """
    profile = build_profile(cfg, g, seed=seed)
    if cfg.get("profile", {}).get("kind") == "bruteforce":
        errors = _slow_decay_horizon_errors(cfg, g, profile)
        if errors:
            raise ConfigError("; ".join(errors))
    if {c["type"] for c in cfg.get("checks", [])} & _PROFILE_CHECKS:
        estimates.require_profile(profile)
    return profile


# ----------------------------------------------------------------------
# output helpers


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def export_trajectory(traj, out_dir, snapshots=False):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ts = traj.times
    qs = (1.5, 2.0, 4.0)
    cols = [
        ts,
        traj.masses,
        traj.sup_norms,
        *[traj.lq_norms(q) for q in qs],
        np.full(len(ts), traj.region.radius),
        np.concatenate([[0], traj.diagnostics["accepted"]]),
        np.concatenate([[0], traj.diagnostics["rejected"]]),
        np.concatenate([[0.0], traj.diagnostics["max_scaled_error"]]),
        np.concatenate([[0.0], traj.diagnostics["clamped"]]),
        traj.boundary_sups,
    ]
    header = ["t", "mass", "sup", "lq1.5", "lq2", "lq4", "radius",
              "accepted", "rejected", "max_scaled_error", "clamped",
              "boundary_sup"]
    write_csv(out / "trajectory.csv", header, cols)
    if snapshots:
        fdir = out / "fields"
        fdir.mkdir(exist_ok=True)
        for k, t in enumerate(ts):
            (fdir / f"t_{k:04d}.csv").write_text(traj.field_at(t).to_csv_text())


def load_trajectory(run_dir, g):
    """Rebuild a Trajectory from an exported run directory (needs snapshots)."""
    run_dir = Path(run_dir)
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        scfg = manifest["config"]["solver"]
        center = vertex_from_str(manifest["center"])
        n = manifest["certified_radius"]
        certified = manifest["certified"]
        cfg = build_solver_config(scfg)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read the manifest of {run_dir}: {e}") from None
    except KeyError as e:
        raise ConfigError(f"manifest of {run_dir} lacks key {e}") from None
    if not isinstance(n, int) or n < 0:
        raise ConfigError(f"manifest of {run_dir} has no certified radius: {n!r}")
    fdir = run_dir / "fields"
    if not fdir.is_dir():
        raise ConfigError("run directory has no field snapshots; re-run with snapshots=true")
    region = ball(g, center, n)
    edges = region_edges(g, region)
    times = np.concatenate([[0.0], cfg.instants])
    values = np.zeros((len(times), len(region)))
    for k in range(len(times)):
        path = fdir / f"t_{k:04d}.csv"
        try:
            fld = Field.from_csv_text(g, path.read_text())
        except OSError as e:
            raise ConfigError(f"cannot read snapshot {path}: {e}") from None
        for v, x in fld.values.items():
            i = region.index.get(v)
            if i is None:
                raise ConfigError(f"snapshot {path} has vertex {v!r} outside the "
                                  f"certified ball B_{n}({center!r})")
            values[k, i] = x
    diagnostics = {
        "accepted": np.zeros(len(cfg.instants), dtype=np.int64),
        "rejected": np.zeros(len(cfg.instants), dtype=np.int64),
        "max_scaled_error": np.zeros(len(cfg.instants)),
        "clamped": np.zeros(len(cfg.instants)),
    }
    return solver.Trajectory(cfg, region, edges, times, values, diagnostics,
                             certified=certified)


def _check_json(check, extras=None):
    out = {
        "tag": check.tag,
        "fitted_constant": check.verdict,
        "verdict": check.verdict,
        "window": list(check.window),
    }
    if extras:
        out.update(extras)
    return out


def _fit_json(fit):
    return {
        "slope": fit.slope,
        "stderr": fit.stderr,
        "r2": fit.r2,
        "n_points": fit.n_points,
        "window": list(fit.window),
        "theoretical": fit.theoretical,
        "tolerance": fit.tolerance,
        "pass": bool(fit.passed),
    }


# ----------------------------------------------------------------------
# experiment runner


def _run_one_check(chk, traj, profile, cfg):
    """Execute one configured check; returns (json_dict, ratio_columns|None)."""
    typ = chk["type"]
    window = tuple(chk.get("window", estimates.DEFAULT_WINDOW))
    if typ == "decay_fit":
        fit = estimates.fit_decay_exponent(traj, window,
                                           chk.get("theoretical_slope"),
                                           chk.get("tolerance"))
        return {"tag": "decay_fit", **_fit_json(fit)}, None
    if typ == "propagation_fit":
        fit = estimates.fit_propagation_exponent(traj, chk.get("eps", 0.5), window,
                                                 chk.get("theoretical_slope"),
                                                 chk.get("tolerance"))
        return {"tag": "propagation_fit", **_fit_json(fit)}, None
    if typ == "sup_bound":
        check = estimates.check_sup_bound(traj, profile, window)
    elif typ == "lower_bound":
        check = estimates.check_lower_bound(traj, profile)
    elif typ == "moment_bound":
        check = estimates.check_moment_bound(traj, chk["alpha"], profile, window=window)
    elif typ == "entropy_bound":
        check = estimates.check_entropy_bound(traj, profile, window)
    elif typ == "slow_decay":
        data = cfg["initial_data"]
        spec = estimates.PowerLawSpec(traj.generator.dimension, data["alpha"],
                                      center_value=data.get("center_value", 1.0))
        window = tuple(chk.get("window", (1e2, 1e4)))
        check, fit = estimates.check_slow_decay(traj, spec, chk["q"], profile,
                                                window, chk.get("tolerance", 0.05))
        out_json = _check_json(check, {"fit": _fit_json(fit),
                                       "pass": bool(fit.passed and
                                                    np.isfinite(check.verdict))})
        return out_json, check
    else:  # pragma: no cover - schema forbids
        raise ConfigError(f"unknown check type {typ!r}")

    passed = bool(np.isfinite(check.verdict))
    if typ == "lower_bound":
        passed = bool(check.extra["holds_everywhere"])
    if "max_stability" in chk and passed:
        hi = check.window[1]
        passed = check.stability((hi / 10.0, hi)) <= chk["max_stability"]
    return _check_json(check, {"pass": passed}), check


def _run_checks(cfg, traj, profile, out):
    """Run the configured checks on ``traj``, writing ``check_<tag>.csv/.json``.

    Returns the per-check JSON results and the ratio blocks by tag.
    """
    results = []
    ratio_blocks = {}
    for chk in cfg.get("checks", []):
        result, block = _run_one_check(chk, traj, profile, cfg)
        results.append(result)
        if block is not None:
            tag = result["tag"]
            write_csv(out / f"check_{tag}.csv", ["t", "lhs", "rhs", "ratio"],
                      [block.times, block.lhs, block.rhs, block.ratio])
            ratio_blocks[tag] = block
        (out / f"check_{result['tag']}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
    return results, ratio_blocks


def run(cfg, out_dir, seed=None):
    """Run one experiment config; writes artifacts and returns the report."""
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    if seed is None:
        seed = cfg.get("seed", 0)
    g = build_generator(cfg["graph"])
    u0, center = build_initial_field(g, cfg.get("initial_data",
                                                {"kind": "delta", "center": None}))
    scfg = build_solver_config(cfg["solver"])
    profile = _profile_for_checks(cfg, g, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = solver.solve_cauchy(g, u0, scfg, center=center)
    try:
        checks_json, ratio_blocks = _run_checks(cfg, traj, profile, out)
    except solver.TruncationDeficitError:
        # re-solve once from a doubled radius; every check and export then
        # sees the new trajectory
        bigger = dataclasses.replace(scfg, n0=solver.RADIUS_GROWTH * traj.region.radius)
        traj = solver.solve_cauchy(g, u0, bigger, center=center)
        checks_json, ratio_blocks = _run_checks(cfg, traj, profile, out)
    export_trajectory(traj, out, snapshots=cfg.get("snapshots", False))
    # plot-ready columns
    plot_cols = [traj.instants, traj.masses[1:], traj.sup_norms[1:]]
    plot_header = ["t", "mass", "sup"]
    for tag, block in ratio_blocks.items():
        plot_header.append(f"ratio_{tag}")
        plot_cols.append(block.ratio)
    write_csv(out / "plotdata.csv", plot_header, plot_cols)
    report = {
        "config_hash": config_hash(cfg),
        "seed": seed,
        "certified_radius": traj.certified_radius,
        "certified": traj.certified,
        "checks": checks_json,
        "pass": all(c.get("pass", True) for c in checks_json),
    }
    for c in checks_json:
        if c["tag"] == "decay_fit":
            report["decay_slope"] = c["slope"]
            break
    manifest = {
        "config": cfg,
        "config_hash": report["config_hash"],
        "seed": seed,
        "versions": {"graphflow": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "center": vertex_to_str(center),
        "certified": traj.certified,
        "certified_radius": traj.certified_radius,
        "expansion_history": traj.history,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def run_fk(cfg, out_dir, seed=None):
    """Brute-force a Faber-Krahn table for the configured graph."""
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    if seed is None:
        seed = cfg.get("seed", 0)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    g = build_generator(cfg["graph"])
    prof_cfg = cfg.get("profile", {})
    if prof_cfg.get("kind") != "bruteforce":
        raise ConfigError("fk subcommand needs a profile of kind 'bruteforce'")
    profile = build_profile(cfg, g, seed=seed)
    (out / "fk_profile.csv").write_text(profile.to_csv_text())
    report = {
        "config_hash": config_hash(cfg),
        "table": [[float(v), float(l)] for v, l in
                  zip(profile.table_v, profile.table_lam)],
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _load_config(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


def _default_out(args, cfg_path, multi=False):
    # one subdirectory per config when several run in a batch
    if args.out and not multi:
        return args.out
    root = args.out or os.environ.get("GRAPHFLOW_OUT", "runs")
    return str(Path(root) / Path(cfg_path).stem)


def _simulate_path(task):
    path, out, seed = task
    cfg = _load_config(path)
    report = run(cfg, out, seed=seed)
    return report["pass"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="graphflow",
        description="Nonlinear graph diffusion: simulate, verify, fit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run experiment configs end to end")
    sim.add_argument("--config", required=True, nargs="+",
                     help="experiment config path(s)")
    sim.add_argument("--out", help="output directory (default GRAPHFLOW_OUT/<stem>)")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--jobs", type=int, default=1,
                     help="run configs concurrently with this many workers")

    fk = sub.add_parser("fk", help="brute-force a Faber-Krahn profile table")
    fk.add_argument("--config", required=True)
    fk.add_argument("--out")
    fk.add_argument("--seed", type=int)

    ver = sub.add_parser("verify", help="run checks against a stored trajectory")
    ver.add_argument("--config", required=True)
    ver.add_argument("--traj-dir", required=True)
    ver.add_argument("--out")
    ver.add_argument("--seed", type=int)

    fit = sub.add_parser("fit", help="re-fit a decay exponent from a stored CSV")
    fit.add_argument("--traj-dir", required=True)
    fit.add_argument("--window", type=float, nargs=2, default=list(estimates.DEFAULT_WINDOW))
    fit.add_argument("--column", default="sup", help="trajectory.csv column to fit")

    val = sub.add_parser("validate-config", help="schema-check a config file")
    val.add_argument("config")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (solver.SolverError, faberkrahn.ConvergenceError) as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:  # ConfigError, malformed or unreadable inputs
        print(f"config error: {e}", file=sys.stderr)
        return 2


def _dispatch(args):
    if args.command == "validate-config":
        cfg = _load_config(args.config)
        errors = validate_config(cfg)
        if errors:
            for e in errors:
                print(f"invalid: {e}", file=sys.stderr)
            return 2
        print("ok")
        return 0

    if args.command == "simulate":
        multi = len(args.config) > 1
        tasks = [(path, _default_out(args, path, multi), args.seed)
                 for path in args.config]
        if args.jobs > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as ex:
                passes = list(ex.map(_simulate_path, tasks))
        else:
            passes = [_simulate_path(t) for t in tasks]
        return 0 if all(passes) else 1

    if args.command == "fk":
        cfg = _load_config(args.config)
        run_fk(cfg, _default_out(args, args.config), seed=args.seed)
        return 0

    if args.command == "verify":
        cfg = _load_config(args.config)
        errors = validate_config(cfg)
        if errors:
            raise ConfigError("; ".join(errors))
        g = build_generator(cfg["graph"])
        traj = load_trajectory(args.traj_dir, g)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        profile = _profile_for_checks(cfg, g, seed)
        out = Path(args.out or args.traj_dir)
        out.mkdir(parents=True, exist_ok=True)
        results, _ = _run_checks(cfg, traj, profile, out)
        return 0 if all(r.get("pass", True) for r in results) else 1

    if args.command == "fit":
        path = Path(args.traj_dir) / "trajectory.csv"
        if not path.exists():
            raise ConfigError(f"no trajectory.csv under {args.traj_dir}")
        with open(path) as f:
            header = f.readline().strip().split(",")
            rows = [line.split(",") for line in f if line.strip()]
        if args.column not in header:
            raise ConfigError(f"column {args.column!r} not in {header}")
        # 2-d even with zero or one rows; a malformed row is a ValueError
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
        ts = data[:, header.index("t")]
        ys = data[:, header.index(args.column)]
        fit = estimates.fit_loglog(ts, ys, tuple(args.window))
        print(json.dumps(_fit_json(fit), sort_keys=True))
        return 0

    raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
