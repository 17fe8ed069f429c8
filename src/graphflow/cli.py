"""Batch experiment runner: config ingestion, orchestration, reports.

Configs are JSON documents validated against :data:`CONFIG_SCHEMA`
(unknown keys are rejected) by an in-house checker for the JSON Schema
2020-12 keywords the schema uses: ``type``, ``enum``, ``required``,
``properties``, ``additionalProperties: false``, ``items``, ``prefixItems``,
``minItems``/``maxItems`` and ``minimum``/``maximum``/``exclusiveMinimum``/
``exclusiveMaximum``.  It reports errors as ``jsonschema`` words them and
raises on any other keyword.  A run writes, under the output directory:

* ``manifest.json``    -- config hash, package/library versions, certified
  truncation radius, solve diagnostics (for reproducibility);
* ``trajectory.csv``   -- per-instant summary series;
* ``fields/``          -- optional full snapshots, one CSV per instant;
* ``check_<tag>.csv``  -- the (t, lhs, rhs, ratio) block of each check;
* ``check_<tag>.json`` -- its verdict;
* ``plotdata.csv``     -- plot-ready columns;
* ``report.json``      -- aggregated verdicts.

Every command that reads a config starts with :func:`_setup`, which
validates it, builds each input it needs once and vets the built inputs; so
``validate-config`` exits 2 on every error ``simulate``, ``verify`` or
``fk`` reports before its work.  Each run solves once, on the certified
ball of :func:`solver.solve_cauchy`, and every check reads that
trajectory.  The output directory is made only after the solve and every
check have run, so a config, solver or check error leaves none.  In a
batch, each config writes under ``<out>/<config file stem>``; two configs
whose stems clash, or a config that is unreadable or fails
:func:`validate_config`, are a config error before any run starts.  Errors
that need built inputs (the ``propagation_fit`` eps floor, the
``slow_decay`` horizon, an unreadable graph or data file) surface at their
own config's run, when other configs of the batch may have written theirs.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage/config error,
3 solver failure (a check that finds the ball short of a mass fraction it
needs is one too).  Identical (config, seed) pairs produce byte-identical
outputs under one OpenBLAS kernel; the seed reaches only the ``seed`` field
of ``report.json`` and ``manifest.json``, as no computation is randomized.
Across kernels the bytes can differ: under ``OPENBLAS_CORETYPE=SandyBridge``
or ``Prescott`` the shipped decay configs write other bytes than under
SkylakeX, with the same verdicts and step counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import numbers
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import estimates, faberkrahn, solver
from .fields import Field, ball_indicator_field, delta_field, vertex_from_str, vertex_to_str
from .graphs import (FiniteGraph, ball, generator_from_file, lattice_generator,
                     product_generator)

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
            },
        },
        "profile": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["lattice", "bruteforce"]},
                "c0": {"type": "number", "exclusiveMinimum": 0},
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
    },
}


class ConfigError(ValueError):
    pass


_JSON_TYPES = {"array": list, "boolean": bool, "null": type(None), "object": dict,
               "string": str}


def _is_type(value, name):
    # JSON Schema's types: a bool is no number, an integral float is an integer
    if name == "integer":
        return (isinstance(value, int) and not isinstance(value, bool)
                or isinstance(value, float) and value.is_integer())
    if name == "number":
        return isinstance(value, numbers.Number) and not isinstance(value, bool)
    return isinstance(value, _JSON_TYPES[name])


# keyword: (the test a number fails it by, jsonschema's words for that)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _schema_errors(schema, value, path=()):
    """Yield ``(path, keyword, message)`` for each way ``value`` breaks ``schema``.

    Follows JSON Schema 2020-12 for the keywords :data:`CONFIG_SCHEMA` uses,
    in the order and with the words of ``jsonschema``'s ``iter_errors``; any
    other keyword but ``$schema`` raises ``ValueError``.
    """
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if key == "type":
            types = arg if isinstance(arg, list) else [arg]
            if not any(_is_type(value, t) for t in types):
                yield path, key, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif key == "enum":
            if value not in arg:
                yield path, key, f"{value!r} is not one of {arg!r}"
        elif key == "required":
            if is_object:
                yield from ((path, key, f"{name!r} is a required property")
                            for name in arg if name not in value)
        elif key == "properties":
            if is_object:
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(sub, value[name], (*path, name))
        elif key == "additionalProperties" and arg is False:
            known = schema.get("properties", {})
            extras = sorted((k for k in value if k not in known), key=str) if is_object else []
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield path, key, (f"Additional properties are not allowed "
                                  f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "items":
            if is_array:
                for i in range(len(schema.get("prefixItems", ())), len(value)):
                    yield from _schema_errors(arg, value[i], (*path, i))
        elif key == "prefixItems":
            if is_array:
                for i, (item, sub) in enumerate(zip(value, arg)):
                    yield from _schema_errors(sub, item, (*path, i))
        elif key == "minItems":
            if is_array and len(value) < arg:
                words = "should be non-empty" if arg == 1 else "is too short"
                yield path, key, f"{value!r} {words}"
        elif key == "maxItems":
            if is_array and len(value) > arg:
                words = "is expected to be empty" if arg == 0 else "is too long"
                yield path, key, f"{value!r} {words}"
        elif key in _BOUNDS:
            fails, words = _BOUNDS[key]
            if _is_type(value, "number") and fails(value, arg):
                yield path, key, f"{value!r} is {words} of {arg!r}"
        elif key != "$schema":
            raise ValueError(f"schema keyword {key!r}: {arg!r} is not supported")


def _non_finite(value, path=()):
    """Yield ``(path, number)`` for each NaN or infinity in a parsed config."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, (*path, key))
    elif isinstance(value, float) and not np.isfinite(value):
        yield path, value


# checks whose bounds rest on the profile's structural assumptions, which
# only the lattice power law meets
_PROFILE_CHECKS = {"sup_bound", "moment_bound", "entropy_bound", "slow_decay"}


def _errors(schema, value):
    """:func:`_schema_errors` as ``path: message`` strings, in path order."""
    return [f"{'/'.join(map(str, path)) or '<root>'}: {message}"
            for path, _, message in sorted(_schema_errors(schema, value), key=lambda e: e[0])]


# check defaults that more than one step reads
_PROPAGATION_EPS = 0.5


def validate_config(cfg):
    """The errors of a config dict that show without building anything.

    Checks the schema, that every number is finite, and the cross-field
    rules the schema cannot express; opens no file.  No rule reads the
    seed: it only labels the run.  The rules that need built inputs are
    :func:`_setup`'s.  Returns a list of error strings.
    """
    errors = _errors(CONFIG_SCHEMA, cfg)
    if errors:
        return errors
    # cross-field rules the schema cannot express
    for path, x in _non_finite(cfg):
        # Python's json reads NaN and Infinity, which pass every bound; the
        # window rule below names a NaN window bound
        if not (path[-2:-1] == ("window",) and np.isnan(x)):
            errors.append(f"{'/'.join(map(str, path))}: {x!r} is not a finite number")
    fam = cfg["graph"]["family"]
    if fam in ("lattice", "product") and "N" not in cfg["graph"]:
        errors.append("graph: family requires N")
    if fam == "product" and "H" not in cfg["graph"]:
        errors.append("graph: product family requires H")
    if fam == "custom" and "adjacency_file" not in cfg["graph"]:
        errors.append("graph: custom family requires adjacency_file")
    if cfg["solver"]["t_min"] >= cfg["solver"]["t_max"]:
        errors.append("solver: need t_min < t_max")
    if cfg.get("profile", {}).get("kind") == "bruteforce":
        assumed = sorted({c["type"] for c in cfg.get("checks", [])} & _PROFILE_CHECKS)
        if assumed:
            errors.append(f"profile: the checks {', '.join(assumed)} need the lattice "
                          f"profile: a brute-forced table is constant past its range, so "
                          f"v^(-p/N)/Lambda(v) decreases there and fails assumption nd")
    data = cfg.get("initial_data")
    if fam != "lattice" and "center" not in (data or {}):
        # the default center is the lattice origin
        errors.append(f"initial_data: the {fam} family requires a center")
    if fam == "custom" and isinstance((data or {}).get("center"), list):
        # a list names the coordinates of a lattice or product vertex
        text = ":".join(map(str, data["center"]))
        errors.append(f"initial_data: a custom graph's center is its vertex id as text, "
                      f"such as {json.dumps(text)}, not the list {json.dumps(data['center'])}")
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
            N, alpha = cfg["graph"].get("N"), (data or {}).get("alpha")
            if "q" in chk and N and alpha and chk["q"] * alpha <= N:
                errors.append(f"checks: slow_decay needs q > N/alpha = {N / alpha!r}, else "
                              f"the lq tail of the data diverges (q = {chk['q']!r})")
        if "window" in chk and not chk["window"][0] < chk["window"][1]:   # NaN too
            errors.append(f"checks: {chk['type']} window {chk['window']!r} needs "
                          f"window[0] < window[1]")
        if chk["type"] == "moment_bound" and "alpha" not in chk:
            errors.append("checks: moment_bound requires alpha")
        if chk["type"] == "propagation_fit" and 1.0 - chk.get("eps", _PROPAGATION_EPS) == 1.0:
            errors.append("checks: propagation_fit eps is below float resolution "
                          "(1 - eps == 1)")
    return errors


def _propagation_eps_errors(cfg, g, center, n0):
    # every ball a solve can end on contains its first ball B_n0, so
    # mass_radius would reject an eps at or below |B_n0| 2^-53 after the solve
    checks = [c for c in cfg.get("checks", []) if c["type"] == "propagation_fit"]
    if not checks:
        return []
    size = len(ball(g, center, n0))
    floor = size * 2.0 ** -53
    return [f"checks: propagation_fit eps {c['eps']!r} is at or below {floor!r}, the "
            f"rounding of a mass sum over the {size} vertices of the first ball B_{n0}"
            for c in checks if c.get("eps", _PROPAGATION_EPS) <= floor]


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
            spec = _power_law_spec(g, data)
            R, t_max = data["truncation_radius"], cfg["solver"]["t_max"]
            T = estimates.slow_decay_T(spec, chk["q"], R, profile)
            if t_max > T:
                errors.append(f"checks: slow_decay needs t_max <= T({R}) = {T:.6g}, the "
                              f"balance time at the truncation radius (t_max = {t_max:g})")
    return errors


def _run_seed(cfg, seed=None):
    """The seed a run records, as an int: ``seed`` if given, else the config's (0 if none).

    No computation reads it; it labels the run in ``report.json`` and
    ``manifest.json``.  A given ``seed`` (``--seed``) must pass the schema's
    rule for the config's.  The schema takes an integral float such as
    ``20245.0`` as an integer, which is recorded as its int.
    """
    if seed is None:
        return int(cfg.get("seed", 0))
    errors = [f"--seed: {message}" for *_, message
              in _schema_errors(CONFIG_SCHEMA["properties"]["seed"], seed)]
    if errors:
        raise ConfigError("; ".join(errors))
    return int(seed)


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


# the initial data of a config without an initial_data section
_DELTA_AT_ORIGIN = {"kind": "delta", "center": None}


def _parse_center(raw, g):
    if raw is None:
        dim = g.dimension or 1
        return (0,) * dim
    if isinstance(raw, str):
        return vertex_from_str(raw, g)
    return tuple(raw)


def _power_law_spec(g, data_cfg, center=None):
    # the spec's own center value stands where the config sets none
    given = {"center_value": data_cfg["center_value"]} if "center_value" in data_cfg else {}
    return estimates.PowerLawSpec(g.dimension, data_cfg["alpha"], center=center, **given)


def build_initial_field(g, data_cfg):
    kind = data_cfg["kind"]
    center = _parse_center(data_cfg.get("center"), g)
    if kind == "delta":
        return delta_field(g, center, data_cfg.get("amplitude", 1.0)), center
    if kind == "ball_indicator":
        return ball_indicator_field(g, center, data_cfg["radius"],
                                    data_cfg.get("amplitude", 1.0)), center
    if kind == "power_law":
        spec = _power_law_spec(g, data_cfg, center)
        return spec.field(g, data_cfg["truncation_radius"]), center
    with open(data_cfg["path"]) as f:
        return Field.from_csv_text(g, f.read()), center


def build_solver_config(solver_cfg):
    instants = solver.log_instants(solver_cfg["t_min"], solver_cfg["t_max"],
                                   solver_cfg["num_instants"])
    keys = ("rtol", "atol", "n0", "max_expansions")
    kwargs = {k: solver_cfg[k] for k in keys if k in solver_cfg}
    return solver.SolverConfig(p=solver_cfg["p"], instants=instants, **kwargs)


def build_profile(cfg, g):
    prof = cfg.get("profile", {"kind": "lattice"})
    p = cfg["solver"]["p"]
    if prof["kind"] == "lattice":
        N = g.dimension
        if N is None:
            raise ConfigError("lattice profile needs a graph with a dimension")
        return faberkrahn.FkProfile.lattice(N, p, prof.get("c0", 1.0))
    center = _parse_center(cfg.get("initial_data", {}).get("center"), g)
    return faberkrahn.fk_profile_bruteforce(g, center, prof["size_cap"], p)


def _setup(cfg, seed=None):
    """Validate ``cfg``, build each input its run reads once, and vet the built inputs.

    Returns ``(g, u0, center, scfg, profile, seed)``, with the seed the run
    records as an int (:func:`_run_seed`; nothing built reads it), and
    ``scfg.n0`` set to :func:`solver.first_radius`, which the solve then
    reads.  The profile is built only when a configured check reads it
    (``lower_bound`` or one of :data:`_PROFILE_CHECKS`), else it is None;
    :func:`validate_config` gives the checks of :data:`_PROFILE_CHECKS` only
    the lattice power law, which meets their assumptions at every p/N.
    Raises ``ConfigError`` for what :func:`validate_config` finds, for a
    ``propagation_fit`` eps at the rounding floor of the first ball and for
    a ``slow_decay`` horizon past the balance time.  A failing build raises
    its own ``ValueError`` or ``OSError``.
    """
    errors = validate_config(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    seed = _run_seed(cfg, seed)
    g = build_generator(cfg["graph"])
    u0, center = build_initial_field(g, cfg.get("initial_data", _DELTA_AT_ORIGIN))
    scfg = build_solver_config(cfg["solver"])
    scfg.n0 = solver.first_radius(u0, scfg, center)   # the solve's, searched once
    reads = {c["type"] for c in cfg.get("checks", [])} & (_PROFILE_CHECKS | {"lower_bound"})
    profile = build_profile(cfg, g) if reads else None
    errors = (_propagation_eps_errors(cfg, g, center, scfg.n0)
              + _slow_decay_horizon_errors(cfg, g, profile))
    if errors:
        raise ConfigError("; ".join(errors))
    return g, u0, center, scfg, profile, seed


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
        *(traj.diagnostics[name] for name in solver.ROW_DIAGNOSTICS.names),
    ]
    header = ["t", "mass", "sup", "lq1.5", "lq2", "lq4", "radius",
              *solver.ROW_DIAGNOSTICS.names]
    write_csv(out / "trajectory.csv", header, cols)
    if snapshots:
        fdir = out / "fields"
        fdir.mkdir(exist_ok=True)
        for k, t in enumerate(ts):
            (fdir / f"t_{k:04d}.csv").write_text(traj.field_at(t).to_csv_text())


# the shapes of the manifest values a trajectory is rebuilt from; a missing
# key is left to the read, which names it
_MANIFEST_SCHEMA = {"type": "object", "properties": {
    "config": {"type": "object", "properties": {
        "solver": {"type": "object",
                   "properties": CONFIG_SCHEMA["properties"]["solver"]["properties"]}}},
    "center": {"type": "string"},
}}


def _read_manifest(run_dir, g):
    """``(stored config, SolverConfig, center, certified radius)`` of a run's manifest on ``g``.

    Only a certified run is read: every bound check needs the solution of
    the Cauchy problem.  Raises ``ConfigError`` if the manifest cannot be
    read, lacks a key or holds a value of the wrong shape.
    """
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read the manifest of {run_dir}: {e}") from None
    errors = _errors(_MANIFEST_SCHEMA, manifest)
    if errors:
        raise ConfigError(f"manifest of {run_dir} is malformed: {'; '.join(errors)}")
    try:
        config, n, certified = (manifest["config"], manifest["certified_radius"],
                                manifest["certified"])
        center = vertex_from_str(manifest["center"], g)
        g.degree(center)   # an id g has not raises
        scfg = build_solver_config(config["solver"])
    except KeyError as e:
        raise ConfigError(f"manifest of {run_dir} lacks key {e}") from None
    except ValueError as e:   # a center off g or a malformed solver section
        raise ConfigError(f"manifest of {run_dir} is malformed: {e}") from None
    if certified is not True:
        raise ConfigError(f"manifest of {run_dir} is not of a certified run: "
                          f"certified={certified!r}")
    if type(n) is not int or n < 0:   # a bool is no radius
        raise ConfigError(f"manifest of {run_dir} has no certified radius: {n!r}")
    return config, scfg, center, n


def load_trajectory(run_dir, g, manifest=None):
    """Rebuild a Trajectory from an exported run directory (needs snapshots).

    ``manifest`` is :func:`_read_manifest`'s result, read here if not given.
    """
    run_dir = Path(run_dir)
    _, cfg, center, n = manifest or _read_manifest(run_dir, g)
    fdir = run_dir / "fields"
    if not fdir.is_dir():
        raise ConfigError("run directory has no field snapshots; re-run with snapshots=true")
    region = ball(g, center, n)
    times = np.concatenate([[0.0], cfg.instants])
    snapshots = []
    for k in range(len(times)):
        path = fdir / f"t_{k:04d}.csv"
        try:
            snapshots.append(Field.from_csv_text(g, path.read_text()))
        except OSError as e:
            raise ConfigError(f"cannot read snapshot {path}: {e}") from None
    # rows constant on orbits are kept on them, placed as the solve places its data
    try:
        rows, orbits = solver._rows(region, snapshots)
    except ValueError as e:
        raise ConfigError(f"a snapshot in {fdir} lies outside the certified ball: {e}") from None
    table = np.zeros(len(times), dtype=solver.ROW_DIAGNOSTICS)   # snapshots carry none
    diagnostics = {name: table[name] for name in table.dtype.names}
    return solver.Trajectory(cfg, region, times, rows, diagnostics, orbits=orbits)


def _check_json(check, extras=None):
    out = {
        "tag": check.tag,
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
        fit = estimates.fit_propagation_exponent(traj, chk.get("eps", _PROPAGATION_EPS),
                                                 window, chk.get("theoretical_slope"),
                                                 chk.get("tolerance"))
        return {"tag": "propagation_fit", **_fit_json(fit)}, None
    if typ == "sup_bound":
        check = estimates.check_sup_bound(traj, profile, window)
    elif typ == "lower_bound":
        check = estimates.check_lower_bound(traj, profile, window=chk.get("window"))
    elif typ == "moment_bound":
        check = estimates.check_moment_bound(traj, chk["alpha"], profile, window=window)
    elif typ == "entropy_bound":
        check = estimates.check_entropy_bound(traj, profile, window)
    elif typ == "slow_decay":
        spec = _power_law_spec(traj.generator, cfg["initial_data"])
        window = tuple(chk.get("window", estimates.SLOW_DECAY_WINDOW))
        tolerance = chk.get("tolerance", estimates.SLOW_DECAY_TOLERANCE)
        check, fit = estimates.check_slow_decay(traj, spec, chk["q"], profile, window, tolerance)
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
    """Run the configured checks on ``traj``, then write ``check_<tag>.csv/.json``.

    Every check runs before ``out`` is made, so a check that raises leaves
    no output directory.  Returns the per-check JSON results and the ratio
    blocks by tag.
    """
    runs = [_run_one_check(chk, traj, profile, cfg) for chk in cfg.get("checks", [])]
    out.mkdir(parents=True, exist_ok=True)
    ratio_blocks = {}
    for result, block in runs:
        tag = result["tag"]
        if block is not None:
            write_csv(out / f"check_{tag}.csv", ["t", "lhs", "rhs", "ratio"],
                      [block.times, block.lhs, block.rhs, block.ratio])
            ratio_blocks[tag] = block
        (out / f"check_{tag}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
    return [result for result, _ in runs], ratio_blocks


def run(cfg, out_dir, seed=None):
    """Run one experiment config; writes artifacts and returns the report."""
    g, u0, center, scfg, profile, seed = _setup(cfg, seed)
    out = Path(out_dir)
    traj = solver.solve_cauchy(g, u0, scfg, center=center)
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
    """Brute-force a Faber-Krahn table for the configured graph.

    ``seed`` is vetted as :func:`run` vets it; the table does not read it.
    """
    g, *_, profile, _ = _setup(cfg, seed)
    if cfg.get("profile", {}).get("kind") != "bruteforce":
        raise ConfigError("fk subcommand needs a profile of kind 'bruteforce'")
    if profile is None:
        profile = build_profile(cfg, g)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _simulate(task):
    cfg, out, seed = task
    return run(cfg, out, seed=seed)["pass"]


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
        _setup(_load_config(args.config))
        print("ok")
        return 0

    if args.command == "simulate":
        if args.jobs < 1:
            raise ConfigError(f"--jobs: {args.jobs} is less than the minimum of 1")
        multi = len(args.config) > 1
        tasks = [(_load_config(path), _default_out(args, path, multi), args.seed)
                 for path in args.config]
        outs = [out for _, out, _ in tasks]
        shared = sorted({out for out in outs if outs.count(out) > 1})
        if shared:
            raise ConfigError(f"configs with the same file name would share the output "
                              f"directories {shared}")
        for path, (cfg, *_) in zip(args.config, tasks):
            errors = validate_config(cfg)
            if errors:
                raise ConfigError(f"{path}: {'; '.join(errors)}")
        if args.jobs > 1 and len(tasks) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=args.jobs) as ex:
                passes = list(ex.map(_simulate, tasks))
        else:
            passes = [_simulate(t) for t in tasks]
        return 0 if all(passes) else 1

    if args.command == "fk":
        cfg = _load_config(args.config)
        run_fk(cfg, _default_out(args, args.config), seed=args.seed)
        return 0

    if args.command == "verify":
        cfg = _load_config(args.config)
        g, *_, profile, _ = _setup(cfg, args.seed)
        manifest = _read_manifest(Path(args.traj_dir), g)
        # the checks read the config's data and solver: they must be the run's
        stored = manifest[0]
        differ = [k for k in ("graph", "initial_data", "solver") if stored.get(k) != cfg.get(k)]
        if differ:
            raise ConfigError(f"{args.config} differs from the config of the run in "
                              f"{args.traj_dir} in: {', '.join(differ)}")
        traj = load_trajectory(args.traj_dir, g, manifest)
        out = Path(args.out or args.traj_dir)
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
