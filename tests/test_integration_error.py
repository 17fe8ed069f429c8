"""Integration error of the shipped configs, measured by refinement.

A certified trajectory has no truncation error; what remains is the error
of the time integration.  Its per-step estimate bounds only the local
error, so the measure here is a second solve of each shipped config at
``rtol / 100`` and ``atol / 100``.  The refined solve must give the same
verdicts on the same certified ball.  Each check number may move by at
most ``MARGIN`` times its change measured when the bound was set, plus
``FLOOR`` (relative); the per-instant sup-norm gap between the two solves,
relative to the sup norm at that instant, is the measured integration
error, bounded the same way.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import graphflow as gf
from graphflow import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MARGIN = 10.0
FLOOR = 1e-12

# relative changes at rtol / 100 (2 cores, Python 3.11, numpy 2.4); a check
# number not listed here did not move.  "gap" is the largest per-instant
# sup-norm gap over the sup norm at that instant.
MEASURED = {
    "lattice1d_p3_decay": {
        "decay_fit.slope": 2.04e-10, "decay_fit.stderr": 1.33e-08, "decay_fit.r2": 2.78e-12,
        "sup_decay_upper.verdict": 3.33e-10, "mass_lower.verdict": 1.78e-10,
        "moment_upper.verdict": 3.94e-12, "gradient_flux_upper.verdict": 8.57e-11,
        "gap": 1.09e-09},
    "lattice1d_p3_propagation": {"mass_lower.verdict": 3.75e-14, "gap": 7.40e-09},
    "lattice1d_p3_slow_decay": {
        "slow_decay_upper.verdict": 4.53e-14, "slow_decay_upper.fit.slope": 1.81e-12,
        "slow_decay_upper.fit.stderr": 4.18e-12, "slow_decay_upper.fit.r2": 5.55e-15,
        "gap": 8.56e-11},
    "lattice1d_p4_decay": {
        "decay_fit.slope": 7.72e-13, "decay_fit.stderr": 2.22e-09, "decay_fit.r2": 2.89e-15,
        "mass_lower.verdict": 6.18e-13, "gap": 2.15e-10},
    "lattice2d_p3_decay": {
        "decay_fit.slope": 4.47e-11, "decay_fit.stderr": 1.86e-09, "decay_fit.r2": 4.56e-14,
        "mass_lower.verdict": 1.97e-10, "gap": 2.86e-09},
}


def _flat(result, prefix):
    """The leaves of a check's JSON result, keyed by their path."""
    for key, value in result.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}.{key}")
        else:
            yield f"{prefix}.{key}", value


def _solve_and_check(cfg):
    g, u0, center, scfg, profile, _ = cli._setup(cfg)
    traj = gf.solve_cauchy(g, u0, scfg, center=center)
    leaves = {}
    for chk in cfg["checks"]:
        result, _ = cli._run_one_check(chk, traj, profile, cfg)
        leaves.update(_flat(result, result["tag"]))
    return traj, leaves


def sup_gaps(a, b):
    """Per-row sup-norm gaps of values on two concentric balls, one a prefix of the other."""
    width = max(a.shape[1], b.shape[1])
    return np.abs(np.pad(a, [(0, 0), (0, width - a.shape[1])])
                  - np.pad(b, [(0, 0), (0, width - b.shape[1])])).max(axis=1)


def _bound(name, key):
    return MARGIN * MEASURED[name].get(key, 0.0) + FLOOR


@pytest.mark.parametrize("name", sorted(MEASURED))
def test_refined_solve_keeps_the_verdicts(name):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    fine_cfg = json.loads(json.dumps(cfg))
    solver_cfg = fine_cfg["solver"]
    solver_cfg["rtol"] = solver_cfg.get("rtol", 1e-8) / 100
    solver_cfg["atol"] = solver_cfg.get("atol", 1e-12) / 100
    traj, checks = _solve_and_check(cfg)
    fine, fine_checks = _solve_and_check(fine_cfg)
    assert fine.certified_radius == traj.certified_radius
    assert fine_checks.keys() == checks.keys()
    for key, value in checks.items():
        if isinstance(value, float):
            move = abs(fine_checks[key] - value)
            assert move <= _bound(name, key) * abs(value), (key, value, fine_checks[key])
        else:   # verdicts, point counts, windows
            assert fine_checks[key] == value, key
    error = sup_gaps(traj.values, fine.values) / traj.sup_norms   # the measured error
    print(f"{name}: integration error (sup gap / sup at rtol/100) max {error.max():.2e} "
          f"at t = {traj.times[error.argmax()]:.4g}")
    assert error.max() <= _bound(name, "gap")
