import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import graphflow as gf
from graphflow import cli, solver

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def tiny_config(**overrides):
    cfg = {
        "graph": {"family": "lattice", "N": 1},
        "initial_data": {"kind": "delta", "center": [0], "amplitude": 1.0},
        "solver": {"p": 3.0, "t_min": 0.01, "t_max": 20.0, "num_instants": 55,
                   "rtol": 1e-8, "atol": 1e-12, "n0": 8},
        "profile": {"kind": "lattice", "c0": 1.0},
        "checks": [
            {"type": "decay_fit", "window": [0.5, 20],
             "theoretical_slope": -0.25, "tolerance": 0.15},
            {"type": "sup_bound", "window": [0.5, 20]},
            {"type": "lower_bound"},
        ],
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


def test_validate_good_config():
    assert cli.validate_config(tiny_config()) == []


def test_validate_rejects_unknown_key():
    cfg = tiny_config()
    cfg["grpah"] = {}
    errors = cli.validate_config(cfg)
    assert errors and any("grpah" in e for e in errors)


def test_validate_rejects_p_two():
    cfg = tiny_config()
    cfg["solver"]["p"] = 2.0
    errors = cli.validate_config(cfg)
    assert errors and any("solver/p" in e for e in errors)


def test_validate_requires_seed_for_randomized_profile():
    cfg = tiny_config(profile={"kind": "bruteforce", "size_cap": 2})
    del cfg["seed"]
    errors = cli.validate_config(cfg)
    assert any("seed" in e for e in errors)


def test_validate_cross_field_rules():
    cfg = tiny_config()
    del cfg["graph"]["N"]
    assert any("requires N" in e for e in cli.validate_config(cfg))
    cfg2 = tiny_config(checks=[{"type": "slow_decay", "q": 4.0}])
    assert any("power_law" in e for e in cli.validate_config(cfg2))


def test_run_writes_artifacts(tmp_path):
    report = cli.run(tiny_config(), tmp_path / "out")
    out = tmp_path / "out"
    for name in ["manifest.json", "report.json", "trajectory.csv",
                 "plotdata.csv", "check_decay_fit.json",
                 "check_sup_decay_upper.csv", "check_mass_lower.json"]:
        assert (out / name).exists(), name
    assert report["pass"]
    assert "decay_slope" in report
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == report["config_hash"]
    assert manifest["certified"]


def _tree_bytes(root):
    """Every file under ``root`` by relative path, with its bytes."""
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(Path(root).rglob("*")) if f.is_file()}


def test_run_deterministic_bytes(tmp_path):
    cli.run(tiny_config(snapshots=True), tmp_path / "a")
    cli.run(tiny_config(snapshots=True), tmp_path / "b")
    a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    for name in ["manifest.json", "report.json", "trajectory.csv", "plotdata.csv",
                 "check_sup_decay_upper.csv", "check_sup_decay_upper.json",
                 "check_decay_fit.json", "check_mass_lower.json", "fields/t_0000.csv"]:
        assert name in a, name
    assert a == b


def test_simulate_jobs_matches_serial_bytes(tmp_path):
    decay = tiny_config()
    slow = tiny_config(checks=[{"type": "entropy_bound", "window": [0.5, 20]}])
    slow["solver"]["p"] = 4.0
    paths = []
    for name, cfg in (("decay", decay), ("p4", slow)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    args = ["simulate", "--config", *map(str, paths)]
    assert cli.main([*args, "--out", str(tmp_path / "serial")]) == 0
    assert cli.main([*args, "--out", str(tmp_path / "pool"), "--jobs", "2"]) == 0
    serial = _tree_bytes(tmp_path / "serial")
    assert {"decay/manifest.json", "p4/check_gradient_flux_upper.json"} <= serial.keys()
    assert _tree_bytes(tmp_path / "pool") == serial


def test_run_rejects_invalid_config(tmp_path):
    cfg = tiny_config()
    cfg["solver"]["p"] = 2.0
    with pytest.raises(cli.ConfigError):
        cli.run(cfg, tmp_path / "out")


def test_main_validate_config(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(tiny_config()))
    assert cli.main(["validate-config", str(path)]) == 0
    bad = tiny_config()
    bad["solver"]["p"] = 2.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert cli.main(["validate-config", str(bad_path)]) == 2
    err = capsys.readouterr().err
    assert "solver/p" in err


def test_main_simulate_and_fit_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    capsys.readouterr()
    assert cli.main(["fit", "--traj-dir", str(out), "--window", "0.5", "20"]) == 0
    fit = json.loads(capsys.readouterr().out)
    # pure recomputation from the stored CSV reproduces the report slope
    assert abs(fit["slope"] - report["decay_slope"]) <= 1e-12


def test_main_fk_subcommand(tmp_path):
    out = tmp_path / "fk"
    assert cli.main(["fk", "--config", str(CONFIG_DIR / "fk_lattice1d.json"),
                     "--out", str(out)]) == 0
    table = (out / "fk_profile.csv").read_text().splitlines()
    assert table[0] == "v,lambda"
    assert table[1] == "2,2"  # singleton entry (v, lambda) = (2, 2)


def test_main_verify_subcommand(tmp_path):
    cfg = tiny_config(snapshots=True)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    vout = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg_path), "--traj-dir", str(out),
                     "--out", str(vout)]) == 0
    assert (vout / "check_sup_decay_upper.json").exists()


@pytest.fixture(scope="module")
def verified_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("verified_run")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(snapshots=True)))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return cfg_path, root / "run"


def _edit_manifest(run, edit):
    manifest = json.loads((run / "manifest.json").read_text())
    edit(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))


def _no_fields(run):
    shutil.rmtree(run / "fields")


def _vertex_outside_the_ball(run):
    with open(run / "fields" / "t_0000.csv", "a") as f:
        f.write("1000,0.5\n")


@pytest.mark.parametrize("damage, message", [
    (lambda run: shutil.rmtree(run), "cannot read the manifest"),
    (lambda run: _edit_manifest(run, lambda m: m.pop("certified_radius")),
     "lacks key 'certified_radius'"),
    (lambda run: _edit_manifest(run, lambda m: m.update(certified_radius=None)),
     "has no certified radius"),
    (_no_fields, "no field snapshots"),
    (_vertex_outside_the_ball, "outside the certified ball"),
    (lambda run: _edit_manifest(run, lambda m: m["config"]["solver"].pop("t_min")),
     "lacks key 't_min'"),
], ids=["missing_dir", "missing_key", "null_radius", "no_fields", "vertex_outside_ball",
        "no_t_min"])
def test_verify_bad_trajectory_dir_exits_2(tmp_path, capsys, monkeypatch, verified_run,
                                           damage, message):
    cfg_path, run = verified_run
    traj_dir = tmp_path / "run"
    shutil.copytree(run, traj_dir)
    damage(traj_dir)
    if damage is _no_fields:   # the directory is judged before any ball is built

        def no_ball(*args):
            raise AssertionError("ball built before the snapshots were found")
        monkeypatch.setattr(cli, "ball", no_ball)
    assert cli.main(["verify", "--config", str(cfg_path), "--traj-dir", str(traj_dir),
                     "--out", str(tmp_path / "verify")]) == 2
    assert message in capsys.readouterr().err


def test_main_missing_config_is_usage_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("edit", [
    lambda cfg, nope: cfg.update(initial_data={"kind": "file", "path": nope}),
    lambda cfg, nope: cfg.update(graph={"family": "custom", "adjacency_file": nope},
                                 initial_data={"kind": "delta", "center": "a"}),
    lambda cfg, nope: cfg.update(profile={"kind": "tabulated", "path": nope}),
], ids=["initial_data_file", "adjacency_file", "tabulated_profile"])
def test_main_missing_input_file_exits_2(tmp_path, capsys, edit):
    cfg = tiny_config()
    edit(cfg, str(tmp_path / "nope.csv"))
    assert cli.validate_config(cfg) == []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [0, 1])
def test_main_fit_on_too_few_rows_exits_2(tmp_path, capsys, rows):
    lines = ["t,mass,sup"] + ["0.5,1,0.25"] * rows
    (tmp_path / "trajectory.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["fit", "--traj-dir", str(tmp_path)]) == 2
    assert "usable instants" in capsys.readouterr().err


def test_main_check_failure_exit_code(tmp_path):
    cfg = tiny_config(checks=[{"type": "decay_fit", "window": [0.5, 20],
                               "theoretical_slope": 1.0, "tolerance": 0.01}])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1


def test_main_solver_failure_exit_code(tmp_path):
    cfg = tiny_config()
    cfg["solver"]["eps_trunc"] = 1e-300
    cfg["solver"]["max_expansions"] = 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("solver_cfg,checks", [
    # overflowing data: the initial step cannot be sized
    ({"p": 12.0, "t_min": 0.01, "t_max": 1.0, "num_instants": 5}, []),
])
def test_main_typed_solver_failures_exit_3(tmp_path, capsys, solver_cfg, checks):
    cfg = tiny_config(solver=solver_cfg, checks=checks)
    if solver_cfg["p"] == 12.0:
        cfg["initial_data"]["amplitude"] = 1e25
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_main_eps_below_float_resolution_exits_2(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1: no truncation could ever hold the whole mass
    cfg = tiny_config(checks=[{"type": "propagation_fit", "eps": 1e-17,
                               "window": [0.5, 20]}])
    assert any("propagation_fit eps" in e for e in cli.validate_config(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg["checks"][0]["eps"] = 2.0 ** -52
    assert cli.validate_config(cfg) == []


@pytest.mark.parametrize("key,value", [("delta_boundary", -1.0), ("eps_trunc", 0.0)])
def test_main_nonpositive_truncation_threshold_exits_2(tmp_path, capsys, key, value):
    # a negative leak threshold would make every stage leak until the cap
    cfg = tiny_config()
    cfg["solver"][key] = value
    assert any(key in e for e in cli.validate_config(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg["solver"][key] = None
    assert cli.validate_config(cfg) == []


def test_run_deficit_retry_reruns_every_check(tmp_path, monkeypatch):
    seen = []          # (check type, trajectory) per check call
    real_check = cli._run_one_check

    def check(chk, traj, profile, cfg):
        seen.append((chk["type"], traj))
        if len(seen) == 2:   # the second check on the first trajectory
            raise solver.TruncationDeficitError("forced")
        return real_check(chk, traj, profile, cfg)

    configs = []
    real_solve = solver.solve_cauchy

    def solve(g, u0, scfg, center=None):
        configs.append(scfg)
        return real_solve(g, u0, scfg, center=center)

    real_build = cli.build_solver_config
    monkeypatch.setattr(cli, "build_solver_config",
                        lambda s: dataclasses.replace(real_build(s), max_steps=54321))
    monkeypatch.setattr(cli, "_run_one_check", check)
    monkeypatch.setattr(solver, "solve_cauchy", solve)
    cfg = tiny_config()
    report = cli.run(cfg, tmp_path / "out")
    first, final = seen[0][1], seen[-1][1]
    assert final is not first
    assert [typ for typ, _ in seen[2:]] == [c["type"] for c in cfg["checks"]]
    assert all(traj is final for _, traj in seen[2:])
    assert len(report["checks"]) == len(cfg["checks"]) and report["pass"]
    assert configs[1].n0 == 2 * first.region.radius
    assert configs[1].max_steps == 54321
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["certified_radius"] == final.certified_radius
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert int(rows[1].split(",")[6]) == final.region.radius


def test_run_product_graph_family(tmp_path):
    cfg = tiny_config(
        graph={"family": "product", "N": 1,
               "H": {"edges": [["a", "b", 1.0]]}},
        initial_data={"kind": "delta", "center": [0, 0], "amplitude": 1.0},
        profile={"kind": "bruteforce", "size_cap": 2},
        checks=[{"type": "lower_bound"}])
    report = cli.run(cfg, tmp_path / "out")
    assert report["pass"]


def test_run_custom_graph_family(tmp_path):
    # small cycle as an adjacency file; string vertex ids throughout
    path = tmp_path / "cycle.txt"
    path.write_text("a b 1\nb c 1\nc d 1\nd a 1\n")
    cfg = tiny_config(
        graph={"family": "custom", "adjacency_file": str(path)},
        initial_data={"kind": "delta", "center": "a", "amplitude": 1.0},
        solver={"p": 3.0, "t_min": 0.01, "t_max": 5.0, "num_instants": 12,
                "n0": 2, "max_expansions": 3},
        profile={"kind": "bruteforce", "size_cap": 2},
        checks=[])
    report = cli.run(cfg, tmp_path / "out")
    assert report["certified"]
    # finite graph: the whole cycle fits in B_2 and mass is conserved
    traj_csv = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    masses = [float(r.split(",")[1]) for r in traj_csv[1:]]
    assert abs(masses[-1] - masses[0]) <= 1e-8 * masses[0]


def test_shipped_configs_validate():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(path.read_text())
        assert cli.validate_config(cfg) == [], path.name


def test_config_hash_stable():
    h1 = cli.config_hash(tiny_config())
    h2 = cli.config_hash(json.loads(json.dumps(tiny_config())))
    assert h1 == h2 and len(h1) == 64


def test_trajectory_export_and_load_round_trip(tmp_path):
    z1 = gf.lattice_generator(1)
    cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(0.1, 10.0, 9), n0=8)
    traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)
    outdir = tmp_path / "t"
    cli.export_trajectory(traj, outdir, snapshots=True)
    manifest = {
        "config": {"solver": {"p": 3.0, "t_min": 0.1, "t_max": 10.0,
                              "num_instants": 9}},
        "center": "0",
        "certified": traj.certified,
        "certified_radius": traj.certified_radius,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    again = cli.load_trajectory(outdir, z1)
    assert np.array_equal(again.values, traj.values)
    assert again.region.vertices == traj.region.vertices


def test_slow_decay_horizon_past_the_balance_time_exits_2(tmp_path, capsys, monkeypatch):
    # T(1) = 666 for this data: instants past it have no balance radius in the support
    cfg = tiny_config(
        initial_data={"kind": "power_law", "alpha": 0.5, "truncation_radius": 1,
                      "center": [0]},
        checks=[{"type": "slow_decay", "q": 4.0, "window": [10, 1000]}])
    cfg["solver"]["t_max"] = 1000.0
    assert any("slow_decay needs t_max" in e for e in cli.validate_config(cfg))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that validation rejects")
    monkeypatch.setattr(solver, "solve_cauchy", no_solve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "slow_decay needs t_max" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a brute-forced profile is tested once built, still before the solve
    brute = dict(cfg, profile={"kind": "bruteforce", "size_cap": 2})
    assert cli.validate_config(brute) == []
    with pytest.raises(cli.ConfigError, match="slow_decay needs t_max"):
        cli.run(brute, tmp_path / "brute")
    assert not (tmp_path / "brute").exists()
    cfg["solver"]["t_max"] = 600.0
    assert cli.validate_config(cfg) == []


def test_run_verifies_the_profile_once(tmp_path, monkeypatch):
    calls = []
    real = gf.faberkrahn.check_assumptions

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(gf.faberkrahn, "check_assumptions", counted)
    cfg = json.loads((CONFIG_DIR / "lattice1d_p3_decay.json").read_text())
    assert sum(c["type"] in cli._PROFILE_CHECKS for c in cfg["checks"]) == 3
    cli.run(cfg, tmp_path / "out")
    assert len(calls) == 1


def _broken_profile_file(tmp_path):
    # a lattice power law with one bump: not v^(-p/N)/Lambda nondecreasing
    vs = np.geomspace(1e-2, 1e4, 120)
    lams = vs ** -3.0
    lams[60] *= 4.0
    path = tmp_path / "bump.csv"
    path.write_text(gf.FkProfile.tabulated(list(zip(vs, lams)), 3.0, 1).to_csv_text())
    return path


def test_verify_rejects_a_broken_profile_without_writing(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(tiny_config(snapshots=True)))
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(good), "--out", str(run)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(
        profile={"kind": "tabulated", "path": str(_broken_profile_file(tmp_path))},
        checks=[{"type": "sup_bound", "window": [0.5, 20]}])))
    vout = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(bad), "--traj-dir", str(run),
                     "--out", str(vout)]) == 2
    assert "structural assumptions" in capsys.readouterr().err
    assert not vout.exists()


@pytest.mark.parametrize("family", ["product", "custom"])
def test_non_lattice_family_requires_a_center(tmp_path, capsys, family):
    # the default center is the lattice origin, which these graphs lack
    if family == "product":
        graph = {"family": "product", "N": 1, "H": {"edges": [["a", "b", 1.0]]}}
        profile = {"kind": "lattice", "c0": 1.0}
    else:
        adjacency = tmp_path / "cycle.txt"
        adjacency.write_text("a b 1\nb c 1\nc d 1\nd a 1\n")
        graph = {"family": "custom", "adjacency_file": str(adjacency)}
        profile = {"kind": "bruteforce", "size_cap": 2}   # centered at the data
    cfg = tiny_config(graph=graph, profile=profile, checks=[])
    del cfg["initial_data"]
    assert any("requires a center" in e for e in cli.validate_config(cfg))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "requires a center" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
