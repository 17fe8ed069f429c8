import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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


def test_importing_the_cli_leaves_out_jsonschema_and_multiprocessing(tmp_path):
    # validating and running a config loads no third-party module but numpy,
    # the one runtime dependency: jsonschema is only the tests' schema oracle,
    # and multiprocessing loads only for simulate --jobs
    cfg = json.dumps(tiny_config())
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from graphflow import cli\n"
        f"cfg = json.loads({cfg!r})\n"
        "assert cli.validate_config(cfg) == [] and cli.validate_config({'graph': {}})\n"
        "assert cli.run(cfg, 'run')['pass']\n"
        "print(sorted(m for m in ('jsonschema', 'multiprocessing') if m in sys.modules))\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'graphflow'}))\n")
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["[]", "['numpy']"]
    pyproject = (CONFIG_DIR.parent / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)[1]
    assert re.findall(r'"([\w.-]+)', dependencies) == ["numpy"]


SHIPPED_CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 10) | st.integers(-2, 10).map(float)
            | st.floats() | st.just(float("nan")) | st.sampled_from(["", "0", "delta", "x"]))
_KEYS = st.sampled_from(["kind", "family", "N", "type", "window", "edges", "unknown"])
# a replacement: null, bool, int, integral float, float, NaN, string, list or dict
_JSON_VALUES = _SCALARS | st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                                       | st.dictionaries(_KEYS, inner, max_size=3),
                                       max_leaves=6)


def _slots(doc):
    """Every (container, key) pair under the JSON document ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _mutate(doc, data):
    """Replace a value, delete a key or add an unknown key, as ``data`` draws."""
    slots = list(_slots(doc))
    edit = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if edit == "replace":
        parent, key = data.draw(st.sampled_from(slots))
        parent[key] = data.draw(_JSON_VALUES)
        return
    dicts = [doc] + [parent[key] for parent, key in slots if isinstance(parent[key], dict)]
    parent = data.draw(st.sampled_from(dicts))
    if edit == "add":
        parent["unknown"] = data.draw(_JSON_VALUES)
    elif parent:
        del parent[data.draw(st.sampled_from(sorted(parent)))]


def _assert_schema_errors_match_jsonschema(cfg):
    # the in-house checker against the reference validator, error by error,
    # in its order and with its words
    reference = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA).iter_errors(cfg)
    assert list(cli._schema_errors(cli.CONFIG_SCHEMA, cfg)) == [
        (tuple(e.absolute_path), e.validator, e.message) for e in reference]


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
@seed(20245)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_schema_errors_match_jsonschema(name, data):
    # up to three random edits of a shipped config
    cfg = json.loads(json.dumps(SHIPPED_CONFIGS[name]))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(cfg, data)
    _assert_schema_errors_match_jsonschema(cfg)


def _product(*edges):
    return {"family": "product", "N": 1, "H": {"edges": list(edges)}}


@pytest.mark.parametrize("cfg", [
    tiny_config(graph=_product()),
    tiny_config(graph=_product(["a", "b", 1.0, 2], [True, 1.5, 0], ["a"])),
    tiny_config(graph=_product(["a", 3, 2.0]), seed=20245.0),
    tiny_config(graph={"family": "lattice", "N": True}, seed=-1.0),
    tiny_config(profile={"kind": "bruteforce", "size_cap": 9}, seed=False),
    tiny_config(checks=[{"type": "propagation_fit", "eps": 1, "window": [0.5, 20, 30]},
                        {"type": "moment_bound", "alpha": 1.0, "window": []},
                        {"type": "slow_decay", "q": 1, "window": [0, "1"]}]),
    tiny_config(initial_data={"kind": "power_law", "alpha": float("nan"),
                              "truncation_radius": 0, "center": {}}),
], ids=["no_edges", "bad_edges", "integral_floats", "bool_N", "size_cap", "check_bounds",
        "power_law"])
def test_schema_errors_match_jsonschema_at_the_bounds(cfg):
    _assert_schema_errors_match_jsonschema(cfg)


@pytest.mark.parametrize("schema", [{"type": "string", "pattern": "^a"},
                                    {"type": "object", "additionalProperties": {}},
                                    {"uniqueItems": True}])
def test_schema_errors_raise_on_an_unsupported_keyword(schema):
    with pytest.raises(ValueError, match="is not supported"):
        list(cli._schema_errors(schema, "b"))


def test_validate_rejects_unknown_key():
    cfg = tiny_config()
    cfg["grpah"] = {}
    errors = cli.validate_config(cfg)
    assert errors and any("grpah" in e for e in errors)


def test_validate_rejects_output_dir(tmp_path):
    # the run directory comes from --out or GRAPHFLOW_OUT, never from the config
    cfg = tiny_config(output_dir="elsewhere")
    errors = cli.validate_config(cfg)
    assert errors and any("output_dir" in e for e in errors)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not (tmp_path / "elsewhere").exists()


def test_validate_rejects_p_two():
    cfg = tiny_config()
    cfg["solver"]["p"] = 2.0
    errors = cli.validate_config(cfg)
    assert errors and any("solver/p" in e for e in errors)


def test_fk_runs_with_no_seed_key(tmp_path):
    # no computation is randomized, so no config needs a seed
    cfg = json.loads((CONFIG_DIR / "fk_lattice1d.json").read_text())
    del cfg["seed"]
    assert cli.validate_config(cfg) == []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "fk"
    assert cli.main(["fk", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "fk_profile.csv").read_text().splitlines()[:2] == ["v,lambda", "2,2"]


def test_fk_tables_do_not_depend_on_the_seed(tmp_path):
    tables = []
    for value in ("1", "2"):
        out = tmp_path / value
        assert cli.main(["fk", "--config", str(CONFIG_DIR / "fk_lattice1d.json"),
                         "--out", str(out), "--seed", value]) == 0
        tables.append((out / "fk_profile.csv").read_bytes())
    assert tables[0] == tables[1]


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
    # the output contract: a change to either is deliberate
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == ("t,mass,sup,lq1.5,lq2,lq4,radius,"
                      "accepted,rejected,max_scaled_error,clamped")
    assert manifest["expansion_history"]
    for record in manifest["expansion_history"]:
        assert record.keys() == {"n", "vertices", "edges", "t", "rhs_evals", "accepted",
                                 "rejected", "redone", "unknowns", "active_vertices"}


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_simulate_rejects_jobs_below_one(tmp_path, capsys, jobs):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out), "--jobs", jobs]) == 2
    assert f"--jobs: {jobs} is less than the minimum of 1" in capsys.readouterr().err
    assert not out.exists()


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
    # a column the CSV no longer has is a usage error
    assert cli.main(["fit", "--traj-dir", str(out), "--column", "boundary_sup"]) == 2


def test_main_fk_subcommand(tmp_path):
    out = tmp_path / "fk"
    assert cli.main(["fk", "--config", str(CONFIG_DIR / "fk_lattice1d.json"),
                     "--out", str(out)]) == 0
    table = (out / "fk_profile.csv").read_text().splitlines()
    assert table[0] == "v,lambda"
    assert table[1] == "2,2"  # singleton entry (v, lambda) = (2, 2)


def test_an_integral_float_seed_runs_as_its_int(tmp_path):
    # 20245.0 is a JSON Schema integer, so it validates, and the run
    # records it as the int 20245
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config(seed=20245.0)))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    for name in ("report.json", "manifest.json"):
        recorded = json.loads((out / name).read_text())["seed"]
        assert recorded == 20245 and type(recorded) is int, name


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


SIMULATE_CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.json")
                          if "checks" in json.loads(p.read_text()))


@pytest.mark.parametrize("name", SIMULATE_CONFIGS)
def test_verify_writes_the_check_json_of_the_direct_run(tmp_path, name):
    # the stored trajectory is read back on the orbit rows the solve kept,
    # in their layout, so every check number and every ratio column comes
    # from the same sums, bit for bit (the vertex sum of the moment too)
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    cli.run(dict(cfg, snapshots=True), tmp_path / "run")
    vout = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg_path), "--traj-dir",
                     str(tmp_path / "run"), "--out", str(vout)]) == 0
    direct, verified = ({p.name: p.read_bytes() for p in sorted(d.glob("check_*.json"))}
                        for d in (tmp_path / "run", vout))
    assert direct and verified == direct
    direct, verified = ({p.name: p.read_bytes() for p in sorted(d.glob("check_*.csv"))}
                        for d in (tmp_path / "run", vout))
    assert verified == direct


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
    (lambda run: _edit_manifest(run, lambda m: m.update(certified=False)),
     "not of a certified run"),
    (lambda run: _edit_manifest(run, lambda m: m.update(certified_radius=True)),
     "has no certified radius: True"),
], ids=["missing_dir", "missing_key", "null_radius", "no_fields", "vertex_outside_ball",
        "no_t_min", "uncertified", "bool_radius"])
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


def _set_solver(manifest, value):
    manifest["config"]["solver"] = value


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(center=3), "center: 3 is not of type 'string'"),
    (lambda m: m["config"]["solver"].update(t_min="0.01"),
     "config/solver/t_min: '0.01' is not of type 'number'"),
    (lambda m: _set_solver(m, [0.01, 20.0]),
     "config/solver: [0.01, 20.0] is not of type 'object'"),
    (lambda m: m.update(config=None), "config: None is not of type 'object'"),
], ids=["numeric_center", "string_t_min", "solver_list", "null_config"])
def test_verify_a_malformed_manifest_exits_2(tmp_path, capsys, verified_run, edit, message):
    # a check that fails exits 1: a manifest the run could not have written
    # is a config error, from verify and from load_trajectory alone
    cfg_path, run = verified_run
    traj_dir = tmp_path / "run"
    shutil.copytree(run, traj_dir)
    _edit_manifest(traj_dir, edit)
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg_path), "--traj-dir", str(traj_dir),
                     "--out", str(out)]) == 2
    assert f"is malformed: {message}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(cli.ConfigError, match=re.escape(message)):
        cli.load_trajectory(traj_dir, gf.lattice_generator(1))


@pytest.mark.parametrize("section, key, value", [("solver", "p", 4.0),
                                                 ("initial_data", "amplitude", 5.0)])
def test_verify_refuses_the_run_of_another_config(tmp_path, capsys, verified_run,
                                                  section, key, value):
    # the checks would read this config's exponent or mass against a
    # trajectory solved for another
    cfg_path, run = verified_run
    cfg = json.loads(cfg_path.read_text())
    cfg[section][key] = value
    other = tmp_path / "other.json"
    other.write_text(json.dumps(cfg))
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(other), "--traj-dir", str(run),
                     "--out", str(out)]) == 2
    assert f"of the run in {run} in: {section}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fk", "verify"])
def test_a_negative_seed_is_a_config_error(tmp_path, capsys, verified_run, command):
    cfg_path, run = verified_run
    if command == "fk":
        cfg_path = CONFIG_DIR / "fk_lattice1d.json"
    extra = ["--traj-dir", str(run)] if command == "verify" else []
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out), *extra,
                     "--seed", "-3"]) == 2
    assert "--seed: -3 is less than the minimum of 0" in capsys.readouterr().err
    assert not out.exists()


def test_main_missing_config_is_usage_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("edit", [
    lambda cfg, nope: cfg.update(initial_data={"kind": "file", "path": nope}),
    lambda cfg, nope: cfg.update(graph={"family": "custom", "adjacency_file": nope},
                                 initial_data={"kind": "delta", "center": "a"}),
], ids=["initial_data_file", "adjacency_file"])
def test_main_missing_input_file_exits_2(tmp_path, capsys, edit):
    cfg = tiny_config()
    edit(cfg, str(tmp_path / "nope.csv"))
    assert cli.validate_config(cfg) == []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert "nope.csv" in capsys.readouterr().err
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "nope.csv" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [0, 1])
def test_main_fit_on_too_few_rows_exits_2(tmp_path, capsys, rows):
    lines = ["t,mass,sup"] + ["0.5,1,0.25"] * rows
    (tmp_path / "trajectory.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["fit", "--traj-dir", str(tmp_path)]) == 2
    assert "usable instants" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_main_configs_sharing_an_output_directory_exit_2(tmp_path, capsys, jobs):
    # a/x.json and b/x.json would both write <out>/x
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.json")
        paths[-1].write_text(json.dumps(tiny_config()))
    assert cli.main(["simulate", "--config", *map(str, paths), "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "share the output" in err
    assert not (tmp_path / "out").exists()   # no run started


def test_run_lower_bound_reads_its_window(tmp_path):
    cfg = tiny_config(checks=[{"type": "lower_bound", "window": [2.0, 20.0]}])
    cli.run(cfg, tmp_path / "out")
    result = json.loads((tmp_path / "out" / "check_mass_lower.json").read_text())
    assert result["window"] == [2.0, 20.0]
    rows = np.loadtxt(tmp_path / "out" / "check_mass_lower.csv", delimiter=",",
                      skiprows=1)
    t, ratio = rows[:, 0], rows[:, 3]
    inside = (t >= 2.0) & (t <= 20.0)
    # delta data: no instant is excluded, so the verdict is the window's minimum
    assert result["verdict"] == ratio[inside].min() > ratio.min()


def test_main_check_failure_exit_code(tmp_path):
    cfg = tiny_config(checks=[{"type": "decay_fit", "window": [0.5, 20],
                               "theoretical_slope": 1.0, "tolerance": 0.01}])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1


def test_main_solver_failure_exit_code(tmp_path):
    # the solution reaches the ring of B_8 before t = 20, and no second ball may be used
    cfg = tiny_config()
    cfg["solver"]["max_expansions"] = 1
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


@pytest.mark.parametrize("window", [[20, 0.5], [1, 1], [float("nan"), 20]])
def test_a_reversed_check_window_exits_2_before_the_solve(tmp_path, capsys, monkeypatch,
                                                          window):
    cfg = tiny_config(checks=[{"type": "decay_fit"},
                              {"type": "sup_bound", "window": window}])
    assert cli.validate_config(cfg) == [
        f"checks: sup_bound window {window!r} needs window[0] < window[1]"]

    def solve(*args, **kwargs):
        raise AssertionError("solved a config that does not validate")

    monkeypatch.setattr(solver, "solve_cauchy", solve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "needs window[0] < window[1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, value", [
    ("checks/0/tolerance", float("nan")), ("checks/0/theoretical_slope", float("nan")),
    ("checks/1/max_stability", float("nan")), ("solver/t_max", float("inf")),
    ("solver/atol", float("inf")), ("solver/rtol", float("nan")),
    ("checks/1/window/1", float("inf")), ("initial_data/amplitude", float("inf")),
])
def test_a_non_finite_number_exits_2_before_the_solve(tmp_path, capsys, monkeypatch,
                                                       path, value):
    # Python's json reads NaN and Infinity, and both pass every schema bound
    cfg = tiny_config()
    *keys, last = [int(k) if k.isdigit() else k for k in path.split("/")]
    target = cfg
    for key in keys:
        target = target[key]
    target[last] = value
    assert cli.validate_config(cfg) == [f"{path}: {value!r} is not a finite number"]

    def solve(*args, **kwargs):
        raise AssertionError("solved a config that does not validate")

    monkeypatch.setattr(solver, "solve_cauchy", solve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{path}: {value!r} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


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
    cfg["checks"][0]["eps"] = 2.0 ** -48   # above the first ball's floor 17 * 2^-53
    assert cli.validate_config(cfg) == []
    cli._setup(cfg)


def test_main_eps_within_the_first_balls_rounding_exits_2(tmp_path, capsys):
    # every ball the solve can end on contains B_8, whose mass sums round at
    # |B_8| 2^-53 = 1.9e-15: mass_radius would reject eps = 2^-52 after the
    # solve, so the set-up rejects it before, and no output directory is made
    cfg = tiny_config(checks=[{"type": "propagation_fit", "eps": 2.0 ** -52,
                               "window": [0.5, 20]}])
    with pytest.raises(cli.ConfigError,
                       match=r"^checks: propagation_fit eps [^;]*17 vertices of the first "
                             r"ball B_8$"):
        cli._setup(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
    assert "propagation_fit eps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # without n0 the first ball is B_{support radius + 8}: 19 vertices here
    del cfg["solver"]["n0"]
    cfg["initial_data"] = {"kind": "ball_indicator", "center": [0], "radius": 1}
    cfg["checks"][0]["eps"] = 19 * 2.0 ** -53
    with pytest.raises(cli.ConfigError, match="19 vertices of the first ball B_9"):
        cli._setup(cfg)
    cfg["checks"][0]["eps"] = 20 * 2.0 ** -53
    cli._setup(cfg)


def test_main_eps_within_the_certified_balls_rounding_leaves_no_output(tmp_path, capsys):
    # eps 4e-15 clears the first ball's floor |B_8| 2^-53 = 1.9e-15, so it
    # validates; the solve ends on B_18, whose floor 37 * 2^-53 = 4.1e-15
    # mass_radius rejects.  Only the solve knows the certified radius, so the
    # error comes after it, but every check runs before the output directory
    # is made
    cfg = tiny_config(checks=[{"type": "decay_fit", "window": [0.5, 20]},
                              {"type": "propagation_fit", "eps": 4e-15,
                               "window": [0.5, 20]}])
    assert cli.validate_config(cfg) == []
    cli._setup(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "37 vertices" in capsys.readouterr().err
    assert not out.exists()


def test_run_deficit_exits_3_after_one_solve(tmp_path, monkeypatch, capsys):
    # a certified ball loses no mass through its ring, so a larger one would
    # not help: a deficit is a solver failure, with no second solve
    real_check = cli._run_one_check
    seen = []

    def check(chk, traj, profile, cfg):
        seen.append(chk["type"])
        if len(seen) == 2:
            raise solver.TruncationDeficitError("forced")
        return real_check(chk, traj, profile, cfg)

    solves = []
    real_solve = solver.solve_cauchy

    def solve(g, u0, scfg, center=None):
        solves.append(scfg)
        return real_solve(g, u0, scfg, center=center)

    monkeypatch.setattr(cli, "_run_one_check", check)
    monkeypatch.setattr(solver, "solve_cauchy", solve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 3
    assert "solver failure: forced" in capsys.readouterr().err
    assert len(solves) == 1 and len(seen) == 2


def test_run_product_graph_family(tmp_path):
    cfg = tiny_config(
        graph={"family": "product", "N": 1,
               "H": {"edges": [["a", "b", 1.0]]}},
        initial_data={"kind": "delta", "center": [0, 0], "amplitude": 1.0},
        profile={"kind": "bruteforce", "size_cap": 2},
        checks=[{"type": "lower_bound"}])
    report = cli.run(cfg, tmp_path / "out")
    assert report["pass"]


def test_run_custom_graph_family(tmp_path, monkeypatch):
    # small cycle as an adjacency file; string vertex ids throughout; no check
    # reads the profile, so none is brute-forced
    monkeypatch.setattr(gf.faberkrahn, "fk_profile_bruteforce", _no_brute_force)
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
    # the ball covers the cycle, so there is no ring and one stage certifies
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [h["n"] for h in manifest["expansion_history"]] == [2]
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
    with pytest.raises(cli.ConfigError, match="slow_decay needs t_max"):
        cli._setup(cfg)

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
    cfg["solver"]["t_max"] = 600.0
    cli._setup(cfg)


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


def test_verify_rejects_a_broken_profile_without_writing(tmp_path, capsys, monkeypatch,
                                                         verified_run):
    # a brute-forced table fails the assumptions sup_bound rests on
    _, run = verified_run
    monkeypatch.setattr(gf.faberkrahn, "fk_profile_bruteforce", _no_brute_force)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tiny_config(
        profile={"kind": "bruteforce", "size_cap": 2},
        checks=[{"type": "sup_bound", "window": [0.5, 20]}])))
    vout = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(bad), "--traj-dir", str(run),
                     "--out", str(vout)]) == 2
    assert "constant past its range" in capsys.readouterr().err
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


class _Solved(Exception):
    """Raised in place of the solve: the command got past its set-up."""


def _solve_raises_solved(*args, **kwargs):
    raise _Solved


def _power_law_past_the_balance_time(tmp_path):
    # T(1) = 666 for this data
    cfg = tiny_config(
        initial_data={"kind": "power_law", "alpha": 0.5, "truncation_radius": 1,
                      "center": [0]},
        checks=[{"type": "slow_decay", "q": 4.0, "window": [10, 1000]}])
    cfg["solver"]["t_max"] = 1000.0
    return cfg


def _slow_decay_on_a_brute_forced_profile(tmp_path):
    return dict(_power_law_past_the_balance_time(tmp_path),
                profile={"kind": "bruteforce", "size_cap": 2})


def _slow_decay_with_a_divergent_tail(tmp_path):
    # on Z^2 the lq tail of |x|^-1/2 data converges only for q > 4
    return tiny_config(
        graph={"family": "lattice", "N": 2},
        initial_data={"kind": "power_law", "alpha": 0.5, "truncation_radius": 1,
                      "center": [0, 0]},
        checks=[{"type": "slow_decay", "q": 4.0, "window": [1, 20]}])


def _tabulated_profile(tmp_path):
    # a profile kind the schema does not have
    return tiny_config(profile={"kind": "tabulated", "path": str(tmp_path / "dip.csv")},
                       checks=[{"type": "sup_bound", "window": [0.5, 20]}])


def _eps_at_the_first_balls_rounding(tmp_path):
    return tiny_config(checks=[{"type": "propagation_fit", "eps": 2.0 ** -52}])


def _missing_adjacency_file(tmp_path):
    return tiny_config(graph={"family": "custom", "adjacency_file": str(tmp_path / "no.txt")},
                       initial_data={"kind": "delta", "center": "a"},
                       profile={"kind": "bruteforce", "size_cap": 2},
                       checks=[{"type": "propagation_fit"}])


def _graph_file_with_weight(weight):
    def build(tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(f"a b 1\nb c {weight}\nc d 1\nd a 1\n")
        return tiny_config(graph={"family": "custom", "adjacency_file": str(path)},
                           initial_data={"kind": "delta", "center": "a"},
                           profile={"kind": "bruteforce", "size_cap": 2}, checks=[])
    return build


# configs that validate_config passes and the set-up rejects, once their
# inputs are built: name -> (config builder, what the error says)
SET_UP_ERRORS = {
    "slow_decay_horizon": (_power_law_past_the_balance_time, "slow_decay needs t_max"),
    "propagation_eps": (_eps_at_the_first_balls_rounding, "17 vertices of the first ball"),
    "missing_adjacency_file": (_missing_adjacency_file, "no.txt"),
    "nan_weight": (_graph_file_with_weight("nan"), "weight nan on edge 'b'-'c'"),
    "inf_weight": (_graph_file_with_weight("inf"), "weight inf on edge 'b'-'c'"),
}


# configs that validate_config itself rejects, with nothing built: name ->
# (config builder, what the error says)
CONFIG_ERRORS = {
    "slow_decay_bruteforce": (_slow_decay_on_a_brute_forced_profile,
                              "a brute-forced table is constant past its range"),
    "slow_decay_divergent_tail": (_slow_decay_with_a_divergent_tail,
                                  "slow_decay needs q > N/alpha = 4.0, else the lq tail"),
    "tabulated_sup_bound": (_tabulated_profile,
                            "'tabulated' is not one of ['lattice', 'bruteforce']"),
}


REJECTED = {**SET_UP_ERRORS, **CONFIG_ERRORS}


def _no_brute_force(*args, **kwargs):
    raise AssertionError("brute-forced a profile for a config validation rejects")


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_validate_config_and_simulate_exit_2_on_a_config_error(tmp_path, capsys, monkeypatch,
                                                               name):
    build, message = CONFIG_ERRORS[name]
    cfg = build(tmp_path)
    assert any(message in e for e in cli.validate_config(cfg))
    monkeypatch.setattr(gf.faberkrahn, "fk_profile_bruteforce", _no_brute_force)
    monkeypatch.setattr(solver, "solve_cauchy", _solve_raises_solved)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(SET_UP_ERRORS))
def test_validate_config_and_simulate_exit_2_on_a_set_up_error(tmp_path, capsys, monkeypatch,
                                                               name):
    build, message = SET_UP_ERRORS[name]
    cfg = build(tmp_path)
    # validate_config builds nothing and opens no file
    assert cli.validate_config(cfg) == []
    monkeypatch.setattr(solver, "solve_cauchy", _solve_raises_solved)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", [*sorted(p.stem for p in CONFIG_DIR.glob("*.json")),
                                  "tiny", *sorted(REJECTED)])
def test_validate_config_passes_exactly_what_simulate_solves(tmp_path, monkeypatch, name):
    if name in REJECTED:
        cfg = REJECTED[name][0](tmp_path)
    elif name == "tiny":
        cfg = tiny_config()
    else:
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    monkeypatch.setattr(solver, "solve_cauchy", _solve_raises_solved)
    valid = cli.main(["validate-config", str(cfg_path)]) == 0
    try:
        code = cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")])
    except _Solved:
        solved = True
    else:
        solved = False
        assert code == 2
    assert valid == solved
    assert valid == (name not in REJECTED)


CHECK_TYPES = cli.CONFIG_SCHEMA["properties"]["checks"]["items"]["properties"]["type"]["enum"]
_POWER_LAW = {"kind": "power_law", "alpha": 0.5, "truncation_radius": 4}


def _check_of(typ):
    # a check of this type with the keys validate_config requires of it
    required = {"moment_bound": {"alpha": 0.5}, "slow_decay": {"q": 6.0}}
    return {"type": typ, **required.get(typ, {})}


@pytest.mark.parametrize("typ", sorted(cli._PROFILE_CHECKS))
def test_a_brute_forced_profile_is_refused_to_every_assumption_check(tmp_path, capsys,
                                                                     monkeypatch, verified_run,
                                                                     typ):
    _, run = verified_run
    cfg = tiny_config(profile={"kind": "bruteforce", "size_cap": 2}, checks=[_check_of(typ)])
    if typ == "slow_decay":
        cfg["initial_data"] = dict(_POWER_LAW, center=[0])
    errors = cli.validate_config(cfg)
    assert len(errors) == 1 and errors[0].startswith(f"profile: the checks {typ} need the lattice")
    assert "constant past its range" in errors[0] and "fails assumption nd" in errors[0]
    monkeypatch.setattr(gf.faberkrahn, "fk_profile_bruteforce", _no_brute_force)
    monkeypatch.setattr(solver, "solve_cauchy", _solve_raises_solved)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for argv in (["validate-config", str(cfg_path)],
                 ["simulate", "--config", str(cfg_path), "--out", str(out)],
                 ["verify", "--config", str(cfg_path), "--traj-dir", str(run), "--out", str(out)]):
        assert cli.main(argv) == 2
        assert errors[0] in capsys.readouterr().err
    assert not out.exists()


def _graph_and_center(tmp_path, graph):
    if graph == "custom":
        cycle = tmp_path / "cycle.txt"
        cycle.write_text("a b 1\nb c 1\nc d 1\nd a 1\n")
        return {"family": "custom", "adjacency_file": str(cycle)}, "a"
    if graph == "product":
        return _product(["a", "b", 1.0]), [0, 0]
    N = int(graph[-1])
    return {"family": "lattice", "N": N}, [0] * N


# a custom graph has no dimension, so it has no lattice profile
@pytest.mark.parametrize("graph, kind", [
    (graph, kind) for graph in ("Z1", "Z2", "product", "custom")
    for kind in ("lattice", "bruteforce") if (graph, kind) != ("custom", "lattice")])
def test_no_validated_config_fails_its_profile_assumptions(tmp_path, monkeypatch, graph, kind):
    # each check type, at p = 3 and at p/N >= 30, where v^(p/N) leaves float
    # range on the assumption grid: validate_config rejects the config, or its
    # set-up succeeds with a profile that meets the assumptions its checks need
    graph_cfg, center = _graph_and_center(tmp_path, graph)
    profile = {"kind": kind, "size_cap": 2} if kind == "bruteforce" else {"kind": kind}
    monkeypatch.setattr(solver, "solve_cauchy", _solve_raises_solved)
    rejected = set()
    for typ in CHECK_TYPES:
        for p in (3.0, 60.0):
            data = (dict(_POWER_LAW, center=center) if typ == "slow_decay"
                    else {"kind": "delta", "center": center})
            cfg = tiny_config(graph=graph_cfg, initial_data=data, profile=profile,
                              checks=[_check_of(typ)])
            cfg["solver"]["p"] = p
            if cli.validate_config(cfg):
                rejected.add(typ)
                continue
            *_, built, _ = cli._setup(cfg)
            if typ in cli._PROFILE_CHECKS:
                assert built.assumptions.all_ok, (typ, p, built.assumptions.worst)
    # slow_decay's analytic tails need the lattice family
    expected = (cli._PROFILE_CHECKS if kind == "bruteforce"
                else {"slow_decay"} if graph == "product" else set())
    assert rejected == expected


@pytest.mark.parametrize("n0", [12, None])
@pytest.mark.parametrize("graph", ["Z1", "Z2", "product"])
def test_a_non_vertex_in_file_data_exits_2(tmp_path, capsys, monkeypatch, graph, n0):
    # the ids of the data are checked when the data are built, so neither
    # command reaches a support search or a solve; a search that got past
    # ring 100 fails the test instead of running on
    graph_cfg, center = _graph_and_center(tmp_path, graph)
    data = tmp_path / "u0.csv"
    data.write_text(f"vertex_id,value\n{':'.join(map(str, center))},1.0\na,2.0\n")
    cfg = tiny_config(graph=graph_cfg, initial_data={"kind": "file", "path": str(data),
                                                     "center": center})
    if n0 is None:
        del cfg["solver"]["n0"]
    rings = gf.graphs.rings

    def capped(g, x0, r_max=None):
        for d, ring in enumerate(rings(g, x0, r_max)):
            assert d <= 100, "the support search ran past ring 100"
            yield ring
    monkeypatch.setattr(gf.fields, "rings", capped)
    monkeypatch.setattr(gf.graphs, "rings", capped)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["validate-config", str(cfg_path)]) == 2
    assert "'a'" in capsys.readouterr().err
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'a'" in capsys.readouterr().err
    assert not out.exists()


def test_the_profile_is_built_only_for_a_check_that_reads_it(tmp_path):
    graph_cfg, center = _graph_and_center(tmp_path, "custom")
    cfg = tiny_config(graph=graph_cfg, initial_data={"kind": "delta", "center": center},
                      checks=[{"type": "decay_fit"}, {"type": "propagation_fit"}])
    del cfg["profile"]   # the lattice default, which a custom graph cannot build
    assert cli._setup(cfg)[4] is None
    cfg["checks"].append({"type": "lower_bound"})
    with pytest.raises(cli.ConfigError, match="needs a graph with a dimension"):
        cli._setup(cfg)


def test_fk_on_a_profile_that_is_not_brute_forced_leaves_no_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config()))
    out = tmp_path / "fk"
    assert cli.main(["fk", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "needs a profile of kind 'bruteforce'" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_builds_each_input_once(tmp_path, monkeypatch):
    counts = {}

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    builders = ["build_generator", "build_initial_field", "build_solver_config",
                "build_profile"]
    for name in builders:
        counted(name)
    monkeypatch.setattr(solver, "solve_cauchy", _solve_raises_solved)
    for stem in ("lattice1d_p3_propagation", "lattice1d_p3_slow_decay"):
        counts.clear()
        with pytest.raises(_Solved):
            cli.run(json.loads((CONFIG_DIR / f"{stem}.json").read_text()), tmp_path / stem)
        assert counts == dict.fromkeys(builders, 1), stem
