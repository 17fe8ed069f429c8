"""End-to-end batch workflow through the experiment runner.

Runs the shipped point-mass decay config, then shows what lands in the
output directory (removed again at the end) and how the command-line
interface maps onto it.
"""
import json
import tempfile
from pathlib import Path

from graphflow import cli

config_path = Path(__file__).resolve().parent.parent / "configs" / "lattice1d_p3_decay.json"
cfg = json.loads(config_path.read_text())

with tempfile.TemporaryDirectory(prefix="graphflow_demo_") as tmp:
    out = Path(tmp)
    report = cli.run(cfg, out)

    print("report summary:")
    print("  config hash:", report["config_hash"][:16], "...")
    print("  certified radius:", report["certified_radius"])
    print("  decay slope:", round(report["decay_slope"], 4))
    print("  all checks pass:", report["pass"])

    print("\nartifacts written to", out)
    for path in sorted(out.iterdir()):
        print("  ", path.name)

    print("\nequivalent shell usage:")
    print(f"  graphflow simulate --config {config_path} --out {out}")
    print(f"  graphflow fit --traj-dir {out} --window 10 1000")
    print(f"  graphflow validate-config {config_path}")
