"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 bench/collect.py --runs 10 --trace 0 [--workloads ...] [--out bench/baseline.json]

Runs ``bench/run.py`` once per (seed, workload), seeds ``--first-seed`` on,
interleaving the workloads so that slow spells of the machine fall on all
of them alike.  For each metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median; an end-to-end metric whose spread is a third of its
bound or more is flagged.  ``--out`` merges the summary, with the machine
it ran on, into a JSON file under the key ``trace<0|1>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

import run


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=sorted(run.WORKLOADS),
                        default=list(run.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values = {w: {} for w in args.workloads}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(run.RUN_SECONDS),
                 "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]),
                flush=True)

    bounds = {m["name"]: m["bound"] for m in run.END_TO_END}
    summary = {}
    for w, metrics in values.items():
        summary[w] = {name: summarize(vals) for name, vals in metrics.items()}
        print(f"\n{w}")
        for name, s in summary[w].items():
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] >= bounds[name] / 3:
                flag = f"  <-- spread at or above a third of the bound {bounds[name]}"
            print(f"  {name:32s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    print(f"\nfailed operations or incorrect runs: {failed}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["machine"] = machine()
        doc[f"trace{args.trace}"] = {"runs": args.runs, "first_seed": args.first_seed,
                                     "seconds": run.RUN_SECONDS, "workloads": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
