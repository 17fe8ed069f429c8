"""Times one workload's set-up in this fresh interpreter.

Usage: ``python3 bench/setup_probe.py <workload> <seed>``.  The clock
starts before graphflow is imported, so the figure covers the import, the
config validation and the building of graphs, initial fields, solver
configs and profiles; no solve runs.  Prints the set-up seconds and then
the calibration kernel's seconds, measured right after in this process.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
elapsed = perf_counter() - t0

import calibration  # noqa: E402

print(repr(elapsed), repr(calibration.measure()))
