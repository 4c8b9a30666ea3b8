#!/usr/bin/env python3
"""Print the benchmark's scaled convergence study to every digit (repr):
its rows, its slopes, L_{-1} of each corner and the cell's effective
constants.  Run from the repository
root, at one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python3 tools/study_repr.py

The scale is perfbench/workloads.py's.  A change that is meant to leave the
numbers alone must leave this output unchanged.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from thinwall.harness import run_study  # noqa: E402
from workloads import study_config  # noqa: E402

rep = run_study(study_config(ROOT)[0], log=lambda *a: None)
for row in rep.rows:
    print("row", repr(row))
for name, fit in sorted(rep.slopes.items()):
    print("slope", name, repr(fit[0]))
for side, val in sorted(rep.L_minus_1.items()):
    print("L_minus_1", side, repr(val))
for name, val in sorted(rep.constants.items()):
    print("constant", name, repr(val))
