#!/usr/bin/env python3
"""Factor every sparse system of the convergence study with SuperLU, at
fem.Solver's supernode settings and at SuperLU's default ones.  Run from
the repository root:

    python3 tools/factor_table.py > factors.json

The systems are those the benchmark's scaled study factors (cell, cone,
limit cascade and its two references; perfbench/workloads.py) and the full
study's references at every delta of configs/study.cfg.  A reference
and a cone each factor two, their tile's interior and then their reduced
system (fem.Solver), both labelled "reference" or both "cone".  Each
matrix is written to a temporary directory, then factored REPEATS times
by fem.Solver in a fresh process per setting; "default" passes no relax or
panel size to splu.  A row records the family, delta, the unknowns of the
factored system (ndof), L+U nnz, the median factor seconds and the
process's peak RSS, with its RSS before the first factorisation.

    python3 tools/factor_table.py --factor FILE [--relax R --panel P]

factors one stored matrix in this process and prints its row; without
--relax and --panel it uses fem.Solver's settings, with both set to 0
SuperLU's defaults.  SuperLU needs relax <= panel.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from thinwall import cli, fem  # noqa: E402
from thinwall.harness import run_study, solve_reference  # noqa: E402
from workloads import study_config  # noqa: E402

REPEATS = 5
# (name, relax, panel size); 0 leaves splu's own value
SETTINGS = [("new", fem.RELAX, fem.PANEL_SIZE), ("default", 0, 0)]


def _peak_rss_mb():
    """This process's peak RSS (Linux VmHWM; ru_maxrss would carry the
    parent's over fork and exec)."""
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


def factor(path, relax, panel):
    """The row of one stored matrix factored REPEATS times here."""
    A = sp.load_npz(path).tocsc()
    fem.RELAX, fem.PANEL_SIZE = relax or None, panel or None
    base = _peak_rss_mb()
    times = []
    for _ in range(REPEATS):
        solver = None               # free the last factor first
        t0 = time.perf_counter()
        solver = fem.Solver(A)
        times.append(time.perf_counter() - t0)
    peak = _peak_rss_mb()
    return {"ndof": A.shape[0], "dtype": str(A.dtype),
            "lu_nnz": int(solver.lu.L.nnz + solver.lu.U.nnz),
            "factor_s": statistics.median(times),
            "peak_rss_mb": round(peak, 1), "base_rss_mb": round(base, 1)}


def dump(out_dir):
    """Store every system the two studies factor; returns their labels
    [(family, study, delta, file)] in the order they were factored."""
    pending, labels = [], []
    real_splu = fem.splu

    def recording_splu(A, **kw):
        path = out_dir / f"m{len(labels) + len(pending)}.npz"
        sp.save_npz(path, A)
        pending.append(path)
        return real_splu(A, **kw)

    def label(family, study, delta=None):
        labels.extend((family, study, delta, path) for path in pending)
        pending.clear()

    # the study's log line follows each stage
    stages = {"[cell]": "cell", "[nearfield]": "cone", "[cascade]": "limit"}

    def log(line):
        m = re.match(r"\[study\] delta=(\S+)", line)
        if m:
            label("reference", "scaled", float(m.group(1)))
        elif line.split()[0] in stages:
            label(stages[line.split()[0]], "scaled")

    fem.splu = recording_splu
    try:
        run_study(study_config(ROOT)[0], log=log)
        full = cli._study_config(cli.parse_config(ROOT / "configs"
                                                  / "study.cfg"))
        for delta in full.deltas:
            solve_reference(full, delta)
            label("reference", "full", delta)
    finally:
        fem.splu = real_splu
    return labels


def table(out_dir):
    rows = []
    for family, study, delta, path in dump(out_dir):
        for name, relax, panel in SETTINGS:
            cmd = [sys.executable, __file__, "--factor", str(path),
                   "--relax", str(relax), "--panel", str(panel)]
            res = json.loads(subprocess.run(cmd, check=True, text=True,
                                            capture_output=True).stdout)
            row = {"family": family, "study": study, "delta": delta,
                   "setting": name, **res}
            print(json.dumps(row), file=sys.stderr, flush=True)
            rows.append(row)
    return {"machine": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "cpus": os.cpu_count()},
            "repeats": REPEATS,
            "settings": {name: {"relax": relax or None,
                                "panel_size": panel or None}
                         for name, relax, panel in SETTINGS},
            "rows": rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--factor", help="factor one stored matrix and exit")
    ap.add_argument("--relax", type=int, default=fem.RELAX)
    ap.add_argument("--panel", type=int, default=fem.PANEL_SIZE)
    args = ap.parse_args()
    if args.factor:
        print(json.dumps(factor(args.factor, args.relax, args.panel)))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(table(Path(tmp)), indent=1))


if __name__ == "__main__":
    main()
