#!/usr/bin/env python3
"""Measure `thinwall solve-exact` on the study's references, fresh
processes per delta.  Run from the repository root, at one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python3 tools/reference_table.py 8 16 32 > refs.json

Each argument q runs `solve-exact --config configs/study.cfg --delta 1/q`
(P3 at exact_h0 0.05) with the dof cap lifted, twice.  The first run is the
plain command: its wall seconds, its peak RSS (the child's ru_maxrss, which
is its VmHWM), the full P3 dof count (ndof), residual and flux defect it
prints, or the last line of its error output if it failed.  The second run
wraps fem.splu to record each factorisation's order and L+U nnz, and their
sums: the factored unknowns and the fill.  It runs apart because reading
L+U nnz copies both factors, which would raise the first run's peak.
--src runs another checkout's library against this checkout's config.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """\
import json, sys
from thinwall import cli, fem
factors, splu = [], fem.splu
def recording(A, **kw):
    lu = splu(A, **kw)
    factors.append([A.shape[0], int(lu.L.nnz + lu.U.nnz)])
    return lu
fem.splu = recording
try:
    rc = cli.main(sys.argv[1:])
finally:
    print("factors", json.dumps(factors), flush=True)
sys.exit(rc)
"""


def _run(cmd, src):
    """(stdout, stderr, exit code, wall seconds, peak RSS in MB) of cmd."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        # reaped here, for the rusage of this one child
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (out.read(), err.read(), child.returncode, seconds,
                usage.ru_maxrss / 1024.0)


def row(src, q):
    args = ["solve-exact", "--config", str(ROOT / "configs" / "study.cfg"),
            "--delta", f"1/{q}", "--max-dofs", str(10 ** 9)]
    out, err, code, seconds, peak = _run(
        [sys.executable, "-m", "thinwall", *args], src)
    found = re.search(r"ndof (\d+).*residual (\S+)\s+flux-balance defect "
                      r"(\S+)", out)
    counted = _run([sys.executable, "-c", CHILD, *args], src)[0]
    factors = json.loads(re.search(r"^factors (.*)$", counted,
                                   re.M).group(1))
    return {"delta": f"1/{q}",
            "ndof": int(found.group(1)) if found else None,
            "factors": factors,
            "factored": sum(n for n, _ in factors),
            "lu_nnz": sum(nnz for _, nnz in factors),
            "residual": float(found.group(2)) if found else None,
            "flux_defect": float(found.group(3)) if found else None,
            "seconds": round(seconds, 2),
            "peak_rss_mb": round(peak, 1),
            "error": None if code == 0 else err.strip().splitlines()[-1]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("q", type=int, nargs="+", help="delta = 1/q")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the thinwall package's parent directory")
    args = ap.parse_args()
    rows = []
    for q in args.q:
        rows.append(row(args.src, q))
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"machine": {"python": platform.python_version(),
                                  "cpus": os.cpu_count(),
                                  "OPENBLAS_NUM_THREADS":
                                      os.environ.get("OPENBLAS_NUM_THREADS")},
                      "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
