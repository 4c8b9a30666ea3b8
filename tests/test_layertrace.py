"""The benchmark's layer trace wraps library names; a rename must fail here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layertrace_installs():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import layertrace; layertrace.install(layertrace.Tracer())")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
