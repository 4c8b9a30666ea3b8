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


ASSEMBLY = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layertrace
tracer = layertrace.Tracer()
layertrace.install(tracer)
from thinwall import fem
from thinwall.geometry import GeometrySpec, _rect_loop
from thinwall.triangulate import triangulate
loop = _rect_loop(0.0, 1.0, 0.0, 1.0, ("GammaN",) * 4)
space = fem.Space(triangulate(GeometrySpec(loops=[loop]), 0.1), 2)
fem.stiffness(space)
fem.mass(space, coeff=lambda x, y: 1.0 + x * y)
fem.volume_load(space, lambda x, y: x)
m = tracer.metrics()
print(m["fem.assembly.calls"], m["fem.assembly.s"])
"""


def test_assembly_layer_counts_each_public_call_once():
    # a kernel that routed one public assembly function through another
    # would count twice; work moved out of the traced names would read 0 s
    done = subprocess.run([sys.executable, "-c", ASSEMBLY,
                           str(ROOT / "perfbench"), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls, seconds = done.stdout.split()
    assert int(calls) == 3
    assert float(seconds) > 0.0
