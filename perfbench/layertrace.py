"""Per-layer tracing of the thinwall library, applied from outside.

`install` replaces chosen library functions with wrappers that time each
call and count the work it did.  Functions are replaced wherever a thinwall
module binds them, so names imported with ``from .x import y`` (for example
`triangulate` in `cell`, `cascade`, `exact` and `nearfield`) are traced too.
Nothing in the library is edited; the wrappers live only in this process.

A span's self time is its duration minus the time of the traced spans
nested inside it.  Layer metrics add up self times, so a layer is charged
only for work that no other traced layer accounts for.  Stage metrics
(``stage.*``) are inclusive durations of the study's stage functions.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer metrics, taken from span self times
LAYER_TIMES = {
    "triangulate.s": "triangulate",
    "fem.space.s": "fem.space",
    "fem.assembly.s": "fem.assembly",
    "fem.solve.s": "fem.solve",
    "fem.solve.constraints_s": "fem.constraints",
    "fem.solve.factor_s": "fem.factor",
    "fem.field.s": "fem.field",
    "bessel.s": "bessel",
}
# stage metrics, taken from inclusive span durations
STAGE_TIMES = {
    "stage.cell_s": "stage.cell",
    "stage.nearfield_s": "stage.nearfield",
    "stage.cascade_s": "stage.cascade",
    "stage.reference_s": "stage.reference",
    "stage.errors_s": "stage.errors",
}
COUNTS = ("triangulate.triangles", "fem.space.ndof", "fem.assembly.calls",
          "fem.solve.factorizations", "fem.solve.lu_nnz")


class Tracer:
    """Span stack plus per-name accumulators for one process."""

    def __init__(self):
        self.enabled = True
        self.reset()

    def reset(self):
        self._stack = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, name, fn, count=None):
        """Wrapper of fn that records a span called `name`.

        count(tracer, args, result) runs after the call to record work
        counts; it is outside the span, so its cost is not charged to fn.
        """
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]          # time of traced children
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.self_s[name] += dt - frame[0]
                self.incl_s[name] += dt
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def metrics(self):
        """Per-layer metrics accumulated since the last reset."""
        out = {k: self.self_s[v] for k, v in LAYER_TIMES.items()}
        out.update({k: self.incl_s[v] for k, v in STAGE_TIMES.items()})
        out.update({k: self.counts[k] for k in COUNTS})
        return out


def _count_triangles(tr, args, mesh):
    tr.counts["triangulate.triangles"] += len(mesh.elements)


def _count_ndof(tr, args, _):
    tr.counts["fem.space.ndof"] += args[0].ndof


def _count_assembly(tr, args, _):
    tr.counts["fem.assembly.calls"] += 1


def _count_factor(tr, args, lu):
    tr.counts["fem.solve.factorizations"] += 1
    nnz = int(lu.L.nnz + lu.U.nnz)
    tr.counts["fem.solve.lu_nnz"] = max(tr.counts["fem.solve.lu_nnz"], nnz)


def install(tracer: Tracer):
    """Wrap the library's layer and stage functions with `tracer` spans."""
    from thinwall import (bessel, cascade, cell, exact, fem, harness,
                          nearfield, triangulate)

    functions = [(triangulate.triangulate, "triangulate", _count_triangles),
                 (fem.solve, "fem.solve", None),
                 (cell.build_cell, "stage.cell", None),
                 (cell.compute_constants, "stage.cell", None),
                 (nearfield.solve_S, "stage.nearfield", None),
                 (cascade.build_expansion, "stage.cascade", None),
                 (exact.solve_exact, "stage.reference", None),
                 (harness.errors_on_region, "stage.errors", None)]
    functions += [(getattr(fem, f), "fem.assembly", _count_assembly)
                  for f in ("stiffness", "mass", "boundary_mass",
                            "boundary_load", "volume_load",
                            "boundary_load_normal")]
    functions += [(getattr(bessel, f), "bessel", None)
                  for f in bessel.__all__]
    wrapped = {id(fn): tracer.wrap(name, fn, count)
               for fn, name, count in functions}
    for modname, mod in list(sys.modules.items()):
        if modname != "thinwall" and not modname.startswith("thinwall."):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped:
                setattr(mod, attr, wrapped[id(val)])
    # only the factorisations the fem solve pipeline makes
    fem.splu = tracer.wrap("fem.factor", fem.splu, _count_factor)

    methods = [(fem.Space, "__init__", "fem.space", _count_ndof),
               (fem.Space, "locate", "fem.field", None),
               (fem.Constraints, "build", "fem.constraints", None)]
    methods += [(fem.Field, m, "fem.field", None)
                for m in ("evaluate", "gradient", "values_at_own_quad",
                          "grads_at_own_quad")]
    for cls, attr, name, count in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))
