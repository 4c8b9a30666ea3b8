"""The benchmark's three workloads: study, cell and references.

All three derive from one scaled-down copy of the convergence study: the
physics (k0, wall, hole, opening angle, alpha, the slope windows) is read
from configs/study.cfg, and the mesh sizes and the delta sweep are replaced
by SCALE so that one run fits the benchmark's time budget on a 2-core box.
The inputs have no random part; the same files give the same inputs.

A workload is a list of operations per round.  `run` is the timed part of
an operation; it is given a `probe` callable that it may call between its
stages, whose time the runner leaves out (run.py, Speed).  `measure`
extracts what the checks need and runs untimed, with tracing paused.
`check` checks one operation; `check_round` checks properties across a
whole round and is charged to its last operation.

BENCHMARK.json runs `study` and `cell`; `references` runs by hand
(README.md, "Workloads").
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

import checks
# library functions are called through their modules, so that the wrappers
# layertrace.install puts there see these calls
from thinwall import cascade, cell, cli, exact, fem, harness

# The full study (exact_h0 0.05, limit_h0 0.04, cell_h0 0.06, nf_h0 0.45,
# deltas 1/8 ... 1/64) takes 90 s and 1.2 GB a run.  At these coarser
# settings every slope still lands in its window and every reference is P3.
SCALE = dict(deltas=(1 / 8, 1 / 16), exact_h0=0.1, limit_h0=0.08,
             cell_h0=0.15, nf_h0=0.9)
# cell sizes: the study's cell_h0 and one refinement of it
CELL_H0 = (0.15, 0.1)
# three deltas are the fewest that give a ratio of power differences
REFERENCE_DELTAS = (1 / 8, 1 / 16, 1 / 32)


def study_config(root: Path):
    """The scaled study config and its slope windows {name: (lo, hi)}."""
    raw = cli.parse_config(root / "configs" / "study.cfg")
    # the CLI's reader, so the file means what it means to `thinwall study`
    cfg = dataclasses.replace(cli._study_config(raw), **SCALE)
    windows = {key[len("check_"):]: tuple(float(v) for v in val.split(","))
               for key, val in raw.items() if key.startswith("check_")}
    return cfg, windows


def transmitted_power(field, k0):
    """P = k0 * int_{GammaR_plus} |u|^2 ds, the power leaving on the right."""
    M = fem.boundary_mass(field.space, "GammaR_plus")
    return k0 * float(np.real(np.conj(field.coeffs) @ (M @ field.coeffs)))


def _constants(c):
    return {k: complex(v) for k, v in c.as_dict().items()}


@dataclasses.dataclass
class Op:
    name: str
    run: object                 # probe -> raw result, timed
    measure: object             # raw result -> check data, untimed
    check: object               # check data -> failure messages


@dataclasses.dataclass
class Workload:
    setup: object               # root -> inputs
    ops: object                 # inputs -> [Op] of one round
    check_round: object = None  # (inputs, [check data]) -> failure messages


# -- study ------------------------------------------------------------------

def _study_setup(root):
    cfg, windows = study_config(root)
    return {"root": root, "cfg": cfg, "windows": windows}


def _study_run(inputs, probe):
    # the study logs after each stage and each delta: probe the machine there
    rep = harness.run_study(inputs["cfg"], log=probe)
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=inputs["root"]) as out:
        harness.emit_outputs(rep, out)
    return rep


def _study_measure(rep):
    return {"slopes": {k: v[0] for k, v in rep.slopes.items()},
            "degrees": list(rep.degrees),
            "rows": [(r[0], r[2], r[3], r[4]) for r in rep.rows],
            "constants": {k: complex(v) for k, v in rep.constants.items()},
            "L_minus_1": dict(rep.L_minus_1),
            "stages_s": {k: rep.walltimes[k]
                         for k in ("cell", "nearfield", "cascade")}}


def _study_check(inputs, data):
    out = checks.slopes(data["slopes"], inputs["windows"])
    for d in data["degrees"]:
        out += checks.degree(d, inputs["cfg"].exact_degree)
    out += checks.errors_decrease(data["rows"])
    out += checks.symmetric_hole(data["constants"])
    out += checks.cones_agree(data["L_minus_1"]["plus"],
                              data["L_minus_1"]["minus"])
    return out


def _study_ops(inputs):
    return [Op("study", lambda probe: _study_run(inputs, probe),
               _study_measure,
               lambda data: _study_check(inputs, data))]


# -- cell -------------------------------------------------------------------

def _cell_setup(root):
    cfg, _ = study_config(root)
    hole = cfg.params.hole
    return {"cfg": cfg, "hole": hole,
            "area": checks.regular_polygon_area(hole.n_seg, hole.radius)}


def _cell_run(inputs, h0):
    cfg = inputs["cfg"]
    sol = cell.build_cell(inputs["hole"], T=cfg.cell_T, h0=h0,
                          degree=cfg.cell_degree, cutoff=cfg.cutoff)
    return cell.compute_constants(sol, cfg.params.k0, khat=cfg.params.khat)


def _cell_ops(inputs):
    return [Op(f"cell h0={h0}", lambda _, h0=h0: _cell_run(inputs, h0),
               _constants,
               lambda c: (checks.symmetric_hole(c)
                          + checks.rayleigh(c, inputs["area"])))
            for h0 in CELL_H0]


def _cell_check_round(inputs, datas):
    return checks.refinement(datas[0], datas[1])


# -- references -------------------------------------------------------------

def _ref_setup(root):
    cfg, _ = study_config(root)
    return {"cfg": cfg}


def _ref_run(inputs, delta):
    cfg = inputs["cfg"]
    return exact.solve_exact(cfg.params, delta, h0=cfg.exact_h0,
                             degree=cfg.exact_degree,
                             grading=cfg.exact_grading,
                             max_dofs=cfg.exact_max_dofs)


def _ref_measure(res):
    return {"degree": res.degree, "flux": res.flux_balance(),
            "power": transmitted_power(res.field, res.params.k0)}


def _ref_ops(inputs):
    want = inputs["cfg"].exact_degree
    return [Op(f"reference delta=1/{round(1 / d)}",
               lambda _, d=d: _ref_run(inputs, d), _ref_measure,
               lambda r: (checks.degree(r["degree"], want)
                          + checks.flux(r["flux"])))
            for d in REFERENCE_DELTAS]


def limit_power(cfg):
    """Transmitted power of the limit field u00 on the study's limit mesh."""
    space = cascade.build_limit_space(cfg.params, h0=cfg.limit_h0,
                                      degree=cfg.limit_degree)
    u00, _ = cascade.compute_u00(cfg.params, space)
    return transmitted_power(u00, cfg.params.k0)


def _ref_check_round(inputs, datas):
    if "limit_power" not in inputs:
        inputs["limit_power"] = limit_power(inputs["cfg"])
    return checks.power_sweep([r["power"] for r in datas],
                              inputs["limit_power"])


WORKLOADS = {
    "study": Workload(_study_setup, _study_ops),
    "cell": Workload(_cell_setup, _cell_ops, _cell_check_round),
    "references": Workload(_ref_setup, _ref_ops, _ref_check_round),
}
