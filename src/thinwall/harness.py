"""Convergence study: sweep the layer period, measure expansion errors.

For every delta in the sweep, reference_samples solves the perforated
problem directly and keeps only its error-region samples: the quadrature
points, weights and field values of the reference mesh outside the
excluded strip around the wall.  errors_on_region scores a model's
truncated sums against those samples alone; the weighted point
differences give the L2 errors whose log-log slopes are the headline
numbers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .cascade import ExpansionSet, build_expansion
from .cell import build_cell, compute_constants
from .cutoff import make_cutoff
from .errors import DegenerateFit
from .exact import solve_exact
from .geometry import (CELL_T_MIN, CONE_RMAX_MIN, build_cell_geometry,
                       build_perforated_domain)
from .nearfield import solve_S
from .params import DomainParams

__all__ = ["STUDY_PARAMS", "StudyConfig", "ConvergenceReport", "Samples",
           "cell_constants", "build_model", "reference_samples",
           "errors_on_region", "run_study", "fit_slope", "emit_outputs",
           "read_report_csv"]

CSV_HEADER = "delta,dofs,e0,e1,e2"


# the study's default parameters; configs/study.cfg states how its k0 is
# chosen
STUDY_PARAMS = DomainParams(k0=2.5 * math.pi)


@dataclass
class StudyConfig:
    params: DomainParams = STUDY_PARAMS
    alpha: float = 0.25
    deltas: tuple = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    # reference (perforated) solves
    exact_h0: float = 0.05
    exact_degree: int = 3
    # depth of corner grading; None keeps the perforated domain's own
    exact_grading: int | None = None
    # macroscopic cascade
    limit_h0: float = 0.04
    limit_degree: int = 3
    # cell problems
    cell_T: float = 6.0
    cell_h0: float = 0.06
    cell_degree: int = 3
    # near-field problems
    nf_Rmax: float = 20.0
    nf_h0: float = 0.45
    nf_degree: int = 2
    cutoff: str = "exp"
    # cap on the unknowns SuperLU factors for one reference (the tile's
    # interior and the reduced system), which guards memory; solve_exact
    # raises above it before assembly.  800,000 admits delta = 1/1024: it
    # factors 414,333 of its 3,269,049 P3 dofs (31 s and 2.3 GB peak at one
    # BLAS thread), and 1/512 224,705 of 1,725,746 (13 s and 1.2 GB)
    exact_max_dofs: int = 800_000

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        for name in ("exact_h0", "limit_h0", "cell_h0", "nf_h0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("exact_degree", "limit_degree", "cell_degree",
                     "nf_degree"):
            if getattr(self, name) not in (1, 2, 3):
                raise ValueError(f"{name} must be 1, 2 or 3")
        if not self.exact_max_dofs >= 1:
            raise ValueError("exact_max_dofs must be at least 1")
        if self.exact_grading is not None and self.exact_grading < 0:
            raise ValueError("exact_grading must be None or at least 0")
        # the limits each stage's geometry and cut-off would raise at
        if not self.cell_T >= CELL_T_MIN:
            raise ValueError(f"cell_T must be at least {CELL_T_MIN:g}")
        if not self.nf_Rmax >= CONE_RMAX_MIN:
            raise ValueError(f"nf_Rmax must be at least {CONE_RMAX_MIN:g}")
        make_cutoff(self.cutoff)
        for d in self.deltas:
            if not d > 0:
                raise ValueError(f"delta {d} must be positive")
            # the wall holds 2L / delta periods, a positive whole number
            q = 2.0 * self.params.L / d
            if not (0.5 <= q < math.inf and abs(q - round(q)) <= 1e-9):
                raise ValueError(f"delta {d} does not divide the wall")
        # the geometries raise a hole outside the cell or one a delta
        # scales into a wall (ValueErrors) before any stage runs
        build_cell_geometry(self.params.hole, self.cell_T)
        for d in self.deltas:
            build_perforated_domain(self.params, d)


@dataclass
class ConvergenceReport:
    rows: list = dc_field(default_factory=list)  # (delta, dofs, e0, e1, e2)
    degrees: list = dc_field(default_factory=list)  # per row, degree used
    slopes: dict = dc_field(default_factory=dict)
    constants: dict = dc_field(default_factory=dict)
    L_minus_1: dict = dc_field(default_factory=dict)
    walltimes: dict = dc_field(default_factory=dict)


def fit_slope(pairs):
    """Least-squares slope of ln(e) against ln(delta).

    Returns (slope, intercept, halfwidth) where halfwidth is the standard
    error of the slope times 2 (a rough confidence indicator); a two-point
    fit leaves no residual to estimate it from, and its halfwidth is nan.
    """
    pairs = [(float(d), float(e)) for d, e in pairs]
    if len(pairs) < 2:
        raise DegenerateFit("need at least two points")
    if any(d <= 0 or e <= 0 for d, e in pairs):
        raise DegenerateFit("slope fit needs positive data")
    x = np.log([d for d, _ in pairs])
    y = np.log([e for _, e in pairs])
    if np.ptp(x) < 1e-12:
        raise DegenerateFit("all abscissae coincide")
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    if len(pairs) == 2:
        return slope, intercept, math.nan
    sse = float(np.sum((A @ coef - y) ** 2))
    var = sse / (len(pairs) - 2) / float(np.sum((x - x.mean()) ** 2))
    return slope, intercept, 2.0 * math.sqrt(var)


class Samples(NamedTuple):
    """A reference's error-region samples, all the scoring reads of it:
    the quadrature points pts and weights w of its mesh outside the wall
    strip, and its field u there."""

    delta: float
    ndof: int
    degree: int
    pts: np.ndarray
    w: np.ndarray
    u: np.ndarray


def reference_samples(cfg: StudyConfig, delta) -> Samples:
    """Solve the reference at delta and sample it on the error region; the
    solve, its mesh and its factor-sized field are freed on return."""
    res = solve_exact(cfg.params, delta, h0=cfg.exact_h0,
                      degree=cfg.exact_degree, grading=cfg.exact_grading,
                      max_dofs=cfg.exact_max_dofs)
    pts, w = res.field.space.quad_global()
    L, alpha = cfg.params.L, cfg.alpha
    keep = (np.abs(pts[:, 1]) >= alpha) | (np.abs(pts[:, 0]) >= L + alpha)
    return Samples(delta, res.ndof, res.degree, pts[keep], w[keep],
                   res.field.values_at_own_quad()[keep])


def errors_on_region(samples: Samples, expansion: ExpansionSet):
    """L2 errors e0..e2 of the truncations against a reference's samples."""
    return [float(np.sqrt(np.sum(samples.w * np.abs(samples.u - t) ** 2)))
            for t in expansion.truncations(samples.pts, samples.delta)]


def cell_constants(cfg: StudyConfig):
    """Effective constants of the configured periodicity cell."""
    p = cfg.params
    cell = build_cell(p.hole, T=cfg.cell_T, h0=cfg.cell_h0,
                      degree=cfg.cell_degree, cutoff=cfg.cutoff)
    return compute_constants(cell, p.k0, khat=p.khat)


def build_model(cfg: StudyConfig, log=print):
    """The macroscopic model: cell constants, corner reflections, cascade.

    Returns (expansion, L_minus_1, walltimes), with L_minus_1 the reflection
    coefficient of each corner and walltimes the seconds each stage took.
    """
    p = cfg.params
    walltimes = {}
    t0 = time.time()
    constants = cell_constants(cfg)
    walltimes["cell"] = time.time() - t0
    log(f"[cell] constants {constants.as_dict()}")

    t1 = time.time()
    sols = solve_S(("plus", "minus"), 1, constants, p.hole, theta=p.theta,
                   Rmax=cfg.nf_Rmax, h0=cfg.nf_h0, degree=cfg.nf_degree,
                   cutoff=cfg.cutoff)
    L_minus_1 = {side: nf.ell[1] for side, nf in sols.items()}
    for side, nf in sols.items():
        log(f"[nearfield] {side}: L_-1 = {nf.ell[1]:.6f}, {nf.ndof} dofs, "
            + ("reused factorisation" if nf.reused_factorization
               else "own factorisation"))
    walltimes["nearfield"] = time.time() - t1

    t2 = time.time()
    expansion = build_expansion(p, constants, L_minus_1, h0=cfg.limit_h0,
                                degree=cfg.limit_degree, cutoff=cfg.cutoff)
    walltimes["cascade"] = time.time() - t2
    log(f"[cascade] done in {walltimes['cascade']:.1f}s, "
        f"{expansion.u00.space.ndof} dofs")
    return expansion, L_minus_1, walltimes


def run_study(cfg: StudyConfig, log=print) -> ConvergenceReport:
    rep = ConvergenceReport()
    t0 = time.time()
    expansion, L_minus_1, rep.walltimes = build_model(cfg, log)
    rep.constants = expansion.constants.as_dict()
    rep.L_minus_1 = L_minus_1

    for delta in cfg.deltas:
        td = time.time()
        samples = reference_samples(cfg, delta)
        l2 = errors_on_region(samples, expansion)
        rep.degrees.append(samples.degree)
        rep.rows.append((delta, samples.ndof, l2[0], l2[1], l2[2]))
        rep.walltimes[f"delta={delta}"] = time.time() - td
        log(f"[study] delta=1/{round(1/delta)} dofs={samples.ndof} "
            f"e0={l2[0]:.4e} e1={l2[1]:.4e} e2={l2[2]:.4e} "
            f"({rep.walltimes[f'delta={delta}']:.1f}s)")

    for i, name in enumerate(("e0", "e1", "e2")):
        pairs = [(r[0], r[2 + i]) for r in rep.rows]
        if len(pairs) >= 2:
            rep.slopes[name] = fit_slope(pairs)
            s, _, hw = rep.slopes[name]
            log(f"[study] slope {name} = {s:.3f} (+/- {hw:.3f})")
    rep.walltimes["total"] = time.time() - t0
    return rep


def emit_outputs(rep: ConvergenceReport, outdir):
    """Write CSV, a plain-text table, and a gnuplot script."""
    import os
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "report.csv")
    with open(csv_path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for d, n, e0, e1, e2 in rep.rows:
            f.write(f"{d:.12g},{n},{e0:.12e},{e1:.12e},{e2:.12e}\n")
    with open(os.path.join(outdir, "report.txt"), "w") as f:
        f.write(f"{'delta':>12} {'dofs':>9} {'degree':>6} {'e0':>12} "
                f"{'e1':>12} {'e2':>12}\n")
        degrees = rep.degrees or ["-"] * len(rep.rows)
        for (d, n, e0, e1, e2), deg in zip(rep.rows, degrees):
            f.write(f"{d:12.6g} {n:9d} {deg:>6} {e0:12.4e} {e1:12.4e} "
                    f"{e2:12.4e}\n")
        for name in ("e0", "e1", "e2"):
            if name in rep.slopes:
                s, b, hw = rep.slopes[name]
                f.write(f"slope {name}: {s:.4f} (+/- {hw:.4f})\n")
        if rep.constants:
            f.write(f"constants: {rep.constants}\n")
    with open(os.path.join(outdir, "plot.gp"), "w") as f:
        f.write("set logscale xy\nset xlabel 'delta'\nset ylabel "
                "'L2 error'\nset key left top\nset datafile separator ','\n"
                f"plot 'report.csv' skip 1 using 1:3 with linespoints "
                f"title 'order 0', \\\n"
                f"     '' skip 1 using 1:4 with linespoints "
                f"title 'order 1', \\\n"
                f"     '' skip 1 using 1:5 with linespoints "
                f"title 'order 2'\n")
    return csv_path


def read_report_csv(path):
    """Parse a study CSV back into rows (round-trip of emit_outputs)."""
    rows = []
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for line in f:
            if not line.strip():
                continue
            d, n, e0, e1, e2 = line.strip().split(",")
            rows.append((float(d), int(n), float(e0), float(e1), float(e2)))
    return rows
