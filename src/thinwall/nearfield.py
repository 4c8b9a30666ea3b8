"""Near-field corner problems on the truncated perforated cone.

S_n is the harmonic field on the cone of opening Theta minus the row of
unit-spaced holes, with Neumann walls/holes and Dirichlet data on the
truncation arc given by the matched two-term macro behaviour
R^lambda_n w_{n,0} + R^(lambda_n - 1) w_{n,1}.  Because the cone is
connected through the hole row, the jumping second term is blended across
the layer before being imposed.  The quantity of interest is the
coefficient of the decaying mode R^(-lambda_m) w_{m,0} in S_n: at each
window radius the modes of corner.MODES are fitted by corner.fit_modes, as
the corner coefficients of u00 are, on Gauss panels that skip the layer
strip, and each mode's track is then fitted in R.

Every side is solved in the plus corner's frame (sector (0, Theta) about
the origin, holes on the negative X1 axis): the minus corner is the plus
corner under x -> -x, so its cone is the plus-orientation cone built on
the cell polygon mirrored about X1 = 1/2 (side_polygon), loaded with the
minus side's jump_data.  Sides with the same polygon, as for a hole
symmetric under X1 -> 1 - X1, share one mesh and one factorisation, and
each is one load on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .corner import (MODES, AngularProfile, CornerFrame, fit_modes,
                     gauss_panels, lambda_n, mode_profiles)
from .cutoff import make_cutoff
from .errors import ExtractionUnstable
from .geometry import build_cone_geometry
from .triangulate import triangulate

__all__ = ["NearFieldSolution", "solve_S", "extract_L", "arc_data",
           "side_polygon", "blended_w1"]

SAME_VERTEX_TOL = 1e-12  # a hole this close to its mirror keeps one cone

L_EXCLUDE = 3.0          # half-width of the layer strip left out of the fit
L_N_RADII = 8            # fit radii in (Rmax/4, Rmax/2)


def _layer_step(y, cut):
    """Smooth step s(y): 0 below the layer, 1 above, 1/2 inside it."""
    y = np.asarray(y, dtype=float)
    return 0.5 * (1.0 + np.sign(y) * cut(y)[0])


def blended_w1(w1: AngularProfile, theta, y, cut):
    """w_{n,1}(theta) with its slit jump smeared over the layer |y| < 2.

    Outside the layer this equals w_{n,1}; inside, the two cosine branches
    are interpolated by a smooth step in the transverse coordinate so the
    arc data stays continuous across the hole row.
    """
    s = _layer_step(y, cut)
    return s * w1.branch(0, theta) + (1.0 - s) * w1.branch(1, theta)


def arc_data(n, frame: CornerFrame, w0: AngularProfile, w1: AngularProfile,
             cut):
    """Dirichlet data callable (x, y) -> value on the truncation arc."""
    lam = lambda_n(n, frame.theta)

    def data(x, y):
        r, th = frame.polar(x, y)
        return r ** lam * w0(th) + r ** (lam - 1.0) * blended_w1(w1, th, y, cut)

    return data


def side_polygon(side, hole):
    """Hole polygon P_s of side's cone in the plus orientation: the cell
    polygon, mirrored about X1 = 1/2 (and reversed to stay counter-clockwise)
    for the minus side.  A hole whose mirror has the same vertex set within
    SAME_VERTEX_TOL keeps its own polygon, so both sides mesh one cone."""
    poly = hole.polygon()
    if side == "minus" and poly.size:
        mirror = np.column_stack([1.0 - poly[:, 0], poly[:, 1]])[::-1]
        dist = np.abs(poly[:, None, :] - mirror[None, :, :]).max(axis=2)
        if max(dist.min(axis=0).max(), dist.min(axis=1).max()) \
                > SAME_VERTEX_TOL:
            poly = mirror
    return poly


@dataclass
class _Cone:
    """One meshed plus-orientation cone, factored with zero arc data."""

    polygon: np.ndarray
    space: fem.Space
    arc_dofs: np.ndarray
    solver: fem.Solver


def _build_cone(polygon, theta, Rmax, h0, degree):
    geo = build_cone_geometry(theta, Rmax, polygon)
    mesh = triangulate(geo, h0)
    space = fem.Space(mesh, degree)
    arc_dofs = space.boundary_dofs("Truncation")
    cons = fem.Constraints(space)
    cons.dirichlet(arc_dofs)
    return _Cone(polygon, space, arc_dofs,
                 fem.Solver(fem.stiffness(space), cons))


@dataclass
class NearFieldSolution:
    """S_n of one side, solved in the plus corner's frame.  field is a
    solution on the plus-orientation cone; for the minus side, S_n at a
    point (x, y) of its own cone is the field at (-x, y)."""

    side: str
    n: int
    Rmax: float
    field: fem.Field
    ell: dict = field(default_factory=dict)
    radial_residual: dict = field(default_factory=dict)
    log_coefficient: dict = field(default_factory=dict)
    ndof: int = 0
    reused_factorization: bool = False

    def as_dict(self):
        return {
            "side": self.side,
            "n": self.n,
            "Rmax": self.Rmax,
            "ndof": self.ndof,
            "reused_factorization": self.reused_factorization,
            "ell": {str(m): float(np.real(v)) for m, v in self.ell.items()},
            "radial_residual": {str(m): float(v)
                                for m, v in self.radial_residual.items()},
            "log_coefficient": {str(m): float(v)
                                for m, v in self.log_coefficient.items()},
        }


def solve_S(sides, n, constants, hole, theta=1.5 * math.pi, Rmax=20.0,
            h0=0.45, degree=2, cutoff="exp"):
    """Solve the cone problem for S_n at each corner in sides and extract
    its decaying-mode amplitudes; returns {side: NearFieldSolution}.

    constants supplies the layer jump data (D1, D2, N2, N3).  Sides whose
    hole polygons are equal share one cone mesh and factorisation; each side
    is still its own load and its own extraction.  Only the fit the model
    reads, mode n's, is gated: ExtractionUnstable if its relative radial
    residual exceeds 0.1.  Every mode's residual stays in radial_residual.
    """
    frame = CornerFrame("plus", 0.0, theta)
    cut = make_cutoff(cutoff)
    cones, sols = [], {}
    for side in sides:
        poly = side_polygon(side, hole)
        cone = next((c for c in cones if np.array_equal(c.polygon, poly)),
                    None)
        reused = cone is not None
        if not reused:
            cone = _build_cone(poly, theta, Rmax, h0, degree)
            cones.append(cone)
        w0, w1 = mode_profiles(n, side, constants, theta)
        xy = cone.space.dof_coords[cone.arc_dofs]
        d = np.zeros(cone.space.ndof, dtype=complex)
        d[cone.arc_dofs] = arc_data(n, frame, w0, w1, cut)(xy[:, 0], xy[:, 1])
        u, _ = cone.solver.solve(0, d)
        sol = NearFieldSolution(side=side, n=n, Rmax=Rmax,
                                field=fem.Field(cone.space, u),
                                ndof=cone.space.ndof,
                                reused_factorization=reused)
        ell, res, logc = extract_L(sol.field.evaluate, frame, n, w0, w1,
                                   Rmax)
        sol.ell, sol.radial_residual, sol.log_coefficient = ell, res, logc
        if res[n] > 0.1:
            raise ExtractionUnstable(
                f"{side} cone: radial fit of mode {n} has relative "
                f"residual {res[n]:.3f}")
        sols[side] = sol
    return sols


def _window_panels(theta, R, exclude):
    """Angular Gauss panels on (0, theta) at radius R avoiding the layer
    strip |y| <= exclude."""
    a0 = math.asin(min(0.999, exclude / R))
    cuts = [0.0]
    for c in (0.0, math.pi):
        for e in (c - a0, c + a0):
            if 0.0 < e < theta:
                cuts.append(e)
    cuts.append(theta)
    cuts = sorted(cuts)
    return [p for lo, hi, p in zip(cuts[:-1], cuts[1:], gauss_panels(cuts, 24))
            if abs(R * math.sin(0.5 * (lo + hi))) > exclude]


def extract_L(evaluate, frame: CornerFrame, n, w0, w1, Rmax):
    """Amplitudes of the decaying sector modes inside the matching window.

    evaluate(points) -> complex values of the field u.  At each radius in
    (Rmax/4, Rmax/2) the residual of u against the known growing behaviour
    is fitted (corner.fit_modes, layer strip excluded) by the sector
    modes; each coefficient track c_m(R) is then fit with decaying +
    growing radial powers, the growing column absorbing arc-truncation
    reflection.  A second fit with an R^(-lambda) log R column reports the
    spurious-log diagnostic.
    """
    lam_n = lambda_n(n, frame.theta)
    radii = np.linspace(Rmax / 4.0, Rmax / 2.0, L_N_RADII)
    tracks = []
    for R in radii:
        thetas, wts = map(np.concatenate,
                          zip(*_window_panels(frame.theta, R, L_EXCLUDE)))
        vals = evaluate(frame.point(R, thetas))
        resid = vals - (R ** lam_n * w0(thetas)
                        + R ** (lam_n - 1.0) * w1(thetas))
        tracks.append(fit_modes(resid, thetas, wts, frame.theta))

    ell, res_rel, log_rel = {}, {}, {}
    lnR = np.log(radii)
    for m, cm in zip(MODES, np.transpose(tracks)):
        lam = lambda_n(m, frame.theta)
        # decaying target power plus a growing power absorbing the
        # reflection of the truncated arc data
        if m == 0:
            B = np.column_stack([np.ones_like(radii),
                                 radii ** lambda_n(1, frame.theta)])
            logcol = lnR
        else:
            B = np.column_stack([radii ** (-lam), radii ** lam])
            logcol = radii ** (-lam) * lnR
        c, *_ = np.linalg.lstsq(B, cm, rcond=None)
        clog, *_ = np.linalg.lstsq(np.column_stack([B, logcol]), cm,
                                   rcond=None)
        scale = max(float(np.max(np.abs(cm))), 1e-300)
        ell[m] = complex(c[0])
        res_rel[m] = float(np.linalg.norm(B @ c - cm)
                           / (math.sqrt(len(radii)) * scale))
        log_rel[m] = float(abs(clog[-1]) / max(abs(clog[0]), 1e-300))
    return ell, res_rel, log_rel
