"""Periodic cell problems on the perforated strip and the effective constants.

The cell is (0,1) x (-T,T) minus the canonical hole, 1-periodic in X1 and
closed with homogeneous Neumann conditions at |X2| = T (all correctors decay
super-algebraically, so the truncation error is negligible for T >= 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .cutoff import CutoffSpec, make_cutoff
from .errors import CompatibilityViolated
from .geometry import build_cell_geometry
from .params import HoleSpec
from .triangulate import GradingSpec, triangulate

__all__ = ["CellSolution", "EffectiveConstants", "build_cell",
           "compute_constants"]

COMPAT_TOL = 1e-6


@dataclass
class EffectiveConstants:
    D1: complex
    D2: complex
    N1: complex
    N2: complex
    N3: complex
    D_infty: float

    def as_dict(self):
        return {"D1": self.D1, "D2": self.D2, "N1": self.N1,
                "N2": self.N2, "N3": self.N3, "D_infty": self.D_infty}


@dataclass
class CellSolution:
    hole: HoleSpec
    space: fem.Space
    W: fem.Field | None      # W = D - X2 (None when there is no hole)
    D_infty: float
    V11: fem.Field | None
    V12: fem.Field | None
    U1: fem.Field | None = None   # harmonic pairing field, hole data -e1.n
    K: object = None              # periodic-cell stiffness matrix
    D1: complex = 0.0

    def D_value(self, pts):
        """Kernel profile D = X2 + W at cell points."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        base = pts[:, 1].astype(complex)
        if self.W is None:
            return base
        return base + self.W.evaluate(pts)


def _band_average(space, vals_at_quad, lo, hi):
    pts, w = space.quad_global()
    sel = (pts[:, 1] > lo) & (pts[:, 1] < hi)
    return np.sum(w[sel] * vals_at_quad[sel]) / np.sum(w[sel])


def _zero_far_bands(space, coeffs, T):
    """Shift by a constant so the far-band averages vanish (or are opposite)."""
    f = fem.Field(space, coeffs)
    vals = f.values_at_own_quad()
    top = _band_average(space, vals, T - 1.0, T)
    bot = _band_average(space, vals, -T, -(T - 1.0))
    return fem.Field(space, coeffs - 0.5 * (top + bot))


def _balanced_load(space: fem.Space, f, scale, name):
    """Volume load of an X2-only profile f supported in 1 < |X2| < 2.

    Its integral, taken adaptively in 1D, must vanish: the hole data of
    every profile has zero flux, so a decaying solution needs balanced f.
    """
    from scipy.integrate import quad

    cN = 0.0
    for lo, hi in ((-2.0, -1.0), (1.0, 2.0)):
        cN += quad(lambda y: float(np.real(f(0.0, np.array([y]))[0])),
                   lo, hi, limit=200)[0]
    if abs(cN) > COMPAT_TOL * scale:
        raise CompatibilityViolated(f"{name} data imbalance {cN:.2e}")
    return fem.volume_load(space, f)


def _energy_pairing(K, a: fem.Field, b: fem.Field) -> complex:
    """Stiffness pairing of two solved fields.

    By Galerkin orthogonality this reproduces the continuous bilinear form
    up to an error *quadratic* in the solution errors, so the constants
    below converge roughly twice as fast as trace-integral extractions.
    """
    return complex(a.coeffs @ (K @ b.coeffs))


def build_cell(hole: HoleSpec, T: float = 6.0, h0: float = 0.06,
               degree: int = 3, cutoff="exp") -> CellSolution:
    cut = cutoff if isinstance(cutoff, CutoffSpec) else make_cutoff(cutoff)
    mesh = triangulate(build_cell_geometry(hole, T), h0,
                       GradingSpec(sigma=0.5, n_layers=4))
    space = fem.Space(mesh, degree)
    if hole.is_empty:
        return CellSolution(hole, space, None, 0.0, None, None)
    # one periodic pure-Neumann Laplace operator, factored once, serves
    # every profile; its stiffness also gives the energy pairings.  One dof
    # on the top edge, off the periodic edges, is fixed to remove the
    # constants from its kernel
    K = fem.stiffness(space)
    cons = fem.Constraints(space)
    cons.tie(*fem.paired_dofs(space, "Periodic_right", "Periodic_left", 1))
    xy = space.dof_coords
    cons.dirichlet(int(np.argmin(np.hypot(xy[:, 0] - 0.5, xy[:, 1] - T))))
    laplace = fem.Solver(K, cons)
    w = fem.volume_load(space, lambda x, y: np.ones_like(x))

    def solve(b):
        # quadrature leaves a balanced load a small discrete imbalance; take
        # it off along the constants' load, so that every row of the periodic
        # system holds, the fixed dof's included
        b = b - b.sum() / w.sum() * w
        return _zero_far_bands(space, laplace.solve(b)[0], T)

    # W = D - X2: harmonic, dW/dn = -e2.n on the hole
    W = solve(fem.boundary_load_normal(space, "GammaHole",
                                       lambda x, y, nx, ny: -ny))
    # pairing field: same hole data as V11, no volume term (cutoff-free)
    hole_data = fem.boundary_load_normal(space, "GammaHole",
                                         lambda x, y, nx, ny: -nx)
    U1 = solve(hole_data)
    # D1 = -int_Gamma D n1 reduces to the U1/W stiffness pairing by testing
    # the U1 problem with W (the polygon integral of X2 n1 vanishes exactly)
    D1 = _energy_pairing(K, U1, W)
    # far-field offset from the energy identity 2 D_infty = |B| + a(W, W)
    D_inf = 0.5 * float(np.real(_polygon_area(hole.polygon())
                                + _energy_pairing(K, W, W)))

    # -Lap V11 = D1 sign(X2) chi''/2, dV11/dn = -e1.n on the hole
    def f11(x, y):
        return 0.5 * D1 * np.sign(y) * cut.d2chi(y)

    V11 = solve(_balanced_load(space, f11, max(abs(D1), 1.0), "V11")
                + hole_data)

    # -Lap V12 = 2 chi' + X2 chi'', homogeneous Neumann on the hole
    def f12(x, y):
        return 2.0 * cut.dchi(y) + y * cut.d2chi(y)

    V12 = solve(_balanced_load(space, f12, 1.0, "V12"))
    return CellSolution(hole, space, W, D_inf, V11, V12,
                        U1=U1, K=K, D1=D1)


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def compute_constants(cell: CellSolution, k0: float,
                      khat=None) -> EffectiveConstants:
    """Effective transmission constants from the solved cell profiles.

    The defining integrals are reduced analytically before any numerics.
    The strip integral of g vanishes (g is an exact second derivative with
    zero end slopes); the volume integrals of dV/dX1 reduce to hole-boundary
    fluxes by the divergence theorem; each remaining flux is then turned
    into a stiffness pairing with the field U1 carrying the same hole data
    (test the U1 problem with the flux argument).  The band integral of
    (2 chi' + X2 chi'') against the X1-averaged kernel collapses in closed
    form to 2 D_infty, because that average is exactly X2 +- D_infty where
    the cutoff varies.  Every constant is therefore a Galerkin energy
    quantity, superconvergent and independent of the cutoff profile.
    """
    contrast = 0.0
    if khat is not None:
        pts, w = cell.space.quad_global()
        kh = np.asarray(khat(pts[:, 0], pts[:, 1]), dtype=complex)
        contrast = complex(np.sum(w * (kh ** 2 - k0 ** 2)))
    if cell.W is None:
        return EffectiveConstants(0.0, 0.0, -contrast, 0.0, 0.0, 0.0)

    hole_area = _polygon_area(cell.hole.polygon())

    D1 = cell.D1
    D2 = 2.0 * cell.D_infty

    # g == 1 on the hole (chi vanishes for |X2| < 1) and integrates to zero
    # over the full strip, so int_B g = -|hole|
    N1 = k0 ** 2 * hole_area - contrast
    N2 = hole_area + _energy_pairing(cell.K, cell.U1, cell.V11)
    N3 = _energy_pairing(cell.K, cell.U1, cell.V12)

    return EffectiveConstants(complex(D1), complex(D2), complex(N1),
                              complex(N2), complex(N3), cell.D_infty)
