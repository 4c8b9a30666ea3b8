"""Periodic cell problems on the perforated strip and the effective constants.

The cell is (0,1) x (-T,T) minus the canonical hole, 1-periodic in X1 and
closed with homogeneous Neumann conditions at |X2| = T (all correctors decay
super-algebraically, so the truncation error is negligible for T >= 6).

One periodic pure-Neumann Laplace operator is assembled and factored once
and solved twice: for W = D - X2 (hole data -n2) and for U1 (hole data
-n1).  Every constant is then a load pairing, W or U1 against a load the
solve has already formed.  By the adjoint identity a(U1, V) = <b_V, U1>
(Giles & Suli, Acta Numerica 11, 2002) this is the stiffness pairing of
U1 with the field V that load would give, to round-off, so the correctors
V11 and V12 are never solved.  It is exact because each load is projected
onto the balanced ones, which makes every row of the periodic system hold,
the fixed dof's included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .cutoff import make_cutoff
from .geometry import build_cell_geometry
from .params import HoleSpec
from .triangulate import triangulate

__all__ = ["CellSolution", "EffectiveConstants", "build_cell",
           "compute_constants"]


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
    """The cell's k0-free constants, the kernel profile W and its space."""

    hole: HoleSpec
    space: fem.Space
    W: fem.Field | None = None   # W = D - X2 (None when there is no hole)
    D_infty: float = 0.0
    D1: complex = 0.0
    N2: complex = 0.0
    N3: complex = 0.0


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


def build_cell(hole: HoleSpec, T: float = 6.0, h0: float = 0.06,
               degree: int = 3, cutoff: str = "exp") -> CellSolution:
    cut = make_cutoff(cutoff)
    mesh = triangulate(build_cell_geometry(hole, T), h0)
    space = fem.Space(mesh, degree)
    if hole.is_empty:
        return CellSolution(hole, space)
    # one periodic pure-Neumann Laplace operator, factored once; one dof on
    # the top edge, off the periodic edges, is fixed to remove the
    # constants from its kernel
    cons = fem.Constraints(space)
    cons.tie(*fem.paired_dofs(space, "Periodic_right", "Periodic_left", 1))
    xy = space.dof_coords
    cons.dirichlet(int(np.argmin(np.hypot(xy[:, 0] - 0.5, xy[:, 1] - T))))
    laplace = fem.Solver(fem.stiffness(space), cons)
    w = fem.volume_load(space, lambda x, y: np.ones_like(x))

    def balanced(b):
        # every profile's data has zero flux (the volume profiles below are
        # odd in X2), but quadrature leaves the load a small imbalance; take
        # it off along the constants' load, so that every row of the
        # periodic system holds, the fixed dof's included
        return b - b.sum() / w.sum() * w

    def solve(b):
        return _zero_far_bands(space, laplace.solve(b)[0], T)

    def hole_load(g):
        return balanced(fem.boundary_load_normal(space, "GammaHole", g))

    # W = D - X2: harmonic, dW/dn = -e2.n on the hole
    b_W = hole_load(lambda x, y, nx, ny: -ny)
    W = solve(b_W)
    # the pairing field: harmonic, dU1/dn = -e1.n on the hole
    b_U1 = hole_load(lambda x, y, nx, ny: -nx)
    U1 = solve(b_U1)
    area = _polygon_area(hole.polygon())
    # D1 = -int_Gamma D n1 is a(U1, W) (the polygon integral of X2 n1
    # vanishes exactly), and the energy identity gives the far-field offset
    # 2 D_infty = |B| + a(W, W)
    D1 = complex(U1.coeffs @ b_W)
    D_inf = 0.5 * float(np.real(area + W.coeffs @ b_W))

    # V11: -Lap V11 = D1 sign(X2) chi''/2, dV11/dn = -e1.n on the hole
    def f11(x, y):
        return 0.5 * D1 * np.sign(y) * cut(y)[2]

    # V12: -Lap V12 = 2 chi' + X2 chi'', homogeneous Neumann on the hole
    def f12(x, y):
        _, dchi, d2chi = cut(y)
        return 2.0 * dchi + y * d2chi

    # N2 = |B| + a(U1, V11) and N3 = a(U1, V12), each read off the load
    b_11 = balanced(fem.volume_load(space, f11)) + b_U1
    b_12 = balanced(fem.volume_load(space, f12))
    return CellSolution(hole, space, W, D_inf, D1,
                        N2=complex(area + U1.coeffs @ b_11),
                        N3=complex(U1.coeffs @ b_12))


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def compute_constants(cell: CellSolution, k0: float,
                      khat=None) -> EffectiveConstants:
    """Effective transmission constants from the cell's load pairings.

    The defining integrals are reduced analytically before any numerics.
    The strip integral of g vanishes (g is an exact second derivative with
    zero end slopes); the volume integrals of dV/dX1 reduce to hole-boundary
    fluxes by the divergence theorem; each remaining flux is a stiffness
    pairing a(U1, V) with the field U1 carrying the same hole data (test the
    U1 problem with the flux argument).  build_cell reads each such pairing
    as U1 against V's balanced load, exactly, so V is never solved.  The
    band integral of (2 chi' + X2 chi'') against the X1-averaged kernel
    collapses in closed form to 2 D_infty, because that average is exactly
    X2 +- D_infty where the cutoff varies.  Every constant is therefore a
    Galerkin energy quantity, superconvergent and independent of the cutoff
    profile.  Only N1 reads k0 and the index profile khat.
    """
    contrast = 0.0
    if khat is not None:
        pts, w = cell.space.quad_global()
        kh = np.asarray(khat(pts[:, 0], pts[:, 1]), dtype=complex)
        contrast = complex(np.sum(w * (kh ** 2 - k0 ** 2)))
    if cell.W is None:
        return EffectiveConstants(0.0, 0.0, -contrast, 0.0, 0.0, 0.0)

    # g == 1 on the hole (chi vanishes for |X2| < 1) and integrates to zero
    # over the full strip, so int_B g = -|hole|
    N1 = k0 ** 2 * _polygon_area(cell.hole.polygon()) - contrast
    return EffectiveConstants(complex(cell.D1), complex(2.0 * cell.D_infty),
                              complex(N1), complex(cell.N2),
                              complex(cell.N3), cell.D_infty)
