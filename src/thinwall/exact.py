"""Direct reference solve of the perforated waveguide problem.

The scattering problem: -Lap u - (k^delta)^2 u = 0 on the perforated
domain, homogeneous Neumann on hole boundaries and sound-hard walls, and
absorbing Robin conditions du/dn - i k0 u = data on the two vertical ends,
with the incident wave exp(i k0 (x1 - Lp)) entering from the left end.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from . import fem
from .geometry import build_perforated_domain
from .params import DomainParams
from .triangulate import triangulate

__all__ = ["ExactSolveResult", "kdelta_field", "helmholtz_matrix",
           "solve_exact", "incident_robin_load"]


def kdelta_field(p: DomainParams, delta: float):
    """Squared wavenumber (x, y) -> (k^delta)^2, vectorized.

    Equals k0^2 outside the layer strip (-L, L) x (-delta, delta) and the
    delta-scaled cell profile khat(x1/delta, x2/delta)^2 inside it.
    """
    k0sq = p.k0 ** 2

    def k2(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(x.shape, k0sq)
        if p.khat is None:
            return out
        inside = (np.abs(y) < delta) & (np.abs(x) < p.L)
        if np.any(inside):
            X1 = np.mod((x[inside] + p.L) / delta, 1.0)
            X2 = y[inside] / delta
            out[inside] = np.asarray(p.khat(X1, X2), dtype=float) ** 2
        return out

    return k2


def incident_robin_load(p: DomainParams):
    """Robin datum g = du_inc/dn - i k0 u_inc on the left end x1 = -Lp.

    For u_inc = exp(i k0 (x1 - Lp)) and outward normal (-1, 0) this is the
    constant -2 i k0 exp(-2 i k0 Lp).
    """
    return -2.0j * p.k0 * cmath.exp(-2.0j * p.k0 * p.Lp)


def _robin_mass(space: fem.Space):
    """Mass matrix of the two absorbing ends."""
    return (fem.boundary_mass(space, "GammaR_plus")
            + fem.boundary_mass(space, "GammaR_minus"))


def helmholtz_matrix(space: fem.Space, p: DomainParams, k2=None):
    """Weak form of -Lap u - k^2 u with du/dn - i k0 u on both ends.

    k2 is a vectorized (x, y) -> k^2 field; None means the constant k0^2.
    """
    mk = (p.k0 ** 2 * fem.mass(space) if k2 is None
          else fem.mass(space, coeff=k2))
    return fem.stiffness(space) - mk - 1.0j * p.k0 * _robin_mass(space)


@dataclass
class ExactSolveResult:
    field: fem.Field
    delta: float
    ndof: int
    residual: float
    h0: float
    degree: int
    params: DomainParams

    def flux_balance(self):
        """Relative defect of Im(weak form with v = u): absorbed vs injected.

        With v = u the imaginary part of the variational identity reduces to
        -k0 * int_{Gamma_R} |u|^2 = Im int_{Gamma_R^-} g conj(u).
        """
        p = self.params
        space = self.field.space
        u = self.field.coeffs
        lhs = -p.k0 * float(np.real(np.conj(u) @ (_robin_mass(space) @ u)))
        b = fem.boundary_load(space, "GammaR_minus", incident_robin_load(p))
        rhs = float(np.imag(np.conj(u) @ b))
        return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def solve_exact(p: DomainParams, delta: float, h0: float = 0.05,
                degree: int = 3, grading: int | None = None,
                max_dofs: int | None = None) -> ExactSolveResult:
    """Reference FEM solve of the perforated problem at layer period delta.

    grading, if given, replaces the domain's own depth of corner grading
    (GeometrySpec.grading_layers).  max_dofs caps the system size, keeping
    the direct factorisation inside the memory budget: a space with more
    dofs raises ValueError before anything is assembled.
    """
    geo = build_perforated_domain(p, delta)
    if grading is not None:
        geo = replace(geo, grading_layers=grading)
    mesh = triangulate(geo, h0)
    space = fem.Space(mesh, degree)
    if max_dofs is not None and space.ndof > max_dofs:
        raise ValueError(f"reference at delta={delta:g} has {space.ndof} "
                         f"P{degree} dofs, over the cap of {max_dofs}")
    A = helmholtz_matrix(space, p, kdelta_field(p, delta))
    b = fem.boundary_load(space, "GammaR_minus", incident_robin_load(p))
    u, residual = fem.solve(A, b)
    return ExactSolveResult(field=fem.Field(space, u), delta=delta,
                            ndof=space.ndof, residual=residual,
                            h0=h0, degree=degree, params=p)
