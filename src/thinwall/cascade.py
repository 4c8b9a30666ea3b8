"""Iterative construction of the macroscopic expansion terms.

The limit field u00 solves the waveguide problem with a continuous
interface.  Each correction is a hat field plus a list of cut-off Bessel
lifts, one per corner, and one routine (_solve_hat) solves for the hat:
the lifts' commutator loads are its source, and their slit jumps, read in
closed form from their angular profiles, are taken off the correction's
interface data.  The first correction u01 carries the effective jump data
built from the cell constants and the interface traces of u00; its
corner-singular part is a J_{lambda1 - 1} lift, so the hat's data is
bounded.  The second correction u20 is driven purely by the corners: its
lift is the decaying, jump-free Bessel mode Y_{lambda1}, with amplitude set
by the corner coefficient of u00 and the reflection coefficient of the
near-field problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .bessel import bessel_j_array, bessel_y_array
from .cell import EffectiveConstants
from .corner import (CornerFrame, LiftField, extract_ell, lambda_n,
                     mode_profiles, w_base)
from .cutoff import make_cutoff
from .errors import IndexUnsupported
from .exact import helmholtz_matrix, incident_robin_load
from .geometry import build_limit_domain
from .params import DomainParams
from .triangulate import triangulate

__all__ = ["CornerData", "CorrectionParts", "ExpansionSet",
           "build_limit_space", "limit_solver", "solve_transmission",
           "compute_u00", "compute_u01", "compute_u20", "build_expansion"]


@dataclass
class CornerData:
    frame: CornerFrame
    ell: dict           # m -> ell_m(u00)
    ell_scatter: dict   # m -> relative scatter of ell_m over the radii


def build_limit_space(p: DomainParams, h0=0.04, degree=3) -> fem.Space:
    """Mesh the slit limit domain and wrap it in a FEM space."""
    return fem.Space(triangulate(build_limit_domain(p), h0), degree)


def _interface_pairs(space: fem.Space):
    """Coincident (top, bottom) interface dof pairs, sorted by x1.

    The two crack tips are shared single dofs and are excluded: a jump
    cannot (and need not) be imposed there, the usable data vanishing into
    the lift subtraction near the corners.
    """
    top, bot = fem.paired_dofs(space, "GammaInterface_top",
                               "GammaInterface_bottom", 0)
    keep = top != bot
    return space.dof_coords[top[keep], 0], top[keep], bot[keep]


def limit_solver(space: fem.Space, p: DomainParams) -> fem.Solver:
    """The slit-domain Helmholtz operator, each lower-face interface dof
    tied to its upper-face partner, factored once for every expansion term.
    """
    cons = fem.Constraints(space)
    _, top, bot = _interface_pairs(space)
    cons.tie(bot, top)
    return fem.Solver(helmholtz_matrix(space, p), cons)


def solve_transmission(space: fem.Space, p: DomainParams, f=None, g=None,
                       h=None, boundary=None, solver=None) -> fem.Field:
    """Helmholtz solve on the slit domain with prescribed interface jumps.

    f is the volume source.  g is the trace jump across the interface
    (upper face minus lower face), eliminated: each lower-face dof is the
    matching upper-face dof minus g.  h is the jump of the vertical
    derivative (upper minus lower), entering as the natural load
    -int_Gamma h * mean(conj(v)).  boundary maps a boundary tag to its load
    q in int_tag q v ds, a constant or a callable (x, y) -> value: Neumann
    data, or the data of a Robin end, whose matrix part is in
    helmholtz_matrix.  solver is limit_solver(space, p), made here if not
    given.
    """
    if solver is None:
        solver = limit_solver(space, p)
    b = np.zeros(space.ndof, dtype=complex)
    if f is not None:
        b += fem.volume_load(space, f)
    for tag, load in (boundary or {}).items():
        b += fem.boundary_load(space, tag, load)
    if h is not None:
        hfun = lambda x, y: np.asarray(h(x), dtype=complex)
        b -= 0.5 * (fem.boundary_load(space, "GammaInterface_top", hfun)
                    + fem.boundary_load(space, "GammaInterface_bottom", hfun))
    d = np.zeros(space.ndof, dtype=complex)
    if g is not None:
        xs, _, bot = _interface_pairs(space)
        d[bot] = -np.asarray(g(xs), dtype=complex)
    u, _ = solver.solve(b, d)
    return fem.Field(space, u)


def compute_u00(p: DomainParams, space: fem.Space, solver=None):
    """Limit solve (continuous interface) plus corner coefficients."""
    u00 = solve_transmission(
        space, p, boundary={"GammaR_minus": incident_robin_load(p)},
        solver=solver)
    corners = {}
    for side in ("plus", "minus"):
        frame = CornerFrame(side, p.L, p.theta)
        corners[side] = CornerData(frame, *extract_ell(u00.evaluate, frame,
                                                       p.k0))
    return u00, corners


def _interface_samples(space: fem.Space):
    """Midpoints (sorted x1) of the upper interface edges."""
    edges = space.mesh.edges_with_tag("GammaInterface_top")
    mids = 0.5 * (space.mesh.nodes[edges[:, 0]] + space.mesh.nodes[edges[:, 1]])
    order = np.argsort(mids[:, 0])
    return mids[order]


class _Clamped:
    """Callable of x1 frozen to its limit values on the last stretch of the
    interface, keeping the discrete data bounded where the subtracted
    corner behaviour leaves only a removable mismatch."""

    def __init__(self, fun, L, width):
        self.fun, self.lim = fun, L - width

    def __call__(self, x):
        x = np.clip(np.asarray(x, dtype=float), -self.lim, self.lim)
        return self.fun(x)


@dataclass
class CorrectionParts:
    """One expansion term split as hat field + corner lifts."""

    hat: fem.Field
    lifts: list

    def evaluate(self, points, loc=None):
        out = self.hat.evaluate(points, loc=loc)
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        for lift in self.lifts:
            out = out + lift.value(pts[:, 0], pts[:, 1])
        return out


def _solve_hat(space: fem.Space, p: DomainParams, lifts, solver,
               g=None, h=None) -> CorrectionParts:
    """The correction hat + sum of lifts, with the hat solved on the shared
    factorisation.

    The hat's source is the sum of the lifts' commutator loads, and its
    interface data are g (trace jump) and h (x2-derivative jump) less the
    lifts' slit jumps, so hat + lifts carries g and h.  Without g and h the
    interface stays continuous; the lifts must then be jump-free, as
    u20's are.
    """
    def fhat(x, y):
        return sum(lift.commutator_load(x, y) for lift in lifts)

    ghat = hhat = None
    if g is not None:
        def jump(x, i):
            return sum(lift.slit_jumps(x)[i] for lift in lifts)

        # clamp only the tip stretch, twice the gap between the outermost
        # sample and its corner; the corner-graded mesh keeps that gap tiny
        xs = _interface_samples(space)[:, 0]
        width = 2.0 * float(max(xs[0] + p.L, p.L - xs[-1]))
        ghat = _Clamped(lambda x: g(x) - jump(x, 0), p.L, width)
        hhat = _Clamped(lambda x: h(x) - jump(x, 1), p.L, width)
    hat = solve_transmission(space, p, fhat, ghat, hhat, solver=solver)
    return CorrectionParts(hat=hat, lifts=lifts)


def compute_u01(p: DomainParams, space: fem.Space, u00: fem.Field,
                corners: dict, constants: EffectiveConstants,
                cutoff, solver) -> CorrectionParts:
    """First-order correction: effective-jump solve with singular lift.

    The interface data is built from spline-fitted traces of u00; its
    r^(lambda1 - 1)-singular content is carried by one cut-off
    J_{lambda1 - 1} lift per corner, whose profile has the slit jumps
    jump_data prescribes and whose amplitude is (k0 / (2 lambda1)) ell_1.
    """
    from scipy.interpolate import make_interp_spline

    lam1 = lambda_n(1, p.theta)
    cut = make_cutoff(cutoff)

    mids = _interface_samples(space)
    xs = mids[:, 0]
    trace = make_interp_spline(xs, u00.evaluate(mids))
    dx2 = make_interp_spline(xs, u00.gradient(mids)[:, 1])

    D1, D2 = constants.D1, constants.D2
    N1, N2, N3 = constants.N1, constants.N2, constants.N3

    def g01(x):
        return D1 * trace(x, nu=1) + D2 * dx2(x)

    def h01(x):
        return N1 * trace(x) + N2 * trace(x, nu=2) + N3 * dx2(x, nu=1)

    lifts = [LiftField(c.frame, bessel_j_array, lam1 - 1.0,
                       mode_profiles(1, side, constants, p.theta)[1],
                       cut, p.k0, coeff=(p.k0 / (2.0 * lam1)) * c.ell[1])
             for side, c in corners.items()]
    return _solve_hat(space, p, lifts, solver, g=g01, h=h01)


def compute_u20(p: DomainParams, space: fem.Space, corners: dict,
                L_minus_1: dict, cutoff, solver) -> CorrectionParts:
    """Second-order corner correction driven by the near-field reflection.

    Each corner contributes a decaying lift Y_{lambda1}(k0 r) cos(lambda1
    theta) with amplitude -pi * ell_1 * L_{-1} / (Gamma(lambda1) *
    Gamma(lambda1 + 1)) * (k0/2)^lambda2; the hat field repairs the cut-off
    commutator with homogeneous jumps.
    """
    lam1 = lambda_n(1, p.theta)
    lam2 = lambda_n(2, p.theta)
    cut = make_cutoff(cutoff)

    gam = math.gamma(lam1) * math.gamma(lam1 + 1.0)
    lifts = [LiftField(c.frame, bessel_y_array, lam1, w_base(1, p.theta), cut,
                       p.k0, coeff=(-math.pi * c.ell[1] * L_minus_1[side]
                                    / gam * (p.k0 / 2.0) ** lam2))
             for side, c in corners.items()]
    return _solve_hat(space, p, lifts, solver)


@dataclass
class ExpansionSet:
    """All macroscopic expansion terms of one configuration.

    The order-one terms u10 and u11 vanish identically for this family of
    layers and are not stored.
    """

    params: DomainParams
    constants: EffectiveConstants
    u00: fem.Field
    u01: CorrectionParts
    u20: CorrectionParts
    corners: dict

    def evaluate_terms(self, points):
        """(u00, u01, u20) values at points, sharing one mesh search."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        loc = self.u00.space.locate(pts)
        return (self.u00.evaluate(pts, loc=loc),
                self.u01.evaluate(pts, loc=loc),
                self.u20.evaluate(pts, loc=loc))

    def truncations(self, points, delta):
        """The truncations u00, u00 + delta u01 and
        u00 + delta u01 + delta^lambda2 u20 at points."""
        v00, v01, v20 = self.evaluate_terms(points)
        lam2 = lambda_n(2, self.params.theta)
        return (v00, v00 + delta * v01,
                v00 + delta * v01 + delta ** lam2 * v20)

    def truncation(self, order, points, delta):
        if order not in (0, 1, 2):
            raise IndexUnsupported(f"truncation order {order} not available")
        return self.truncations(points, delta)[order]


def build_expansion(p: DomainParams, constants: EffectiveConstants,
                    L_minus_1: dict, h0=0.04, degree=3,
                    cutoff="exp") -> ExpansionSet:
    """Run the whole cascade on a fresh limit mesh."""
    space = build_limit_space(p, h0=h0, degree=degree)
    # the three terms share one factorization, freed when this returns
    solver = limit_solver(space, p)
    u00, corners = compute_u00(p, space, solver)
    u01 = compute_u01(p, space, u00, corners, constants, cutoff, solver)
    u20 = compute_u20(p, space, corners, L_minus_1, cutoff, solver)
    return ExpansionSet(params=p, constants=constants, u00=u00, u01=u01,
                        u20=u20, corners=corners)
