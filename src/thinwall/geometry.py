"""Parametric construction of every meshed domain.

A GeometrySpec is a planar straight-line graph: one outer loop, optional
hole loops (with carve seeds), and optional internal constraint chains
(the slit interface).  All curved pieces (disk holes, truncation arcs) are
already polygonized here; the triangulator only ever sees straight segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HoleCollision, NonIntegerPeriod
from .params import DomainParams, HoleSpec

__all__ = [
    "GeometrySpec",
    "build_limit_domain",
    "build_perforated_domain",
    "build_cell_geometry",
    "build_cone_geometry",
]

ARC_STEP = 0.02  # largest angular step of the cone's truncation arc


@dataclass
class GeometrySpec:
    """Outer loop + hole loops + internal chains, with boundary tags.

    loops: list of (points (n,2), tags list of n) - edge i joins point i to
    point (i+1) mod n.  The first loop is the outer boundary; the rest are
    holes, each with a seed point in hole_seeds.
    chains: list of (points (n,2), tag) - open internal constraint chains;
    slit chains are doubled into node-disjoint copies after triangulation.
    corner_vertices: points the mesh is graded into when triangulate is
    given a GradingSpec.
    size_hints: list of (center, radius, h_local) - local sizing overrides,
    one per hole (_add_hole).
    """

    loops: list
    hole_seeds: list = field(default_factory=list)
    chains: list = field(default_factory=list)
    slit: bool = False
    corner_vertices: list = field(default_factory=list)
    size_hints: list = field(default_factory=list)

    def bbox(self):
        pts = np.vstack([p for p, _ in self.loops])
        return pts.min(axis=0), pts.max(axis=0)


def _rect_loop(x0, x1, y0, y1, tags):
    """Rectangle loop, CCW from (x0,y0); tags = (bottom, right, top, left)."""
    pts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    return pts, [tags[0], tags[1], tags[2], tags[3]]


def _add_hole(geo: GeometrySpec, poly: np.ndarray):
    """Append a hole loop, its carve seed and its size hint to geo.

    The hint holds the hole's longest edge h_loc out to the radius
    rad + 2 h_loc, with rad the hole's half-width.  Every domain sizes its
    holes by this one rule, so a cell or cone hole is meshed as the
    reference meshes it at scale delta.
    """
    geo.loops.append((poly, ["GammaHole"] * len(poly)))
    seed = tuple(poly.mean(axis=0))
    geo.hole_seeds.append(seed)
    h_loc = float(np.max(np.linalg.norm(np.roll(poly, -1, 0) - poly, axis=1)))
    rad = 0.5 * float(poly[:, 0].max() - poly[:, 0].min())
    geo.size_hints.append((seed, rad + 2.0 * h_loc, h_loc))


def _chamber_wall_points(p: DomainParams):
    """Lower chamber corners: wall foot points at depth Hp for each side.

    The wall leaves the corner (L, 0) in the direction (cos theta, sin theta)
    (sin theta < 0) and reaches depth -Hp at x = L - Hp cos(theta)/sin(theta).
    """
    xb_plus = p.L - p.Hp * math.cos(p.theta) / math.sin(p.theta)
    return -xb_plus, xb_plus


def _outline(p: DomainParams):
    """Outer loop of the limit/perforated domain, CCW, with tags."""
    xb_m, xb_p = _chamber_wall_points(p)
    pts = [
        (-p.Lp, 0.0),
        (-p.L, 0.0),
        (xb_m, -p.Hp),
        (xb_p, -p.Hp),
        (p.L, 0.0),
        (p.Lp, 0.0),
        (p.Lp, p.H),
        (-p.Lp, p.H),
    ]
    tags = ["GammaN"] * 5 + ["GammaR_plus", "GammaN", "GammaR_minus"]
    return np.array(pts), tags


def build_limit_domain(p: DomainParams) -> GeometrySpec:
    """Domain with the interface represented as an internal slit chain."""
    pts, tags = _outline(p)
    chain = np.array([[-p.L, 0.0], [p.L, 0.0]])
    return GeometrySpec(
        loops=[(pts, tags)],
        chains=[(chain, "GammaInterface_top")],
        slit=True,
        corner_vertices=[(-p.L, 0.0), (p.L, 0.0)],
    )


def build_perforated_domain(p: DomainParams, delta: float) -> GeometrySpec:
    """The physical domain with q = 2L/delta scaled holes along the layer."""
    q_real = 2.0 * p.L / delta
    q = round(q_real)
    if q < 1 or abs(q_real - q) > 1e-9 * q:
        raise NonIntegerPeriod(f"2L/delta = {q_real} is not a positive integer")
    if delta >= min(p.H, p.Hp):
        raise HoleCollision(f"delta = {delta} too large for the domain")
    pts, tags = _outline(p)
    geo = GeometrySpec(
        loops=[(pts, tags)],
        corner_vertices=[(-p.L, 0.0), (p.L, 0.0)],
    )
    if p.hole.is_empty:
        return geo
    canon = p.hole.polygon()
    for ell in range(q):
        poly = np.column_stack([
            -p.L + delta * (ell + canon[:, 0]),
            delta * canon[:, 1],
        ])
        if poly[:, 1].min() <= -p.Hp + 1e-12 or poly[:, 1].max() >= p.H - 1e-12:
            raise HoleCollision(f"hole {ell} leaves the domain vertically")
        if poly[:, 0].min() <= -p.Lp + 1e-12 or poly[:, 0].max() >= p.Lp - 1e-12:
            raise HoleCollision(f"hole {ell} leaves the domain horizontally")
        # chamber walls can slant inward for theta < 3 pi / 2
        if not _clears_chamber_walls(p, poly):
            raise HoleCollision(f"hole {ell} crosses a chamber wall")
        _add_hole(geo, poly)
    return geo


def _clears_chamber_walls(p: DomainParams, poly: np.ndarray) -> bool:
    """Check every polygon vertex lies on the domain side of both walls."""
    ct, st = math.cos(p.theta), math.sin(p.theta)
    walls = (
        ((p.L, 0.0), (st, -ct)),      # corner +, inward normal
        ((-p.L, 0.0), (-st, -ct)),    # corner -, mirrored
    )
    for corner, nrm in walls:
        rel = poly - np.asarray(corner)
        below = poly[:, 1] < 1e-15
        if np.any(below & (rel @ np.asarray(nrm) < 1e-12)):
            return False
    return True


def build_cell_geometry(h: HoleSpec, T: float) -> GeometrySpec:
    """Periodicity cell (0,1) x (-T,T) minus the canonical hole.

    The hole polygon's vertices are the graded corners: the kernel gradients
    have mild r^(lambda-1) singularities there that otherwise dominate the
    error of the cell's energy pairings.
    """
    if T < 4:
        raise ValueError("cell truncation must satisfy T >= 4")
    h.validate_in_cell()
    pts, tags = _rect_loop(0.0, 1.0, -T, T,
                           ("Truncation", "Periodic_right", "Truncation", "Periodic_left"))
    poly = h.polygon()
    geo = GeometrySpec(loops=[(pts, tags)],
                       corner_vertices=[tuple(v) for v in poly])
    if not h.is_empty:
        _add_hole(geo, poly)
    return geo


def build_cone_geometry(theta: float, Rmax: float,
                        polygon: np.ndarray) -> GeometrySpec:
    """Truncated perforated cone of the plus corner, for the near-field problems.

    The sector spans the angles (0, theta) about the origin, with a copy of
    the counter-clockwise cell polygon (cell units) in each period
    (-ell, 1 - ell) of the negative X1 axis.  The minus corner's cone is the
    image under x -> -x of this cone built on the polygon mirrored about
    X1 = 1/2 (nearfield.side_polygon).
    """
    if Rmax < 20:
        raise ValueError("Rmax >= 20 required")
    n_arc = max(64, int(math.ceil(theta / ARC_STEP)))
    ang = np.linspace(0.0, theta, n_arc + 1)
    arc = Rmax * np.column_stack([np.cos(ang), np.sin(ang)])
    pts = np.vstack([[0.0, 0.0], arc])
    tags = ["GammaN"] + ["Truncation"] * n_arc + ["GammaN"]
    geo = GeometrySpec(loops=[(pts, tags)], corner_vertices=[(0.0, 0.0)])
    n_holes = int(math.floor(Rmax)) if len(polygon) else 0
    for ell in range(1, n_holes + 1):
        poly = np.column_stack([polygon[:, 0] - ell, polygon[:, 1]])
        if np.max(np.hypot(poly[:, 0], poly[:, 1])) >= Rmax - 0.3:
            continue
        if np.min(np.hypot(poly[:, 0], poly[:, 1])) <= 0.3:
            continue
        _add_hole(geo, poly)
    return geo
