"""Parametric construction of every meshed domain.

A GeometrySpec is a planar straight-line graph: one outer loop, optional
hole loops, and optional internal constraint chains (the slit interface).
All curved pieces (disk holes, truncation arcs) are already polygonized
here; the triangulator only ever sees straight segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import HoleCollision, NonIntegerPeriod
from .params import DomainParams, HoleSpec

__all__ = [
    "GeometrySpec",
    "HoleRow",
    "build_limit_domain",
    "build_perforated_domain",
    "build_cell_geometry",
    "build_cone_geometry",
]

ARC_STEP = 0.02  # largest angular step of the cone's truncation arc
CELL_T_MIN = 4.0      # least half-height T of the periodicity cell
CONE_RMAX_MIN = 20.0  # least truncation radius of the corner cone


class HoleRow(NamedTuple):
    """A row of congruent holes: period k is the box [x + k p, x + (k+1) p]
    x [y - p/2, y + p/2] about origin (x, y), for 0 <= k < count."""

    origin: tuple
    period: float
    count: int


@dataclass
class GeometrySpec:
    """Outer loop + hole loops + internal chains, with boundary tags.

    loops: list of (points (n,2), tags list of n) - edge i joins point i to
    point (i+1) mod n.  The first loop is the outer boundary; the rest are
    holes, each a simple polygon of any shape, disjoint from the other loops.
    chains: list of points (n,2) - open internal constraint polylines.
    Every chain is a slit on y = 0 (triangulate raises ValueError for any
    other): it is doubled into node-disjoint copies after triangulation,
    tagged GammaInterface_top and GammaInterface_bottom, the lower copy
    taken by the elements below y = 0.
    corner_vertices: points the mesh is graded into.
    grading_layers: depth of that grading: the mesh size halves towards a
    corner vertex down to h0 / 2^grading_layers; 0 leaves it ungraded.
    row: the HoleRow the hole loops repeat along, or None.  triangulate
    meshes one period box with its hole once, its edges (the seams)
    sampled at its sizing and split by refinement, the left and right ones
    in pairs, and tiles it over every period whose box lies inside the
    domain and is sized by its own hole alone: the corner grading is
    nowhere finer on it.
    A period box holds the hole whose centroid falls in it.  None meshes
    every hole on its own.
    Together with the hole loops, whose sizing triangulate derives from
    their edges, these are everything the mesher reads besides h0.
    """

    loops: list
    chains: list = field(default_factory=list)
    corner_vertices: list = field(default_factory=list)
    grading_layers: int = 0
    row: HoleRow | None = None

    def bbox(self):
        pts = np.vstack([p for p, _ in self.loops])
        return pts.min(axis=0), pts.max(axis=0)


def _rect_loop(x0, x1, y0, y1, tags):
    """Rectangle loop, CCW from (x0,y0); tags = (bottom, right, top, left)."""
    pts = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    return pts, [tags[0], tags[1], tags[2], tags[3]]


def _add_hole(geo: GeometrySpec, poly: np.ndarray):
    """Append a hole loop to geo."""
    geo.loops.append((poly, ["GammaHole"] * len(poly)))


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
        chains=[chain],
        corner_vertices=[(-p.L, 0.0), (p.L, 0.0)],
        grading_layers=9,
    )


def build_perforated_domain(p: DomainParams, delta: float) -> GeometrySpec:
    """The physical domain with q = 2L/delta scaled holes along the layer,
    its row of period delta from x = -L."""
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
        grading_layers=8,
        row=HoleRow((-p.L, 0.0), delta, q),
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
    if not T >= CELL_T_MIN:
        raise ValueError(f"cell truncation must satisfy T >= {CELL_T_MIN:g}")
    h.validate_in_cell()
    pts, tags = _rect_loop(0.0, 1.0, -T, T,
                           ("Truncation", "Periodic_right", "Truncation", "Periodic_left"))
    poly = h.polygon()
    geo = GeometrySpec(loops=[(pts, tags)],
                       corner_vertices=[tuple(v) for v in poly],
                       grading_layers=4)
    if not h.is_empty:
        _add_hole(geo, poly)
    return geo


def build_cone_geometry(theta: float, Rmax: float,
                        polygon: np.ndarray) -> GeometrySpec:
    """Truncated perforated cone of the plus corner, for the near-field problems.

    The sector spans the angles (0, theta) about the origin, with a copy of
    the counter-clockwise cell polygon (cell units) in each period
    (-ell, 1 - ell) of the negative X1 axis, which is its row of unit
    period.  The minus corner's cone is the
    image under x -> -x of this cone built on the polygon mirrored about
    X1 = 1/2 (nearfield.side_polygon).
    """
    if not Rmax >= CONE_RMAX_MIN:
        raise ValueError(f"Rmax >= {CONE_RMAX_MIN:g} required")
    n_arc = max(64, int(math.ceil(theta / ARC_STEP)))
    ang = np.linspace(0.0, theta, n_arc + 1)
    arc = Rmax * np.column_stack([np.cos(ang), np.sin(ang)])
    pts = np.vstack([[0.0, 0.0], arc])
    tags = ["GammaN"] + ["Truncation"] * n_arc + ["GammaN"]
    n_holes = int(math.floor(Rmax)) if len(polygon) else 0
    geo = GeometrySpec(loops=[(pts, tags)], corner_vertices=[(0.0, 0.0)],
                       grading_layers=6,
                       row=HoleRow((-float(n_holes), 0.0), 1.0, n_holes))
    for ell in range(1, n_holes + 1):
        poly = np.column_stack([polygon[:, 0] - ell, polygon[:, 1]])
        if np.max(np.hypot(poly[:, 0], poly[:, 1])) >= Rmax - 0.3:
            continue
        if np.min(np.hypot(poly[:, 0], poly[:, 1])) <= 0.3:
            continue
        _add_hole(geo, poly)
    return geo
