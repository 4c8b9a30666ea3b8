import functools
import importlib.util
import itertools
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from helpers import graded_over_period_3

from thinwall import fem
from thinwall.geometry import (GeometrySpec, _rect_loop, build_cell_geometry,
                               build_cone_geometry, build_limit_domain,
                               build_perforated_domain)
from thinwall.nearfield import side_polygon
from thinwall.params import DomainParams, HoleSpec
from thinwall.triangulate import (GRADING_SIGMA, MIN_ANGLE_DEG, SEAM, _incircle,
                                  _make_sizing, _orient, _period_box,
                                  _sample_edge, _tiled_periods, triangulate)


def square_geo():
    pts, tags = _rect_loop(0.0, 1.0, 0.0, 1.0,
                           ("GammaN", "GammaN", "GammaN", "GammaN"))
    return GeometrySpec(loops=[(pts, tags)])


def test_square_mesh_quality_and_area():
    mesh = triangulate(square_geo(), 0.15)
    areas = mesh.element_areas()
    assert np.all(areas > 0)  # positively oriented
    np.testing.assert_allclose(areas.sum(), 1.0, rtol=1e-12)
    assert mesh.min_angles_deg().min() >= 26.0
    # boundary edges close the perimeter
    e = mesh.nodes[mesh.boundary_edges]
    np.testing.assert_allclose(np.linalg.norm(e[:, 1] - e[:, 0],
                                              axis=1).sum(), 4.0, rtol=1e-12)


def test_sizing_controls_element_count():
    n_coarse = triangulate(square_geo(), 0.3).num_elements
    n_fine = triangulate(square_geo(), 0.15).num_elements
    assert 2.5 * n_coarse < n_fine < 8 * n_coarse


def test_corner_grading_refines_towards_tips():
    p = DomainParams()
    mesh = triangulate(replace(build_limit_domain(p), grading_layers=6), 0.2)
    pts = mesh.nodes[mesh.elements]
    diam = np.max([np.linalg.norm(pts[:, i] - pts[:, j], axis=1)
                   for i, j in ((0, 1), (1, 2), (2, 0))], axis=0)
    cent = pts.mean(axis=1)
    near = np.hypot(cent[:, 0] - p.L, cent[:, 1]) < 0.05
    far = np.hypot(cent[:, 0] - p.L, cent[:, 1]) > 1.0
    assert diam[near].max() < 0.3 * diam[far].max()


def test_slit_duplicates_interface_nodes():
    p = DomainParams()
    mesh = triangulate(replace(build_limit_domain(p), grading_layers=0), 0.2)
    top = mesh.edges_with_tag("GammaInterface_top")
    bot = mesh.edges_with_tag("GammaInterface_bottom")
    assert len(top) == len(bot) > 0
    tn, bn = np.unique(top), np.unique(bot)
    # geometrically coincident chains sharing only the two crack tips
    shared = np.intersect1d(tn, bn)
    assert len(shared) == 2
    np.testing.assert_allclose(np.sort(mesh.nodes[shared][:, 0]),
                               [-p.L, p.L], atol=1e-12)
    xs_t = np.sort(mesh.nodes[tn][:, 0])
    xs_b = np.sort(mesh.nodes[bn][:, 0])
    np.testing.assert_allclose(xs_t, xs_b, atol=1e-12)
    np.testing.assert_allclose(mesh.nodes[tn][:, 1], 0.0, atol=1e-12)


def test_perforated_mesh_resolves_holes():
    p = DomainParams()
    mesh = triangulate(replace(build_perforated_domain(p, 0.25),
                               grading_layers=6), 0.1)
    hole_edges = mesh.edges_with_tag("GammaHole")
    assert len(hole_edges) >= 4 * 32  # every polygonized hole fully meshed
    assert mesh.min_angles_deg().min() >= 26.0
    # no node may fall strictly inside any hole
    for ell in range(4):
        c = np.array([-p.L + 0.25 * (ell + 0.5), 0.0])
        d = np.hypot(*(mesh.nodes - c).T)
        inside = d < 0.15 * 0.25 * np.cos(np.pi / 32) - 1e-12
        assert not np.any(inside)


_ANG = 2.0 * np.pi * np.arange(32) / 32


@pytest.mark.parametrize("poly", [
    0.5 + 0.2 * np.column_stack([np.cos(_ANG), np.sin(_ANG)]),
    # a U whose vertex mean (0.5, 0.5) lies in its notch, in the domain
    np.array([(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.7, 0.8),
              (0.7, 0.3), (0.3, 0.3), (0.3, 0.8), (0.2, 0.8)]),
], ids=["disk", "U"])
def test_hole_loop_is_carved(poly):
    # a hand-built hole, with nothing but its loop to say it is one
    pts, tags = _rect_loop(0.0, 1.0, 0.0, 1.0, ("GammaN",) * 4)
    mesh = triangulate(GeometrySpec(loops=[(pts, tags),
                                           (poly, ["GammaHole"] * len(poly))]),
                       0.1)
    np.testing.assert_allclose(mesh.element_areas().sum(),
                               1.0 - _shoelace(poly), rtol=0, atol=1e-12)
    assert len(mesh.edges_with_tag("GammaHole")) >= len(poly)


def test_every_chain_is_a_slit():
    pts, tags = _rect_loop(-1.0, 1.0, -1.0, 1.0, ("GammaN",) * 4)
    chain = np.array([[-0.5, 0.0], [0.5, 0.0]])
    mesh = triangulate(GeometrySpec(loops=[(pts, tags)],
                                    chains=[chain]),
                       0.2)
    top = mesh.edges_with_tag("GammaInterface_top")
    bot = mesh.edges_with_tag("GammaInterface_bottom")
    assert len(top) == len(bot) > 0
    # the two faces share only the chain's ends
    shared = np.intersect1d(np.unique(top), np.unique(bot))
    np.testing.assert_allclose(np.sort(mesh.nodes[shared][:, 0]), [-0.5, 0.5])
    np.testing.assert_allclose(mesh.element_areas().sum(), 4.0, rtol=1e-12)
    # the lower face is told apart by y < 0, so a chain off y = 0 is refused
    with pytest.raises(ValueError, match="y = 0"):
        triangulate(GeometrySpec(loops=[(pts, tags)],
                                 chains=[chain + [0.0, 0.3]]), 0.2)


# -- exact predicates ------------------------------------------------------------

def _orient_oracle(ax, ay, bx, by, cx, cy):
    """Sign of the orientation determinant in exact rational arithmetic."""
    f = Fraction
    d = (f(bx) - f(ax)) * (f(cy) - f(ay)) - (f(by) - f(ay)) * (f(cx) - f(ax))
    return (d > 0) - (d < 0)


def _incircle_oracle(ax, ay, bx, by, cx, cy, dx, dy):
    """Sign of the incircle determinant in exact rational arithmetic."""
    fa = (Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy))
    fb = (Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy))
    fc = (Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy))
    la = fa[0] * fa[0] + fa[1] * fa[1]
    lb = fb[0] * fb[0] + fb[1] * fb[1]
    lc = fc[0] * fc[0] + fc[1] * fc[1]
    d = (fa[0] * (fb[1] * lc - fc[1] * lb)
         - fa[1] * (fb[0] * lc - fc[0] * lb)
         + la * (fb[0] * fc[1] - fc[0] * fb[1]))
    return (d > 0) - (d < 0)


def _sign(v):
    return (v > 0) - (v < 0)


def _with_ulp_moves(pts):
    """The point set, then a copy per coordinate moved one ulp each way."""
    yield pts
    for i, j, to in itertools.product(range(len(pts)), (0, 1),
                                      (-math.inf, math.inf)):
        moved = [list(p) for p in pts]
        moved[i][j] = math.nextafter(moved[i][j], to)
        yield [tuple(p) for p in moved]


def _degenerate_point_sets():
    top = _sample_edge((-2.5, 1.0), (2.5, 1.0), lambda x, y: 0.3)
    side = _sample_edge((1.0, -6.0), (1.0, 6.0), lambda x, y: 0.7)
    hole = build_perforated_domain(DomainParams(), 1 / 64).loops[20][0]
    ngon = [tuple(map(float, v)) for v in hole]
    x = 20.0 + 1e-5
    return [
        # collinear samples of axis-aligned edges
        [top[0], top[3], top[7], top[-1]],
        [side[1], side[2], side[9], side[-2]],
        # vertices of a delta = 1/64 hole: 32-gon, cocircular up to rounding
        [ngon[0], ngon[8], ngon[16], ngon[24]],
        [ngon[3], ngon[4], ngon[5], ngon[6]],
        [ngon[1], ngon[12], ngon[17], ngon[30]],
        # mixed magnitudes: exactly collinear, and an exact square at 20
        [(1e-5, 2e-5), (20.0, 40.0), (0.0, 0.0), (-1e-5, -2e-5)],
        [(20.0, 20.0), (x, 20.0), (x, x), (20.0, x)],
        [(1e-5, 0.0), (20.0, 0.0), (0.0, 20.0), (-20.0, 0.0)],
    ]


def test_predicates_match_exact_rational_signs():
    checked = 0
    for base in _degenerate_point_sets():
        for pts in _with_ulp_moves(base):
            for tri in itertools.combinations(pts, 3):
                args = [c for p in tri for c in p]
                assert _sign(_orient(*args)) == _orient_oracle(*args), tri
            for quad in (pts, pts[::-1], pts[1:] + pts[:1]):
                args = [c for p in quad for c in p]
                assert _sign(_incircle(*args)) == _incircle_oracle(*args), quad
                checked += 1
    assert checked == 3 * 8 * 17


def test_degenerate_inputs_give_zero():
    top = _sample_edge((-2.5, 1.0), (2.5, 1.0), lambda x, y: 0.3)
    assert _orient(*top[0], *top[4], *top[-1]) == 0.0
    assert _incircle(*top[0], *top[2], *top[4], *top[-1]) == 0.0
    x = 20.0 + 1e-5
    assert _incircle(20.0, 20.0, x, 20.0, x, x, 20.0, x) == 0.0


# -- sizing ----------------------------------------------------------------------

def _sizing_oracle(geo, h0):
    """The sizing rule evaluated over every hole and corner with numpy."""
    holes = [poly for poly, _ in geo.loops[1:]]
    if holes:
        hc = np.array([poly.mean(axis=0) for poly in holes])
        hh = np.array([np.max(np.linalg.norm(np.roll(poly, -1, 0) - poly,
                                             axis=1)) for poly in holes])
        hr = 0.5 * np.array([np.ptp(poly[:, 0]) for poly in holes]) + 2.0 * hh
    if geo.grading_layers and geo.corner_vertices:
        corners = np.array(geo.corner_vertices, dtype=float)
        h_min = h0 * GRADING_SIGMA ** geo.grading_layers
        slope = 1.0 - GRADING_SIGMA
    else:
        corners = None

    def sizing(x, y):
        val = h0
        if holes:
            d = np.hypot(hc[:, 0] - x, hc[:, 1] - y)
            val = min(val, float((hh + 0.7 * np.maximum(d - hr, 0.0)).min()))
        if corners is not None:
            dc = float(np.hypot(corners[:, 0] - x, corners[:, 1] - y).min())
            val = min(val, max(h_min, slope * dc))
        return val

    return sizing, (hc, hh, hr) if holes else None


def _sizing_probes(geo, h0, holes, rng):
    """About 2,000 points: uniform over the box and past it, every hole
    centre and corner vertex, each hole's plateau edge and reach, and the
    bucket edges of a grid sized by the longest reach."""
    lo, hi = geo.bbox()
    span = hi - lo
    pts = [tuple(p) for p in rng.uniform(lo - 0.2 * span, hi + 0.2 * span,
                                         (1500, 2))]
    pts += [tuple(map(float, v)) for v in geo.corner_vertices]
    reach = [2.0 * h0] if geo.grading_layers else []
    if holes is not None:
        hc, hh, hr = holes
        reach += list(hr + (h0 - hh) / 0.7)
        for c, r, e in zip(hc, hr, hr + (h0 - hh) / 0.7):
            ang = rng.uniform(0.0, 2.0 * math.pi, 2)
            pts.append(tuple(c))
            pts += [tuple(c + rad * np.array([math.cos(a), math.sin(a)]))
                    for rad in (r, e, 1.01 * e) for a in ang]
    side = 1.01 * max(reach, default=h0)
    k = rng.integers(-int(span.max() / side) - 2, int(span.max() / side) + 2,
                     (300, 2))
    edges = k * side
    pts += [tuple(p) for p in edges]
    pts += [(math.nextafter(x, -math.inf), y) for x, y in edges[:100]]
    pts += [(x, rng.uniform(lo[1], hi[1])) for x, _ in edges[100:200]]
    pts += [(1e3, -1e3), (-1e3, 1e3)]
    return [(float(x), float(y)) for x, y in pts]


@pytest.mark.parametrize("name", ["cell", "cone", "limit", "ref 1/8",
                                  "ref 1/16"])
def test_sizing_equals_the_rule_over_every_hole_and_corner(name):
    geo, h0 = {
        "cell": (build_cell_geometry(HoleSpec(), 6.0), 0.06),
        "cone": (build_cone_geometry(1.5 * math.pi, 20.0,
                                     side_polygon("plus", HoleSpec())), 0.45),
        "limit": (build_limit_domain(DomainParams()), 0.04),
        "ref 1/8": (build_perforated_domain(DomainParams(), 1 / 8), 0.05),
        "ref 1/16": (build_perforated_domain(DomainParams(), 1 / 16), 0.05),
    }[name]
    oracle, holes = _sizing_oracle(geo, h0)
    sizing = _make_sizing(geo, h0)
    pts = _sizing_probes(geo, h0, holes, np.random.default_rng(7))
    assert len(pts) > 1900
    got = [sizing(x, y) for x, y in pts]
    want = [oracle(x, y) for x, y in pts]
    assert got == want
    assert min(want) < h0 and max(want) == h0  # graded, plateaued and far


# -- mesh pin ----------------------------------------------------------------------

def _mesh_hashes_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "mesh_hashes.py"
    spec = importlib.util.spec_from_file_location("mesh_hashes", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_coarse_meshes_keep_their_hashes():
    """Node order, elements, boundary edges and tags of four coarse meshes,
    pinned byte for byte (tools/mesh_hashes.py prints all fourteen).  A
    mesher change that moves them is a change of the study's numbers.  The
    reference and the cone both tile their hole row, the cone's with unit
    period from an origin at -20, its tiled periods from x = -19."""
    tool = _mesh_hashes_tool()
    pins = {("cell", 0.15): "9dfeb3ab707c325d",
            ("cone", 0.9): "af02ba20da727697",
            ("limit", 0.08): "fe17d03fbef2837c",
            ("ref 1/8", 0.1): "21d7819da8064a7e"}
    got = {(name, h0): tool.mesh_hash(triangulate(build(), h0))
           for name, h0, build in tool.MESHES if (name, h0) in pins}
    assert got == pins


# -- periodic cell -----------------------------------------------------------------

def test_periodic_cell_keeps_its_bound_and_its_ties():
    """Refinement splits a periodic edge with its partner, so the coarse
    cell reaches the angle bound and its two edges stay translates."""
    mesh = triangulate(build_cell_geometry(HoleSpec(), 6.0), 0.15)
    assert mesh.min_angles_deg().min() >= MIN_ANGLE_DEG
    right = mesh.nodes[np.unique(mesh.edges_with_tag("Periodic_right"))]
    left = mesh.nodes[np.unique(mesh.edges_with_tag("Periodic_left"))]
    assert np.all(right[:, 0] == 1.0) and np.all(left[:, 0] == 0.0)
    np.testing.assert_array_equal(np.sort(right[:, 1]), np.sort(left[:, 1]))
    space = fem.Space(mesh, 3)
    a, b = fem.paired_dofs(space, "Periodic_right", "Periodic_left", 1)
    assert np.array_equal(np.sort(a), space.boundary_dofs("Periodic_right"))
    assert np.array_equal(np.sort(b), space.boundary_dofs("Periodic_left"))


# -- tiled hole rows -------------------------------------------------------------

# name: (geometry, h0, the periods tiled); every period but the one next to
# a corner or cut by the truncation arc is tiled
TILED = {
    "ref 1/8": (lambda: build_perforated_domain(DomainParams(), 1 / 8), 0.1,
                range(1, 7)),
    "ref 1/16": (lambda: build_perforated_domain(DomainParams(), 1 / 16), 0.1,
                 range(1, 15)),
    # the rest asks the tile for seam nodes beside the first and last copy
    "ref 1/32": (lambda: build_perforated_domain(DomainParams(), 1 / 32), 0.1,
                 range(1, 31)),
    "ref 1/64": (lambda: build_perforated_domain(DomainParams(), 1 / 64), 0.05,
                 range(1, 63)),
    "cone": (lambda: build_cone_geometry(1.5 * math.pi, 20.0,
                                         side_polygon("plus", HoleSpec())),
             0.9, range(1, 19)),
    "ref 1/8, graded over period 3": (graded_over_period_3, 0.1, [1, 5, 6]),
}


@functools.lru_cache(maxsize=None)
def _tiled(name):
    build, h0, _ = TILED[name]
    geo = build()
    return geo, h0, triangulate(geo, h0), _tiled_periods(geo, h0)


def _shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _in_box(points, box):
    x0, x1, y0, y1 = box
    return ((points[:, 0] > x0) & (points[:, 0] < x1)
            & (points[:, 1] > y0) & (points[:, 1] < y1))


@pytest.mark.parametrize("name", list(TILED))
def test_tiled_mesh_is_conforming_and_sound(name):
    geo, _, mesh, tiles = _tiled(name)
    assert sorted(tiles) == list(TILED[name][2])
    e = np.sort(mesh.elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, count = np.unique(e, axis=0, return_counts=True)
    assert count.max() == 2
    tagged = np.unique(np.sort(mesh.boundary_edges, axis=1), axis=0)
    np.testing.assert_array_equal(edges[count == 1], tagged)
    assert SEAM not in mesh.boundary_tags
    assert len(np.unique(mesh.elements)) == mesh.num_nodes
    assert mesh.min_angles_deg().min() >= 26.0
    area = _shoelace(geo.loops[0][0]) - sum(_shoelace(poly)
                                             for poly, _ in geo.loops[1:])
    np.testing.assert_allclose(mesh.element_areas().sum(), area, rtol=1e-12)


@pytest.mark.parametrize("name", list(TILED))
def test_tile_side_seams_hold_the_same_ys(name):
    """Refinement splits the tile's left and right seams in pairs."""
    geo, _, mesh, tiles = _tiled(name)
    x0, x1, y0, y1 = _period_box(geo.row, min(tiles))
    x, y = mesh.nodes[np.unique(mesh.elements[mesh.tiles[0]])].T
    left, right = np.sort(y[x == x0]), np.sort(y[x == x1])
    assert left[0] == right[0] == y0 and left[-1] == right[-1] == y1
    np.testing.assert_array_equal(left, right)


@pytest.mark.parametrize("name", list(TILED))
def test_every_hole_keeps_its_edges(name):
    geo, _, mesh, _ = _tiled(name)
    holes = [poly for poly, _ in geo.loops[1:]]
    centres = np.array([poly.mean(axis=0) for poly in holes])
    ends = mesh.nodes[mesh.edges_with_tag("GammaHole")]
    mid = ends.mean(axis=1)
    owner = np.argmin(np.hypot(*(mid[:, None, :] - centres[None]).T), axis=0)
    length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    for i, poly in enumerate(holes):
        assert np.sum(owner == i) >= len(poly) == 32
        perimeter = np.linalg.norm(np.roll(poly, -1, 0) - poly, axis=1).sum()
        np.testing.assert_allclose(length[owner == i].sum(), perimeter,
                                   rtol=1e-12)
        # each polygon vertex is a mesh node
        gap = np.hypot(*(poly[:, None, :] - mesh.nodes[None]).T).min(axis=0)
        assert gap.max() < 1e-12 * geo.row.period


def _canonical(tris):
    """Triangles (n, 3, 2) as one sorted array: vertices in lexicographic
    order within each triangle, then the triangles in order."""
    order = np.lexsort((tris[:, :, 1], tris[:, :, 0]), axis=1)
    tris = np.take_along_axis(tris, order[:, :, None], axis=1).reshape(-1, 6)
    return tris[np.lexsort(tris.T[::-1])]


@pytest.mark.parametrize("name", list(TILED))
def test_tiled_periods_are_the_tile_translated(name):
    geo, _, mesh, tiles = _tiled(name)
    row = geo.row
    tris = mesh.nodes[mesh.elements]
    centroid = tris.mean(axis=1)
    k0 = min(tiles)
    tile = _canonical(tris[_in_box(centroid, _period_box(row, k0))])
    for k in tiles:
        mine = tris[_in_box(centroid, _period_box(row, k))].copy()
        mine[:, :, 0] -= (k - k0) * row.period
        got = _canonical(mine)
        assert got.shape == tile.shape
        np.testing.assert_allclose(got, tile, rtol=0,
                                   atol=1e-12 * abs(row.origin[0]) + 1e-15)


@pytest.mark.parametrize("name", list(TILED))
def test_tiled_periods_are_sized_as_the_tile(name):
    geo, h0, _, tiles = _tiled(name)
    row = geo.row
    sizing = _make_sizing(geo, h0)
    k0 = min(tiles)
    x0, x1, y0, y1 = _period_box(row, k0)
    box = (np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]), [SEAM] * 4)
    tile_sizing = _make_sizing(GeometrySpec(loops=[box, geo.loops[tiles[k0]]]),
                               h0)
    rng = np.random.default_rng(3)
    local = np.vstack([rng.uniform((0.0, y0), (row.period, y1), (60, 2)),
                       [(0.0, y0), (row.period, y0), (0.0, y1),
                        (row.period, y1), (0.5 * row.period, y0)]])
    for k in tiles:
        for dx, y in local:
            want = tile_sizing(x0 + dx, y)
            got = sizing(_period_box(row, k)[0] + dx, y)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["ref 1/8", "cone",
                                  "ref 1/8, graded over period 3"])
def test_tile_map_lists_each_copy_translated(name):
    """Row c of mesh.tiles is the copy in period k: copy 0's triangles,
    vertex by vertex, and its dofs, position by position, moved by
    (k - k0) periods."""
    geo, _, mesh, tiles = _tiled(name)
    row = geo.row
    assert len(np.unique(mesh.tiles)) == mesh.tiles.size
    tris = mesh.nodes[mesh.elements[mesh.tiles]]
    k = np.floor((tris[..., 0].mean(axis=(1, 2)) - row.origin[0])
                 / row.period).astype(int)
    assert list(k) == sorted(tiles)
    space = fem.Space(mesh, 3)
    dofs = space.dof_coords[space.element_dofs[mesh.tiles]]
    for xy in (tris, dofs):
        moved = xy.copy()
        moved[..., 0] -= (k - k[0])[:, None, None] * row.period
        np.testing.assert_allclose(moved, np.broadcast_to(xy[0], xy.shape),
                                   rtol=0,
                                   atol=1e-12 * abs(row.origin[0]) + 1e-15)


def test_untiled_mesh_has_an_empty_tile_map():
    assert triangulate(square_geo(), 0.3).tiles.shape == (0, 0)
