from dataclasses import replace

import numpy as np

from thinwall.geometry import (GeometrySpec, _rect_loop, build_limit_domain,
                               build_perforated_domain)
from thinwall.params import DomainParams
from thinwall.triangulate import triangulate


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
