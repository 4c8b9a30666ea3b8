from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinwall.errors import HoleCollision, NonIntegerPeriod
from thinwall.geometry import (build_cell_geometry, build_cone_geometry,
                               build_limit_domain, build_perforated_domain)
from thinwall.nearfield import side_polygon
from thinwall.params import DomainParams, HoleSpec
from thinwall.triangulate import _make_sizing, triangulate


def test_limit_domain_outline_and_slit():
    p = DomainParams()
    geo = build_limit_domain(p)
    assert len(geo.loops) == 1
    pts, tags = geo.loops[0]
    assert tags.count("GammaR_plus") == 1
    assert tags.count("GammaR_minus") == 1
    assert tags.count("GammaN") == 6
    lo, hi = geo.bbox()
    np.testing.assert_allclose(lo, [-p.Lp, -p.Hp])
    np.testing.assert_allclose(hi, [p.Lp, p.H])
    chain, = geo.chains
    np.testing.assert_allclose(chain, [[-p.L, 0.0], [p.L, 0.0]])
    assert set(geo.corner_vertices) == {(-p.L, 0.0), (p.L, 0.0)}


def test_perforated_domain_hole_count_and_scaling():
    p = DomainParams()
    delta = 0.25
    geo = build_perforated_domain(p, delta)
    holes = geo.loops[1:]
    assert len(holes) == round(2 * p.L / delta) == 4
    for i, (poly, tags) in enumerate(holes):
        assert set(tags) == {"GammaHole"}
        center = poly.mean(axis=0)
        np.testing.assert_allclose(center[0], -p.L + delta * (i + 0.5),
                                   atol=1e-12)
        np.testing.assert_allclose(center[1], 0.0, atol=1e-12)
        radius = np.max(np.hypot(*(poly - center).T))
        np.testing.assert_allclose(radius, 0.15 * delta, rtol=1e-12)
        # a convex and counter-clockwise disk polygon
        d = np.roll(poly, -1, 0) - poly
        e = np.roll(d, -1, 0)
        assert np.all(d[:, 0] * e[:, 1] - d[:, 1] * e[:, 0] > 0)


def test_perforated_domain_rejects_bad_period():
    p = DomainParams()
    with pytest.raises(NonIntegerPeriod):
        build_perforated_domain(p, 0.3)
    with pytest.raises(HoleCollision):
        build_perforated_domain(p, 1.0)


def test_perforated_domain_no_hole():
    p = DomainParams(hole=HoleSpec(kind="none"))
    geo = build_perforated_domain(p, 0.125)
    assert len(geo.loops) == 1


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_perforated_holes_disjoint_and_inside(q):
    p = DomainParams()
    delta = 2.0 * p.L / q
    if delta >= min(p.H, p.Hp):
        return
    geo = build_perforated_domain(p, delta)
    centers = np.array([poly.mean(axis=0) for poly, _ in geo.loops[1:]])
    # neighbours are one period apart, leaving a gap of 0.7 delta
    if len(centers) > 1:
        gaps = np.diff(np.sort(centers[:, 0]))
        np.testing.assert_allclose(gaps, delta, rtol=1e-9)
    for poly, _ in geo.loops[1:]:
        assert np.all(np.abs(poly[:, 1]) < p.H)
        assert np.all(np.abs(poly[:, 0]) < p.L)


def test_cell_geometry_tags_and_bounds():
    geo = build_cell_geometry(HoleSpec(), T=6.0)
    pts, tags = geo.loops[0]
    assert tags.count("Periodic_left") == 1
    assert tags.count("Periodic_right") == 1
    assert tags.count("Truncation") == 2
    assert len(geo.loops) == 2  # the hole
    with pytest.raises(ValueError):
        build_cell_geometry(HoleSpec(), T=3.0)


def test_cone_geometry_holes_clear_corner_and_arc():
    geo = build_cone_geometry(1.5 * np.pi, 20.0, HoleSpec().polygon())
    assert geo.corner_vertices == [(0.0, 0.0)]
    for poly, tags in geo.loops[1:]:
        assert set(tags) == {"GammaHole"}
        r = np.hypot(poly[:, 0], poly[:, 1])
        assert r.min() > 0.3 - 1e-12
        assert r.max() < 20.0 - 0.3 + 1e-12
        assert np.all(poly[:, 0] < 0)  # plus side: holes on the negative axis
    with pytest.raises(ValueError):
        build_cone_geometry(1.5 * np.pi, 10.0, HoleSpec().polygon())


def test_cone_sides_mirror():
    # mapped by x -> -x, the plus-orientation cone on the minus side's
    # polygon has its holes at canon + (ell - 1), the minus corner's layout
    hole = HoleSpec(center=(0.45, 0.0))
    canon = hole.polygon()
    want = [canon + (ell - 1, 0.0) for ell in range(1, 21)]
    want = [q for q in want if 0.3 < np.hypot(*q.T).min()
            and np.hypot(*q.T).max() < 19.7]
    gm = build_cone_geometry(1.5 * np.pi, 20.0, side_polygon("minus", hole))
    assert len(gm.loops) == 1 + len(want)
    for (poly, _), q in zip(gm.loops[1:], want):
        # reversed back to the cell polygon's counter-clockwise order
        mirrored = np.column_stack([-poly[:, 0], poly[:, 1]])[::-1]
        np.testing.assert_allclose(mirrored, q, atol=1e-12)


def test_every_hole_is_sized_by_one_rule():
    # cell and cone holes are reference holes at delta = 1: the mesher holds
    # the canonical hole's h_loc out to rad + 2 h_loc from its centre and
    # grows it at slope 0.7 beyond, and a reference hole's size is that
    # size scaled by delta
    poly = HoleSpec().polygon()
    h_loc = np.max(np.linalg.norm(np.roll(poly, -1, 0) - poly, axis=1))
    reach = 0.5 * (poly[:, 0].max() - poly[:, 0].min()) + 2.0 * h_loc
    delta = 0.125
    for geo, scale in ((build_cell_geometry(HoleSpec(), T=6.0), 1.0),
                       (build_cone_geometry(1.5 * np.pi, 20.0, poly), 1.0),
                       (build_perforated_domain(DomainParams(), delta), delta)):
        assert len(geo.loops) > 1
        # without corner grading, and under a background size that caps
        # nothing, the holes alone set the size
        sizing = _make_sizing(replace(geo, grading_layers=0), 10.0)
        for hole, _ in geo.loops[1:]:
            cx, cy = hole.mean(axis=0)
            for r, want in ((0.0, h_loc), (0.99 * reach, h_loc),
                            (reach + 0.1, h_loc + 0.07)):
                np.testing.assert_allclose(sizing(cx, cy + r * scale),
                                           want * scale, rtol=1e-9)


def test_cell_geometry_grades_into_its_hole_vertices():
    hole = HoleSpec()
    geo = build_cell_geometry(hole, T=6.0)
    np.testing.assert_array_equal(np.array(geo.corner_vertices),
                                  hole.polygon())
    assert build_cell_geometry(HoleSpec(kind="none"), 6.0).corner_vertices == []


def test_cone_size_follows_its_background_mesh_size():
    # with the holes' fine plateau held to rad + 2 h_loc, halving the
    # background size must add elements between the holes as well
    geo = build_cone_geometry(1.5 * np.pi, 20.0, HoleSpec().polygon())
    coarse = triangulate(geo, 0.9).elements.shape[0]
    fine = triangulate(geo, 0.45).elements.shape[0]
    assert coarse <= 0.7 * fine
