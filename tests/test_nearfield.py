import json
import math

import numpy as np
import pytest

from helpers import OddConstants, minus_corner_profiles
from thinwall import fem, nearfield
from thinwall.corner import (CornerFrame, lambda_n, mode_profiles,
                             solve_angular_profile, w_base)
from thinwall.cutoff import make_cutoff
from thinwall.errors import ExtractionUnstable
from thinwall.geometry import ARC_STEP, GeometrySpec, _add_hole
from thinwall.nearfield import (_window_panels, arc_data, blended_w1,
                                extract_L, solve_S)
from thinwall.params import HoleSpec
from thinwall.triangulate import triangulate

THETA = 1.5 * math.pi
CUT = make_cutoff("exp")


class StubConstants:
    D1, D2, N2, N3 = 0.0, 0.15, 0.13, 0.0


def _w1():
    return solve_angular_profile(1, 0.4 - 0.1j, 0.2j, THETA)


def test_blended_w1_branches_and_continuity():
    w1 = _w1()
    thetas = np.full(5, math.pi - 0.3)
    # far above the layer: pure upper branch; far below: same angle still
    # picks the upper cosine piece, so blending only acts inside the layer
    up = blended_w1(w1, thetas, np.full(5, 5.0), CUT)
    np.testing.assert_allclose(up, w1(thetas))
    lo_angle = np.full(5, math.pi + 0.3)
    low = blended_w1(w1, lo_angle, np.full(5, -5.0), CUT)
    np.testing.assert_allclose(low, w1.b * np.cos(w1.mu * (lo_angle - THETA)))
    # at y = 0 the two branches are averaged -> continuous across the row
    mid_up = blended_w1(w1, thetas, np.zeros(5), CUT)
    mid_low = blended_w1(w1, thetas, -1e-14 * np.ones(5), CUT)
    np.testing.assert_allclose(mid_up, mid_low, atol=1e-12)
    # a jump-free profile passes through unchanged
    w0 = w_base(1, THETA)
    np.testing.assert_allclose(blended_w1(w0, thetas, np.full(5, -5.0), CUT),
                               w0(thetas))


def test_arc_data_continuous_across_layer():
    frame = CornerFrame("plus", 0.0, THETA)
    w0 = w_base(1, THETA)
    data = arc_data(1, frame, w0, _w1(), CUT)
    R = 20.0
    x = -math.sqrt(R * R - 1e-8)
    assert abs(data(np.array([x]), np.array([1e-4]))[0]
               - data(np.array([x]), np.array([-1e-4]))[0]) < 1e-3


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_window_panels_avoid_layer(side):
    frame = CornerFrame(side, 0.0, THETA)
    R, exclude = 8.0, 3.0
    panels = _window_panels(THETA, R, exclude)
    assert panels
    total = 0.0
    for thetas, wts in panels:
        pts = frame.point(R, thetas)
        assert np.all(np.abs(pts[:, 1]) > exclude)
        # the points lie in this corner's own sector
        r, th = frame.polar(pts[:, 0], pts[:, 1])
        np.testing.assert_allclose(r, R, rtol=1e-14)
        assert np.all((th > 0.0) & (th < THETA))
        total += wts.sum()
    # three excluded arcs of half-width asin(exclude/R) land in the sector
    expected = THETA - 3.0 * math.asin(exclude / R)
    np.testing.assert_allclose(total, expected, rtol=1e-12)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_extract_L_synthetic_injection(side):
    frame = CornerFrame(side, 0.0, THETA)
    w0 = w_base(1, THETA)
    w1 = _w1()
    lam1 = lambda_n(1, THETA)
    amps = {0: 0.31, 1: -0.042, 2: 0.0075, 3: -0.0011}
    modes = {m: w_base(m, THETA) for m in amps}

    def u(pts):
        r, th = frame.polar(pts[:, 0], pts[:, 1])
        out = r ** lam1 * w0(th) + r ** (lam1 - 1.0) * w1(th)
        for m, a in amps.items():
            out = out + a * r ** (-lambda_n(m, THETA)) * modes[m](th)
        return out

    ell, res, logc = extract_L(u, frame, 1, w0, w1, 40.0)
    for m, a in amps.items():
        np.testing.assert_allclose(ell[m], a, rtol=1e-6)
        assert res[m] < 1e-8
        assert logc[m] < 1e-3


def _count_cones(monkeypatch):
    """Count the meshes and factorisations solve_S makes."""
    calls = {"triangulate": 0, "splu": 0}
    tri, splu = nearfield.triangulate, fem.splu

    def counted_tri(*args, **kwargs):
        calls["triangulate"] += 1
        return tri(*args, **kwargs)

    def counted_splu(A, **kw):
        calls["splu"] += 1
        return splu(A, **kw)

    monkeypatch.setattr(nearfield, "triangulate", counted_tri)
    monkeypatch.setattr(fem, "splu", counted_splu)
    return calls


@pytest.fixture(scope="module")
def symmetric_cones():
    """Both corners of the mirror-symmetric default hole, and the meshes
    and factorisations it took."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_cones(mp)
        sols = solve_S(("plus", "minus"), 1, StubConstants, HoleSpec(),
                       Rmax=20.0, h0=0.6, degree=2)
    return sols, calls


def test_solve_S_smoke_and_serialization(symmetric_cones):
    sols, _ = symmetric_cones
    assert set(sols) == {"plus", "minus"}
    for side, sol in sols.items():
        assert sol.side == side
        assert sol.ndof > 0
        assert set(sol.ell) == {0, 1, 2, 3}
        # the leading decaying amplitude is a clean O(0.01-0.1) real number
        assert 1e-3 < abs(sol.ell[1]) < 0.5
        assert abs(sol.ell[1].imag) < 1e-3 * abs(sol.ell[1])
        assert sol.radial_residual[1] < 0.05
        out = json.loads(json.dumps(sol.as_dict()))
        assert out["reused_factorization"] is (side == "minus")


def test_symmetric_hole_meshes_and_factors_one_cone(symmetric_cones):
    sols, calls = symmetric_cones
    # one cone: its tile interior and its reduced system
    assert calls == {"triangulate": 1, "splu": 2}
    assert sols["minus"].ndof == sols["plus"].ndof


def test_asymmetric_hole_meshes_two_cones(monkeypatch):
    calls = _count_cones(monkeypatch)
    sols = solve_S(("plus", "minus"), 1, StubConstants,
                   HoleSpec(center=(0.45, 0.0)), Rmax=20.0, h0=0.6, degree=2)
    assert calls == {"triangulate": 2, "splu": 4}
    assert not any(s.reused_factorization for s in sols.values())


def test_condensed_cone_equals_the_full_one():
    # the cone's tiled copies condensed onto their seams, against the whole
    # stiffness factored at once, under the same arc data
    cone = nearfield._build_cone(HoleSpec().polygon(), THETA, 20.0, 0.9, 2)
    space = cone.space
    assert len(space.mesh.tiles) > 1
    assert cone.solver.A_red.shape[0] < space.ndof - cone.arc_dofs.size
    w0, w1 = mode_profiles(1, "plus", StubConstants, THETA)
    xy = space.dof_coords[cone.arc_dofs]
    d = np.zeros(space.ndof, dtype=complex)
    d[cone.arc_dofs] = arc_data(1, CornerFrame("plus", 0.0, THETA), w0, w1,
                                CUT)(xy[:, 0], xy[:, 1])
    u, res = cone.solver.solve(0, d)
    assert res <= 1e-12
    cons = fem.Constraints(space)
    cons.dirichlet(cone.arc_dofs)
    want, _ = fem.solve(fem.stiffness(space), np.zeros(space.ndof), cons, d)
    assert np.linalg.norm(u - want) <= 1e-10 * np.linalg.norm(want)
    with pytest.raises(ValueError, match="one load at a time"):
        cone.solver.solve(np.zeros((space.ndof, 2)))


def test_a_constraint_on_a_tile_interior_is_refused():
    space = nearfield._build_cone(HoleSpec().polygon(), THETA, 20.0, 0.9,
                                  2).space
    tile = fem.Tile(space)
    cons = fem.Constraints(space)
    cons.dirichlet(tile.inner[1, 0])
    with pytest.raises(ValueError, match="tile's interior"):
        fem.Solver(fem.stiffness(space, elements=tile.rest), cons, tile,
                   fem.stiffness(space, elements=tile.elements))


def test_only_the_read_mode_is_gated():
    # with D1, N3 != 0 the minus cone's mode-3 fit is poor; the model reads
    # only ell[n], so the solve passes and records every residual
    sol = solve_S(("minus",), 1, OddConstants, HoleSpec(), h0=0.9)["minus"]
    assert sol.radial_residual[3] > 0.1
    assert sol.radial_residual[1] < 0.1


def test_poor_fit_of_the_read_mode_raises(monkeypatch):
    extract = nearfield.extract_L

    def poor_mode_1(*args):
        ell, res, logc = extract(*args)
        return ell, {**res, 1: 0.11}, logc

    monkeypatch.setattr(nearfield, "extract_L", poor_mode_1)
    with pytest.raises(ExtractionUnstable, match="mode 1"):
        solve_S(("minus",), 1, OddConstants, HoleSpec(), h0=0.9)


class _ConeBuilt(Exception):
    pass


def _minus_cone_polygon(monkeypatch, hole):
    """The polygon solve_S meshes for the minus corner asked alone."""
    seen = []

    def capture(theta, Rmax, polygon):
        seen.append(polygon)
        raise _ConeBuilt

    monkeypatch.setattr(nearfield, "build_cone_geometry", capture)
    with pytest.raises(_ConeBuilt):
        solve_S(("minus",), 1, StubConstants, hole)
    return seen[0]


def test_minus_cone_alone_meshes_the_plus_polygon(monkeypatch):
    # asked alone, the minus side of a symmetric hole meshes the same
    # polygon, in the same vertex order, as when it shares the plus cone
    sym = HoleSpec()
    np.testing.assert_array_equal(_minus_cone_polygon(monkeypatch, sym),
                                  sym.polygon())
    asym = HoleSpec(center=(0.45, 0.0))
    poly = asym.polygon()
    np.testing.assert_array_equal(
        _minus_cone_polygon(monkeypatch, asym),
        np.column_stack([1.0 - poly[:, 0], poly[:, 1]])[::-1])


def test_symmetric_sides_agree(symmetric_cones):
    # with D1 = N3 = 0 the two corner problems are mirror images and are
    # the same load on the shared cone
    sols, _ = symmetric_cones
    lp, lm = sols["plus"].ell[1], sols["minus"].ell[1]
    assert abs(lp - lm) <= 1e-8 * abs(lp)


def _own_minus_cone_L(constants, hole, Rmax, h0, degree):
    """L_-1 of the minus corner on a cone meshed in its own orientation
    (sector (pi - theta, pi), holes at canon + ell - 1), loaded with the
    closed-form minus-convention profiles of helpers and solved with no
    mirror map."""
    a, b = math.pi - THETA, math.pi
    n_arc = max(64, int(math.ceil((b - a) / ARC_STEP)))
    ang = np.linspace(a, b, n_arc + 1)
    pts = np.vstack([[0.0, 0.0],
                     Rmax * np.column_stack([np.cos(ang), np.sin(ang)])])
    geo = GeometrySpec(
        loops=[(pts, ["GammaN"] + ["Truncation"] * n_arc + ["GammaN"])],
        corner_vertices=[(0.0, 0.0)], grading_layers=6)
    canon = hole.polygon()
    for ell in range(1, int(Rmax) + 1):
        poly = canon + (ell - 1, 0.0)
        r = np.hypot(poly[:, 0], poly[:, 1])
        if 0.3 < r.min() and r.max() < Rmax - 0.3:
            _add_hole(geo, poly)
    space = fem.Space(triangulate(geo, h0), degree)
    lam = lambda_n(1, THETA)
    w0, up, low = minus_corner_profiles(1, constants, THETA)

    def arc(x, y):
        # the slit jump of w_{1,1} smeared over the layer |y| < 2
        r, th = np.hypot(x, y), np.arctan2(y, x)
        s = 0.5 * (1.0 + np.sign(y) * CUT(y)[0])
        return (r ** lam * w0(th)
                + r ** (lam - 1.0) * (s * up(th) + (1.0 - s) * low(th)))

    arc_dofs = space.boundary_dofs("Truncation")
    xy = space.dof_coords[arc_dofs]
    cons = fem.Constraints(space)
    cons.dirichlet(arc_dofs)
    d = np.zeros(space.ndof, dtype=complex)
    d[arc_dofs] = arc(xy[:, 0], xy[:, 1])
    u, _ = fem.solve(fem.stiffness(space), np.zeros(space.ndof), cons, d)
    # the minus frame samples the own-orientation cone at theta- = pi - theta
    ell, _, _ = extract_L(
        fem.Field(space, u).evaluate, CornerFrame("minus", 0.0, THETA), 1,
        lambda t: w0(math.pi - t),
        lambda t: np.where(t <= math.pi, up(math.pi - t), low(math.pi - t)),
        Rmax)
    return ell[1]


def test_minus_side_matches_its_own_cone(symmetric_cones):
    want = _own_minus_cone_L(StubConstants, HoleSpec(), 20.0, 0.6, 2)
    got = symmetric_cones[0]["minus"].ell[1]
    assert abs(got - want) <= 1e-2 * abs(want)
