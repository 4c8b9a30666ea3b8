import math

import numpy as np
import pytest

from helpers import OddConstants, minus_corner_profiles
from thinwall.bessel import bessel_j_array, bessel_y_array
from thinwall.corner import (ELL_RADII, CornerFrame, LiftField, extract_ell,
                             jump_data, lambda_n, solve_angular_profile,
                             w_base)
from thinwall.cutoff import make_cutoff
from thinwall.errors import IllConditioned

THETA = 1.5 * math.pi
K0 = 5 * math.pi


def test_singular_exponents():
    for n in range(5):
        np.testing.assert_allclose(lambda_n(n, THETA), 2.0 * n / 3.0,
                                   rtol=1e-15)
    with pytest.raises(ValueError):
        CornerFrame("plus", 0.5, 0.5 * math.pi)
    with pytest.raises(ValueError):
        CornerFrame("plus", 0.5, 2.0 * math.pi)


def _corner_walls(side):
    """Points on the two walls of a corner of the unit-half-width wall:
    the interface-free face the angle is measured from, then the
    chamber wall."""
    cx, out = (0.5, 1.0) if side == "plus" else (-0.5, -1.0)
    return np.array([cx + 0.2 * out, cx]), np.array([0.0, -0.2])


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_base_profiles_neumann_ends(side, n):
    _, th = CornerFrame(side, 0.5, THETA).polar(*_corner_walls(side))
    np.testing.assert_allclose(th, [0.0, THETA], rtol=1e-15)
    w = w_base(n, THETA)
    np.testing.assert_allclose(
        np.abs([w.branch(0, th[0], 1), w.branch(1, th[1], 1)]), 0.0,
        atol=1e-12)
    # unit value at the interface-free face
    np.testing.assert_allclose(w(th[:1]).real, 1.0, rtol=1e-15)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_jump_profile_matches_prescribed_jumps(side):
    gv, gd = 0.7 + 0.2j, -0.3j
    w = solve_angular_profile(1, gv, gd, THETA)
    np.testing.assert_allclose(w.slit_jumps(), (gv, gd), rtol=1e-13)
    # the faces just above and below the slit read the two branches
    frame = CornerFrame(side, 0.5, THETA)
    x1 = np.full(2, 0.3 if side == "plus" else -0.3)
    _, th = frame.polar(x1, np.array([1e-12, -1e-12]))
    np.testing.assert_allclose(w(th[0]) - w(th[1]), gv, rtol=1e-8)
    np.testing.assert_allclose(w.branch(0, th[0], 1) - w.branch(1, th[1], 1),
                               gd, rtol=1e-8)
    # ends stay Neumann
    _, ends = frame.polar(*_corner_walls(side))
    np.testing.assert_allclose(
        np.abs([w.branch(0, ends[0], 1), w.branch(1, ends[1], 1)]), 0.0,
        atol=1e-12)


def test_zero_jump_data_gives_zero_profile():
    w = solve_angular_profile(1, 0.0, 0.0, THETA)
    assert w.a == w.b == 0
    assert w.slit_jumps() == (0.0, 0.0)
    assert w_base(1, THETA).slit_jumps() == (0.0, 0.0)


class OddNegated(OddConstants):
    D1, N3 = -OddConstants.D1, -OddConstants.N3


def test_jump_data_symmetry():
    class C:
        D1, D2, N2, N3 = 0.0, 0.151, 0.13, 0.0

    lam1 = lambda_n(1, THETA)
    # mirror-symmetric constants: both corners get the same slit jumps
    np.testing.assert_allclose(jump_data(lam1, "minus", C),
                               jump_data(lam1, "plus", C), rtol=1e-15)
    # the mirror flips the X1-odd constants D1 and N3
    np.testing.assert_allclose(jump_data(lam1, "minus", OddConstants),
                               jump_data(lam1, "plus", OddNegated), rtol=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_minus_closed_forms_match_mirrored_plus_profile(n):
    # the minus corner's profiles in its own convention (theta- in
    # (pi - Theta, pi), slit at 0) are the library's plus-frame profiles at
    # theta+ = pi - theta-, with the minus side's jump data
    w0, up, low = minus_corner_profiles(n, OddConstants, THETA)
    lam = lambda_n(n, THETA)
    w1 = solve_angular_profile(n, *jump_data(lam, "minus", OddConstants),
                               THETA)
    for t in (np.linspace(1e-6, math.pi - 1e-6, 41),
              np.linspace(math.pi - THETA + 1e-6, -1e-6, 41)):
        oracle = up(t) if t[0] > 0 else low(t)
        scale = np.max(np.abs(oracle))
        assert scale > 1e-3
        np.testing.assert_allclose(w1(math.pi - t), oracle, rtol=0,
                                   atol=1e-14 * scale)
        np.testing.assert_allclose(w_base(n, THETA)(math.pi - t), w0(t),
                                   rtol=0, atol=1e-14)


def test_polar_branch_resolution():
    # the top face is theta -> pi-, the bottom face theta -> pi+, and the
    # slit itself reads pi
    for side, x1 in (("plus", 0.0), ("minus", 0.0), ("minus", -0.3)):
        frame = CornerFrame(side, 0.5, THETA)
        _, th = frame.polar(np.full(3, x1), np.array([1e-12, 0.0, -1e-12]))
        assert th[0] < th[1] == math.pi < th[2]


def test_minus_frame_is_plus_frame_mirrored():
    fp = CornerFrame("plus", 0.5, THETA)
    fm = CornerFrame("minus", 0.5, THETA)
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 40), [-0.4, 0.1, 0.3]])
    y = np.concatenate([rng.uniform(-1.0, 1.0, 40), [0.0, 0.0, 0.0]])
    rm, tm = fm.polar(x, y)
    rp, tp = fp.polar(-x, y)
    np.testing.assert_array_equal(rm, rp)
    np.testing.assert_array_equal(tm, tp)
    # the minus corner (-1/2, 0): up is pi/2, the chamber wall Theta
    r, th = fm.polar(np.array([-0.5, -0.5]), np.array([0.2, -0.2]))
    np.testing.assert_allclose(r, [0.2, 0.2], rtol=1e-15)
    np.testing.assert_allclose(th, [0.5 * math.pi, THETA], rtol=1e-15)
    # point inverts polar in both frames
    rr, tt = np.meshgrid(np.linspace(0.05, 0.4, 5),
                         np.linspace(0.01, THETA - 0.01, 7))
    for frame in (fp, fm):
        pts = frame.point(rr, tt)
        r, th = frame.polar(pts[..., 0], pts[..., 1])
        np.testing.assert_allclose(r, rr, rtol=1e-14)
        np.testing.assert_allclose(th, tt, rtol=1e-14)


def _plus_lift(k0=K0):
    frame = CornerFrame("plus", 0.5, THETA)
    w11 = solve_angular_profile(1, 0.4, -0.25, THETA)
    return LiftField(frame, bessel_j_array, lambda_n(1, THETA) - 1.0, w11,
                     make_cutoff("exp"), k0, coeff=1.3)


def test_lift_vanishes_outside_support():
    lift = _plus_lift()
    xs = np.array([1.1, 0.5 + 0.6, -0.2])
    ys = np.array([0.3, -0.1, 0.4])
    np.testing.assert_allclose(np.abs(lift.value(xs, ys)), 0.0, atol=0.0)


def test_lift_solves_helmholtz_off_the_cut():
    # inside r < L/2 the cutoff is identically one, so the lift is an exact
    # Helmholtz solution there and the commutator load vanishes
    lift = _plus_lift()
    h = 2e-5
    for r, th in ((0.18, 0.9), (0.2, 2.4), (0.15, 4.0)):
        x = 0.5 + r * math.cos(th)
        y = r * math.sin(th)
        xs = np.array([x, x + h, x - h, x, x])
        ys = np.array([y, y, y, y + h, y - h])
        v = lift.value(xs, ys)
        lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h**2
        resid = lap + K0**2 * v[0]
        assert abs(resid) < 1e-4 * max(abs(v[0]), 1.0)
        assert np.abs(lift.commutator_load(np.array([x]),
                                           np.array([y])))[0] == 0.0


def test_commutator_load_matches_fd():
    # in the transition band Lap(lift) + k0^2 lift equals the commutator load
    lift = _plus_lift()
    h = 2e-5
    for r, th in ((0.32, 1.2), (0.41, 2.2), (0.36, 4.1)):
        x = 0.5 + r * math.cos(th)
        y = r * math.sin(th)
        xs = np.array([x, x + h, x - h, x, x])
        ys = np.array([y, y, y, y + h, y - h])
        v = lift.value(xs, ys)
        lap = (v[1] + v[2] + v[3] + v[4] - 4 * v[0]) / h**2
        load = lift.commutator_load(np.array([x]), np.array([y]))[0]
        np.testing.assert_allclose(lap + K0**2 * v[0], load,
                                   rtol=2e-4, atol=1e-7)


def test_lift_slit_jumps_match_one_sided_fd():
    # each face's trace and x2-derivative, extrapolated from three points
    # off the slit on that side; r runs through the cut-off's transition
    w11 = solve_angular_profile(1, 0.4, -0.25, THETA)
    h = 2e-5
    for side, sgn_x in (("plus", 1.0), ("minus", -1.0)):
        lift = LiftField(CornerFrame(side, 0.5, THETA), bessel_j_array,
                         lambda_n(1, THETA) - 1.0, w11, make_cutoff("exp"),
                         K0, coeff=1.3)
        x1 = sgn_x * np.array([0.2, 0.35, 0.42])
        faces = []
        for sgn in (1.0, -1.0):
            f1, f2, f3 = (lift.value(x1, np.full(3, sgn * k * h))
                          for k in (1, 2, 3))
            faces.append((3 * f1 - 3 * f2 + f3,
                          sgn * (-5 * f1 + 8 * f2 - 3 * f3) / (2 * h)))
        trace, dx2 = lift.slit_jumps(x1)
        np.testing.assert_allclose(trace, faces[0][0] - faces[1][0],
                                   rtol=1e-9)
        np.testing.assert_allclose(dx2, faces[0][1] - faces[1][1],
                                   rtol=2e-6)
        # outside its support the lift has no jump
        far = lift.slit_jumps(-x1)
        assert np.all(far[0] == 0) and np.all(far[1] == 0)


def test_y_lift_has_no_slit_jumps():
    lift = LiftField(CornerFrame("minus", 0.5, THETA), bessel_y_array,
                     lambda_n(1, THETA), w_base(1, THETA), make_cutoff("exp"),
                     K0, coeff=0.7 - 0.2j)
    trace, dx2 = lift.slit_jumps(np.array([-0.45, -0.3, -0.1, 0.2]))
    assert np.all(trace == 0) and np.all(dx2 == 0)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_extract_ell_exact_recovery(side):
    frame = CornerFrame(side, 0.5, THETA)
    cs = {0: 0.8 - 0.1j, 1: 1.5 + 0.4j, 2: -0.6j, 3: 0.25}
    modes = {m: w_base(m, THETA) for m in cs}

    def field(pts):
        r, th = frame.polar(pts[:, 0], pts[:, 1])
        out = np.zeros(len(r), dtype=complex)
        for m, c in cs.items():
            out += c * bessel_j_array(lambda_n(m, THETA), K0 * r) * modes[m](th)
        return out

    ell, scatter = extract_ell(field, frame, K0)
    assert set(ell) == set(scatter) == set(cs)
    for m, c in cs.items():
        np.testing.assert_allclose(ell[m], c, rtol=1e-10)
        assert scatter[m] < 1e-10


def test_extract_ell_raises_at_a_bessel_zero():
    # k0 r at the middle radius is the first zero of J_0: that radius
    # cannot give ell_0, and the extraction says so rather than drop it
    k0 = 2.404825557695773 / ELL_RADII[1]
    frame = CornerFrame("plus", 0.5, THETA)
    with pytest.raises(IllConditioned, match=f"radius {ELL_RADII[1]} "):
        extract_ell(lambda pts: np.ones(len(pts), dtype=complex), frame, k0)
