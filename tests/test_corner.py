import math

import numpy as np
import pytest

from thinwall.bessel import bessel_j, bessel_j_array
from thinwall.corner import (CornerFrame, SingularExponents, build_lift_J,
                             build_lift_Y, extract_ell, jump_data,
                             solve_angular_profile, w_base)
from thinwall.cutoff import make_cutoff
from thinwall.errors import IndexUnsupported

THETA = 1.5 * math.pi
K0 = 5 * math.pi
EXPS = SingularExponents(THETA)


def test_singular_exponents():
    for n in range(5):
        np.testing.assert_allclose(EXPS.lambda_n(n), 2.0 * n / 3.0,
                                   rtol=1e-15)
    with pytest.raises(ValueError):
        SingularExponents(0.5 * math.pi)
    with pytest.raises(ValueError):
        SingularExponents(2.0 * math.pi)


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_base_profiles_neumann_ends(side, n):
    w = w_base(n, side, EXPS)
    frame = CornerFrame(side, 0.5, THETA)
    a, b = frame.interval
    np.testing.assert_allclose(np.abs(w.dtheta(np.array([a, b]))), 0.0,
                               atol=1e-12)
    # unit value at the interface-free face the angle is measured from
    ref = b if side == "minus" else a
    np.testing.assert_allclose(w(np.array([ref])).real, 1.0, rtol=1e-15)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_jump_profile_matches_prescribed_jumps(side):
    gv, gd = 0.7 + 0.2j, -0.3j
    w = solve_angular_profile(1, 1, side, gv, gd, EXPS)
    gamma = math.pi if side == "plus" else 0.0
    eps = 1e-9
    top, bot = gamma - eps, gamma + eps
    if side == "minus":
        top, bot = gamma + eps, gamma - eps
    jv = complex(w(np.array([top]))[0] - w(np.array([bot]))[0])
    jd = complex(w.dtheta(np.array([top]))[0] - w.dtheta(np.array([bot]))[0])
    np.testing.assert_allclose(jv, gv, rtol=1e-8)
    np.testing.assert_allclose(jd, gd, rtol=1e-8)
    # ends stay Neumann
    frame = CornerFrame(side, 0.5, THETA)
    a, b = frame.interval
    np.testing.assert_allclose(np.abs(w.dtheta(np.array([a, b]))), 0.0,
                               atol=1e-12)


def test_zero_jump_data_gives_zero_profile():
    w = solve_angular_profile(1, 1, "plus", 0.0, 0.0, EXPS)
    assert w.is_zero
    with pytest.raises(IndexUnsupported):
        solve_angular_profile(1, 2, "plus", 1.0, 0.0, EXPS)


def test_jump_data_symmetry():
    class C:
        D1, D2, N2, N3 = 0.0, 0.151, 0.13, 0.0

    vp, dp = jump_data(EXPS.lambda_n(1), "plus", C)
    vm, dm = jump_data(EXPS.lambda_n(1), "minus", C)
    # mirror-symmetric constants: equal value jumps, opposite trace jumps
    np.testing.assert_allclose(vp, vm, rtol=1e-15)
    np.testing.assert_allclose(dp, -dm, rtol=1e-15)


def test_polar_branch_resolution():
    fp = CornerFrame("plus", 0.5, THETA)
    _, th_t = fp.polar(np.array([0.0]), np.array([0.0]), bottom=False)
    _, th_b = fp.polar(np.array([0.0]), np.array([0.0]), bottom=True)
    assert th_t[0] < math.pi < th_b[0]
    fm = CornerFrame("minus", 0.5, THETA)
    _, th_t = fm.polar(np.array([0.0]), np.array([0.0]), bottom=False)
    _, th_b = fm.polar(np.array([0.0]), np.array([0.0]), bottom=True)
    assert th_b[0] < 0.0 < th_t[0]


def _plus_lift(k0=K0):
    frame = CornerFrame("plus", 0.5, THETA)
    w11 = solve_angular_profile(1, 1, "plus", 0.4, -0.25, EXPS)
    return build_lift_J(frame, w11, make_cutoff("exp"), k0, coeff=1.3)


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


def test_dx2_on_slit_matches_fd():
    lift = _plus_lift()
    x1 = np.array([0.2, 0.35, 0.42])
    for bottom, sgn in ((False, 1.0), (True, -1.0)):
        got = lift.dx2_on_slit(x1, bottom)
        h = 1e-4
        v0 = lift.value(x1, np.zeros_like(x1), bottom=bottom)
        v1 = lift.value(x1, sgn * h * np.ones_like(x1))
        v2 = lift.value(x1, 2 * sgn * h * np.ones_like(x1))
        fd = sgn * (4 * v1 - v2 - 3 * v0) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)


def test_lift_gradient_matches_fd():
    # the second point has k0 r = 9: the J lift's derivative needs J_{-4/3} there
    for k0, r in ((K0, 0.3), (20.0, 0.45)):
        lift = _plus_lift(k0)
        x, y = 0.5 + r * math.cos(2.0), r * math.sin(2.0)
        g = lift.gradient(np.array([x]), np.array([y]))[0]
        h = 1e-6
        vx = lift.value(np.array([x + h, x - h]), np.array([y, y]))
        vy = lift.value(np.array([x, x]), np.array([y + h, y - h]))
        np.testing.assert_allclose(g[0], (vx[0] - vx[1]) / (2 * h), rtol=1e-7)
        np.testing.assert_allclose(g[1], (vy[0] - vy[1]) / (2 * h), rtol=1e-7)


def test_near_corner_amplitudes():
    lift = _plus_lift()
    r = 1e-6
    np.testing.assert_allclose(bessel_j(lift.nu, K0 * r) / r**lift.nu,
                               lift.near_corner_amplitude(), rtol=1e-5)
    frame = CornerFrame("plus", 0.5, THETA)
    ylift = build_lift_Y(1, frame, make_cutoff("exp"), K0)
    from thinwall.bessel import bessel_y_array
    yv = bessel_y_array(ylift.nu, np.array([K0 * r]))[0]
    np.testing.assert_allclose(yv * r**ylift.nu,
                               ylift.near_corner_amplitude(), rtol=1e-5)
    with pytest.raises(IndexUnsupported):
        build_lift_Y(3, frame, make_cutoff("exp"), K0)


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_extract_ell_exact_recovery(side):
    frame = CornerFrame(side, 0.5, THETA)
    cs = {0: 0.8 - 0.1j, 1: 1.5 + 0.4j, 2: -0.6j, 3: 0.25}
    modes = {m: w_base(m, side, EXPS) for m in cs}
    cx, cy = frame.corner

    def field(pts, bottom):
        r, th = frame.polar(pts[:, 0], pts[:, 1], bottom=bottom)
        out = np.zeros(len(r), dtype=complex)
        for m, c in cs.items():
            out += c * bessel_j_array(EXPS.lambda_n(m), K0 * r) * modes[m](th)
        return out

    for m, c in cs.items():
        ell, scatter, used = extract_ell(field, frame, m, K0)
        assert len(used) >= 2
        np.testing.assert_allclose(ell, c, rtol=1e-10)
        assert scatter < 1e-10
