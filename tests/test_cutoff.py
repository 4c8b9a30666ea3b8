import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from thinwall.bessel import bessel_j_array
from thinwall.corner import CornerFrame, LiftField
from thinwall.cutoff import _PROFILES, make_cutoff


@pytest.fixture(params=["exp", "poly"])
def cut(request):
    return make_cutoff(request.param)


def test_plateaus(cut):
    t = np.array([-5.0, -2.5, -2.0001, 2.0001, 2.5, 5.0])
    np.testing.assert_allclose(cut(t)[0], 1.0, atol=1e-12)
    t = np.linspace(-0.999, 0.999, 21)
    np.testing.assert_allclose(cut(t)[0], 0.0, atol=1e-15)
    assert np.all(cut(t)[1] == 0.0)


def test_even_and_bounded(cut):
    t = np.linspace(-3, 3, 601)
    c = cut(t)[0]
    np.testing.assert_allclose(c, cut(-t)[0], atol=1e-15)
    assert np.all((c >= 0) & (c <= 1 + 1e-15))


@given(st.floats(-4.0, 4.0))
def test_derivative_support(t):
    cut = make_cutoff("poly")
    if abs(t) < 1.0 - 1e-9 or abs(t) > 2.0 + 1e-9:
        _, dchi, d2chi = cut(t)
        assert dchi == 0.0
        assert d2chi == 0.0


def test_derivatives_match_finite_differences(cut):
    t = np.linspace(1.05, 1.95, 37)
    h = 1e-6
    _, dchi, d2chi = cut(t)
    d_fd = (cut(t + h)[0] - cut(t - h)[0]) / (2 * h)
    np.testing.assert_allclose(dchi, d_fd, atol=1e-7)
    d2_fd = (cut(t + h)[1] - cut(t - h)[1]) / (2 * h)
    np.testing.assert_allclose(d2chi, d2_fd, atol=1e-6)


@pytest.mark.parametrize("profile", sorted(_PROFILES))
def test_cell_volume_loads_balance(profile):
    # the cell's volume profiles sign(t) chi''(t) (V11's, up to D1/2) and
    # 2 chi' + t chi'' (V12's) are odd, so over the bands 1 < |t| < 2 their
    # integrals cancel: that is the solvability of both cell problems
    cut = make_cutoff(profile)
    for f in (lambda t: np.sign(t) * cut(t)[2],
              lambda t: 2.0 * cut(t)[1] + t * cut(t)[2]):
        lower, upper = (quad(lambda t: float(f(np.array([t]))[0]), lo, hi,
                             limit=200)[0] for lo, hi in ((-2, -1), (1, 2)))
        assert abs(lower + upper) <= 1e-12


def test_corner_cutoff_plateaus():
    # the radial cut-off depends on the profile and L only
    lift = LiftField(CornerFrame("plus", 0.5, 1.5 * np.pi), bessel_j_array,
                     1.0, None, make_cutoff("exp"), k0=1.0)
    val = lambda r: lift._chiL(r)[0]
    dval = lambda r: lift._chiL(r)[1]
    assert val(0.1) == 1.0  # r < L/2
    assert val(0.6) == 0.0  # r > L
    assert dval(0.1) == 0.0
    r = np.linspace(0.26, 0.49, 10)
    h = 1e-7
    np.testing.assert_allclose(dval(r), (val(r + h) - val(r - h)) / (2 * h), atol=1e-5)
