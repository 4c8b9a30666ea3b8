import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thinwall.bessel import bessel_j_array
from thinwall.corner import LiftField
from thinwall.cutoff import make_cutoff


@pytest.fixture(params=["exp", "poly"])
def cut(request):
    return make_cutoff(request.param)


def test_plateaus(cut):
    t = np.array([-5.0, -2.5, -2.0001, 2.0001, 2.5, 5.0])
    np.testing.assert_allclose(cut.chi(t), 1.0, atol=1e-12)
    t = np.linspace(-0.999, 0.999, 21)
    np.testing.assert_allclose(cut.chi(t), 0.0, atol=1e-15)
    assert np.all(cut.dchi(t) == 0.0)


def test_even_and_bounded(cut):
    t = np.linspace(-3, 3, 601)
    c = cut.chi(t)
    np.testing.assert_allclose(c, cut.chi(-t), atol=1e-15)
    assert np.all((c >= 0) & (c <= 1 + 1e-15))


@given(st.floats(-4.0, 4.0))
def test_derivative_support(t):
    cut = make_cutoff("poly")
    if abs(t) < 1.0 - 1e-9 or abs(t) > 2.0 + 1e-9:
        assert cut.dchi(t) == 0.0
        assert cut.d2chi(t) == 0.0


def test_derivatives_match_finite_differences(cut):
    t = np.linspace(1.05, 1.95, 37)
    h = 1e-6
    d_fd = (cut.chi(t + h) - cut.chi(t - h)) / (2 * h)
    np.testing.assert_allclose(cut.dchi(t), d_fd, atol=1e-7)
    d2_fd = (cut.dchi(t + h) - cut.dchi(t - h)) / (2 * h)
    np.testing.assert_allclose(cut.d2chi(t), d2_fd, atol=1e-6)


def test_corner_cutoff_plateaus():
    # the radial cut-off depends on the profile and L only
    lift = LiftField(None, bessel_j_array, 1.0, None, make_cutoff("exp"),
                     L=0.5, k0=1.0)
    val = lambda r: lift._chiL(r)[0]
    dval = lambda r: lift._chiL(r)[1]
    assert val(0.1) == 1.0  # r < L/2
    assert val(0.6) == 0.0  # r > L
    assert dval(0.1) == 0.0
    r = np.linspace(0.26, 0.49, 10)
    h = 1e-7
    np.testing.assert_allclose(dval(r), (val(r + h) - val(r - h)) / (2 * h), atol=1e-5)
