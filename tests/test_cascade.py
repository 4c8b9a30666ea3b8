import numpy as np
import pytest

from helpers import transmission_solve
from thinwall import fem
from thinwall.cascade import (_Clamped, _interface_pairs, build_expansion,
                              build_limit_space, compute_u00,
                              solve_transmission, TransmissionData)
from thinwall.cell import EffectiveConstants
from thinwall.errors import IndexUnsupported
from thinwall.params import DomainParams


@pytest.fixture(scope="module")
def transparent_expansion():
    # index-matched, hole-free layer: every correction must vanish exactly
    p = DomainParams()
    constants = EffectiveConstants(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return build_expansion(p, constants, {"plus": 0.0, "minus": 0.0},
                           h0=0.12, degree=2)


def test_cascade_factors_once(monkeypatch):
    calls = []
    splu = fem.splu
    monkeypatch.setattr(fem, "splu",
                        lambda A, **kw: calls.append(A) or splu(A, **kw))
    p = DomainParams()
    constants = EffectiveConstants(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    build_expansion(p, constants, {"plus": 0.0, "minus": 0.0}, h0=0.12,
                    degree=2)
    assert len(calls) == 1


def test_transparent_layer_corrections_vanish(transparent_expansion):
    ex = transparent_expansion
    assert np.all(ex.u01.hat.coeffs == 0)
    assert np.all(ex.u20.hat.coeffs == 0)
    for lift in ex.u01.lifts:
        assert lift.w.is_zero


def test_transparent_truncations_collapse_to_u00(transparent_expansion):
    ex = transparent_expansion
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-2.0, 2.0, 30),
                           rng.uniform(0.3, 0.9, 30)])
    v0 = ex.truncation(0, pts, 0.125)
    for order in (1, 2):
        np.testing.assert_allclose(ex.truncation(order, pts, 0.125), v0,
                                   atol=1e-9)
    with pytest.raises(IndexUnsupported):
        ex.truncation(3, pts, 0.125)


def test_interface_jump_is_imposed_exactly():
    p = DomainParams(k0=2.0)
    space = build_limit_space(p, h0=0.17, degree=2)
    g = lambda x: np.exp(1j * x) * (p.L ** 2 - x ** 2)
    u = solve_transmission(space, p, TransmissionData(g=g))
    xs, top, bot = _interface_pairs(space)
    np.testing.assert_allclose(u.coeffs[top] - u.coeffs[bot], g(xs),
                               rtol=1e-12, atol=1e-12)


def test_continuous_interface_ties_dofs():
    p = DomainParams(k0=2.0)
    space = build_limit_space(p, h0=0.17, degree=2)
    u = solve_transmission(space, p, TransmissionData(
        boundary={"GammaR_minus": lambda x, y: np.ones(np.shape(x), complex)}))
    xs, top, bot = _interface_pairs(space)
    np.testing.assert_allclose(u.coeffs[top], u.coeffs[bot], atol=1e-13)


def test_manufactured_transmission_accuracy():
    # the solver itself enforces a 1e-10 relative residual (it raises
    # SingularSystem otherwise), so only the discretization error is checked
    err = transmission_solve(0.085, 2)
    assert err < 5e-3


def test_clamped_freezes_the_ends():
    f = _Clamped(lambda x: x ** 2, L=0.5, width=0.1)
    x = np.array([-1.0, -0.45, 0.0, 0.39, 0.41, 0.5])
    expect = np.clip(x, -0.4, 0.4) ** 2
    np.testing.assert_allclose(f(x), expect, rtol=1e-15)


def test_compute_u00_corner_coefficients():
    p = DomainParams()
    space = build_limit_space(p, h0=0.05, degree=2)
    u00, corners = compute_u00(p, space)
    for side in ("plus", "minus"):
        cd = corners[side]
        assert set(cd.ell) == {0, 1, 2, 3}
        assert abs(cd.ell[1]) > 1e-3
        # cross-radius scatter of the dominant coefficients stays small
        assert cd.ell_scatter[1] < 0.05
