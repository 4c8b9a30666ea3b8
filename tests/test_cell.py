import numpy as np
import pytest

from thinwall import fem
from thinwall.cell import build_cell, compute_constants
from thinwall.cutoff import make_cutoff
from thinwall.params import HoleSpec

K0 = 5 * np.pi


@pytest.fixture(scope="module")
def coarse_cell():
    # deliberately coarse: these tests check structure, not tight accuracy
    return build_cell(HoleSpec(), T=5.0, h0=0.12, degree=2)


@pytest.fixture(scope="module")
def coarse_constants(coarse_cell):
    return compute_constants(coarse_cell, K0)


def test_empty_cell_gives_exact_zeros():
    cell = build_cell(HoleSpec(kind="none"), T=4.0, h0=0.3, degree=1)
    c = compute_constants(cell, K0)
    assert c.D1 == c.D2 == c.N1 == c.N2 == c.N3 == c.D_infty == 0.0


def test_empty_cell_contrast_only():
    from scipy.special import erf
    cell = build_cell(HoleSpec(kind="none"), T=4.0, h0=0.3, degree=3)
    khat = lambda x, y: np.sqrt(K0 ** 2 + np.exp(-y * y))
    c = compute_constants(cell, K0, khat=khat)
    # only the absorption constant picks up the index contrast
    expected = -np.sqrt(np.pi) * erf(4.0)
    np.testing.assert_allclose(c.N1.real, expected, rtol=1e-6)
    assert c.D1 == c.D2 == c.N2 == c.N3 == 0.0


def test_cell_assembles_and_factors_once(monkeypatch):
    calls = []
    splu, stiffness = fem.splu, fem.stiffness
    monkeypatch.setattr(fem, "splu",
                        lambda A, **kw: calls.append("splu") or splu(A, **kw))
    monkeypatch.setattr(fem, "stiffness",
                        lambda s: calls.append("stiffness") or stiffness(s))
    build_cell(HoleSpec(), T=4.0, h0=0.3, degree=2)
    assert sorted(calls) == ["splu", "stiffness"]


def test_absorption_constant_matches_hole_area(coarse_constants):
    # N1 = k0^2 * |hole| for an index-matched perforation; the hole is a
    # regular 32-gon inscribed in the radius-0.15 circle
    poly_area = 16.0 * 0.15 ** 2 * np.sin(2 * np.pi / 32)
    np.testing.assert_allclose(coarse_constants.N1.real,
                               K0 ** 2 * poly_area, rtol=1e-12)
    np.testing.assert_allclose(coarse_constants.N1.real,
                               K0 ** 2 * np.pi * 0.15 ** 2, rtol=1e-2)
    assert abs(coarse_constants.N1.imag) < 1e-12


def test_energy_offset_matches_far_band_average(coarse_cell):
    # the energy identity value of D_infty must agree with a direct
    # far-band average of the kernel profile (independent extraction)
    from thinwall.cell import _band_average
    vals = coarse_cell.W.values_at_own_quad()
    top = _band_average(coarse_cell.space, vals, 4.0, 5.0)
    bot = _band_average(coarse_cell.space, vals, -5.0, -4.0)
    np.testing.assert_allclose(0.5 * (top - bot).real,
                               coarse_cell.D_infty, rtol=1e-3)


def test_dipole_identity_D2_twice_Dinfty(coarse_constants):
    np.testing.assert_allclose(coarse_constants.D2.real,
                               2.0 * coarse_constants.D_infty, rtol=1e-12)


def test_symmetric_hole_kills_odd_constants(coarse_constants):
    scale = max(abs(coarse_constants.D2), abs(coarse_constants.N2))
    assert abs(coarse_constants.D1) <= 1e-3 * scale
    assert abs(coarse_constants.N3) <= 1e-3 * scale


@pytest.mark.parametrize("x1", [0.45, 0.4])
def test_shifted_hole_gives_the_centred_constants(x1):
    # a disk moved along X1 is the same periodic layer, translated: the
    # periodic edges must still mesh congruently, and every constant must
    # match the centred hole's (the odd ones vanish for both)
    def constants(center):
        cell = build_cell(HoleSpec(center=center), T=6.0, h0=0.15, degree=3)
        return compute_constants(cell, K0)

    want, got = constants((0.5, 0.0)), constants((x1, 0.0))
    scale = max(abs(want.D2), abs(want.N2))
    for name in ("D2", "N1", "N2"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=1e-6)
    assert abs(got.D1) <= 1e-6 * scale
    assert abs(got.N3) <= 1e-6 * scale


def test_kernel_profile_far_field(coarse_cell):
    # D = X2 + W approaches X2 +/- D_infty away from the hole
    for y, sgn in ((4.6, 1.0), (-4.6, -1.0)):
        pts = np.column_stack([np.linspace(0.05, 0.95, 7),
                               np.full(7, y)])
        vals = coarse_cell.D_value(pts).real
        np.testing.assert_allclose(vals, y + sgn * coarse_cell.D_infty,
                                   atol=5e-4)


def test_correctors_flatten_in_far_bands(coarse_cell):
    # far from the hole the correctors lose all X1 structure and settle to
    # opposite constants above and below (gauged to a zero symmetric mean)
    xs = np.linspace(0.05, 0.95, 7)
    for f in (coarse_cell.V11, coarse_cell.V12):
        top = f.evaluate(np.column_stack([xs, np.full(7, 4.6)])).real
        bot = f.evaluate(np.column_stack([xs, np.full(7, -4.6)])).real
        assert top.std() < 1e-4 and bot.std() < 1e-4
        np.testing.assert_allclose(top.mean(), -bot.mean(), atol=5e-4)


def test_v12_holds_every_row_of_its_periodic_system(coarse_cell):
    # V12's load is balanced only up to quadrature; with that remainder
    # taken off along the constants' load, the solved field satisfies every
    # row of the reduced periodic system, the fixed dof's row included
    space = coarse_cell.space
    cut = make_cutoff("exp")
    b = fem.volume_load(space, lambda x, y: 2.0 * cut.dchi(y)
                        + y * cut.d2chi(y))
    w = fem.volume_load(space, lambda x, y: np.ones_like(x))
    b = b - b.sum() / w.sum() * w
    cons = fem.Constraints(space)
    cons.tie(*fem.paired_dofs(space, "Periodic_right", "Periodic_left", 1))
    C, _ = cons.build()
    rows = C.T @ (coarse_cell.K @ coarse_cell.V12.coeffs - b)
    assert np.abs(rows).max() <= 1e-10 * np.abs(C.T @ b).max()
