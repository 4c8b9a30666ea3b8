import cmath
from dataclasses import replace

import numpy as np
import pytest

from thinwall import exact, fem
from thinwall.exact import incident_robin_load, kdelta_field, solve_exact
from thinwall.geometry import build_perforated_domain
from thinwall.params import DomainParams, HoleSpec
from thinwall.triangulate import triangulate


def test_kdelta_field_profiles():
    p = DomainParams(k0=2.0)
    k2 = kdelta_field(p, 0.25)
    x = np.array([0.0, 0.1, 3.0])
    y = np.array([0.1, 0.5, 0.0])
    # index-matched layer: constant k0^2 everywhere
    np.testing.assert_allclose(k2(x, y), 4.0)
    pc = DomainParams(k0=2.0, khat=lambda X1, X2: np.full(np.shape(X1), 3.0))
    k2c = kdelta_field(pc, 0.25)
    np.testing.assert_allclose(k2c(x, y), [9.0, 4.0, 4.0])


def test_incident_robin_load_value():
    p = DomainParams(k0=2.0)
    np.testing.assert_allclose(
        incident_robin_load(p),
        -4.0j * cmath.exp(-10.0j), rtol=1e-15)


def test_dof_cap_raises(monkeypatch):
    p = DomainParams(k0=2.0)
    mesh = triangulate(build_perforated_domain(p, 0.25), 0.15)
    ndof = fem.Space(mesh, 3).ndof

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled past the dof cap")

    monkeypatch.setattr(exact, "helmholtz_matrix", no_assembly)
    with pytest.raises(ValueError, match=f"{ndof} P3 dofs.*cap of {ndof - 1}"):
        solve_exact(p, 0.25, h0=0.15, degree=3, max_dofs=ndof - 1)


def test_negative_grading_raises():
    p = DomainParams(k0=2.0)
    geo = build_perforated_domain(p, 0.25)
    with pytest.raises(ValueError, match="grading_layers must be at least 0"):
        triangulate(replace(geo, grading_layers=-3), 0.15)
    with pytest.raises(ValueError, match="grading_layers must be at least 0"):
        solve_exact(p, 0.25, h0=0.15, grading=-3)


def test_no_hole_solve_matches_continuous_limit():
    # without obstacles the interface is fully open, so the direct solve and
    # the limit field (continuous-interface solve) see the same problem
    from thinwall.cascade import build_limit_space, compute_u00
    p = DomainParams(k0=2.0, hole=HoleSpec(kind="none"))
    res = solve_exact(p, 0.25, h0=0.1, degree=3, grading=4)
    assert res.residual <= 1e-10
    assert res.flux_balance() < 1e-10
    u00, _ = compute_u00(p, build_limit_space(p, h0=0.1, degree=3))
    pts, w = res.field.space.quad_global()
    diff = res.field.values_at_own_quad() - u00.evaluate(pts)
    err = np.sqrt(np.sum(w * np.abs(diff) ** 2))
    assert err < 1e-4


def test_perforated_solve_flux_balance():
    p = DomainParams(k0=2.0)
    res = solve_exact(p, 0.25, h0=0.15, degree=2)
    assert res.residual <= 1e-10
    # energy bookkeeping holds discretely regardless of mesh resolution
    assert res.flux_balance() < 1e-10
