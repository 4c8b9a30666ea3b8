import cmath
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import graded_over_period_3

from thinwall import exact, fem
from thinwall.errors import SingularSystem
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
    # the cap is on the unknowns SuperLU factors, checked before assembly
    p = DomainParams(k0=2.0)
    res = solve_exact(p, 0.25, h0=0.15, degree=3)
    n = res.factored
    assert n < res.ndof

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled past the dof cap")

    for name in ("stiffness", "mass", "boundary_mass", "boundary_load"):
        monkeypatch.setattr(fem, name, no_assembly)
    with pytest.raises(ValueError, match=f"factors {n} of its {res.ndof} P3 "
                                         f"dofs, over the cap of {n - 1}"):
        solve_exact(p, 0.25, h0=0.15, degree=3, max_dofs=n - 1)


def _uncondensed(res):
    """The full system on the condensed solve's Space, factored whole."""
    p, space = res.params, res.field.space
    A = exact.helmholtz_matrix(space, p, kdelta_field(p, res.delta))
    b = fem.boundary_load(space, "GammaR_minus", incident_robin_load(p))
    u, _ = fem.solve(A, b)
    return u


@pytest.mark.parametrize("geometry", ["ref 1/8", "graded over period 3",
                                      "ref 1/8 with khat"])
def test_condensed_solve_equals_the_full_one(geometry, monkeypatch):
    p = DomainParams()
    if geometry == "graded over period 3":
        # two tile runs, periods 1 and 5 to 6
        monkeypatch.setattr(exact, "build_perforated_domain",
                            lambda p, delta: graded_over_period_3())
    if geometry == "ref 1/8 with khat":
        # every copy takes the tile's operator: kdelta_field is periodic
        p = DomainParams(khat=lambda X1, X2: 3.0 + np.cos(2 * np.pi * X1) * X2)
    res = solve_exact(p, 1 / 8, h0=0.1, degree=3)
    mesh = res.field.space.mesh
    assert len(mesh.tiles) == (3 if geometry == "graded over period 3" else 6)
    assert res.factored < res.ndof
    assert res.residual <= 1e-12
    u = _uncondensed(res)
    assert (np.linalg.norm(res.field.coeffs - u) / np.linalg.norm(u)
            <= 1e-10)


def test_a_load_on_a_tile_interior_is_refused(monkeypatch):
    # the condensation drops the tiles' interior loads, which are zero for
    # the incident datum; a load that reached an interior is left in the
    # full residual and refused
    load = fem.boundary_load

    def reaching_a_tile(space, tag, g):
        b = load(space, tag, g)
        b[fem.Tile(space).inner[2, 0]] += 1.0
        return b

    monkeypatch.setattr(fem, "boundary_load", reaching_a_tile)
    with pytest.raises(SingularSystem, match="full-system residual"):
        solve_exact(DomainParams(), 1 / 8, h0=0.1, degree=3)


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
    p = DomainParams(k0=2.0, hole=HoleSpec(radius=0.0))
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


def _reference_table_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "reference_table.py"
    spec = importlib.util.spec_from_file_location("reference_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_reference_table_reports_a_failed_counting_run(monkeypatch):
    # the plain run solved; the counting run died reading L+U after the
    # tile's factorisation, so its partial counts are no row's counts
    tool = _reference_table_tool()
    runs = iter([
        ("ndof 6766352  factored 711107  residual 1.2e-12  "
         "flux-balance defect 1.6e-15\n", "", 0, 45.5, 3333.0),
        ("factors [[2961, 180000]]\nmesh_seconds 31.7\n",
         "Traceback (most recent call last):\n  ...\n"
         "numpy._core._exceptions._ArrayMemoryError: Unable to allocate "
         "687. MiB\n", 1, 50.0, 3400.0)])
    monkeypatch.setattr(tool, "_run", lambda cmd, src: next(runs))
    row = tool.row("src", 2048)
    assert (row["factors"], row["factored"], row["lu_nnz"]) \
        == (None, None, None)
    assert row["error"] == ("counting run: numpy._core._exceptions."
                            "_ArrayMemoryError: Unable to allocate 687. MiB")
    assert (row["ndof"], row["residual"], row["mesh_seconds"]) \
        == (6766352, 1.2e-12, 31.7)
