import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from helpers import helmholtz_square_solve, l2_error, square_space
from thinwall import fem
from thinwall.errors import FactorOutOfMemory, SingularSystem
from thinwall.exact import helmholtz_matrix, kdelta_field
from thinwall.geometry import (build_cell_geometry, build_limit_domain,
                               build_perforated_domain)
from thinwall.params import DomainParams, HoleSpec
from thinwall.triangulate import triangulate


@pytest.fixture(params=[1, 2, 3])
def degree(request):
    return request.param


def test_space_reproduces_own_degree(degree):
    space = square_space(0.3, degree)

    def poly(x, y):
        return (x + 0.5 * y) ** degree + 2.0 * x - y

    coeffs = poly(space.dof_coords[:, 0], space.dof_coords[:, 1])
    field = fem.Field(space, coeffs)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.05, 0.95, size=(40, 2))
    np.testing.assert_allclose(field.evaluate(pts).real,
                               poly(pts[:, 0], pts[:, 1]),
                               rtol=1e-11, atol=1e-11)


def _first_appearance_numbering(mesh, p):
    """Element dofs, ndof and dof coordinates, numbering each edge's dofs
    when an element loop first meets the edge."""
    M = mesh.num_elements
    element_dofs = np.empty((M, {2: 6, 3: 10}[p]), dtype=np.int64)
    element_dofs[:, :3] = mesh.elements
    coords = list(mesh.nodes)
    edge_dofs = {}
    for row, tri in enumerate(mesh.elements):
        col = 3
        for a, b in ((0, 1), (1, 2), (2, 0)):
            ga, gb = int(tri[a]), int(tri[b])
            key = (min(ga, gb), max(ga, gb))
            if key not in edge_dofs:
                edge_dofs[key] = list(range(len(coords), len(coords) + p - 1))
                lo, hi = mesh.nodes[key[0]], mesh.nodes[key[1]]
                coords += [lo + i / p * (hi - lo) for i in range(1, p)]
            ds = edge_dofs[key]
            element_dofs[row, col:col + p - 1] = ds if ga < gb else ds[::-1]
            col += p - 1
    if p == 3:
        element_dofs[:, 9] = np.arange(len(coords), len(coords) + M)
        coords += list(mesh.nodes[mesh.elements].mean(axis=1))
    return element_dofs, len(coords), np.array(coords)


def test_edge_table_matches_first_appearance():
    p = DomainParams()
    for geo in (build_limit_domain(p), build_perforated_domain(p, 0.25)):
        mesh = triangulate(replace(geo, grading_layers=4), 0.2)
        for degree in (2, 3):
            space = fem.Space(mesh, degree)
            element_dofs, ndof, coords = _first_appearance_numbering(mesh,
                                                                     degree)
            np.testing.assert_array_equal(space.element_dofs, element_dofs)
            assert space.ndof == ndof
            np.testing.assert_array_equal(space.dof_coords, coords)


def _oracle_matrix(space, coeff=None, stiff=False):
    """Reference assembly: physical gradients and values contracted point by
    point over the same rule, summed by one COO build."""
    qp, qw = fem._tri_rule(5 if space.p <= 2 else 8)
    phi, gphi = space.ref.eval(qp), space.ref.grad(qp)
    _, Jinv, detJ = space._jacobians()
    area_w = 0.5 * detJ
    if stiff:
        g = np.einsum("eji,qnj->eqni", Jinv, gphi)
        loc = np.einsum("eqni,eqmi,q,e->enm", g, g, qw, area_w)
    else:
        pts, _ = space.quad_global()
        cval = (np.ones((detJ.size, qw.size)) if coeff is None
                else coeff(pts[:, 0], pts[:, 1]).reshape(detJ.size, -1))
        loc = np.einsum("qn,qm,q,eq,e->enm", phi, phi, qw, cval, area_w)
    ed, n = space.element_dofs, phi.shape[1]
    rows = np.repeat(ed, n, axis=1).reshape(-1)
    cols = np.tile(ed, (1, n)).reshape(-1)
    return sp.coo_matrix((loc.reshape(-1), (rows, cols)),
                         shape=(space.ndof, space.ndof)).tocsr()


def test_assembly_matches_quadrature_oracle():
    # a varying coefficient: the cell wavenumber profile inside the layer
    p = DomainParams(k0=2.0,
                     khat=lambda X1, X2: 3.0 + np.cos(2 * np.pi * X1) * X2)
    k2 = kdelta_field(p, 0.25)
    for geo in (build_limit_domain(p), build_perforated_domain(p, 0.25)):
        mesh = triangulate(replace(geo, grading_layers=4), 0.2)
        for degree in (1, 2, 3):
            space = fem.Space(mesh, degree)
            for got, want in ((fem.stiffness(space),
                               _oracle_matrix(space, stiff=True)),
                              (fem.mass(space), _oracle_matrix(space)),
                              (fem.mass(space, coeff=k2),
                               _oracle_matrix(space, coeff=k2))):
                # real operators stay real
                assert got.dtype == np.float64
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-13 * scale
            # and so do loads: real data give float64, complex complex128
            for a in (-1.0, 2.0j):
                for b in (fem.volume_load(space, lambda x, y: a * x),
                          fem.boundary_load(space, "GammaR_minus", a),
                          fem.boundary_load_normal(
                              space, "GammaR_minus",
                              lambda x, y, nx, ny: a * nx)):
                    assert b.dtype == np.result_type(a, np.float64)


def test_p2_stiffness_has_no_roundoff_entries():
    # a P2 vertex and the midpoint of its opposite edge never couple:
    # the integral of (4 l_i - 1) l_k vanishes on every triangle
    A = fem.stiffness(square_space(0.3, 2))
    a = np.abs(A.data)
    assert np.count_nonzero(a < 1e-12 * a.max()) == 0


def test_space_tabulates_rule_once(monkeypatch):
    calls = []
    rule = fem._tri_rule

    def counted(order):
        calls.append(order)
        return rule(order)

    monkeypatch.setattr(fem, "_tri_rule", counted)
    space = square_space(0.3, 3)
    fem.stiffness(space)
    fem.mass(space)
    b = fem.volume_load(space, lambda x, y: x)
    space.quad_global()
    fem.Field(space, b).values_at_own_quad()
    assert len(calls) == 1


def test_mass_and_stiffness_basics(degree):
    space = square_space(0.3, degree)
    one = np.ones(space.ndof)
    M = fem.mass(space)
    # the higher-order rule tables carry ~1e-10 truncation
    np.testing.assert_allclose((one @ (M @ one)).real, 1.0, rtol=1e-9)
    K = fem.stiffness(space)
    np.testing.assert_allclose(np.abs(K @ one).max(), 0.0, atol=1e-11)


def test_boundary_mass_measures_length(degree):
    space = square_space(0.3, degree)
    B = fem.boundary_mass(space, "GammaN")
    one = np.ones(space.ndof)
    np.testing.assert_allclose((one @ (B @ one)).real, 4.0, rtol=1e-12)
    b = fem.boundary_load(space, "GammaN", lambda x, y: np.ones(np.shape(x)))
    np.testing.assert_allclose((one @ b).real, 4.0, rtol=1e-12)


def test_volume_load_integrates(degree):
    space = square_space(0.25, degree)
    b = fem.volume_load(space, lambda x, y: x)
    one = np.ones(space.ndof)
    np.testing.assert_allclose((one @ b).real, 0.5, rtol=1e-9)


def test_helmholtz_solve_residual_and_error():
    err, res = helmholtz_square_solve(0.12, 2)
    assert res <= 1e-10
    assert err < 5e-4


def test_symmetric_ordering_cuts_reference_fill():
    # the Helmholtz operator of a coarse perforated reference at the study's
    # degree: minimum degree on A + A^T against SuperLU's default COLAMD
    p = DomainParams()
    mesh = triangulate(build_perforated_domain(p, 1 / 8), 0.25)
    space = fem.Space(mesh, 3)
    solver = fem.Solver(helmholtz_matrix(space, p, kdelta_field(p, 1 / 8)))
    colamd = splu(solver.A_red)
    fill = solver.lu.L.nnz + solver.lu.U.nnz
    assert fill <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


def _reference_system():
    p = DomainParams()
    space = fem.Space(triangulate(build_perforated_domain(p, 1 / 8), 0.25), 3)
    return helmholtz_matrix(space, p, kdelta_field(p, 1 / 8)), None


def _cell_system():
    # build_cell's periodic Laplace operator, tied and with one dof fixed
    T = 4.0
    space = fem.Space(triangulate(build_cell_geometry(HoleSpec(), T), 0.15), 3)
    cons = fem.Constraints(space)
    cons.tie(*fem.paired_dofs(space, "Periodic_right", "Periodic_left", 1))
    xy = space.dof_coords
    cons.dirichlet(int(np.argmin(np.hypot(xy[:, 0] - 0.5, xy[:, 1] - T))))
    return fem.stiffness(space), cons


@pytest.mark.parametrize("system", [_reference_system, _cell_system])
def test_supernode_settings_keep_fill_and_solution(system):
    # Solver's supernodes against SuperLU's defaults under the same ordering
    # and pivoting: the same L+U, and the same solution to round-off
    assert 1 <= fem.RELAX <= fem.PANEL_SIZE
    solver = fem.Solver(*system())
    default = splu(solver.A_red, permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))
    assert (solver.lu.L.nnz + solver.lu.U.nnz
            == default.L.nnz + default.U.nnz)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(solver.A_red.shape[0]).astype(solver.A_red.dtype)
    x, y = solver.lu.solve(b), default.solve(b)
    assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def test_dirichlet_constraint():
    # Laplace with u = x on the boundary has exact solution u = x
    space = square_space(0.3, 2)
    K = fem.stiffness(space)
    cons = fem.Constraints(space)
    cons.dirichlet(space.boundary_dofs("GammaN"))
    u, _ = fem.solve(K, np.zeros(space.ndof, dtype=complex), cons,
                     space.dof_coords[:, 0])
    np.testing.assert_allclose(u.real, space.dof_coords[:, 0], atol=1e-10)


def test_tie_and_jump_constraints():
    # the pattern holds no values: a tie carries the jump d[slave], a fixed
    # dof takes d, and d's free entries are not read
    space = square_space(0.4, 1)
    cons = fem.Constraints(space)
    cons.tie([1, 2], [0, 0])
    cons.dirichlet(3)
    C, free = cons.build()
    assert C.shape == (space.ndof, free.size) and 0 in free
    A = sp.identity(space.ndof, dtype=complex, format="csr")
    b = np.zeros(space.ndof, dtype=complex)
    b[0] = 6.0                       # the three tied rows share dof 0's column
    d = np.zeros(space.ndof, dtype=complex)
    d[[2, 3, 4]] = 3.0, -1.0j, 7.0
    u, _ = fem.Solver(A, cons).solve(b, d)
    assert u[1] == u[0] and u[2] == u[0] + 3.0 and u[3] == -1.0j
    assert u[4] == 0.0
    np.testing.assert_allclose(u[0], 1.0, rtol=1e-14)


@pytest.mark.parametrize("m", [2, "n"])
def test_constrained_values_take_one_load(m):
    # d is the constrained values of one load; with a block it would be
    # broadcast along the wrong axis, so a block with d is refused
    space = square_space(0.4, 1)
    cons = fem.Constraints(space)
    cons.dirichlet(space.boundary_dofs("GammaN"))
    solver = fem.Solver(fem.stiffness(space) + fem.mass(space), cons)
    n = space.ndof
    B = np.ones((n, n if m == "n" else m))
    with pytest.raises(ValueError, match="one load at a time"):
        solver.solve(B, space.dof_coords[:, 0])
    # one load at a time takes its values
    u, _ = solver.solve(B[:, 0], space.dof_coords[:, 0])
    fixed = space.boundary_dofs("GammaN")
    np.testing.assert_array_equal(u[fixed], space.dof_coords[fixed, 0])


def test_constrained_values_need_a_constraint_pattern():
    # without a pattern no entry of d is constrained, so d would be dropped
    space = square_space(0.4, 1)
    solver = fem.Solver(fem.stiffness(space) + fem.mass(space))
    b = np.ones(space.ndof)
    with pytest.raises(ValueError, match="need a constraint pattern"):
        solver.solve(b, np.full(space.ndof, 5.0))


def test_real_operator_complex_load():
    # a real operator is factored in real arithmetic; a complex load and
    # complex constrained values give what the complex-cast system gives
    space = square_space(0.3, 2)
    A = fem.stiffness(space) + fem.mass(space)
    cons = fem.Constraints(space)
    cons.tie([1, 2], [0, 5])
    cons.dirichlet(3)
    rng = np.random.default_rng(3)
    b = rng.normal(size=space.ndof) + 1j * rng.normal(size=space.ndof)
    d = np.zeros(space.ndof, dtype=complex)
    d[[1, 2, 3]] = 0.5 - 2.0j, 1.5j, -1.0 + 0.25j
    real = fem.Solver(A, cons)
    assert real.A_red.dtype == np.float64
    u, _ = real.solve(b, d)
    want, _ = fem.Solver(A.astype(complex), cons).solve(b, d)
    np.testing.assert_allclose(u, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
    # a real load and real values stay real on the real factor
    u, _ = real.solve(b.real, d.real)
    assert u.dtype == np.float64
    want, _ = fem.Solver(A.astype(complex), cons).solve(b.real, d.real)
    np.testing.assert_allclose(u, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def test_real_factor_solves_a_block_of_complex_loads():
    # the reference's tile solves its seam block T_is at once; each column
    # is its own solve, and the residual gate reads them all
    space = square_space(0.3, 2)
    A = fem.stiffness(space) + fem.mass(space)
    solver = fem.Solver(A)
    rng = np.random.default_rng(5)
    B = (rng.standard_normal((A.shape[0], 3))
         + 1j * rng.standard_normal((A.shape[0], 3)) * [0, 1, 1])
    X, res = solver.solve(B)
    assert X.shape == B.shape and X.dtype == complex and res <= fem.RTOL
    for j in range(B.shape[1]):
        x, _ = solver.solve(B[:, j])
        np.testing.assert_allclose(X[:, j], x, rtol=0,
                                   atol=1e-13 * np.abs(x).max())
    # a real block stays real, column for column the complex block's
    X, _ = solver.solve(B.real)
    assert X.dtype == np.float64
    want, _ = solver.solve(B.real.astype(complex))
    np.testing.assert_allclose(X, want, rtol=0,
                               atol=1e-13 * np.abs(want).max())
    # a pure-Neumann operator without a fixed dof solves a load of zero
    # mean, and not a block that also holds a constant load
    A = fem.stiffness(space)
    solver = fem.Solver(A)
    good = A @ rng.standard_normal(A.shape[0]) * (1 + 2j)
    solver.solve(good)
    with pytest.raises(SingularSystem, match="direct solve residual"):
        solver.solve(np.column_stack([good, np.full(A.shape[0], 1j)]))


def test_assembly_over_listed_elements_sums_to_the_whole():
    space = square_space(0.3, 2)
    halves = np.array_split(np.arange(space.mesh.num_elements), 2)

    def k2(x, y):
        return 1.0 + x * y

    A = sum(fem.stiffness(space, elements=e)
            + fem.mass(space, coeff=k2, elements=e) for e in halves)
    whole = fem.stiffness(space) + fem.mass(space, coeff=k2)
    assert A.shape == whole.shape
    np.testing.assert_allclose((A - whole).toarray(), 0.0, atol=1e-13)


def test_array_constraints_match_scalar_calls():
    space = square_space(0.4, 1)
    slaves, masters = np.array([1, 2, 3]), np.array([0, 4, 5])
    one, many = fem.Constraints(space), fem.Constraints(space)
    for s, m in zip(slaves, masters):
        one.tie(s, m)
    for s in slaves + 10:
        one.dirichlet(s)
    many.tie(slaves, masters)
    many.dirichlet(slaves + 10)
    for a, b in zip(one.build(), many.build()):
        a = a.toarray() if hasattr(a, "toarray") else a
        b = b.toarray() if hasattr(b, "toarray") else b
        np.testing.assert_array_equal(a, b)


def test_constraint_misuse_raises():
    space = square_space(0.4, 1)
    twice = fem.Constraints(space)
    twice.tie([1, 2], [0, 0])
    twice.dirichlet(2)
    with pytest.raises(SingularSystem):
        twice.build()
    chain = fem.Constraints(space)
    chain.tie(1, 0)
    chain.tie(2, 1)
    with pytest.raises(SingularSystem):
        chain.build()
    fixed_master = fem.Constraints(space)
    fixed_master.tie(1, 0)
    fixed_master.dirichlet(0)
    with pytest.raises(SingularSystem):
        fixed_master.build()


def _neumann_laplace(space):
    """Pure-Neumann Laplace operator and a load that sums to zero exactly:
    the quadrature integrates x - 1/2 against the basis without error."""
    return (fem.stiffness(space),
            fem.volume_load(space, lambda x, y: x - 0.5))


def test_pure_neumann_laplace_is_singular():
    space = square_space(0.4, 1)
    K, b = _neumann_laplace(space)
    with pytest.raises(SingularSystem):
        fem.solve(K, fem.volume_load(space, lambda x, y: np.ones_like(x)))
    # one fixed dof removes the constants from the kernel; compatible data
    # then solve fine, and the fixed dof takes its value from d
    cons = fem.Constraints(space)
    cons.dirichlet(0)
    d = np.full(space.ndof, 2.5)
    u, res = fem.solve(K, b, cons, d)
    assert res <= 1e-12 and u[0] == 2.5
    np.testing.assert_allclose(np.linalg.norm(K @ u - b), 0.0, atol=1e-12)


def _at_blas_threads(code, threads):
    """The stdout of code run in a fresh interpreter at
    OPENBLAS_NUM_THREADS=threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_fem_import_sets_every_openblas_to_one_thread():
    # SuperLU's libscipy_openblas and numpy's 64-bit copy, whatever the
    # variable says
    out = _at_blas_threads(
        "import ctypes\n"
        "from numpy.linalg import _umath_linalg\n"
        "from scipy.sparse.linalg._dsolve import _superlu\n"
        "import thinwall.fem\n"
        "for mod, name in ((_superlu, 'scipy_openblas_get_num_threads'),\n"
        "                  (_umath_linalg,\n"
        "                   'scipy_openblas_get_num_threads64_')):\n"
        "    get = getattr(ctypes.CDLL(mod.__file__), name, None)\n"
        "    print(name, 'absent' if get is None else get())\n", 2)
    threads = dict(line.split() for line in out.splitlines())
    if "absent" in threads.values():
        pytest.skip(f"an OpenBLAS exports no thread count: {threads}")
    assert set(threads.values()) == {"1"}


def test_cell_constants_do_not_depend_on_openblas_num_threads():
    code = ("import math\n"
            "from thinwall.cell import build_cell, compute_constants\n"
            "from thinwall.params import HoleSpec\n"
            "cell = build_cell(HoleSpec(), T=6.0, h0=0.15, degree=3)\n"
            "print(repr(compute_constants(cell, 5 * math.pi).as_dict()))\n")
    assert _at_blas_threads(code, 1) == _at_blas_threads(code, 2)


@pytest.mark.parametrize("message, error", [
    ("SUPERLU_MALLOC fails for buf in doubleMalloc()", FactorOutOfMemory),
    ("Factor is exactly singular", SingularSystem),
])
def test_factor_failure_names_its_cause(monkeypatch, message, error):
    # a failed allocation is out of memory, not a singular system
    def failing(*args, **kwargs):
        raise RuntimeError(message)

    monkeypatch.setattr(fem, "splu", failing)
    space = square_space(0.4, 1)
    with pytest.raises(error) as info:
        fem.Solver(fem.stiffness(space))
    assert message in str(info.value)
    assert isinstance(info.value, MemoryError) == (error is FactorOutOfMemory)


def test_pure_neumann_gauge_is_a_constant():
    # with compatible data, which dof is fixed changes the solution only by
    # a constant
    space = square_space(0.3, 2)
    K, b = _neumann_laplace(space)
    xy = space.dof_coords
    fields = []
    for corner in ((0.0, 0.0), (1.0, 1.0)):
        cons = fem.Constraints(space)
        cons.dirichlet(int(np.argmin(np.hypot(*(xy - corner).T))))
        fields.append(fem.solve(K, b, cons)[0])
    shift = fields[0] - fields[1]
    assert abs(shift[0]) > 1e-2
    np.testing.assert_allclose(shift, shift[0], atol=1e-12)


def test_gradient_consistency():
    space = square_space(0.25, 3)
    coords = space.dof_coords
    coeffs = coords[:, 0] ** 2 + coords[:, 0] * coords[:, 1]
    field = fem.Field(space, coeffs)
    pts = np.array([[0.3, 0.4], [0.71, 0.22], [0.5, 0.9]])
    g = field.gradient(pts)
    np.testing.assert_allclose(g[:, 0].real, 2 * pts[:, 0] + pts[:, 1],
                               rtol=1e-11)
    np.testing.assert_allclose(g[:, 1].real, pts[:, 0], rtol=1e-11, atol=1e-12)


def test_boundary_load_normal_is_outward():
    # the load's entries sum to int g ds (the basis sums to one)
    space = square_space(0.3, 2)
    unit = fem.boundary_load_normal(space, "GammaN",
                                    lambda x, y, nx, ny: nx ** 2 + ny ** 2)
    np.testing.assert_allclose(unit.sum(), 4.0, rtol=1e-12)
    # outward: int n . (x - c) ds = 2 |square| by the divergence theorem,
    # and n . (x - c) = +1/2 on every edge
    out = fem.boundary_load_normal(
        space, "GammaN", lambda x, y, nx, ny: nx * (x - 0.5) + ny * (y - 0.5))
    np.testing.assert_allclose(out.sum(), 2.0, rtol=1e-12)


def test_misspelt_tag_raises():
    from thinwall.errors import UnknownTag
    space = square_space(0.3, 1)
    with pytest.raises(UnknownTag):
        fem.boundary_mass(space, "GammaR_Plus")


def test_tag_missing_from_the_mesh_raises():
    # a valid tag this mesh does not carry is an error, not an empty matrix
    from thinwall.errors import UnknownTag
    with pytest.raises(UnknownTag, match="GammaR_plus"):
        fem.boundary_mass(square_space(0.3, 1), "GammaR_plus")


def test_inverted_element_raises():
    from thinwall.errors import SingularElement
    from thinwall.mesh import Mesh
    mesh = square_space(0.3, 1).mesh
    elements = mesh.elements.copy()
    elements[0] = elements[0, ::-1]
    with pytest.raises(SingularElement):
        fem.Space(Mesh(mesh.nodes, elements, mesh.boundary_edges,
                       mesh.boundary_tags), 1)
