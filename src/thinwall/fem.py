"""Nodal Lagrange finite elements on tagged triangle meshes.

Degrees 1-3 on straight triangles, Dunavant volume quadrature and
Gauss-Legendre edge quadrature.  Each space tabulates its one Dunavant rule
once.  A volume matrix is a reference tensor of that rule contracted with a
few affine factors per element (Kirby & Logg, ACM TOMS 32, 2006), which is
exact for straight triangles, and every matrix is summed by one sparse
COO -> CSR build.  An operator keeps its data's dtype: stiffness, boundary
mass and a mass with a real coefficient are real, and only a complex term
(a complex coefficient, the absorbing -i k0 M_R) makes a matrix complex.
Loads and fields are complex.

One solve contract: space -> operator -> constraint pattern -> factor once
-> solve(b, d).  A Constraints object holds only which dofs are fixed and
which are tied to which; it is eliminated through a sparse prolongation
u_full = C u_free + d, and every constrained value (Dirichlet data, a
prescribed inter-face jump) is the per-solve vector d.  Every operator here
is symmetric, so the reduced matrix is factored in its own dtype under a
minimum-degree ordering of A + A^T (George & Liu, SIAM Review 31, 1989).
SuperLU (Demmel et al., SIAM J. Matrix Anal. Appl. 20, 1999) factors it
with two fixed supernode settings, RELAX = 1 and PANEL_SIZE = 8 (see
Solver).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (FactorOutOfMemory, OutsideRegion, SingularElement,
                     SingularSystem)
from .mesh import Mesh

__all__ = ["Space", "Constraints", "Solver", "Field", "stiffness", "mass",
           "boundary_mass", "boundary_load", "boundary_load_normal",
           "volume_load", "solve", "paired_dofs"]

RTOL = 1e-10         # largest relative residual a direct solve may leave
# SuperLU's supernode settings (see Solver); SuperLU needs RELAX <= PANEL_SIZE
RELAX = 1
PANEL_SIZE = 8


# -- reference element ------------------------------------------------------------

def _ref_nodes(p):
    """Lattice nodes on the reference triangle in local dof order."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    nodes = list(verts)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for i in range(1, p):
            t = i / p
            nodes.append((verts[a][0] + t * (verts[b][0] - verts[a][0]),
                          verts[a][1] + t * (verts[b][1] - verts[a][1])))
    if p == 3:
        nodes.append((1.0 / 3.0, 1.0 / 3.0))
    return np.array(nodes)


def _monomials(p, x, y):
    cols = [np.ones_like(x)]
    for deg in range(1, p + 1):
        for j in range(deg + 1):
            cols.append(x ** (deg - j) * y ** j)
    return np.column_stack(cols)


def _monomial_grads(p, x, y):
    gx = [np.zeros_like(x)]
    gy = [np.zeros_like(x)]
    for deg in range(1, p + 1):
        for j in range(deg + 1):
            i = deg - j
            gx.append(i * x ** max(i - 1, 0) * y ** j)
            gy.append(j * x ** i * y ** max(j - 1, 0))
    return np.column_stack(gx), np.column_stack(gy)


class _RefBasis:
    def __init__(self, p):
        self.p = p
        self.nodes = _ref_nodes(p)
        V = _monomials(p, self.nodes[:, 0], self.nodes[:, 1])
        self.coeff = np.linalg.inv(V)  # phi_j = sum_k coeff[k, j] * mono_k

    def eval(self, pts):
        """(npts, ndof_loc) basis values."""
        return _monomials(self.p, pts[:, 0], pts[:, 1]) @ self.coeff

    def grad(self, pts):
        """(npts, ndof_loc, 2) reference gradients."""
        gx, gy = _monomial_grads(self.p, pts[:, 0], pts[:, 1])
        return np.stack([gx @ self.coeff, gy @ self.coeff], axis=-1)


# Dunavant symmetric triangle rules; weights sum to 1 (multiply by area).
def _tri_rule(order):
    if order <= 5:
        groups = [
            (0.225, (1 / 3, 1 / 3, 1 / 3)),
            (0.132394152788506, (0.059715871789770, 0.470142064105115,
                                 0.470142064105115)),
            (0.125939180544827, (0.797426985353087, 0.101286507323456,
                                 0.101286507323456)),
        ]
    else:
        groups = [
            (0.144315607677787, (1 / 3, 1 / 3, 1 / 3)),
            (0.095091634413923, (0.081414823414554, 0.459292588292723,
                                 0.459292588292723)),
            (0.103217370534718, (0.658861384496480, 0.170569307751760,
                                 0.170569307751760)),
            (0.032458497623198, (0.898905543365938, 0.050547228317031,
                                 0.050547228317031)),
            (0.027230314174435, (0.008394777409958, 0.263112829634638,
                                 0.728492392955404)),
        ]
    pts, w = [], []
    for wt, bary in groups:
        seen = set()
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1),
                     (0, 2, 1), (2, 1, 0), (1, 0, 2)):
            lam = tuple(bary[i] for i in perm)
            if lam in seen:
                continue
            seen.add(lam)
            pts.append((lam[1], lam[2]))  # reference coords (x,y) = (l2,l3)
            w.append(wt)
    return np.array(pts), np.array(w)


# -- dof management ------------------------------------------------------------------

class Space:
    """Scalar Lagrange space of degree p on a Mesh.

    Dof order: mesh nodes first, then (p-1) dofs per edge stored from the
    lower to the higher global node id, then one interior dof per element
    for p = 3.  Edges are numbered by first appearance in the element list,
    local edges (0,1), (1,2), (2,0) in turn.
    """

    def __init__(self, mesh: Mesh, degree: int = 2):
        if degree not in (1, 2, 3):
            raise ValueError("degree must be 1, 2 or 3")
        self.mesh = mesh
        self.p = p = degree
        self.ref = _RefBasis(p)
        N, M = mesh.num_nodes, mesh.num_elements
        # the edge table: one row per edge, (low node, high node), with the
        # element it first appears in; keys sorted for lookup by node pair
        local = mesh.elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys, first, inv = np.unique(local.min(axis=1) * N + local.max(axis=1),
                                     return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        self._edge_keys = keys
        self._edge_num = np.empty_like(order)
        self._edge_num[order] = np.arange(order.size)
        self.edges = np.column_stack([keys[order] // N, keys[order] % N])
        self.edge_element = first[order] // 3
        self.element_dofs = np.empty((M, self.ref.nodes.shape[0]), dtype=np.int64)
        self.element_dofs[:, :3] = mesh.elements
        ndof = N + (p - 1) * order.size
        if p >= 2:
            num = self._edge_num[inv].reshape(M, 3)
            flip = (local[:, 0] > local[:, 1]).reshape(M, 3)
            self.element_dofs[:, 3:3 + 3 * (p - 1)] = self._edge_dofs(
                num, flip).reshape(M, -1)
        if p == 3:
            self.element_dofs[:, 9] = np.arange(ndof, ndof + M)
            ndof += M
        self.ndof = ndof
        self._coords = None
        self._tab = None
        self._quad = None
        self._tree = None
        self._jac = None
        bad = np.flatnonzero(self._jacobians()[2] <= 0)
        if bad.size:
            raise SingularElement(f"{bad.size} elements with detJ <= 0, "
                                  f"e.g. element {bad[0]}")

    def _edge_dofs(self, num, flip):
        """(..., p-1) interior dofs of edges num, walked from the high node
        to the low one where flip is set."""
        step = np.arange(self.p - 1)
        return (self.mesh.num_nodes + (self.p - 1) * num[..., None]
                + np.where(flip[..., None], self.p - 2 - step, step))

    def _edge_numbers(self, pairs):
        """Edge number of each node pair (a, b) of a (K, 2) array; raises
        OutsideRegion for a pair that is no element's edge."""
        key = pairs.min(axis=1) * self.mesh.num_nodes + pairs.max(axis=1)
        pos = np.minimum(np.searchsorted(self._edge_keys, key),
                         self._edge_keys.size - 1)
        missing = self._edge_keys[pos] != key
        if np.any(missing):
            raise OutsideRegion(f"{np.count_nonzero(missing)} edges are not "
                                f"part of any element, e.g. {pairs[missing][0]}")
        return self._edge_num[pos]

    def _edge_rows(self, pairs):
        """Dof sequence (a, interior along a->b, b) of each edge (a, b)."""
        inner = self._edge_dofs(self._edge_numbers(pairs),
                                pairs[:, 0] > pairs[:, 1])
        return np.column_stack([pairs[:, :1], inner, pairs[:, 1:]])

    def boundary_dofs(self, tag: str) -> np.ndarray:
        """Sorted dofs on the boundary edges tagged `tag`."""
        return np.unique(self._edge_rows(self.mesh.edges_with_tag(tag)))

    @property
    def dof_coords(self) -> np.ndarray:
        if self._coords is None:
            nodes, N = self.mesh.nodes, self.mesh.num_nodes
            c = np.zeros((self.ndof, 2))
            c[:N] = nodes
            if self.p >= 2:
                # edge dofs follow the nodes, p-1 per edge in table order
                a, b = nodes[self.edges[:, 0]], nodes[self.edges[:, 1]]
                t = np.arange(1, self.p) / self.p
                on_edges = a[:, None] + t[None, :, None] * (b - a)[:, None]
                c[N:N + on_edges.size // 2] = on_edges.reshape(-1, 2)
            if self.p == 3:
                cent = nodes[self.mesh.elements].mean(axis=1)
                c[self.element_dofs[:, 9]] = cent
            self._coords = c
        return self._coords

    # geometry of the affine map per element (cached; meshes are immutable)
    def _jacobians(self):
        if self._jac is None:
            pts = self.mesh.nodes[self.mesh.elements]
            J = np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]], axis=-1)
            detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            Jinv = np.empty_like(J)
            Jinv[:, 0, 0] = J[:, 1, 1] / detJ
            Jinv[:, 0, 1] = -J[:, 0, 1] / detJ
            Jinv[:, 1, 0] = -J[:, 1, 0] / detJ
            Jinv[:, 1, 1] = J[:, 0, 0] / detJ
            self._jac = (J, Jinv, detJ)
        return self._jac

    def _rule(self):
        """The space's volume rule, tabulated on first use: reference points
        qp (Q, 2), weights qw (Q,) summing to 1, basis values phi (Q, nloc)
        and reference gradients gphi (Q, nloc, 2) there."""
        if self._tab is None:
            qp, qw = _tri_rule(5 if self.p <= 2 else 8)
            self._tab = (qp, qw, self.ref.eval(qp), self.ref.grad(qp))
        return self._tab

    def quad_global(self, elements=None):
        """Physical quadrature points and weights, flattened over elements:
        all of them (cached), or those listed in elements."""
        if elements is None and self._quad is not None:
            return self._quad
        qp, qw, _, _ = self._rule()
        sel = slice(None) if elements is None else elements
        pts = self.mesh.nodes[self.mesh.elements[sel]]
        phys = (pts[:, None, 0, :]
                + qp[None, :, 0, None] * (pts[:, 1] - pts[:, 0])[:, None, :]
                + qp[None, :, 1, None] * (pts[:, 2] - pts[:, 0])[:, None, :])
        w = 0.5 * self._jacobians()[2][sel, None] * qw[None, :]
        quad = (phys.reshape(-1, 2), w.reshape(-1))
        if elements is None:
            self._quad = quad
        return quad

    # -- point location -----------------------------------------------------------

    def locate(self, points, tol=1e-10):
        """Element index and reference coordinates for each query point."""
        from scipy.spatial import cKDTree

        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if self._tree is None:
            cent = self.mesh.nodes[self.mesh.elements].mean(axis=1)
            self._tree = cKDTree(cent)
        p0 = self.mesh.nodes[self.mesh.elements[:, 0]]
        _, Jinv, _ = self._jacobians()
        elem = np.full(points.shape[0], -1, dtype=np.int64)
        ref = np.zeros_like(points)
        pending = np.arange(points.shape[0])
        for k in (8, 40, 160):
            if pending.size == 0:
                break
            k_eff = min(k, self.mesh.num_elements)
            _, cand = self._tree.query(points[pending], k=k_eff)
            cand = np.atleast_2d(cand)
            for j in range(k_eff):
                c = cand[:, j]
                rel = points[pending] - p0[c]
                xi = np.einsum("nij,nj->ni", Jinv[c], rel)
                margin = np.minimum(np.minimum(xi[:, 0], xi[:, 1]),
                                    1.0 - xi[:, 0] - xi[:, 1])
                take = (margin > -tol) & (elem[pending] < 0)
                idx = pending[take]
                elem[idx] = c[take]
                ref[idx] = xi[take]
            pending = pending[elem[pending] < 0]
        if pending.size:
            raise OutsideRegion(
                f"{pending.size} evaluation points outside the mesh, e.g. "
                f"{points[pending[0]]}")
        return elem, ref


# -- assembly ----------------------------------------------------------------------

def _on(space: Space, elements):
    """(element dofs, Jinv, detJ) of the listed elements, or of all."""
    _, Jinv, detJ = space._jacobians()
    rows = space.element_dofs
    if elements is None:
        return rows, Jinv, detJ
    return rows[elements], Jinv[elements], detJ[elements]


def stiffness(space: Space, elements=None):
    """Stiffness matrix: per element, the reference tensor
    S[(j,k),(n,m)] = sum_q w_q d_j phi_n(q) d_k phi_m(q) contracted with
    1/2 detJ Jinv Jinv^T.  elements, if given, lists the elements summed;
    the matrix is over all dofs either way."""
    _, qw, _, gphi = space._rule()
    rows, Jinv, detJ = _on(space, elements)
    nloc = gphi.shape[1]
    S = np.einsum("q,qnj,qmk->jknm", qw, gphi, gphi).reshape(4, nloc * nloc)
    # couplings that vanish for every triangle stay out of the pattern; for
    # P2 these are a vertex and its opposite edge's midpoint, since the
    # integral of (4 l_i - 1) l_k is zero, and quadrature leaves round-off
    keep = np.abs(S).max(axis=0) > 1e-12 * np.abs(S).max()
    G = 0.5 * detJ[:, None, None] * (Jinv @ Jinv.transpose(0, 2, 1))
    return _matrix(space, rows, G.reshape(-1, 4) @ S[:, keep], keep)


def mass(space: Space, coeff=None, elements=None):
    """Weighted mass matrix; coeff is a constant or a vectorized callable,
    and elements, if given, lists the elements summed (see stiffness).

    Per element, the pointwise coefficient times 1/2 detJ contracts the
    reference tensor P[q,(n,m)] = w_q phi_n(q) phi_m(q).
    """
    _, qw, phi, _ = space._rule()
    rows, _, detJ = _on(space, elements)
    M, Q, nloc = detJ.size, qw.size, phi.shape[1]
    P = np.einsum("q,qn,qm->qnm", qw, phi, phi).reshape(Q, nloc * nloc)
    if callable(coeff):
        pts, _ = space.quad_global(elements)
        cval = np.asarray(coeff(pts[:, 0], pts[:, 1])).reshape(M, Q)
    else:
        cval = np.broadcast_to(1.0 if coeff is None else coeff, (M, Q))
    loc = (cval * (0.5 * detJ)[:, None]) @ P
    return _matrix(space, rows, loc)


def volume_load(space: Space, f):
    _, qw, phi, _ = space._rule()
    _, _, detJ = space._jacobians()
    pts, _ = space.quad_global()
    fv = np.asarray(f(pts[:, 0], pts[:, 1]), dtype=complex)
    loc = np.einsum("qn,q,eq,e->en", phi, qw, fv.reshape(-1, qw.size),
                    0.5 * detJ)
    return _scatter(space, space.element_dofs, loc)


def _matrix(space: Space, rows, loc, keep=None):
    """CSR matrix summing the local matrices loc (K, n*n) into the dof rows
    (K, n): one COO -> CSR build in loc's dtype.  With the mask keep (n*n,),
    loc holds only the kept local entries."""
    n = rows.shape[1]
    k = np.arange(n * n) if keep is None else np.flatnonzero(keep)
    A = sp.coo_matrix((loc.reshape(-1), (rows[:, k // n].reshape(-1),
                                         rows[:, k % n].reshape(-1))),
                      shape=(space.ndof, space.ndof))
    return A.tocsr()


def _scatter(space: Space, rows, loc):
    """Load vector summing the local entries loc into their dofs rows."""
    b = np.zeros(space.ndof, dtype=complex)
    np.add.at(b, rows.reshape(-1), loc.reshape(-1))
    return b


class _EdgeRule(NamedTuple):
    """An nq-point Gauss rule on the edges of one boundary tag."""

    edges: np.ndarray   # (E, 2) node pairs
    rows: np.ndarray    # (E, p+1) dofs along each edge, from a to b
    t: np.ndarray       # (Q,) Gauss points on [0, 1]
    w: np.ndarray       # (Q,) their weights
    phi: np.ndarray     # (Q, p+1) basis along an edge at t, in rows' order
    pa: np.ndarray      # (E, 2) first endpoints
    pb: np.ndarray      # (E, 2) second endpoints
    lens: np.ndarray    # (E,) edge lengths

    def points(self):
        """(E, Q, 2) physical Gauss points."""
        return (self.pa[:, None, :]
                + self.t[None, :, None] * (self.pb - self.pa)[:, None, :])


def _edge_rule(space: Space, tag: str, nq: int) -> _EdgeRule:
    edges = space.mesh.edges_with_tag(tag)
    t, w = np.polynomial.legendre.leggauss(nq)
    t = 0.5 * (t + 1.0)
    # the element basis on reference edge (0, 1): vertex 0, that edge's
    # interior dofs in order, vertex 1
    phi = space.ref.eval(np.column_stack([t, np.zeros_like(t)]))
    phi = phi[:, [0, *range(3, space.p + 2), 1]]
    pa = space.mesh.nodes[edges[:, 0]]
    pb = space.mesh.nodes[edges[:, 1]]
    return _EdgeRule(edges, space._edge_rows(edges), t, 0.5 * w, phi, pa, pb,
                     np.linalg.norm(pb - pa, axis=1))


def boundary_mass(space: Space, tag: str):
    r = _edge_rule(space, tag, space.p + 2)
    loc = np.einsum("qn,qm,q,e->enm", r.phi, r.phi, r.w, r.lens)
    return _matrix(space, r.rows, loc)


def boundary_load(space: Space, tag: str, g):
    """Load vector int_tag g(x) v ds; g constant or vectorized callable."""
    r = _edge_rule(space, tag, space.p + 3)
    if callable(g):
        pts = r.points()
        gv = np.asarray(g(pts[..., 0].ravel(), pts[..., 1].ravel()),
                        dtype=complex).reshape(len(r.edges), r.t.size)
    else:
        gv = np.full((len(r.edges), r.t.size), g, dtype=complex)
    loc = np.einsum("qn,q,eq,e->en", r.phi, r.w, gv, r.lens)
    return _scatter(space, r.rows, loc)


def boundary_load_normal(space: Space, tag: str, g):
    """Load vector int_tag g(x, y, nx, ny) v ds with outward normals: each
    normal points away from its edge's one adjacent element, out of the
    meshed domain."""
    r = _edge_rule(space, tag, space.p + 3)
    elem = space.edge_element[space._edge_numbers(r.edges)]
    wts = r.lens[:, None] * r.w[None, :]
    tang = (r.pb - r.pa) / r.lens[:, None]
    normals = np.column_stack([tang[:, 1], -tang[:, 0]])
    cent = space.mesh.nodes[space.mesh.elements[elem]].mean(axis=1)
    inward = np.einsum("ei,ei->e", normals, cent - 0.5 * (r.pa + r.pb)) > 0
    normals[inward] = -normals[inward]
    pts = r.points()
    E, Q = wts.shape
    nn = np.broadcast_to(normals[:, None, :], (E, Q, 2))
    gv = np.asarray(g(pts[..., 0].ravel(), pts[..., 1].ravel(),
                      nn[..., 0].ravel(), nn[..., 1].ravel()),
                    dtype=complex).reshape(E, Q)
    loc = np.einsum("qn,eq,eq->en", r.phi, wts, gv)
    return _scatter(space, r.rows, loc)


# -- constraints -----------------------------------------------------------------------

class Constraints:
    """The pattern of linear relations u[slave] = u[master] + d[slave],
    held as index arrays; the values d are data of each solve (Solver.solve).

    A master of -1 fixes the dof: u[slave] = d[slave].  Every method takes
    one dof or an array of them.
    """

    def __init__(self, space: Space):
        self.space = space
        self.slave = np.zeros(0, dtype=np.int64)
        self.master = np.zeros(0, dtype=np.int64)

    def _add(self, slave, master):
        self.slave = np.append(self.slave, slave)
        self.master = np.append(self.master,
                                np.broadcast_to(master, np.shape(slave)))

    def dirichlet(self, dofs):
        self._add(dofs, -1)

    def tie(self, slave, master):
        self._add(slave, master)

    def build(self):
        """(C, free): the real prolongation u_full = C u_free + d, where d is
        zero off the constrained dofs, and the free dofs in column order."""
        n = self.space.ndof
        constrained = np.zeros(n, dtype=bool)
        constrained[self.slave] = True
        if np.count_nonzero(constrained) < self.slave.size:
            raise SingularSystem("a dof is constrained twice")
        tied = self.master >= 0
        slave, master = self.slave[tied], self.master[tied]
        if np.any(constrained[master]):
            raise SingularSystem("a constraint's master is itself constrained")
        free = np.flatnonzero(~constrained)
        col_of = np.cumsum(~constrained) - 1
        rows = np.concatenate([free, slave])
        cols = np.concatenate([np.arange(free.size), col_of[master]])
        C = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                          shape=(n, free.size)).tocsr()
        return C, free


def paired_dofs(space: Space, tag_a, tag_b, axis):
    """Dofs of two congruent tagged boundaries, paired by coordinate axis."""
    coords = space.dof_coords
    a, b = space.boundary_dofs(tag_a), space.boundary_dofs(tag_b)
    if a.size != b.size:
        raise SingularSystem(f"{tag_a} and {tag_b} have different dof counts")
    a = a[np.argsort(coords[a, axis])]
    b = b[np.argsort(coords[b, axis])]
    if np.max(np.abs(coords[a, axis] - coords[b, axis])) > 1e-9:
        raise SingularSystem(f"{tag_a} and {tag_b} are not congruent")
    return a, b


# -- solving and evaluation ----------------------------------------------------------

class Solver:
    """Direct sparse solver of A u = b, factored once for many loads.

    The constraint pattern is eliminated through u = C x + d, so splu
    factors the reduced matrix C^T A C, in A's own dtype; a real factor
    solves a complex load's real and imaginary parts apart.  Every operator
    here is symmetric, so the ordering is minimum degree on A + A^T and the
    diagonal is the preferred pivot, kept while it is at least 0.01 of its
    column's largest entry.  A singular operator, such as a pure-Neumann
    one, needs a fixed dof in the pattern to remove its kernel, and
    compatible loads.

    Supernodes are not relaxed (RELAX = 1), and a panel is PANEL_SIZE = 8
    columns.  SuperLU's default relaxation makes dense supernodes out of
    the small subtrees at the leaves of the elimination tree; on these
    minimum-degree-ordered matrices that leaves L+U as it is and costs time
    and memory.  At one BLAS thread the reduced system of the study's P3
    reference at delta = 1/64 (67,335 unknowns of its 242,175 dofs) factors
    in 0.44 s and 210 MB peak without it and 0.86 s and 275 MB with it
    (tools/factor_table.py), and the uncondensed 1/128 system (488,135
    unknowns) 4.1 s without it and 113 s with it.  On the uncondensed
    systems panels of 2 to 12 columns took about the same time, and a wider
    one more memory; panel 4 peaked 1 to 5 % lower than 8 but factored
    four of nine slower, so the panel stays at 8.  SuperLU needs RELAX <=
    PANEL_SIZE: a relaxation wider than the panel corrupts its heap.
    """

    def __init__(self, A, constraints: Constraints | None = None):
        self.A, self.C = A, None
        if constraints is not None:
            self.C, _ = constraints.build()
            self.constrained = np.zeros(A.shape[0], dtype=bool)
            self.constrained[constraints.slave] = True
            A_red = (self.C.T @ (A @ self.C)).tocsc()
        else:
            A_red = sp.csc_matrix(A)
        self.A_red = A_red
        try:
            self.lu = splu(A_red, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.01, relax=RELAX,
                           panel_size=PANEL_SIZE,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            # SuperLU reports a failed allocation as "... malloc fails ..."
            # or "... memory ...", and a zero pivot as "... singular"
            msg = str(exc).lower()
            if "alloc" in msg or "memory" in msg:
                raise FactorOutOfMemory(
                    f"factorization ran out of memory: {exc}") from exc
            raise SingularSystem(f"factorization failed: {exc}") from exc

    def solve(self, b, d=None):
        """(u, relative residual of the reduced system) for the load b, one
        load or an (n, m) block of them, the residual the block's.

        d holds the constrained values: u[slave] = u[master] + d[slave] for
        a tie and u[fixed] = d[fixed]; only those entries are read, and None
        means all zero.
        """
        b = np.asarray(b, dtype=complex)
        if self.C is None:
            b_red = b
        else:
            if d is not None:
                d = np.where(self.constrained, d, 0.0).astype(complex)
                b = b - self.A @ d
            b_red = self.C.T @ b
        if np.iscomplexobj(self.A_red):
            x = self.lu.solve(b_red)
        else:
            # SuperLU does not cast a complex load to a real factor's dtype;
            # viewed as floats, a load's real and imaginary parts are columns
            parts = np.ascontiguousarray(b_red).view(float)
            parts = self.lu.solve(parts.reshape(b_red.shape[0], -1))
            x = np.ascontiguousarray(parts).view(complex).reshape(b_red.shape)
        r = self.A_red @ x
        r -= b_red
        res = np.linalg.norm(r) / max(np.linalg.norm(b_red), 1e-300)
        if not np.isfinite(res) or res > RTOL:
            raise SingularSystem(f"direct solve residual {res:.2e} exceeds "
                                 f"{RTOL}")
        if self.C is not None:
            x = self.C @ x
            if d is not None:
                x = x + d
        return x, float(res)


def solve(A, b, constraints: Constraints | None = None, d=None):
    """One-shot direct solve of A u = b: (u, residual) (see Solver)."""
    return Solver(A, constraints).solve(b, d)


class Field:
    """A coefficient vector over a Space, evaluable anywhere in the mesh."""

    def __init__(self, space: Space, coeffs):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=complex).reshape(space.ndof)

    def evaluate(self, points, loc=None):
        elem, ref = self.space.locate(points) if loc is None else loc
        phi = self.space.ref.eval(ref)          # (Q, nloc)
        dofs = self.space.element_dofs[elem]
        return np.einsum("qn,qn->q", phi, self.coeffs[dofs])

    def gradient(self, points, loc=None):
        elem, ref = self.space.locate(points) if loc is None else loc
        gphi = self.space.ref.grad(ref)         # (Q, nloc, 2)
        _, Jinv, _ = self.space._jacobians()
        g = np.einsum("qji,qnj->qni", Jinv[elem], gphi)
        dofs = self.space.element_dofs[elem]
        return np.einsum("qni,qn->qi", g, self.coeffs[dofs])

    def values_at_own_quad(self):
        _, _, phi, _ = self.space._rule()
        vals = np.einsum("qn,en->eq", phi, self.coeffs[self.space.element_dofs])
        return vals.reshape(-1)

    def grads_at_own_quad(self):
        _, _, _, gphi = self.space._rule()
        _, Jinv, _ = self.space._jacobians()
        g = np.einsum("eji,qnj->eqni", Jinv, gphi)
        vals = np.einsum("eqni,en->eqi", g, self.coeffs[self.space.element_dofs])
        return vals.reshape(-1, 2)
