"""Manufactured solutions and closed-form oracles shared by the tests."""

import math

import numpy as np

from thinwall import fem
from thinwall.cascade import TransmissionData, build_limit_space, \
    solve_transmission
from thinwall.geometry import GeometrySpec, _rect_loop
from thinwall.params import DomainParams, HoleSpec
from thinwall.triangulate import GradingSpec, triangulate

KSQ = 1.69  # off any Neumann eigenvalue of the unit square

# one line per acceptance criterion, re-printed in the terminal summary by
# conftest.pytest_terminal_summary (plain test stdout is hidden on pass)
ACCEPTANCE_LINES = []


def record_acceptance(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    return ok

# mesh ladders in the asymptotic range; the transmission ladder halves h0 so
# the power-of-two quantization of the interface spacing halves in lockstep
SQUARE_LADDER = (0.24, 0.17, 0.12, 0.085)
TRANSMISSION_LADDER = (0.085, 0.0425, 0.02125)


def square_space(h0, degree):
    pts, tags = _rect_loop(0.0, 1.0, 0.0, 1.0,
                           ("GammaN", "GammaN", "GammaN", "GammaN"))
    mesh = triangulate(GeometrySpec(loops=[(pts, tags)]), h0)
    return fem.Space(mesh, degree)


def l2_error(space, coeffs, exact):
    pts, w = space.quad_global()
    uh = fem.Field(space, coeffs).values_at_own_quad()
    return float(np.sqrt(np.sum(w * np.abs(uh - exact(pts[:, 0],
                                                      pts[:, 1])) ** 2)))


def helmholtz_square_solve(h0, degree):
    """Neumann Helmholtz solve with exact solution cos(pi x) cos(pi y)."""
    space = square_space(h0, degree)
    u_ex = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    f = lambda x, y: (2.0 * np.pi ** 2 - KSQ) * u_ex(x, y)
    A = fem.stiffness(space) - KSQ * fem.mass(space)
    b = fem.volume_load(space, f)
    u, res = fem.solve(A, b)
    return l2_error(space, u, u_ex), res


class ManufacturedTransmission:
    """Smooth two-sided field with a prescribed interface jump.

    The continuous part is a plane-wave-like product; the jumping part is a
    C3 bump in x1 (vanishing at the interface tips) times a polynomial bump
    in x2 supported just above the interface, so the exact trace jump and
    vertical derivative jump are available in closed form.
    """

    A, B = 1.1, 0.7
    Y0 = 0.9

    def __init__(self, p: DomainParams):
        self.p = p
        self.c = math.pi / (2.0 * p.L)

    # -- jumping part -------------------------------------------------------
    def _psi(self, x, order=0):
        u = np.asarray(x, dtype=float) / self.p.L
        s = np.clip(1.0 - u * u, 0.0, None)
        if order == 0:
            return s ** 5
        if order == 2:
            # d2/dx2 (1 - u^2)^5 = (80 u^2 s^3 - 10 s^4) / L^2
            return (80.0 * u * u * s ** 3 - 10.0 * s ** 4) / self.p.L ** 2
        raise ValueError(order)

    def _phi(self, y, order=0):
        t = 1.0 - np.asarray(y, dtype=float) / self.Y0
        t = np.clip(t, 0.0, None)
        if order == 0:
            return t ** 6
        if order == 1:
            return -6.0 * t ** 5 / self.Y0
        return 30.0 * t ** 4 / self.Y0 ** 2

    def _w(self, x, y):
        return self._psi(x) * self._phi(y)

    def _lap_w(self, x, y):
        return self._psi(x, 2) * self._phi(y) + self._psi(x) * self._phi(y, 2)

    # -- continuous part ----------------------------------------------------
    def _v(self, x, y):
        return np.cos(self.A * x + 0.3) * np.cos(self.B * y - 0.2)

    def _dv(self, x, y):
        return (-self.A * np.sin(self.A * x + 0.3) * np.cos(self.B * y - 0.2),
                -self.B * np.cos(self.A * x + 0.3) * np.sin(self.B * y - 0.2))

    # -- manufactured data --------------------------------------------------
    def exact(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self._v(x, y) + np.where(y > 0, self._w(x, y), 0.0)

    def volume_load(self, x, y):
        k2 = self.p.k0 ** 2
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        f = (self.A ** 2 + self.B ** 2 - k2) * self._v(x, y)
        top = y > 0
        return f - np.where(top, self._lap_w(x, y) + k2 * self._w(x, y), 0.0)

    def jump_g(self, x):
        return self._psi(x).astype(complex)

    def jump_h(self, x):
        return (-6.0 / self.Y0) * self._psi(x).astype(complex)

    def _normal(self, x, y):
        p = self.p
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        nx = np.zeros_like(x)
        ny = np.zeros_like(nx)
        ny[np.abs(y) < 1e-9] = -1.0
        ny[y > p.H - 1e-9] = 1.0
        ny[y < -p.Hp + 1e-9] = -1.0
        side = (ny == 0.0)
        nx[side] = np.sign(x[side])
        return nx, ny

    def neumann(self, x, y):
        dvx, dvy = self._dv(x, y)
        nx, ny = self._normal(x, y)
        return nx * dvx + ny * dvy

    def robin(self, sign):
        def g(x, y):
            dvx, _ = self._dv(x, y)
            return sign * dvx - 1.0j * self.p.k0 * self._v(x, y)
        return g

    def data(self):
        return TransmissionData(
            f=self.volume_load, g=self.jump_g, h=self.jump_h,
            boundary={"GammaR_plus": self.robin(+1.0),
                      "GammaR_minus": self.robin(-1.0),
                      "GammaN": self.neumann})


def transmission_solve(h0, degree, k0=2.0):
    # quasi-uniform meshes: the manufactured field is smooth, and rate
    # measurement needs the element size to scale linearly with h0
    p = DomainParams(k0=k0, hole=HoleSpec(kind="none"))
    man = ManufacturedTransmission(p)
    space = build_limit_space(p, h0=h0, degree=degree,
                              grading=GradingSpec(sigma=0.5, n_layers=0))
    field = solve_transmission(space, p, man.data())
    return l2_error(space, field.coeffs, man.exact)


def helmholtz_rate(degree):
    """(fitted L2 rate, worst solver residual) on the square ladder."""
    pairs, worst = [], 0.0
    for h0 in SQUARE_LADDER:
        err, res = helmholtz_square_solve(h0, degree)
        pairs.append((h0, err))
        worst = max(worst, res)
    from thinwall.harness import fit_slope
    return fit_slope(pairs)[0], worst


def transmission_rate(degree):
    from thinwall.harness import fit_slope
    pairs = [(h0, transmission_solve(h0, degree))
             for h0 in TRANSMISSION_LADDER]
    return fit_slope(pairs)[0]


class OddConstants:
    """Layer constants with the X1-odd D1 and N3 switched on."""
    D1, D2, N2, N3 = 0.031 + 0.002j, 0.151, 0.13 - 0.01j, -0.024


def minus_corner_profiles(n, constants, theta):
    """The minus corner's sector profiles in its own polar convention, as
    an oracle for the library's mirrored plus convention.

    Here theta- = atan2(x2, x1 + L) runs over (pi - Theta, pi) and the slit
    sits at theta- = 0 (top face 0+).  Returns (w0, up, low): the mode
    cos(lambda_n (t - pi)) and the two cosine pieces of w_{n,1}, up on
    (0, pi) and low on (pi - Theta, 0), whose slit jumps (top minus bottom)
    are the minus corner's transmission conditions written in theta-.
    """
    lam = n * math.pi / theta
    mu = lam - 1.0
    c, s = math.cos(lam * math.pi), math.sin(lam * math.pi)
    jump_val = lam * (constants.D1 * c + constants.D2 * s)
    jump_der = lam * (lam - 1.0) * (constants.N2 * c + constants.N3 * s)
    M = np.array([[math.cos(mu * math.pi), -math.cos(mu * (theta - math.pi))],
                  [mu * math.sin(mu * math.pi),
                   mu * math.sin(mu * (theta - math.pi))]])
    A, B = np.linalg.solve(M, np.array([jump_val, jump_der], dtype=complex))

    def w0(t):
        return np.cos(lam * (np.asarray(t) - math.pi)) + 0j

    def up(t):
        return A * np.cos(mu * (np.asarray(t) - math.pi))

    def low(t):
        return B * np.cos(mu * (np.asarray(t) - (math.pi - theta)))

    return w0, up, low
