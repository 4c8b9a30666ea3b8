"""Corner machinery: angular profiles, singular lifts, coefficient extraction.

Polar convention.  At the right (plus) corner (L, 0) the angle theta is
measured counterclockwise from the outward interface-free half-axis, theta
in (0, Theta); the slit sits at theta = pi (top face: theta -> pi-, bottom
face: theta -> pi+).  The left (minus) corner (-L, 0) is the plus corner
under the mirror x -> -x: its (r, theta) at (x, y) are the plus corner's
at (-x, y), so every profile and lift is written once, in the plus frame.
The mirror reverses X1, so the constants odd in X1, D1 and N3, change sign
in the minus corner's slit jumps (jump_data).

A point on the slit reads theta = pi, and a profile there its top branch.
The jumps across the slit are never evaluated on the two faces: they are
read in closed form from the profile's two cosine branches at theta = pi
(AngularProfile.slit_jumps), and a lift's from its profile's
(LiftField.slit_jumps).

Both sides of the corner match fit the sector modes cos(lambda_m theta),
m in MODES, by one least-squares fit on Gauss panels (fit_modes,
gauss_panels): ell_m of u00 here (extract_ell), and the decaying
amplitudes of S_n in nearfield.extract_L.  mode_profiles builds the pair
(w_{n,0}, w_{n,1}) that the cascade's lifts and the cone's arc data read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j
from .errors import IllConditioned, ResonantCase

__all__ = ["lambda_n", "AngularProfile", "solve_angular_profile",
           "jump_data", "w_base", "mode_profiles", "CornerFrame",
           "LiftField", "gauss_panels", "fit_modes", "extract_ell"]

# The sector modes w_m = cos(lambda_m theta) that both corner extractions
# fit: lambda_4 = 4 pi / Theta > 2 for Theta < 2 pi, so these are every
# mode with lambda < 2.
MODES = (0, 1, 2, 3)
ELL_RADII = (0.1, 0.15, 0.2)  # extraction radii of the corner coefficients
ELL_N_GAUSS = 48              # Gauss points per panel of an extraction circle


def lambda_n(n, theta):
    """Singular exponent lambda_n = n pi / Theta of the opening angle."""
    return n * (math.pi / theta)


@dataclass(frozen=True)
class CornerFrame:
    """Polar frame of one corner of the interface: the plus corner's frame,
    applied to the point mirrored by sigma (+1 plus, -1 minus)."""

    side: str           # "plus" | "minus"
    L: float
    theta: float        # opening angle

    def __post_init__(self):
        if not (math.pi < self.theta < 2 * math.pi):
            raise ValueError("opening angle must lie in (pi, 2 pi)")

    @property
    def sigma(self):
        return 1.0 if self.side == "plus" else -1.0

    def polar(self, x, y):
        """(r, theta) about the corner; a point on the slit (y = 0, left of
        the corner) reads theta = pi, the top face's limit."""
        dx = self.sigma * np.asarray(x, dtype=float) - self.L
        dy = np.asarray(y, dtype=float)
        r = np.hypot(dx, dy)
        th = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
        return r, th

    def point(self, r, theta):
        """The points (x, y), stacked on the last axis, whose polar
        coordinates are (r, theta)."""
        return np.stack([self.sigma * (self.L + r * np.cos(theta)),
                         r * np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class AngularProfile:
    """Two-branch cosine profile w(theta) on the corner sector (0, Theta):
    the top branch a cos(mu theta) on [0, pi], the bottom branch
    b cos(mu (theta - ref)) on (pi, Theta], and 0 outside the sector."""

    theta: float        # opening angle Theta
    mu: float
    a: complex
    b: complex
    ref: float

    def branch(self, i, theta, d=0):
        """The top (i = 0) or bottom (i = 1) cosine (d = 0) or its
        theta-derivative (d = 1), continued to any theta."""
        theta = np.asarray(theta, dtype=float)
        amp, t = ((self.a, self.mu * theta) if i == 0
                  else (self.b, self.mu * (theta - self.ref)))
        return amp * np.cos(t) if d == 0 else -amp * self.mu * np.sin(t)

    def __call__(self, theta):
        """Each theta read from its branch (the slit theta = pi reads the
        top one), 0 outside the sector."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        top = (theta >= -1e-13) & (theta <= math.pi + 1e-13)
        bot = (theta > math.pi + 1e-13) & (theta <= self.theta + 1e-13)
        out[top] = self.branch(0, theta[top])
        out[bot] = self.branch(1, theta[bot])
        return out

    def slit_jumps(self):
        """([w], [w']) at the slit theta = pi, top face minus bottom face:
        the two branches read at pi."""
        return tuple(complex(self.branch(0, math.pi, d)
                             - self.branch(1, math.pi, d)) for d in (0, 1))


def w_base(n, theta) -> AngularProfile:
    """The continuous sector modes w_{n,0} = cos(lambda_n theta): Neumann
    ends, and both branches one cosine, so no slit jump."""
    return AngularProfile(theta, lambda_n(n, theta), 1.0, 1.0, 0.0)


def solve_angular_profile(n, jump_val, jump_der, theta) -> AngularProfile:
    """Profile w_{n,1} with prescribed value/derivative jumps at the slit.

    The associated separated solution is r^(lambda_n - 1) * w(theta); the
    two cosine branches satisfy Neumann conditions at the sector ends, and
    the 2x2 system matches [w] = jump_val and [w'] = jump_der at the slit
    (top minus bottom).
    """
    mu = lambda_n(n, theta) - 1.0
    det_ang = math.sin(mu * theta)
    if abs(mu) < 1e-12 or abs(det_ang) < 1e-10:
        raise ResonantCase(f"exponent {mu} resonates with the sector")
    cp, sp = math.cos(mu * math.pi), math.sin(mu * math.pi)
    cq = math.cos(mu * (math.pi - theta))
    sq = math.sin(mu * (math.pi - theta))
    # up: A cos(mu t) on (0, pi); low: B cos(mu (t - Theta)) on (pi, Theta)
    M = np.array([[cp, -cq], [-mu * sp, mu * sq]])
    rhs = np.array([jump_val, jump_der], dtype=complex)
    A, B = np.linalg.solve(M, rhs)
    return AngularProfile(theta, mu, A, B, theta)


def jump_data(lam_n, side, constants):
    """Slit jumps (value, theta-derivative) of w_{n,1} from the constants.

    Obtained by applying the effective transmission conditions to the
    separated mode r^lambda_n cos(lambda_n theta): the value jump feeds on
    D1, D2 and the normal-trace jump on N2, N3.  The minus corner is the
    plus corner under x -> -x, which flips the sign of the X1-odd
    constants D1 and N3.
    """
    c, s = math.cos(lam_n * math.pi), math.sin(lam_n * math.pi)
    sgn = 1.0 if side == "plus" else -1.0
    D1, N3 = sgn * constants.D1, sgn * constants.N3
    jump_val = lam_n * (-D1 * c + constants.D2 * s)
    jump_der = -lam_n * (lam_n - 1.0) * (constants.N2 * c - N3 * s)
    return jump_val, jump_der


def mode_profiles(n, side, constants, theta):
    """The profile pair (w_{n,0}, w_{n,1}) of mode n at a side's corner:
    the continuous sector mode, and the jumping profile the constants'
    slit data give it."""
    return (w_base(n, theta),
            solve_angular_profile(
                n, *jump_data(lambda_n(n, theta), side, constants), theta))


class LiftField:
    """Cut-off radial-Bessel singular lift around one corner.

    value = coeff * chi_L(r) * Z_nu(k0 r) * w(theta), with L = frame.L and
    Z the Bessel function bessel (bessel_j_array or bessel_y_array; both
    obey Z_nu' = (Z_{nu-1} - Z_{nu+1}) / 2).  The hat problems see the lift
    through its commutator load [Lap, chi_L] v and its slit jumps.
    """

    def __init__(self, frame: CornerFrame, bessel, nu, w: AngularProfile,
                 cut, k0, coeff=1.0):
        self.frame = frame
        self.bessel = bessel
        self.nu = float(nu)
        self.w = w
        self.cut = cut
        self.k0 = float(k0)
        self.coeff = complex(coeff)

    # radial cutoff chi_L = 1 - chi(2 r / L) and its r-derivatives
    def _chiL(self, r):
        s = 2.0 / self.frame.L
        chi, dchi, d2chi = self.cut(s * np.asarray(r, dtype=float))
        return 1.0 - chi, -s * dchi, -s * s * d2chi

    def _bessel(self, r):
        return self.bessel(self.nu, self.k0 * np.asarray(r, dtype=float))

    def _bessel_deriv(self, r):
        x = self.k0 * np.asarray(r, dtype=float)
        return 0.5 * (self.bessel(self.nu - 1.0, x)
                      - self.bessel(self.nu + 1.0, x))

    def value(self, x, y):
        r, th = self.frame.polar(x, y)
        out = np.zeros(np.shape(r), dtype=complex)
        act = (r < self.frame.L) & (r > 0)
        if np.any(act):
            chi, _, _ = self._chiL(r[act])
            out[act] = (self.coeff * chi * self._bessel(r[act])
                        * self.w(th[act]))
        return out

    def slit_jumps(self, x1):
        """(trace jump, x2-derivative jump) of the lift across the slit at
        the points x1, top face minus bottom face.

        On the slit theta = pi and d/dx2 = -1/r d/dtheta (the mirror
        x -> -x leaves x2 alone, and d(chi_L)/dx2 vanishes there), so the
        jumps are coeff chi_L Z_nu(k0 r) [w] and -coeff chi_L Z_nu [w'] / r
        with [w], [w'] the profile's slit jumps.
        """
        x1 = np.asarray(x1, dtype=float)
        r, _ = self.frame.polar(x1, np.zeros_like(x1))
        trace = np.zeros(x1.shape, dtype=complex)
        dx2 = np.zeros(x1.shape, dtype=complex)
        act = (r < self.frame.L) & (r > 0)
        if np.any(act):
            jump_w, jump_dw = self.w.slit_jumps()
            chi, _, _ = self._chiL(r[act])
            amp = self.coeff * chi * self._bessel(r[act])
            trace[act] = amp * jump_w
            dx2[act] = -amp * jump_dw / r[act]
        return trace, dx2

    def commutator_load(self, x, y):
        """[Lap, chi_L] v = v Lap(chi_L) + 2 grad(chi_L) . grad(v)."""
        r, th = self.frame.polar(x, y)
        out = np.zeros(np.shape(r), dtype=complex)
        act = (r > 0.25 * self.frame.L) & (r < self.frame.L)
        if not np.any(act):
            return out
        ra, tha = r[act], th[act]
        chi, dchi, d2chi = self._chiL(ra)
        Z = self._bessel(ra)
        dZ = self.k0 * self._bessel_deriv(ra)
        wv = self.w(tha)
        lap_chi = d2chi + dchi / ra
        out[act] = self.coeff * wv * (Z * lap_chi + 2.0 * dchi * dZ)
        return out


def gauss_panels(cuts, n):
    """n-point Gauss (points, weights) on each interval between consecutive
    cuts."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    return [(0.5 * (lo + hi) + 0.5 * (hi - lo) * xg, 0.5 * (hi - lo) * wg)
            for lo, hi in zip(cuts[:-1], cuts[1:])]


def fit_modes(values, thetas, wts, theta):
    """Coefficients, in MODES order, of the weighted least-squares fit of
    values at the angles thetas (quadrature weights wts) by the sector
    modes w_{m,0} of opening angle theta."""
    Amat = (np.column_stack([np.real(w_base(m, theta)(thetas))
                             for m in MODES]) * np.sqrt(wts)[:, None])
    c, *_ = np.linalg.lstsq(Amat, values * np.sqrt(wts), rcond=None)
    return c


def extract_ell(evaluate, frame: CornerFrame, k0):
    """Corner coefficients ell_m of J_{lambda_m}(k0 r) w_{m,0}(theta) in a
    field, for every m in MODES.

    evaluate(points) -> complex values.  Each radius of ELL_RADII is
    sampled once, on Gauss panels split at the slit whose points never lie
    on it; the mode fit there over J_{lambda_m}(k0 r) gives an estimate
    ell_m(r), and the estimates are averaged over the radii.  A radius near
    a zero of J_{lambda_m}(k0 r) raises IllConditioned.  Returns
    ({m: ell_m}, {m: relative scatter of ell_m over the radii}).
    """
    th = frame.theta
    thetas, wts = map(np.concatenate,
                      zip(*gauss_panels((0.0, math.pi, th), ELL_N_GAUSS)))
    est = []
    for r in ELL_RADII:
        J = np.array([bessel_j(lambda_n(m, th), k0 * r) for m in MODES])
        for m, Jm in zip(MODES, J):
            if abs(Jm) <= 1e-8:
                raise IllConditioned(
                    f"extraction radius {r} is near a zero of "
                    f"J_{lambda_n(m, th):.4f}(k0 r)")
        est.append(fit_modes(evaluate(frame.point(r, thetas)), thetas, wts,
                             th) / J)
    est = np.array(est)
    ell = est.mean(axis=0)
    scatter = np.max(np.abs(est - ell), axis=0) / np.maximum(np.abs(ell),
                                                              1e-300)
    return ({m: complex(v) for m, v in zip(MODES, ell)},
            {m: float(v) for m, v in zip(MODES, scatter)})
