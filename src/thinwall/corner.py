"""Corner machinery: angular profiles, singular lifts, coefficient extraction.

Polar convention.  At the right (plus) corner (L, 0) the angle theta is
measured counterclockwise from the outward interface-free half-axis, theta
in (0, Theta); the slit sits at theta = pi (top face: theta -> pi-, bottom
face: theta -> pi+).  The left (minus) corner (-L, 0) is the plus corner
under the mirror x -> -x: its (r, theta) at (x, y) are the plus corner's
at (-x, y), so every profile and lift is written once, in the plus frame.
The mirror reverses X1, so the constants odd in X1, D1 and N3, change sign
in the minus corner's slit jumps (jump_data).

A point on the slit reads theta = pi, and a profile there its top piece.
The jumps across the slit are never evaluated on the two faces: they are
read in closed form from the profile's two cosine pieces at theta = pi
(AngularProfile.slit_jumps), and a lift's from its profile's
(LiftField.slit_jumps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_j, bessel_j_array, bessel_y_array
from .errors import IllConditioned, ResonantCase

__all__ = ["SingularExponents", "AngularProfile", "solve_angular_profile",
           "jump_data", "w_base", "CornerFrame", "LiftField", "build_lift_J",
           "build_lift_Y", "extract_ell"]

ELL_RADII = (0.1, 0.15, 0.2)  # extraction radii of the corner coefficients
ELL_N_THETA = 96              # angular Gauss points per extraction circle


@dataclass(frozen=True)
class SingularExponents:
    theta: float

    def __post_init__(self):
        if not (math.pi < self.theta < 2 * math.pi):
            raise ValueError("opening angle must lie in (pi, 2 pi)")

    @property
    def lam(self):
        return math.pi / self.theta

    def lambda_n(self, n):
        return n * self.lam


@dataclass(frozen=True)
class CornerFrame:
    """Polar frame of one corner of the interface: the plus corner's frame,
    applied to the point mirrored by sigma (+1 plus, -1 minus)."""

    side: str           # "plus" | "minus"
    L: float
    theta: float        # opening angle

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


@dataclass
class AngularProfile:
    """Piecewise cosine profile w(theta) on the corner sector.

    pieces: list of (lo, hi, amplitude, mu, ref) meaning
    amplitude * cos(mu * (theta - ref)) for lo <= theta <= hi.
    """

    pieces: list = field(default_factory=list)

    def branch(self, i, theta, d=0):
        """Piece i's cosine (d = 0) or its theta-derivative (d = 1),
        continued to any theta."""
        _lo, _hi, amp, mu, ref = self.pieces[i]
        t = mu * (np.asarray(theta, dtype=float) - ref)
        return amp * np.cos(t) if d == 0 else -amp * mu * np.sin(t)

    def _select(self, theta, d):
        """Each theta read from the first piece whose [lo, hi] holds it (so
        the slit theta = pi reads the top piece), 0 outside every piece."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        hit = np.zeros(theta.shape, dtype=bool)
        for i, (lo, hi, *_) in enumerate(self.pieces):
            m = (~hit) & (theta >= lo - 1e-13) & (theta <= hi + 1e-13)
            out[m] = self.branch(i, theta[m], d)
            hit |= m
        return out

    def __call__(self, theta):
        return self._select(theta, 0)

    def dtheta(self, theta):
        return self._select(theta, 1)

    def slit_jumps(self):
        """([w], [w']) at the slit theta = pi, top face minus bottom face:
        the top piece (on (0, pi)) minus the bottom piece (on (pi, Theta)),
        both read at pi.  A one-piece profile is continuous: (0, 0)."""
        if len(self.pieces) == 1:
            return 0.0, 0.0
        return tuple(complex(self.branch(0, math.pi, d)
                             - self.branch(1, math.pi, d)) for d in (0, 1))

    @property
    def is_zero(self):
        return all(abs(p[2]) < 1e-300 for p in self.pieces)


def w_base(n, exponents: SingularExponents) -> AngularProfile:
    """The continuous sector modes w_{n,0}: Neumann ends, no slit jump."""
    return AngularProfile([(0.0, exponents.theta, 1.0, exponents.lambda_n(n),
                            0.0)])


def solve_angular_profile(n, jump_val, jump_der,
                          exponents: SingularExponents) -> AngularProfile:
    """Profile w_{n,1} with prescribed value/derivative jumps at the slit.

    The associated separated solution is r^(lambda_n - 1) * w(theta); the
    two cosine pieces satisfy Neumann conditions at the sector ends, and the
    2x2 system matches [w] = jump_val and [w'] = jump_der at the slit
    (top minus bottom).
    """
    th = exponents.theta
    mu = exponents.lambda_n(n) - 1.0
    det_ang = math.sin(mu * th)
    if abs(mu) < 1e-12 or abs(det_ang) < 1e-10:
        raise ResonantCase(f"exponent {mu} resonates with the sector")
    cp, sp = math.cos(mu * math.pi), math.sin(mu * math.pi)
    cq = math.cos(mu * (math.pi - th))
    sq = math.sin(mu * (math.pi - th))
    # up: A cos(mu t) on (0, pi); low: B cos(mu (t - Theta)) on (pi, Theta)
    M = np.array([[cp, -cq], [-mu * sp, mu * sq]])
    rhs = np.array([jump_val, jump_der], dtype=complex)
    A, B = np.linalg.solve(M, rhs)
    return AngularProfile([(0.0, math.pi, A, mu, 0.0),
                           (math.pi, th, B, mu, th)])


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


class LiftField:
    """Cut-off radial-Bessel singular lift around one corner.

    value = coeff * chi_L(r) * Z_nu(k0 r) * w(theta), with Z the Bessel
    function bessel (bessel_j_array or bessel_y_array; both obey
    Z_nu' = (Z_{nu-1} - Z_{nu+1}) / 2).  The hat problems see the lift
    through its commutator load [Lap, chi_L] v and its slit jumps.
    """

    def __init__(self, frame: CornerFrame, bessel, nu, w: AngularProfile,
                 cut, L, k0, coeff=1.0):
        self.frame = frame
        self.bessel = bessel
        self.nu = float(nu)
        self.w = w
        self.cut = cut
        self.L = float(L)
        self.k0 = float(k0)
        self.coeff = complex(coeff)

    # radial cutoff chi_L = 1 - chi(2 r / L) and its r-derivatives
    def _chiL(self, r):
        s = 2.0 / self.L
        t = s * np.asarray(r, dtype=float)
        return (1.0 - self.cut.chi(t),
                -s * self.cut.dchi(t),
                -s * s * self.cut.d2chi(t))

    def _bessel(self, r):
        return self.bessel(self.nu, self.k0 * np.asarray(r, dtype=float))

    def _bessel_deriv(self, r):
        x = self.k0 * np.asarray(r, dtype=float)
        return 0.5 * (self.bessel(self.nu - 1.0, x)
                      - self.bessel(self.nu + 1.0, x))

    def value(self, x, y):
        r, th = self.frame.polar(x, y)
        out = np.zeros(np.shape(r), dtype=complex)
        act = (r < self.L) & (r > 0)
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
        act = (r < self.L) & (r > 0)
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
        act = (r > 0.25 * self.L) & (r < self.L)
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


def build_lift_J(frame: CornerFrame, w11: AngularProfile, cut, k0,
                 coeff=1.0) -> LiftField:
    """Singular lift J_{lambda_1 - 1}(k0 r) w_{1,1}(theta) with cutoff."""
    exps = SingularExponents(frame.theta)
    return LiftField(frame, bessel_j_array, exps.lambda_n(1) - 1.0, w11, cut,
                     frame.L, k0, coeff)


def build_lift_Y(frame: CornerFrame, cut, k0, coeff=1.0) -> LiftField:
    """Decaying-mode lift Y_{lambda_1}(k0 r) w_{1,0}(theta) with cutoff."""
    exps = SingularExponents(frame.theta)
    return LiftField(frame, bessel_y_array, exps.lambda_n(1),
                     w_base(1, exps), cut, frame.L, k0, coeff)


def extract_ell(evaluate, frame: CornerFrame, m, k0):
    """Corner coefficient of J_{lambda_m}(k0 r) w_{m,0}(theta) in a field.

    evaluate(points) -> complex values; the angular projection uses Gauss
    panels split at the slit, whose points never lie on it, then each
    radius of ELL_RADII gives an estimate ell(r); radii near Bessel zeros
    are skipped and the rest combined by least squares.  Returns (ell, its
    relative scatter over the radii, the radii used).
    """
    exps = SingularExponents(frame.theta)
    lam_m = exps.lambda_n(m)
    th = exps.theta
    c_m = th if m == 0 else th / 2.0
    wm = w_base(m, exps)

    # Gauss panels on (0, pi) and (pi, Theta)
    xg, wg = np.polynomial.legendre.leggauss(ELL_N_THETA // 2)

    def panel(lo, hi):
        mid, hl = 0.5 * (hi + lo), 0.5 * (hi - lo)
        return mid + hl * xg, hl * wg

    panels = [panel(0.0, math.pi), panel(math.pi, th)]

    vals = []
    used = []
    for r in ELL_RADII:
        Jm = bessel_j(lam_m, k0 * r)
        if abs(Jm) <= 1e-8:
            continue
        proj = 0.0
        for thetas, wts in panels:
            u = evaluate(frame.point(r, thetas))
            proj = proj + np.sum(wts * u * wm(thetas))
        vals.append(proj / (c_m * Jm))
        used.append(r)
    if not vals:
        raise IllConditioned(
            f"all radii near zeros of J_{lam_m:.4f}(k0 r)")
    vals = np.array(vals)
    ell = np.mean(vals)
    scatter = float(np.max(np.abs(vals - ell)) / max(abs(ell), 1e-300))
    return complex(ell), scatter, list(used)
