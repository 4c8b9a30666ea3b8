"""Smooth cut-off functions used throughout the layer/corner machinery.

A cut-off ``chi`` is an even C^2 function with ``chi = 0`` on ``|t| < 1`` and
``chi = 1`` on ``|t| > 2``; the transition profile on ``1 <= |t| <= 2`` is
arbitrary.  Two admissible profiles are provided so that quantities claimed
to be profile-independent can be checked numerically against each other.
All derivatives are closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["CutoffSpec", "make_cutoff"]


def _step_exp(u: np.ndarray):
    """C-infinity step s = a/(a+b), a = exp(-1/u), b = exp(-1/(1-u)).

    Returns (s, s', s'') on the open transition interval; caller clamps.
    """
    u = np.clip(u, 1e-9, 1.0 - 1e-9)
    v = 1.0 - u
    a = np.exp(-1.0 / u)
    b = np.exp(-1.0 / v)
    ap = a / u**2
    bp = -b / v**2
    app = a * (1.0 / u**4 - 2.0 / u**3)
    bpp = b * (1.0 / v**4 - 2.0 / v**3)
    den = a + b
    s = a / den
    sp = (ap * b - a * bp) / den**2
    spp = ((app * b - a * bpp) * den - 2.0 * (ap * b - a * bp) * (ap + bp)) / den**3
    return s, sp, spp


def _step_poly(u: np.ndarray):
    """C^2 quintic smoothstep u^3 (10 - 15u + 6u^2) and its derivatives."""
    s = u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
    sp = 30.0 * u**2 * (1.0 - u) ** 2
    spp = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
    return s, sp, spp


_PROFILES = {"exp": _step_exp, "poly": _step_poly}


@dataclass(frozen=True)
class CutoffSpec:
    """A concrete cut-off chi(t) = step(|t| - 1) with closed-form chi', chi''."""

    name: str
    step: Callable = field(repr=False)

    def _eval(self, t):
        t = np.asarray(t, dtype=float)
        sgn = np.sign(t)
        u = np.abs(t) - 1.0
        inside = u <= 0.0
        outside = u >= 1.0
        trans = ~(inside | outside)
        chi = np.where(outside, 1.0, 0.0)
        dchi = np.zeros_like(chi)
        d2chi = np.zeros_like(chi)
        if np.any(trans):
            s, sp, spp = self.step(u[trans])
            chi[trans] = s
            dchi[trans] = sp * sgn[trans]
            d2chi[trans] = spp
        return chi, dchi, d2chi

    def chi(self, t):
        return self._eval(t)[0]

    def dchi(self, t):
        return self._eval(t)[1]

    def d2chi(self, t):
        return self._eval(t)[2]


def make_cutoff(profile: str = "exp") -> CutoffSpec:
    """Return an admissible cut-off; profiles: 'exp' (C-inf), 'poly' (C^2)."""
    try:
        return CutoffSpec(profile, _PROFILES[profile])
    except KeyError:
        raise ValueError(f"unknown cut-off profile {profile!r}") from None

