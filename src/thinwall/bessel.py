"""Bessel functions J_nu, Y_nu of real (fractional) order.

The values come from `scipy.special.jv` and `yv` (Amos, ACM TOMS 12 (1986),
Algorithm 644); tests/data/bessel_oracle.csv, a frozen mpmath table, checks
them.  The wrappers raise DomainError where scipy would silently answer nan
or inf: Y_nu at x <= 0, J_nu at x < 0 and J_nu(0) for nu < 0.  `yv`
answers 0 at a subnormal order (|nu| < 2.2e-308), so such an order is read
as nu = 0; Y_nu is continuous in nu, and Y_0 is its value to round-off.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv, yv

from .errors import DomainError

__all__ = ["bessel_jy", "bessel_j", "bessel_j_array", "bessel_y_array"]


def bessel_j_array(nu: float, x) -> np.ndarray:
    """J_nu over an array of x >= 0 (x > 0 when nu < 0)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("J_nu requires x >= 0")
    if nu < 0.0 and np.any(x == 0.0):
        raise DomainError(f"J_nu(0) diverges for nu={nu} < 0")
    return jv(nu, x)


def bessel_y_array(nu: float, x) -> np.ndarray:
    """Y_nu over an array of x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("Y_nu requires x > 0")
    if abs(nu) < np.finfo(float).tiny:
        nu = 0.0
    return yv(nu, x)


def bessel_j(nu: float, x: float) -> float:
    """J_nu(x) alone; accepts x = 0 (J_0(0) = 1, J_nu(0) = 0 for nu > 0)."""
    return float(bessel_j_array(nu, x))


def bessel_jy(nu: float, x: float) -> tuple[float, float]:
    """(J_nu(x), Y_nu(x)) at x > 0."""
    return bessel_j(nu, x), float(bessel_y_array(nu, x))
