"""Correctness checks of the benchmark's outputs.

Each check takes plain numbers and returns a list of failure messages (empty
when the check passes).  The checks compare against computations made apart
from the library, or against properties the method must have; none of them
compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

SYMMETRY_TOL = 1e-6       # odd constants of a mirror-symmetric hole vanish
CONE_TOL = 0.01           # the plus and minus cones are mirror images
REFINEMENT_TOL = 1e-4     # criterion 4's refinement tolerance
RAYLEIGH_TOL = 5e-3       # dipole-row estimate of D_infty
FLUX_TOL = 1e-10          # energy balance of a lossless reference solve
RATIO_WINDOW = (1.6, 2.4)  # first-order convergence of P(delta)
RICHARDSON_TOL = 1e-3     # Richardson limit of P(delta) against u00


def regular_polygon_area(n, r):
    """Area of the regular n-gon inscribed in a circle of radius r."""
    return 0.5 * n * r * r * math.sin(2.0 * math.pi / n)


def _scale(constants):
    return max(abs(constants["D2"]), abs(constants["N2"]))


def symmetric_hole(constants):
    """D1 and N3 vanish for a hole that is symmetric under X1 -> 1 - X1."""
    odd = max(abs(constants["D1"]), abs(constants["N3"]))
    if odd <= SYMMETRY_TOL * _scale(constants):
        return []
    return [f"symmetric hole: max(|D1|, |N3|) = {odd:.3e} exceeds "
            f"{SYMMETRY_TOL:g} * max(|D2|, |N2|)"]


def rayleigh(constants, hole_area):
    """D_infty against the dipole-row estimate |B| / (1 - pi |B| / 3)."""
    est = hole_area / (1.0 - math.pi * hole_area / 3.0)
    rel = abs(constants["D_infty"] - est) / est
    if rel <= RAYLEIGH_TOL:
        return []
    return [f"D_infty = {constants['D_infty']:.6f} is {rel:.2e} from the "
            f"dipole-row estimate {est:.6f}"]


def refinement(coarse, fine):
    """Every constant moves by at most 1e-4 * max(|D2|, |N2|) on refinement."""
    tol = REFINEMENT_TOL * _scale(fine)
    return [f"refinement: {k} moved by {abs(fine[k] - coarse[k]):.3e} > "
            f"{tol:.3e}" for k in fine if abs(fine[k] - coarse[k]) > tol]


def cones_agree(l_plus, l_minus):
    """L_-1 of the two mirror-image cones agree within 1 %."""
    diff = abs(l_plus - l_minus)
    if diff <= CONE_TOL * max(abs(l_plus), abs(l_minus)):
        return []
    return [f"cones: L_-1 plus {l_plus:.6g} and minus {l_minus:.6g} differ "
            f"by more than {CONE_TOL:.0%}"]


def degree(found, expected):
    if found == expected:
        return []
    return [f"degree {found} where {expected} was asked for"]


def flux(defect):
    if defect <= FLUX_TOL:
        return []
    return [f"flux balance defect {defect:.3e} exceeds {FLUX_TOL:g}"]


def slopes(found, windows):
    """Every fitted slope lies in its window (lo, hi)."""
    out = []
    for name, (lo, hi) in sorted(windows.items()):
        s = found.get(name)
        if s is None or not lo <= s <= hi:
            out.append(f"slope {name} = {s} outside [{lo}, {hi}]")
    return out


def errors_decrease(rows):
    """e2 < e1 < e0 at every delta; rows are (delta, e0, e1, e2)."""
    return [f"delta {d:g}: errors e0 {e0:.3e}, e1 {e1:.3e}, e2 {e2:.3e} do "
            f"not decrease" for d, e0, e1, e2 in rows if not e2 < e1 < e0]


def power_sweep(powers, limit_power):
    """Transmitted power P(delta) over deltas that halve each step.

    Successive differences must shrink by a ratio in RATIO_WINDOW (first-order
    convergence), and the Richardson limit 2 P(finest) - P(next) must match
    the power of the limit field within RICHARDSON_TOL relative.
    """
    out = []
    diffs = [a - b for a, b in zip(powers, powers[1:])]
    lo, hi = RATIO_WINDOW
    for d0, d1 in zip(diffs, diffs[1:]):
        ratio = d0 / d1 if d1 != 0 else math.inf
        if not lo <= ratio <= hi:
            out.append(f"power differences shrink by {ratio:.3f}, outside "
                       f"[{lo}, {hi}]")
    richardson = 2.0 * powers[-1] - powers[-2]
    rel = abs(richardson - limit_power) / abs(limit_power)
    if not rel <= RICHARDSON_TOL:
        out.append(f"Richardson limit {richardson:.6f} is {rel:.2e} from the "
                   f"limit field's {limit_power:.6f}")
    return out
