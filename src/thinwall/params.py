"""Problem parameters: domain dimensions, wavenumbers and the canonical hole."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import HoleOutOfCell

__all__ = ["HoleSpec", "DomainParams"]


@dataclass(frozen=True)
class HoleSpec:
    """Canonical obstacle in cell coordinates, strictly inside (0,1)x(-1,1).

    Disks are canonicalized to an inscribed regular polygon with ``n_seg``
    sides; the *same* polygon, meshed by the same sizing rule
    (geometry._add_hole), is used everywhere (cell problems, cone problems,
    scaled physical holes), so the discrete model is internally consistent
    regardless of the polygonization error w.r.t. the ideal disk.  Radius
    0 is the empty hole: no obstacle at all.
    """

    center: tuple = (0.5, 0.0)
    radius: float = 0.15
    n_seg: int = 32

    def __post_init__(self):
        if not self.radius >= 0:
            raise ValueError("disk radius must be 0 (no hole) or positive")

    @property
    def is_empty(self) -> bool:
        return self.radius == 0

    def polygon(self) -> np.ndarray:
        """Counter-clockwise polygon of the canonical hole (cell units)."""
        if self.is_empty:
            return np.zeros((0, 2))
        cx, cy = self.center
        # vertex at angle 0 keeps the polygon symmetric under both
        # X1 -> 2*cx - X1 and X2 -> -X2 for even n_seg
        ang = 2.0 * math.pi * np.arange(self.n_seg) / self.n_seg
        return np.column_stack([cx + self.radius * np.cos(ang),
                                cy + self.radius * np.sin(ang)])

    def validate_in_cell(self):
        poly = self.polygon()
        if poly.size == 0:
            return
        eps = 1e-9
        if (poly[:, 0].min() <= eps or poly[:, 0].max() >= 1.0 - eps
                or poly[:, 1].min() <= -1.0 + eps or poly[:, 1].max() >= 1.0 - eps):
            raise HoleOutOfCell(
                "hole must be strictly inside (0,1) x (-1,1); "
                f"bbox is [{poly[:,0].min():.3g},{poly[:,0].max():.3g}] x "
                f"[{poly[:,1].min():.3g},{poly[:,1].max():.3g}]")


@dataclass(frozen=True)
class DomainParams:
    """Geometry and wavenumber parameters of the waveguide problem."""

    L: float = 0.5        # half-length of the interface segment
    Lp: float = 2.5       # half-length of the upper rectangle
    H: float = 1.0        # height of the upper rectangle
    Hp: float = 1.0       # depth of the lower chamber
    theta: float = 1.5 * math.pi   # opening angle at the two corners
    hole: HoleSpec = field(default_factory=HoleSpec)
    k0: float = 5.0 * math.pi
    khat: Optional[Callable] = None  # cell wavenumber profile, None = constant k0

    def __post_init__(self):
        if not (self.Lp > self.L > 0):
            raise ValueError("need Lp > L > 0")
        if not (self.H > 0 and self.Hp > 0):
            raise ValueError("need H > 0 and Hp > 0")
        if not (math.pi < self.theta < 2 * math.pi):
            raise ValueError("opening angle must lie in (pi, 2 pi)")
        if not self.k0 > 0:
            raise ValueError("k0 must be positive")
