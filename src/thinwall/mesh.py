"""Triangle mesh container with tagged boundary edges and quality audits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownTag

VALID_TAGS = {
    "GammaR_minus",
    "GammaR_plus",
    "GammaN",
    "GammaHole",
    "GammaInterface_top",
    "GammaInterface_bottom",
    "Truncation",
    "Periodic_left",
    "Periodic_right",
}


@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary edges.

    Across a slit interface the top/bottom edge copies are node-disjoint but
    geometrically coincident; everywhere else interior edges are shared by
    exactly two triangles.
    """

    nodes: np.ndarray           # (N, 2) float
    elements: np.ndarray        # (M, 3) int, positively oriented
    boundary_edges: np.ndarray  # (K, 2) int
    boundary_tags: list         # K strings from VALID_TAGS

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 2)
        self.elements = np.asarray(self.elements, dtype=np.int64).reshape(-1, 3)
        self.boundary_edges = np.asarray(self.boundary_edges, dtype=np.int64).reshape(-1, 2)

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    def element_areas(self) -> np.ndarray:
        p = self.nodes[self.elements]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    def min_angles_deg(self) -> np.ndarray:
        p = self.nodes[self.elements]
        a = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        b = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        c = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
        angs = []
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            cosv = np.clip((y**2 + z**2 - x**2) / (2 * y * z), -1.0, 1.0)
            angs.append(np.degrees(np.arccos(cosv)))
        return np.min(angs, axis=0)

    def edges_with_tag(self, tag: str) -> np.ndarray:
        if tag not in VALID_TAGS:
            raise UnknownTag(f"unknown boundary tag {tag!r}")
        idx = [i for i, t in enumerate(self.boundary_tags) if t == tag]
        return self.boundary_edges[idx]
