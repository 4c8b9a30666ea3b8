"""Triangle mesh container with tagged boundary edges and quality audits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownTag

@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary edges.

    Across a slit interface the top/bottom edge copies are node-disjoint but
    geometrically coincident; everywhere else interior edges are shared by
    exactly two triangles.

    A mesh whose hole row is tiled (triangulate) keeps its tile map: row c of
    tiles lists copy c's elements in the tile's element order, each a
    translate of copy 0's with the same vertex order.  Without a tiled
    period it has no rows.
    """

    nodes: np.ndarray           # (N, 2) float
    elements: np.ndarray        # (M, 3) int, positively oriented
    boundary_edges: np.ndarray  # (K, 2) int
    boundary_tags: list         # K strings, one tag per boundary edge
    tiles: np.ndarray | None = None  # (C, Mt) int, each copy's elements

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 2)
        self.elements = np.asarray(self.elements, dtype=np.int64).reshape(-1, 3)
        self.boundary_edges = np.asarray(self.boundary_edges, dtype=np.int64).reshape(-1, 2)
        if self.tiles is None:
            self.tiles = np.zeros((0, 0), dtype=np.int64)
        self.tiles = np.asarray(self.tiles, dtype=np.int64)

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
        idx = [i for i, t in enumerate(self.boundary_tags) if t == tag]
        if not idx:
            raise UnknownTag(f"boundary tag {tag!r} is not on this mesh")
        return self.boundary_edges[idx]
