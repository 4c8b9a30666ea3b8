"""Triangle mesh container, text-format I/O and quality audits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnknownTag

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

FORMAT_HEADER = "thinwall-mesh v1"


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
    corner_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 2)
        self.elements = np.asarray(self.elements, dtype=np.int64).reshape(-1, 3)
        self.boundary_edges = np.asarray(self.boundary_edges, dtype=np.int64).reshape(-1, 2)
        self.corner_nodes = np.asarray(self.corner_nodes, dtype=np.int64).reshape(-1)

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

    def has_tag(self, tag: str) -> bool:
        return tag in self.boundary_tags


def mesh_io_write(mesh: Mesh, path) -> None:
    with open(path, "w") as f:
        f.write(FORMAT_HEADER + "\n")
        f.write(f"nodes {mesh.num_nodes}\n")
        for i, (x, y) in enumerate(mesh.nodes):
            f.write(f"{i} {x:.17g} {y:.17g}\n")
        f.write(f"elements {mesh.num_elements}\n")
        for i, (a, b, c) in enumerate(mesh.elements):
            f.write(f"{i} {a} {b} {c}\n")
        f.write(f"bedges {len(mesh.boundary_tags)}\n")
        for i, ((a, b), tag) in enumerate(zip(mesh.boundary_edges, mesh.boundary_tags)):
            f.write(f"{i} {a} {b} {tag}\n")
        if mesh.corner_nodes.size:  # optional extension section
            f.write(f"corners {mesh.corner_nodes.size}\n")
            for i, n in enumerate(mesh.corner_nodes):
                f.write(f"{i} {n}\n")


def mesh_io_read(path) -> Mesh:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ParseError(f"expected header {FORMAT_HEADER!r}", line=1)
    ln = 1

    def next_section(name):
        nonlocal ln
        parts = lines[ln].split()
        if len(parts) != 2 or parts[0] != name:
            raise ParseError(f"expected section '{name} N'", line=ln + 1)
        ln += 1
        try:
            return int(parts[1])
        except ValueError:
            raise ParseError(f"bad count in section {name}", line=ln)

    n = next_section("nodes")
    nodes = np.empty((n, 2))
    seen = np.zeros(n, dtype=bool)
    for _ in range(n):
        parts = lines[ln].split()
        if len(parts) != 3:
            raise ParseError("node line needs 'id x y'", line=ln + 1)
        i = int(parts[0])
        if i < 0 or i >= n or seen[i]:
            raise ParseError(f"bad or duplicate node id {i}", line=ln + 1)
        seen[i] = True
        nodes[i] = (float(parts[1]), float(parts[2]))
        ln += 1

    m = next_section("elements")
    elements = np.empty((m, 3), dtype=np.int64)
    for _ in range(m):
        parts = lines[ln].split()
        if len(parts) != 4:
            raise ParseError("element line needs 'id n1 n2 n3'", line=ln + 1)
        i = int(parts[0])
        tri = [int(p) for p in parts[1:]]
        if i < 0 or i >= m or any(v < 0 or v >= n for v in tri):
            raise ParseError("element id/node out of range", line=ln + 1)
        elements[i] = tri
        ln += 1

    k = next_section("bedges")
    bedges = np.empty((k, 2), dtype=np.int64)
    tags = [""] * k
    for _ in range(k):
        parts = lines[ln].split()
        if len(parts) != 4:
            raise ParseError("bedge line needs 'id n1 n2 tag'", line=ln + 1)
        i = int(parts[0])
        if i < 0 or i >= k:
            raise ParseError("bedge id out of range", line=ln + 1)
        bedges[i] = (int(parts[1]), int(parts[2]))
        if parts[3] not in VALID_TAGS:
            raise ParseError(f"unknown tag {parts[3]!r}", line=ln + 1)
        tags[i] = parts[3]
        ln += 1

    corners = np.zeros(0, dtype=np.int64)
    if ln < len(lines) and lines[ln].strip():
        c = next_section("corners")
        corners = np.empty(c, dtype=np.int64)
        for _ in range(c):
            parts = lines[ln].split()
            corners[int(parts[0])] = int(parts[1])
            ln += 1

    return Mesh(nodes, elements, bedges, tags, corners)
