#!/usr/bin/env python3
"""Print a fingerprint of every mesh the convergence study builds.

Run from the repository root:

    python3 tools/mesh_hashes.py

Each row is one mesh of the study's geometries (default DomainParams and
HoleSpec, cell T = 6, cone at theta = 3 pi/2 and Rmax = 20): its name, h0,
node and element counts, the first 16 hex digits of a sha256 over the
nodes, elements, boundary edges and boundary tags, and the seconds
triangulate took.  A change to the mesher that is meant to leave the meshes
alone must leave this table unchanged but for the seconds.
"""

import hashlib
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from thinwall.geometry import (build_cell_geometry,  # noqa: E402
                               build_cone_geometry, build_limit_domain,
                               build_perforated_domain)
from thinwall.nearfield import side_polygon  # noqa: E402
from thinwall.params import DomainParams, HoleSpec  # noqa: E402
from thinwall.triangulate import triangulate  # noqa: E402


def _cell():
    return build_cell_geometry(HoleSpec(), 6.0)


def _cone():
    return build_cone_geometry(1.5 * math.pi, 20.0,
                               side_polygon("plus", HoleSpec()))


def _limit():
    return build_limit_domain(DomainParams())


def _ref(q):
    return lambda: build_perforated_domain(DomainParams(), 1.0 / q)


# (name, h0, geometry builder), in the order of the table
MESHES = [
    ("cell", 0.06, _cell), ("cell", 0.1, _cell), ("cell", 0.15, _cell),
    ("cone", 0.45, _cone), ("cone", 0.9, _cone),
    ("limit", 0.04, _limit), ("limit", 0.08, _limit),
    ("ref 1/8", 0.05, _ref(8)), ("ref 1/16", 0.05, _ref(16)),
    ("ref 1/32", 0.05, _ref(32)), ("ref 1/64", 0.05, _ref(64)),
    ("ref 1/8", 0.1, _ref(8)), ("ref 1/16", 0.1, _ref(16)),
    ("ref 1/32", 0.1, _ref(32)),
]


def mesh_hash(mesh):
    """First 16 hex digits of a sha256 over the mesh's arrays and tags."""
    h = hashlib.sha256()
    h.update(mesh.nodes.tobytes())
    h.update(mesh.elements.tobytes())
    h.update(mesh.boundary_edges.tobytes())
    h.update("|".join(mesh.boundary_tags).encode())
    return h.hexdigest()[:16]


def main():
    print("| mesh | h0 | nodes | elements | hash (16 hex) | seconds |")
    print("|---|---|---|---|---|---|")
    for name, h0, build in MESHES:
        geo = build()
        start = time.perf_counter()
        mesh = triangulate(geo, h0)
        seconds = time.perf_counter() - start
        print(f"| {name} | {h0:g} | {mesh.num_nodes:,} | "
              f"{mesh.num_elements:,} | {mesh_hash(mesh)} | {seconds:.2f} |",
              flush=True)


if __name__ == "__main__":
    main()
