"""In-repo constrained Delaunay triangulation with quality refinement.

Bowyer-Watson incremental insertion with walking point location, midpoint
segment recovery, region carving by crossing parity, and Ruppert-style
refinement (encroached-segment splitting + circumcenter insertion) driven
by a spatial sizing function with geometric corner grading.  The
orientation and incircle tests are a float filter with an exact integer
fallback (Shewchuk, Discrete Comput. Geom. 18, 1997).

Carving needs no point inside a hole.  A flood from the super vertices
labels each triangle with the parity of the constrained segments crossed
to reach it: even is outside the domain or inside a hole, odd is meshed.
A slit (a chain's segment, on y = 0) has the domain on both sides and is
crossed without a flip.  So a hole may be any simple polygon.

A cell's Periodic_right and Periodic_left edges are paired: the left is
sampled as a copy of the right's samples, and refinement splits a segment
of either together with its partner, the segment of the other at the same
y, so the two stay translates (Ruppert, J. Algorithms 18, 1995, splits
every encroached segment).

A geometry with a hole row (GeometrySpec.row) has its congruent periods
tiled.  A period is tiled where its sizing is the tile's, translated: its
box [x, x + p] x [y - p/2, y + p/2] lies inside the domain, so its own hole
is the nearest one on it, and the corner grading is nowhere finer on it
than the hole term (_tiled_periods).  The first such period, box and
hole, is meshed once.  Its box edges, the seams, are sampled at its sizing;
the right and left seams are paired as a cell's edges are, and the bottom
and top split freely.  The rest of the domain is meshed around each run
of consecutive tiled periods, which it sees as a hole bounded by the
tiles' outer seam nodes, kept as they are.  Where a triangle of the rest
under the angle bound would split one of those seam segments, the tile
splits it instead, in its own copy, and refines again, and the rest is
meshed again around the new seams; so every copy stays the tile.
Translated copies of the tile are then joined to the rest by node index;
seams are not boundary edges.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from .errors import MeshFailure
from .geometry import GeometrySpec, HoleRow
from .mesh import Mesh

__all__ = ["triangulate"]

MIN_ANGLE_DEG = 26.0     # refinement splits triangles with a smaller angle
MAX_INSERT = 400_000     # refinement insertions before MeshFailure
GRADING_SIGMA = 0.5      # size ratio of successive layers of corner grading
SEAM = "Seam"            # tag of a run's outline in the rest, never split
SLIT = "Slit"            # tag of a chain's segments, doubled into two faces
# tags of a tile's box edges, bottom, right, top and left; like SEAM, none
# is a boundary edge
TILE = ("Tile_bottom", "Tile_right", "Tile_top", "Tile_left")
# paired edges, right: left, each a vertical edge; refinement splits a
# segment of either with its partner, the other's segment at the same y
_PAIRS = {"Periodic_right": "Periodic_left", TILE[1]: TILE[3]}
_PAIRED = (*_PAIRS, *_PAIRS.values())


# -- geometric predicates (float filter, exact integer fallback) ----------------

def _exact_ints(*coords):
    """The floats as integers over one common power-of-two denominator: a
    homogeneous polynomial in them has the sign of its exact value."""
    ratios = [c.as_integer_ratio() for c in coords]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _orient(ax, ay, bx, by, cx, cy):
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    bound = 3.33e-16 * (abs((bx - ax) * (cy - ay)) + abs((by - ay) * (cx - ax)))
    if det > bound or -det > bound:
        return det
    ax, ay, bx, by, cx, cy = _exact_ints(ax, ay, bx, by, cx, cy)
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return 1.0 if d > 0 else (-1.0 if d < 0 else 0.0)


def _incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """> 0 iff d strictly inside the circumcircle of CCW triangle abc."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    det = (adx * (bdy * cd - cdy * bd)
           - ady * (bdx * cd - cdx * bd)
           + ad * (bdx * cdy - cdx * bdy))
    perm = (abs(adx) * (abs(bdy) * cd + abs(cdy) * bd)
            + abs(ady) * (abs(bdx) * cd + abs(cdx) * bd)
            + ad * (abs(bdx) * abs(cdy) + abs(cdx) * abs(bdy)))
    if abs(det) > 1.2e-15 * perm:
        return det
    ax, ay, bx, by, cx, cy, dx, dy = _exact_ints(ax, ay, bx, by, cx, cy, dx, dy)
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    d = (adx * (bdy * cd - cdy * bd)
         - ady * (bdx * cd - cdx * bd)
         + ad * (bdx * cdy - cdx * bdy))
    return 1.0 if d > 0 else (-1.0 if d < 0 else 0.0)


# triangle states: region undecided, meshed, carved out, and removed from
# the structure by an insertion
_UNDECIDED, _ALIVE, _CARVED, _GONE = 0, 1, 2, 3


class _Triangulation:
    def __init__(self, lo, hi):
        """Three super vertices enclosing the box lo-hi, in one triangle;
        the caller inserts the domain's points one by one."""
        cx, cy = 0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1])
        r = 10.0 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
        self.px = [cx - 2 * r, cx + 2 * r, cx]
        self.py = [cy - r, cy - r, cy + 2 * r]
        self.sv = (0, 1, 2)
        self.tris = [[0, 1, 2]]        # [a, b, c] CCW
        self.adj = [[-1, -1, -1]]      # neighbor opposite each vertex, -1 none
        self.status = [_UNDECIDED]     # state per triangle
        self.segs = {}                 # (min,max) vertex pair -> tag
        self.partner = {}              # vertex of a paired edge -> its partner
        self.vert2tri = {0: 0, 1: 0, 2: 0}
        self.last = 0

    # -- point location --------------------------------------------------------

    def locate(self, x, y, hint=None):
        """Return (tri, kind, aux): kind in {'in','edge','vertex'}.

        For 'edge', aux is the local edge index (opposite vertex aux);
        for 'vertex', aux is the global vertex id.  The walk starts from
        hint, or else from the triangle the last walk found or made; both
        are always in the structure.
        """
        t = hint if hint is not None else self.last
        px, py = self.px, self.py
        for step in range(4 * len(self.tris) + 64):
            a, b, c = self.tris[t]
            o0 = _orient(px[b], py[b], px[c], py[c], x, y)  # edge opposite a
            o1 = _orient(px[c], py[c], px[a], py[a], x, y)
            o2 = _orient(px[a], py[a], px[b], py[b], x, y)
            if o0 < 0 or o1 < 0 or o2 < 0:
                # cross a violated edge; rotate the choice to avoid 2-cycles
                neg = [i for i, o in ((0, o0), (1, o1), (2, o2)) if o < 0]
                nxt = self.adj[t][neg[step % len(neg)]]
                if nxt == -1:  # outside the super triangle: shouldn't happen
                    raise MeshFailure("walk left the triangulation")
                t = nxt
                continue
            self.last = t
            zeros = [i for i, o in ((0, o0), (1, o1), (2, o2)) if o == 0]
            if not zeros:
                return t, "in", -1
            if len(zeros) == 1:
                return t, "edge", zeros[0]
            # on a vertex: the vertex opposite the two zero edges' shared edge
            vloc = ({0, 1, 2} - set(zeros)).pop()
            return t, "vertex", self.tris[t][vloc]
        raise MeshFailure("point location did not terminate")

    # -- Bowyer-Watson insertion ------------------------------------------------

    def _seg_key(self, u, v):
        return (u, v) if u < v else (v, u)

    def insert(self, x, y, hint=None):
        """Insert point, return its vertex id (existing id if duplicate)."""
        t, kind, aux = self.locate(x, y, hint)
        if kind == "vertex":
            return aux
        tris, adj, segs, status = self.tris, self.adj, self.segs, self.status
        px, py = self.px, self.py
        p = len(px)
        px.append(x)
        py.append(y)
        seeds = [t]
        hit_seg = None
        if kind == "edge":
            vs = tris[t]
            eu, ev = vs[(aux + 1) % 3], vs[(aux + 2) % 3]
            key = self._seg_key(eu, ev)
            if key in segs:
                hit_seg = (eu, ev, segs.pop(key))
            n = adj[t][aux]
            if n != -1:
                seeds.append(n)
        # grow cavity; the edge opposite vertex i is (vs[i - 2], vs[i - 1])
        in_cav = set(seeds)
        stack = list(seeds)
        while stack:
            s = stack.pop()
            vs, ns = tris[s], adj[s]
            for i in (0, 1, 2):
                n = ns[i]
                if n == -1 or n in in_cav:
                    continue
                u, v = vs[i - 2], vs[i - 1]
                if ((u, v) if u < v else (v, u)) in segs:
                    continue
                a, b, c = tris[n]
                if _incircle(px[a], py[a], px[b], py[b], px[c], py[c], x, y) > 0:
                    in_cav.add(n)
                    stack.append(n)
        # boundary (directed as in the inner triangle) with status; the walk
        # order of in_cav fixes the new triangles' ids
        boundary = []
        for s in in_cav:
            vs, ns, st = tris[s], adj[s], status[s]
            status[s] = _GONE
            for i in (0, 1, 2):
                if ns[i] not in in_cav:
                    boundary.append((vs[i - 2], vs[i - 1], ns[i], st, s))
        first = len(tris)
        start_of = {}
        vert2tri = self.vert2tri
        for tid, (u, v, n, st, s_in) in enumerate(boundary, first):
            tris.append([u, v, p])
            adj.append([-1, -1, n])
            status.append(st)
            if n != -1:
                an = adj[n]
                an[an.index(s_in)] = tid
            start_of[u] = tid
            vert2tri[u] = tid
            vert2tri[v] = tid
        # link new triangles around p: triangle with boundary edge (u,v)
        # neighbors the one with boundary edge (v,w) across edge (v,p)
        for tid in range(first, len(tris)):
            nxt = start_of[tris[tid][1]]  # shares edge (v, p); opposite u -> slot 0
            adj[tid][0] = nxt
            adj[nxt][1] = tid     # in nxt=(v,w,p), edge (p,v) is opposite w
        vert2tri[p] = first
        self.last = first
        if hit_seg is not None:
            eu, ev, tag = hit_seg
            segs[self._seg_key(eu, p)] = tag
            segs[self._seg_key(p, ev)] = tag
        return p

    # -- segment recovery --------------------------------------------------------

    def edge_exists(self, u, v):
        """Whether u and v share a triangle: one turn round u's fan, from
        vert2tri[u].  Insertion keeps vert2tri on a live triangle, and the
        super triangle closes the fan of every inserted vertex."""
        tris, adj = self.tris, self.adj
        t0 = t = self.vert2tri[u]
        while True:
            vs = tris[t]
            if v in vs:
                return True
            t = adj[t][vs.index(u) - 1]
            if t == t0:
                return False

    def recover_segment(self, u, v, tag, depth=0):
        """Make (u, v) an edge of the triangulation and constrain it."""
        if u == v:
            return
        if self.edge_exists(u, v):
            self.segs[self._seg_key(u, v)] = tag
            return
        self.split_segment(u, v, tag, depth)

    def split(self, u, v):
        """Split the constrained segment (u, v) at its midpoint, and a
        paired one's partner with it: the edges are vertical, so both
        midpoints have the same y."""
        tag = self.segs.pop(self._seg_key(u, v))
        m = self.split_segment(u, v, tag)
        if tag in _PAIRED:
            pu, pv = self.partner[u], self.partner[v]
            pm = self.split_segment(pu, pv,
                                    self.segs.pop(self._seg_key(pu, pv)))
            self.partner[m], self.partner[pm] = pm, m

    def split_segment(self, u, v, tag, depth=0):
        """Insert the midpoint m of segment (u, v), recover (u, m) and
        (m, v) as subsegments with its tag, and return m.  (u, v) is not in
        segs: recovery has not constrained it yet, and refinement takes it
        out first.

        The float midpoint may fall a rounding error off the exact segment,
        so the halves are recovered rather than assumed to exist.
        """
        if depth > 32:
            raise MeshFailure("segment recovery did not terminate")
        m = self.insert(0.5 * (self.px[u] + self.px[v]),
                        0.5 * (self.py[u] + self.py[v]))
        if m == u or m == v:
            raise MeshFailure("degenerate segment split")
        self.recover_segment(u, m, tag, depth + 1)
        self.recover_segment(m, v, tag, depth + 1)
        return m

    # -- carving -----------------------------------------------------------------

    def carve(self):
        """Mark every triangle carved or alive: flood from a super vertex's
        triangle, carved, and flip the mark across each constrained segment
        but a slit."""
        tris, adj, segs, status = self.tris, self.adj, self.segs, self.status
        stack = [(self.vert2tri[self.sv[0]], _CARVED)]
        while stack:
            t, mark = stack.pop()
            if status[t] != _UNDECIDED:
                continue
            status[t] = mark
            vs = tris[t]
            for i in (0, 1, 2):
                n = adj[t][i]
                if n == -1:
                    continue
                tag = segs.get(self._seg_key(vs[i - 2], vs[i - 1]))
                stack.append((n, mark if tag in (None, SLIT)
                              else _ALIVE + _CARVED - mark))

    # -- refinement ----------------------------------------------------------------

    def _circum(self, t):
        a, b, c = self.tris[t]
        ax, ay = self.px[a], self.py[a]
        bx, by = self.px[b], self.py[b]
        cx, cy = self.px[c], self.py[c]
        d = 2.0 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        if d == 0.0:
            return None
        b2 = (bx - ax) ** 2 + (by - ay) ** 2
        c2 = (cx - ax) ** 2 + (cy - ay) ** 2
        ux = ax + ((cy - ay) * b2 - (by - ay) * c2) / d
        uy = ay + ((bx - ax) * c2 - (cx - ax) * b2) / d
        return ux, uy, math.hypot(ux - ax, uy - ay)

    def refine(self, sizing):
        """Refine to the sizing and the angle bound; returns the SEAM
        segments that a triangle left under the bound would split."""
        ratio_bound = 0.5 / math.sin(math.radians(MIN_ANGLE_DEG))
        inserted = 0
        stack = [t for t in range(len(self.tris)) if self.status[t] == _ALIVE]
        skip, wanted = set(), {}
        while stack:
            t = stack.pop()
            if self.status[t] != _ALIVE or t in skip:
                continue
            cc = self._circum(t)
            if cc is None:
                continue
            ux, uy, R = cc
            a, b, c = self.tris[t]
            pa = (self.px[a], self.py[a])
            pb = (self.px[b], self.py[b])
            pc = (self.px[c], self.py[c])
            lmin = min(math.dist(pa, pb), math.dist(pb, pc), math.dist(pc, pa))
            gx = (pa[0] + pb[0] + pc[0]) / 3.0
            gy = (pa[1] + pb[1] + pc[1]) / 3.0
            h = sizing(gx, gy)
            bad_size = R > 0.62 * h
            bad_shape = R > ratio_bound * lmin and lmin > 1e-12
            if not (bad_size or bad_shape):
                continue
            if inserted >= MAX_INSERT:
                raise MeshFailure("refinement exceeded the insertion budget")
            blocked, tc = self._walk(t, ux, uy)
            if blocked is None:
                blocked = self._encroached(ux, uy, tc)
            before = len(self.tris)
            if blocked is None:
                self.insert(ux, uy, hint=tc)
            else:
                u, v = blocked
                key = self._seg_key(u, v)
                seglen = math.dist((self.px[u], self.py[u]), (self.px[v], self.py[v]))
                hseg = sizing(0.5 * (self.px[u] + self.px[v]),
                              0.5 * (self.py[u] + self.py[v]))
                fixed = self.segs[key] == SEAM
                if fixed or seglen < 0.55 * hseg:
                    skip.add(t)
                    if fixed and bad_shape and seglen >= 0.55 * hseg:
                        wanted[t] = key
                    continue
                self.split(u, v)
            inserted += 1
            stack.extend(range(before, len(self.tris)))
            stack.append(t)
        return {key for t, key in wanted.items() if self.status[t] == _ALIVE}

    def _encroached(self, x, y, tc):
        """Constrained segment near (x, y) whose diametral circle contains it.

        Only the 1-ring around tc, the triangle containing (x, y), is
        checked; that is where encroachment by a circumcenter insertion
        actually matters.
        """
        cand = [tc] + [n for n in self.adj[tc] if n != -1]
        for t in cand:
            vs = self.tris[t]
            for i in range(3):
                u, v = vs[(i + 1) % 3], vs[(i + 2) % 3]
                if self._seg_key(u, v) not in self.segs:
                    continue
                mx = 0.5 * (self.px[u] + self.px[v])
                my = 0.5 * (self.py[u] + self.py[v])
                rad2 = (self.px[u] - mx) ** 2 + (self.py[u] - my) ** 2
                if (x - mx) ** 2 + (y - my) ** 2 < rad2 * (1 - 1e-12):
                    return (u, v)
        return None

    def _walk(self, t, x, y):
        """Walk from alive triangle t towards the circumcenter (x, y): returns
        ((u, v), None) if constrained segment (u, v) blocks the straight path,
        else (None, the triangle holding (x, y)), which locate finds if the
        walk leaves the alive region or runs out of steps.  As in locate,
        that triangle starts the next walk: the midpoint of a segment split
        next lies on an edge, and its start picks which triangle it finds.
        """
        px, py = self.px, self.py
        cur = t
        for _ in range(len(self.tris)):
            a, b, c = vs = self.tris[cur]
            o0 = _orient(px[b], py[b], px[c], py[c], x, y)
            o1 = _orient(px[c], py[c], px[a], py[a], x, y)
            o2 = _orient(px[a], py[a], px[b], py[b], x, y)
            if o0 >= 0 and o1 >= 0 and o2 >= 0:
                self.last = cur
                return None, cur
            worst = min((o0, 0), (o1, 1), (o2, 2))[1]
            u, v = vs[(worst + 1) % 3], vs[(worst + 2) % 3]
            if self._seg_key(u, v) in self.segs:
                return (u, v), None
            nxt = self.adj[cur][worst]
            if nxt == -1 or self.status[nxt] != _ALIVE:
                break
            cur = nxt
        return None, self.locate(x, y, t)[0]


# -- top-level driver -----------------------------------------------------------

def _plateau(poly):
    """(cx, cy, h_loc, rad + 2 h_loc) of a hole loop: its centroid, its
    longest edge, and the radius out to which that edge size holds."""
    hh = float(np.max(np.linalg.norm(np.roll(poly, -1, 0) - poly, axis=1)))
    return (*map(float, poly.mean(axis=0)), hh,
            0.5 * float(np.ptp(poly[:, 0])) + 2.0 * hh)


def _make_sizing(geo: GeometrySpec, h0: float):
    """Target element size (x, y) -> h: the least of the background h0,
    the hole plateaus and the corner grading.

    Every hole (loops[1:]) is sized by one rule, so a cell or cone hole is
    meshed as a reference meshes it at scale delta: its longest edge h_loc
    is held out to rad + 2 h_loc from its centre, rad the hole's half-width,
    and the size grows from there at slope 0.7, so element sizes never jump
    at the plateau's edge.  Towards the corner vertices the size is
    (1 - sigma) times the distance, down to h0 sigma^grading_layers.

    A term is below h0 only within its reach of the hole centre or corner:
    rad + 2 h_loc + (h0 - h_loc) / 0.7, or h0 / (1 - sigma).  Each is filed
    in the 3 x 3 buckets around its own, in a grid whose side is the longest
    reach plus 1 %, so a call reads one bucket.  Squared distances find the
    nearest; only the terms that can match its term are evaluated, with
    np.hypot as over all holes and corners, so each value is unchanged.
    """
    holes = [_plateau(poly) for poly, _ in geo.loops[1:]]
    reach = [hr + (h0 - hh) / 0.7 for _, _, hh, hr in holes]
    hh_min = min((hole[2] for hole in holes), default=h0)
    hr_max = max((hole[3] for hole in holes), default=0.0)
    corners = []
    if geo.grading_layers and geo.corner_vertices:
        corners = [(float(x), float(y)) for x, y in geo.corner_vertices]
        h_min = h0 * GRADING_SIGMA ** geo.grading_layers
        slope = 1.0 - GRADING_SIGMA
        reach.append(h0 / slope)
    side = 1.01 * max(reach, default=h0)
    grid = {}
    for kind, items in enumerate((holes, corners)):
        for item in items:
            i, j = math.floor(item[0] / side), math.floor(item[1] / side)
            for key in ((i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)):
                grid.setdefault(key, ([], []))[kind].append(item)

    def sizing(x, y):
        near_holes, near_corners = grid.get(
            (math.floor(x / side), math.floor(y / side)), ((), ()))
        val = h0
        if near_holes:
            sq = [(cx - x) * (cx - x) + (cy - y) * (cy - y)
                  for cx, cy, _, _ in near_holes]
            _, _, hh, hr = near_holes[sq.index(min(sq))]
            # no hole past lim can go below the nearest one's term
            t = min(h0, hh + 0.7 * max(math.sqrt(min(sq)) - hr, 0.0))
            lim = (hr_max + max(t - hh_min, 0.0) / 0.7) ** 2 * (1.0 + 1e-9)
            for s, (cx, cy, hh, hr) in zip(sq, near_holes):
                if s <= lim:
                    d = float(np.hypot(cx - x, cy - y))
                    val = min(val, hh + 0.7 * max(d - hr, 0.0))
        if near_corners:
            sq = [(cx - x) * (cx - x) + (cy - y) * (cy - y)
                  for cx, cy in near_corners]
            lim = min(sq) * (1.0 + 1e-9)
            dc = min(float(np.hypot(cx - x, cy - y))
                     for s, (cx, cy) in zip(sq, near_corners) if s <= lim)
            val = min(val, max(h_min, slope * dc))
        return val

    return sizing


def _sample_edge(a, b, sizing):
    """Adaptive in-order subdivision of segment a-b at the local sizing."""
    out = [(float(a[0]), float(a[1]))]

    def rec(p, q, depth):
        if depth > 24:
            raise MeshFailure("boundary sampling recursion too deep")
        mx, my = 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1])
        if math.dist(p, q) > 1.3 * sizing(mx, my):
            rec(p, (mx, my), depth + 1)
            rec((mx, my), q, depth + 1)
        else:
            out.append(q)

    rec(out[0], (float(b[0]), float(b[1])), 0)
    return out


class _Pslg:
    """Points, each mapped to its index in order of addition, the
    constrained segments (ia, ib, tag) joining them, and the pairs of
    points on paired edges; a point added twice keeps its first index."""

    def __init__(self):
        self.pts, self.req, self.pairs = {}, [], []

    def path(self, samples, tag, closed=False):
        """Add the segments between consecutive samples (closed: and back to
        the first); returns the samples' point indices."""
        ids = [self.pts.setdefault((float(x), float(y)), len(self.pts))
               for x, y in samples]
        self.req.extend(zip(ids, ids[1:] + ids[:1] if closed else ids[1:],
                            itertools.repeat(tag)))
        return ids

    def add(self, loops, chains, sizing):
        """Loops and chains, each edge sampled at the sizing; every chain's
        segments are tagged SLIT."""
        for loop, tags in loops:
            n = len(loop)
            edges = [_sample_edge(loop[i], loop[(i + 1) % n], sizing)
                     for i in range(n)]
            pairs = [(tags.index(right), tags.index(left))
                     for right, left in _PAIRS.items() if left in tags]
            for i, j in pairs:
                # the sizing need not be periodic: the left edge is the right
                # edge's samples at its own x, reversed, so the two match
                edges[j] = [(float(loop[j][0]), y) for _, y in edges[i][::-1]]
            ids = [self.path(samples, tag) for tag, samples in zip(tags, edges)]
            for i, j in pairs:
                self.pairs.extend(zip(ids[i], ids[j][::-1]))
        for chain in chains:
            for i in range(len(chain) - 1):
                self.path(_sample_edge(chain[i], chain[i + 1], sizing), SLIT)


def _mesh(g: _Pslg, lo, hi):
    """Triangulate g's points inside the box lo-hi, recover its segments
    and carve; returns the triangulation and the vertex of each point."""
    tri = _Triangulation([float(v) for v in lo], [float(v) for v in hi])
    actual = [tri.insert(x, y) for x, y in g.pts]
    for a, b in g.pairs:
        tri.partner[actual[a]], tri.partner[actual[b]] = actual[b], actual[a]
    for ia, ib, tag in g.req:
        tri.recover_segment(actual[ia], actual[ib], tag)
    tri.carve()
    return tri, actual


def triangulate(geo: GeometrySpec, h0: float) -> Mesh:
    """Mesh a GeometrySpec at background size h0 and return a tagged Mesh;
    the geometry carries every other sizing input (_make_sizing).

    The rest of the domain (outer loop, chains, untiled holes) is meshed
    around each run of tiled periods (_tile_runs), whose translated tiles
    are joined to it by node index; with no tiled period it is the mesh.
    Its elements come first, then each copy's in the tile's order, which
    the mesh's tile map records.
    """
    if not h0 > 0:
        raise ValueError("h0 must be positive")
    if geo.grading_layers < 0:
        raise ValueError("grading_layers must be at least 0")
    # _extract gives a slit's lower face the elements below y = 0
    if any(np.any(np.asarray(c, dtype=float)[:, 1] != 0.0)
           for c in geo.chains):
        raise ValueError("every chain must lie on y = 0")
    sizing = _make_sizing(geo, h0)
    tiles = _tiled_periods(geo, h0)
    untiled = [loop for i, loop in enumerate(geo.loops[1:], 1)
               if i not in tiles.values()]
    tile_tri, tile_sizing = _tile(geo, h0, tiles)
    while True:
        rest = _Pslg()
        rest.add([geo.loops[0]] + untiled, geo.chains, sizing)
        tile, runs = _tile_runs(geo, tiles, tile_tri)
        outlines = [rest.path(xy[edge], SEAM, closed=True)
                    for _, xy, edge, _ in runs]
        tri, actual = _mesh(rest, *geo.bbox())
        wanted = tri.refine(sizing)
        if not wanted:
            break
        # the tile splits each outline segment the rest would split, in its
        # own copy, and refines again; the rest is meshed again around it
        in_tile = {}
        for (*_, pair), pids in zip(runs, outlines):
            ring = [actual[i] for i in pids]
            ends = zip(ring, ring[1:] + ring[:1])
            in_tile.update(zip(map(frozenset, ends), pair.tolist()))
        for a, b in (in_tile[frozenset(key)] for key in wanted):
            if tile_tri._seg_key(a, b) in tile_tri.segs:
                tile_tri.split(a, b)
        tile_tri.refine(tile_sizing)
    # a seam's nodes are shared with the tiles on its other side
    if any(tag == SEAM and tri._seg_key(actual[ia], actual[ib]) not in tri.segs
           for ia, ib, tag in rest.req):
        raise MeshFailure("a seam was split")
    mesh, remap = _extract(tri)
    node = np.array([remap.get(v, -1) for v in actual])

    nodes, elements = [mesh.nodes], [mesh.elements]
    edges, tags = [mesh.boundary_edges], list(mesh.boundary_tags)
    n, m = mesh.num_nodes, mesh.num_elements
    copies = []
    for (gid, xy, edge, _), pids in zip(runs, outlines):
        final = np.full(len(xy), -1)
        final[edge] = node[pids]
        inner = np.setdiff1d(gid, edge)
        final[inner] = n + np.arange(len(inner))
        n += len(inner)
        nodes.append(xy[inner])
        elements.append(final[gid[:, tile.elements]].reshape(-1, 3))
        edges.append(final[gid[:, tile.boundary_edges]].reshape(-1, 2))
        tags += tile.boundary_tags * len(gid)
        copies.append(m + np.arange(len(gid) * tile.num_elements).reshape(
            len(gid), -1))
        m += copies[-1].size
    return Mesh(np.vstack(nodes), np.vstack(elements), np.vstack(edges), tags,
                np.vstack(copies) if copies else None)


# -- tiling the hole row -----------------------------------------------------------

def _period_box(row: HoleRow, k):
    """(x0, x1, y0, y1) of the row's period k."""
    (x, y), p = row.origin, row.period
    return x + k * p, x + (k + 1) * p, y - 0.5 * p, y + 0.5 * p


def _touches(a, b, box):
    """Which segments a[i]-b[i] meet the closed box (x0, x1, y0, y1)."""
    x0, x1, y0, y1 = box
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    near = ((lo[:, 0] <= x1) & (hi[:, 0] >= x0)
            & (lo[:, 1] <= y1) & (hi[:, 1] >= y0))
    d = b - a
    side = np.array([d[:, 0] * (cy - a[:, 1]) - d[:, 1] * (cx - a[:, 0])
                     for cx in (x0, x1) for cy in (y0, y1)])
    return near & ~((side > 0).all(axis=0) | (side < 0).all(axis=0))


def _tiled_periods(geo: GeometrySpec, h0: float) -> dict:
    """{period k: index of its hole loop} of the row periods triangulate
    tiles: those whose sizing is the tile's, translated.

    Period k holds the hole whose centroid falls in its box, strictly inside
    the box.  The box must touch no other edge of the geometry: it then lies
    inside the domain, and on it the nearest hole, so the least hole term,
    is its own.  The corner grading must be nowhere finer on it than
    min(h0, hole term), which is checked by the least grading term on the
    box against the largest hole term.
    """
    row = geo.row
    if row is None:
        return {}
    holes, segs = {}, [(geo.loops[0][0], np.roll(geo.loops[0][0], -1, 0))]
    segs += [(chain[:-1], chain[1:]) for chain in geo.chains]
    for i, (poly, _) in enumerate(geo.loops[1:], 1):
        k = math.floor((poly[:, 0].mean() - row.origin[0]) / row.period)
        x0, x1, y0, y1 = _period_box(row, k)
        if (0 <= k < row.count and k not in holes
                and x0 < poly[:, 0].min() and poly[:, 0].max() < x1
                and y0 < poly[:, 1].min() and poly[:, 1].max() < y1):
            holes[k] = i
        else:
            segs.append((poly, np.roll(poly, -1, 0)))
    a, b = (np.vstack(s) for s in zip(*segs))
    corners = np.array(geo.corner_vertices if geo.grading_layers else [],
                       dtype=float).reshape(-1, 2)
    tiles = {}
    for k, i in sorted(holes.items()):
        box = x0, x1, y0, y1 = _period_box(row, k)
        if _touches(a, b, box).any():
            continue
        if len(corners):
            gap = np.hypot(*(np.clip(corners, (x0, y0), (x1, y1)) - corners).T)
            finest = max(h0 * GRADING_SIGMA ** geo.grading_layers,
                         (1.0 - GRADING_SIGMA) * float(gap.min()))
            cx, cy, hh, hr = _plateau(geo.loops[i][0])
            far = max(math.hypot(x - cx, y - cy) for x in (x0, x1)
                      for y in (y0, y1))
            if finest < min(h0, hh + 0.7 * max(far - hr, 0.0)):
                continue
        tiles[k] = i
    return tiles


def _tile(geo: GeometrySpec, h0: float, tiles: dict):
    """The first tiled period, box and hole, triangulated and refined to its
    own sizing, with that sizing; (None, None) without tiles.  Its box
    edges, the seams, are sampled at the sizing, and the left seam is a
    copy of the right and split with it."""
    if not tiles:
        return None, None
    k0 = min(tiles)
    x0, x1, y0, y1 = _period_box(geo.row, k0)
    box = (np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]), list(TILE))
    hole = geo.loops[tiles[k0]]
    sizing = _make_sizing(GeometrySpec(loops=[box, hole]), h0)
    g = _Pslg()
    g.add([box, hole], [], sizing)
    tri, _ = _mesh(g, (x0, y0), (x1, y1))
    tri.refine(sizing)
    return tri, sizing


def _tile_runs(geo: GeometrySpec, tiles: dict, tri: _Triangulation):
    """The tile's Mesh, extracted from its triangulation tri, laid over each
    run of consecutive tiled periods (None and [] without tiles).

    Per run: its tile nodes numbered tile by tile (gid, one row per tile),
    their translated coordinates xy, the run's outline as indices into xy,
    and the pair of tri's vertices each outline segment joins in its own
    copy.
    """
    if not tiles:
        return None, []
    row = geo.row
    k0 = min(tiles)
    x0, x1, y0, y1 = _period_box(row, k0)
    tile, remap = _extract(tri)
    vertex = np.empty(tile.num_nodes, dtype=np.int64)
    vertex[list(remap.values())] = list(remap)
    # each side's tile nodes, corners included, counter-clockwise; the left
    # and right seams were split in pairs, so they hold the same y's
    x, y = tile.nodes.T
    b, r, t, l = (np.flatnonzero(on)[np.argsort(key[on])] for on, key in (
        (y == y0, x), (x == x1, y), (y == y1, -x), (x == x0, -y)))

    ks = sorted(tiles)
    runs = []
    for run in np.split(np.array(ks), np.flatnonzero(np.diff(ks) != 1) + 1):
        # a tile's left seam is the previous tile's right seam
        gid = np.arange(len(run) * tile.num_nodes).reshape(len(run), -1)
        gid[1:, l] = gid[:-1, r[::-1]]
        shift = np.zeros((len(run), 1, 2))
        shift[:, 0, 0] = (run - k0) * row.period
        xy = (tile.nodes + shift).reshape(-1, 2)
        # the run's outline, counter-clockwise from its lower left corner
        edge = np.concatenate([gid[:, b[:-1]].ravel(), gid[-1, r[:-1]],
                               gid[::-1, t[:-1]].ravel(), gid[0, l[:-1]]])
        # the tile nodes each outline segment joins, in its own copy
        ends = (np.concatenate([np.tile(b[s], len(run)), r[s],
                                np.tile(t[s], len(run)), l[s]])
                for s in (np.s_[:-1], np.s_[1:]))
        runs.append((gid, xy, edge, vertex[np.column_stack([*ends])]))
    return tile, runs


def _extract(tri: _Triangulation):
    """The alive triangles as a Mesh, and the map from triangulation vertex
    to mesh node."""
    alive = [t for t in range(len(tri.tris)) if tri.status[t] == _ALIVE]
    if not alive:
        raise MeshFailure("carving removed every triangle")
    # mesh nodes numbered in order of first use
    remap = {}
    elements = np.array([[remap.setdefault(v, len(remap)) for v in tri.tris[t]]
                         for t in alive], dtype=np.int64)
    nodes = np.array([(tri.px[v], tri.py[v]) for v in remap], dtype=float)

    # adjacency (alive triangle rows) per undirected segment
    seg_adj = {}
    for row, t in enumerate(alive):
        vs = tri.tris[t]
        for i in range(3):
            key = tri._seg_key(vs[(i + 1) % 3], vs[(i + 2) % 3])
            if key in tri.segs:
                seg_adj.setdefault(key, []).append(row)

    bedges, btags, slit_items = [], [], []
    for key, tag in tri.segs.items():
        rows = seg_adj.get(key, [])
        if not rows or tag == SEAM or tag in TILE:
            continue  # buried in a carved region, or joined to a tile
        u, v = (remap[key[0]], remap[key[1]])
        if tag == SLIT:  # carving gives both its sides one mark
            slit_items.append((u, v))
        else:
            bedges.append((u, v))
            btags.append(tag)

    # an interior slit node gives the lower side its own copy: every element
    # incident to it with its centroid below the slit line takes the copy
    deg = Counter(itertools.chain.from_iterable(slit_items))
    dup = {w: len(nodes) + i
           for i, w in enumerate(w for w, d in deg.items() if d >= 2)}
    if dup:
        nodes = np.vstack([nodes, nodes[list(dup)]])
        copy = np.arange(len(nodes))
        copy[list(dup)] = list(dup.values())
        below = (np.isin(elements, list(dup)).any(axis=1)
                 & (nodes[elements].mean(axis=1)[:, 1] < 0.0))
        elements[below] = copy[elements[below]]
    for u, v in slit_items:
        bedges += [(u, v), (dup.get(u, u), dup.get(v, v))]
        btags += ["GammaInterface_top", "GammaInterface_bottom"]

    mesh = Mesh(nodes, elements, np.array(bedges, dtype=np.int64).reshape(-1, 2),
                btags)
    areas = mesh.element_areas()
    if np.any(areas <= 0):
        raise MeshFailure("extraction produced a non-positive element")
    return mesh, remap
