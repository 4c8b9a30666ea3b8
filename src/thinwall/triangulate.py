"""In-repo constrained Delaunay triangulation with quality refinement.

Bowyer-Watson incremental insertion with walking point location, midpoint
segment recovery, region carving by crossing parity, and Ruppert-style
refinement (encroached-segment splitting + circumcenter insertion) driven
by a spatial sizing function with geometric corner grading.  The
orientation and incircle tests are a float filter with an exact integer
fallback (Shewchuk, Discrete Comput. Geom. 18, 1997).  Point location,
the refinement walk and the cavity test run the filters inline and call
the predicate only where a filter is unsure, so every sign, and every
orientation value the walks compare, is the predicate's own.

The sizing reads a hole row by period index, and skips each np.hypot its
value cannot depend on (_make_sizing); a minimum over a superset of the
terms that can attain it is the same float, so no size changes.

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


# error bounds of the float filters: the orientation determinant's over
# |(bx - ax)(cy - ay)| + |(by - ay)(cx - ax)|, and the incircle
# determinant's over ad bd + bd cd + cd ad, which is at least its permanent
# (Cauchy-Schwarz, then AM-GM); Shewchuk's bound over the permanent is
# about 1.11e-15
_ORIENT_ERR = 3.33e-16
_INCIRCLE_ERR = 1.2e-15


def _orient(ax, ay, bx, by, cx, cy):
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    bound = _ORIENT_ERR * (abs((bx - ax) * (cy - ay)) + abs((by - ay) * (cx - ax)))
    if det > bound or -det > bound:
        return det
    ax, ay, bx, by, cx, cy = _exact_ints(ax, ay, bx, by, cx, cy)
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return 1.0 if d > 0 else (-1.0 if d < 0 else 0.0)


def _orient3(ax, ay, bx, by, cx, cy, x, y):
    """_orient of (x, y) against the edges of triangle abc opposite a, b
    and c: _orient's float filter, inline, and _orient where it is unsure,
    so each is the value its own call returns."""
    l, r = (cx - bx) * (y - by), (cy - by) * (x - bx)
    o0, e = l - r, _ORIENT_ERR * (abs(l) + abs(r))
    if -e <= o0 <= e:
        o0 = _orient(bx, by, cx, cy, x, y)
    l, r = (ax - cx) * (y - cy), (ay - cy) * (x - cx)
    o1, e = l - r, _ORIENT_ERR * (abs(l) + abs(r))
    if -e <= o1 <= e:
        o1 = _orient(cx, cy, ax, ay, x, y)
    l, r = (bx - ax) * (y - ay), (by - ay) * (x - ax)
    o2, e = l - r, _ORIENT_ERR * (abs(l) + abs(r))
    if -e <= o2 <= e:
        o2 = _orient(ax, ay, bx, by, x, y)
    return o0, o1, o2


def _incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """> 0 iff d strictly inside the circumcircle of CCW triangle abc.

    Insertion's cavity test computes the same float filter inline and calls
    this only when the filter is unsure.
    """
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    det = (adx * (bdy * cd - cdy * bd)
           - ady * (bdx * cd - cdx * bd)
           + ad * (bdx * cdy - cdx * bdy))
    bound = _INCIRCLE_ERR * (ad * bd + bd * cd + cd * ad)
    if det > bound or -det > bound:
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
        tris, adj, px, py = self.tris, self.adj, self.px, self.py
        for step in range(4 * len(tris) + 64):
            a, b, c = tris[t]
            o0, o1, o2 = _orient3(px[a], py[a], px[b], py[b], px[c], py[c],
                                  x, y)
            if o0 < 0 or o1 < 0 or o2 < 0:
                # cross a violated edge; rotate the choice to avoid 2-cycles
                neg = [i for i, o in ((0, o0), (1, o1), (2, o2)) if o < 0]
                nxt = adj[t][neg[step % len(neg)]]
                if nxt == -1:  # outside the super triangle: shouldn't happen
                    raise MeshFailure("walk left the triangulation")
                t = nxt
                continue
            return self._found(t, o0, o1, o2)
        raise MeshFailure("point location did not terminate")

    def _found(self, t, o0, o1, o2):
        """locate's result for a point whose orientations o0, o1, o2 against
        the edges of triangle t are none negative; t starts the next walk."""
        self.last = t
        if o0 > 0 and o1 > 0 and o2 > 0:
            return t, "in", -1
        zeros = [i for i, o in ((0, o0), (1, o1), (2, o2)) if o == 0]
        if len(zeros) == 1:
            return t, "edge", zeros[0]
        # on a vertex: the vertex opposite the two zero edges' shared edge
        vloc = ({0, 1, 2} - set(zeros)).pop()
        return t, "vertex", self.tris[t][vloc]

    # -- Bowyer-Watson insertion ------------------------------------------------

    def _seg_key(self, u, v):
        return (u, v) if u < v else (v, u)

    def insert(self, x, y, hint=None, where=None):
        """Insert point, return its vertex id (existing id if duplicate).
        where is the point's locate result, if the caller has it."""
        t, kind, aux = where or self.locate(x, y, hint)
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
        # grow cavity across every edge but a constrained one, to each
        # neighbour whose circumcircle holds the point strictly
        in_cav = set(seeds)
        stack = list(seeds)
        while stack:
            s = stack.pop()
            a, b, c = tris[s]
            n0, n1, n2 = adj[s]
            # each edge, opposite vertex 0, 1 and 2, with its neighbour
            for n, u, v in ((n0, b, c), (n1, c, a), (n2, a, b)):
                if n == -1 or n in in_cav:
                    continue
                # _incircle's float filter, inline; it decides unless unsure
                i, j, k = tris[n]
                adx, ady = px[i] - x, py[i] - y
                bdx, bdy = px[j] - x, py[j] - y
                cdx, cdy = px[k] - x, py[k] - y
                ad = adx * adx + ady * ady
                bd = bdx * bdx + bdy * bdy
                cd = cdx * cdx + cdy * cdy
                det = (adx * (bdy * cd - cdy * bd)
                       - ady * (bdx * cd - cdx * bd)
                       + ad * (bdx * cdy - cdx * bdy))
                bound = _INCIRCLE_ERR * (ad * bd + bd * cd + cd * ad)
                if (det > bound or (det >= -bound and _incircle(
                        px[i], py[i], px[j], py[j], px[k], py[k], x, y) > 0)) \
                        and ((u, v) if u < v else (v, u)) not in segs:
                    in_cav.add(n)
                    stack.append(n)
        # a new triangle (u, v, p) on each boundary edge (u, v), directed as
        # in its cavity triangle, whose state it takes; the walk order of
        # in_cav fixes the new triangles' ids
        first = len(tris)
        start_of = {}
        vert2tri = self.vert2tri
        for s in in_cav:
            a, b, c = tris[s]
            n0, n1, n2 = adj[s]
            st = status[s]
            status[s] = _GONE
            for n, u, v in ((n0, b, c), (n1, c, a), (n2, a, b)):
                if n in in_cav:
                    continue
                tid = len(tris)
                tris.append([u, v, p])
                adj.append([-1, -1, n])
                status.append(st)
                if n != -1:
                    an = adj[n]
                    an[an.index(s)] = tid
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

    def refine(self, sizing):
        """Refine to the sizing and the angle bound; returns the SEAM
        segments that a triangle left under the bound would split.  A
        triangle's size is read only if its shape passes."""
        ratio_bound = 0.5 / math.sin(math.radians(MIN_ANGLE_DEG))
        tris, status, segs, px, py = (self.tris, self.status, self.segs,
                                      self.px, self.py)
        dist = math.dist
        inserted = 0
        stack = [t for t in range(len(tris)) if status[t] == _ALIVE]
        skip, wanted = set(), {}
        while stack:
            t = stack.pop()
            if status[t] != _ALIVE or t in skip:
                continue
            a, b, c = tris[t]
            pa = ax, ay = px[a], py[a]
            pb = bx, by = px[b], py[b]
            pc = cx, cy = px[c], py[c]
            # circumcentre (ux, uy) and radius R
            d = 2.0 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
            if d == 0.0:
                continue
            b2 = (bx - ax) ** 2 + (by - ay) ** 2
            c2 = (cx - ax) ** 2 + (cy - ay) ** 2
            ux = ax + ((cy - ay) * b2 - (by - ay) * c2) / d
            uy = ay + ((bx - ax) * c2 - (cx - ax) * b2) / d
            R = math.hypot(ux - ax, uy - ay)
            lmin = min(dist(pa, pb), dist(pb, pc), dist(pc, pa))
            bad_shape = R > ratio_bound * lmin and lmin > 1e-12
            if not (bad_shape or R > 0.62 * sizing((ax + bx + cx) / 3.0,
                                                    (ay + by + cy) / 3.0)):
                continue
            if inserted >= MAX_INSERT:
                raise MeshFailure("refinement exceeded the insertion budget")
            blocked, where = self._walk(t, ux, uy)
            if blocked is None:
                blocked = self._encroached(ux, uy, where[0])
            before = len(tris)
            if blocked is None:
                self.insert(ux, uy, where=where)
            else:
                u, v = blocked
                key = self._seg_key(u, v)
                seglen = dist((px[u], py[u]), (px[v], py[v]))
                hseg = sizing(0.5 * (px[u] + px[v]), 0.5 * (py[u] + py[v]))
                fixed = segs[key] == SEAM
                if fixed or seglen < 0.55 * hseg:
                    skip.add(t)
                    if fixed and bad_shape and seglen >= 0.55 * hseg:
                        wanted[t] = key
                    continue
                self.split(u, v)
            inserted += 1
            stack.extend(range(before, len(tris)))
            stack.append(t)
        return {key for t, key in wanted.items() if status[t] == _ALIVE}

    def _encroached(self, x, y, tc):
        """Constrained segment near (x, y) whose diametral circle contains it.

        Only the 1-ring around tc, the triangle containing (x, y), is
        checked; that is where encroachment by a circumcenter insertion
        actually matters.
        """
        tris, segs, px, py = self.tris, self.segs, self.px, self.py
        for t in (tc, *self.adj[tc]):
            if t == -1:
                continue
            a, b, c = tris[t]
            for u, v in ((b, c), (c, a), (a, b)):
                if ((u, v) if u < v else (v, u)) not in segs:
                    continue
                mx = 0.5 * (px[u] + px[v])
                my = 0.5 * (py[u] + py[v])
                rad2 = (px[u] - mx) ** 2 + (py[u] - my) ** 2
                if (x - mx) ** 2 + (y - my) ** 2 < rad2 * (1 - 1e-12):
                    return (u, v)
        return None

    def _walk(self, t, x, y):
        """Walk from alive triangle t towards the circumcenter (x, y): returns
        ((u, v), None) if constrained segment (u, v) blocks the straight path,
        else (None, locate's result for (x, y)), which locate itself gives if
        the walk leaves the alive region or runs out of steps.  As in locate,
        the triangle found starts the next walk: the midpoint of a segment
        split next lies on an edge, and its start picks which triangle it
        finds.
        """
        tris, adj, segs, status = self.tris, self.adj, self.segs, self.status
        px, py = self.px, self.py
        cur = t
        for _ in range(len(tris)):
            a, b, c = vs = tris[cur]
            o0, o1, o2 = _orient3(px[a], py[a], px[b], py[b], px[c], py[c],
                                  x, y)
            if o0 >= 0 and o1 >= 0 and o2 >= 0:
                return None, self._found(cur, o0, o1, o2)
            worst = min((o0, 0), (o1, 1), (o2, 2))[1]
            u, v = vs[(worst + 1) % 3], vs[(worst + 2) % 3]
            if ((u, v) if u < v else (v, u)) in segs:
                return (u, v), None
            nxt = adj[cur][worst]
            if nxt == -1 or status[nxt] != _ALIVE:
                break
            cur = nxt
        return None, self.locate(x, y, t)


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

    Only the terms that can attain the least are evaluated; a minimum over
    any superset of those is the same float, so each value is the one the
    rule gives over every hole and corner with np.hypot distances:
    - Holes are read by period index: each is filed under the period of
      geo.row its centre lies in (without a row, all under one period).  A
      call reads the holes of x's period and its two neighbours, which give
      a value v, then only the periods whose hole centres can lie within
      hr_max + (v - hh_min) / 0.7 of (x, y), where every term below v lies.
      A point farther from the row's line than that radius at v = h0 reads
      no hole.
    - Corners are filed in a grid of side a quarter of their reach
      h0 / (1 - sigma) plus 1 %.  A bucket holds each corner within reach
      of it that can be the nearest to one of its points, that is, no
      farther from the bucket than some corner's farthest point of it, so
      a call reads one bucket and its nearest corners decide, as over all.
    np.hypot is skipped where the value cannot depend on it, s being the
    squared distance:
    - s < hr^2 (1 - 1e-12): the hypot is below hr, so the term is h_loc;
    - hh + 0.7 (sqrt(s) (1 - 1e-12) - hr) at least the value so far: that
      float is at most the term, as sqrt(s) (1 - 1e-12) is below the hypot
      and each operation is monotone, so the term cannot lower the value;
    - for the nearest corner, (1 - sigma) sqrt(s) (1 + 1e-12) below the
      floor h0 sigma^grading_layers: the term is the floor; and (1 - sigma)
      sqrt(s) (1 - 1e-12) above the value so far: the term cannot lower it.
    The margins of 1e-12 cover the few ulps between sqrt(s) and the hypot.
    """
    holes = [_plateau(poly) for poly, _ in geo.loops[1:]]
    (x0, yr), p = (geo.row.origin, geo.row.period) if geo.row else \
        ((0.0, 0.0), math.inf)
    periods = {}
    for cx, cy, hh, hr in holes:
        periods.setdefault(math.floor((cx - x0) / p), []).append(
            (cx, cy, hh, hr, hr * hr * (1.0 - 1e-12)))
    k_lo, k_hi = min(periods, default=0), max(periods, default=-1)
    hh_min = min((hole[2] for hole in holes), default=h0)
    hr_max = max((hole[3] for hole in holes), default=0.0)
    y_off = max((abs(hole[1] - yr) for hole in holes), default=0.0)

    def radius2(v):
        """Squared radius about (x, y) that holds every hole term below v."""
        return (hr_max + max(v - hh_min, 0.0) / 0.7) ** 2 * (1.0 + 1e-9)

    reach2 = radius2(h0)
    hypot = np.hypot

    def lowered(val, x, y, js):
        """val lowered by the hole terms of periods js."""
        for j in js:
            for cx, cy, hh, hr, hr2 in periods.get(j, ()):
                dx, dy = cx - x, cy - y
                s = dx * dx + dy * dy
                if s < hr2:
                    val = min(val, hh)
                elif hh + 0.7 * (math.sqrt(s) * (1.0 - 1e-12) - hr) < val:
                    d = float(hypot(dx, dy))
                    val = min(val, hh + 0.7 * max(d - hr, 0.0))
        return val

    grid = {}
    if geo.grading_layers and geo.corner_vertices:
        h_min = h0 * GRADING_SIGMA ** geo.grading_layers
        slope = 1.0 - GRADING_SIGMA
        reach = 1.01 * h0 / slope
        side = 0.25 * reach
        pts = np.array(geo.corner_vertices, dtype=float)
        span = np.floor(np.hstack([pts - reach, pts + reach]) / side)
        keys = sorted({key for i0, j0, i1, j1 in span.astype(int).tolist()
                       for key in itertools.product(range(i0, i1 + 1),
                                                    range(j0, j1 + 1))})
        step = 1 + 2 ** 20 // len(pts)  # buckets per chunk of the arrays
        for start in range(0, len(keys), step):
            chunk = keys[start:start + step]
            lo = np.array(chunk, dtype=float)[:, None] * side
            hi = lo + side
            # each corner's least and greatest distance to each bucket; the
            # margin covers a point rounded into the next bucket
            near = np.hypot(*np.maximum(np.maximum(lo - pts, pts - hi), 0.0).T)
            far = np.hypot(*np.maximum(abs(pts - lo), abs(pts - hi)).T)
            keep = near <= np.minimum(reach, 1.000001 * far.min(axis=0))
            grid.update((key, [tuple(c) for c in pts[k].tolist()])
                        for key, k in zip(chunk, keep.T) if k.any())

    def sizing(x, y):
        val = h0
        gap = max(abs(y - yr) - y_off, 0.0)  # no hole centre is nearer in y
        if holes and gap * gap < reach2:
            k = min(max(math.floor((x - x0) / p), k_lo), k_hi)
            val = lowered(val, x, y, (k, k - 1, k + 1))
            w2 = radius2(val) - gap * gap
            # past two periods, those whose hole centres can lie within
            # sqrt(w2) of x
            if w2 > 0.0 and k_hi - k_lo > 1:
                w = math.sqrt(w2)
                lo = max(math.floor((x - w - x0) / p - 1e-6), k_lo)
                hi = min(math.floor((x + w - x0) / p + 1e-6), k_hi)
                if lo < k - 1 or hi > k + 1:
                    val = lowered(val, x, y, itertools.chain(
                        range(lo, k - 1), range(k + 2, hi + 1)))
        near = grid.get((math.floor(x / side), math.floor(y / side))) \
            if grid else None
        if near:
            sq = [(cx - x) * (cx - x) + (cy - y) * (cy - y) for cx, cy in near]
            m = min(sq)
            r = slope * math.sqrt(m)
            if r * (1.0 + 1e-12) < h_min:
                val = min(val, h_min)
            elif r * (1.0 - 1e-12) <= val:
                lim = m * (1.0 + 1e-9)
                dc = min(float(hypot(cx - x, cy - y))
                         for s, (cx, cy) in zip(sq, near) if s <= lim)
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
    mesh, node_of = _extract(tri)
    node = node_of[actual]

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
    tile, node = _extract(tri)
    vertex = np.empty(tile.num_nodes, dtype=np.int64)
    vertex[node[node >= 0]] = np.flatnonzero(node >= 0)
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
    """The alive triangles as a Mesh, and each triangulation vertex's mesh
    node, -1 for a vertex of no alive triangle."""
    alive = [t for t, st in enumerate(tri.status) if st == _ALIVE]
    if not alive:
        raise MeshFailure("carving removed every triangle")
    used = np.array([tri.tris[t] for t in alive], dtype=np.int64)
    # mesh nodes numbered in order of first use
    verts, first = np.unique(used, return_index=True)
    vertex = verts[np.argsort(first)]
    node = np.full(len(tri.px), -1, dtype=np.int64)
    node[vertex] = np.arange(len(vertex))
    elements = node[used]
    nodes = np.column_stack([np.array(tri.px)[vertex], np.array(tri.py)[vertex]])

    # the segments that are an edge of an alive triangle
    n = len(tri.px)
    ends = np.sort(np.stack([used, np.roll(used, -1, axis=1)], axis=-1), axis=-1)
    segs = list(tri.segs.items())
    keys = np.array([key for key, _ in segs], dtype=np.int64).reshape(-1, 2)
    meshed = np.isin(keys @ [n, 1], ends.reshape(-1, 2) @ [n, 1])
    node_of = node.tolist()

    bedges, btags, slit_items = [], [], []
    for ((a, b), tag), edge in zip(segs, meshed.tolist()):
        if not edge or tag == SEAM or tag in TILE:
            continue  # buried in a carved region, or joined to a tile
        u, v = node_of[a], node_of[b]
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
    return mesh, node
