"""In-repo constrained Delaunay triangulation with quality refinement.

Bowyer-Watson incremental insertion with walking point location, midpoint
segment recovery, region carving by flood fill, and Ruppert-style
refinement (encroached-segment splitting + circumcenter insertion) driven
by a spatial sizing function with geometric corner grading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MeshFailure
from .geometry import GeometrySpec
from .mesh import Mesh

__all__ = ["GradingSpec", "triangulate"]

MIN_ANGLE_DEG = 26.0     # refinement splits triangles with a smaller angle
MAX_INSERT = 400_000     # refinement insertions before MeshFailure


@dataclass(frozen=True)
class GradingSpec:
    """Geometric refinement towards the geometry's corner_vertices.

    Local target size max(h0 * sigma^n_layers, (1 - sigma) * distance),
    capped by the background size.
    """

    sigma: float = 0.5
    n_layers: int = 10

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0) or self.n_layers < 0:
            raise ValueError("need sigma in (0,1) and n_layers >= 0")


# -- geometric predicates (float fast path, exact Fraction fallback) -----------

def _orient(ax, ay, bx, by, cx, cy):
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    bound = 3.33e-16 * (abs((bx - ax) * (cy - ay)) + abs((by - ay) * (cx - ax)))
    if det > bound or -det > bound:
        return det
    d = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) \
        - (Fraction(by) - Fraction(ay)) * (Fraction(cx) - Fraction(ax))
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
    fa = (Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy))
    fb = (Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy))
    fc = (Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy))
    la = fa[0] * fa[0] + fa[1] * fa[1]
    lb = fb[0] * fb[0] + fb[1] * fb[1]
    lc = fc[0] * fc[0] + fc[1] * fc[1]
    d = (fa[0] * (fb[1] * lc - fc[1] * lb)
         - fa[1] * (fb[0] * lc - fc[0] * lb)
         + la * (fb[0] * fc[1] - fc[0] * fb[1]))
    return 1.0 if d > 0 else (-1.0 if d < 0 else 0.0)


@dataclass
class _Seg:
    tag: str
    splittable: bool = True
    slit: bool = False


_UNDECIDED, _ALIVE, _DEAD = 0, 1, 2


class _Triangulation:
    def __init__(self, pts):
        self.px = [p[0] for p in pts]
        self.py = [p[1] for p in pts]
        self.tris = []     # [a, b, c] CCW
        self.adj = []      # neighbor opposite each local vertex, -1 = none
        self.dead = []     # bool per triangle (removed from structure)
        self.status = []   # region status per triangle
        self.segs = {}     # (min,max) vertex pair -> _Seg
        self.vert2tri = {}
        self._init_super()
        self.last = 0

    # -- construction ----------------------------------------------------------

    def _init_super(self):
        xs, ys = self.px, self.py
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        r = 10.0 * max(xmax - xmin, ymax - ymin, 1.0)
        # the triangulation holds only the three super vertices initially;
        # the bounding points are re-inserted one by one by the caller
        self.px = [cx - 2 * r, cx + 2 * r, cx]
        self.py = [cy - r, cy - r, cy + 2 * r]
        self.sv = (0, 1, 2)
        self.tris.append([0, 1, 2])
        self.adj.append([-1, -1, -1])
        self.dead.append(False)
        self.status.append(_UNDECIDED)
        for v in (0, 1, 2):
            self.vert2tri[v] = 0

    def add_point(self, x, y):
        self.px.append(x)
        self.py.append(y)
        return len(self.px) - 1

    # -- point location --------------------------------------------------------

    def locate(self, x, y, hint=None):
        """Return (tri, kind, aux): kind in {'in','edge','vertex'}.

        For 'edge', aux is the local edge index (opposite vertex aux);
        for 'vertex', aux is the global vertex id.
        """
        t = hint if hint is not None else self.last
        if t >= len(self.tris) or self.dead[t]:
            t = next(i for i in range(len(self.tris) - 1, -1, -1) if not self.dead[i])
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
        p = self.add_point(x, y)
        seeds = [t]
        hit_seg = None
        if kind == "edge":
            vs = self.tris[t]
            eu, ev = vs[(aux + 1) % 3], vs[(aux + 2) % 3]
            key = self._seg_key(eu, ev)
            if key in self.segs:
                hit_seg = (eu, ev, self.segs.pop(key))
            n = self.adj[t][aux]
            if n != -1:
                seeds.append(n)
        # grow cavity
        px, py = self.px, self.py
        in_cav = set(seeds)
        stack = list(seeds)
        while stack:
            s = stack.pop()
            vs = self.tris[s]
            for i in range(3):
                n = self.adj[s][i]
                if n == -1 or n in in_cav:
                    continue
                u, v = vs[(i + 1) % 3], vs[(i + 2) % 3]
                if self._seg_key(u, v) in self.segs:
                    continue
                a, b, c = self.tris[n]
                if _incircle(px[a], py[a], px[b], py[b], px[c], py[c], x, y) > 0:
                    in_cav.add(n)
                    stack.append(n)
        # collect boundary (directed as in the inner triangle) with status
        boundary = []
        for s in in_cav:
            vs = self.tris[s]
            st = self.status[s]
            for i in range(3):
                n = self.adj[s][i]
                if n in in_cav:
                    continue
                u, v = vs[(i + 1) % 3], vs[(i + 2) % 3]
                boundary.append((u, v, n, st, s))
        for s in in_cav:
            self.dead[s] = True
        new_ids = []
        for u, v, n, st, s_in in boundary:
            tid = len(self.tris)
            self.tris.append([u, v, p])
            self.adj.append([-1, -1, n])
            self.dead.append(False)
            self.status.append(st)
            if n != -1:
                self.adj[n][self.adj[n].index(s_in)] = tid
            new_ids.append(tid)
            self.vert2tri[u] = tid
            self.vert2tri[v] = tid
        # link new triangles around p: triangle with boundary edge (u,v)
        # neighbors the one with boundary edge (v,w) across edge (v,p)
        start_of = {self.tris[tid][0]: tid for tid in new_ids}
        for tid in new_ids:
            u, v, _ = self.tris[tid]
            nxt = start_of[v]          # shares edge (v, p); opposite u -> slot 0
            self.adj[tid][0] = nxt
            self.adj[nxt][1] = tid     # in nxt=(v,w,p), edge (p,v) is opposite w
        self.vert2tri[p] = new_ids[0]
        self.last = new_ids[0]
        if hit_seg is not None:
            eu, ev, info = hit_seg
            self.segs[self._seg_key(eu, p)] = info
            self.segs[self._seg_key(p, ev)] = info
        return p

    def insert_on_segment(self, u, v, x, y):
        """Split constrained segment (u,v) at (x,y); returns the new vertex.

        The float midpoint may fall a rounding error off the exact segment, so
        the subsegments are re-recovered rather than assumed to exist.
        """
        key = self._seg_key(u, v)
        info = self.segs.pop(key)
        m = self.insert(x, y)
        if m in (u, v):  # degenerate: nothing to split after all
            self.segs[key] = info
            return m
        self.recover_segment(u, m, info)
        self.recover_segment(m, v, info)
        return m

    # -- segment recovery --------------------------------------------------------

    def edge_exists(self, u, v):
        t0 = self.vert2tri.get(u)
        if t0 is None or self.dead[t0]:
            t0 = self._find_incident(u)
        for t in self._around(u, t0):
            if v in self.tris[t]:
                return True
        return False

    def _find_incident(self, u):
        for t in range(len(self.tris) - 1, -1, -1):
            if not self.dead[t] and u in self.tris[t]:
                self.vert2tri[u] = t
                return t
        raise MeshFailure(f"vertex {u} lost from triangulation")

    def _around(self, u, t0):
        """All live triangles incident to u (handles boundary fans)."""
        seen = set()
        stack = [t0]
        while stack:
            t = stack.pop()
            if t in seen or t == -1 or self.dead[t]:
                continue
            if u not in self.tris[t]:
                continue
            seen.add(t)
            i = self.tris[t].index(u)
            stack.append(self.adj[t][(i + 1) % 3])
            stack.append(self.adj[t][(i + 2) % 3])
        return seen

    def recover_segment(self, u, v, info: _Seg, depth=0):
        if depth > 32:
            raise MeshFailure("segment recovery did not terminate")
        if u == v:
            return
        if self.edge_exists(u, v):
            self.segs[self._seg_key(u, v)] = info
            return
        mx = 0.5 * (self.px[u] + self.px[v])
        my = 0.5 * (self.py[u] + self.py[v])
        m = self.insert(mx, my)
        if m == u or m == v:
            raise MeshFailure("degenerate segment during recovery")
        self.recover_segment(u, m, info, depth + 1)
        self.recover_segment(m, v, info, depth + 1)

    # -- carving -----------------------------------------------------------------

    def carve(self, hole_seeds):
        n = len(self.tris)
        for t in range(n):
            self.status[t] = _UNDECIDED
        sv = set(self.sv)

        def flood(start, mark):
            stack = [start]
            while stack:
                t = stack.pop()
                if t == -1 or self.dead[t] or self.status[t] != _UNDECIDED:
                    continue
                self.status[t] = mark
                vs = self.tris[t]
                for i in range(3):
                    uvkey = self._seg_key(vs[(i + 1) % 3], vs[(i + 2) % 3])
                    if uvkey in self.segs:
                        continue
                    stack.append(self.adj[t][i])

        for t in range(n):
            if not self.dead[t] and (set(self.tris[t]) & sv):
                if self.status[t] == _UNDECIDED:
                    flood(t, _DEAD)
        for sx, sy in hole_seeds:
            t, _, _ = self.locate(sx, sy)
            flood(t, _DEAD)
        for t in range(n):
            if not self.dead[t] and self.status[t] == _UNDECIDED:
                flood(t, _ALIVE)

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
        ratio_bound = 0.5 / math.sin(math.radians(MIN_ANGLE_DEG))
        inserted = 0
        stack = [t for t in range(len(self.tris))
                 if not self.dead[t] and self.status[t] == _ALIVE]
        skip = set()
        while stack:
            t = stack.pop()
            if t >= len(self.tris) or self.dead[t] or self.status[t] != _ALIVE:
                continue
            if t in skip:
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
            # walk from t towards the circumcenter, watching constraints
            blocked = self._walk_blocked(t, ux, uy)
            if blocked is None:
                blocked = self._encroached(ux, uy, t)
            if blocked is None:
                before = len(self.tris)
                self.insert(ux, uy, hint=t)
                inserted += 1
                stack.extend(range(before, len(self.tris)))
                stack.append(t)
            else:
                u, v = blocked
                info = self.segs[self._seg_key(u, v)]
                seglen = math.dist((self.px[u], self.py[u]), (self.px[v], self.py[v]))
                hseg = sizing(0.5 * (self.px[u] + self.px[v]),
                              0.5 * (self.py[u] + self.py[v]))
                if not info.splittable or seglen < 0.55 * hseg:
                    skip.add(t)
                    continue
                before = len(self.tris)
                self.insert_on_segment(u, v, 0.5 * (self.px[u] + self.px[v]),
                                       0.5 * (self.py[u] + self.py[v]))
                inserted += 1
                stack.extend(range(before, len(self.tris)))
                stack.append(t)

    def _encroached(self, x, y, hint):
        """Constrained segment near (x, y) whose diametral circle contains it.

        Only the 1-ring around the containing triangle is checked; that is
        where encroachment by a circumcenter insertion actually matters.
        """
        tc, _, _ = self.locate(x, y, hint)
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

    def _walk_blocked(self, t, x, y):
        """Walk from triangle t towards (x, y).

        Returns None if (x, y) is reachable inside the alive region, else the
        constrained segment (u, v) that blocks the straight path.
        """
        px, py = self.px, self.py
        cur = t
        for _ in range(len(self.tris)):
            a, b, c = self.tris[cur]
            o0 = _orient(px[b], py[b], px[c], py[c], x, y)
            o1 = _orient(px[c], py[c], px[a], py[a], x, y)
            o2 = _orient(px[a], py[a], px[b], py[b], x, y)
            if o0 >= 0 and o1 >= 0 and o2 >= 0:
                return None
            worst = min((o0, 0), (o1, 1), (o2, 2))[1]
            vs = self.tris[cur]
            u, v = vs[(worst + 1) % 3], vs[(worst + 2) % 3]
            if self._seg_key(u, v) in self.segs:
                return (u, v)
            nxt = self.adj[cur][worst]
            if nxt == -1 or self.status[nxt] != _ALIVE:
                return (u, v) if self._seg_key(u, v) in self.segs else None
            cur = nxt
        return None


# -- top-level driver -----------------------------------------------------------

def _make_sizing(geo: GeometrySpec, h0: float, grading: GradingSpec | None):
    if geo.size_hints:
        hc = np.array([h[0] for h in geo.size_hints], dtype=float)
        hr = np.array([h[1] for h in geo.size_hints], dtype=float)
        hh = np.array([h[2] for h in geo.size_hints], dtype=float)
    else:
        hc = None
    corners = None
    if grading is not None and geo.corner_vertices:
        corners = np.array(geo.corner_vertices, dtype=float)
        h_min = h0 * grading.sigma ** grading.n_layers
        slope = 1.0 - grading.sigma

    def sizing(x, y):
        val = h0
        if hc is not None:
            d = np.hypot(hc[:, 0] - x, hc[:, 1] - y)
            # plateau hh inside the core radius, then grow at bounded slope
            # so element sizes never jump across a hint boundary
            blend = hh + 0.7 * np.maximum(d - hr, 0.0)
            val = min(val, float(blend.min()))
        if corners is not None:
            dc = float(np.hypot(corners[:, 0] - x, corners[:, 1] - y).min())
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


def triangulate(geo: GeometrySpec, h0: float,
                grading: GradingSpec | None = None) -> Mesh:
    """Mesh a GeometrySpec at background size h0 and return a tagged Mesh."""
    if not h0 > 0:
        raise ValueError("h0 must be positive")
    sizing = _make_sizing(geo, h0, grading)

    pts = []
    index = {}

    def pid(xy):
        key = (float(xy[0]), float(xy[1]))
        if key not in index:
            index[key] = len(pts)
            pts.append(key)
        return index[key]

    req = []  # (provisional id a, provisional id b, _Seg)
    for loop, tags in geo.loops:
        n = len(loop)
        edges = [_sample_edge(loop[i], loop[(i + 1) % n], sizing)
                 for i in range(n)]
        if "Periodic_left" in tags:
            # the sizing need not be periodic: the left edge is the right
            # edge's samples, translated and reversed, so the two match
            i, j = tags.index("Periodic_right"), tags.index("Periodic_left")
            sx, sy = loop[j] - loop[(i + 1) % n]
            edges[j] = [(x + sx, y + sy) for x, y in edges[i][::-1]]
        for tag, samples in zip(tags, edges):
            splittable = tag not in ("Periodic_left", "Periodic_right")
            for s0, s1 in zip(samples[:-1], samples[1:]):
                req.append((pid(s0), pid(s1), _Seg(tag, splittable, False)))
    for chain, tag in geo.chains:
        for i in range(len(chain) - 1):
            samples = _sample_edge(chain[i], chain[i + 1], sizing)
            for s0, s1 in zip(samples[:-1], samples[1:]):
                req.append((pid(s0), pid(s1), _Seg(tag, True, geo.slit)))

    tri = _Triangulation(pts)
    actual = [tri.insert(x, y) for x, y in pts]
    for ia, ib, info in req:
        tri.recover_segment(actual[ia], actual[ib], info)
    tri.carve(geo.hole_seeds)
    tri.refine(sizing)
    return _extract(tri)


def _extract(tri: _Triangulation) -> Mesh:
    alive = [t for t in range(len(tri.tris))
             if not tri.dead[t] and tri.status[t] == _ALIVE]
    if not alive:
        raise MeshFailure("carving removed every triangle")
    remap = {}
    nodes = []
    elements = np.empty((len(alive), 3), dtype=np.int64)
    for row, t in enumerate(alive):
        for j, v in enumerate(tri.tris[t]):
            if v not in remap:
                remap[v] = len(nodes)
                nodes.append((tri.px[v], tri.py[v]))
            elements[row, j] = remap[v]
    nodes = np.array(nodes, dtype=float)

    # adjacency (alive triangle rows) per undirected segment
    seg_adj = {}
    for row, t in enumerate(alive):
        vs = tri.tris[t]
        for i in range(3):
            key = tri._seg_key(vs[(i + 1) % 3], vs[(i + 2) % 3])
            if key in tri.segs:
                seg_adj.setdefault(key, []).append(row)

    bedges, btags = [], []
    slit_items = []
    for key, info in tri.segs.items():
        rows = seg_adj.get(key, [])
        if not rows:
            continue  # buried in a carved region
        u, v = (remap[key[0]], remap[key[1]])
        if info.slit and len(rows) == 2:
            slit_items.append((u, v))
        else:
            bedges.append((u, v))
            btags.append(info.tag)

    if slit_items:
        deg = {}
        for u, v in slit_items:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        dup = {}
        for w, d in deg.items():
            if d >= 2:  # interior slit node: give the lower side its own copy
                dup[w] = len(nodes) + len(dup)
        if dup:
            nodes = np.vstack([nodes, nodes[list(dup.keys())]])
        # every element incident to a duplicated node and with its centroid
        # below the slit line takes the lower copies
        copy = np.arange(len(nodes))
        copy[list(dup.keys())] = list(dup.values())
        below = (np.isin(elements, list(dup.keys())).any(axis=1)
                 & (nodes[elements].mean(axis=1)[:, 1] < 0.0))
        elements[below] = copy[elements[below]]
        for u, v in slit_items:
            bedges.append((u, v))
            btags.append("GammaInterface_top")
            bedges.append((dup.get(u, u), dup.get(v, v)))
            btags.append("GammaInterface_bottom")

    mesh = Mesh(nodes, elements, np.array(bedges, dtype=np.int64).reshape(-1, 2),
                btags)
    areas = mesh.element_areas()
    if np.any(areas <= 0):
        raise MeshFailure("extraction produced a non-positive element")
    return mesh
