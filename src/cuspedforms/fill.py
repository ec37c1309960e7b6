"""Bicombing surrogate and equivariant triangle fillings.

The combing path Q(u, v) is a single Rips edge when d(u, v) <= kappa and
otherwise splits at the geodesic midpoint.  fill_triangle splits its longest
side at the same midpoint, so the boundary of a filling equals the combing
triangle cycle identically, not just up to horoball terms.  A triple is a
unit simplex when its longest side is at most kappa; its two sides at the
front vertex are read first, and when they sum to at most kappa the
triangle inequality settles the third, which is never asked (the two-side
rule; the LP window's seed-ball rule below is its analogue).

Equivariance and alternation are exact by construction.  Q(u, v) is not
cached: the distance and the midpoint it splits at are equivariant functions
of the unordered pair (both cached in `CuspedGraph`), so Q is equivariant and
antisymmetric by induction on the distance.  A fill is cached once per
canonical anchored triple (`graph.anchor_simplex`) in `_fill_cache` and
translated back with the permutation sign.  `canonical_fill` is that cached
`FillResult` of a canonical triple; `fill_triangle` anchors a raw triple,
reads it and translates it back, and a caller that anchors the triple
itself (`QuasiCocycle`, which reads every face of a simplex off one
relative-element table) reads it directly.

The certified l1-minimal LP filling of a cycle is anchored, equivariant and
cached once per orbit the same way: the cycle and its seed vertices are
anchored at a seed of least depth (`graph.anchor_cycle`), the LP is solved
on that canonical translate, and the chain in `_lp_cache` is translated
back.

The LP window is built once per orbit.  `rips_window` keeps, for each of
its vertices, the distance to each seed whose ball holds it; two vertices
u, v with d(u, s) + d(s, v) <= kappa for some seed s, or d(u, s) + d(s, t)
+ d(t, v) <= kappa for two seeds s, t, are Rips neighbours by the triangle
inequality (the seed-ball rule).  Of the other pairs, those whose images in
the Heisenberg quotient are farther than kappa apart are not
(`CuspedGraph.shadow_at_most`, a lower bound), and only the rest ask the
graph.  Cliques, rows and columns are window indices, numbered in the
order the vertices would give them, so the LP is the same one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .chains import Chain
from .errors import FillDepthExceeded, Infeasible, WindowTooLarge
from .graph import (CuspedGraph, Simplex, Vertex, anchor_cycle, anchor_simplex,
                    key_vertex, vertex_key)


@dataclass(frozen=True)
class FillResult:
    """The one encoding of a filling: its chain and the method that built
    it (unit-simplex | cone-split | lp | degenerate); the norm is not kept."""
    chain: Chain
    method: str

    @property
    def norm(self) -> Fraction:
        return self.chain.l1_norm()


# cyclic relabelings, which keep the orientation, that move each unordered
# side to positions (0, 1)
_SIDE_PERMS = {(0, 1): (0, 1, 2), (0, 2): (2, 0, 1), (1, 2): (1, 2, 0)}


#: nested cone-split fills allowed before FillDepthExceeded
FILL_DEPTH_CAP = 64
#: Rips simplices allowed in one LP window before WindowTooLarge
LP_SIMPLEX_CAP = 2000


class FillEngine:
    def __init__(self, graph: CuspedGraph, kappa: int = 8):
        if kappa < 2:
            raise ValueError("kappa must be at least 2")
        self.graph = graph
        self.kappa = kappa
        self._fill_cache: dict[Simplex, FillResult] = {}
        self._filling: set[Simplex] = set()  # canonical triples in progress
        self._lp_cache: dict[tuple, Chain] = {}

    # -- combing --------------------------------------------------------

    def combing_path(self, u: Vertex, v: Vertex) -> Chain:
        """Q(u, v): a 1-chain from u to v.  Each split at least halves the
        distance, so the recursion terminates."""
        out = Chain(1)
        if u == v:
            return out
        if self.graph.distance(u, v) <= self.kappa:
            out.add((u, v), 1)
            return out
        m = self.graph.geodesic_midpoint(u, v)
        return self.combing_path(u, m) + self.combing_path(m, v)

    def triangle_cycle(self, x0: Vertex, x1: Vertex, x2: Vertex) -> Chain:
        return (self.combing_path(x0, x1) + self.combing_path(x1, x2)
                + self.combing_path(x2, x0))

    # -- triangle filling -----------------------------------------------

    def fill_triangle(self, x0: Vertex, x1: Vertex, x2: Vertex) -> FillResult:
        """The filling of a raw triple: sign * g . the cached fill of its
        canonical triple (`graph.anchor_simplex`)."""
        if len({x0, x1, x2}) < 3:
            return FillResult(Chain(2), "degenerate")
        canon, sign, g = anchor_simplex((x0, x1, x2), self.graph.psi)
        hit = self.canonical_fill(canon)
        out = hit.chain.translate(self.graph, g)
        return FillResult(out if sign > 0 else -out, hit.method)

    def canonical_fill(self, canon: Simplex) -> FillResult:
        """The filling of a canonical triple of `graph.anchor_simplex`,
        cached in `_fill_cache` as its `FillResult`.  The fill is
        deterministic, so cone splits that reach a triple still being
        filled never terminate: that raises at once, naming the triple."""
        hit = self._fill_cache.get(canon)
        if hit is None:
            if canon in self._filling:
                raise FillDepthExceeded(
                    "cone splits return to the triple "
                    f"({', '.join(map(str, canon))}); "
                    "kappa is likely too small")
            if len(self._filling) > FILL_DEPTH_CAP:
                raise FillDepthExceeded(
                    f"fill recursion exceeded {FILL_DEPTH_CAP}; "
                    "kappa is likely too small")
            self._filling.add(canon)
            try:
                hit = self._fill_canonical(canon)
            finally:
                self._filling.discard(canon)
            self._fill_cache[canon] = hit
        return hit

    def _fill_canonical(self, tri: Simplex) -> FillResult:
        """The unit simplex when every side is at most kappa, else the
        cone split of the longest side (the greater side on a tie) at its
        midpoint.  The two sides at the front vertex (e, 0, depth) are
        read first: when they sum to at most kappa, the triangle
        inequality bounds the third and it is never asked."""
        dist = self.graph.distance
        dists = {(0, 1): dist(tri[0], tri[1]), (0, 2): dist(tri[0], tri[2])}
        if dists[0, 1] + dists[0, 2] > self.kappa:
            dists[1, 2] = dist(tri[1], tri[2])
        longest = max(dists, key=lambda side: (dists[side], side))
        if dists[longest] <= self.kappa:
            out = Chain(2)
            out.add(tri, 1)
            return FillResult(out, "unit-simplex")
        y0, y1, y2 = (tri[i] for i in _SIDE_PERMS[longest])
        m = self.graph.geodesic_midpoint(y0, y1)
        return FillResult(self.fill_triangle(y0, m, y2).chain
                          + self.fill_triangle(m, y1, y2).chain, "cone-split")

    # -- LP fillings -----------------------------------------------------

    def rips_window(self, around: set[Vertex],
                    radius: int) -> dict[Vertex, dict[int, int]]:
        """The vertices within the radius of a seed, in `vertex_key`
        order, each with its distance to every seed whose ball holds it
        (seeds by position in `vertex_key` order), as `ball` lists them."""
        reach: dict[Vertex, dict[int, int]] = {}
        for s, seed in enumerate(sorted(around, key=vertex_key)):
            for v, d in self.graph.ball(seed, radius).items():
                reach.setdefault(v, {})[s] = d
        return {v: reach[v] for v in sorted(reach, key=vertex_key)}

    def fill_cycle_lp(self, z: Chain, window_radius: int,
                      extra_vertices: set[Vertex] | None = None) -> FillResult:
        """l1-minimal (dim+1)-chain b with boundary exactly z, over Rips
        simplices spanned by a window around supp(z) (plus any explicitly
        seeded vertices, e.g. the support of a known filling).  The LP
        answer has passed lp's exact dual certificate, so the norm is
        minimal over the window's simplices.

        The LP is solved once per orbit: z and the seeds are anchored
        (`graph.anchor_cycle`), the canonical filling is cached in
        `_lp_cache` under (window_radius, anchored key), and the answer is
        its translate.  Window, Rips simplices and l1 minimum are
        equivariant, and translation only relabels the LP's rows and
        columns, so the certificate holds in every frame and
        fill_cycle_lp(g z, g E) = g fill_cycle_lp(z, E) exactly."""
        if not z:
            return FillResult(Chain(z.dim + 1), "lp")
        key, g = anchor_cycle(z.terms, extra_vertices or (), self.graph.psi)
        key = (window_radius, *key)
        canon = self._lp_cache.get(key)
        if canon is None:
            canon = self._lp_cache[key] = self._fill_canonical_lp(key)
        out = canon.translate(self.graph, g)
        if out.boundary() != z:
            raise Infeasible("LP result failed exact boundary verification")
        return FillResult(out, "lp")

    def _fill_canonical_lp(self, key: tuple) -> Chain:
        """The certified l1-minimal filling of the anchored cycle and seeds
        that `key` lists."""
        window_radius, terms, extra = key
        z = Chain(len(terms[0][0]) - 1,
                  {tuple(map(key_vertex, sx)): c for sx, c in terms})
        seeds = z.support() | set(map(key_vertex, extra))
        window = self.rips_window(seeds, window_radius)
        cliques = self._rips_simplices(window, z.dim + 2, LP_SIMPLEX_CAP)
        if not cliques:
            raise Infeasible("window contains no candidate simplices")
        verts = list(window)
        index = {v: i for i, v in enumerate(verts)}
        # rows are numbered in order of first appearance
        rows: dict[tuple[int, ...], int] = {}
        row = rows.setdefault
        # a Chain key is in vertex order, and so are the window's indices
        target = {row(tuple(index[v] for v in sx), len(rows)): c
                  for sx, c in z.terms.items()}
        # cliques are increasing, so each face is too, and the boundary
        # signs are (-1)^j
        signs = [(-1) ** j for j in range(z.dim + 2)]
        columns = [{row(cl[:j] + cl[j + 1:], len(rows)): s
                    for j, s in enumerate(signs)} for cl in cliques]
        coeffs = lp.solve_float_then_verify(columns, target, len(rows))
        out = Chain(z.dim + 1)
        for cl, c in zip(cliques, coeffs):
            if c:
                out.add(tuple(verts[i] for i in cl), c)
        if out.boundary() != z:
            raise Infeasible("LP result failed exact boundary verification")
        return out

    def _rips_simplices(self, window: dict[Vertex, dict[int, int]],
                        size: int, cap: int) -> list[tuple[int, ...]]:
        """All size-vertex cliques of the Rips graph (diameter <= kappa) on
        a `rips_window`, as increasing tuples of window positions.  Two
        vertices u, v with d(u, s) + d(s, v) <= kappa for a seed s, or
        d(u, s) + d(s, t) + d(t, v) <= kappa for seeds s, t, are adjacent
        by the triangle inequality, read off the seed distances the window
        holds and the seeds' own; two whose shadows are farther apart are
        not, and only the pairs the shadow admits ask the graph.  Each
        vertex's shadow is computed once."""
        kappa = self.kappa
        verts = list(window)
        n = len(verts)
        adj: list[set[int]] = [set() for _ in range(n)]
        by_seed: dict[int, list[tuple[int, int]]] = {}
        seed_at: dict[int, Vertex] = {}
        for i, reach in enumerate(window.values()):
            for s, d in reach.items():
                by_seed.setdefault(s, []).append((i, d))
                if not d:
                    seed_at[s] = verts[i]
        for ball in by_seed.values():
            for k, (i, di) in enumerate(ball):
                for j, dj in ball[k + 1:]:
                    if di + dj <= kappa:
                        adj[i].add(j)
        seeds = sorted(by_seed)
        for k, s in enumerate(seeds):
            for t in seeds[k + 1:]:
                d, exact = self.graph.distance_fact(seed_at[s], seed_at[t],
                                                    kappa)
                room = kappa - d
                if not exact or room < 0:
                    continue
                near_t = [(j, dj) for j, dj in by_seed[t] if dj <= room]
                for i, di in by_seed[s]:
                    for j, dj in near_t:
                        if di + dj <= room and i != j:
                            adj[min(i, j)].add(max(i, j))
        shadow_at_most = self.graph.shadow_at_most
        shadow = [self.graph.shadow(v) for v in verts]
        for i in range(n):
            near, si = adj[i], shadow[i]
            for j in range(i + 1, n):
                if (j not in near and shadow_at_most(si, shadow[j], kappa)
                        and self.graph.distance_at_most(verts[i], verts[j],
                                                        kappa)):
                    near.add(j)
        out: list[tuple[int, ...]] = []

        def extend(members: tuple[int, ...], candidates: set[int]) -> None:
            if len(members) == size:
                out.append(members)
                if len(out) > cap:
                    raise WindowTooLarge(
                        f"more than {cap} Rips simplices in the window")
                return
            for j in sorted(candidates):
                extend(members + (j,), candidates & adj[j])

        for i in range(n):
            extend((i,), set(adj[i]))
        return out

    # -- relative filling diagnostics -------------------------------------

    def relative_fill_check(self, x0: Vertex, x1: Vertex, x2: Vertex,
                            x3: Vertex, window_radius: int) -> FillResult:
        """Fill the 2-cycle phi(boundary of [x0..x3])."""
        pts = (x0, x1, x2, x3)
        if len(set(pts)) < 4:
            return FillResult(Chain(3), "degenerate")
        z = Chain(2)
        for i in range(4):
            face = pts[:i] + pts[i + 1:]
            part = self.fill_triangle(*face).chain
            z = z + part if i % 2 == 0 else z - part
        if all(self.graph.distance(pts[i], pts[j]) <= self.kappa
               for i in range(4) for j in range(i + 1, 4)):
            b = Chain(3)
            b.add(pts, 1)
            if b.boundary() == z:
                return FillResult(b, "unit-simplex")
        return self.fill_cycle_lp(z, window_radius=window_radius)
