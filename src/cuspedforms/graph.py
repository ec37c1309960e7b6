"""The cusped graph of the pair (G, Z^2): Cayley graph of the free-by-cyclic
group with a combinatorial horoball glued along every left coset of the
peripheral subgroup <[a,b], t>.

Vertices are triples (base, texp, depth).  Horizontal horoball edges at depth
n join vertices of the same coset at peripheral l1-distance at most 2^n;
vertical edges change the depth by one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import NamedTuple

from . import words
from .errors import CapExceeded, DegreeOverflow
from .words import (COMM, COMM_INV, Automorphism, DEFAULT_PSI, GroupElem,
                    format_word, gamma_inv, gamma_mul, gamma_rel, mul,
                    parse_word)


class Vertex(NamedTuple):
    """Cusped-graph vertex.  `base` must be a freely reduced word (build it
    with mul/word_pow/parse_word when in doubt)."""

    base: str
    texp: int
    depth: int

    @property
    def elem(self) -> GroupElem:
        return GroupElem(self.base, self.texp)

    def __str__(self) -> str:
        return f"{format_word(self.base)}@{self.texp}:{self.depth}"


BASEPOINT = Vertex("", 0, 0)


def vertex(g: GroupElem, depth: int = 0) -> Vertex:
    return Vertex(g.base, g.texp, depth)


def parse_vertex(text: str) -> Vertex:
    body, _, depth = text.rpartition(":")
    if not body:
        raise ValueError(f"bad vertex encoding {text!r} (want word@k:n)")
    word, _, k = body.partition("@")
    n = int(depth)
    if n < 0:
        raise ValueError(f"vertex {text!r} has a negative depth")
    return Vertex(parse_word(word), int(k) if k else 0, n)


def vertex_key(v: Vertex):
    """Global total order: depth, base length, base lex, t-exponent."""
    return (v.depth, len(v.base), v.base, v.texp)


Simplex = tuple[Vertex, ...]


def _parity(seq) -> int:
    """Sign of the permutation that sorts distinct items, by inversions."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@cache
def _orders(n: int) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Every vertex order of an n-simplex as (front vertex i, indices
    i * n + j of the other vertices j in order, sign of the order)."""
    return tuple((p[0], tuple(p[0] * n + j for j in p[1:]), _parity(p))
                 for p in permutations(range(n)))


def anchor_simplex(verts: Simplex, psi: Automorphism = DEFAULT_PSI
                   ) -> tuple[Simplex, int, GroupElem]:
    """(s, sign, g) with verts = g . s up to a reordering of sign `sign`:
    over every vertex order, translate the front vertex to (e, 0, depth)
    and keep the lex-least tuple s; g is the group element of the vertex
    moved to the front.  The vertices must be distinct.  This is the one
    canonical form of a pair (geodesic midpoints, combing paths) and of a
    triple (fillings, coinvariant keys).

    Only the relative elements of vertex 0 and vertex j touch the input
    words, and each cancels their common prefix before applying the
    psi-power (`words.gamma_rel`); the other anchorings are derived from
    these, which stay short even when the inputs are long.
    """
    n = len(verts)
    # rel[i * n + j]: vertex j anchored at vertex i
    rel: list = [None] * (n * n)
    for j in range(1, n):
        r = gamma_rel(verts[0].elem, verts[j].elem, psi)
        rel[j] = r
        rel[j * n] = gamma_inv(r, psi)
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                rel[i * n + j] = gamma_mul(rel[i * n], rel[j], psi)
    keys = rel[:]
    for ij, e in enumerate(rel):
        if e is not None:
            v = rel[ij] = Vertex(e.base, e.texp, verts[ij % n].depth)
            keys[ij] = vertex_key(v)
    best_key = best = None
    for i, others, sign in _orders(n):
        # the front vertex is (e, 0, depth): its depth is its whole key
        key = (verts[i].depth, *[keys[x] for x in others])
        if best_key is None or key < best_key:
            best_key, best = key, (i, others, sign)
    i, others, sign = best
    canon = (Vertex("", 0, verts[i].depth), *[rel[x] for x in others])
    return canon, sign, verts[i].elem


class CuspedGraph:
    """Adjacency, capped exact distances and geodesic midpoints.

    Queries are anchored: a pair (u, v) is translated so the first vertex's
    group element becomes the identity before searching, which keeps words
    short and makes every answer equivariant by construction.  Anchoring
    cancels the common prefix of the two base words before applying the
    psi-power (`words.gamma_rel`), so only the short relative word is
    twisted.

    `_dist_cache` is keyed by the ordered pair (depth(u), v anchored at u),
    which costs one relative word per query.  It maps the key to (d, True)
    once the distance d is known, or to (c, False) once a search at cap c
    has failed, i.e. d > c; a search writes its answer under both
    orientations, so d(v, u) after d(u, v) never searches.

    `_geo_cache` is keyed by the canonical pair `anchor_simplex((u, v))`
    and holds the midpoint of that pair only, never a whole path.
    """

    GENERATOR_WORDS = ("a", "A", "b", "B", COMM, COMM_INV)

    def __init__(self, psi: Automorphism = DEFAULT_PSI, depth_cap: int = 12,
                 distance_cap: int = 24):
        self.psi = psi
        self.depth_cap = depth_cap
        self.distance_cap = distance_cap
        self._dist_cache: dict[tuple, tuple[int, bool]] = {}
        self._geo_cache: dict[Simplex, Vertex] = {}
        self._twisted_gen_cache: dict[int, tuple[str, ...]] = {}

    # -- group action -------------------------------------------------

    def left_mul(self, g: GroupElem, v: Vertex) -> Vertex:
        h = gamma_mul(g, v.elem, self.psi)
        return Vertex(h.base, h.texp, v.depth)

    def anchor(self, u: Vertex, v: Vertex) -> Vertex:
        """v in the coordinates that move u to (e, depth(u))."""
        rel = gamma_rel(u.elem, v.elem, self.psi)
        return Vertex(rel.base, rel.texp, v.depth)

    # -- adjacency -----------------------------------------------------

    def neighbors(self, v: Vertex) -> list[Vertex]:
        if v.depth > self.depth_cap:
            raise DegreeOverflow(
                f"depth {v.depth} exceeds cap {self.depth_cap}")
        out: set[Vertex] = set()
        if v.depth == 0:
            twisted = self._twisted_gen_cache.get(v.texp)
            if twisted is None:
                twisted = tuple(self.psi.apply(w, v.texp)
                                for w in self.GENERATOR_WORDS)
                self._twisted_gen_cache[v.texp] = twisted
            for w in twisted:
                out.add(Vertex(mul(v.base, w), v.texp, 0))
            out.add(Vertex(v.base, v.texp + 1, 0))
            out.add(Vertex(v.base, v.texp - 1, 0))
            out.add(Vertex(v.base, v.texp, 1))
        else:
            out.add(Vertex(v.base, v.texp, v.depth + 1))
            out.add(Vertex(v.base, v.texp, v.depth - 1))
            reach = 2 ** v.depth
            for alpha in range(-reach, reach + 1):
                # [a,b] is cyclically reduced, so its powers are repeats
                word = mul(v.base, (COMM if alpha > 0 else COMM_INV)
                           * abs(alpha))
                bmax = reach - abs(alpha)
                for beta in range(-bmax, bmax + 1):
                    if alpha == 0 and beta == 0:
                        continue
                    out.add(Vertex(word, v.texp + beta, v.depth))
        out.discard(v)
        return sorted(out, key=vertex_key)

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        return self._adjacent_anchored(u.depth, self.anchor(u, v))

    def _adjacent_anchored(self, depth: int, va: Vertex) -> bool:
        """Adjacency of (e, 0, depth) and the anchored vertex va."""
        if not va.base and not va.texp:
            return abs(depth - va.depth) == 1
        if depth != va.depth:
            return False
        try:
            hc = words.h_coord(va.elem)
        except ValueError:
            hc = None
        if hc is not None:
            dist = abs(hc.alpha) + abs(hc.beta)
            return 0 < dist <= 2 ** depth
        if depth == 0:
            return va.texp == 0 and va.base in self.GENERATOR_WORDS
        return False

    # -- distances -----------------------------------------------------

    def distance(self, u: Vertex, v: Vertex, cap: int | None = None) -> int:
        """Exact graph distance, or CapExceeded if it exceeds the cap."""
        if cap is None:
            cap = self.distance_cap
        if u == v:
            return 0
        va = self.anchor(u, v)
        if self._adjacent_anchored(u.depth, va):
            return 1
        if cap < 2:
            raise CapExceeded(f"d({u},{v}) > {cap}")
        key = (u.depth, va)
        hit = self._dist_cache.get(key)
        if hit is not None:
            bound, exact = hit
            if exact:
                if bound <= cap:
                    return bound
                raise CapExceeded(f"d({u},{v}) = {bound} > {cap}")
            if cap <= bound:
                raise CapExceeded(f"d({u},{v}) > {bound} >= {cap}")
        ub = self._peripheral_upper_bound(u.depth, va)
        search_cap = cap if ub is None else min(cap, ub)
        d = self._bidirectional(Vertex("", 0, u.depth), va, search_cap)
        ua = gamma_inv(va.elem, self.psi)
        fact = (search_cap, False) if d is None else (d, True)
        self._dist_cache[key] = fact
        self._dist_cache[(v.depth, Vertex(ua.base, ua.texp, u.depth))] = fact
        if d is None:
            raise CapExceeded(f"d({u},{v}) > {cap}")
        return d

    def _peripheral_upper_bound(self, n1: int, va: Vertex) -> int | None:
        """Length of an explicit path inside one horoball to an anchored
        peripheral vertex; a valid cap for the exact search (descend, take
        ceil(load / 2^level) horizontal steps, ascend)."""
        try:
            hc = words.h_coord(va.elem)
        except ValueError:
            return None
        load = abs(hc.alpha) + abs(hc.beta)
        n2 = va.depth
        if load == 0:
            return abs(n1 - n2)
        top = max(n1, n2)
        if top > self.depth_cap:
            raise DegreeOverflow(f"depth {top} exceeds cap {self.depth_cap}")
        deepest = min(max(top, load.bit_length()), self.depth_cap)
        return min((lvl - n1) + (lvl - n2) + -(-load // 2 ** lvl)
                   for lvl in range(top, deepest + 1))

    def distance_at_most(self, u: Vertex, v: Vertex, bound: int) -> bool:
        try:
            return self.distance(u, v, bound) <= bound
        except CapExceeded:
            return False

    def _bidirectional(self, src: Vertex, dst: Vertex, cap: int) -> int | None:
        # a path of length <= cap between the endpoints never dips deeper
        # than this; pruning avoids the exponential horoball fan-out
        max_depth = (cap + src.depth + dst.depth) // 2
        dist_s = {src: 0}
        dist_t = {dst: 0}
        frontier_s, frontier_t = [src], [dst]
        rs = rt = 0
        while frontier_s and frontier_t and rs + rt < cap:
            # expand the smaller side
            if len(frontier_s) <= len(frontier_t):
                frontier_s, rs = self._expand(frontier_s, dist_s, rs,
                                              max_depth)
                near, far = dist_s, dist_t
            else:
                frontier_t, rt = self._expand(frontier_t, dist_t, rt,
                                              max_depth)
                near, far = dist_t, dist_s
            best = None
            for w in (frontier_s if near is dist_s else frontier_t):
                if w in far:
                    total = near[w] + far[w]
                    if best is None or total < best:
                        best = total
            if best is not None:
                return best if best <= cap else None
        return None

    def _expand(self, frontier: list[Vertex], dist: dict[Vertex, int],
                radius: int,
                max_depth: int | None = None) -> tuple[list[Vertex], int]:
        nxt = []
        for v in frontier:
            for w in self.neighbors(v):
                if max_depth is not None and w.depth > max_depth:
                    continue
                if w not in dist:
                    dist[w] = radius + 1
                    nxt.append(w)
        return nxt, radius + 1

    def ball(self, center: Vertex, radius: int,
             max_depth: int | None = None) -> dict[Vertex, int]:
        """All vertices within the radius, with their distances."""
        dist = {center: 0}
        frontier = [center]
        for r in range(radius):
            frontier, _ = self._expand(frontier, dist, r, max_depth)
        return dist

    # -- geodesic midpoints ---------------------------------------------

    def _meet_point(self, src: Vertex, dst: Vertex, d: int) -> Vertex:
        half = (d + 1) // 2
        max_depth = (d + src.depth + dst.depth) // 2
        dist_s = self.ball(src, half, max_depth)
        dist_t = self.ball(dst, d - half, max_depth)
        meets = [w for w, r in dist_s.items()
                 if r + dist_t.get(w, d + 1) == d and w not in (src, dst)]
        if not meets:  # endpoints adjacent handled by caller
            raise CapExceeded(f"no meet point between {src} and {dst}")
        return min(meets, key=vertex_key)

    def geodesic_midpoint(self, u: Vertex, v: Vertex) -> Vertex:
        """A vertex m on a geodesic between u and v, at distance ceil(d/2)
        from the front vertex of the canonical pair `anchor_simplex((u,
        v))` (its far endpoint when d = 1; u itself when u = v).  A function
        of the unordered pair, and equivariant: it is computed on the
        canonical pair and translated back."""
        if u == v:
            return u
        canon, _, g = anchor_simplex((u, v), self.psi)
        mid = self._geo_cache.get(canon)
        if mid is None:
            src, dst = canon
            d = self.distance(src, dst)
            mid = dst if d == 1 else self._meet_point(src, dst, d)
            self._geo_cache[canon] = mid
        return self.left_mul(g, mid)

    # -- hyperbolicity probe --------------------------------------------

    def estimate_delta(self, sample_size: int, radius: int,
                       seed: int) -> tuple[Fraction, int]:
        """(delta, skipped): the empirical max of the four-point
        hyperbolicity defect over seeded random quadruples within the radius
        of the basepoint, and the number of quadruples left out because one
        of their distances exceeds the distance cap."""
        rng = random.Random(seed)
        best = Fraction(0)
        skipped = 0
        for _ in range(sample_size):
            quad = [self._random_vertex(rng, radius) for _ in range(4)]
            try:
                d = {(i, j): self.distance(quad[i], quad[j])
                     for i in range(4) for j in range(i + 1, 4)}
            except CapExceeded:
                skipped += 1
                continue
            sums = sorted((d[(0, 1)] + d[(2, 3)],
                           d[(0, 2)] + d[(1, 3)],
                           d[(0, 3)] + d[(1, 2)]))
            best = max(best, Fraction(sums[2] - sums[1], 2))
        return best, skipped

    def _random_vertex(self, rng: random.Random, steps: int) -> Vertex:
        v = BASEPOINT
        for _ in range(rng.randrange(steps + 1)):
            nbrs = self.neighbors(v)
            v = nbrs[rng.randrange(len(nbrs))]
        return v


def random_gamma0_word(rng: random.Random, max_len: int) -> str:
    """Seeded random reduced word in F(a,b) of length at most max_len."""
    out: list[str] = []
    for _ in range(rng.randrange(max_len + 1)):
        choices = [x for x in words.LETTERS
                   if not out or x != out[-1].swapcase()]
        out.append(rng.choice(choices))
    return "".join(out)
