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
from typing import NamedTuple

from . import words
from .errors import CapExceeded, DegreeOverflow
from .words import (Automorphism, DEFAULT_PSI, GroupElem, format_word,
                    gamma_mul, gamma_rel, mul, parse_word, word_pow)


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
    return Vertex(parse_word(word), int(k) if k else 0, int(depth))


def vertex_key(v: Vertex):
    """Global total order: depth, base length, base lex, t-exponent."""
    return (v.depth, len(v.base), v.base, v.texp)


_COMM_POWERS: dict[int, str] = {}


def _comm_pow(alpha: int) -> str:
    w = _COMM_POWERS.get(alpha)
    if w is None:
        w = word_pow(words.COMM, alpha)
        _COMM_POWERS[alpha] = w
    return w


class CuspedGraph:
    """Adjacency, capped exact distances and canonical geodesics.

    Queries are anchored: a pair (u, v) is translated so the first vertex's
    group element becomes the identity before searching, which keeps words
    short and makes every answer equivariant by construction.  Anchoring
    cancels the common prefix of the two base words before applying the
    psi-power (`words.gamma_rel`), so only the short relative word is
    twisted.

    `_dist_cache` maps an anchored pair (depth(u), anchored v) to
    (d, True) once the distance d is known, or to (c, False) once a search
    at cap c has failed, i.e. d > c.
    """

    GENERATOR_WORDS = ("a", "A", "b", "B", words.COMM, words.inv(words.COMM))

    def __init__(self, psi: Automorphism = DEFAULT_PSI, depth_cap: int = 12,
                 distance_cap: int = 24):
        self.psi = psi
        self.depth_cap = depth_cap
        self.distance_cap = distance_cap
        self._dist_cache: dict[tuple, tuple[int, bool]] = {}
        self._geo_cache: dict[tuple, list[Vertex]] = {}
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
                word = mul(v.base, _comm_pow(alpha))
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
        if d is None:
            self._dist_cache[key] = (search_cap, False)
            raise CapExceeded(f"d({u},{v}) > {cap}")
        self._dist_cache[key] = (d, True)
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

    # -- canonical geodesics --------------------------------------------

    def canonical_geodesic(self, u: Vertex, v: Vertex) -> list[Vertex]:
        """A deterministic geodesic vertex path from u to v.  Equivariant
        (computed on the anchored pair) and antisymmetric (the reverse pair
        yields the reversed path)."""
        src, path, flipped = self._oriented_geodesic(u, v)
        out = [self.left_mul(src.elem, w) for w in path]
        return out[::-1] if flipped else out

    def _oriented_geodesic(self, u: Vertex, v: Vertex
                           ) -> tuple[Vertex, list[Vertex], bool]:
        """(src, path, flipped): the unordered pair's canonical geodesic,
        read from the endpoint src whose (depth, anchored other endpoint) is
        least, in the coordinates anchored at src; flipped says src is v."""
        if u == v:
            return u, [Vertex("", 0, u.depth)], False
        va, ua = self.anchor(u, v), self.anchor(v, u)
        flipped = (v.depth, vertex_key(ua)) < (u.depth, vertex_key(va))
        if flipped:
            u, va = v, ua
        key = (u.depth, va)
        path = self._geo_cache.get(key)
        if path is None:
            path = self._geodesic_anchored(Vertex("", 0, u.depth), va)
            self._geo_cache[key] = path
        return u, path, flipped

    def _geodesic_anchored(self, src: Vertex, dst: Vertex) -> list[Vertex]:
        d = self.distance(src, dst)
        if d == 1:
            return [src, dst]
        mid = self._meet_point(src, dst, d)
        left = self._geodesic_anchored(src, mid) if mid != src else [src]
        right = self._geodesic_anchored(mid, dst) if mid != dst else [dst]
        return left[:-1] + [mid] + right[1:]

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
        """Midpoint of the canonical geodesic; a function of the unordered
        pair (the path is read in its canonical orientation)."""
        src, path, _ = self._oriented_geodesic(u, v)
        return self.left_mul(src.elem, path[len(path) // 2])

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
