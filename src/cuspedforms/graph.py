"""The cusped graph of the pair (G, Z^2): Cayley graph of the free-by-cyclic
group with a combinatorial horoball glued along every left coset of the
peripheral subgroup <[a,b], t>.

Vertices are triples (base, texp, depth).  Horizontal horoball edges at depth
n join vertices of the same coset at peripheral l1-distance at most 2^n;
vertical edges change the depth by one.

A coset g<[a,b], t> is named by its key, the (length, lex)-least word of
base * <[a,b]>, and its vertices by lattice points (alpha, beta) with
g = key [a,b]^alpha t^beta (`words.coset_key`).  The distance search
decides every distance, d = 1 included.  It crosses a horoball in closed
form, `horoball_distance`, and lists no vertex of depth >= 1; `neighbors`
and `ball` enumerate them, for walks, LP windows and the source half of a
geodesic midpoint.

The shadow is a lower bound on the distance that needs no word and no
search.  Gamma / gamma_3(F) = H x| Z, H the Heisenberg group
(`words.Heisenberg`), keeps the peripheral Z^2 = <c, t>, and the map onto
its cusped graph (Groves-Manning) sends every edge to an edge, so it is
1-Lipschitz.  `shadow` is a vertex's image and `shadow_at_most` decides the
quotient distance.  Gamma and the quotient are two instances of one
`_Metric`, which owns the search, its facts and the source half kept per
source depth; each group supplies its letter step, its lattice points and
its inverse.

A simplex is anchored by translating one vertex to (e, 0, depth), over
every vertex order, and keeping the lex-least result (`anchor_simplex`).
The translates come from one table of relative elements per vertex tuple
(`relative_table`), and one order search reads any face of the tuple off
it (`anchor_face`), so the four faces of a 4-tuple cost one table.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, lru_cache
from itertools import permutations
from typing import NamedTuple

from . import words
from .errors import CapExceeded, DegreeOverflow
from .words import (COMM, COMM_INV, Automorphism, DEFAULT_PSI, GroupElem,
                    Heisenberg, coset_key, format_word, gamma_inv, gamma_mul,
                    gamma_rel, heis_image, mul, parse_word)


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
#: most horoball neighbours `neighbors` lists; one more raises
#: DegreeOverflow.  A depth-n vertex has 2R(R + 1) of them, R = 2^n, so this
#: stops depth 8: 131,584 neighbours, where depth 7 has 33,024.
MAX_NEIGHBORS = 2 ** 16
#: most neighbours one `ball` may list, summed over its layers; a ball that
#: would list more raises DegreeOverflow before listing the layer.  Ten
#: times the largest listing of the test suite and the benchmark workloads
#: (394,835, for a geodesic midpoint's source ball).
BALL_LISTING_MAX = 2 ** 22


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


def key_vertex(key: tuple) -> Vertex:
    """The vertex of a `vertex_key`."""
    depth, _, base, texp = key
    return Vertex(base, texp, depth)


Simplex = tuple[Vertex, ...]


def sort_with_sign(keys) -> tuple[list[int], int]:
    """(order, sign): the positions of `keys` in increasing order and the
    sign of that permutation, 0 if two keys are equal; the one sign rule."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    inversions = sum(p > q for i, p in enumerate(order) for q in order[i + 1:])
    return order, (-1) ** inversions if len(set(keys)) == len(keys) else 0


@cache
def _orders(n: int, face: tuple[int, ...]
            ) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Every vertex order of the face at the increasing positions `face` of
    an n-tuple, as (front position i, table indices i * n + j of the other
    positions j in order, sign of the order within the face)."""
    return tuple((p[0], tuple(p[0] * n + j for j in p[1:]),
                  sort_with_sign(p)[1]) for p in permutations(face))


def relative_table(verts: Simplex, psi: Automorphism,
                   rows: list[int] | None = None) -> list:
    """The `vertex_key` of vertex j anchored at vertex i, the vertex
    (g_i^-1 g_j, depth of j), at index i * n + j of a list, for every
    ordered pair i != j of the n vertices, or only for i = 0 and the rows i
    that `rows` lists; None elsewhere.  Only the n - 1 relative elements of
    vertex 0 and vertex j touch the input words, each through
    `words.gamma_rel`, which cancels their common prefix before applying
    the psi-power; the other entries are derived from these, which stay
    short even when the inputs are long: an inverse and n - 2 products per
    further row."""
    n = len(verts)
    rel: list = [None] * (n * n)
    for j in range(1, n):
        rel[j] = gamma_rel(verts[0], verts[j], psi)
    for i in range(1, n) if rows is None else rows:
        if i:
            back = rel[i * n] = gamma_inv(rel[i], psi)
            for j in range(1, n):
                if i != j:
                    rel[i * n + j] = gamma_mul(back, rel[j], psi)
    # vertex_key of Vertex(e.base, e.texp, depth of j), without the vertex
    return [None if e is None else
            (verts[ij % n].depth, len(e.base), e.base, e.texp)
            for ij, e in enumerate(rel)]


def anchor_face(verts: Simplex, table: list,
                face: tuple[int, ...]) -> tuple[Simplex, int, GroupElem]:
    """`anchor_simplex` of the vertices at the increasing positions `face`
    of `verts`, read off their `relative_table`: no group operation.  The
    face's vertices must be distinct."""
    best_key = best = None
    for i, others, sign in _orders(len(verts), face):
        # the front vertex is (e, 0, depth): its depth is its whole key
        key = (verts[i].depth, *[table[x] for x in others])
        if best_key is None or key < best_key:
            best_key, best = key, (i, sign)
    i, sign = best
    canon = (Vertex("", 0, best_key[0]), *map(key_vertex, best_key[1:]))
    return canon, sign, verts[i].elem


def anchor_simplex(verts: Simplex, psi: Automorphism
                   ) -> tuple[Simplex, int, GroupElem]:
    """(s, sign, g) with verts = g . s up to a reordering of sign `sign`:
    over every vertex order, translate the front vertex to (e, 0, depth)
    and keep the lex-least tuple s; g is the group element of the vertex
    moved to the front.  The vertices must be distinct.  This is the one
    canonical form of a pair (geodesic midpoints) and of a triple
    (fillings, coinvariant keys).

    It is `anchor_face` of all the vertices, read off their
    `relative_table`.  `QuasiCocycle` calls `anchor_face` itself: it builds
    one table of a triple or 4-tuple and reads every face off it.
    """
    return anchor_face(verts, relative_table(verts, psi),
                       tuple(range(len(verts))))


def anchor_cycle(terms: dict[Simplex, Fraction], extra, psi: Automorphism
                 ) -> tuple[tuple, GroupElem]:
    """(key, g) with the chain `terms` and the vertex set `extra` equal to
    g . (the chain and set the key lists).  The seeds are the vertices of
    the terms and of `extra`; over every seed of least depth, translate
    the seeds so that it is (e, 0, depth) and key the result as (the terms
    as sorted (vertex-key tuple, coefficient) pairs, each simplex in
    vertex order, the sorted vertex keys of `extra`); keep the lex-least
    key, and g is the group element of its seed.  Gamma acts freely on
    vertices and is torsion-free, so no two seeds give the same key.

    The translates are the rows of the seeds' `relative_table`, built for
    the seeds of least depth only."""
    extra = tuple(extra)
    seeds = sorted({v for sx in terms for v in sx}.union(extra),
                   key=vertex_key)
    n, low = len(seeds), seeds[0].depth
    pos = {v: i for i, v in enumerate(seeds)}
    fronts = [i for i, v in enumerate(seeds) if v.depth == low]
    table = relative_table(seeds, psi, fronts)
    best_key = best = None
    for c in fronts:
        moved = table[c * n:(c + 1) * n]
        moved[c] = (low, 0, "", 0)
        cyc = []
        for sx, coeff in terms.items():
            ks = [moved[pos[v]] for v in sx]
            order, sign = sort_with_sign(ks)
            cyc.append((tuple(ks[i] for i in order), sign * coeff))
        key = (tuple(sorted(cyc)),
               tuple(sorted(moved[pos[v]] for v in extra)))
        if best_key is None or key < best_key:
            best_key, best = key, c
    return best_key, seeds[best].elem


@lru_cache(maxsize=4096)
def horoball_distance(load: int, n1: int, n2: int) -> int:
    """Distance inside one horoball between its vertices at depths n1 and
    n2 whose lattice points are `load` apart in l1: a geodesic descends to
    some level, takes ceil(load / 2^level) horizontal steps there and
    ascends (Groves-Manning, Dehn filling in relatively hyperbolic groups,
    section 3).  Levels run from max(n1, n2); past load.bit_length() one
    step suffices, so deeper levels only cost more.  The ceiling is a
    shift, -(-load >> lvl), so a level of any depth builds no 2^lvl."""
    top = max(n1, n2)
    return min((lvl - n1) + (lvl - n2) + -(-load >> lvl)
               for lvl in range(top, max(top, load.bit_length()) + 1))


def _reach(depth: int, k: int) -> int:
    """The largest load with horoball_distance(load, depth, 0) <= k, or -1:
    at level lvl <= (k + depth) / 2, k + depth - 2 lvl steps of 2^lvl."""
    return max((2 ** lvl * (k + depth - 2 * lvl)
                for lvl in range(depth, (k + depth) // 2 + 1)), default=-1)


@lru_cache(maxsize=256)
def _ring(depth: int, k: int) -> tuple[tuple[int, int], ...]:
    """Lattice offsets of the depth-0 points at horoball distance exactly
    k from a vertex at the given depth: an l1 annulus."""
    lo, hi = _reach(depth, k - 1) + 1, _reach(depth, k)
    out = []
    for da in range(-hi, hi + 1):
        for b in range(max(lo - abs(da), 0), hi - abs(da) + 1):
            out.append((da, b))
            if b:
                out.append((da, -b))
    return tuple(out)


@lru_cache(maxsize=256)
def _ring_size(depth: int, k: int) -> int:
    """len(_ring(depth, k)), without listing the ring: the l1 ball of
    radius R holds 2R(R + 1) + 1 lattice points."""
    def ball(radius: int) -> int:
        return 2 * radius * (radius + 1) + 1 if radius >= 0 else 0
    return ball(_reach(depth, k)) - ball(_reach(depth, k - 1))


class _Side:
    """One side of a `_Metric` search, in Gamma or in its Heisenberg
    quotient: its radius, the depth-0 vertices within it as lattice points
    (coset key, alpha, beta) with their distances, the coset entries
    (alpha, beta, depth, r) by key, and the lattice points of the last
    layer.  `shapes` counts the entries by (depth, r), which fixes their
    rings in the next layer, and `cost` is the points the next layer
    generates: four edges per vertex of the last layer, and the ring of
    every entry.  Every point is an entry or on the ring of one, at exactly
    its distance."""

    def __init__(self, key, alpha: int, beta: int, depth: int):
        p = (key, alpha, beta)
        self.radius = 0
        self.entries = {key: [(alpha, beta, depth, 0)]}
        self.shapes = {(depth, 0): 1}
        self.dist = {p: 0} if depth == 0 else {}
        self.frontier = [p] if depth == 0 else []
        self.cost = 4 * len(self.frontier) + _ring_size(depth, 1)

    def via(self, key, alpha: int, beta: int, depth: int, r: int,
            best: int | None) -> int | None:
        """The least of `best` and the paths from the point (key, alpha,
        beta) at this depth, r from the other side, through its coset's
        horoball to an entry of this side."""
        for a2, b2, n2, r2 in self.entries.get(key, ()):
            c = r + r2 + horoball_distance(
                abs(alpha - a2) + abs(beta - b2), depth, n2)
            if best is None or c < best:
                best = c
        return best

    def grow(self, letters, far: _Side, best: int | None) -> int | None:
        """Add one layer; the least of `best` and the candidates from its
        new entries to the entries of `far`, which it reads only.  The
        rings are the horoball's and serve both groups; `letters` lists the
        lattice points (key, alpha, beta) of the four letter neighbours of
        each depth-0 point of a frontier, the one part that depends on the
        group."""
        r = self.radius + 1
        dist, entries = self.dist, self.entries
        layer = []
        for key, ents in entries.items():
            for alpha, beta, depth, r0 in ents:
                for da, db in _ring(depth, r - r0):
                    p = (key, alpha + da, beta + db)
                    if p not in dist:
                        dist[p] = r
                        layer.append(p)
        rings_end = len(layer)
        for p in letters(self.frontier):
            if p in dist:
                continue
            dist[p] = r
            layer.append(p)
            key, alpha, beta = p
            entries.setdefault(key, []).append((alpha, beta, 0, r))
            best = far.via(key, alpha, beta, 0, r, best)
        self.shapes[0, r] = len(layer) - rings_end
        self.frontier, self.radius = layer, r
        self.cost = 4 * len(layer) + sum(
            count * _ring_size(depth, r + 1 - r0)
            for (depth, r0), count in self.shapes.items())
        return best


class _Metric:
    """Capped exact distances in the cusped graph of one group, Gamma or its
    Heisenberg quotient: the one owner of their facts and shared sides.  A
    pair is asked anchored, as (n1, rel, n2): the first vertex moved to the
    origin at depth n1, the second to the element rel at depth n2.  The
    group supplies `origin`, the identity's coset key; `letters`, its
    letter step (`_Side.grow`); `point(rel)`, rel's lattice point (coset
    key, alpha, beta); and `inverse(rel)`, the first vertex anchored at the
    second.

    `facts` maps a pair to (d, True) once the distance d is known, or to
    (b, False) once a search at cap c has failed, having proved d > b >= c;
    a pair is searched again only when its fact is unproven and the cap is
    larger than b.  A search writes its fact under the reversed pair (n2,
    inverse(rel), n1) too, so d(v, u) after d(u, v) never searches.

    Every search starts at the origin, so `sides` keeps one source side per
    source depth and every search grows it further.  A side holds the exact
    distances of its source to the depth-0 points within its radius, a
    function of the source and radius alone (`_Side.grow` writes its own
    side only), so what an earlier query grew stays valid, and it can
    answer a query exactly past its cap."""

    def __init__(self, origin, letters, point, inverse):
        self.origin, self.letters = origin, letters
        self.point, self.inverse = point, inverse
        self.sides: dict[int, _Side] = {}
        self.facts: dict[tuple, tuple[int, bool]] = {}

    def fact(self, n1: int, rel, n2: int, cap: int) -> tuple[int, bool]:
        """The pair's fact: cached, or searched at `cap`."""
        key = (n1, rel, n2)
        fact = self.facts.get(key)
        if fact is None or (not fact[1] and cap > fact[0]):
            fact = self.facts[key] = self.search(n1, rel, n2, cap)
            self.facts[(n2, self.inverse(rel), n1)] = fact
        return fact

    def search(self, n1: int, rel, n2: int, cap: int) -> tuple[int, bool]:
        """The pair's fact at `cap`, without listing a vertex of depth >= 1.

        Each side grows by layers and holds the depth-0 vertices within its
        radius, as lattice points (coset key, alpha, beta), and per coset
        the entries (alpha, beta, depth, r): the depth-0 vertices first
        reached by an a/A/b/B edge, and the endpoint itself.  A path leaves
        a coset only by such an edge, so every other vertex of the coset is
        reached from an entry through the coset's horoball, at the cost
        `horoball_distance`; one layer adds the four non-peripheral edges
        of the last layer and, per entry, the ring of lattice points at
        exactly the new cost.  Candidates are the entry pairs of a shared
        coset, one entry per side: r + r' + h.  If d <= rs + rt, a geodesic
        has a deep stretch between two entries, or a depth-0 point p within
        both radii; each side reaches p from one of its entries at exactly
        its distance, and h obeys the triangle inequality through p, so
        that pair's candidate is at most d.  The least candidate is
        therefore exact once it is at most rs + rt; a search that stops
        short of that has proved d > rs + rt, which a grown shared side can
        put past the cap.

        It is exact too once it reaches a lower bound: the t-exponent and
        depth map the graph 1-Lipschitz onto the horoball over Z, so d >=
        `horoball_distance` of the t-exponent difference and the depths.
        That ends a search along t (e@0:0 to e@14:0, d = 8) at once, not
        one along [a,b], whose t-exponents agree, nor e@0:0 to a@12:0,
        whose sides raise PsiPowerCap first.

        The pair's side starts with one check of its endpoint against the
        entries of its coset in the source side; `grow` checks every later
        pair when its second entry arrives."""
        s = self.sides.get(n1)
        if s is None:
            s = self.sides[n1] = _Side(self.origin, 0, 0, n1)
        key, alpha, beta = self.point(rel)
        t = _Side(key, alpha, beta, n2)
        # the source's lattice point is (0, 0)
        low = horoball_distance(abs(beta), n1, n2)
        best = s.via(key, alpha, beta, n2, 0, None)
        while best is None or (best > s.radius + t.radius and best > low):
            if s.radius + t.radius >= cap:
                return s.radius + t.radius, False
            # grow the cheaper side: a deep entry's first ring can hold
            # millions of points while its side's last layer is one vertex
            if s.cost <= t.cost:
                best = s.grow(self.letters, t, best)
            else:
                best = t.grow(self.letters, s, best)
        return best, True


class CuspedGraph:
    """Neighbours, capped exact distances and geodesic midpoints.  The
    constructor refuses a cap that is not positive, and a psi that moves
    [a,b], the depth-0 horizontal edge at every t-exponent.

    Queries are anchored: a pair (u, v) is translated so the first vertex's
    group element becomes the identity before searching, which keeps words
    short and makes every answer equivariant by construction.  Anchoring
    cancels the common prefix of the two base words before applying the
    psi-power (`words.gamma_rel`), so only the short relative word is
    twisted.

    Distances in Gamma and in its Heisenberg quotient are the two
    instances of one `_Metric`, which owns their facts and shared sides:
    `_gamma` keys a pair by (depth(u), v anchored at u, depth(v)), at the
    cost of one relative word per query, and `_shadow` by the quotient's
    anchoring (`shadow_at_most`).  A query reads one fact (`distance_fact`),
    which never raises: `distance` raises CapExceeded from it, and
    `distance_at_most` only compares it with its bound.

    `_geo_cache` is keyed by the canonical pair `anchor_simplex((u, v))`
    and holds the midpoint of that pair only, never a whole path.  A
    midpoint lists the source ball only (`neighbors`, `ball`) and asks the
    distance search which vertex of its sphere is on a geodesic.
    """

    def __init__(self, psi: Automorphism = DEFAULT_PSI,
                 distance_cap: int = 24):
        if distance_cap <= 0:
            raise ValueError("distance_cap must be positive")
        if psi.apply_once(COMM) != COMM:
            raise ValueError("configured automorphism does not fix [a,b]")
        self.psi = psi
        self.distance_cap = distance_cap
        self._geo_cache: dict[Simplex, Vertex] = {}
        self._gamma = _Metric(
            "", self._letters, lambda g: (*coset_key(g.base), g.texp),
            lambda g: gamma_inv(g, psi))
        quotient = self._quotient = Heisenberg(psi)
        # (h, k)^-1 = (psibar^-k(h^-1), -k): `relative` of h and 1
        self._shadow = _Metric(
            (0, 0), self._shadow_letters,
            lambda h: ((h[0], h[1]), h[2], h[3]),
            lambda h: (*quotient.relative(h, (0, 0, 0), h[3]), -h[3]))

    # -- group action -------------------------------------------------

    def left_mul(self, g: GroupElem, v: Vertex) -> Vertex:
        h = gamma_mul(g, v.elem, self.psi)
        return Vertex(h.base, h.texp, v.depth)

    # -- adjacency -----------------------------------------------------

    def degree(self, v: Vertex) -> int:
        """How many neighbours `neighbors(v)` lists: 2R(R + 1) in v's
        horoball, R = 2^depth, and 2 vertical ones; at depth 0 one vertical
        one and the four letters, 9 in all.  DegreeOverflow above
        MAX_NEIGHBORS horoball neighbours; from the depth where R alone is
        above it, the count is neither built nor named, so any depth is
        refused at once."""
        if v.depth >= MAX_NEIGHBORS.bit_length():
            raise DegreeOverflow(f"depth {v.depth} has more than "
                                 f"{MAX_NEIGHBORS} neighbours")
        reach = 2 ** v.depth
        horizontal = 2 * reach * (reach + 1)
        if horizontal > MAX_NEIGHBORS:
            raise DegreeOverflow(f"depth {v.depth} has {horizontal} "
                                 f"neighbours, more than {MAX_NEIGHBORS}")
        return horizontal + (2 if v.depth else 5)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """v's neighbours in `vertex_key` order, `degree(v)` of them.  One
        rule gives the horizontal edges at every depth n: the lattice points
        of v's coset within l1-distance 2^n, [a,b]^+-1 and t^+-1 at n = 0.
        Depth 0 adds the four letters twisted by psi^texp; vertical edges go
        up, and down at n >= 1."""
        return sorted(self._neighbor_set(v), key=vertex_key)

    def _neighbor_set(self, v: Vertex) -> set[Vertex]:
        """v's neighbours, unsorted: what `neighbors` sorts and `ball`
        lists."""
        self.degree(v)
        reach = 2 ** v.depth
        out = {Vertex(v.base, v.texp, v.depth + 1)}
        if v.depth:
            out.add(Vertex(v.base, v.texp, v.depth - 1))
        else:
            for x in words.LETTERS:
                out.add(Vertex(mul(v.base, self.psi.apply(x, v.texp)),
                               v.texp, 0))
        for alpha in range(-reach, reach + 1):
            # psi fixes [a,b], which is cyclically reduced: powers repeat it
            word = mul(v.base, (COMM if alpha > 0 else COMM_INV)
                       * abs(alpha))
            bmax = reach - abs(alpha)
            out.update(Vertex(word, v.texp + beta, v.depth)
                       for beta in range(-bmax, bmax + 1))
        out.discard(v)
        return out

    # -- distances -----------------------------------------------------

    def distance(self, u: Vertex, v: Vertex, cap: int | None = None) -> int:
        """Exact graph distance, or CapExceeded if it exceeds the cap."""
        if cap is None:
            cap = self.distance_cap
        bound, exact = self.distance_fact(u, v, cap)
        if not exact:
            raise CapExceeded(f"d({u},{v}) > {bound}")
        # a grown shared side can answer past the cap; every search runs
        # to cap >= 1, so d <= 1 is returned at any cap
        if bound > max(cap, 1):
            raise CapExceeded(f"d({u},{v}) = {bound} > {cap}")
        return bound

    def distance_at_most(self, u: Vertex, v: Vertex, bound: int) -> bool:
        d, exact = self.distance_fact(u, v, bound)
        return exact and d <= bound

    def distance_fact(self, u: Vertex, v: Vertex, cap: int) -> tuple[int, bool]:
        """What a search at cap max(cap, 1) knows of d(u, v), without
        raising: (d, True) with the exact distance, which may exceed the
        cap, or (b, False) with the proven bound d > b >= max(cap, 1).
        Every fact but u = v, d = 1 included, comes from a `_Metric`
        search; lattice points are those of `coset_key`."""
        if u == v:
            return 0, True
        # v in the coordinates that move u to (e, 0, depth(u))
        return self._gamma.fact(u.depth, gamma_rel(u, v, self.psi), v.depth,
                                max(cap, 1))

    def _letters(self, frontier: list[tuple]) -> list[tuple]:
        """The lattice points (coset key, alpha, beta) of the four letter
        neighbours of each depth-0 vertex of `frontier`."""
        apply = self.psi.apply
        out = []
        for key, alpha, beta in frontier:
            base = mul(key, COMM * alpha if alpha >= 0
                       else COMM_INV * -alpha)
            for x in words.LETTERS:
                out.append((*coset_key(mul(base, apply(x, beta))), beta))
        return out

    # -- the Heisenberg shadow -------------------------------------------

    def shadow(self, v: Vertex) -> tuple[int, int, int, int, int]:
        """The image (x, y, z, texp, depth) of v in the cusped graph of the
        quotient Gamma / gamma_3(F) (`words.Heisenberg`), relative to <c,
        t>: the coset of (h, k) is keyed by (x, y) and its lattice point is
        (z, k).  The quotient map sends letter, horoball and vertical edges
        to edges, so it is 1-Lipschitz."""
        return (*heis_image(v.base), v.texp, v.depth)

    def shadow_at_most(self, a: tuple, b: tuple, bound: int) -> bool:
        """Whether the images a and b of two vertices (`shadow`) are at
        most `bound` apart in the quotient's cusped graph; False proves
        d(u, v) > bound without a word.  b is anchored at a, as (x, y, z,
        k) = (psibar^-k(h_a^-1 h_b), texp difference) with k = texp of a,
        and the search stops once its candidate is exact, so a query costs
        what its pair's distance does, whatever the bound."""
        rel = (*self._quotient.relative(a, b, a[3]), b[3] - a[3])
        d, exact = self._shadow.fact(a[4], rel, b[4], bound)
        return exact and d <= bound

    def _shadow_letters(self, frontier: list[tuple]) -> list[tuple]:
        """`_letters` in the quotient: (x, y, alpha) times psibar^beta of
        each letter."""
        power = self._quotient.power
        out = []
        for (x, y), alpha, beta in frontier:
            (p1, q1, r1), (p2, q2, r2) = power(beta)
            # psibar^beta of a, A, b, B; (p, q, r)^-1 = (-p, -q, pq - r)
            out += [((x + p, y + q), alpha + r + x * q, beta)
                    for p, q, r in ((p1, q1, r1), (-p1, -q1, p1 * q1 - r1),
                                    (p2, q2, r2), (-p2, -q2, p2 * q2 - r2))]
        return out

    def ball(self, center: Vertex, radius: int,
             max_depth: int | None = None) -> dict[Vertex, int]:
        """All vertices within the radius, with their distances, in no
        particular order.  Before it lists a layer, it adds up the `degree`
        of the layer's frontier, and raises DegreeOverflow if the running
        total would pass BALL_LISTING_MAX."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        dist = {center: 0}
        frontier = [center]
        listed = 0
        for r in range(1, radius + 1):
            listed += sum(map(self.degree, frontier))
            if listed > BALL_LISTING_MAX:
                raise DegreeOverflow(
                    f"the ball of radius {radius} about {center} would list "
                    f"{listed} neighbours by radius {r}, more than "
                    f"{BALL_LISTING_MAX}")
            nxt = []
            for v in frontier:
                for w in self._neighbor_set(v):
                    if max_depth is not None and w.depth > max_depth:
                        continue
                    if w not in dist:
                        dist[w] = r
                        nxt.append(w)
            frontier = nxt
        return dist

    # -- geodesic midpoints ---------------------------------------------

    def _meet_point(self, src: Vertex, dst: Vertex, d: int) -> Vertex:
        """The `vertex_key`-least vertex at distance ceil(d/2) from src and
        floor(d/2) from dst, for d = d(src, dst) >= 2.  An edge changes
        the depth by at most one, so every vertex of a geodesic has depth
        at most (d + depth(src) + depth(dst)) / 2 and the source ball is
        listed to that depth only.  Its sphere of radius ceil(d/2) holds
        every meet point, and the distance search tells which of its
        vertices are within floor(d/2) of dst: those are the meet points,
        by the triangle inequality."""
        half = (d + 1) // 2
        ball = self.ball(src, half, (d + src.depth + dst.depth) // 2)
        sphere = sorted((w for w, r in ball.items() if r == half),
                        key=vertex_key)
        return next(w for w in sphere
                    if self.distance_at_most(w, dst, d - half))

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
        if sample_size < 1:
            raise ValueError(f"sample size must be positive, got "
                             f"{sample_size}")
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
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
