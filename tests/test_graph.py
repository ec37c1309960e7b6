import ast
import importlib
import inspect
import pkgutil
import random
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuspedforms import graph as graph_module
from cuspedforms.errors import CapExceeded, DegreeOverflow, PsiPowerCap
from cuspedforms.graph import (CuspedGraph, Vertex, _Side, anchor_simplex,
                               horoball_distance, parse_vertex,
                               random_gamma0_word, sort_with_sign,
                               vertex_key)
from cuspedforms.quasicocycle import STRATA, sample_vertex
from cuspedforms.words import (COMM, DEFAULT_PSI, Automorphism, GroupElem,
                               coset_key, mul, reduce_word, word_pow)

from _oracles import (bfs_oracle, holonomy, meet_point_oracle,
                      permutation_sign_oracle, shadow_ball_oracle,
                      transit_oracle, zw_mat_mul)
from _pins import DELTAHAT, DELTA_RADIUS, DELTA_SAMPLES, DELTA_SEED


def test_parse_vertex_round_trip():
    v = parse_vertex("ABab@-2:3")
    assert v == Vertex("ABab", -2, 3)
    assert parse_vertex(str(v)) == v
    assert parse_vertex("e@0:0") == Vertex("", 0, 0)


def test_parse_vertex_rejects_negative_depth():
    with pytest.raises(ValueError, match="'e@0:-1' has a negative depth"):
        parse_vertex("e@0:-1")


@pytest.mark.parametrize("kwargs, message", [
    ({"psi": Automorphism({"a": "b", "b": "a"})}, r"does not fix \[a,b\]"),
    ({"distance_cap": 0}, "^distance_cap must be positive$"),
    ({"distance_cap": -1}, "^distance_cap must be positive$"),
])
def test_graph_refuses_what_its_methods_assume(kwargs, message):
    # the depth-0 horizontal edges are [a,b]^+-1 at every t-exponent, so a
    # psi that moves [a,b] would give a graph whose distances mean nothing
    with pytest.raises(ValueError, match=message):
        CuspedGraph(**kwargs)


def test_neighbors_symmetric(graph):
    rng = random.Random(8)
    for _ in range(60):
        v = Vertex(random_gamma0_word(rng, 4), rng.randrange(-2, 3),
                   rng.randrange(0, 3))
        for w in graph.neighbors(v):
            assert v in graph.neighbors(w)
            assert graph.distance(v, w, cap=0) == 1
            assert graph.distance(w, v, cap=0) == 1


def test_ball_of_radius_two_is_the_search_at_two():
    # the search alone decides adjacency: past v and its neighbours, every
    # vertex of the radius-2 ball is at distance exactly 2
    rng = random.Random(23)
    graph = CuspedGraph()
    for depth in (0, 0, 1, 1, 2, 3):
        v = Vertex(random_gamma0_word(rng, 3), rng.randrange(-2, 3), depth)
        near = {v, *graph.neighbors(v)}
        for w, r in graph.ball(v, 2).items():
            assert graph.distance(v, w) == (r if w in near else 2), (v, w)


def test_distance_fact_below_cap_two():
    # caps 0 and 1 search at cap 1: u = v, an adjacent pair and d = 4,
    # cold and once their facts are cached
    u, adj, far = Vertex("", 0, 0), Vertex("a", 0, 0), Vertex("abab", 0, 0)
    for cap in (0, 1):
        graph = CuspedGraph()
        for _ in range(2):
            assert graph.distance_fact(u, u, cap) == (0, True)
            assert graph.distance_fact(u, adj, cap) == (1, True)
            assert graph.distance_fact(adj, u, cap) == (1, True)
            assert graph.distance_fact(u, far, cap) == (1, False)
        assert graph.distance(u, far, cap=4) == 4
        assert graph.distance_fact(u, far, cap) == (4, True)
        assert graph.distance_fact(far, u, cap) == (4, True)


def test_adjacent_pair_searches_once(monkeypatch):
    # d = 1 comes from the search too, and is cached in both orientations
    graph = CuspedGraph()
    searches = []
    search = graph._bidirectional

    def spy(depth, dst, cap):
        searches.append(cap)
        return search(depth, dst, cap)

    monkeypatch.setattr(graph, "_bidirectional", spy)
    u, v = Vertex("bA", 1, 0), Vertex("bAba", 1, 0)
    assert graph.distance(u, v, cap=0) == 1
    assert searches == [1]
    for x, y in ((u, v), (v, u)):
        for cap in (0, 1, 5, None):
            assert graph.distance(x, y, cap) == 1
        assert graph.distance_at_most(x, y, 1)
        assert not graph.distance_at_most(x, y, 0)
    assert graph.geodesic_midpoint(v, u) == graph.geodesic_midpoint(u, v)
    assert searches == [1]


def test_pair_past_depth_cap_raises_even_when_adjacent():
    # past depth 7 only the listing raises: the search answers an edge of
    # any depth, vertical or horizontal, from its endpoints alone
    graph = CuspedGraph()
    top, deep = Vertex("", 0, 12), Vertex("", 0, 13)
    with pytest.raises(DegreeOverflow,
                       match="^depth 13 has 134234112 neighbours, more "
                             "than 65536$"):
        graph.neighbors(deep)
    for u, v in ((top, deep), (deep, top),
                 (deep, Vertex(COMM, 1, 13))):
        assert graph.distance(u, v) == 1
        assert graph.distance(v, u) == 1
        assert graph.distance_at_most(u, v, 1)
        assert not graph.distance_at_most(u, v, 0)


def test_depth0_vertex_degree(graph):
    # 4 letters, the radius-1 lattice fan ([a,b]^+-1, t^+-1) and 1 vertical
    # edge
    assert len(graph.neighbors(Vertex("", 0, 0))) == 9


def test_horoball_fan(graph):
    # depth n>0: vertical pair plus the |alpha|+|beta| <= 2^n lattice fan
    for n in (1, 2):
        reach = 2 ** n
        fan = sum(1 for a in range(-reach, reach + 1)
                  for b in range(-reach + abs(a), reach - abs(a) + 1)
                  if (a, b) != (0, 0))
        assert len(graph.neighbors(Vertex("", 0, n))) == fan + 2


def test_known_distances(graph):
    w2 = word_pow(COMM, 2)
    assert graph.distance(Vertex("", 0, 0), Vertex(w2, 0, 0)) == 2
    assert graph.distance(Vertex("", 0, 1), Vertex(w2, 0, 1)) == 1
    assert graph.distance(Vertex("", 0, 0), Vertex("", 0, 3)) == 3
    assert graph.distance(Vertex("", 0, 0), Vertex("ab", 0, 0)) == 2


def test_distance_matches_bfs_oracle(graph):
    rng = random.Random(9)
    base = Vertex("", 0, 0)
    for _ in range(25):
        dst = base
        for _ in range(rng.randrange(1, 4)):
            nbrs = graph.neighbors(dst)
            dst = nbrs[rng.randrange(len(nbrs))]
        assert graph.distance(base, dst) == bfs_oracle(graph, base, dst, 6)


def test_distance_symmetric_and_equivariant(graph):
    rng = random.Random(10)
    for _ in range(40):
        u = Vertex(random_gamma0_word(rng, 5), rng.randrange(-2, 3),
                   rng.randrange(0, 2))
        v = Vertex(random_gamma0_word(rng, 5), rng.randrange(-2, 3),
                   rng.randrange(0, 2))
        d = graph.distance(u, v)
        assert graph.distance(v, u) == d
        g = GroupElem(random_gamma0_word(rng, 4), rng.randrange(-2, 3))
        assert graph.distance(graph.left_mul(g, u), graph.left_mul(g, v)) == d


def test_triangle_inequality(graph):
    rng = random.Random(11)
    for _ in range(30):
        pts = [Vertex(random_gamma0_word(rng, 4), rng.randrange(-1, 2),
                      rng.randrange(0, 2)) for _ in range(3)]
        d01 = graph.distance(pts[0], pts[1])
        d12 = graph.distance(pts[1], pts[2])
        d02 = graph.distance(pts[0], pts[2])
        assert d02 <= d01 + d12


def test_distance_cap(graph):
    far = Vertex(word_pow("ab", 40), 0, 0)
    with pytest.raises(CapExceeded):
        graph.distance(Vertex("", 0, 0), far, cap=3)
    assert not graph.distance_at_most(Vertex("", 0, 0), far, 3)


def test_distance_at_most_matches_bfs_oracle():
    # one graph asked every pair at bounds 0, 1, ..., 4 in turn, so a pair
    # farther than a bound is asked again at a larger bound after its
    # capped miss; the oracle is a plain BFS on a fresh graph
    graph, fresh = CuspedGraph(), CuspedGraph()
    rng = random.Random(12)
    pairs = []
    for _ in range(24):
        u = Vertex(random_gamma0_word(rng, 4), rng.randrange(-2, 3),
                   rng.randrange(0, 2))
        v = u
        for _ in range(rng.randrange(2, 9)):
            nbrs = graph.neighbors(v)
            v = nbrs[rng.randrange(len(nbrs))]
        pairs += [(u, u), (u, graph.neighbors(u)[rng.randrange(4)]), (u, v)]
    u, v = Vertex("", 0, 0), Vertex("abab", 0, 0)
    pairs.append((u, v))
    # bounds 0 and 1 once more with every pair's fact cached
    for bound in (0, 1, 2, 3, 4, 0, 1):
        for x, y in pairs:
            want = bfs_oracle(fresh, x, y, bound) is not None
            assert graph.distance_at_most(x, y, bound) == want, (x, y, bound)
    # u = v and adjacent pairs are answered at any cap
    assert graph.distance(u, u, cap=0) == 0
    assert graph.distance(u, Vertex("a", 0, 0), cap=0) == 1
    # the search at bound 4 found d(u, v) = 4: caps 3 and 1 read that fact
    # and raise with the exact distance; a capped miss raises with its
    # proven bound
    with pytest.raises(CapExceeded, match=rf"^d\({u},{v}\) = 4 > 3$"):
        graph.distance(u, v, cap=3)
    with pytest.raises(CapExceeded, match=rf"^d\({u},{v}\) = 4 > 1$"):
        graph.distance(u, v, cap=1)
    far = Vertex(word_pow("ab", 40), 0, 0)
    with pytest.raises(CapExceeded, match=rf"^d\({u},{far}\) > 4$"):
        CuspedGraph().distance(u, far, cap=4)


def test_capped_miss_is_remembered(monkeypatch):
    # a failed search at cap c answers later queries of the same anchored
    # pair at caps <= c; a larger cap searches again
    graph = CuspedGraph()
    searches = []
    search = graph._bidirectional

    def spy(depth, dst, cap):
        searches.append(cap)
        return search(depth, dst, cap)

    monkeypatch.setattr(graph, "_bidirectional", spy)
    u, v = Vertex("", 0, 0), Vertex("abab", 0, 0)
    g = GroupElem("bA", 2)
    with pytest.raises(CapExceeded):
        graph.distance(u, v, cap=3)
    assert searches == [3]
    for x, y, cap in ((u, v, 3), (u, v, 2),
                      (graph.left_mul(g, u), graph.left_mul(g, v), 3)):
        with pytest.raises(CapExceeded):
            graph.distance(x, y, cap=cap)
        assert not graph.distance_at_most(x, y, cap)
    assert searches == [3]
    assert graph.distance(u, v, cap=6) == bfs_oracle(graph, u, v, 6) == 4
    assert searches == [3, 6]
    assert graph.distance_at_most(u, v, 4)
    assert not graph.distance_at_most(u, v, 3)
    assert searches == [3, 6]


@pytest.mark.parametrize("cap, known", [(6, True), (3, False)])
def test_reverse_distance_needs_no_search(monkeypatch, cap, known):
    # a search stores its answer under both orientations: d(v, u) after
    # d(u, v) is a cache hit, for a known distance and for a capped miss
    graph = CuspedGraph()
    searches = []
    search = graph._bidirectional

    def spy(depth, dst, cap):
        searches.append(cap)
        return search(depth, dst, cap)

    monkeypatch.setattr(graph, "_bidirectional", spy)
    u, v = Vertex("bA", 1, 0), Vertex("bAbababab", 0, 1)
    for x, y in ((u, v), (v, u)):
        if known:
            assert graph.distance(x, y, cap=cap) == 5
        else:
            with pytest.raises(CapExceeded):
                graph.distance(x, y, cap=cap)
    assert searches == [cap]


def test_deep_peripheral_query_past_depth_cap():
    # two points of one coset at depth 13, too deep to list: the search
    # answers their transit through the horoball, in closed form
    graph = CuspedGraph()
    d = graph.distance(Vertex("", 0, 13), Vertex(COMM * 9000, 0, 13))
    assert d == horoball_distance(9000, 13, 13) == 2


def test_neighbors_of_a_deep_vertex_raise_before_listing():
    # depth 7 lists 33,026 neighbours; depth 8 would list 131,586 and
    # depth 12 about 3 * 10^7, so both raise before building any
    graph = CuspedGraph()
    assert len(graph.neighbors(Vertex("", 0, 7))) == 2 * 128 * 129 + 2
    for depth in (8, 12):
        t0 = time.perf_counter()
        with pytest.raises(DegreeOverflow, match=f"^depth {depth} has "):
            graph.neighbors(Vertex("", 0, depth))
        assert time.perf_counter() - t0 < 0.1


def test_neighbors_at_large_t_exponent_raise():
    # the twisted generators at t^20 would be psi^20-words of about 10^8
    # letters; the word-length guard stops their construction at psi^15
    with pytest.raises(PsiPowerCap):
        CuspedGraph().neighbors(Vertex("", 20, 0))


def test_peripheral_shortcut_agrees_with_search(graph):
    # deep same-horoball queries are answered by the closed-form horoball
    # transit; check the answers against the plain BFS oracle
    for alpha, beta, n1, n2 in ((2, 0, 0, 0), (2, 1, 1, 1), (4, 0, 1, 0),
                                (3, 2, 2, 2), (0, 3, 1, 1)):
        u = Vertex("", 0, n1)
        v = Vertex(word_pow(COMM, alpha), beta, n2)
        assert graph.distance(u, v) == bfs_oracle(graph, u, v, 10)


def _capped(graph, u, v, cap):
    try:
        return graph.distance(u, v, cap)
    except CapExceeded:
        return None


def _checked_distance(graph, u, v, cap):
    """(the search's capped distance, the plain BFS oracle's), the oracle
    starting at the shallower endpoint, whose ball is the cheaper one."""
    src, dst = sorted((u, v), key=lambda w: w.depth)
    return _capped(graph, u, v, cap), bfs_oracle(graph, src, dst, cap)


def test_search_matches_bfs_oracle_in_one_coset():
    # u and v = u [a,b]^alpha t^beta lie in one coset; both at depth 0..3
    rng = random.Random(16)
    graph = CuspedGraph()
    for _ in range(40):
        u = Vertex(random_gamma0_word(rng, 3), rng.randrange(-1, 2),
                   rng.randrange(4))
        v = Vertex(mul(u.base, word_pow(COMM, rng.randrange(-8, 9))),
                   u.texp + rng.randrange(-3, 4), rng.randrange(4))
        d, oracle = _checked_distance(graph, u, v, 6)
        assert d == oracle, (u, v)


def test_search_matches_bfs_oracle_across_cosets():
    # v = u [a,b]^alpha x for a letter x, so v lies in another coset: u at
    # depth 0..3 must climb out of its horoball; v at depth 0 keeps the
    # oracle's ball affordable
    rng = random.Random(17)
    graph = CuspedGraph()
    for _ in range(20):
        u = Vertex(random_gamma0_word(rng, 3), rng.randrange(-1, 2),
                   rng.randrange(4))
        base = mul(mul(u.base, word_pow(COMM, rng.randrange(-2, 3))),
                   rng.choice("aAbB"))
        v = Vertex(base, u.texp + rng.randrange(-2, 3), 0)
        d, oracle = _checked_distance(graph, u, v, 6)
        assert d == oracle, (u, v)


@pytest.mark.parametrize("images", [None, {"a": "aba", "b": "ab"}],
                         ids=["default", "aba-ab"])
def test_shadow_distance_is_the_quotient_bfs(images):
    # the shadow is exact in the quotient: the bound one below the
    # distance is refused, and the cached "farther than d - 1" is asked
    # again at d, as one graph serves engines of different kappa
    graph = CuspedGraph(Automorphism(images) if images else DEFAULT_PSI)
    rng = random.Random(41)
    for depth, radius in ((0, 4), (0, 3), (1, 3), (2, 2), (3, 2)):
        v = Vertex(random_gamma0_word(rng, 6), rng.randrange(-3, 4), depth)
        center = graph.shadow(v)
        ball = shadow_ball_oracle(graph.psi, center, radius)
        for w, d in ball.items():
            assert not graph.shadow_at_most(center, w, d - 1), (v, w, d)
            assert graph.shadow_at_most(center, w, d), (v, w, d)


def test_shadow_cost_follows_the_pair_not_the_bound():
    # the quotient search stops once its candidate is exact, so a large
    # bound costs a near pair no more than a small one: the shared side
    # and the pair's side reach about half the pair's distance
    graph = CuspedGraph()
    rng = random.Random(12)
    for _ in range(20):
        u = Vertex(random_gamma0_word(rng, 4), rng.randrange(-2, 3), 0)
        v = rng.choice(graph.neighbors(u))
        assert graph.shadow_at_most(graph.shadow(u), graph.shadow(v), 40)
    assert [side.radius for side in graph._shadow_sides.values()] == [1]


@pytest.mark.parametrize("seed", [5, 6])
def test_shadow_facts_hold_in_both_orientations(seed):
    # a query caches its fact under the pair and under the pair reversed;
    # each cached key, asked again on a fresh graph, gets the same answer
    rng = random.Random(seed)
    graph = CuspedGraph()
    for idx in range(60):
        u = sample_vertex(rng, STRATA[idx % 3])._replace(
            depth=rng.randrange(3))
        v = Vertex(mul(u.base, random_gamma0_word(rng, 3)),
                   u.texp + rng.randrange(-2, 3), rng.randrange(2))
        graph.shadow_at_most(graph.shadow(u), graph.shadow(v), 3)
    assert len(graph._shadow_cache) > 60
    fresh = CuspedGraph()
    for (n1, x, y, z, k, n2), (d, exact) in graph._shadow_cache.items():
        assert fresh.shadow_at_most((0, 0, 0, 0, n1), (x, y, z, k, n2),
                                    3) == (exact and d <= 3)


def test_shadow_never_exceeds_the_distance():
    # the quotient map is 1-Lipschitz: d_shadow <= d on seeded pairs at
    # depths 0..3 and 0..1 (deeper pairs of two cosets reach PsiPowerCap),
    # with the plain BFS where its ball is small; the shadow rules out
    # pairs that the search finds far
    rng = random.Random(44)
    graph = CuspedGraph()
    ruled_out = 0
    for idx in range(150):
        u = sample_vertex(rng, STRATA[idx % 3])._replace(
            depth=rng.randrange(4))
        v = Vertex(mul(u.base, random_gamma0_word(rng, 3)),
                   u.texp + rng.randrange(-1, 2), rng.randrange(2))
        d = graph.distance(u, v)
        if d <= 3 and max(u.depth, v.depth) <= 2:
            assert _checked_distance(graph, u, v, d) == (d, d), (u, v)
        su, sv = graph.shadow(u), graph.shadow(v)
        assert graph.shadow_at_most(su, sv, d), (u, v, d)
        assert graph.shadow_at_most(sv, su, d), (u, v, d)
        ruled_out += d > 2 and not graph.shadow_at_most(su, sv, 2)
    assert ruled_out > 40


def test_distance_search_lists_no_vertex(monkeypatch):
    # the search keeps depth-0 lattice points only and crosses horoballs in
    # closed form: it never asks for the neighbours of a vertex
    graph = CuspedGraph()
    listed = []
    neighbors = graph.neighbors

    def spy(v):
        listed.append(v)
        return neighbors(v)

    monkeypatch.setattr(graph, "neighbors", spy)
    # values the explicit search of every horoball vertex gives as well
    pairs = [("e@0:0", "ABab" * 8 + "@0:0", 6), ("e@0:3", "ab@2:0", 7),
             ("bA@1:0", "bAbababab@0:1", 5), ("e@0:2", "BAbaa@-1:2", 7),
             ("Baab@1:0", "baaBB@-2:1", 11),
             # a generator edge (psi(a) = ba at t^1), a vertical edge and
             # a horoball edge ([a,b]^3 t at depth 2, l1 load 4)
             ("bA@1:0", "bAba@1:0", 1), ("Ba@-1:1", "Ba@-1:2", 1),
             ("e@0:2", COMM * 3 + "@1:2", 1)]
    for u, v, d in pairs:
        assert graph.distance(parse_vertex(u), parse_vertex(v)) == d
    assert listed == []


def test_exact_answer_above_the_cap_stays_exact(monkeypatch):
    # a shared side grown to radius 4 holds d(e, abab) = 4 and answers a
    # query at cap 3 at once: the answer is stored as exact, the query
    # raises, and a later query at a larger cap runs no search
    graph = CuspedGraph()
    u, v = Vertex("", 0, 0), Vertex("abab", 0, 0)
    assert graph.distance(u, parse_vertex("bAbababab@0:1")) == 8
    assert graph._sides[0].radius == 4
    searches = []
    search = graph._bidirectional

    def spy(depth, dst, cap):
        searches.append(cap)
        return search(depth, dst, cap)

    monkeypatch.setattr(graph, "_bidirectional", spy)
    with pytest.raises(CapExceeded, match=r"= 4 > 3"):
        graph.distance(u, v, cap=3)
    assert searches == [3]
    assert graph._dist_cache[(0, v)] == (4, True)
    assert not graph.distance_at_most(v, u, 3)
    assert graph.distance(u, v, cap=6) == graph.distance(v, u) == 4
    assert searches == [3]


def test_failed_search_keeps_its_proven_bound(monkeypatch):
    # a shared side grown to radius 4 gives up on a far vertex at cap 2
    # having proved d > 4, not just d > 2: queries at caps up to 4 run no
    # search, in either orientation, and only a larger cap searches again
    graph = CuspedGraph()
    u, far = Vertex("", 0, 0), Vertex(word_pow("ab", 40), 0, 0)
    assert graph.distance(u, parse_vertex("bAbababab@0:1")) == 8
    assert graph._sides[0].radius == 4
    searches = []
    search = graph._bidirectional

    def spy(depth, dst, cap):
        searches.append(cap)
        return search(depth, dst, cap)

    monkeypatch.setattr(graph, "_bidirectional", spy)
    with pytest.raises(CapExceeded, match=r"> 4$"):
        graph.distance(u, far, cap=2)
    assert searches == [2]
    assert graph._dist_cache[(0, far)] == (4, False)
    for cap in (2, 3, 4):
        assert not graph.distance_at_most(u, far, cap)
        assert not graph.distance_at_most(far, u, cap)
    assert searches == [2]
    with pytest.raises(CapExceeded, match=r"> 5$"):
        graph.distance(u, far, cap=5)
    assert searches == [2, 5]


def _seeded_queries(seed: int, count: int) -> list:
    """(u, v, cap): u at depth 0..4, v in u's coset or a few letters off
    it, at depth 0..4, caps 2..9; the first query has a deep endpoint and
    grows the shared depth-0 side to radius 4."""
    rng = random.Random(seed)
    queries = [(Vertex("", 0, 0), parse_vertex("bAbababab@0:1"), 9)]
    for _ in range(count - 1):
        u = Vertex(random_gamma0_word(rng, 3), rng.randrange(-1, 2),
                   rng.randrange(5))
        base = mul(u.base, word_pow(COMM, rng.randrange(-8, 9)))
        if rng.randrange(2):
            base = mul(base, random_gamma0_word(rng, 3))
        v = Vertex(base, u.texp + rng.randrange(-3, 4), rng.randrange(5))
        queries.append((u, v, rng.randrange(2, 10)))
    return queries


def test_shared_sides_answer_as_fresh_graphs():
    # one long-lived graph, whose shared sides every query grows, against a
    # fresh graph per query and, where its ball is small, the plain BFS
    graph = CuspedGraph()
    for u, v, cap in _seeded_queries(18, 500):
        d = _capped(graph, u, v, cap)
        assert d == _capped(CuspedGraph(), u, v, cap), (u, v, cap)
        if cap <= 5 and max(u.depth, v.depth) <= 2:
            assert _checked_distance(graph, u, v, cap) == (d, d), (u, v, cap)
    assert sorted(graph._sides) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("seed", [19, 20, 21])
def test_shared_side_is_the_side_grown_alone(seed):
    # a side depends on its source and radius only: after queries in any
    # order, each shared side equals a side grown alone to its radius
    queries = _seeded_queries(18, 120)
    random.Random(seed).shuffle(queries)
    graph = CuspedGraph()
    for u, v, cap in queries:
        _capped(graph, u, v, cap)
    assert min(side.radius for side in graph._sides.values()) >= 3
    for n, shared in graph._sides.items():
        alone = _Side("", 0, 0, n)
        far = _Side(*coset_key("ab"), 3, 0)
        while alone.radius < shared.radius:
            alone.grow(graph._letters, far, None)
        assert vars(alone) == vars(shared), n


def test_side_points_are_priced_by_their_entries():
    # why the search compares entries only: every point a side holds is
    # an entry, or on the ring of one of its coset, at exactly its distance
    graph = CuspedGraph()
    for u, v, cap in _seeded_queries(18, 120):
        _capped(graph, u, v, cap)
    for side in graph._sides.values():
        assert side.radius >= 3
        for (key, alpha, beta), r in side.dist.items():
            assert r == min(
                r0 + horoball_distance(abs(alpha - a0) + abs(beta - b0), n0, 0)
                for a0, b0, n0, r0 in side.entries[key])


def test_a_geodesic_descends_past_level_two():
    # a geodesic from e to [a,b]^32 descends to level 3: 3 + 4 + 3
    graph = CuspedGraph()
    assert graph.distance(Vertex("", 0, 0), Vertex(COMM * 32, 0, 0)) == 10


def test_a_search_along_t_ends_at_its_lower_bound():
    # the transit h(14, 0, 0) = 8 is a candidate at once and a lower bound
    # on d, so the search ends there; growing both sides until their radii
    # sum to d would raise PsiPowerCap
    origin = Vertex("", 0, 0)
    assert CuspedGraph().distance(origin, Vertex("", 14, 0)) == 8
    t0 = time.perf_counter()
    assert CuspedGraph().distance(origin, Vertex("", 12, 0)) == 7
    assert time.perf_counter() - t0 < 0.1


@settings(max_examples=150, deadline=None)
@given(st.text("aAbB", max_size=3), st.integers(-2, 2), st.integers(0, 2),
       st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=4))
def test_t_exponent_transit_never_exceeds_the_distance(base, texp, depth,
                                                       steps):
    # (g, n) -> (theta(g), n) is 1-Lipschitz onto the horoball over Z, so
    # the transit of the t-exponent difference is a lower bound on d; v is
    # a walk of at most four steps through depths <= 2
    graph = CuspedGraph()
    u = v = Vertex(reduce_word(base), texp, depth)
    for i in steps:
        nbrs = [w for w in graph.neighbors(v) if w.depth <= 2]
        v = nbrs[i % len(nbrs)]
    d = bfs_oracle(graph, u, v, len(steps))
    assert horoball_distance(abs(v.texp - u.texp), u.depth, v.depth) <= d
    assert graph.distance(u, v) == d


vertices = st.builds(lambda base, texp, depth: Vertex(reduce_word(base),
                                                      texp, depth),
                     st.text("aAbB", max_size=5), st.integers(-3, 3),
                     st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(vertices, min_size=2, max_size=4, unique=True))
def test_anchor_simplex_agrees_with_the_holonomy(verts):
    # g . s is the input up to order: rho(g) rho(s_i) runs over the rho of
    # the input vertices, depth by depth
    s, _, g = anchor_simplex(tuple(verts), CuspedGraph().psi)
    assert sorted((zw_mat_mul(holonomy(g), holonomy(w)), w.depth)
                  for w in s) == sorted((holonomy(v), v.depth)
                                        for v in verts)


#: every load with transit at most TRANSIT_K from depth <= 12 to depth 0
#: is below TRANSIT_LOADS: there the transit is at least 12
TRANSIT_K, TRANSIT_LOADS = 10, 2 ** 11


@cache
def _transits_to_depth_zero(depth: int) -> tuple[int, ...]:
    return tuple(transit_oracle(load, depth, 0)
                 for load in range(TRANSIT_LOADS + 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 20 - 1), st.integers(0, 12), st.integers(0, 12),
       st.integers(-1, TRANSIT_K))
def test_horoball_transit_matches_brute_force(load, n1, n2, k):
    assert horoball_distance(load, n1, n2) == transit_oracle(load, n1, n2)
    # the largest load within k of a depth-n1 vertex, and the lattice
    # points at exactly k, counted load by load: 4L points at l1 norm L > 0
    transits = _transits_to_depth_zero(n1)
    assert transits[-1] > TRANSIT_K
    assert graph_module._reach(n1, k) == max(
        (load for load, h in enumerate(transits) if h <= k), default=-1)
    assert graph_module._ring_size(n1, k) == sum(
        4 * load or 1 for load, h in enumerate(transits) if h == k)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 80 - 1), st.integers(0, 70), st.integers(0, 70))
def test_horoball_transit_is_the_floor_division_formula(load, n1, n2):
    # the ceiling is a shift in the code and a floor division in the oracle
    assert horoball_distance(load, n1, n2) == transit_oracle(load, n1, n2)


def test_a_transit_at_any_depth_costs_no_power_of_two():
    # the level 10^9 is the only one tried, and its ceiling is a shift
    t0 = time.perf_counter()
    assert horoball_distance(12345, 0, 10 ** 9 + 7) == 10 ** 9 + 8
    assert horoball_distance(2 ** 79, 10 ** 9, 10 ** 9) == 1
    assert time.perf_counter() - t0 < 0.1


def _package_functions() -> set:
    """Every function and method the package defines, with lru_cache and
    cache wrappers unwrapped."""
    import cuspedforms
    modules = [importlib.import_module(m.name) for m in
               pkgutil.iter_modules(cuspedforms.__path__, "cuspedforms.")]
    functions = set()
    for mod in modules:
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = ([f for _, f in inspect.getmembers(obj)]
                       if inspect.isclass(obj) else [obj])
            functions.update(
                f for f in map(inspect.unwrap, members)
                if inspect.isfunction(f) and f.__module__ == mod.__name__)
    return functions


#: refusals of what a constructor requires; each message is built in one
#: function only
PRECONDITIONS = ("does not fix [a,b]", "derived inverse does not invert psi",
                 "kappa must be at least 2")


def _defined_functions(tree):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def test_each_precondition_has_one_owner():
    # each constructor checks what its object requires: no class keeps a
    # separate check method to call after wiring, the config raises only
    # while parsing, and each refusal's message is built in one function
    import cuspedforms
    offenders, owners = [], {msg: [] for msg in PRECONDITIONS}
    for path in sorted(Path(cuspedforms.__file__).parent.glob("*.py")):
        stem = path.stem
        for name, fn in _defined_functions(ast.parse(path.read_text())):
            nodes = list(ast.walk(fn))
            if name.endswith(".check"):
                offenders.append(f"{stem}.{name} is a check method")
            if stem == "config" and any(
                    isinstance(n, ast.Attribute) and n.attr == "check"
                    for n in nodes):
                offenders.append(f"{stem}.{name} calls check")
            if stem == "config" and name not in (
                    "RunConfig.from_dict", "_parse_words") and any(
                    isinstance(n, ast.Raise) for n in nodes):
                offenders.append(f"{stem}.{name} raises")
            for msg, found in owners.items():
                if any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                       and msg in n.value for n in nodes):
                    found.append(f"{stem}.{name}")
    assert offenders == []
    assert {msg: len(found) for msg, found in owners.items()} == \
        dict.fromkeys(PRECONDITIONS, 1), owners


def test_ball_contains_sphere_counts(graph):
    ball = graph.ball(Vertex("", 0, 0), 2)
    by_r = {}
    for v, r in ball.items():
        by_r.setdefault(r, set()).add(v)
    assert by_r[0] == {Vertex("", 0, 0)}
    assert by_r[1] == set(graph.neighbors(Vertex("", 0, 0)))
    for v in by_r[2]:
        assert any(w in by_r[1] for w in graph.neighbors(v))


def test_midpoint_splits_the_distance(graph):
    rng = random.Random(12)
    for _ in range(20):
        u = Vertex(random_gamma0_word(rng, 4), 0, 0)
        v = Vertex(random_gamma0_word(rng, 4), rng.randrange(-1, 2), 0)
        d = graph.distance(u, v)
        m = graph.geodesic_midpoint(u, v)
        assert sorted((graph.distance(u, m), graph.distance(m, v))) == \
            sorted(((d + 1) // 2, d // 2))


def test_midpoint_unordered(graph):
    rng = random.Random(13)
    for _ in range(20):
        u = Vertex(random_gamma0_word(rng, 4), 0, 0)
        v = Vertex(random_gamma0_word(rng, 4), 0, rng.randrange(0, 2))
        assert graph.geodesic_midpoint(u, v) == graph.geodesic_midpoint(v, u)
    # the cache holds one midpoint per canonical pair, not a path
    assert all(isinstance(m, Vertex) for m in graph._geo_cache.values())


def test_midpoint_equivariance(graph):
    u = Vertex("ab", 0, 0)
    v = Vertex("bbA", -1, 0)
    for g in (GroupElem("ba", 2), GroupElem("", -1), GroupElem("Ba", 1)):
        assert graph.left_mul(g, graph.geodesic_midpoint(u, v)) == \
            graph.geodesic_midpoint(graph.left_mul(g, u), graph.left_mul(g, v))


MIDPOINT_VALUES = [
    # u = v: u itself
    ("ab@1:0", "ab@1:0", "ab@1:0"),
    # d = 1: the far endpoint of the canonical pair
    ("e@0:0", "a@0:0", "e@0:0"),
    ("e@0:0", "e@0:1", "e@0:1"),
    ("e@0:0", "ABab@0:0", "ABab@0:0"),
    ("ab@1:0", "ab@2:0", "ab@1:0"),
    ("bA@-1:2", "bA@-1:1", "bA@-1:2"),
    # d = 2
    ("ab@1:0", "abb@1:0", "abAB@1:0"),
]


@pytest.mark.parametrize("u, v, mid", MIDPOINT_VALUES)
def test_midpoint_values(graph, u, v, mid):
    u, v = parse_vertex(u), parse_vertex(v)
    assert graph.geodesic_midpoint(u, v) == parse_vertex(mid)
    assert graph.geodesic_midpoint(v, u) == parse_vertex(mid)


def test_midpoint_matches_two_ball_oracle():
    # the source ball and the distance search give the meet point of two
    # explicit balls: 200 seeded 2..6-step walks from depths 0..3, the two
    # slow pairs of the old two-ball search and the pinned midpoint values
    rng = random.Random(22)
    graph = CuspedGraph()
    pairs = []
    for _ in range(200):
        u = Vertex(random_gamma0_word(rng, 3), rng.randrange(-1, 2),
                   rng.randrange(4))
        v = u
        for _ in range(rng.randrange(2, 7)):
            nbrs = graph.neighbors(v)
            v = nbrs[rng.randrange(len(nbrs))]
        pairs.append((u, v))
    pairs += [(parse_vertex(u), parse_vertex(v)) for u, v in
              [("e@0:2", "BAbaa@-1:2"), ("e@0:3", "ab@2:0")]
              + [case[:2] for case in MIDPOINT_VALUES]]
    oracle_graph = CuspedGraph()
    for u, v in pairs:
        if u == v:
            want = u
        else:
            (src, dst), _, g = anchor_simplex((u, v), graph.psi)
            d = oracle_graph.distance(src, dst)
            want = oracle_graph.left_mul(
                g, meet_point_oracle(oracle_graph, src, dst, d))
        assert graph.geodesic_midpoint(u, v) == want, (u, v)


def test_delta_estimate_pin(graph):
    est = graph.estimate_delta(DELTA_SAMPLES, DELTA_RADIUS, DELTA_SEED)
    assert est == (DELTAHAT, 0)
    assert graph.estimate_delta(DELTA_SAMPLES, DELTA_RADIUS,
                                DELTA_SEED) == est


def test_delta_estimate_reports_capped_quadruples():
    # at distance cap 2, 46 of the 50 seed-3 quadruples have a pair farther
    # apart than the cap; the estimate over the other 4 must say so
    capped = CuspedGraph(distance_cap=2)
    assert capped.estimate_delta(50, DELTA_RADIUS, DELTA_SEED) == \
        (Fraction(1, 2), 46)


def test_psi_enters_through_the_graph_only():
    # below the config, the default twist enters only as CuspedGraph's
    # default; every other function takes psi from its caller, so a call
    # site that forgets psi fails instead of computing under the default
    from cuspedforms.words import Automorphism
    defaults = sorted(f"{f.__module__}.{f.__qualname__}({p.name})"
                      for f in _package_functions()
                      for p in inspect.signature(f).parameters.values()
                      if isinstance(p.default, Automorphism))
    assert defaults == ["cuspedforms.graph.CuspedGraph.__init__(psi)"]


def test_no_module_imports_a_private_name_of_a_sibling():
    # a rule owned by one module is imported under its public name; an
    # underscore name stays inside the module that defines it
    import cuspedforms
    private = []
    for path in sorted(Path(cuspedforms.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.stem} <- {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


vertex_keys = st.builds(lambda base, texp, depth: vertex_key(
    Vertex(base, texp, depth)), st.text("aAbB", max_size=4),
    st.integers(-3, 3), st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(), unique=True, max_size=6),
                 st.lists(vertex_keys, unique=True, max_size=6)))
def test_sort_with_sign_matches_the_cycle_count(keys):
    order, sign = sort_with_sign(keys)
    assert sorted(order) == list(range(len(keys)))
    assert [keys[i] for i in order] == sorted(keys)
    assert sign == permutation_sign_oracle(order)


def test_sort_with_sign_of_a_repeated_key_is_zero():
    assert sort_with_sign([3, 1, 3]) == ([1, 0, 2], 0)
    v = vertex_key(Vertex("ab", 1, 0))
    assert sort_with_sign([v, vertex_key(Vertex("", 0, 0)), v])[1] == 0


def test_degree_counts_what_neighbors_lists(graph):
    rng = random.Random(41)
    for depth in range(4):
        for _ in range(10):
            v = Vertex(random_gamma0_word(rng, 5), rng.randrange(-3, 4),
                       depth)
            assert graph.degree(v) == len(graph.neighbors(v)), v
    assert graph.degree(Vertex("", 0, 0)) == 9
    assert graph.degree(Vertex("", 0, 2)) == 2 * 4 * 5 + 2


def test_ball_refuses_a_listing_past_the_bound(monkeypatch):
    # the bound is checked on the running total of the degrees of each
    # layer's frontier, before the layer is listed
    g = CuspedGraph()
    center = Vertex("", 0, 0)
    first = g.degree(center)
    second = first + sum(map(g.degree, g.neighbors(center)))
    monkeypatch.setattr(graph_module, "BALL_LISTING_MAX", second)
    assert max(g.ball(center, 2).values()) == 2
    monkeypatch.setattr(graph_module, "BALL_LISTING_MAX", second - 1)
    with pytest.raises(DegreeOverflow, match=f"would list {second} neighbours "
                       f"by radius 2, more than {second - 1}"):
        g.ball(center, 2)
    monkeypatch.setattr(graph_module, "BALL_LISTING_MAX", first - 1)
    with pytest.raises(DegreeOverflow, match="by radius 1"):
        g.ball(center, 1)
