import hashlib
import json
import random
from fractions import Fraction

import pytest

from cuspedforms import fill, lp
from cuspedforms.chains import Chain
from cuspedforms.errors import FillDepthExceeded, Infeasible, WindowTooLarge
from cuspedforms.fill import FillEngine
from cuspedforms.graph import (CuspedGraph, Vertex, anchor_cycle,
                               anchor_simplex, key_vertex, parse_vertex,
                               random_gamma0_word, vertex_key)
from cuspedforms.quasicocycle import STRATA, sample_tuple
from cuspedforms.words import COMM, GroupElem, gamma_mul, parse_word, word_pow

from _pins import (LP_NEAR_CAP_FILL, LP_NEAR_CAP_SIMPLICES,
                   LP_NEAR_CAP_TRIANGLE, LP_WINDOW_FILLS)


def sample_triple(graph, rng, idx):
    return sample_tuple(graph, rng, STRATA[idx % len(STRATA)], 3)


def test_combing_path_boundary(engine, graph):
    rng = random.Random(23)
    for i in range(60):
        u, v, _ = sample_triple(graph, rng, i)
        q = engine.combing_path(u, v)
        b = q.boundary()
        expect = Chain(0)
        expect.add((v,), 1)
        expect.add((u,), -1)
        assert b == expect


def test_combing_path_antisymmetric(engine, graph):
    rng = random.Random(24)
    for i in range(40):
        u, v, _ = sample_triple(graph, rng, i)
        assert engine.combing_path(v, u) == -engine.combing_path(u, v)


def test_combing_path_equivariant(engine, graph):
    rng = random.Random(25)
    g = GroupElem("ba", -1)
    for i in range(30):
        u, v, _ = sample_triple(graph, rng, i)
        assert engine.combing_path(u, v).translate(graph, g) == \
            engine.combing_path(graph.left_mul(g, u), graph.left_mul(g, v))


def test_split_combing_path_antisymmetric_and_equivariant(graph):
    # at kappa = 2 these pairs are split at their midpoints; Q has no cache,
    # so both properties come from the unordered, equivariant midpoint alone
    engine = FillEngine(graph, kappa=2)
    split = (parse_vertex("ab@1:0"), parse_vertex("Bab@0:1"))
    assert len(engine.combing_path(*split)) > 1
    rng = random.Random(31)
    pairs = [split] + [
        (Vertex(random_gamma0_word(rng, rng.randrange(2, 6)),
                rng.randrange(-1, 2), 0),
         Vertex(random_gamma0_word(rng, rng.randrange(2, 6)),
                rng.randrange(-1, 2), rng.randrange(0, 2)))
        for _ in range(30)]
    for u, v in pairs:
        forward = engine.combing_path(u, v)
        assert engine.combing_path(v, u) == -forward
        for g in (GroupElem("ba", -1), GroupElem("Ab", 2)):
            assert forward.translate(graph, g) == engine.combing_path(
                graph.left_mul(g, u), graph.left_mul(g, v))


def test_fill_boundary_is_triangle_cycle(engine, graph):
    rng = random.Random(26)
    for i in range(120):
        pts = sample_triple(graph, rng, i)
        if len(set(pts)) < 3:
            continue
        res = engine.fill_triangle(*pts)
        assert res.chain.boundary() == engine.triangle_cycle(*pts)
        assert res.norm == res.chain.l1_norm()


def test_fill_alternation(engine, graph):
    rng = random.Random(27)
    for i in range(40):
        x0, x1, x2 = sample_triple(graph, rng, i)
        if len({x0, x1, x2}) < 3:
            continue
        base = engine.fill_triangle(x0, x1, x2).chain
        assert engine.fill_triangle(x1, x0, x2).chain == -base
        assert engine.fill_triangle(x1, x2, x0).chain == base
        assert engine.fill_triangle(x2, x1, x0).chain == -base


def test_fill_equivariance(engine, graph):
    rng = random.Random(28)
    g = GroupElem("ab", 2)
    for i in range(30):
        pts = sample_triple(graph, rng, i)
        if len(set(pts)) < 3:
            continue
        moved = tuple(graph.left_mul(g, v) for v in pts)
        assert engine.fill_triangle(*moved).chain == \
            engine.fill_triangle(*pts).chain.translate(graph, g)


def test_fill_degenerate(engine):
    v = Vertex("", 0, 0)
    res = engine.fill_triangle(v, v, Vertex("a", 0, 0))
    assert res.method == "degenerate"
    assert not res.chain


def test_fill_triangle_is_the_anchored_canonical_fill(engine, graph):
    # the filling of a raw triple is sign * g . (the cached fill of its
    # canonical triple), with (canonical triple, sign, g) from anchor_simplex
    rng = random.Random(29)
    for i in range(25):
        pts = sample_triple(graph, rng, i)
        if len(set(pts)) < 3:
            continue
        canon, sign, g = anchor_simplex(pts, graph.psi)
        hit = engine.canonical_fill(canon)
        rebuilt = hit.chain.translate(graph, g)
        if sign < 0:
            rebuilt = -rebuilt
        res = engine.fill_triangle(*pts)
        assert (res.chain, res.method) == (rebuilt, hit.method)


def test_cone_split_cycle_fails_fast(graph, monkeypatch):
    # at kappa = 2 the cone splits of (Ab, ab, ba) reach a canonical triple
    # that is still being filled; that can never terminate, so it raises
    # at once instead of at the recursion cap, and clears its marks
    engine = FillEngine(graph, kappa=2)
    calls = []
    original = engine._fill_canonical

    def spy(tri):
        calls.append(tri)
        return original(tri)

    monkeypatch.setattr(engine, "_fill_canonical", spy)
    with pytest.raises(FillDepthExceeded, match="return to the triple"):
        engine.fill_triangle(Vertex("Ab", 0, 0), Vertex("ab", 0, 0),
                             Vertex("ba", 0, 0))
    assert len(calls) <= 6
    assert not engine._filling


def test_fill_depth_cap_raises_and_leaves_no_state(graph, monkeypatch):
    # a kappa = 2 cone split nests one fill inside another; at cap 0 the
    # nested fill is past the cap
    monkeypatch.setattr(fill, "FILL_DEPTH_CAP", 0)
    engine = FillEngine(graph, kappa=2)
    tri = tuple(parse_vertex(s) for s in ("AAB@0:0", "AAB@-1:0",
                                          "AABAAb@0:0"))
    with pytest.raises(FillDepthExceeded, match="fill recursion exceeded 0"):
        engine.fill_triangle(*tri)
    assert not engine._filling
    assert not engine._fill_cache
    # an unsplit fill is at depth 0, within the cap
    res = engine.fill_triangle(Vertex("", 0, 0), Vertex("a", 0, 0),
                               Vertex("ab", 0, 0))
    assert res.method == "unit-simplex"


def test_successful_fill_unchanged_by_a_failed_cycle(graph):
    tri = tuple(parse_vertex(s) for s in ("AAB@0:0", "AAB@-1:0",
                                          "AABAAb@0:0"))
    fresh = FillEngine(graph, kappa=2).fill_triangle(*tri)
    engine = FillEngine(graph, kappa=2)
    with pytest.raises(FillDepthExceeded):
        engine.fill_triangle(Vertex("Ab", 0, 0), Vertex("ab", 0, 0),
                             Vertex("ba", 0, 0))
    res = engine.fill_triangle(*tri)
    assert (res.method, res.norm, len(res.chain)) == ("cone-split", 4, 4)
    assert res.chain == fresh.chain
    assert res.chain.boundary() == engine.triangle_cycle(*tri)


def test_nearby_triangle_is_unit_simplex(engine):
    res = engine.fill_triangle(Vertex("", 0, 0), Vertex("a", 0, 0),
                               Vertex("ab", 0, 0))
    assert res.method == "unit-simplex"
    assert res.norm == 1


def test_far_triangle_cone_splits(engine):
    far = Vertex(word_pow("ab", 8), 0, 0)
    res = engine.fill_triangle(Vertex("", 0, 0), far, Vertex("a", 0, 0))
    assert res.method == "cone-split"
    assert res.chain
    assert res.chain.boundary() == engine.triangle_cycle(
        Vertex("", 0, 0), far, Vertex("a", 0, 0))


def test_lp_fill_matches_boundary_and_norm(engine, graph):
    # the LP filler on a cone-split instance: exact boundary, and never a
    # worse norm than the cone fill it is seeded from
    far = Vertex(word_pow("ab", 8), 0, 0)
    tri = (Vertex("", 0, 0), far, Vertex("a", 0, 0))
    cone = engine.fill_triangle(*tri)
    z = engine.triangle_cycle(*tri)
    res = engine.fill_cycle_lp(z, window_radius=0,
                               extra_vertices=cone.chain.support())
    assert res.chain.boundary() == z
    assert res.norm <= cone.norm


def lp_spy(monkeypatch):
    """A list that grows by the column count of every LP solved."""
    solved = []
    solve = lp.solve_float_then_verify

    def spy(columns, target, n_rows):
        solved.append(len(columns))
        return solve(columns, target, n_rows)

    monkeypatch.setattr(lp, "solve_float_then_verify", spy)
    return solved


def square_cycle():
    """(z, e): a 4-cycle of depth-0 vertices at distance 2 from e whose
    diagonals exceed kappa = 2.  At window radius 0 it has no filling on its
    own vertices, and the cone from e fills it with norm 4."""
    square = [parse_vertex(s) for s in ("A@-1:0", "A@1:0", "AB@1:0",
                                        "ABa@0:0")]
    z = Chain(1)
    for i in range(4):
        z.add((square[i], square[(i + 1) % 4]), 1)
    return z, Vertex("", 0, 0)


def lp_instances(graph, engine):
    """(z, window radius, E): seeded nonzero combing cycles of Cayley
    triangles at kappa = 2, seeded with their cone fills, and the square
    coned off from e."""
    rng = random.Random(1)
    out = []
    while len(out) < 4:
        pts = sample_tuple(graph, rng, "cayley", 3)
        if len(set(pts)) == 3 and engine.triangle_cycle(*pts):
            out.append((engine.triangle_cycle(*pts), 1,
                        engine.fill_triangle(*pts).chain.support()))
    z, e = square_cycle()
    return out + [(z, 0, {e})]


def test_anchor_cycle_is_a_canonical_form():
    # translates share the key, and the element recovers the input
    graph = CuspedGraph()
    engine = FillEngine(graph, kappa=2)
    rng = random.Random(41)
    for z, _, extra in lp_instances(graph, engine):
        key, h = anchor_cycle(z.terms, extra, graph.psi)
        terms, extra_keys = key
        canon = Chain(z.dim, {tuple(map(key_vertex, sx)): c
                              for sx, c in terms})
        assert canon.translate(graph, h) == z
        assert {graph.left_mul(h, key_vertex(k))
                for k in extra_keys} == set(extra)
        assert min(v.depth for v in canon.support()) == 0
        for _ in range(3):
            g = GroupElem(random_gamma0_word(rng, 6), rng.randrange(-2, 3))
            moved, gh = anchor_cycle(
                z.translate(graph, g).terms,
                {graph.left_mul(g, v) for v in extra}, graph.psi)
            assert moved == key
            assert gh == gamma_mul(g, h, graph.psi)


def test_lp_fill_is_equivariant_and_solved_once_per_orbit(monkeypatch):
    # fill_cycle_lp(g z, g E) = g fill_cycle_lp(z, E) exactly, the translate
    # solves no LP, and its norm is a fresh engine's
    graph = CuspedGraph()
    engine = FillEngine(graph, kappa=2)
    instances = lp_instances(graph, engine)
    solved = lp_spy(monkeypatch)
    rng = random.Random(42)
    for z, radius, extra in instances:
        solved.clear()
        res = engine.fill_cycle_lp(z, radius, extra)
        assert len(solved) == 1
        assert res.chain.boundary() == z
        for _ in range(2):
            g = GroupElem(random_gamma0_word(rng, 6),
                          rng.choice((-2, -1, 1, 2)))
            gz = z.translate(graph, g)
            ge = {graph.left_mul(g, v) for v in extra}
            solved.clear()
            moved = engine.fill_cycle_lp(gz, radius, ge)
            assert not solved
            assert moved.chain == res.chain.translate(graph, g)
            assert moved.norm == res.norm == FillEngine(
                CuspedGraph(), kappa=2).fill_cycle_lp(gz, radius, ge).norm
    assert len(engine._lp_cache) == len(instances)


def test_lp_cache_keys_the_window_and_the_seeds(monkeypatch):
    # the square has a filling at window radius 1, or when e is seeded, but
    # none on its own vertices: a cached answer for one of those inputs
    # must not answer the other
    z, e = square_cycle()
    engine = FillEngine(CuspedGraph(), kappa=2)
    solved = lp_spy(monkeypatch)
    assert engine.fill_cycle_lp(z, 1).norm == 4
    assert engine.fill_cycle_lp(z, 0, {e}).norm == 4
    assert len(solved) == 2
    for fresh in (FillEngine(CuspedGraph(), kappa=2), engine):
        with pytest.raises(Infeasible, match="no candidate simplices"):
            fresh.fill_cycle_lp(z, 0)
    assert len(engine._lp_cache) == 2


def chain_sha256(chain):
    """sha256 of the chain's terms as sorted (vertex strings, coefficient)
    pairs: which certified optimum the LP returned, not only its norm."""
    terms = sorted((tuple(map(str, sx)), str(c))
                   for sx, c in chain.terms.items())
    return hashlib.sha256(
        json.dumps(terms, separators=(",", ":")).encode()).hexdigest()


def test_lp_window_fills_are_pinned():
    # a window LP can have more than one optimal filling; these pins name
    # the one returned, so a solver change that returns another shows here
    # even when the norm holds
    graph = CuspedGraph()
    engine = FillEngine(graph, kappa=2)
    instances = lp_instances(graph, engine)
    assert len(instances) == len(LP_WINDOW_FILLS)
    for (z, radius, extra), pin in zip(instances, LP_WINDOW_FILLS):
        res = FillEngine(CuspedGraph(), kappa=2).fill_cycle_lp(
            z, radius, extra)
        assert res.chain.boundary() == z
        assert (res.norm, chain_sha256(res.chain)) == pin


def test_lp_fill_of_a_window_near_the_cap(monkeypatch):
    # a kappa = 3 window at radius 1 holds LP_NEAR_CAP_SIMPLICES Rips
    # triangles, close to LP_SIMPLEX_CAP: the LP size the cap admits
    sizes = lp_spy(monkeypatch)
    engine = FillEngine(CuspedGraph(), kappa=3)
    pts = [parse_vertex(s) for s in LP_NEAR_CAP_TRIANGLE]
    z = engine.triangle_cycle(*pts)
    cone = engine.fill_triangle(*pts)
    res = engine.fill_cycle_lp(z, 1, cone.chain.support())
    assert sizes == [LP_NEAR_CAP_SIMPLICES]
    assert LP_NEAR_CAP_SIMPLICES > 0.85 * fill.LP_SIMPLEX_CAP
    assert res.method == "lp"
    assert res.chain.boundary() == z
    assert (res.norm, chain_sha256(res.chain)) == LP_NEAR_CAP_FILL


def oracle_rips_triangles(window, kappa, balls):
    """Triangles of the Rips graph on the window (kappa 2 or 3), as
    increasing position triples.  Adjacency is read off the plain BFS
    `ball`s of radii 2 and 1 on a fresh graph, kept in `balls` across
    windows: d(u, v) <= 3 exactly when some w within 1 of v is within 2 of
    u."""
    fresh = CuspedGraph()

    def ball(v, r):
        if (v, r) not in balls:
            balls[v, r] = fresh.ball(v, r)
        return balls[v, r]

    def near(u, v):
        return (v in ball(u, 2) if kappa == 2 else
                any(w in ball(u, 2) for w in ball(v, 1)))

    verts = list(window)
    adj = [{j for j in range(i + 1, len(verts)) if near(verts[i], verts[j])}
           for i in range(len(verts))]
    return sorted((i, j, k) for i in range(len(verts)) for j in adj[i]
                  for k in adj[i] & adj[j] if k > j)


def test_rips_simplices_match_bfs_oracle(monkeypatch):
    # adjacency comes from the window's seed balls where they settle a pair
    # and from the distance cache otherwise, which remembers "farther than
    # kappa"; a wrong ball rule or a stale entry would silently drop or add
    # LP columns, cold, warm, or at a larger kappa on the same graph.  At
    # radius 2 and kappa 2 the balls settle only some pairs.
    asked = []
    at_most = CuspedGraph.distance_at_most

    def spy(self, u, v, bound):
        asked.append(1)
        return at_most(self, u, v, bound)

    monkeypatch.setattr(CuspedGraph, "distance_at_most", spy)
    for stratum, seed in (("cayley", 1), ("cayley", 4), ("mixed", 8)):
        pts = sample_tuple(CuspedGraph(), random.Random(seed), stratum, 3)
        assert len(set(pts)) == 3
        balls: dict = {}
        for radius in (0, 1, 2):
            graph = CuspedGraph()
            near, wider = FillEngine(graph, kappa=2), FillEngine(graph, kappa=3)
            window = near.rips_window(set(pts), radius)
            fresh = CuspedGraph()
            dists = [fresh.ball(s, radius)
                     for s in sorted(pts, key=vertex_key)]
            inside = set().union(*dists)
            assert list(window) == sorted(inside, key=vertex_key)
            assert window == {v: {s: d[v] for s, d in enumerate(dists)
                                  if v in d} for v in inside}
            expect = oracle_rips_triangles(window, 2, balls)
            asked.clear()
            assert near._rips_simplices(window, 3, 10 ** 6) == expect
            pairs = len(window) * (len(window) - 1) // 2
            if radius == 2:
                assert 0 < len(asked) < pairs
            assert near._rips_simplices(window, 3, 10 ** 6) == expect
            wide = wider._rips_simplices(window, 3, 10 ** 6)
            assert wide == oracle_rips_triangles(window, 3, balls)
            assert wider._rips_simplices(window, 3, 10 ** 6) == wide
            if radius:
                assert len(wide) > len(expect) > 100


def test_relative_fill_unit_simplex(engine):
    out = engine.relative_fill_check(Vertex("", 0, 0), Vertex("b", 0, 0),
                                     Vertex("ba", 0, 0), Vertex("ab", 0, 0))
    assert out.method == "unit-simplex"
    assert out.norm == 1


def test_relative_fill_degenerate(engine):
    v = Vertex("", 0, 0)
    out = engine.relative_fill_check(v, v, Vertex("a", 0, 0),
                                     Vertex("b", 0, 0))
    assert out.norm == 0


def test_fill_in_horoball_annulus(engine):
    # the annulus triangles used by the explicit cycles are unit simplices
    w1, w2 = word_pow(COMM, 1), word_pow(COMM, 2)
    res = engine.fill_triangle(Vertex("", 0, 0), Vertex("", 0, 1),
                               Vertex(w1, 0, 0))
    assert res.method == "unit-simplex"
    res = engine.fill_triangle(Vertex(w1, 0, 0), Vertex("", 0, 1),
                               Vertex(w2, 0, 1))
    assert res.method == "unit-simplex"


#: 4-tuples whose relative fill reaches the LP at kappa = 2, window radius
#: 1: (vertices, norm).  The second one's faces' fillings cancel, so its
#: cycle z is empty.
RELATIVE_LP = {
    "lp": (("aBaa@2:0", "aBaaBAba@3:0", "aBaaBAba@2:0", "aBaBab@3:0"), 2),
    "empty-cycle": (("e@3:0", "BAba@3:0", "ABBABBABABBAB@3:0",
                     "BAbaBAba@3:0"), 0),
}


def face_cycle(engine, pts):
    """z = the alternating sum of the fillings of the four faces."""
    z = Chain(2)
    for i in range(4):
        part = engine.fill_triangle(*pts[:i], *pts[i + 1:]).chain
        z = z + part if i % 2 == 0 else z - part
    return z


@pytest.mark.parametrize("verts, norm", RELATIVE_LP.values(),
                         ids=list(RELATIVE_LP))
def test_relative_fill_reaches_the_lp(verts, norm):
    # a 4-tuple that is no Rips simplex, or whose unit simplex does not
    # bound z, is filled by the LP; an empty z needs no LP at all
    engine = FillEngine(CuspedGraph(), kappa=2)
    g = GroupElem(parse_word("abA"), 1)
    pts = [parse_vertex(s) for s in verts]
    for quad in (pts, [engine.graph.left_mul(g, v) for v in pts]):
        z = face_cycle(engine, quad)
        assert bool(z) == bool(norm)
        out = engine.relative_fill_check(*quad, window_radius=1)
        assert (out.method, out.norm) == ("lp", norm)
        assert out.chain.boundary() == z


def test_a_window_past_the_simplex_cap_is_refused(monkeypatch):
    monkeypatch.setattr(fill, "LP_SIMPLEX_CAP", 5)
    engine = FillEngine(CuspedGraph(), kappa=2)
    pts = [parse_vertex(s) for s in RELATIVE_LP["lp"][0]]
    with pytest.raises(WindowTooLarge,
                       match="more than 5 Rips simplices in the window"):
        engine.relative_fill_check(*pts, window_radius=1)
