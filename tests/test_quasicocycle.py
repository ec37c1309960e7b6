import random
from fractions import Fraction
from itertools import combinations

import pytest
from _oracles import (alpha_oracle, anchor_oracle, representative,
                      theta_window_oracle, vanishing_certificate)
from hypothesis import given, settings, strategies as st
from test_chains import brute_force_orbit_form

from cuspedforms import lipschitz as lf
from cuspedforms.chains import CoinvariantChain
from cuspedforms.config import RunConfig
from cuspedforms.errors import FillDepthExceeded
from cuspedforms.fill import FillEngine
from cuspedforms.graph import (Vertex, anchor_face, anchor_simplex,
                               relative_table)
from cuspedforms.quasicocycle import (STRATA, QuasiCocycle, _ball_forms,
                                      _witness, boundary_class, build_A,
                                      build_aK, build_c, build_d, build_e,
                                      defect_scan, evaluate_on_Am, free_ball,
                                      independence_rank, k_of, sample_tuple)
from cuspedforms.words import (COMM, DEFAULT_PSI, GroupElem, gamma_mul,
                               reduce_word, word_pow)


def test_k_of():
    assert [k_of(m) for m in (1, 2, 3, 4, 7, 8, 16)] == [1, 2, 2, 3, 3, 4, 5]


def test_boundary_of_c(graph):
    assert build_c(graph.psi).boundary() == boundary_class(graph.psi)


def test_boundary_of_d(graph):
    psi = graph.psi
    for m in (1, 3, 6):
        K = k_of(m)
        assert build_d(m, psi).boundary() == \
            -boundary_class(psi) + build_aK(K, psi)


def test_boundary_of_e(graph):
    for m in (1, 3, 6):
        K = k_of(m)
        aK = build_aK(K, graph.psi)
        t_m = GroupElem("", m)
        assert build_e(m, graph.psi).boundary() == \
            aK - aK.translate(graph, t_m)


def test_A_is_a_cycle(graph):
    for m in (1, 2, 3, 5):
        assert not build_A(graph, m).boundary()


def test_A_norm_formula(graph):
    for m in (1, 2, 5, 8):
        K = k_of(m)
        assert build_A(graph, m).l1_norm() == 12 - Fraction(4, 2 ** K)


def test_alpha_vanishes_on_horoball_simplices(qc):
    # all three bases in one commutator coset: the orbit points coincide
    sx = (Vertex("", 0, 1), Vertex(COMM, 0, 1), Vertex(COMM, 1, 1))
    assert qc.eps.on_words(*(v.base for v in sx)) == 0
    assert qc.alpha(lf.linear(1), *sx) == 0


def test_alpha_alternates_and_is_invariant(qc, graph):
    f = lf.linear(1)
    tri = (Vertex("", 0, 0), Vertex("b", 0, 0), Vertex("ba", 1, 0))
    base = qc.alpha(f, *tri)
    assert qc.alpha(f, tri[1], tri[0], tri[2]) == -base
    # invariant under the fiber group (t-translates shift what f sees)
    g = GroupElem("ab", 0)
    moved = tuple(graph.left_mul(g, v) for v in tri)
    assert qc.alpha(f, *moved) == base


ORACLE_FS = {
    "linear": lf.linear(1),
    "sqrt": lf.power_floor(1, 2),
    "table": lf.table({-4: Fraction(1), 0: Fraction(1, 2), 5: Fraction(3)}),
    "truncated": lf.truncate(lf.power_floor(1, 2), 2),
}


@pytest.fixture(scope="module")
def qc_kappa2():
    # at kappa 2 most sampled triangles are cone-split into several faces
    return RunConfig(kappa=2).build()


@pytest.mark.parametrize("kappa", [8, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_FS))
def test_alpha_matches_face_by_face_oracle(request, kappa, name):
    # the same seeded triples for every f, from all three strata
    qc = request.getfixturevalue("qc" if kappa == 8 else "qc_kappa2")
    f = ORACLE_FS[name]
    rng = random.Random(61)
    for i in range(300):
        tri = sample_tuple(qc.graph, rng, STRATA[i % 3], 3)
        try:
            expected = alpha_oracle(qc, f, tri)
        except FillDepthExceeded:
            continue  # kappa 2 is too small for one of these triangles
        qc.reset_window()
        assert qc.alpha(f, *tri) == expected
        window = theta_window_oracle(qc, [tri])
        assert (qc.theta_lo, qc.theta_hi) == (window or (None, None))


@pytest.mark.parametrize("kappa", [8, 2])
def test_delta_alpha_window_is_its_faces_window(request, kappa):
    # the 4-tuple's one form spans exactly what its faces' fillings touch
    qc = request.getfixturevalue("qc" if kappa == 8 else "qc_kappa2")
    f = ORACLE_FS["table"]
    rng = random.Random(67)
    for i in range(120):
        pts = sample_tuple(qc.graph, rng, STRATA[i % 3], 4)
        faces = [face for face in (pts[:j] + pts[j + 1:] for j in range(4))
                 if len(set(face)) == 3]
        try:
            window = theta_window_oracle(qc, faces)
        except FillDepthExceeded:
            continue  # kappa 2 is too small for one of these triangles
        qc.reset_window()
        qc.delta_alpha(f, *pts)
        assert (qc.theta_lo, qc.theta_hi) == (window or (None, None))


def test_repeated_vertices_add_nothing(graph):
    # a face with a repeated vertex is skipped: no fill, no window
    qc = QuasiCocycle(FillEngine(graph))
    f = ORACLE_FS["table"]
    v, w = Vertex("ab", 1, 0), Vertex("b", -1, 1)
    assert qc.alpha(f, v, v, w) == qc.alpha(f, v, w, w) == 0
    assert qc.delta_alpha(f, v, v, w, w) == 0
    assert (qc.theta_lo, qc.theta_hi) == (None, None)
    assert not qc.engine._fill_cache


def brute_force_certificate(qc, f, n, radius):
    """vanishing_certificate triple by triple through the oracles."""
    fn = lf.truncate(f, n)
    triples = list(combinations([Vertex(w, 0, 0) for w in free_ball(radius)],
                                3))
    witness = None
    for tri in triples:
        val = alpha_oracle(qc, fn, tri)
        if val:
            witness = (tuple(str(v) for v in tri), val)
            break
    lo, hi = theta_window_oracle(qc, triples) or (0, 0)
    return {"n": n, "radius": radius, "vanishes": witness is None,
            "witness": witness, "theta_span": max(abs(lo), abs(hi))}


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_vanishing_certificate_matches_brute_force(qc, radius):
    f = lf.power_floor(1, 2)
    for n in range(5):
        assert vanishing_certificate(qc, f, n, radius) == \
            brute_force_certificate(qc, f, n, radius)


@pytest.mark.parametrize("f", [lf.constant(Fraction(3, 2)),
                               lf.linear(1).shift(1),
                               lf.table({0: Fraction(-1), 3: Fraction(2)})],
                         ids=["constant", "shifted-linear", "table"])
def test_certificate_witness_is_the_first_nonvanishing_triple(qc, f):
    # f(0) != 0, so alpha_f is not zero on the depth-0 ball: the witness
    # read from the distinct forms must be the first triple in
    # combinations order, with its value, and each distinct form must give
    # alpha_f on the triple it keeps
    for radius in (1, 2):
        triples = combinations([Vertex(w, 0, 0) for w in free_ball(radius)],
                               3)
        expected = next(((tuple(str(v) for v in tri), val)
                         for tri in triples
                         if (val := alpha_oracle(qc, f, tri))), None)
        assert expected is not None
        forms = _ball_forms(qc, radius)[0]
        assert _witness(qc, f, forms) == expected
        for weights, tri in forms.items():
            assert qc.evaluate(f, (weights, ())) == alpha_oracle(qc, f, tri)


def test_evaluate_on_Am_small(qc):
    f = lf.linear(1)
    for m in (1, 2, 3, 4):
        assert evaluate_on_Am(qc, f, m) == 2 * m


def test_delta_alpha_of_constant_vanishes(qc, graph):
    rng = random.Random(31)
    f = lf.constant(Fraction(5, 3))
    for i in range(40):
        pts = sample_tuple(graph, rng, ("cayley", "mixed", "cross")[i % 3], 4)
        assert qc.delta_alpha(f, *pts) == 0


def words_upto(n):
    return st.lists(st.sampled_from("aAbB"), max_size=n).map(reduce_word)


@st.composite
def translated_tuples(draw, offsets, translates):
    """A 4-tuple of `offsets`, one vertex repeated a quarter of the time,
    moved by one element drawn from `translates`."""
    pts = draw(st.lists(offsets, min_size=4, max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.permutations(range(4)))[:2]
        pts[j] = pts[i]
    g = draw(translates)
    return tuple(Vertex(*gamma_mul(g, v.elem, DEFAULT_PSI), v.depth)
                 for v in pts)


@st.composite
def near_offsets(draw):
    """A vertex at most 4 steps from the basepoint: up from its depth, one
    t-step and its letters."""
    depth = draw(st.integers(0, 2))
    return Vertex(draw(words_upto(3 - depth)), draw(st.integers(-1, 1)),
                  depth)


#: vertices far apart: group operations only, no graph search
far_tuples = translated_tuples(
    st.builds(Vertex, words_upto(10), st.integers(-4, 4), st.integers(0, 2)),
    st.builds(GroupElem, words_upto(10), st.just(0)))
#: a translate of four vertices within distance 8 of one another, so every
#: face fills as a unit simplex at kappa 8 and no geodesic midpoint is
#: needed
near_tuples = translated_tuples(
    near_offsets(), st.builds(GroupElem, words_upto(10), st.integers(-3, 3)))


@settings(max_examples=300, deadline=None)
@given(far_tuples)
def test_faces_read_off_the_tuple_table_anchor_as_anchor_simplex(pts):
    # the four faces of delta_alpha are anchored off one relative-element
    # table of the 4-tuple; each must be its own anchor_simplex, and that
    # the pair-by-pair oracle
    table = relative_table(pts, DEFAULT_PSI)
    for positions in combinations(range(4), 3):
        face = tuple(pts[j] for j in positions)
        if len(set(face)) < 3:
            continue
        canon = anchor_face(pts, table, positions)
        assert canon == anchor_simplex(face, DEFAULT_PSI)
        assert canon == anchor_oracle(face, DEFAULT_PSI)
    if len(set(pts)) == 4:
        assert anchor_simplex(pts, DEFAULT_PSI) == \
            anchor_oracle(pts, DEFAULT_PSI)


@settings(max_examples=150, deadline=None)
@given(near_tuples, st.sampled_from(sorted(ORACLE_FS)))
def test_delta_alpha_matches_face_by_face_oracle(graph, pts, name):
    # cold on a fresh engine, then warm on the same engine; the oracle
    # fills the faces on an engine of its own
    f = ORACLE_FS[name]
    fresh = QuasiCocycle(FillEngine(graph))
    oracle = QuasiCocycle(FillEngine(graph))
    expected = sum((alpha_oracle(oracle, f, pts[:i] + pts[i + 1:])
                    * (-1) ** i for i in range(4)), Fraction(0))
    assert fresh.delta_alpha(f, *pts) == expected
    assert fresh.delta_alpha(f, *pts) == expected


def test_defect_scan_deterministic(qc):
    a = defect_scan(qc, lf.linear(1), 60, 42)
    b = defect_scan(qc, lf.linear(1), 60, 42)
    assert a == b
    c = defect_scan(qc, lf.linear(1), 60, 43)
    assert c.seed != a.seed


def test_defect_scaling_invariance(qc):
    base = defect_scan(qc, lf.linear(1), 60, 5)
    tripled = defect_scan(qc, lf.linear(1).scale(3), 60, 5)
    shifted = defect_scan(qc, lf.linear(1).shift(Fraction(7, 2)), 60, 5)
    assert tripled.max_abs_delta == 3 * base.max_abs_delta
    assert tripled.ratio_to_lip == base.ratio_to_lip
    assert shifted.max_abs_delta == base.max_abs_delta


def test_free_ball_sizes():
    # 1 + 4 * (3^r - 1) / 2 elements at radius r in F(a, b)
    assert [len(free_ball(r)) for r in range(4)] == [1, 5, 17, 53]


def test_vanishing_certificate_finds_witness_and_vanishing(qc):
    f = lf.power_floor(1, 2)
    cert = vanishing_certificate(qc, f, 0, 1)
    assert cert["vanishes"] is False or cert["witness"] is None
    # truncating far beyond the touched window forces exact vanishing
    deep = vanishing_certificate(qc, f, 16, 1)
    assert deep["vanishes"] is True
    assert deep["theta_span"] <= 16


def test_independence_rank_full_and_defective():
    full = [lf.linear(1), lf.power_floor(1, 2),
            lf.table({0: Fraction(0), 4: Fraction(1)})]
    assert independence_rank(full, [1, 4, 16]) == 3
    dependent = [lf.linear(1), lf.linear(2), lf.linear(3)]
    assert independence_rank(dependent, [1, 4, 16]) == 1


def test_build_A_uses_coinvariants(graph):
    # translating the whole cycle by a free-group element must not change it
    A = build_A(graph, 2)
    moved = A.translate(graph, GroupElem("ab", 0))
    assert isinstance(A, CoinvariantChain)
    assert moved == A


def materialised_A(graph, m):
    """A_m written out simplex by simplex, with the t^m-translate applied to
    every vertex (psi^m-long words), reduced by the brute-force F-orbit
    form: {orbit form: coefficient}."""
    K = k_of(m)
    cd = [((Vertex("", 0, 0), Vertex("b", 0, 0), Vertex("ba", 0, 0)), 1),
          ((Vertex("", 0, 0), Vertex("ba", 0, 0), Vertex("ab", 0, 0)), 1),
          ((Vertex("", 0, 0), Vertex("ab", 0, 0), Vertex("a", 0, 0)), 1)]
    for i in range(K):
        w0, w1 = word_pow(COMM, 2 ** i), word_pow(COMM, 2 ** (i + 1))
        c = Fraction(1, 2 ** (i + 1))
        cd += [((Vertex("", 0, i), Vertex("", 0, i + 1), Vertex(w0, 0, i)), c),
               ((Vertex(w0, 0, i), Vertex("", 0, i + 1), Vertex(w1, 0, i + 1)),
                c),
               ((Vertex(w0, 0, i), Vertex(w1, 0, i + 1), Vertex(w1, 0, i)),
                c)]
    t_m = GroupElem("", m)
    w = word_pow(COMM, 2 ** K)
    c = Fraction(1, 2 ** K)
    terms = ([(tuple(graph.left_mul(t_m, v) for v in sx), c)
              for sx, c in cd]
             + [(sx, -c) for sx, c in cd]
             + [((Vertex("", 0, K), Vertex(w, m, K), Vertex("", m, K)), c),
                ((Vertex("", 0, K), Vertex(w, 0, K), Vertex(w, m, K)), c)])
    out = {}
    for sx, c in terms:
        form, sign = brute_force_orbit_form(sx)
        out[form] = out.get(form, 0) + sign * c
    return {form: c for form, c in out.items() if c}


def test_build_A_matches_materialised_construction(graph):
    for m in range(1, 7):
        A = build_A(graph, m)
        reduced = {}
        for key, c in A.terms.items():
            form, sign = brute_force_orbit_form(representative(A, key))
            assert form not in reduced
            reduced[form] = sign * c
        assert reduced == materialised_A(graph, m)


def test_linear_form_reads_keys_without_anchoring_them(monkeypatch):
    # a coinvariant key is already anchor_simplex's canonical triple:
    # linear_form reads it as it stands, so every relative table is one
    # that CoinvariantChain.add built while anchoring
    from cuspedforms import graph as graph_module
    from cuspedforms import quasicocycle
    calls = []
    real = graph_module.relative_table

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module, "relative_table", spy)
    monkeypatch.setattr(quasicocycle, "relative_table", spy)
    qc = RunConfig().build()
    chain = build_A(qc.graph, 8)
    added = len(calls)
    assert added > 0
    assert qc.linear_form(chain)[0] == ((0, -2), (8, 2))
    assert len(calls) == added


def test_growth_on_A_32(qc, graph):
    # far past what a written-out t^m-translate could hold (|psi^32(ba)|
    # is the Fibonacci number F_67); only psi-fixed commutator words are
    # raised to the power m, so no word of A_m grows with m
    for m in (32, 33, 64):
        A = build_A(graph, m)
        assert not A.boundary()
        assert A.l1_norm() == 12 - Fraction(4, 2 ** k_of(m))
        for f in (lf.linear(1), lf.power_floor(1, 2)):
            assert evaluate_on_Am(qc, f, m) == 2 * (f(m) - f(0))


lipschitz_fs = st.one_of(
    st.builds(lf.linear, st.fractions(-5, 5, max_denominator=6)),
    st.integers(1, 4).flatmap(
        lambda den: st.builds(lf.power_floor, st.integers(1, den),
                              st.just(den))),
    st.builds(lf.table, st.dictionaries(
        st.integers(-8, 2 ** 12 + 8),
        st.fractions(-20, 20, max_denominator=4), max_size=6)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2 ** 12 - 1), lipschitz_fs)
def test_growth_identity_on_A_m(qc, m, f):
    # alpha_f(A_m) = 2 (f(m) - f(0)), signed, for every f; each new m
    # builds A_m, up to the words [a,b]^(2^12) of m >= 2^11
    assert evaluate_on_Am(qc, f, m) == 2 * (f(m) - f(0))


def test_second_monodromy_contracts():
    # psi^2 (a -> babba, b -> babbabab) set through its images alone, its
    # inverse derived: the growth identity, the fill contract and the
    # defect ratio all hold
    cfg = RunConfig(psi_images={"a": "babba", "b": "babbabab"})
    qc2 = cfg.build()
    graph2, engine2 = qc2.graph, qc2.engine
    assert graph2.psi.apply("b", 1) == "babbabab"
    for m in range(1, 9):
        for f in (lf.linear(1), lf.power_floor(1, 2)):
            assert evaluate_on_Am(qc2, f, m) == 2 * (f(m) - f(0))
    rng = random.Random(10)
    for i in range(200):
        pts = sample_tuple(graph2, rng, STRATA[i % 3], 3)
        fill = engine2.fill_triangle(*pts)
        assert fill.chain.boundary() == engine2.triangle_cycle(*pts)
        assert engine2.fill_triangle(pts[1], pts[0], pts[2]).chain == \
            -fill.chain
    report = defect_scan(qc2, lf.linear(1), 300, 7)
    assert report.ratio_to_lip == Fraction(2, 3)
