import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cuspedforms.chains import Chain, CoinvariantChain, orbit_canonical
from cuspedforms.graph import Vertex, random_gamma0_word, vertex_key
from cuspedforms.quasicocycle import build_c
from cuspedforms.words import (DEFAULT_PSI, GroupElem, gamma_mul, inv, mul,
                               reduce_word)

from _oracles import permutation_sign_oracle, representative


def v(base, texp=0, depth=0):
    return Vertex(base, texp, depth)


def random_simplex(rng, dim):
    return tuple(v(random_gamma0_word(rng, 3), rng.randrange(-1, 2),
                   rng.randrange(0, 2)) for _ in range(dim + 1))


def test_add_alternates():
    c = Chain(1)
    c.add((v(""), v("a")), 1)
    c.add((v("a"), v("")), 1)
    assert not c
    c.add((v(""), v("a")), Fraction(1, 2))
    assert c.l1_norm() == Fraction(1, 2)


def test_degenerate_simplices_vanish():
    c = Chain(2)
    c.add((v(""), v(""), v("a")), 5)
    assert not c


def test_boundary_squares_to_zero():
    rng = random.Random(14)
    for _ in range(50):
        c = Chain(2)
        for _ in range(rng.randrange(1, 5)):
            c.add(random_simplex(rng, 2), rng.randrange(-3, 4) or 1)
        assert not c.boundary().boundary()


chain_vertices = st.builds(
    Vertex, st.lists(st.sampled_from("aAbB"), max_size=3).map(reduce_word),
    st.integers(-1, 1), st.integers(0, 1))


def distinct_simplices(dim):
    return st.lists(chain_vertices, min_size=dim + 1, max_size=dim + 1,
                    unique=True).map(tuple)


coefficients = st.fractions(-3, 3, max_denominator=4).filter(bool)


def parity(perm):
    return sum(perm[i] > perm[j] for i in range(len(perm))
               for j in range(i + 1, len(perm))) % 2


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(distinct_simplices(d),
                        st.permutations(range(d + 1)))), coefficients)
def test_reordering_a_term_multiplies_it_by_the_sign(sx_perm, coeff):
    sx, perm = sx_perm
    if not parity(perm):  # a transposition more makes the order odd
        perm = [perm[1], perm[0], *perm[2:]]
    c = Chain(len(sx) - 1)
    c.add(sx, coeff)
    odd = Chain(len(sx) - 1)
    odd.add(tuple(sx[i] for i in perm), coeff)
    assert odd == -c
    odd.add(sx, coeff)
    assert not odd


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.tuples(distinct_simplices(d), st.integers(0, d),
                        st.integers(0, d))), coefficients)
def test_a_repeated_vertex_kills_the_term(sx_ij, coeff):
    sx, i, j = sx_ij
    if i == j:
        j = (i + 1) % len(sx)
    c = Chain(len(sx) - 1)
    c.add(sx[:j] + (sx[i],) + sx[j + 1:], coeff)
    assert not c


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(distinct_simplices(d), coefficients),
                       min_size=1, max_size=5)))
def test_boundary_of_a_boundary_is_empty(terms):
    c = Chain(len(terms[0][0]) - 1)
    for sx, coeff in terms:
        c.add(sx, coeff)
    assert not c.boundary().boundary()


def test_boundary_of_an_edge():
    c = Chain(1)
    c.add((v(""), v("a")), 1)
    b = c.boundary()
    assert b.terms == {(v("a"),): Fraction(1), (v(""),): Fraction(-1)}


def test_chain_arithmetic():
    rng = random.Random(15)
    a, b = Chain(1), Chain(1)
    for _ in range(6):
        a.add(random_simplex(rng, 1), rng.randrange(1, 4))
        b.add(random_simplex(rng, 1), rng.randrange(1, 4))
    assert a + b - b == a
    assert -(-a) == a
    assert (a - a).l1_norm() == 0


def test_l1_norm_triangle_inequality():
    rng = random.Random(16)
    a, b = Chain(1), Chain(1)
    for _ in range(6):
        a.add(random_simplex(rng, 1), Fraction(rng.randrange(-5, 6) or 1, 3))
        b.add(random_simplex(rng, 1), Fraction(rng.randrange(-5, 6) or 1, 2))
    assert (a + b).l1_norm() <= a.l1_norm() + b.l1_norm()


def test_translate_equivariance(graph):
    rng = random.Random(17)
    c = Chain(2)
    for _ in range(4):
        c.add(random_simplex(rng, 2), rng.randrange(1, 3))
    g = GroupElem("ab", 1)
    assert c.translate(graph, g).boundary() == c.boundary().translate(graph, g)


def test_orbit_canonical_is_orbit_invariant():
    rng = random.Random(18)
    for _ in range(60):
        sx = random_simplex(rng, 2)
        k, canon, sign = orbit_canonical(sx, DEFAULT_PSI)
        # translate on the left by a free-group element and re-canonicalize
        g = random_gamma0_word(rng, 3)
        moved = tuple(Vertex(mul(g, w.base), w.texp, w.depth) for w in sx)
        assert orbit_canonical(moved, DEFAULT_PSI) == (k, canon, sign)
        assert canon[0].base == "" and canon[0].texp == 0


def test_coinvariant_chain_identifies_translates():
    c = CoinvariantChain(1, psi=DEFAULT_PSI)
    c.add((v(""), v("a")), 1)
    c.add((v("b"), v("ba")), -1)  # b . (e, a)
    assert not c


def test_coinvariant_support_is_refused():
    # a key (k, s) names an F-orbit, not vertices; Chain.support would walk
    # it as if it were a simplex and return s and k
    c = build_c(DEFAULT_PSI)
    assert c
    with pytest.raises(TypeError, match="names an F-orbit"):
        c.support()
    key = next(iter(c.terms))
    assert all(isinstance(x, Vertex) for x in representative(c, key))


def test_coinvariant_boundary_commutes_with_reduce():
    def reduce(chain):
        out = CoinvariantChain(chain.dim, psi=DEFAULT_PSI)
        for verts, coeff in chain.terms.items():
            out.add(verts, coeff)
        return out

    rng = random.Random(19)
    for _ in range(30):
        c = Chain(2)
        for _ in range(3):
            c.add(random_simplex(rng, 2), rng.randrange(1, 3))
        assert reduce(c.boundary()) == reduce(c).boundary()


# -- the (k, s) orbit key against the brute-force F-orbit form ---------------


def brute_force_orbit_form(verts):
    """The F-orbit of an ordered simplex by brute force: over every vertex
    order, left-multiply by a free-group element so the first base is
    trivial, and keep the lex-least tuple.  Returns (tuple, sign of the
    chosen order)."""
    best = None
    for perm in permutations(range(len(verts))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        shift = inv(verts[perm[0]].base)
        cand = tuple(Vertex(mul(shift, verts[i].base), verts[i].texp,
                            verts[i].depth) for i in perm)
        key = tuple(vertex_key(w) for w in cand)
        if best is None or key < best[0]:
            best = (key, cand, sign)
    return best[1], best[2]


words = st.lists(st.sampled_from("aAbB"), max_size=4).map(reduce_word)
elements = st.builds(GroupElem, words, st.integers(-3, 3))
vertices = st.builds(Vertex, words, st.integers(-2, 2), st.integers(0, 2))
simplices = st.integers(2, 3).flatmap(
    lambda n: st.lists(vertices, min_size=n, max_size=n, unique=True)
).map(tuple)


def act(g, verts):
    return tuple(Vertex(*gamma_mul(g, w.elem, DEFAULT_PSI), w.depth)
                 for w in verts)


@settings(max_examples=300, deadline=None)
@given(simplices, elements)
def test_orbit_key_shifts_by_theta(sx, g):
    k, canon, sign = orbit_canonical(sx, DEFAULT_PSI)
    assert orbit_canonical(act(g, sx), DEFAULT_PSI) == (k + g.texp, canon,
                                                        sign)
    # the key names the orbit of t^k . canon, listed in the order of sign
    rep = act(GroupElem("", k), canon)
    form, form_sign = brute_force_orbit_form(rep)
    assert brute_force_orbit_form(sx) == (form, form_sign * sign)


@settings(max_examples=300, deadline=None)
@given(simplices, st.data())
def test_orbit_key_agrees_with_brute_force_oracle(sx, data):
    kind = data.draw(st.sampled_from(("fiber", "gamma", "fresh")))
    if kind == "fresh":
        other = data.draw(simplices)
    else:
        g = data.draw(elements)
        if kind == "fiber":
            g = GroupElem(g.base, 0)
        order = data.draw(st.permutations(range(len(sx))))
        other = act(g, tuple(sx[i] for i in order))
    k1, c1, s1 = orbit_canonical(sx, DEFAULT_PSI)
    k2, c2, s2 = orbit_canonical(other, DEFAULT_PSI)
    f1, t1 = brute_force_orbit_form(sx)
    f2, t2 = brute_force_orbit_form(other)
    assert ((k1, c1) == (k2, c2)) == (f1 == f2)
    if f1 == f2:
        assert s1 * s2 == t1 * t2


pool_vertices = st.sampled_from([v(""), v("a"), v("ab", 1), v("", 0, 1)])
any_coefficients = st.one_of(st.integers(-2, 2),
                             st.fractions(-2, 2, max_denominator=3))
chain_steps = st.lists(st.tuples(
    st.sampled_from(("add", "+", "-")),
    st.lists(st.tuples(st.lists(pool_vertices, min_size=3, max_size=3)
                       .map(tuple), any_coefficients), max_size=4)),
    max_size=8)


def naive_add(terms, key, coeff):
    new = terms.get(key, Fraction(0)) + Fraction(coeff)
    if new:
        terms[key] = new
    else:
        terms.pop(key, None)


def naive_chain_terms(pairs):
    terms = {}
    for sx, coeff in pairs:
        if len(set(sx)) == len(sx):
            order = sorted(range(len(sx)), key=lambda i: vertex_key(sx[i]))
            naive_add(terms, tuple(sx[i] for i in order),
                      permutation_sign_oracle(order) * Fraction(coeff))
    return terms


def naive_orbit_terms(pairs, shift):
    terms = {}
    for sx, coeff in pairs:
        if len(set(sx)) == len(sx):
            k, canon, sign = orbit_canonical(sx, DEFAULT_PSI)
            naive_add(terms, (k + shift, canon), sign * Fraction(coeff))
    return terms


@settings(max_examples=200, deadline=None)
@given(chain_steps, st.integers(-1, 1))
def test_coefficients_are_nonzero_fractions(steps, shift):
    # add, + and - against a naive dict, on chains and coinvariant chains:
    # every stored coefficient is a nonzero Fraction, int inputs included,
    # a cancelled key is absent, and a zero coefficient adds nothing
    chain = Chain(2)
    orbits = CoinvariantChain(2, psi=DEFAULT_PSI)
    want, want_orbits = {}, {}
    for op, pairs in steps:
        if op == "add":
            for sx, coeff in pairs:
                chain.add(sx, coeff)
                orbits.add(sx, coeff, shift=shift)
            part, part_orbits = (naive_chain_terms(pairs),
                                 naive_orbit_terms(pairs, shift))
        else:
            other = Chain(2)
            other_orbits = CoinvariantChain(2, psi=DEFAULT_PSI)
            for sx, coeff in pairs:
                other.add(sx, coeff)
                other_orbits.add(sx, coeff, shift=shift)
            chain = chain + other if op == "+" else chain - other
            orbits = orbits + other_orbits if op == "+" \
                else orbits - other_orbits
            sign = 1 if op == "+" else -1
            part = {k: sign * c for k, c in naive_chain_terms(pairs).items()}
            part_orbits = {k: sign * c for k, c
                           in naive_orbit_terms(pairs, shift).items()}
        for key, c in part.items():
            naive_add(want, key, c)
        for key, c in part_orbits.items():
            naive_add(want_orbits, key, c)
        for got, expect in ((chain, want), (orbits, want_orbits)):
            assert got.terms == expect
            assert all(type(c) is Fraction and c for c in got.terms.values())
