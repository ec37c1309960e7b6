import random

import pytest
from hypothesis import given, settings, strategies as st

from cuspedforms import words
from cuspedforms.config import RunConfig
from cuspedforms.errors import PsiPowerCap
from cuspedforms.graph import random_gamma0_word
from cuspedforms.words import (COMM, COMM_INV, DEFAULT_PSI, MAX_WORD_LETTERS,
                               Automorphism, GroupElem, Heisenberg, gamma_inv,
                               gamma_mul, coset_key, gamma_rel, heis_image,
                               inv, mul, parse_word, reduce_word, word_pow)

from _oracles import (HOLONOMY_LETTERS, h_coord, holonomy, holonomy_cusp,
                      holonomy_t, unitriangular, zw_det, zw_mat_inv,
                      zw_mat_mul)


def naive_reduce(letters):
    """Quadratic reduction oracle: scan for adjacent inverse pairs until
    nothing cancels."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1].swapcase():
                del out[i:i + 2]
                changed = True
                break
    return "".join(out)


def random_letters(rng, n):
    return "".join(rng.choice("aAbB") for _ in range(n))


def test_reduce_matches_naive_oracle():
    rng = random.Random(0)
    for _ in range(300):
        raw = random_letters(rng, rng.randrange(0, 24))
        assert reduce_word(raw) == naive_reduce(raw)


def stack_mul(u, v):
    """The stack loop `mul` ran before it cancelled at the junction only."""
    out = list(u)
    for x in v:
        if out and out[-1] == x.swapcase():
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def stack_apply_once(psi, w, forward=True):
    """The stack loop `Automorphism.apply_once` ran before it reduced the
    joined images with `reduce_word`."""
    table = psi.images if forward else psi.inverse_images
    return stack_mul("", "".join(table[x] for x in w))


reduced = st.lists(st.sampled_from("aAbB"), max_size=12).map(reduce_word)


@settings(max_examples=400, deadline=None)
@given(reduced, reduced, st.booleans())
def test_mul_and_apply_once_match_stack_loops(u, v, share):
    # share: v starts with the inverse of a tail of u, so a long junction
    # cancels
    if share:
        v = mul(inv(u[len(u) // 2:]), v)
    assert mul(u, v) == stack_mul(u, v)
    for forward in (True, False):
        assert DEFAULT_PSI.apply_once(u, forward) == \
            stack_apply_once(DEFAULT_PSI, u, forward)


def test_mul_associative_and_inverse():
    rng = random.Random(1)
    for _ in range(200):
        u, v, w = (reduce_word(random_letters(rng, 10)) for _ in range(3))
        assert mul(mul(u, v), w) == mul(u, mul(v, w))
        assert mul(u, inv(u)) == ""
        assert mul(inv(u), u) == ""


def test_word_pow():
    assert word_pow("ab", 3) == "ababab"
    assert word_pow("ab", -2) == inv("abab")
    assert word_pow(COMM, 0) == ""


def mul_loop_pow(w, n):
    """word_pow as a loop of products, the oracle for the reduced repeat."""
    if n < 0:
        w, n = inv(w), -n
    out = ""
    for _ in range(n):
        out = mul(out, w)
    return out


def test_word_pow_matches_mul_loop():
    rng = random.Random(5)
    for _ in range(60):
        w = reduce_word(random_letters(rng, rng.randrange(0, 10)))
        for n in range(-6, 7):
            assert word_pow(w, n) == mul_loop_pow(w, n)


def test_parse_word():
    assert parse_word("e") == ""
    assert parse_word("aA") == ""
    assert parse_word("ab") == "ab"
    with pytest.raises(ValueError):
        parse_word("abc")


def nielsen_product(moves):
    """(psi(a), psi(b)) for the automorphism that applies each move
    (i, op, e, right) to the basis in turn: op 1 swaps the two entries and
    op 2 inverts entry i; then entry i becomes entry i times entry 1 - i to
    the power e, on the right if `right`, else on the left."""
    pair = ["a", "b"]
    for i, op, e, right in moves:
        if op == 1:
            pair.reverse()
        elif op == 2:
            pair[i] = inv(pair[i])
        x = pair[1 - i] if e > 0 else inv(pair[1 - i])
        pair[i] = mul(pair[i], x) if right else mul(x, pair[i])
    return {"a": pair[0], "b": pair[1]}


nielsen_moves = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                                   st.sampled_from((1, -1)), st.booleans()),
                         max_size=20)


@settings(max_examples=300, deadline=None)
@given(nielsen_moves)
def test_derived_inverse_inverts_nielsen_products(moves):
    psi = Automorphism(nielsen_product(moves))
    for g in "abAB":
        assert psi.apply_once(psi.apply_once(g), forward=False) == g
        assert psi.apply_once(psi.apply_once(g, forward=False)) == g


def test_derived_inverse_reproduces_the_known_inverses():
    assert DEFAULT_PSI.inverse_images["a"] == "Baa"
    assert DEFAULT_PSI.inverse_images["b"] == "Ab"
    squared = Automorphism({"a": "babba", "b": "babbabab"})
    assert squared.inverse_images["a"] == "BaBaaBaa"
    assert squared.inverse_images["b"] == "AAbAb"


def test_constructor_refuses_a_wrong_derived_inverse(monkeypatch):
    # the constructor checks the inverse it derives, both ways on a and b
    monkeypatch.setattr(words, "_invert", lambda images: {"a": "a", "b": "b"})
    with pytest.raises(ValueError,
                       match="derived inverse does not invert psi"):
        Automorphism({"a": "ba", "b": "bab"})


@pytest.mark.parametrize("images, message", [
    ({"a": "ab", "b": "ba"}, "not a basis"),
    ({"a": "aa", "b": "b"}, "not a basis"),
    ({"a": "e", "b": "ab"}, "not a basis"),
    ({"a": "ba"}, "exactly the keys a and b"),
    ({"a": "ba", "b": "bab", "A": "AB"}, "exactly the keys a and b"),
    ({"a": "bc", "b": "bab"}, "bad letter 'c'"),
])
def test_bad_images_are_rejected(images, message):
    with pytest.raises(ValueError, match=message):
        Automorphism(images)


def test_default_psi_images():
    assert DEFAULT_PSI.apply("a", 1) == "ba"
    assert DEFAULT_PSI.apply("b", 1) == "bab"
    assert DEFAULT_PSI.apply("a", -1) == "Baa"
    assert DEFAULT_PSI.apply("b", -1) == "Ab"


def test_psi_fixes_commutator_and_inverts():
    assert DEFAULT_PSI.apply(COMM, 1) == COMM
    assert DEFAULT_PSI.apply(COMM, -1) == COMM
    rng = random.Random(2)
    for _ in range(100):
        w = reduce_word(random_letters(rng, 16))
        assert DEFAULT_PSI.apply(DEFAULT_PSI.apply(w, 3), -3) == w


def test_psi_is_homomorphism():
    rng = random.Random(3)
    for _ in range(100):
        u = reduce_word(random_letters(rng, 12))
        v = reduce_word(random_letters(rng, 12))
        assert DEFAULT_PSI.apply(mul(u, v), 2) == mul(
            DEFAULT_PSI.apply(u, 2), DEFAULT_PSI.apply(v, 2))


def test_psi_power_cap():
    # |psi^k(a)| is the Fibonacci number F_(2k+1): psi^14(a) fits in
    # MAX_WORD_LETTERS letters, psi^15(a) does not
    assert len(DEFAULT_PSI.apply("a", 14)) == 514229 <= MAX_WORD_LETTERS
    with pytest.raises(PsiPowerCap, match=r"psi\^15 builds"):
        DEFAULT_PSI.apply("a", 15)


def apply_once_spy(monkeypatch, limit=None):
    """The directions of every `Automorphism.apply_once` step from now on."""
    calls = []
    apply_once = Automorphism.apply_once

    def spy(self, w, forward=True):
        calls.append(forward)
        assert limit is None or len(calls) <= limit, \
            "more steps than the words need"
        return apply_once(self, w, forward)

    monkeypatch.setattr(Automorphism, "apply_once", spy)
    return calls


def test_psi_fixed_word_costs_one_step(monkeypatch):
    # psi fixes [a,b], so every power of it returns after one step.  A fresh
    # automorphism with the default images: DEFAULT_PSI's memo may already
    # hold these answers from earlier tests
    psi = Automorphism({"a": "ba", "b": "bab"})
    calls = apply_once_spy(monkeypatch, limit=5)
    assert psi.apply(COMM * 5, 10 ** 9) == COMM * 5
    assert calls == [True]
    assert psi.apply(COMM_INV * 3, -10 ** 9) == COMM_INV * 3
    assert calls == [True, False]
    # a word that psi moves takes one step per power
    psi.apply("ab", 3)
    assert len(calls) == 5


@settings(max_examples=300, deadline=None)
@given(reduced, st.integers(1, 6))
def test_psi_memo_gives_first_answers(w, k):
    # the process-wide memo of DEFAULT_PSI against a fresh automorphism's
    # first answer, for both signs of the power
    for power in (k, -k):
        fresh = Automorphism({"a": "ba", "b": "bab"})
        assert DEFAULT_PSI.apply(w, power) == fresh.apply(w, power)


def test_psi_memo_answers_a_repeat_without_a_step(monkeypatch):
    psi = Automorphism({"a": "ba", "b": "bab"})
    first = psi.apply("ab", 3)
    back = psi.apply(first, -3)
    calls = apply_once_spy(monkeypatch)
    assert psi.apply("ab", 3) == first
    assert psi.apply(first, -3) == back == "ab"
    assert psi.apply("ab", 0) == "ab"
    assert calls == []
    assert set(psi._apply_cache) == {("ab", 3), (first, -3)}


def test_psi_memo_keeps_nothing_of_a_capped_call():
    for _ in range(2):
        with pytest.raises(PsiPowerCap, match=r"psi\^15 builds"):
            DEFAULT_PSI.apply("a", 15)
    assert ("a", 15) not in DEFAULT_PSI._apply_cache


def test_psi_memo_is_per_automorphism():
    psi2 = RunConfig(psi_images={"a": "babba", "b": "babbabab"}).psi()
    assert DEFAULT_PSI.apply("ab", 1) == "babab"
    assert psi2.apply("ab", 1) == "babbababbabab"
    assert DEFAULT_PSI._apply_cache[("ab", 1)] == "babab"
    assert psi2._apply_cache == {("ab", 1): "babbababbabab"}


def test_psi_abelianization_is_anosov():
    # column per generator: the exponent sums of a and b in psi(a), psi(b)
    (aa, ba), (ab, bb) = ((w.count("a") - w.count("A"),
                           w.count("b") - w.count("B"))
                          for w in (DEFAULT_PSI.images["a"],
                                    DEFAULT_PSI.images["b"]))
    assert (aa, ab, ba, bb) == (1, 1, 1, 2)
    assert aa * bb - ab * ba == 1
    assert aa + bb > 2  # trace > 2: hyperbolic on the torus


def test_gamma_normal_form():
    rng = random.Random(4)
    for _ in range(150):
        g = GroupElem(reduce_word(random_letters(rng, 8)), rng.randrange(-4, 5))
        h = GroupElem(reduce_word(random_letters(rng, 8)), rng.randrange(-4, 5))
        k = GroupElem(reduce_word(random_letters(rng, 8)), rng.randrange(-4, 5))
        assert gmul(gmul(g, h), k) == gmul(g, gmul(h, k))
        assert gmul(g, gamma_inv(g, DEFAULT_PSI)) == GroupElem("", 0)
        assert gmul(gamma_inv(g, DEFAULT_PSI), g) == GroupElem("", 0)
        assert gmul(g, h).texp == g.texp + h.texp


def gmul(g, h):
    """The product of G under the default twist."""
    return gamma_mul(g, h, DEFAULT_PSI)


elements = st.builds(GroupElem, reduced, st.integers(-6, 6))


@settings(max_examples=400, deadline=None)
@given(elements, elements, st.booleans())
def test_gamma_rel_matches_inverse_times_product(g, h, translate):
    # translate: h shares g as a prefix, the case anchoring is built for
    if translate:
        h = gmul(g, h)
    rel = gamma_rel(g, h, DEFAULT_PSI)
    assert rel == gmul(gamma_inv(g, DEFAULT_PSI), h)
    assert naive_reduce(rel.base) == rel.base


def test_t_conjugation_acts_by_psi():
    t = GroupElem("", 1)
    g = GroupElem("ab", 0)
    assert gmul(gmul(t, g), gamma_inv(t, DEFAULT_PSI)) == GroupElem(
        DEFAULT_PSI.apply("ab", 1), 0)


def test_h_coord():
    assert h_coord(GroupElem(word_pow(COMM, 3), -2)) == (3, -2)
    assert h_coord(GroupElem(word_pow(COMM, -2), 1)) == (-2, 1)
    assert h_coord(GroupElem("", 5)) == (0, 5)
    # [a,b] is cyclically reduced: its powers are plain repeats
    assert COMM_INV == inv(COMM)
    for n in range(1, 6):
        assert word_pow(COMM, n) == COMM * n
        assert word_pow(COMM, -n) == COMM_INV * n
    with pytest.raises(ValueError):
        h_coord(GroupElem("ABababab", 0))
    with pytest.raises(ValueError):
        h_coord(GroupElem("ab", 0))


# v = u * [a,b]^alpha * t^beta * w: the same coset of <[a,b], t> as u when
# w is empty (or peripheral), mostly another one otherwise
coset_steps = st.tuples(st.integers(-5, 5), st.integers(-3, 3),
                        st.one_of(st.just(""), reduced))


@settings(max_examples=400, deadline=None)
@given(elements, coset_steps)
def test_coset_key_names_the_coset(u, step):
    alpha, beta, w = step
    v = gmul(u, GroupElem(mul(word_pow(COMM, alpha), w), beta))
    (ku, au), (kv, av) = coset_key(u.base), coset_key(v.base)
    for g, k, a in ((u, ku, au), (v, kv, av)):
        assert mul(k, word_pow(COMM, a)) == g.base
    try:
        rel = h_coord(gamma_rel(u, v, DEFAULT_PSI))
    except ValueError:
        rel = None
    assert (ku == kv) == (rel is not None)
    if rel is not None:
        assert rel == (av - au, v.texp - u.texp)


def test_coset_key_is_the_least_word_of_the_coset():
    rng = random.Random(14)
    for _ in range(300):
        w = reduce_word(rng.choice("aAbB") for _ in range(rng.randrange(9)))
        w = mul(w, word_pow(COMM, rng.randrange(-3, 4)))
        key, _ = coset_key(w)
        coset = [mul(w, word_pow(COMM, j)) for j in range(-6, 7)]
        assert key == min(coset, key=lambda x: (len(x), x))


def test_holonomy_oracle_is_a_representation_of_gamma():
    # determinant 1, and conjugation by rho(t) acts as psi on a and b
    for x in "abAB":
        assert zw_det(HOLONOMY_LETTERS[x]) == (1, 0)
    assert zw_det(holonomy_t(1)) == (1, 0)
    for x in "ab":
        conj = zw_mat_mul(zw_mat_mul(holonomy_t(1), HOLONOMY_LETTERS[x]),
                          holonomy_t(-1))
        assert conj == holonomy(GroupElem(DEFAULT_PSI.images[x], 0))
    # rho([a,b]) = [[-1, 4 + 2 omega], [0, -1]] is parabolic and fixes
    # infinity, as rho(t) does
    assert holonomy(GroupElem(COMM, 0)) == ((-1, 0), (4, 2), (0, 0), (-1, 0))


@settings(max_examples=300, deadline=None)
@given(elements, elements)
def test_group_law_agrees_with_the_holonomy(g, h):
    # the holonomy reads words letter by letter, with no psi-power
    rg, rh = holonomy(g), holonomy(h)
    assert holonomy(gmul(g, h)) == zw_mat_mul(rg, rh)
    assert holonomy(gamma_inv(g, DEFAULT_PSI)) == zw_mat_inv(rg)
    assert holonomy(gamma_rel(g, h, DEFAULT_PSI)) == \
        zw_mat_mul(zw_mat_inv(rg), rh)


@settings(max_examples=300, deadline=None)
@given(reduced, st.integers(-5, 5), st.one_of(st.just(""), reduced))
def test_coset_key_agrees_with_the_holonomy_cusp(u, alpha, w):
    # two words share a coset of <[a,b], t> exactly when their images of
    # infinity under the holonomy agree
    v = mul(mul(u, word_pow(COMM, alpha)), w)
    assert (coset_key(u)[0] == coset_key(v)[0]) == \
        (holonomy_cusp(u) == holonomy_cusp(v))


#: the default twist and another automorphism that fixes [a,b] exactly,
#: with abelianization (2 1; 1 1)
FIXING_COMM = {"default": DEFAULT_PSI,
               "aba-ab": Automorphism({"a": "aba", "b": "ab"})}


@pytest.mark.parametrize("name", sorted(FIXING_COMM))
def test_heisenberg_image_is_a_homomorphism_that_commutes_with_psi(name):
    # the Heisenberg shadow rests on these: H = F / gamma_3(F) is a
    # quotient, and psibar^k(image(w)) = image(psi^k(w)) at each power
    psi = FIXING_COMM[name]
    quotient = Heisenberg(psi)
    assert psi.apply_once(COMM) == COMM
    assert heis_image(COMM) == (0, 0, 1)
    identity = heis_image("")
    rng = random.Random(29)
    for _ in range(150):
        u, v = random_gamma0_word(rng, 8), random_gamma0_word(rng, 8)
        hu, hv = heis_image(u), heis_image(v)
        # the matrix oracle is a homomorphism, so image(uv) = image(u)
        # image(v) follows from image = oracle on every word
        assert hu == unitriangular(u)
        assert heis_image(mul(u, v)) == unitriangular(mul(u, v))
        for k in range(-3, 4):
            assert quotient.relative(identity, hu, -k) == heis_image(
                psi.apply(u, k)), (u, k)
            assert quotient.relative(hu, hv, k) == heis_image(
                psi.apply(mul(inv(u), v), -k)), (u, v, k)
