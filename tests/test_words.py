import random

import pytest
from hypothesis import given, settings, strategies as st

from cuspedforms.errors import PsiPowerCap
from cuspedforms.words import (COMM, COMM_INV, DEFAULT_PSI, MAX_WORD_LETTERS,
                               Automorphism, GroupElem, gamma_inv, gamma_mul,
                               coset_key, gamma_rel, h_coord, inv, mul,
                               parse_word, reduce_word, theta, word_pow)


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


def test_psi_fixed_word_costs_one_step(monkeypatch):
    # psi fixes [a,b], so every power of it returns after one step
    calls = []
    apply_once = Automorphism.apply_once

    def spy(self, w, forward=True):
        calls.append(forward)
        assert len(calls) <= 5, "more steps than the words need"
        return apply_once(self, w, forward)

    monkeypatch.setattr(Automorphism, "apply_once", spy)
    assert DEFAULT_PSI.apply(COMM * 5, 10 ** 9) == COMM * 5
    assert calls == [True]
    assert DEFAULT_PSI.apply(COMM_INV * 3, -10 ** 9) == COMM_INV * 3
    assert calls == [True, False]
    # a word that psi moves takes one step per power
    DEFAULT_PSI.apply("ab", 3)
    assert len(calls) == 5


def test_psi_abelianization_is_anosov():
    (aa, ab), (ba, bb) = DEFAULT_PSI.abelianization()
    assert (aa, ab, ba, bb) == (1, 1, 1, 2)
    assert aa * bb - ab * ba == 1
    assert aa + bb > 2  # trace > 2: hyperbolic on the torus


def test_gamma_normal_form():
    rng = random.Random(4)
    for _ in range(150):
        g = GroupElem(reduce_word(random_letters(rng, 8)), rng.randrange(-4, 5))
        h = GroupElem(reduce_word(random_letters(rng, 8)), rng.randrange(-4, 5))
        k = GroupElem(reduce_word(random_letters(rng, 8)), rng.randrange(-4, 5))
        assert gamma_mul(gamma_mul(g, h), k) == gamma_mul(g, gamma_mul(h, k))
        assert gamma_mul(g, gamma_inv(g)) == GroupElem("", 0)
        assert gamma_mul(gamma_inv(g), g) == GroupElem("", 0)
        assert theta(gamma_mul(g, h)) == theta(g) + theta(h)


reduced = st.lists(st.sampled_from("aAbB"), max_size=12).map(reduce_word)
elements = st.builds(GroupElem, reduced, st.integers(-6, 6))


@settings(max_examples=400, deadline=None)
@given(elements, elements, st.booleans())
def test_gamma_rel_matches_inverse_times_product(g, h, translate):
    # translate: h shares g as a prefix, the case anchoring is built for
    if translate:
        h = gamma_mul(g, h)
    rel = gamma_rel(g, h)
    assert rel == gamma_mul(gamma_inv(g), h)
    assert naive_reduce(rel.base) == rel.base


def test_t_conjugation_acts_by_psi():
    t = GroupElem("", 1)
    g = GroupElem("ab", 0)
    assert gamma_mul(gamma_mul(t, g), gamma_inv(t)) == GroupElem(
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
    v = gamma_mul(u, GroupElem(mul(word_pow(COMM, alpha), w), beta))
    (ku, au), (kv, av) = coset_key(u.base), coset_key(v.base)
    for g, k, a in ((u, ku, au), (v, kv, av)):
        assert mul(k, word_pow(COMM, a)) == g.base
    try:
        rel = h_coord(gamma_rel(u, v))
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
