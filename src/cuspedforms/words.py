"""Exact arithmetic in the free group F(a,b), its twist automorphism, and the
semidirect product G = F(a,b) x| Z.

Words are plain strings over the alphabet {a, A, b, B} (uppercase = inverse);
the empty string is the identity, printed as "e".  Elements of the semidirect
product are pairs (base, texp) in normal form g0 * t^k, multiplied with the
twisted rule (g0 t^k)(h0 t^l) = (g0 * psi^k(h0)) t^(k+l).

The group law applies psi-powers to short words, and the same pairs (word,
power) recur, so `Automorphism.apply` memoises them (see there).
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple

from .errors import PsiPowerCap

GENERATORS = "ab"
LETTERS = "aAbB"

#: the commutator [a,b] = a^-1 b^-1 a b, and its inverse; both are
#: cyclically reduced, so [a,b]^n is COMM * n and [a,b]^-n is COMM_INV * n
COMM = "ABab"
COMM_INV = "BAba"

#: longest word a psi-power may build; one step past it raises PsiPowerCap.
#: |psi^k(a)| is the Fibonacci number F_(2k+1), so this stops psi^15(a).
MAX_WORD_LETTERS = 2 ** 20


def reduce_word(letters: Iterable[str]) -> str:
    """Freely reduce a letter sequence (stack-based, single pass)."""
    out: list[str] = []
    for x in letters:
        if out and out[-1] == x.swapcase():
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def mul(u: str, v: str) -> str:
    """Product of two reduced words, reduced: only the junction cancels."""
    k, n = 0, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k].swapcase():
        k += 1
    return u[:len(u) - k] + v[k:]


def inv(w: str) -> str:
    return w.swapcase()[::-1]


def word_pow(w: str, n: int) -> str:
    return reduce_word((w if n >= 0 else inv(w)) * abs(n))


def parse_word(text: str) -> str:
    """Parse the text encoding: letters aAbB, with "e" for the identity."""
    if text == "e" or text == "":
        return ""
    for x in text:
        if x not in LETTERS:
            raise ValueError(f"bad letter {x!r} in word {text!r}")
    return reduce_word(text)


def format_word(w: str) -> str:
    return w if w else "e"


class Automorphism:
    """An automorphism of F(a,b) given by the images of the generators; its
    inverse is derived (`_invert`) and checked.  Iterated application reduces
    at every step, so intermediate words never outgrow the reduced images.

    `apply` memoises psi^power(word) in `_apply_cache`, keyed by (word,
    power) with the power's sign, for every power but 0.  The automorphism
    never changes once built, so the memo changes no answer.  On
    `DEFAULT_PSI` it is process-wide, shared by every graph on the default
    twist.  A call that raises PsiPowerCap stores nothing.
    """

    def __init__(self, images: dict[str, str]):
        if sorted(images) != list(GENERATORS):
            raise ValueError(f"psi images need exactly the keys a and b, "
                             f"got {sorted(images)}")
        self.images = {g: parse_word(images[g]) for g in GENERATORS}
        self.inverse_images = _invert(self.images)
        for table in (self.images, self.inverse_images):
            table["A"] = inv(table["a"])
            table["B"] = inv(table["b"])
        if any(self.apply_once(self.apply_once(g, fwd), not fwd) != g
               for g in GENERATORS for fwd in (True, False)):
            raise ValueError("derived inverse does not invert psi")
        self._apply_cache: dict[tuple[str, int], str] = {}

    def apply_once(self, w: str, forward: bool = True) -> str:
        table = self.images if forward else self.inverse_images
        return reduce_word("".join(table[x] for x in w))

    def apply(self, w: str, power: int) -> str:
        """psi^power(w), memoised for power != 0.  A step that leaves the
        word unchanged ends the loop, since every later step would too; a
        step that builds more than MAX_WORD_LETTERS letters raises
        PsiPowerCap."""
        if power == 0:
            return w
        key = (w, power)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        forward = power > 0
        for _ in range(abs(power)):
            out = self.apply_once(w, forward)
            if out == w:
                break
            if len(out) > MAX_WORD_LETTERS:
                raise PsiPowerCap(f"psi^{power} builds a word of more than "
                                  f"{MAX_WORD_LETTERS} letters")
            w = out
        self._apply_cache[key] = w
        return w


def _invert(images: dict[str, str]) -> dict[str, str]:
    """The images of a and b under psi^-1, by greedy Nielsen reduction of
    the basis (psi(a), psi(b)).  Each entry is a word and its preimage; a
    move u <- u v^+-1 or v^+-1 u that shortens u is taken while the words
    have more than two letters in all.  In F(a,b) every other basis admits
    such a move, so the reduction ends at two letters, one per generator,
    whose preimages are psi^-1 of them or of their inverses."""
    pair = [(images["a"], "a"), (images["b"], "b")]
    while len(pair[0][0]) + len(pair[1][0]) > 2:
        for i in (0, 1):
            move = _shorter(*pair[i], *pair[1 - i])
            if move:
                pair[i] = move
                break
        else:
            break
    if sorted(w.lower() for w, _ in pair) != list(GENERATORS):
        raise ValueError(f"psi images {format_word(images['a'])}, "
                         f"{format_word(images['b'])} are not a basis of "
                         f"F(a,b)")
    return {w.lower(): p if w.islower() else inv(p) for w, p in pair}


def _shorter(u: str, pu: str, v: str, pv: str) -> tuple[str, str] | None:
    """A product u v^+-1 or v^+-1 u shorter than u, with its preimage."""
    for x, px in ((v, pv), (inv(v), inv(pv))):
        if len(mul(u, x)) < len(u):
            return mul(u, x), mul(pu, px)
        if len(mul(x, u)) < len(u):
            return mul(x, u), mul(px, pu)
    return None


#: Default twist: psi(a) = ba, psi(b) = bab, so psi^-1(a) = Baa and
#: psi^-1(b) = Ab.  Fixes [a,b] exactly and has Anosov abelianization
#: (1 1; 1 2).
DEFAULT_PSI = Automorphism({"a": "ba", "b": "bab"})


class GroupElem(NamedTuple):
    """Element of G = F(a,b) x| Z in normal form base * t^texp."""

    base: str
    texp: int

    def __str__(self) -> str:
        return f"{format_word(self.base)}@{self.texp}"


def gamma_mul(g: GroupElem, h: GroupElem, psi: Automorphism) -> GroupElem:
    return GroupElem(mul(g.base, psi.apply(h.base, g.texp)), g.texp + h.texp)


def gamma_inv(g: GroupElem, psi: Automorphism) -> GroupElem:
    # (g0 t^k)^-1 = psi^-k(g0^-1) t^-k
    return GroupElem(psi.apply(inv(g.base), -g.texp), -g.texp)


def gamma_rel(g: GroupElem, h: GroupElem, psi: Automorphism) -> GroupElem:
    """g^-1 h.  For g = g0 t^k and h = h0 t^l this is psi^-k(g0^-1 h0)
    t^(l-k): the common prefix of g0 and h0 cancels before psi^-k is
    applied, so a short relative word of two long translates stays cheap.
    Past the prefix, g0 and h0 differ in their next letters, so
    inv(g0[k:]) + h0[k:] is already reduced.  g and h may be anything with
    a base and a t-exponent, a cusped-graph vertex included."""
    u, v = g.base, h.base
    k, n = 0, min(len(u), len(v))
    while k < n and u[k] == v[k]:
        k += 1
    return GroupElem(psi.apply(inv(u[k:]) + v[k:], -g.texp),
                     h.texp - g.texp)


def coset_key(w: str) -> tuple[str, int]:
    """(key, alpha) with w = key * [a,b]^alpha and key the (length,
    lex)-least word of the coset w * <[a,b]>.  So g = w t^beta lies in the
    left coset of <[a,b], t> named by key, at lattice point (alpha, beta):
    two elements share a coset exactly when their keys agree, and then
    g^-1 h = [a,b]^alpha t^beta with (alpha, beta) the difference of their
    lattice points.

    Stripping the trailing [a,b]^(+-1) blocks leaves a word w0 that ends in
    neither block, so w0 * [a,b]^j cancels at most 3 letters and is longer
    than w0 for |j| >= 2; the key is the least of w0 [a,b]^-1, w0, w0 [a,b],
    which differ from w0 in its last 4 letters only."""
    end, alpha = len(w), 0
    for block, sign in ((COMM, 1), (COMM_INV, -1)):
        while w.endswith(block, 0, end):
            end -= 4
            alpha += sign
    cut = max(end - 4, 0)
    tail = w[cut:end]
    key_tail, j = _least_shift(tail)
    key = w if key_tail == tail and end == len(w) else w[:cut] + key_tail
    return key, alpha - j


def heis_image(w: str) -> tuple[int, int, int]:
    """The image (x, y, z) of w in the Heisenberg group H = F / gamma_3(F)
    (Magnus-Karrass-Solitar, Combinatorial Group Theory, ch. 5), whose law
    is (x1, y1, z1)(x2, y2, z2) = (x1 + x2, y1 + y2, z1 + z2 + x1 y2): a and
    b map to (1, 0, 0) and (0, 1, 0), and [a,b] to the central c = (0, 0,
    1).  One scan of the letters."""
    x = y = z = 0
    for ch in w:
        if ch == "a":
            x += 1
        elif ch == "A":
            x -= 1
        elif ch == "b":
            z += x
            y += 1
        else:
            z -= x
            y -= 1
    return x, y, z


class Heisenberg:
    """The quotient Gamma / gamma_3(F) = H x|_psibar Z of Gamma = F x|_psi Z.
    gamma_3(F) is characteristic, so psi induces psibar on H (`heis_image`),
    and psibar fixes c since psi fixes [a,b].  So every power of psibar is
    read off its images of a and b: psibar^k(x, y, z) = psibar^k(a)^x
    psibar^k(b)^y c^(z - xy), with (p, q, r)^n = (np, nq, nr + pq n(n-1)/2).
    psibar and its inverse come from the images of psi and of psi^-1."""

    def __init__(self, psi: Automorphism):
        self._powers = {0: ((1, 0, 0), (0, 1, 0))}
        for k, table in ((1, psi.images), (-1, psi.inverse_images)):
            self._powers[k] = (heis_image(table["a"]), heis_image(table["b"]))

    def power(self, k: int) -> tuple[tuple, tuple]:
        """(psibar^k(a), psibar^k(b)), memoised: one psibar^+-1 step per
        power from the nearest one known."""
        powers = self._powers
        if k not in powers:
            sign = 1 if k > 0 else -1
            j = k
            while j not in powers:
                j -= sign
            while j != k:
                a, b = powers[j]
                j += sign
                powers[j] = (_heis_apply(powers[sign], a),
                             _heis_apply(powers[sign], b))
        return powers[k]

    def relative(self, g: tuple, h: tuple, k: int) -> tuple[int, int, int]:
        """psibar^-k(g^-1 h), the H part of (g, k)^-1 (h, l)."""
        x, y = h[0] - g[0], h[1] - g[1]
        rel = (x, y, h[2] - g[2] - g[0] * y)
        return _heis_apply(self.power(-k), rel) if k else rel


def _heis_apply(images: tuple[tuple, tuple], h: tuple) -> tuple[int, int, int]:
    """The image of h = (x, y, z) under the automorphism of H that fixes c
    and maps a and b to `images`: images[0]^x images[1]^y c^(z - xy)."""
    (p1, q1, r1), (p2, q2, r2) = images
    x, y, z = h
    return (x * p1 + y * p2, x * q1 + y * q2,
            x * r1 + p1 * q1 * (x * (x - 1) // 2) + y * r2
            + p2 * q2 * (y * (y - 1) // 2) + x * p1 * y * q2 + z - x * y)


@cache
def _least_shift(tail: str) -> tuple[str, int]:
    """The (length, lex)-least tail * [a,b]^j over j in {-1, 0, 1}, and j.
    A memo of at most 161 tails (the reduced words of up to 4 letters); it
    reduces the concatenations itself, so that which tails a process has
    seen before never changes its count of `mul` calls."""
    return min(((reduce_word(tail + COMM_INV), -1), (tail, 0),
                (reduce_word(tail + COMM), 1)),
               key=lambda c: (len(c[0]), c[0]))
