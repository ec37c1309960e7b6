"""Volume-form quasi-cocycles alpha_f, the explicit cycles c, d_m, e_m, A_m,
and the defect / certificate machinery built on top of them.

alpha_f is linear in f.  Every simplex read, a raw triple, a canonical triple
or a raw 4-tuple, gets one cached `LinearForm`; a 4-tuple's is delta alpha_f,
the alternating sum of its faces' forms."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable

from .chains import CoinvariantChain
from .errors import DegreeOverflow
from .fill import FillEngine
from .graph import (CuspedGraph, Simplex, Vertex, anchor_face,
                    random_gamma0_word, relative_table)
from .lipschitz import LipFn, lip_on_window, lip_tail, truncate
from .lp import row_reduce
from .moebius import OrientationCocycle
from .words import COMM, Automorphism, GroupElem, mul, word_pow

Triple = tuple[Vertex, Vertex, Vertex]
#: (t-exponent x, weight w) pairs, x increasing
Weights = tuple[tuple[int, Fraction], ...]
#: alpha_f as a linear form in the values of f: (weights, span) with
#: alpha_f = sum of w * f(x) over the weights, for every f, and span the
#: least and greatest t-exponents that its fillings touch
LinearForm = tuple[Weights, tuple[int, ...]]
#: the largest truncation level `bah_upper_bound_certificate` tries
CERTIFICATE_N_MAX = 16
#: the largest radius `bah_upper_bound_certificate` takes: radius 4 has
#: 682,640 triples, radius 5 has 18,896,570
CERTIFICATE_RADIUS_MAX = 4
#: the positions of the faces of a simplex: a triple is its own face, and
#: face i of a 4-tuple leaves out vertex i
_TRIPLE = ((0, 1, 2),)
_FACES = tuple(tuple(j for j in range(4) if j != i) for i in range(4))


def _sum_forms(parts: Iterable[tuple[LinearForm, int, Fraction]]
               ) -> LinearForm:
    """The sum of coeff * form moved up by shift over the (form, shift,
    coeff) parts: the weights add at x + shift, and the span runs from the
    least to the greatest shifted span end."""
    weights: dict[int, Fraction] = {}
    touched: list[int] = []
    for (terms, span), shift, coeff in parts:
        touched += [x + shift for x in span]
        for x, w in terms:
            weights[x + shift] = weights.get(x + shift, 0) + coeff * w
    span = (min(touched), max(touched)) if touched else ()
    return tuple((x, w) for x, w in sorted(weights.items()) if w), span


class QuasiCocycle:
    """alpha_f over a fill engine.  alpha_f(x0, x1, x2) is the sum over the
    filling's faces of coeff * eps(face) * (f at the face's t-exponents) / 3,
    which is linear in the values of f: `form` reads it once per triple as
    a `LinearForm`, and every value of alpha is that form evaluated.

    One cache holds it: `_anchor_cache` maps every simplex read (a raw
    triple or 4-tuple, or a canonical triple of `graph.anchor_simplex`) to
    its form at its own t-exponents, the canonical forms of its faces with
    the anchorings' signs and t-shifts folded in.  A canonical triple
    anchors to itself with sign +1 and shift 0, so its one entry is the
    form of its filling, read raw or as a face, and a simplex or an orbit
    seen before costs one lookup.  A face with a repeated vertex adds
    nothing."""

    def __init__(self, engine: FillEngine):
        self.engine = engine
        self.graph = engine.graph
        self.eps = OrientationCocycle()
        self._anchor_cache: dict[Simplex, LinearForm] = {}
        self._am_cache: dict[int, tuple[CoinvariantChain, LinearForm]] = {}
        self.theta_lo: int | None = None  # theta window touched since reset
        self.theta_hi: int | None = None

    def reset_window(self) -> None:
        self.theta_lo = self.theta_hi = None

    def form(self, x0: Vertex, x1: Vertex, x2: Vertex) -> LinearForm:
        """The form with alpha_f(x0, x1, x2) = evaluate(f, form) for every
        f: the anchored filling's form, moved up by the t-exponent of the
        element that translates it to the filling, since eps is invariant
        under the whole group action.  The span covers every face, eps = 0
        faces included."""
        return self._simplex_form((x0, x1, x2), _TRIPLE)

    def _simplex_form(self, pts: Simplex,
                      faces: tuple[tuple[int, ...], ...]) -> LinearForm:
        """The sum of (-1)^i * the form of face i of `pts`, over the faces
        with distinct vertices, cached in `_anchor_cache`.  Every face is
        anchored off one `graph.relative_table` of `pts`."""
        hit = self._anchor_cache.get(pts)
        if hit is None:
            table = relative_table(pts, self.graph.psi)
            parts = []
            for i, positions in enumerate(faces):
                if len({pts[j] for j in positions}) == 3:
                    canon, sign, g = anchor_face(pts, table, positions)
                    parts.append((self._read(canon), g.texp,
                                  sign * (-1) ** i))
            hit = self._anchor_cache[pts] = _sum_forms(parts)
        return hit

    def _read(self, canon: Triple) -> LinearForm:
        """The form of the filling of a canonical triple, cached in
        `_anchor_cache` under the triple: its form as a raw simplex too."""
        form = self._anchor_cache.get(canon)
        if form is None:
            chain = self.engine.canonical_fill(canon).chain
            weights: dict[int, Fraction] = {}
            for face, c in chain.terms.items():
                e = self.eps.on_words(*(v.base for v in face))
                if e:
                    for v in face:
                        weights[v.texp] = weights.get(v.texp, 0) + c * e
            xs = [v.texp for face in chain.terms for v in face]
            form = self._anchor_cache[canon] = (
                tuple((x, w / 3) for x, w in sorted(weights.items()) if w),
                (min(xs), max(xs)) if xs else ())
        return form

    def alpha(self, f: LipFn, x0: Vertex, x1: Vertex, x2: Vertex) -> Fraction:
        return self.evaluate(f, self.form(x0, x1, x2))

    def linear_form(self, chain: CoinvariantChain) -> LinearForm:
        """alpha_f on a coinvariant 2-chain, for every f at once: the sum of
        the forms of its canonical keys, read as they stand (`_read`).  A key
        (k, s) is moved up by k: alpha_f(t^k . s) = alpha_{f(. + k)}(s)."""
        return _sum_forms((self._read(sx), k, coeff)
                          for (k, sx), coeff in chain.terms.items())

    def evaluate(self, f: LipFn, form: LinearForm) -> Fraction:
        """sum of w * f(x) over the form's weights; the form's span widens
        the theta window."""
        weights, span = form
        if span:
            lo, hi = span
            if self.theta_lo is None:
                self.theta_lo, self.theta_hi = lo, hi
            else:
                self.theta_lo = min(self.theta_lo, lo)
                self.theta_hi = max(self.theta_hi, hi)
        return sum((w * f(x) for x, w in weights), Fraction(0))

    def delta_alpha(self, f: LipFn, x0: Vertex, x1: Vertex, x2: Vertex,
                    x3: Vertex) -> Fraction:
        """sum of (-1)^i alpha_f(face i), face i leaving out x_i: one
        evaluation of the 4-tuple's form, the alternating sum of its
        faces' forms."""
        return self.evaluate(f, self._simplex_form((x0, x1, x2, x3), _FACES))


# -- explicit cycles ---------------------------------------------------------


def _v(base: str, texp: int = 0, depth: int = 0) -> Vertex:
    return Vertex(base, texp, depth)


def boundary_class(psi: Automorphism) -> CoinvariantChain:
    """The 1-class of ((e,0), ([a,b],0)); this is the boundary of c."""
    out = CoinvariantChain(1, psi=psi)
    out.add((_v(""), _v(COMM)), 1)
    return out


def build_c(psi: Automorphism) -> CoinvariantChain:
    out = CoinvariantChain(2, psi=psi)
    out.add((_v(""), _v("b"), _v("ba")), 1)
    out.add((_v(""), _v("ba"), _v("ab")), 1)
    out.add((_v(""), _v("ab"), _v("a")), 1)
    return out


def k_of(m: int) -> int:
    """K_m = floor(log2 m) + 1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return m.bit_length()


def depth_of(graph: CuspedGraph, m: int) -> int:
    """K_m, the depth of A_m's horoball vertices, checked against the
    graph's depth cap before any word of A_m is built."""
    K = k_of(m)
    if K > graph.depth_cap:
        raise DegreeOverflow(f"depth {K} exceeds cap {graph.depth_cap}")
    return K


def build_aK(K: int, psi: Automorphism) -> CoinvariantChain:
    out = CoinvariantChain(1, psi=psi)
    out.add((_v("", 0, K), _v(word_pow(COMM, 2 ** K), 0, K)),
            Fraction(1, 2 ** K))
    return out


def build_d(m: int, psi: Automorphism) -> CoinvariantChain:
    out = CoinvariantChain(2, psi=psi)
    for i in range(k_of(m)):
        w_i = word_pow(COMM, 2 ** i)
        w_i1 = word_pow(COMM, 2 ** (i + 1))
        coeff = Fraction(1, 2 ** (i + 1))
        out.add((_v("", 0, i), _v("", 0, i + 1), _v(w_i, 0, i)), coeff)
        out.add((_v(w_i, 0, i), _v("", 0, i + 1), _v(w_i1, 0, i + 1)), coeff)
        out.add((_v(w_i, 0, i), _v(w_i1, 0, i + 1), _v(w_i1, 0, i)), coeff)
    return out


def build_e(m: int, psi: Automorphism) -> CoinvariantChain:
    K = k_of(m)
    w = word_pow(COMM, 2 ** K)
    # t^m [a,b]^{2^K} = [a,b]^{2^K} t^m since psi fixes the commutator
    out = CoinvariantChain(2, psi=psi)
    coeff = Fraction(1, 2 ** K)
    out.add((_v("", 0, K), _v(w, m, K), _v("", m, K)), coeff)
    out.add((_v("", 0, K), _v(w, 0, K), _v(w, m, K)), coeff)
    return out


def build_A(graph: CuspedGraph, m: int) -> CoinvariantChain:
    """A_m = t^m (c + d_m) - (c + d_m) + e_m; the t^m-translate only shifts
    the keys, and e_m holds psi-fixed commutator words only."""
    depth_of(graph, m)
    psi = graph.psi
    cd = build_c(psi) + build_d(m, psi)
    return cd.translate(graph, GroupElem("", m)) - cd + build_e(m, psi)


def _am(qc: QuasiCocycle, m: int) -> tuple[CoinvariantChain, LinearForm]:
    hit = qc._am_cache.get(m)
    if hit is None:
        chain = build_A(qc.graph, m)
        hit = (chain, qc.linear_form(chain))
        qc._am_cache[m] = hit
    return hit


def evaluate_on_Am(qc: QuasiCocycle, f: LipFn, m: int) -> Fraction:
    return qc.evaluate(f, _am(qc, m)[1])


# -- sampling ----------------------------------------------------------------

STRATA = ("cayley", "mixed", "cross")


def sample_vertex(rng: random.Random, stratum: str) -> Vertex:
    base = Vertex(random_gamma0_word(rng, 6), rng.randrange(-3, 4), 0)
    if stratum == "cayley":
        return base
    if stratum == "mixed":
        return base._replace(depth=rng.randrange(0, 3))
    # cross: sit just outside a horoball wall so nearby tuples straddle cosets
    shifted = mul(base.base, rng.choice(("a", "b", "A", "B")))
    return Vertex(shifted, base.texp, rng.randrange(0, 2))


def sample_tuple(graph: CuspedGraph, rng: random.Random, stratum: str,
                 size: int) -> tuple[Vertex, ...]:
    """size vertices within a few steps of a common base, per stratum."""
    base = sample_vertex(rng, stratum)
    out = [base]
    for _ in range(size - 1):
        v = out[rng.randrange(len(out))]
        for _ in range(rng.randrange(1, 3)):
            nbrs = graph.neighbors(v)
            if stratum == "cayley":
                nbrs = [u for u in nbrs if u.depth == 0] or nbrs
            v = nbrs[rng.randrange(len(nbrs))]
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class DefectReport:
    seed: int
    count: int
    strata: tuple[str, ...]
    max_abs_delta: Fraction
    lip_window: Fraction
    ratio_to_lip: Fraction
    argmax: tuple[str, ...]
    theta_window: tuple[int, int]


def _check_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")


def defect_scan(qc: QuasiCocycle, f: LipFn, count: int,
                seed: int) -> DefectReport:
    """Max |delta alpha_f| over `count` seeded 4-tuples drawn from the three
    strata in rotation; ratio is against the lip constant on the theta window
    actually touched."""
    _check_count(count)
    rng = random.Random(seed)
    qc.reset_window()
    best = Fraction(0)
    argmax: tuple[Vertex, ...] | None = None
    for idx in range(count):
        pts = sample_tuple(qc.graph, rng, STRATA[idx % len(STRATA)], 4)
        val = abs(qc.delta_alpha(f, *pts))
        if val > best or argmax is None:
            best, argmax = val, pts
    lo = qc.theta_lo if qc.theta_lo is not None else 0
    hi = qc.theta_hi if qc.theta_hi is not None else 0
    lip = lip_on_window(f, lo, hi)
    ratio = best / lip if lip else Fraction(0)
    return DefectReport(seed=seed, count=count, strata=STRATA,
                        max_abs_delta=best, lip_window=lip,
                        ratio_to_lip=ratio,
                        argmax=tuple(str(v) for v in argmax),
                        theta_window=(lo, hi))


def max_alpha_scan(qc: QuasiCocycle, f: LipFn, count: int,
                   seed: int) -> tuple[Fraction, Fraction]:
    """(max |alpha_f|, max fill norm) over seeded sample triples."""
    _check_count(count)
    rng = random.Random(seed)
    best = Fraction(0)
    worst_norm = Fraction(0)
    for idx in range(count):
        pts = sample_tuple(qc.graph, rng, STRATA[idx % len(STRATA)], 3)
        if len(set(pts)) < 3:
            continue
        best = max(best, abs(qc.alpha(f, *pts)))
        worst_norm = max(worst_norm,
                         qc.engine.fill_triangle(*pts).norm)
    return best, worst_norm


# -- certificates ------------------------------------------------------------


def free_ball(radius: int) -> list[str]:
    """Ball of radius `radius` in F(a,b) with the free generators."""
    out = {""}
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in ("a", "A", "b", "B"):
                u = mul(w, s)
                if u not in out:
                    out.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(out, key=lambda w: (len(w), w))


def _ball_forms(qc: QuasiCocycle, radius: int
                ) -> tuple[dict[Weights, Triple], int]:
    """alpha on every distinct triple of the radius-`radius` Cayley ball of
    the free group at depth 0, in `combinations` order, as ({weights: first
    triple with them}, theta span of the fillings); forms that vanish for
    every f are left out.  Neither part depends on f."""
    ball = [Vertex(w, 0, 0) for w in free_ball(radius)]
    forms: dict[Weights, Triple] = {}
    theta: set[int] = set()
    for tri in combinations(ball, 3):
        weights, span = qc.form(*tri)
        theta.update(span)
        if weights:
            forms.setdefault(weights, tri)
    return forms, max(map(abs, theta), default=0)


def _witness(qc: QuasiCocycle, f: LipFn, forms: dict[Weights, Triple]
             ) -> tuple[tuple[str, ...], Fraction] | None:
    """(triple, alpha_f) for the first triple of `forms` on which alpha_f is
    not zero, or None."""
    for weights, tri in forms.items():
        val = qc.evaluate(f, (weights, ()))
        if val:
            return tuple(str(v) for v in tri), val
    return None


def bah_upper_bound_certificate(qc: QuasiCocycle, f: LipFn,
                                radii: list[int], khat: Fraction
                                ) -> list[dict]:
    """For each radius i, the least truncation level n_i that certifies exact
    vanishing on S_i^3 and (when possible) strictly improves the defect bound
    khat * lip_tail(f, n_i); the bound column witnesses the vanishing of the
    seminorm for sublinear f.  Each level n is checked on the distinct
    forms of the ball, read once per radius.

    Every radius is checked before any form is built: a negative one, or
    one past CERTIFICATE_RADIUS_MAX, raises ValueError, the latter naming
    its triple count."""
    for radius in radii:
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        if radius > CERTIFICATE_RADIUS_MAX:
            # the ball has 2 * 3^radius - 1 vertices; past radius 20 only
            # a lower bound is named, so a huge radius is refused at once
            size = 2 * 3 ** min(radius, 20) - 1
            raise ValueError(
                f"radius {radius} has {'over ' * (radius > 20)}"
                f"{comb(size, 3)} triples; at most radius "
                f"{CERTIFICATE_RADIUS_MAX} is certified")
    rows = []
    prev_bound: Fraction | None = None
    for radius in radii:
        forms, theta_span = _ball_forms(qc, radius)
        fallback = None
        chosen = None
        for n in range(theta_span, CERTIFICATE_N_MAX + 1):
            if _witness(qc, truncate(f, n), forms) is not None:
                continue
            bound = khat * lip_tail(f, n)
            if fallback is None:
                fallback = (n, bound)
            if prev_bound is None or bound < prev_bound:
                chosen = (n, bound)
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            rows.append({"radius": radius, "n": None, "bound": None,
                         "vanishes": False})
            continue
        n_i, bound = chosen
        prev_bound = bound
        rows.append({"radius": radius, "n": n_i, "bound": bound,
                     "vanishes": True})
    return rows


def nontriviality_certificate(qc: QuasiCocycle, f: LipFn,
                              ms: list[int]) -> list[dict]:
    """Rows (m, |alpha_f(A_m)| / ||A_m||_1): any bounded invariant primitive
    of delta alpha_f has sup norm at least the ratio."""
    for m in ms:
        depth_of(qc.graph, m)
    rows = []
    for m in ms:
        chain, form = _am(qc, m)
        value = qc.evaluate(f, form)
        norm = chain.l1_norm()
        rows.append({"m": m, "value": value, "am_norm": norm,
                     "ratio": abs(value) / norm})
    return rows


def independence_rank(fs: list[LipFn], ms: list[int]) -> int:
    """Rank over Q of the matrix [f_j(m_i) - f_j(0)]; every m, as for
    A_m, must be at least 1."""
    for m in ms:
        k_of(m)
    return len(row_reduce([[f(m) - f(0) for f in fs] for m in ms], len(fs)))
