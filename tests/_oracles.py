"""Independent oracles, and helpers only tests use, shared by the test
modules."""

from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import NamedTuple

from cuspedforms.chains import Chain
from cuspedforms.errors import FillDepthExceeded, Infeasible
from cuspedforms.fill import FILL_DEPTH_CAP
from cuspedforms.graph import Vertex, vertex_key
from cuspedforms.lipschitz import truncate
from cuspedforms.quasicocycle import _ball_forms, _witness
from cuspedforms.words import (COMM, COMM_INV, LETTERS, GroupElem, gamma_inv,
                               gamma_mul)


class HCoord(NamedTuple):
    """Coordinates on the peripheral Z^2: h = [a,b]^alpha * t^beta."""

    alpha: int
    beta: int


def h_coord(g) -> HCoord:
    """Coordinates of a peripheral element; raises if g is not in <[a,b],
    t>: the oracle for `words.coset_key`."""
    n, r = divmod(len(g.base), 4)
    if r != 0:
        raise ValueError(f"{g} is not peripheral")
    if g.base == COMM * n:
        return HCoord(n, g.texp)
    if g.base == COMM_INV * n:
        return HCoord(-n, g.texp)
    raise ValueError(f"{g} is not peripheral")


def bfs_oracle(graph, src, dst, cap):
    """Plain one-directional BFS, no pruning: the independent distance
    oracle for small instances."""
    if src == dst:
        return 0
    dist = {src: 0}
    frontier = [src]
    for r in range(cap):
        nxt = []
        for v in frontier:
            for w in graph.neighbors(v):
                if w == dst:
                    return r + 1
                if w not in dist:
                    dist[w] = r + 1
                    nxt.append(w)
        frontier = nxt
    return None


def transit_oracle(load, n1, n2):
    """The Groves-Manning transit between depths n1 and n2 of one
    horoball, `load` apart in l1, as the minimum over every level from
    max(n1, n2) to 64 levels past both it and the bit length of the load,
    each level's steps counted by floor division."""
    top = max(n1, n2)
    return min((lvl - n1) + (lvl - n2) + -(-load // 2 ** lvl)
               for lvl in range(top, max(top, load.bit_length()) + 65))


def unitriangular_mul(g, h) -> tuple[int, int, int]:
    """g h for g and h given as (M01, M12, M02) of integer unitriangular
    3x3 matrices, by the plain matrix product."""
    a, b = (((1, v[0], v[2]), (0, 1, v[1]), (0, 0, 1)) for v in (g, h))
    m = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
         for i in range(3)]
    return m[0][1], m[1][2], m[0][2]


def unitriangular(w: str) -> tuple[int, int, int]:
    """The image of w under a -> I + E01, b -> I + E12, as (M01, M12,
    M02): the oracle for `words.heis_image`."""
    letters = {"a": (1, 0, 0), "A": (-1, 0, 0), "b": (0, 1, 0),
               "B": (0, -1, 0)}
    out = (0, 0, 0)
    for ch in w:
        out = unitriangular_mul(out, letters[ch])
    return out


def shadow_ball_oracle(psi, center, radius):
    """The ball about `center`, an image (x, y, z, texp, depth) of
    `CuspedGraph.shadow`, in the cusped graph of Gamma / gamma_3(F), by a
    plain BFS over its vertices, with distances.  A depth-0 vertex (h, k)
    has the letter edges to h times `unitriangular` of the word psi^k(x),
    as a matrix product (no psibar); a depth-n vertex has every lattice
    point (z, k) + (alpha, beta) with |alpha| + |beta| <= 2^n, and the
    vertical edges."""
    def neighbors(v):
        x, y, z, k, n = v
        out = [(x, y, z, k, n + 1)]
        if n:
            out.append((x, y, z, k, n - 1))
        else:
            out += [(*unitriangular_mul((x, y, z),
                                        unitriangular(psi.apply(ch, k))), k, 0)
                    for ch in LETTERS]
        reach = 2 ** n
        out += [(x, y, z + da, k + db, n)
                for da in range(-reach, reach + 1)
                for db in range(abs(da) - reach, reach - abs(da) + 1)
                if da or db]
        return out

    dist = {center: 0}
    frontier = [center]
    for r in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        frontier = nxt
    return dist


def meet_point_oracle(graph, src, dst, d):
    """The `vertex_key`-least vertex at distance ceil(d/2) from src and
    floor(d/2) from dst, d = d(src, dst), from two explicit balls about
    src and dst, both cut at depth (d + depth(src) + depth(dst)) // 2: no
    distance search.  It is src when d = 0 and dst when d = 1."""
    half = (d + 1) // 2
    max_depth = (d + src.depth + dst.depth) // 2
    dist_s = graph.ball(src, half, max_depth)
    dist_t = graph.ball(dst, d - half, max_depth)
    return min((w for w, r in dist_s.items()
                if r == half and dist_t.get(w) == d - half), key=vertex_key)


def anchor_oracle(verts, psi):
    """`graph.anchor_simplex` pair by pair: over every vertex order, move
    each vertex by the inverse of the front vertex's element (gamma_inv and
    gamma_mul on the input words, no relative table) and keep the
    lex-least tuple of vertex keys; (that tuple's vertices, the sign of its
    order, the front vertex's element)."""
    best = None
    for perm in permutations(range(len(verts))):
        front = verts[perm[0]].elem
        back = gamma_inv(front, psi)
        cand = tuple(Vertex(*gamma_mul(back, verts[i].elem, psi),
                            verts[i].depth) for i in perm)
        key = tuple(vertex_key(v) for v in cand)
        if best is None or key < best[0]:
            sign = 1
            for i in range(len(perm)):
                for j in range(i + 1, len(perm)):
                    if perm[i] > perm[j]:
                        sign = -sign
            best = (key, cand, sign, front)
    return best[1:]


def fill_oracle(graph, kappa, canon, memo, filling=()):
    """(chain, method) of the filling of a canonical triple by the
    longest-side rule with all three sides asked: the unit simplex when
    the longest side is at most kappa, else the split of the longest side
    (the greater side on a tie) at its geodesic midpoint, each half
    anchored by `anchor_oracle`, filled the same way and translated back.
    A split that returns to a triple of `filling`, the triples still being
    filled, or nests past FILL_DEPTH_CAP of them raises FillDepthExceeded.
    `memo` keeps the finished fills by canonical triple."""
    if canon in memo:
        return memo[canon]
    if canon in filling or len(filling) > FILL_DEPTH_CAP:
        raise FillDepthExceeded(f"the oracle's split cycles at {canon}")
    dists = {(i, j): graph.distance(canon[i], canon[j])
             for i, j in ((0, 1), (0, 2), (1, 2))}
    longest = max(dists, key=lambda side: (dists[side], side))
    chain = Chain(2)
    if dists[longest] <= kappa:
        chain.add(canon, 1)
        method = "unit-simplex"
    else:
        i, j = longest
        (k,) = {0, 1, 2} - {i, j}
        # the cyclic relabeling that puts the side at (0, 1)
        y0, y1, y2 = (canon[i], canon[j], canon[k]) if (j - i) % 3 == 1 \
            else (canon[j], canon[i], canon[k])
        m = graph.geodesic_midpoint(y0, y1)
        for half in ((y0, m, y2), (m, y1, y2)):
            if len(set(half)) < 3:
                continue
            sub, sign, g = anchor_oracle(half, graph.psi)
            part = fill_oracle(graph, kappa, sub, memo,
                               (*filling, canon))[0].translate(graph, g)
            chain = chain + part if sign > 0 else chain - part
        method = "cone-split"
    memo[canon] = chain, method
    return memo[canon]


def alpha_oracle(qc, f, tri):
    """alpha_f face by face on the filling in its true position: each face
    adds coeff * eps(face) * (f at its three t-exponents) / 3, with eps
    computed afresh from the face's bases."""
    total = Fraction(0)
    for face, coeff in qc.engine.fill_triangle(*tri).chain.terms.items():
        e = qc.eps.on_words(*(v.base for v in face))
        if e:
            total += coeff * e * sum(f(v.texp) for v in face) / 3
    return total


def theta_window_oracle(qc, triples):
    """(least, greatest) t-exponent of a vertex of the fillings of the
    triples in their true position, or None if they touch none."""
    xs = [v.texp for tri in triples
          for face in qc.engine.fill_triangle(*tri).chain.terms
          for v in face]
    return (min(xs), max(xs)) if xs else None


def vanishing_certificate(qc, f, n, radius):
    """alpha_{f_n} on every distinct triple of the radius-`radius` Cayley
    ball of the free group at depth 0, read from the ball's distinct forms:
    the exact vanishing check, with the first non-vanishing triple as
    witness and the theta span of the fillings."""
    forms, theta_span = _ball_forms(qc, radius)
    witness = _witness(qc, truncate(f, n), forms)
    return {"n": n, "radius": radius, "vanishes": witness is None,
            "witness": witness, "theta_span": theta_span}


def basis_oracle(highs):
    """(basic split columns, nonbasic rows) of a solved `_Highs`, each
    increasing, by a status scan of getBasis(): the oracle for
    `lp.read_basis`."""
    from scipy.optimize._highspy._core import HighsBasisStatus
    basis, basic = highs.getBasis(), HighsBasisStatus.kBasic
    return ([k for k, s in enumerate(basis.col_status) if s == basic],
            [i for i, s in enumerate(basis.row_status) if s != basic])


def certify_oracle(columns, target, x, y) -> None:
    """`lp.certify` summing |A^T y| over every column: raise Infeasible
    unless A x = b, |A^T y|_inf <= 1 and b.y = |x|_1, with the same
    messages."""
    got = {}
    for col, c in zip(columns, x):
        if c:
            for i, v in col.items():
                got[i] = got.get(i, 0) + c * v
    if {i: v for i, v in got.items() if v} != \
            {i: v for i, v in target.items() if v}:
        raise Infeasible("certificate: A x != b")
    scale = lcm(*(v.denominator for v in y))
    ys = [v.numerator * (scale // v.denominator) for v in y]
    for j, col in enumerate(columns):
        if abs(sum(v * ys[i] for i, v in col.items())) > scale:
            raise Infeasible(f"certificate: |A^T y| > 1 on column {j}")
    norm = sum((abs(c) for c in x if c), Fraction(0))
    if sum(v * ys[i] for i, v in target.items()) != scale * norm:
        raise Infeasible(f"certificate: b.y != |x|_1 = {norm}")


def solve_exact(columns: list[dict[int, Fraction]], target: dict[int, Fraction],
                n_rows: int) -> list[Fraction]:
    """min sum |x_j| s.t. sum_j x_j * col_j = target, exact rationals: the
    entries may be ints or Fractions, and x holds Fractions only.

    Each signed variable is split into a positive and a negative part and the
    standard two-phase simplex method (Bland's rule, hence terminating) runs
    on a dense Fraction tableau: phase 1 is `feasible_basis`, and phase 2
    starts from its basis, which holds no artificial.
    """
    ncols = 2 * len(columns)
    tableau, basis = feasible_basis(columns, target, n_rows)
    _simplex(tableau, basis, [Fraction(1)] * ncols)
    x = [Fraction(0)] * ncols
    for row, bi in zip(tableau, basis):
        x[bi] = row[-1]
    return [x[2 * j] - x[2 * j + 1] for j in range(len(columns))]


def feasible_basis(columns: list[dict[int, Fraction]],
                   target: dict[int, Fraction], n_rows: int):
    """Phase 1 of `solve_exact`: (tableau, basis) of a basic feasible
    solution of the split LP whose basis holds no artificial.  The tableau
    has the columns [x+ | x-], one artificial per row and the right-hand
    side.  An artificial still basic after phase 1 sits at level 0; it is
    pivoted out on the first real column its row touches, and a row that
    touches none is a combination of the others and is dropped.  Raises
    Infeasible when no x solves the rows."""
    ncols = 2 * len(columns)
    # entries may be ints, as the filling LP's are: Fractions on entry keep
    # every pivot exact
    rhs = [Fraction(target.get(i, 0)) for i in range(n_rows)]
    rows: list[list[Fraction]] = []
    for i in range(n_rows):
        row = [Fraction(0)] * ncols
        for j, col in enumerate(columns):
            v = Fraction(col.get(i, 0))
            if v:
                row[2 * j] = v
                row[2 * j + 1] = -v
        rows.append(row)
    # make rhs nonnegative, add artificials
    for i in range(n_rows):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            rows[i] = [-v for v in rows[i]]
    tableau = [rows[i] + [Fraction(1) if k == i else Fraction(0)
                          for k in range(n_rows)] + [rhs[i]]
               for i in range(n_rows)]
    basis = [ncols + i for i in range(n_rows)]
    phase1_cost = [Fraction(0)] * ncols + [Fraction(1)] * n_rows
    if _simplex(tableau, basis, phase1_cost) != 0:
        raise Infeasible("no filling within the window")
    for i in reversed(range(n_rows)):
        if basis[i] >= ncols:
            enter = next((j for j in range(ncols) if tableau[i][j]), None)
            if enter is None:
                del tableau[i], basis[i]
            else:
                _pivot(tableau, basis, i, enter)
    return tableau, basis


def _simplex(tab, basis, costs):
    """Bland's-rule simplex on the tableau until no reduced cost is
    negative, entering only the columns that `costs` prices (phase 2 prices
    the real ones); returns the objective."""
    while True:
        # reduced costs under current basis
        red = list(costs)
        offset = Fraction(0)
        for i, bi in enumerate(basis):
            cb = costs[bi]
            if cb:
                offset += cb * tab[i][-1]
                for j in range(len(red)):
                    red[j] -= cb * tab[i][j]
        enter = next((j for j, r in enumerate(red) if r < 0), None)
        if enter is None:
            return offset
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise Infeasible("unbounded filling LP (should not happen)")
        _pivot(tab, basis, best[1], enter)


def _pivot(tab, basis, row, enter):
    """Make column `enter` basic in `row`."""
    piv = tab[row][enter]
    tab[row] = [v / piv for v in tab[row]]
    for i in range(len(tab)):
        if i != row and tab[i][enter]:
            f = tab[i][enter]
            tab[i] = [v - f * w for v, w in zip(tab[i], tab[row])]
    basis[row] = enter


# -- Gamma's holonomy over Z[omega] ------------------------------------------
#
# Gamma = F(a,b) x|_psi Z is the figure-eight knot group (Riley, "A quadratic
# parabolic group", 1975), with a faithful representation into SL(2, Z[omega]),
# omega^2 = -1 - omega.  An element x + y omega is the pair (x, y), and a
# matrix the row-major 4-tuple of its entries.  (This is not `moebius`'s rho,
# the representation of F(a,b) into SL(2, Z) that eps reads.)


def zw_mul(u, v):
    """(a + b omega)(c + d omega), with omega^2 = -1 - omega."""
    (a, b), (c, d) = u, v
    return (a * c - b * d, a * d + b * c - b * d)


def zw_mat_mul(m, n):
    def dot(x, y, z, w):
        (p, q), (r, s) = zw_mul(x, y), zw_mul(z, w)
        return (p + r, q + s)
    return (dot(m[0], n[0], m[1], n[2]), dot(m[0], n[1], m[1], n[3]),
            dot(m[2], n[0], m[3], n[2]), dot(m[2], n[1], m[3], n[3]))


def zw_mat_inv(m):
    """The inverse of a matrix of determinant 1."""
    p, q, r, s = m
    return (s, (-q[0], -q[1]), (-r[0], -r[1]), p)


def zw_det(m):
    (p, q), (r, s) = zw_mul(m[0], m[3]), zw_mul(m[1], m[2])
    return (p - r, q - s)


ZW_IDENTITY = ((1, 0), (0, 0), (0, 0), (1, 0))
#: rho(a) = [[2 + omega, -1], [1, 0]], rho(b) = [[-1, 4 + 3 omega],
#: [omega, 2 - omega]] and their inverses; rho(t^k) is `holonomy_t(k)`
HOLONOMY_LETTERS = {"a": ((2, 1), (-1, 0), (1, 0), (0, 0)),
                    "b": ((-1, 0), (4, 3), (0, 1), (2, -1))}
HOLONOMY_LETTERS.update({x.upper(): zw_mat_inv(m)
                         for x, m in list(HOLONOMY_LETTERS.items())})


def holonomy_t(k: int):
    """rho(t)^k = [[1, k omega], [0, 1]]."""
    return ((1, 0), (0, k), (0, 0), (1, 0))


def holonomy(g):
    """rho(g) of g = base t^texp (a GroupElem, or anything with a base and
    a t-exponent), letter by letter: no psi-power, no word operation."""
    m = ZW_IDENTITY
    for x in g.base:
        m = zw_mat_mul(m, HOLONOMY_LETTERS[x])
    return zw_mat_mul(m, holonomy_t(g.texp))


def holonomy_cusp(word: str):
    """The first column of rho(word) up to sign, as a set of its two signs:
    rho([a,b]) and rho(t) are upper triangular with diagonal +-1, so two
    words of one coset of <[a,b], t> give one set."""
    m = holonomy(GroupElem(word, 0))
    col = (m[0], m[2])
    return frozenset({col, tuple((-x, -y) for x, y in col)})


def representative(chain, key):
    """The simplex t^k . s of a coinvariant key (k, s) of the chain; its
    words grow like psi^k."""
    k, verts = key
    return tuple(Vertex(chain.psi.apply(v.base, k), v.texp + k, v.depth)
                 for v in verts)



def permutation_sign_oracle(perm) -> int:
    """(-1)^(n - number of cycles) of a permutation of range(n), by
    walking its cycles: the oracle for `graph.sort_with_sign`, which counts
    inversions."""
    seen: set[int] = set()
    cycles = 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)
