"""Independent oracles, and helpers only tests use, shared by the test
modules."""

from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from cuspedforms.errors import Infeasible
from cuspedforms.graph import Vertex, vertex_key
from cuspedforms.lipschitz import truncate
from cuspedforms.quasicocycle import _ball_forms, _witness
from cuspedforms.words import COMM, COMM_INV, gamma_inv, gamma_mul


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


def solve_exact(columns: list[dict[int, Fraction]], target: dict[int, Fraction],
                n_rows: int) -> list[Fraction]:
    """min sum |x_j| s.t. sum_j x_j * col_j = target, exact rationals.

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
    rhs = [target.get(i, Fraction(0)) for i in range(n_rows)]
    rows: list[list[Fraction]] = []
    for i in range(n_rows):
        row = [Fraction(0)] * ncols
        for j, col in enumerate(columns):
            v = col.get(i)
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
