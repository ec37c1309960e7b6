"""Independent oracles, and helpers only tests use, shared by the test
modules."""

from fractions import Fraction

from cuspedforms.lipschitz import truncate
from cuspedforms.quasicocycle import _ball_forms, _witness


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
