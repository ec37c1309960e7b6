"""The hyperbolization of F(a,b) with parabolic commutator, its boundary
action on the rational projective line, and the orientation cocycle.

Everything is exact: matrices have integer entries with determinant 1, and
boundary points live in P^1(Q) as coprime integer pairs, so orientation tests
never see a float.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import NotParabolic
from .words import COMM

Matrix = tuple[int, int, int, int]  # row-major (p, q; r, s)

IDENTITY_MATRIX: Matrix = (1, 0, 0, 1)


def mat_mul(m: Matrix, n: Matrix) -> Matrix:
    p, q, r, s = m
    t, u, v, w = n
    return (p * t + q * v, p * u + q * w, r * t + s * v, r * u + s * w)


def mat_inv(m: Matrix) -> Matrix:
    # valid for determinant 1
    p, q, r, s = m
    return (s, -q, -r, p)


def det(m: Matrix) -> int:
    return m[0] * m[3] - m[1] * m[2]


def trace(m: Matrix) -> int:
    return m[0] + m[3]


class BoundaryPoint(NamedTuple):
    """Point of P^1(Q): coprime pair (x : y) with y >= 0; (1 : 0) is infinity."""

    x: int
    y: int


INFINITY = BoundaryPoint(1, 0)


def boundary_point(x: int, y: int) -> BoundaryPoint:
    if x == 0 and y == 0:
        raise ValueError("(0:0) is not a projective point")
    g = gcd(abs(x), abs(y))
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return BoundaryPoint(x, y)


def parabolic_fixed_point(m: Matrix) -> BoundaryPoint:
    """The unique boundary fixed point of a parabolic matrix."""
    p, q, r, s = m
    if abs(p + s) != 2 or m in ((1, 0, 0, 1), (-1, 0, 0, -1)):
        raise NotParabolic(f"matrix {m} is not parabolic")
    if r != 0:
        return boundary_point(p - s, 2 * r)
    return INFINITY


class Hyperbolization:
    """A discrete faithful representation of F(a,b) into PSL(2,Z) whose
    commutator [a,b] is parabolic, together with the induced boundary action.

    The orientation sign of a triple of group elements is the cyclic order of
    their images of the commutator's fixed point on the boundary circle.
    """

    def __init__(self, mat_a: Matrix = (1, 1, 1, 2), mat_b: Matrix = (1, -1, -1, 2)):
        self.letter_matrices: dict[str, Matrix] = {
            "a": mat_a,
            "A": mat_inv(mat_a),
            "b": mat_b,
            "B": mat_inv(mat_b),
        }
        self._point_cache: dict[str, BoundaryPoint] = {}
        self.comm_matrix = self.rho(COMM)
        self.qbar = parabolic_fixed_point(self.comm_matrix)

    def check(self) -> None:
        for m in (self.letter_matrices["a"], self.letter_matrices["b"]):
            if det(m) != 1:
                raise ValueError("generator matrices must have determinant 1")
        if trace(self.comm_matrix) != -2:
            raise ValueError(
                "commutator of the generator matrices is not parabolic "
                f"(trace {trace(self.comm_matrix)}, expected -2)")

    def rho(self, word: str) -> Matrix:
        m = IDENTITY_MATRIX
        for x in word:
            m = mat_mul(m, self.letter_matrices[x])
        return m

    def orbit_point(self, word: str) -> BoundaryPoint:
        """rho(word) applied to the commutator's fixed point, cached by word."""
        pt = self._point_cache.get(word)
        if pt is None:
            # apply letter matrices right-to-left directly to the point
            x, y = self.qbar
            for letter in reversed(word):
                p, q, r, s = self.letter_matrices[letter]
                x, y = p * x + q * y, r * x + s * y
            pt = boundary_point(x, y)
            self._point_cache[word] = pt
        return pt


def cyclic_orientation(p0: BoundaryPoint, p1: BoundaryPoint, p2: BoundaryPoint) -> int:
    """Cyclic order of three points on P^1(Q): 0 if any two coincide, else +1
    for cyclically increasing finite reals (with or(inf, y, z) = sign(z - y)),
    -1 otherwise.  Invariant under cyclic permutation, flips under transposition.
    """
    d01 = p0.x * p1.y - p0.y * p1.x
    d12 = p1.x * p2.y - p1.y * p2.x
    d02 = p0.x * p2.y - p0.y * p2.x
    prod = d01 * d12 * d02
    if prod > 0:
        return -1
    if prod < 0:
        return 1
    return 0


class OrientationCocycle:
    """The bounded orientation cocycle on triples of cusped-graph vertices:
    the cyclic order of the boundary images of the free-group parts.
    """

    def __init__(self):
        self.hyp = Hyperbolization()

    def on_words(self, w0: str, w1: str, w2: str) -> int:
        return cyclic_orientation(self.hyp.orbit_point(w0),
                                  self.hyp.orbit_point(w1),
                                  self.hyp.orbit_point(w2))
